"""Formula language: AST, parser, printer, and shape validators.

Grammar (loosest to tightest binding):

    formula := quant | impl
    impl    := or ("->" impl)?            right associative
    or      := and ("\\/" and)*
    and     := unary ("/\\" unary)*
    unary   := "~" unary | atom | "(" formula ")"
    atom    := term ("=" | "in") term
    quant   := ("forall" | "exists") IDENT ("in" term)? "." formula
    term    := IDENT

An identifier in term position resolves to the innermost enclosing
quantifier variable, else to a constant binding supplied by the caller.
Quantifiers with an "in" bound range over the domain of the bound name;
without one they range over an explicit universe fragment at evaluation
time.

A formula may nest "~", parentheses, quantifiers and "->" at most
`errors.MAX_NESTING` deep, and its syntax tree may be at most that high,
so a long "/\\" or "\\/" chain counts one level per operator.
"""

import re
from dataclasses import dataclass

from .errors import MAX_NESTING, BudgetExceeded, ParseError, UnknownConstant

# -- terms -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    nid: int
    text: str = None


# -- formulas ----------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class BForall:
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class BExists:
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class UForall:
    var: str
    body: object


@dataclass(frozen=True)
class UExists:
    var: str
    body: object


ATOMS = (Member, Eq)
BINARY = (And, Or, Implies)
QUANTIFIERS = (BForall, BExists, UForall, UExists)


def free_vars(phi):
    """Free variable names of a formula.  A formula higher than
    `MAX_NESTING` raises `BudgetExceeded` before anything recurses."""
    check_height(phi)
    return _free_vars(phi)


def _free_vars(phi):
    if isinstance(phi, ATOMS):
        out = set()
        for t in (phi.left, phi.right):
            if isinstance(t, Var):
                out.add(t.name)
        return out
    if isinstance(phi, Not):
        return _free_vars(phi.body)
    if isinstance(phi, BINARY):
        return _free_vars(phi.left) | _free_vars(phi.right)
    if isinstance(phi, (BForall, BExists)):
        out = _free_vars(phi.body) - {phi.var}
        if isinstance(phi.bound, Var):
            out.add(phi.bound.name)
        return out
    if isinstance(phi, (UForall, UExists)):
        return _free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def is_positive_bounded(phi):
    """True iff built from atoms, /\\, \\/ and bounded quantifiers only.
    A formula higher than `MAX_NESTING` raises `BudgetExceeded` before
    anything recurses."""
    check_height(phi)
    return _is_positive_bounded(phi)


def _is_positive_bounded(phi):
    if isinstance(phi, ATOMS):
        return True
    if isinstance(phi, (And, Or)):
        return _is_positive_bounded(phi.left) and _is_positive_bounded(phi.right)
    if isinstance(phi, (BForall, BExists)):
        return _is_positive_bounded(phi.body)
    if isinstance(phi, (Not, Implies, UForall, UExists)):
        return False
    raise TypeError(f"not a formula: {phi!r}")


# -- printer -------------------------------------------------------------------

_LEVEL_IMPL, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4


def _term_text(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.text if t.text is not None else f"#{t.nid}"
    raise TypeError(f"not a term: {t!r}")


def to_text(phi):
    """Render a formula in the surface grammar (parseable back when all
    constants carry their source text).  A formula higher than
    `MAX_NESTING` raises `BudgetExceeded` before anything recurses."""
    check_height(phi)
    return _to_text(phi, 0)


def _to_text(phi, level):
    if isinstance(phi, Member):
        s = f"{_term_text(phi.left)} in {_term_text(phi.right)}"
        lvl = _LEVEL_UNARY
    elif isinstance(phi, Eq):
        s = f"{_term_text(phi.left)} = {_term_text(phi.right)}"
        lvl = _LEVEL_UNARY
    elif isinstance(phi, Not):
        s = f"~{_to_text(phi.body, _LEVEL_UNARY)}"
        lvl = _LEVEL_UNARY
    elif isinstance(phi, And):
        # left associative: the right child needs the tighter level
        s = f"{_to_text(phi.left, _LEVEL_AND)} /\\ {_to_text(phi.right, _LEVEL_AND + 1)}"
        lvl = _LEVEL_AND
    elif isinstance(phi, Or):
        s = f"{_to_text(phi.left, _LEVEL_OR)} \\/ {_to_text(phi.right, _LEVEL_OR + 1)}"
        lvl = _LEVEL_OR
    elif isinstance(phi, Implies):
        # right associative: left child needs the tighter level
        s = f"{_to_text(phi.left, _LEVEL_OR)} -> {_to_text(phi.right, _LEVEL_IMPL)}"
        lvl = _LEVEL_IMPL
    elif isinstance(phi, (BForall, BExists)):
        word = "forall" if isinstance(phi, BForall) else "exists"
        s = f"{word} {phi.var} in {_term_text(phi.bound)} . {_to_text(phi.body, 0)}"
        lvl = 0
    elif isinstance(phi, (UForall, UExists)):
        word = "forall" if isinstance(phi, UForall) else "exists"
        s = f"{word} {phi.var} . {_to_text(phi.body, 0)}"
        lvl = 0
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if lvl < level:
        return f"({s})"
    return s


# -- parser ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|\\/|/\\|[~().=]|[A-Za-z0-9_]+)")
_KEYWORDS = {"forall", "exists", "in"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}",
                                 column=len(text) - len(rest))
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, constants, free):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.constants = constants
        self.free = set(free)
        self.scope = []
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, expected=None):
        tok, col = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", column=col)
        self.pos += 1
        return tok, col

    def nest(self, col):
        """Go one level deeper for the construct at column `col`; the
        caller restores the depth it started from."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels",
                             column=col)

    def is_ident(self, tok):
        return tok is not None and re.fullmatch(r"[A-Za-z0-9_]+", tok) and tok not in _KEYWORDS

    def formula(self):
        if self.peek() in ("forall", "exists"):
            return self.quant()
        return self.impl()

    def quant(self):
        word, wcol = self.take()
        var, col = self.take()
        if not self.is_ident(var):
            raise ParseError(f"expected a variable after {word!r}", column=col)
        bound = None
        if self.peek() == "in":
            self.take()
            bound = self.term()
        self.take(".")
        self.scope.append(var)
        self.nest(wcol)
        body = self.formula()
        self.depth -= 1
        self.scope.pop()
        if word == "forall":
            return BForall(var, bound, body) if bound is not None else UForall(var, body)
        return BExists(var, bound, body) if bound is not None else UExists(var, body)

    def impl(self):
        left = self.or_()
        if self.peek() == "->":
            self.nest(self.take()[1])
            right = self.impl()
            self.depth -= 1
            return Implies(left, right)
        return left

    def or_(self):
        node = self.and_()
        while self.peek() == "\\/":
            self.take()
            node = Or(node, self.and_())
        return node

    def and_(self):
        node = self.unary()
        while self.peek() == "/\\":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok not in ("~", "("):
            return self.atom()
        self.nest(self.take()[1])
        if tok == "~":
            node = Not(self.unary())
        else:
            node = self.formula()
            self.take(")")
        self.depth -= 1
        return node

    def atom(self):
        left = self.term()
        op, col = self.take()
        if op == "=":
            return Eq(left, self.term())
        if op == "in":
            return Member(left, self.term())
        raise ParseError(f"expected '=' or 'in', found {op!r}", column=col)

    def term(self):
        tok, col = self.take()
        if not self.is_ident(tok):
            raise ParseError(f"expected an identifier, found {tok!r}", column=col)
        if tok in self.scope or tok in self.free:
            return Var(tok)
        if tok in self.constants:
            return Const(self.constants[tok], tok)
        raise UnknownConstant(f"{tok!r} is neither bound nor a known constant (col {col})")


def _height(phi):
    """Height of a syntax tree, atoms at 0, counted without recursion."""
    best, stack = 0, [(phi, 0)]
    while stack:
        node, h = stack.pop()
        best = max(best, h)
        if not isinstance(node, ATOMS):
            stack.extend((getattr(node, attr), h + 1)
                         for attr in ("left", "right", "body") if hasattr(node, attr))
    return best


def check_height(phi):
    """Raise `BudgetExceeded` when a formula's syntax tree is higher than
    `MAX_NESTING`, the most a parsed one may have: the evaluators recurse
    once per level, and a built formula has no other bound."""
    height = _height(phi)
    if height > MAX_NESTING:
        raise BudgetExceeded(
            f"formula of height {height} is over the cap of {MAX_NESTING} levels",
            predicted=height, budget=MAX_NESTING)


def parse_formula(text, constants=None, free=()):
    """Parse a formula; identifiers resolve via quantifier scope, the
    `free` variable whitelist, then the `constants` mapping to name ids."""
    p = _Parser(text, constants or {}, free)
    node = p.formula()
    tok, col = p.take()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", column=col)
    if _height(node) > MAX_NESTING:
        raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", column=0)
    return node
