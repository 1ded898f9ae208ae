"""The cumulative universe of H-names up to bounded rank.

A name is a finite mapping from previously created names to algebra
elements.  Names are hash-consed in an append-only store: structurally
equal mappings receive the same integer id, so the store is an acyclic
DAG and structural recursion on entries always terminates.

The internal pairing lives here whole: `ordered_pair_h` builds the
pair (u, v) of names, and `FUNCTION_PREDICATE`, the formula
fun(H: X -> Y), recognizes it.  The predicate is formula-language
text, parsed on first use by `function_predicate`; callers evaluate
that one formula with H, X and Y assigned.
"""

import math
import re
from functools import cache
from itertools import combinations, islice, product

from .errors import (
    MAX_NESTING,
    BudgetExceeded,
    CrossAlgebra,
    ParseError,
    UnknownId,
    UnknownKey,
    WrongAlgebra,
)
from .formula import parse_formula
from .valuation import GRID_BUDGET


class NameStore:
    """Append-only interning store of names over one algebra."""

    def __init__(self, algebra):
        self.algebra = algebra
        self._entries = []  # canonical tuples of (key_id, value) sorted by key
        self._ranks = []
        self._interned = {}
        self._tags = []  # the ordinal tags made so far, see `ordinal_tags`
        self.empty = self.intern(())

    def __len__(self):
        return len(self._entries)

    def intern(self, entries):
        """Intern a mapping given as a dict or iterable of (key, value) pairs.

        Duplicate keys collapse (mapping semantics, last value wins).
        """
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = dict(entries).items()
        canon = []
        for k, v in sorted(items):
            if not isinstance(k, int) or not (0 <= k < len(self._entries)):
                raise UnknownKey(f"key {k!r} is not an interned name id")
            if not isinstance(v, int) or not (0 <= v < self.algebra.n):
                raise CrossAlgebra(f"value {v!r} is not an element of the algebra")
            canon.append((k, v))
        canon = tuple(canon)
        found = self._interned.get(canon)
        if found is not None:
            return found
        nid = len(self._entries)
        self._entries.append(canon)
        self._ranks.append(
            0 if not canon else 1 + max(self._ranks[k] for k, _ in canon)
        )
        self._interned[canon] = nid
        return nid

    def check_id(self, nid):
        if not isinstance(nid, int) or not (0 <= nid < len(self._entries)):
            raise UnknownId(f"{nid!r} is not an interned name id")
        return nid

    def entries(self, nid):
        return self._entries[self.check_id(nid)]

    def domain(self, nid):
        return tuple(k for k, _ in self._entries[self.check_id(nid)])

    def rank(self, nid):
        return self._ranks[self.check_id(nid)]

    def to_literal(self, nid):
        """Render a name in the `{(N, v), ...}` literal syntax, of any rank,
        rendering a subname shared by several entries once."""
        labels = self.algebra.labels
        return _fold_dag(
            self.check_id(nid), self.domain,
            lambda cur, done: "{" + ", ".join(
                f"({done[k]}, {labels[v]})" for k, v in self._entries[cur]) + "}")


def _fold_dag(root, children, build, done=None):
    """Fold the DAG below `root` bottom-up, without recursion: `build(node,
    done)` runs once for each node not yet in `done`, once `done` maps
    every child of it to its result.  Unfinished children are taken last
    first; a caller whose ids leak into its output relies on this order."""
    done = {} if done is None else done
    stack = [root]
    while stack:
        node = stack.pop()
        if node in done:
            continue
        missing = [k for k in children(node) if k not in done]
        if missing:
            stack += [node, *missing]
        else:
            done[node] = build(node, done)
    return done[root]


def pool_size(algebra_size, max_rank, max_domain=None, budget=None):
    """The exact number of names of rank <= max_rank with every domain
    capped at max_domain, over an algebra of `algebra_size` elements,
    counted without building one: c_0 = 1, and round k + 1 generates
    c_{k+1} = sum_{s <= cap} C(c_k, s) * |H|^s distinct mappings, which
    are the names of rank <= k + 1.  A round over the budget,
    `GRID_BUDGET` when None, raises BudgetExceeded before the next
    round's count is computed.  A negative rank or cap raises ParseError.
    """
    if max_rank < 0 or (max_domain is not None and max_domain < 0):
        raise ParseError(f"rank and domain cap must be >= 0, "
                         f"got {max_rank} and {max_domain}")
    budget = GRID_BUDGET if budget is None else budget
    count = 1
    for _ in range(max_rank):
        if max_domain is None or max_domain >= count:
            count = (1 + algebra_size) ** count  # the binomial theorem
        else:
            count = sum(math.comb(count, s) * algebra_size**s
                        for s in range(max_domain + 1))
        if count > budget:
            raise BudgetExceeded(
                f"enumeration round would generate {count} mappings, "
                f"over the budget of {budget}",
                predicted=count, budget=budget)
    return count


def enumerate_names(store, max_rank, max_domain=None, budget=None):
    """All names of rank <= max_rank with every domain capped at max_domain.

    Returns ids sorted ascending (equal to interning order for a fresh
    store).  Every round's count is predicted by `pool_size` before the
    first round runs, so a round over the budget raises BudgetExceeded,
    and a negative rank or cap ParseError, before any name is interned.
    """
    nh = store.algebra.n
    pool_size(nh, max_rank, max_domain, budget)
    pool = [store.empty]
    for _ in range(max_rank):
        pool_sorted = sorted(pool)
        cap = len(pool_sorted) if max_domain is None else min(max_domain, len(pool_sorted))
        nxt = []
        seen = set()
        for size in range(cap + 1):
            for dom in combinations(pool_sorted, size):
                for values in product(range(nh), repeat=size):
                    nid = store.intern(tuple(zip(dom, values)))
                    if nid not in seen:
                        seen.add(nid)
                        nxt.append(nid)
        pool = nxt
    return sorted(pool)


# -- hereditarily finite sets and the hat/check immersions ------------------


def as_hf(obj):
    """Normalize nested iterables into a nested-frozenset HF set, without
    recursion.  Each distinct input subterm is visited once, a frozenset
    or any other iterable keyed by its id, so no input is hashed or
    compared; equal results are interned to one frozenset, so equal
    subterms of the result are the same object.  A string, a non-iterable
    or a cycle raises ParseError."""
    done = {}      # id of a visited input -> its normalized set
    kids = {}      # id of an input -> its children, materialized once
    interned = {}
    stack = [obj]
    while stack:
        o = stack[-1]
        key = id(o)
        if key in done:
            stack.pop()
            continue
        if key not in kids:
            # a one-character string iterates to itself
            if isinstance(o, (str, bytes)) or not hasattr(o, "__iter__"):
                raise ParseError(f"not an HF set: {type(o).__name__} {o!r}")
            kids[key] = list(o)
            stack += [c for c in kids[key] if id(c) not in done]
            continue
        if not all(id(c) in done for c in kids[key]):
            raise ParseError("not an HF set: it contains itself")
        hf = frozenset(done[id(c)] for c in kids[key])
        done[key] = interned.setdefault(hf, hf)
        stack.pop()
    return done[id(obj)]


def ord_hf(k):
    """The von Neumann ordinal k as an HF set."""
    x = frozenset()
    for _ in range(k):
        x = x | frozenset([x])
    return x


def hat_embed(store, x):
    """The canonical name of an HF set: every membership gets value top.
    Each distinct subterm is interned once."""
    top = store.algebra.top
    return _fold_dag(as_hf(x), list,
                    lambda y, done: store.intern(tuple((done[z], top) for z in y)))


def ordinal_tags(store):
    """hat_embed(store, ord_hf(k)) for k = 0, 1, 2, ...: each ordinal is
    interned from the names of the ones before it, once per store; the
    store keeps the chain and it is extended on demand."""
    tags, k = store._tags, 0
    while True:
        if k == len(tags):
            tags.append(store.intern(tuple((t, store.algebra.top) for t in tags)))
        yield tags[k]
        k += 1


def check_project(store, nid):
    """Left inverse of hat_embed; defined over the two-element algebra only.
    Each distinct name is projected once."""
    if store.algebra.n != 2:
        raise WrongAlgebra("check_project is defined over the two-chain only")
    top = store.algebra.top
    return _fold_dag(nid, store.domain, lambda k, done: frozenset(
        done[j] for j, v in store.entries(k) if v == top))


# -- internal pairing --------------------------------------------------------


def singleton_h(store, u):
    return store.intern(((store.check_id(u), store.algebra.top),))


def unordered_pair_h(store, u, v):
    top = store.algebra.top
    return store.intern({store.check_id(u): top, store.check_id(v): top})


def ordered_pair_h(store, u, v):
    return unordered_pair_h(store, singleton_h(store, u), unordered_pair_h(store, u, v))


# "{p} is the pair ({u}, {v})", as `ordered_pair_h` builds it: p has a
# member that is the singleton of u and one that is the doubleton of u
# and v, and every member of p is one or the other.  The bound variables
# s, t, r and c are none of the variables filled in.
_PAIR = (r"((exists s in {p} . {u} in s /\ (forall c in s . c = {u}))"
         r" /\ (exists t in {p} . {u} in t /\ {v} in t /\ (forall c in t . c = {u} \/ c = {v}))"
         r" /\ (forall r in {p} . ({u} in r /\ (forall c in r . c = {u}))"
         r" \/ ({u} in r /\ {v} in r /\ (forall c in r . c = {u} \/ c = {v}))))")

FUNCTION_PREDICATE = (
    r"(forall p in H . exists u in X . exists v in Y . {puv})"
    r" /\ (forall u in X . exists p in H . exists v in Y . {puv})"
    r" /\ (forall p in H . forall q in H . forall u in X . forall v in Y . forall w in Y ."
    r" {puv} /\ {quw} -> v = w)"
).format(puv=_PAIR.format(p="p", u="u", v="v"), quw=_PAIR.format(p="q", u="u", v="w"))
"""fun(H: X -> Y), the formula stating that H is a functional relation
from X to Y: every member of H is a pair (u, v) with u in X and v in Y,
every u in X has such a pair, and its v is unique up to equality."""


@cache
def function_predicate():
    """`FUNCTION_PREDICATE` parsed, with the free variables H, X and Y;
    parsed on the first call."""
    return parse_formula(FUNCTION_PREDICATE, free=("H", "X", "Y"))


# -- equivalence padding ------------------------------------------------------


def pad_equivalent(store, nid, fresh_count):
    """A strictly larger name equal to `nid` with value top.

    Extends the domain by `fresh_count` fresh tag names valued bottom.
    Tags are hat-images of consecutive von Neumann ordinals, skipping any
    already present in the domain, so padding is deterministic and
    iterated pads of the same name are pairwise distinct.
    """
    if fresh_count < 1:
        raise ParseError("fresh_count must be >= 1")
    dom = set(store.domain(nid))
    tags = islice((t for t in ordinal_tags(store) if t not in dom), fresh_count)
    bottom = store.algebra.bottom
    return store.intern(store.entries(nid) + tuple((t, bottom) for t in tags))


# -- name literal parsing ------------------------------------------------------


def _tokenize_literal(text):
    tokens = [(m.group(), m.start()) for m in re.finditer(r"[{}(),]|[^\s{}(),]+", text)]
    return tokens + [(None, len(text))]


def parse_name_literal(store, text, bindings=None):
    """Parse `{}` / `{(N, v), ...}` literals; identifiers refer to bindings.
    Braces may nest at most `errors.MAX_NESTING` deep."""
    bindings = bindings or {}
    tokens = _tokenize_literal(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0]

    def take(expected=None):
        tok, col = tokens[pos[0]]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", column=col)
        pos[0] += 1
        return tok, col

    def parse_name(depth):
        tok, col = take()
        if tok == "{":
            if depth == MAX_NESTING:
                raise ParseError(f"name literal nests deeper than {MAX_NESTING} levels",
                                 column=col)
            entries = []
            if peek() == "}":
                take()
                return store.intern(())
            while True:
                take("(")
                key = parse_name(depth + 1)
                take(",")
                lab, lcol = take()
                if lab is None or lab in "{}(),":
                    raise ParseError("expected an element label", column=lcol)
                try:
                    val = store.algebra.index(lab)
                except KeyError:
                    raise ParseError(f"unknown element label {lab!r}", column=lcol)
                take(")")
                entries.append((key, val))
                nxt, ncol = take()
                if nxt == "}":
                    break
                if nxt != ",":
                    raise ParseError("expected ',' or '}'", column=ncol)
                if peek() == "}":  # trailing comma
                    take()
                    break
            return store.intern(entries)
        if tok is None:
            raise ParseError("unexpected end of literal", column=col)
        if tok in bindings:
            return bindings[tok]
        raise ParseError(f"unknown name binding {tok!r}", column=col)

    nid = parse_name(0)
    tok, col = take()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", column=col)
    return nid
