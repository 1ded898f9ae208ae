"""Exception types and the law report shared across the package.

Every structured failure carries enough context (labels, witnesses) to
reconstruct the violation without re-running the computation.  A law
that is checked rather than enforced reports through `Family`, which
counts its checks and collects the witnesses of those that fail.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# The deepest nesting a name literal or a formula may have; the
# recursive printers and the evaluator stay well inside Python's
# recursion limit below it.
MAX_NESTING = 100


class HvError(Exception):
    """Base class for all package errors."""


class ParseError(HvError):
    """Malformed input text (algebra, morphism, name, formula or script)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        where = ", ".join(f"{key} {val}" for key, val in (("line", self.line), ("col", self.column))
                          if val is not None)
        return f"{self.message} ({where})" if where else self.message

    @staticmethod
    @contextmanager
    def on_line(lineno):
        """Give a ParseError raised in the block, and carrying no line
        yet, the line number `lineno`."""
        try:
            yield
        except ParseError as ex:
            if ex.line is None:
                ex.line = lineno
            raise

    @staticmethod
    @contextmanager
    def from_column(offset):
        """Shift the column of a ParseError raised in the block by
        `offset`, for text that starts at that column of its line."""
        try:
            yield
        except ParseError as ex:
            if ex.column is not None:
                ex.column += offset
            raise


class NotAPoset(HvError):
    """The given order relation is not reflexive/antisymmetric/transitive."""

    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"not a poset: {law} fails at {witness}")


class NotALattice(HvError):
    """Some pair of elements lacks a meet or a join."""

    def __init__(self, kind, witness):
        self.kind = kind  # 'meet' or 'join'
        self.witness = witness
        super().__init__(f"not a lattice: no {kind} for pair {witness}")


class NotAFrame(HvError):
    """Binary distributivity fails, so the lattice is not a Heyting algebra."""

    def __init__(self, witness):
        self.witness = witness  # (a, b, c) labels with a/\(b\/c) != (a/\b)\/(a/\c)
        a, b, c = witness
        super().__init__(
            f"not a frame: {a}/\\({b}\\/{c}) != ({a}/\\{b})\\/({a}/\\{c})"
        )


class CrossAlgebra(HvError):
    """An element index or name belongs to a different algebra."""


class UnknownKey(HvError):
    """A name entry key was never interned in the store."""


class UnknownId(HvError):
    """A name id is out of range for the store."""


class BudgetExceeded(HvError):
    """An enumeration or search would exceed the configured ceiling."""

    def __init__(self, message, predicted=None, budget=None):
        self.predicted = predicted
        self.budget = budget
        super().__init__(message)


class WrongAlgebra(HvError):
    """Operation restricted to a specific algebra (e.g. the two-chain)."""


class UnboundVariable(HvError):
    """A free variable of the formula is missing from the assignment."""


class EmptyFragment(HvError):
    """An unbounded quantifier was evaluated with no universe fragment."""


class UnknownConstant(HvError):
    """An identifier in a formula resolves to neither a variable nor a constant."""


class MorphismError(HvError):
    """Base for locale-morphism validation failures; carries a witness."""

    law = "unspecified"

    def __init__(self, witness_labels, detail=""):
        self.witness = witness_labels
        msg = f"{self.law} at {witness_labels}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TopNotPreserved(MorphismError):
    law = "top not preserved"


class BottomNotPreserved(MorphismError):
    law = "bottom not preserved"


class NotMeetPreserving(MorphismError):
    law = "binary meet not preserved"


class NotJoinPreserving(MorphismError):
    law = "binary join not preserved"


class NotPositiveBounded(HvError):
    """Formula contains negation, implication or an unbounded quantifier."""


class NotEquivalent(HvError):
    """Two names required to be equal with value top are not."""


class NotAFunctionName(HvError):
    """A name does not satisfy the functional-relation predicate with value top."""


class NotComposable(HvError):
    """Morphism endpoints do not match."""


@dataclass
class Family:
    """The report of one law: how many checks ran and a witness for each
    that failed.  Truthy when no check failed."""

    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def record(self, ok, detail=None):
        self.checked += 1
        if not ok:
            self.violations.append(detail)

    def bulk(self, count, ok_mask_or_bool, detail=None):
        """Count `count` checks at once; on failure store one witness."""
        self.checked += count
        if isinstance(ok_mask_or_bool, np.ndarray):
            if not ok_mask_or_bool.all():
                self.violations.append(detail)
        elif not ok_mask_or_bool:
            self.violations.append(detail)
