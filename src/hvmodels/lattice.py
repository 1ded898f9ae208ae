r"""Finite complete Heyting algebras.

An algebra is represented by a boolean order matrix ``leq`` over dense
integer element indices plus precomputed meet/join/implication tables, so
every lattice operation downstream is a table lookup.  Construction
validates the poset axioms, the existence of all binary meets and joins,
and binary distributivity; for a finite lattice the latter is equivalent
to the frame law a /\ \/S = \/{a /\ s : s in S}.

Construction takes one numpy step of n^2 cells per element, so memory
stays n^2 (Davey & Priestley, Introduction to Lattices and Order, ch. 2, 5).
"""

import hashlib
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    CrossAlgebra,
    NotAFrame,
    NotALattice,
    NotAPoset,
    ParseError,
)

# About 1.5 s and 10 MB to build at the cap; int16 down-set counts need < 2^15
MAX_ELEMENTS = 512


def _check_size(n):
    if n > MAX_ELEMENTS:
        raise BudgetExceeded(f"{n} elements exceeds the {MAX_ELEMENTS} cap",
                             predicted=n, budget=MAX_ELEMENTS)


class HeytingAlgebra:
    r"""Immutable finite Heyting algebra with precomputed operation tables.

    Conventions
    -----------
    - Elements are the integers 0..n-1; ``labels[i]`` is the display name.
    - ``leq[i, j]`` is True iff element i <= element j.
    - ``meet_table``, ``join_table``, ``impl_table`` are n x n integer
      tables; ``impl_table[a, b]`` is the relative pseudo-complement
      a -> b = \/{c : a /\ c <= b}.

    Construction is n numpy steps of n^2 cells.  The implication comes
    last: {c : a /\ c <= b} has a top only once the frame check passed.
    Above ``MAX_ELEMENTS`` construction raises ``BudgetExceeded``.
    """

    def __init__(self, labels, leq, name=None):
        labels = [str(s) for s in labels]
        if len(set(labels)) != len(labels):
            raise ParseError("duplicate element labels")
        n = len(labels)
        if n == 0:
            raise ParseError("an algebra needs at least one element")
        _check_size(n)
        leq = np.array(leq, dtype=bool)  # a copy: frozen below
        if leq.shape != (n, n):
            raise ParseError("order matrix shape does not match element count")

        self.name = name
        self.labels = labels
        self._index = {s: i for i, s in enumerate(labels)}
        self.n = n
        self.leq = leq

        self._check_poset()
        self.meet_table, self.join_table = self._compute_bounds()
        # indices are arbitrary, order is not: the elements below and above all
        self.bottom = int(leq.all(axis=1).argmax())
        self.top = int(leq.all(axis=0).argmax())
        self._check_frame()
        self.impl_table = self._compute_implication()
        for arr in (self.leq, self.meet_table, self.join_table, self.impl_table):
            arr.setflags(write=False)

    # -- validation ------------------------------------------------------

    def _check_poset(self):
        leq = self.leq
        n = self.n
        if not leq.diagonal().all():
            i = int(np.flatnonzero(~leq.diagonal())[0])
            raise NotAPoset("reflexivity", (self.labels[i],))
        both = leq & leq.T
        np.fill_diagonal(both, False)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise NotAPoset("antisymmetry", (self.labels[i], self.labels[j]))
        # count the middles k of i <= k <= j in a dtype that holds n
        # without wrapping
        as_int = leq.astype(np.int32)
        reach = (as_int @ as_int) > 0
        if (reach & ~leq).any():
            i, j = map(int, np.argwhere(reach & ~leq)[0])
            raise NotAPoset("transitivity", (self.labels[i], self.labels[j]))

    def _compute_bounds(self):
        # rel[b, c] is c <= b for meets and b <= c for joins.  The bound of
        # a and b is the c related to both with the largest rel-row, if all
        # such c are rel-below it.  Deciding b >= a row by row reports the
        # first failing (a, b), meet before join.
        n = self.n
        rels = (np.ascontiguousarray(self.leq.T), self.leq)
        sizes = [rel.sum(axis=1, dtype=np.int16) for rel in rels]
        tables = [np.empty((n, n), dtype=np.int64) for _ in rels]
        for a in range(n):
            found = []
            for rel, size, table in zip(rels, sizes, tables):
                common = rel[a:] & rel[a]
                best = (common * size).argmax(axis=1)
                found.append(common[np.arange(n - a), best] & (~common | rel[best]).all(axis=1))
                table[a, a:] = table[a:, a] = best
            bad = ~(found[0] & found[1])
            if bad.any():
                b = int(bad.argmax())
                raise NotALattice("join" if found[0][b] else "meet",
                                  (self.labels[a], self.labels[a + b]))
        return tables

    def _check_frame(self):
        # a /\ (b \/ c) == (a /\ b) \/ (a /\ c), one n x n slab per a
        mt, jt = self.meet_table, self.join_table
        for a in range(self.n):
            row = mt[a]
            bad = row[jt] != jt[row[:, None], row[None, :]]
            if bad.any():
                b, c = map(int, np.argwhere(bad)[0])
                raise NotAFrame((self.labels[a], self.labels[b], self.labels[c]))

    def _compute_implication(self):
        # a -> b is the c with the largest down-set among {c : a /\ c <= b},
        # a set that _check_frame has made principal; geq[b, c] = c <= b
        geq = np.ascontiguousarray(self.leq.T)
        down = self.leq.sum(axis=0, dtype=np.int16)
        return np.stack([(geq[:, row] * down).argmax(axis=1) for row in self.meet_table]
                        ).astype(np.int64)

    @cached_property
    def join_irreducibles(self):
        """The join-irreducible elements in index order: those with
        exactly one lower cover (bottom has none, and an element with two
        or more is their join).  By Birkhoff's representation a <= b iff
        every join-irreducible below a is below b, and in a distributive
        lattice p <= \\/S iff p <= s for some s in S.  Computed on first
        use, not at construction."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        s = strict.astype(np.float32)
        covers = strict & ~((s @ s) > 0)
        return tuple(int(p) for p in np.flatnonzero(covers.sum(axis=0) == 1))

    # -- scalar operations ----------------------------------------------

    def check_element(self, a):
        if not isinstance(a, (int, np.integer)) or not (0 <= int(a) < self.n):
            raise CrossAlgebra(f"element index {a!r} not valid for this algebra")
        return int(a)

    def meet(self, a, b):
        return int(self.meet_table[a, b])

    def join(self, a, b):
        return int(self.join_table[a, b])

    def imp(self, a, b):
        return int(self.impl_table[a, b])

    def neg(self, a):
        return int(self.impl_table[a, self.bottom])

    def big_meet(self, elems):
        v = self.top
        for a in elems:
            v = int(self.meet_table[v, a])
        return v

    def big_join(self, elems):
        v = self.bottom
        for a in elems:
            v = int(self.join_table[v, a])
        return v

    def index(self, label):
        return self._index[label]

    def __repr__(self):
        tag = self.name or f"{self.n} elements"
        return f"HeytingAlgebra({tag})"

    def content_hash(self):
        h = hashlib.sha256()
        h.update(("|".join(self.labels)).encode())
        h.update(np.packbits(self.leq).tobytes())
        return h.hexdigest()


# -- module-level operations (validated entry points) ---------------------


def meet(algebra, a, b):
    return algebra.meet(algebra.check_element(a), algebra.check_element(b))


def join(algebra, a, b):
    return algebra.join(algebra.check_element(a), algebra.check_element(b))


def big_meet(algebra, elems):
    return algebra.big_meet([algebra.check_element(a) for a in elems])


def big_join(algebra, elems):
    return algebra.big_join([algebra.check_element(a) for a in elems])


def implication(algebra, a, b):
    return algebra.imp(algebra.check_element(a), algebra.check_element(b))


def negation(algebra, a):
    return algebra.neg(algebra.check_element(a))


def is_boolean(algebra):
    return all(
        algebra.join(a, algebra.neg(a)) == algebra.top for a in range(algebra.n)
    )


# -- constructors ----------------------------------------------------------


def make_chain(length, name=None):
    """Linear Heyting algebra 0 < m1 < ... < 1 with `length` elements."""
    if length < 1:
        raise ParseError("chain length must be >= 1")
    _check_size(length)
    if length == 1:
        labels = ["01"]
    elif length == 2:
        labels = ["0", "1"]
    elif length == 3:
        labels = ["0", "m", "1"]
    else:
        labels = ["0"] + [f"m{i}" for i in range(1, length - 1)] + ["1"]
    leq = np.tril(np.ones((length, length), dtype=bool)).T
    return HeytingAlgebra(labels, leq, name=name or f"chain{length}")


def make_boolean(atom_count, name=None):
    """Powerset Boolean algebra on `atom_count` atoms (2^k elements)."""
    if atom_count < 0:
        raise ParseError("atom count must be >= 0")
    n = 1 << atom_count
    _check_size(n)
    masks = np.arange(n)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    if atom_count == 0:
        labels = ["01"]
    elif atom_count == 2:
        labels = ["0", "a", "na", "1"]
    else:
        full = n - 1
        letters = "abcdefghijklmnop"

        def lab(mask):
            if mask == 0:
                return "0"
            if mask == full:
                return "1"
            return "".join(letters[i] for i in range(atom_count) if mask >> i & 1)

        labels = [lab(int(m)) for m in masks]
    return HeytingAlgebra(labels, leq, name=name or f"boolean{n}")


# -- built-in algebras ----------------------------------------------------

BUILTIN_ALGEBRAS = {
    "chain2": lambda: make_chain(2),
    "two": lambda: make_chain(2),
    "chain3": lambda: make_chain(3),
    "four": lambda: make_boolean(2),
    "boolean4": lambda: make_boolean(2),
}


# -- text format -----------------------------------------------------------


def text_lines(text):
    """Yield (lineno, line) for each line of a line-based file format,
    numbered from 1, with its `#` comment and surrounding blanks stripped;
    lines left empty are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def split_arrow_header(head, usage):
    """Split the `NAME : A -> B` part of a header line into its three
    stripped fields; `usage` is the whole header quoted on error."""
    try:
        name, arrow = head.split(":", 1)
        a, b = arrow.split("->", 1)
    except ValueError:
        raise ParseError(f"expected {usage!r}")
    return name.strip(), a.strip(), b.strip()


def load_algebra(source, name=None):
    """Parse the line-based algebra format.

    ``elements: a, b, c`` followed by either ``order: a<=b`` lines giving
    the full order relation (reflexivity implied) or ``hasse: a<b`` cover
    lines (reflexive-transitive closure applied).
    """
    labels = None
    mode = None  # 'order' or 'hasse'
    rel = []
    for lineno, line in text_lines(source):
        with ParseError.on_line(lineno):
            if line.startswith("elements:"):
                if labels is not None:
                    raise ParseError("duplicate elements line")
                labels = [s.strip() for s in line[len("elements:"):].split(",") if s.strip()]
                if not labels:
                    raise ParseError("empty element list")
                _check_size(len(labels))
                continue
            if labels is None:
                raise ParseError("expected an elements: line first")
            if line.startswith("order:"):
                kind, body, sep = "order", line[len("order:"):], "<="
            elif line.startswith("hasse:"):
                kind, body, sep = "hasse", line[len("hasse:"):], "<"
            else:
                raise ParseError(f"unrecognized line {line!r}")
            if mode is None:
                mode = kind
            elif mode != kind:
                raise ParseError("cannot mix order: and hasse: lines")
            parts = body.split(sep)
            if len(parts) != 2:
                raise ParseError(f"expected <a>{sep}<b>")
            a, b = parts[0].strip(), parts[1].strip()
            for s in (a, b):
                if s not in labels:
                    raise ParseError(f"unknown element {s!r}")
            rel.append((a, b))
    if labels is None:
        raise ParseError("missing elements: line")
    n = len(labels)
    index = {s: i for i, s in enumerate(labels)}
    leq = np.eye(n, dtype=bool)
    for a, b in rel:
        leq[index[a], index[b]] = True
    if mode == "hasse":
        # Warshall closure of the cover relation
        for k in range(n):
            leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return HeytingAlgebra(labels, leq, name=name)
