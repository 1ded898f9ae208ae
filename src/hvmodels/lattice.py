r"""Finite complete Heyting algebras.

An algebra is represented by a boolean order matrix ``leq`` over dense
integer element indices plus precomputed meet/join/implication tables, so
every lattice operation downstream is a table lookup.  Construction
validates the poset axioms, the existence of all binary meets and joins,
and binary distributivity; for a finite lattice the latter is equivalent
to the frame law a /\ \/S = \/{a /\ s : s in S}.

Every loop over blocks of rows in the package takes its blocks from
one rule, ``_row_blocks``, with its own budget of cells:
``SLAB_CELLS`` = 2^18 here, ``GATHER_CELLS`` = 2^14 for code gathers,
``valuation.FOLD_CELLS`` = 2^20 for folds over child slots,
``hset.SLAB_CELLS`` = 2^16 for morphism laws,
``valuation.GRID_BUDGET`` = 2^24 for ``strict_images`` and
``eval_grid``.  Construction is a fixed number of whole-array steps,
each over such blocks: meets and joins over the pairs a <= b, the
frame law on the join-irreducibles J, which in a finite lattice is
distributivity iff every element of J is join-prime (Davey &
Priestley, Introduction to Lattices and Order, 2nd ed., ch. 2, 5),
and the implication.  Memory stays O(n^2).  At the cap, a 512-element
chain or Boolean algebra builds in about 0.2 s on one core with under
10 MiB of numpy buffers at peak.
"""

import hashlib
from functools import cached_property, reduce

import numpy as np

from .errors import (
    BudgetExceeded,
    CrossAlgebra,
    NotAFrame,
    NotALattice,
    NotAPoset,
    ParseError,
)

# Builds in about 0.2 s and under 10 MiB at the cap; the float32 counts
# (at most n) and int16 ranks used in construction are exact far beyond it
MAX_ELEMENTS = 512
# Cells of one slab of a row-block step: 256 KiB of booleans
SLAB_CELLS = 1 << 18
# Cells of one block of a gather of Birkhoff codes, whose intp indices
# then stay in cache
GATHER_CELLS = 1 << 14


def _row_blocks(n, row_cells, cells):
    """The one block rule: slices of max(1, cells // row_cells) rows that
    cover the rows 0..n-1 in order, the last possibly past n."""
    step = max(1, cells // max(1, row_cells))
    return [slice(a, a + step) for a in range(0, n, step)]


def _compose(rel):
    """The relation rel;rel as booleans, by a float32 product: its counts
    are at most n <= MAX_ELEMENTS, so they are exact."""
    f = rel.astype(np.float32)
    return (f @ f) > 0


def _join_irreducible_mask(leq):
    """Mask of the elements with exactly one lower cover, in a partial
    order: c < p is a cover iff c and p are the only d with c <= d <= p."""
    f = leq.astype(np.float32)
    return ((f @ f) == 2).sum(axis=0) == 1


def _join_irreducibles_join_prime(leq, join_table):
    r"""Whether every join-irreducible p is join-prime: p <= a \/ b only if
    p <= a or p <= b.  That is, a -> {p in J : p <= a} preserves binary
    joins; it preserves meets and is injective, so this holds iff the
    lattice is distributive (Birkhoff).  Decided on rows of J bit-packed
    to bytes, in row blocks: n^2 |J| / 8 bytes in all."""
    below = np.packbits(leq[_join_irreducible_mask(leq)].T, axis=1)
    return all((below[join_table[rows]] == below[rows, None] | below).all()
               for rows in _row_blocks(len(leq), len(leq) * below.shape[1], SLAB_CELLS))


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

    Construction is a fixed number of numpy steps over row blocks of
    about ``SLAB_CELLS`` cells.  The implication comes last:
    {c : a /\ c <= b} has a top only once the frame check passed.
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
        leq = np.array(leq, dtype=bool, order="C")  # a copy: frozen below
        if leq.shape != (n, n):
            raise ParseError("order matrix shape does not match element count")

        self.name = name
        self.labels = labels
        self._index = {s: i for i, s in enumerate(labels)}
        self.n = n
        self.leq = leq

        self._check_poset()
        # indices are arbitrary, order is not: by down-set size, a linear
        # extension, from the bottom to the top
        order = np.argsort(leq.sum(axis=0))
        self.meet_table, self.join_table = self._compute_bounds(order)
        self.bottom, self.top = int(order[0]), int(order[-1])
        self._check_frame()
        self.impl_table = self._compute_implication(order)
        for arr in (self.leq, self.meet_table, self.join_table, self.impl_table):
            arr.setflags(write=False)

    # -- validation ------------------------------------------------------

    def _check_poset(self):
        leq = self.leq
        if not leq.diagonal().all():
            i = int(np.flatnonzero(~leq.diagonal())[0])
            raise NotAPoset("reflexivity", (self.labels[i],))
        both = leq & leq.T
        np.fill_diagonal(both, False)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise NotAPoset("antisymmetry", (self.labels[i], self.labels[j]))
        # the number of middles k of i <= k <= j is at most n <= 512, which
        # float32 holds exactly
        reach = _compose(leq)
        if (reach & ~leq).any():
            i, j = map(int, np.argwhere(reach & ~leq)[0])
            raise NotAPoset("transitivity", (self.labels[i], self.labels[j]))

    def _compute_bounds(self, order):
        # ranked[0][b, k] is c <= b for meets and ranked[1][b, k] is b <= c
        # for joins, c the k-th element of the linear extension `order`,
        # top down for meets and bottom up for joins.  The bound of a and b
        # is the first c related to both, the one with the largest down-set
        # for meets, if every common bound is related to it: the common
        # bounds hold c's own related set, so that holds iff they are no
        # more, a count of a float32 product.  Rows a come in blocks, over
        # the columns b >= the block's first row.  Failures are symmetric
        # on the block's own columns, so the first in row order is the
        # first failing (a, b >= a), meet before join.
        n, leq = self.n, self.leq
        orders = np.empty((2, n), dtype=np.intp)
        orders[0], orders[1] = order[::-1], order
        ranked = np.empty((2, n, n), dtype=bool)
        ranked[0], ranked[1] = leq[orders[0]].T, leq[:, order]
        as_float = leq.astype(np.float32)
        counts = np.empty((2, n, n), dtype=np.float32)
        np.matmul(as_float.T, as_float, out=counts[0])
        np.matmul(as_float, as_float.T, out=counts[1])
        sizes = counts.diagonal(axis1=1, axis2=2)
        kind = np.arange(2)[:, None, None]
        tables = np.empty((2, n, n), dtype=np.int64)
        for rows in _row_blocks(n, 2 * n * n, SLAB_CELLS):
            a0 = rows.start
            common = ranked[:, rows, None, :] & ranked[:, None, a0:, :]
            best = orders[kind, common.argmax(axis=3)]
            found = sizes[kind, best] == counts[:, rows, a0:]
            bad = ~(found[0] & found[1])
            if bad.any():
                a, b = np.unravel_index(int(bad.argmax()), bad.shape)
                raise NotALattice("join" if found[0, a, b] else "meet",
                                  (self.labels[a0 + a], self.labels[a0 + b]))
            tables[:, rows, a0:] = best
            tables[:, rows, :a0] = tables[:, :a0, rows].transpose(0, 2, 1)
        return tables

    def _check_frame(self):
        # decided on the join-irreducibles; only when that fails is
        # a /\ (b \/ c) == (a /\ b) \/ (a /\ c) searched, in row blocks,
        # for the first failing (a, b, c)
        if _join_irreducibles_join_prime(self.leq, self.join_table):
            return
        mt, jt = self.meet_table, self.join_table
        for rows in _row_blocks(self.n, self.n * self.n, SLAB_CELLS):
            block = mt[rows]
            bad = block[:, jt] != jt[block[:, :, None], block[:, None, :]]
            if bad.any():
                a, b, c = map(int, np.argwhere(bad)[0])
                raise NotAFrame((self.labels[rows.start + a], self.labels[b], self.labels[c]))

    def _compute_implication(self, order):
        # a -> b is the c with the largest down-set among {c : a /\ c <= b},
        # a set that _check_frame has made principal: the c of the highest
        # rank in the linear extension `order`, a max over rows of leq.  A
        # row of a block is n^2 booleans and their int16 product: 3 n^2 bytes
        n = self.n
        ranked = self.meet_table[:, order]
        rank = np.arange(1, n + 1, dtype=np.int16)[:, None]
        impl = np.empty((n, n), dtype=np.int64)
        for rows in _row_blocks(n, 3 * n * n, SLAB_CELLS):
            impl[rows] = order[(self.leq[ranked[rows]] * rank).max(axis=1) - 1]
        return impl

    @cached_property
    def join_irreducibles(self):
        """The join-irreducible elements in index order: those with
        exactly one lower cover (bottom has none, and an element with two
        or more is their join).  By Birkhoff's representation a <= b iff
        every join-irreducible below a is below b, and in a distributive
        lattice p <= \\/S iff p <= s for some s in S.  Computed on first
        use, not at construction."""
        return tuple(int(p) for p in np.flatnonzero(_join_irreducible_mask(self.leq)))

    @cached_property
    def codes(self):
        """The `BirkhoffCodes` of the elements, built on first use."""
        return BirkhoffCodes(self)

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


class BirkhoffCodes:
    r"""Every element as its Birkhoff code: the bitmask of the
    join-irreducibles J below it, bit i for J[i] (Davey & Priestley,
    ch. 5).  A code is `width` bytes, little-endian in bits, so an array
    of codes has a trailing axis of `width` bytes; bits past |J| are 0.

    Codes are injective, a /\ b is AND and a \/ b is OR.  a -> b is the
    interior of ~a | b, the largest down-set of J inside it: bit p is
    kept iff every bit q <= p in J is set.  The interior preserves AND.
    It is one 256-entry lookup per pair of bytes related by the order
    (one lookup when |J| <= 8), and `decode` walks a trie of the bytes.
    """

    def __init__(self, algebra):
        J, n = list(algebra.join_irreducibles), algebra.n
        self.size, self.width = len(J), max(1, -(-len(J) // 8))
        w = self.width
        bits = np.zeros((n + 8 * w, 8 * w), dtype=bool)
        bits[:n, :len(J)] = algebra.leq[J].T
        bits[n:n + len(J), :len(J)] = algebra.leq[np.ix_(J, J)].T  # down-sets
        packed = np.packbits(bits, axis=1, bitorder="little")
        self.table, down = packed[:n], packed[n:]
        self.top = self.table[algebra.top]
        values, valid = np.arange(256, dtype=np.uint8)[:, None], np.arange(8 * w) < len(J)
        self._interior = [
            [(c, np.packbits(((values & need) == need) & valid[8 * b:8 * b + 8],
                             axis=1, bitorder="little")[:, 0])
             for c, need in enumerate(down[8 * b:8 * b + 8].T) if c == b or need.any()]
            for b in range(w)]
        # byte c of the codes maps a prefix state and the byte to the next
        # state; the last byte's step gives the element
        self._trie, state, states = [], np.zeros(n, dtype=np.intp), 1
        for c in range(w):
            found, state = np.unique(state * 256 + self.table[:, c], return_inverse=True)
            step = np.zeros(256 * states, dtype=np.intp)
            step[found] = np.arange(len(found))
            self._trie.append(step)
            states = len(found)
        element = np.empty(states, dtype=np.min_scalar_type(n - 1))
        element[state] = np.arange(n)
        self._trie[-1] = element[self._trie[-1]]

    def encode(self, elements):
        return np.take(self.table, elements, axis=0)

    # decode and interior take arrays of codes with rows on the first
    # axis, and gather in row blocks of GATHER_CELLS cells

    def decode(self, codes):
        out = np.empty(codes.shape[:-1], dtype=self._trie[-1].dtype)
        for rows in _row_blocks(len(codes), codes[:1].size, GATHER_CELLS):
            block = codes[rows]
            state = np.take(self._trie[0], block[..., 0])
            for c in range(1, self.width):
                state = np.take(self._trie[c], state * 256 + block[..., c])
            out[rows] = state
        return out

    def interior(self, codes):
        """Every code replaced by its interior, in place; returns `codes`."""
        for rows in _row_blocks(len(codes), codes[:1].size, GATHER_CELLS):
            block = codes[rows]
            kept = [reduce(np.bitwise_and, (np.take(t, block[..., c]) for c, t in tables))
                    for tables in self._interior]
            for b, bits in enumerate(kept):
                block[..., b] = bits
        return codes

    def plane(self, codes, i):
        """Where J[i] is below, as booleans."""
        return (codes[..., i >> 3] & (1 << (i & 7))) != 0

    def from_planes(self, shape, planes):
        """The codes whose bit i is the i-th boolean plane."""
        out = np.zeros((*shape, self.width), dtype=np.uint8)
        for i, plane in enumerate(planes):
            out[..., i >> 3] |= plane.view(np.uint8) << (i & 7)
        return out


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
    r"""Whether a \/ -a is the top for every a."""
    negs = algebra.impl_table[:, algebra.bottom]
    return bool((algebra.join_table[np.arange(algebra.n), negs] == algebra.top).all())


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
                known = set(labels)
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
                if s not in known:
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
        # reflexive, so each squaring doubles the path length it closes
        while not np.array_equal(closed := _compose(leq), leq):
            leq = closed
    return HeytingAlgebra(labels, leq, name=name)
