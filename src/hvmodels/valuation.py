"""Recursive H-valuation of atomic and compound formulas.

Atomic values are defined by simultaneous recursion on names:

    [x in y]  =  \\/_{v in dom y} y(v) /\\ [x = v]
    [x ni y]  =  \\/_{u in dom x} x(u) /\\ [u = y]
    [x = y]   =  /\\_{v in dom y} (y(v) -> [x ni v])
              /\\ /\\_{u in dom x} (x(u) -> [u in y])

The recursion is well-founded because every sub-pair strictly drops in
rank on both coordinates; it is realized with an explicit stack and a
memo table so deep names cannot overflow the interpreter stack.
Equality is memoized under a symmetric key: the defining expression is
literally symmetric in its arguments, and the symmetry is additionally
guarded against a non-memoized reference implementation in the tests.

`eq_matrix` and `mem_matrix` compute whole blocks with an array kernel
instead: the downward closure of the requested names is laid out by
rank as padded child-position and child-value arrays, the equality
matrix is filled one rank level at a time with table lookups over
whole blocks (every sub-pair lies at a lower level), and membership is
derived from it with one gather per child slot.  The returned cells are
left in the context's memo, so later one-off queries hit it.
"""

from bisect import bisect_left
from itertools import repeat

import numpy as np

from .errors import EmptyFragment, UnboundVariable
from .formula import (
    And,
    BExists,
    BForall,
    Const,
    Eq,
    Implies,
    Member,
    Not,
    Or,
    UExists,
    UForall,
    Var,
)


class EvalContext:
    """Valuation context: one name store, one memo table, one fragment.

    `fragment` is the finite list of names that unbounded quantifiers
    range over; it approximates the proper-class quantifier of the
    underlying semantics (existentials from below, universals from
    above), and is exact for formulas whose quantifiers are bounded.
    """

    def __init__(self, store, fragment=()):
        self.store = store
        self.algebra = store.algebra
        self.fragment = tuple(store.check_id(u) for u in fragment)
        self._eq = {}
        self._mem = {}

    # -- atomic values ---------------------------------------------------

    def atomic_eq(self, x, y):
        x = self.store.check_id(x)
        y = self.store.check_id(y)
        key = (x, y) if x <= y else (y, x)
        memo = self._eq
        hit = memo.get(key)
        if hit is not None:
            return hit
        A = self.algebra
        mt, jt, it = A.meet_table, A.join_table, A.impl_table
        bottom, top = A.bottom, A.top
        entries = self.store.entries
        stack = [key]
        while stack:
            pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            a, b = pair
            ea, eb = entries(a), entries(b)
            missing = [
                sub
                for u, _ in ea
                for v, _ in eb
                if (sub := (u, v) if u <= v else (v, u)) not in memo
            ]
            if missing:
                stack.extend(missing)
                continue
            val = top
            for v, bv in eb:
                ni = bottom  # [a ni v]
                for u, au in ea:
                    sub = (u, v) if u <= v else (v, u)
                    ni = jt[ni, mt[au, memo[sub]]]
                val = mt[val, it[bv, ni]]
            for u, au in ea:
                mem = bottom  # [u in b]
                for v, bv in eb:
                    sub = (u, v) if u <= v else (v, u)
                    mem = jt[mem, mt[bv, memo[sub]]]
                val = mt[val, it[au, mem]]
            memo[pair] = int(val)
            stack.pop()
        return memo[key]

    def atomic_mem(self, x, y):
        x = self.store.check_id(x)
        y = self.store.check_id(y)
        hit = self._mem.get((x, y))
        if hit is not None:
            return hit
        A = self.algebra
        mt, jt = A.meet_table, A.join_table
        val = A.bottom
        for v, yv in self.store.entries(y):
            val = jt[val, mt[yv, self.atomic_eq(x, v)]]
        val = int(val)
        self._mem[(x, y)] = val
        return val

    def atomic_ni(self, x, y):
        return self.atomic_mem(y, x)

    # -- compound formulas -------------------------------------------------

    def term_value(self, term, sigma):
        if isinstance(term, Var):
            try:
                return sigma[term.name]
            except KeyError:
                raise UnboundVariable(f"variable {term.name!r} has no assignment")
        if isinstance(term, Const):
            return self.store.check_id(term.nid)
        raise TypeError(f"not a term: {term!r}")

    def eval(self, phi, sigma=None):
        sigma = {} if sigma is None else sigma
        A = self.algebra
        if isinstance(phi, Member):
            return self.atomic_mem(
                self.term_value(phi.left, sigma), self.term_value(phi.right, sigma)
            )
        if isinstance(phi, Eq):
            return self.atomic_eq(
                self.term_value(phi.left, sigma), self.term_value(phi.right, sigma)
            )
        if isinstance(phi, Not):
            return A.imp(self.eval(phi.body, sigma), A.bottom)
        if isinstance(phi, And):
            return A.meet(self.eval(phi.left, sigma), self.eval(phi.right, sigma))
        if isinstance(phi, Or):
            return A.join(self.eval(phi.left, sigma), self.eval(phi.right, sigma))
        if isinstance(phi, Implies):
            return A.imp(self.eval(phi.left, sigma), self.eval(phi.right, sigma))
        if isinstance(phi, BForall):
            x = self.term_value(phi.bound, sigma)
            val = A.top
            for u, xu in self.store.entries(x):
                val = A.meet(val, A.imp(xu, self.eval(phi.body, rebind(sigma, phi.var, u))))
            return val
        if isinstance(phi, BExists):
            x = self.term_value(phi.bound, sigma)
            val = A.bottom
            for u, xu in self.store.entries(x):
                val = A.join(val, A.meet(xu, self.eval(phi.body, rebind(sigma, phi.var, u))))
            return val
        if isinstance(phi, UForall):
            if not self.fragment:
                raise EmptyFragment("unbounded forall with no universe fragment")
            val = A.top
            for u in self.fragment:
                val = A.meet(val, self.eval(phi.body, rebind(sigma, phi.var, u)))
            return val
        if isinstance(phi, UExists):
            if not self.fragment:
                raise EmptyFragment("unbounded exists with no universe fragment")
            val = A.bottom
            for u in self.fragment:
                val = A.join(val, self.eval(phi.body, rebind(sigma, phi.var, u)))
            return val
        raise TypeError(f"not a formula: {phi!r}")

    def models(self, phi, sigma=None):
        return self.eval(phi, sigma) == self.algebra.top


def rebind(sigma, var, nid):
    """A copy of the assignment with `var` remapped to `nid`."""
    out = dict(sigma)
    out[var] = nid
    return out


# -- bulk helpers for sweeps ---------------------------------------------------


def _eq_kernel(ctx, ids_row, ids_col):
    r"""[u = v] over the downward closure of both id lists, as one array.

    Returns (rows, cols, EQ, K, V).  The names of the closure have
    positions ordered by rank; `rows` and `cols` are the positions of
    the two lists, and EQ is indexed by position.  Row p of K holds the
    positions of the children of name p, row p of V their values; both
    are padded to the widest domain with child 0 and value bottom, which
    is neutral in both formulas (bottom /\ a = bottom joins to nothing,
    bottom -> a = top meets to nothing).

    A pair's level is max(rank x, rank y), and every sub-pair the
    recursion reads lies at a strictly lower level.  The positions of
    rank <= r are a prefix, so level r fills the square block over that
    prefix from entries of the block below it, which are final.  For the
    y side the block is

        P[x, y] = /\_b (V[y, b] -> \/_a V[x, a] /\ EQ[K[x, a], K[y, b]])

    and the x side is its transpose, so EQ = P /\ P^T.
    """
    store, A = ctx.store, ctx.algebra
    mt, jt, it = A.meet_table, A.join_table, A.impl_table
    seen = set()
    stack = [store.check_id(u) for u in (*ids_row, *ids_col)]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(k for k, _ in store.entries(u))
    nodes = sorted(seen, key=lambda u: (store.rank(u), u))
    pos = {u: p for p, u in enumerate(nodes)}
    n = len(nodes)
    width = max([len(store.entries(u)) for u in nodes] + [1])
    K = np.zeros((n, width), dtype=np.intp)
    V = np.full((n, width), A.bottom, dtype=np.intp)
    ends = []
    for p, u in enumerate(nodes):
        for s, (k, v) in enumerate(store.entries(u)):
            K[p, s] = pos[k]
            V[p, s] = v
        if p + 1 == n or store.rank(nodes[p + 1]) != store.rank(u):
            ends.append(p + 1)
    EQ = np.full((n, n), A.top, dtype=np.intp)
    for end in ends:
        k, v = K[:end], V[:end]
        P = np.full((end, end), A.top, dtype=np.intp)
        for b in range(width):
            ni = np.full((end, end), A.bottom, dtype=np.intp)
            for a in range(width):
                sub = EQ[k[:, a][:, None], k[:, b][None, :]]
                ni = jt[ni, mt[v[:, a][:, None], sub]]
            P = mt[P, it[v[:, b][None, :], ni]]
        EQ[:end, :end] = mt[P, P.T]
    rows = np.array([pos[u] for u in ids_row], dtype=np.intp)
    cols = np.array([pos[v] for v in ids_col], dtype=np.intp)
    return rows, cols, EQ, K, V


def _seed(memo, ids_row, ids_col, out, symmetric):
    """Store every cell of `out` in `memo` as a Python int; equality
    cells go under the symmetric key (min id, max id).  Rows are
    converted one at a time, so no list of the whole matrix is built."""
    ids_col = list(ids_col)
    if not symmetric:
        for u, row in zip(ids_row, out):
            memo.update(zip(zip(repeat(u), ids_col), row.tolist()))
        return
    order = sorted(range(len(ids_col)), key=ids_col.__getitem__)
    cols = [ids_col[j] for j in order]
    for u, row in zip(ids_row, out[:, order]):
        q = bisect_left(cols, u)
        row = row.tolist()
        memo.update(zip(zip(cols[:q], repeat(u)), row[:q]))
        memo.update(zip(zip(repeat(u), cols[q:]), row[q:]))


# The cells are computed apart from eq_matrix / mem_matrix so that the
# kernel's arrays are freed before the memo fills, which keeps them out
# of the peak memory of a sweep.


def _eq_cells(ctx, ids_row, ids_col):
    rows, cols, EQ, _, _ = _eq_kernel(ctx, ids_row, ids_col)
    return EQ[np.ix_(rows, cols)].astype(np.int64)


def _mem_cells(ctx, ids_row, ids_col):
    # [u in v] = \/_b V[v, b] /\ [u = K[v, b]]: one gather per child slot
    rows, cols, EQ, K, V = _eq_kernel(ctx, ids_row, ids_col)
    A = ctx.algebra
    out = np.full((len(rows), len(cols)), A.bottom, dtype=np.int64)
    eq_rows = EQ[rows]
    for b in range(K.shape[1]):
        kids = K[cols, b]
        out = A.join_table[out, A.meet_table[V[cols, b][None, :], eq_rows[:, kids]]]
    return out


def eq_matrix(ctx, ids_row, ids_col=None):
    """Matrix of [u = v] values; symmetric when both id lists coincide.

    Computed by the array kernel over the downward closure of both
    lists; every returned cell is left in `ctx`'s memo."""
    ids_col = ids_row if ids_col is None else ids_col
    out = _eq_cells(ctx, ids_row, ids_col)
    _seed(ctx._eq, ids_row, ids_col, out, symmetric=True)
    return out


def mem_matrix(ctx, ids_row, ids_col=None):
    """Matrix of [u in v] values, derived from the equality kernel; every
    returned cell is left in `ctx`'s memo."""
    ids_col = ids_row if ids_col is None else ids_col
    out = _mem_cells(ctx, ids_row, ids_col)
    _seed(ctx._mem, ids_row, ids_col, out, symmetric=False)
    return out


# -- the functional-relation predicate ------------------------------------------


def make_function_predicate(h, x, y):
    """A bounded formula stating: h is a functional relation from x to y.

    Membership of pairs is expressed through the internal ordered-pair
    encoding: a member p of h "is the pair (u, v)" when p contains a
    singleton of u, contains a doubleton of u and v, and contains
    nothing else.  The three conjuncts assert that every member of h is
    such a pair with coordinates in x and y, that h is total on x, and
    that values are unique up to internal equality.
    """
    ch, cx, cy = Const(h), Const(x), Const(y)

    def sing(s, u, w):
        return And(Member(u, s), BForall(w, s, Eq(Var(w), u)))

    def doub(t, u, v, w):
        return And(
            And(Member(u, t), Member(v, t)),
            BForall(w, t, Or(Eq(Var(w), u), Eq(Var(w), v))),
        )

    def pair(p, u, v, tag):
        return And(
            And(
                BExists(f"s{tag}", p, sing(Var(f"s{tag}"), u, f"w{tag}a")),
                BExists(f"t{tag}", p, doub(Var(f"t{tag}"), u, v, f"w{tag}b")),
            ),
            BForall(
                f"r{tag}",
                p,
                Or(
                    sing(Var(f"r{tag}"), u, f"w{tag}c"),
                    doub(Var(f"r{tag}"), u, v, f"w{tag}d"),
                ),
            ),
        )

    members_are_pairs = BForall(
        "p", ch, BExists("u", cx, BExists("v", cy, pair(Var("p"), Var("u"), Var("v"), "1")))
    )
    total = BForall(
        "u", cx, BExists("p", ch, BExists("v", cy, pair(Var("p"), Var("u"), Var("v"), "2")))
    )
    unique = BForall(
        "p",
        ch,
        BForall(
            "q",
            ch,
            BForall(
                "u",
                cx,
                BForall(
                    "v",
                    cy,
                    BForall(
                        "w",
                        cy,
                        Implies(
                            And(
                                pair(Var("p"), Var("u"), Var("v"), "3"),
                                pair(Var("q"), Var("u"), Var("w"), "4"),
                            ),
                            Eq(Var("v"), Var("w")),
                        ),
                    ),
                ),
            ),
        ),
    )
    return And(And(members_are_pairs, total), unique)
