"""Recursive H-valuation of atomic and compound formulas.

Equality is mutual inclusion; membership and inclusion are folds over
the entries of one name:

    [x in y]  =  \\/_{v in dom y} y(v) /\\ [x = v]
    [x sub y] =  /\\_{u in dom x} x(u) -> [u in y]
    [x = y]   =  [x sub y] /\\ [y sub x]

and [x ni y] = [y in x], well-founded as every sub-pair drops in rank
on both sides.  The one-off path (`atomic_eq`, `atomic_mem`, `eval`)
runs it on an explicit stack with a symmetric memo, for single cells
only: `EvalContext.eval` (the CLI's `eval`, the bounded samples of law
families 10 and 11, `hset.lambda_f`'s predicate check),
`transfer.witnessed_lift_with`, `transfer.is_generalized_related`, and
the per-name checks of `checks.functoriality_suite` and
`checks.immersion_suite`.

`grid_codes` is the one bulk path: it evaluates a batch of formulas
for every assignment of a grid of columns, as one plan whose nodes are
shared across the batch, each subformula as an array over its free
variables; `eval_grid` is it on one formula, decoded.  Atoms are
gathers from an array kernel over the downward closure of the names
involved, laid out by rank in the one padded child layout,
`child_arrays` (shared with `transfer`), and membership, inclusion and
equality are filled one rank level at a time, each by the one fold
over child slots, `_code_fold`.  The kernel holds every value as its
Birkhoff code, the bitmask of the join-irreducibles below it
(`HeytingAlgebra.codes`), so a fold is bitwise AND and OR, and an
implication one interior step per fold.  The grid computes on the same
codes, and bounded quantifiers fold over the kernel's child slots, as
do the law families of `checks`.  Every H-set bridge table (`hset`,
`transfer.epsilon_tables`) is a gather too: `_extents` reads the child
slots and extents of the names it bridges, and `_bridge` meets them
with EQ or MEM.  `eq_matrix` and `mem_matrix` are `eval_grid` on one
atom.  The context keeps its last kernel and reuses it while the names
asked for lie in its closure; no bulk result goes into the memo.
"""

from itertools import product as iproduct, repeat

import numpy as np

from .errors import BudgetExceeded, EmptyFragment, UnboundVariable
from .formula import (
    And,
    BExists,
    BForall,
    Const,
    Eq,
    FORMULAS,
    Implies,
    Member,
    Not,
    Or,
    QUANTIFIERS,
    UExists,
    UForall,
    Var,
    check_height,
)
from .lattice import _row_blocks


class EvalContext:
    """Valuation context: one name store, one memo table, one fragment,
    and one kernel of [x = y] and [x in y].

    `fragment` is the finite list of names that unbounded quantifiers
    range over; it approximates the proper-class quantifier of the
    underlying semantics (existentials from below, universals from
    above), and is exact for formulas whose quantifiers are bounded.

    The memo is filled by the one-off path (`atomic_eq`, `atomic_mem`
    and `eval`), which recurses on equality as mutual inclusion one
    pair at a time.  The kernel is the one a grid or a bridge last built
    (`_eq_kernel`): the same definition, decided a rank level at a time
    over whole arrays (see `_build_kernel`).  It is reused while the
    names asked for lie in its closure, and replaced otherwise.
    """

    def __init__(self, store, fragment=()):
        self.store = store
        self.algebra = store.algebra
        self.fragment = tuple(store.check_id(u) for u in fragment)
        self._eq = {}
        self._mem = {}
        self._kernel = None

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
        """[phi] under the assignment `sigma`; a formula higher than
        `MAX_NESTING` raises `BudgetExceeded` before anything recurses."""
        check_height(phi)
        return self._eval(phi, {} if sigma is None else sigma)

    def _eval(self, phi, sigma):
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
            return A.imp(self._eval(phi.body, sigma), A.bottom)
        if isinstance(phi, And):
            return A.meet(self._eval(phi.left, sigma), self._eval(phi.right, sigma))
        if isinstance(phi, Or):
            return A.join(self._eval(phi.left, sigma), self._eval(phi.right, sigma))
        if isinstance(phi, Implies):
            return A.imp(self._eval(phi.left, sigma), self._eval(phi.right, sigma))
        if isinstance(phi, QUANTIFIERS):
            # unbounded: the bounded rule over the fragment, every member at
            # extent top, as top -> v = v and top /\ v = v
            forall = isinstance(phi, (BForall, UForall))
            if isinstance(phi, (BForall, BExists)):
                members = self.store.entries(self.term_value(phi.bound, sigma))
            elif self.fragment:
                members = zip(self.fragment, repeat(A.top))
            else:
                raise EmptyFragment(f"unbounded {'forall' if forall else 'exists'} "
                                    "with no universe fragment")
            val = A.top if forall else A.bottom
            for u, xu in members:
                body = self._eval(phi.body, rebind(sigma, phi.var, u))
                val = A.meet(val, A.imp(xu, body)) if forall else A.join(val, A.meet(xu, body))
            return val
        raise TypeError(f"not a formula: {phi!r}")

    def models(self, phi, sigma=None):
        return self.eval(phi, sigma) == self.algebra.top


def rebind(sigma, var, nid):
    """A copy of the assignment with `var` remapped to `nid`."""
    out = dict(sigma)
    out[var] = nid
    return out


# -- bulk valuation: whole grids on one kernel per context ---------------------

GRID_BUDGET = 1 << 24
"""Bytes of the largest array `eval_grid` or the equality kernel builds
at once, a cell being one Birkhoff code of `width` bytes (one byte, so
one cell, when |J| <= 8): a grid runs in blocks of its first column
that fit in it, and a kernel above it is refused."""


def eq_matrix(ctx, ids_row, ids_col=None):
    """Matrix of [u = v] values as an int64 array, symmetric when both id
    lists coincide: `eval_grid` on the atom x = y, so it comes from the
    context's kernel and leaves nothing in its memo."""
    ids_col = ids_row if ids_col is None else ids_col
    return eval_grid(ctx, Eq(Var("x"), Var("y")), {"x": ids_row, "y": ids_col})


def mem_matrix(ctx, ids_row, ids_col=None):
    """Matrix of [u in v] values as an int64 array: `eval_grid` on the
    atom x in y, so it comes from the context's kernel and leaves nothing
    in its memo."""
    ids_col = ids_row if ids_col is None else ids_col
    return eval_grid(ctx, Member(Var("x"), Var("y")), {"x": ids_row, "y": ids_col})


def _eq_kernel(ctx, ids):
    """The kernel of `ctx` when its closure holds every id of `ids`;
    otherwise one built over the closure of `ids`, which replaces it.

    The context keeps one kernel.  A kept kernel is never stale: the
    store is append-only and the entries of a name never change.
    """
    kernel = ctx._kernel
    if kernel is None or not all(u in kernel[0] for u in ids):
        ctx._kernel = None  # free the old arrays before the new ones exist
        ctx._kernel = kernel = _build_kernel(ctx.store, ids)
    return kernel


def _extents(ctx, owners, names=()):
    r"""The H-set bridges' gather, on the context's kernel over the closure
    of `owners` and `names`: the kernel; the kernel positions K (G, w) of
    each owner's children, in domain order; the codes E (G, w, width) of
    their extents [u in owner], off MEM; and D = E /\ EQ[K, K] /\ E, the
    codes of the owners' `hset.from_name` tables.  Padded to the widest
    owner with position 0 and code 0 (bottom).  Owner ids are checked."""
    kernel = _eq_kernel(ctx, [*map(ctx.store.check_id, owners), *names])
    pos, EQ, MEM, K, _, sizes = kernel
    rows = np.array([pos[u] for u in owners], dtype=np.intp)
    sizes = sizes[rows]
    K = K[rows, :sizes.max(initial=0)]
    E = MEM[K, rows[:, None]]
    E[np.arange(K.shape[1]) >= sizes[:, None]] = 0
    return kernel, K, E, _bridge(E, EQ[K[..., :, None], K[..., None, :]], E)


def _bridge(left, M, right):
    r"""left[i] /\ M[i, j] /\ right[j] on codes, over leading stack axes."""
    return left[..., :, None, :] & M & right[..., None, :, :]


def _closure(store, ids):
    """The downward closure of `ids` in `store`, ordered by (rank, id), so
    the names of rank <= r are a prefix and every child comes before its
    parent."""
    seen = set()
    stack = list(ids)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(store.domain(u))
    return sorted(seen, key=lambda u: (store.rank(u), u))


def _element_dtype(algebra):
    """The smallest unsigned dtype that holds every element of `algebra`."""
    return np.min_scalar_type(algebra.n - 1)


def child_arrays(store, nodes, pos, dtype):
    """The padded child layout of `nodes`: row p of K holds the positions
    `pos[k]` of the children k of name p, row p of V their values in
    `dtype`, both padded to the widest domain with position 0 and value
    bottom; and the domain sizes."""
    entries = [store.entries(u) for u in nodes]
    sizes = np.fromiter(map(len, entries), dtype=np.intp, count=len(entries))
    K = np.zeros((len(nodes), int(sizes.max(initial=0))), dtype=np.intp)
    V = np.full(K.shape, store.algebra.bottom, dtype=dtype)
    for p, row in enumerate(entries):
        for s, (k, v) in enumerate(row):
            K[p, s] = pos[k]
            V[p, s] = v
    return K, V, sizes


def check_kernel_size(n, width=1):
    """Raise `BudgetExceeded` when the equality kernel over n names, n^2
    Birkhoff codes of `width` bytes each (one byte when |J| <= 8), is
    over `GRID_BUDGET` bytes."""
    if n * n * width > GRID_BUDGET:
        raise BudgetExceeded(
            f"the equality kernel over {n} names needs {n * n * width} bytes "
            f"of codes, over the {GRID_BUDGET}-byte budget",
            predicted=n * n * width, budget=GRID_BUDGET)


FOLD_CELLS = 1 << 20
"""Bytes of the widest temporary of a fold over child slots."""


def _code_fold(codes, K, V, M, implies=False):
    r"""Row x is \/_s V[x, s] /\ M[K[x, s], :], or with `implies`
    /\_s V[x, s] -> M[K[x, s], :], over the Birkhoff codes `codes` of
    the algebra, in blocks of rows.  A join of meets is an OR of ANDs.
    The meet of implications is the interior of the AND of the
    ~V | M: the interior preserves AND, so it is taken once.  The
    padding code of bottom, 0, is neutral in both."""
    out = np.full((len(K), *M.shape[1:]), 255 if implies else 0, dtype=np.uint8)
    for rows in _row_blocks(len(K), M[:1].size, FOLD_CELLS):
        for s in range(K.shape[1]):
            if implies:
                out[rows] &= ~V[rows, s, None] | M[K[rows, s]]
            else:
                out[rows] |= V[rows, s, None] & M[K[rows, s]]
    return codes.interior(out) if implies else out


def _build_kernel(store, ids):
    r"""[u = v] and [u in v] over the downward closure of `ids`, as
    Birkhoff codes.

    Returns (pos, EQ, MEM, K, V, sizes).  The names of the closure have
    positions ordered by rank, and `pos` maps each name to its position.
    EQ and MEM are indexed by position, MEM[u, v] = [u in v], and hold
    the codes of the values (`HeytingAlgebra.codes`) on a trailing axis
    of `width` bytes; K, V and sizes are the closure's `child_arrays`,
    V encoded.  The values are encoded once and nothing is decoded here:
    a caller decodes what it gathers.  A code is the set of
    join-irreducibles J below a value, and in a finite frame the map to
    down-sets of J is an isomorphism (Birkhoff), so /\ is AND, \/ is OR
    and a -> b is the interior of ~a | b: the kernel is exact on codes.
    Both folds are `_code_fold`, whose padding code of bottom, 0, is
    neutral.

    Equality is mutual inclusion.  The positions of rank <= r are a
    prefix [:end], those of rank < r the prefix [:lo], and every child
    of a name of rank <= r lies in [:lo].  Level r reads EQ only on
    [:lo, :lo], pairs of names of rank < r, which the levels below have
    made final (the first level is the empty name alone, [{} = {}] = top):

        MEMt[y, u] = OR_b  V[y, b] & EQ[K[y, b], u]       (u < lo)
        SUB[x, y]  = int AND_a (~V[x, a] | MEMt[y, K[x, a]])  = [x sub y]
        EQ[:end, :end] = SUB & SUB^T

    where int keeps bit p only if every q <= p in J is kept.  Each level
    folds over the widest domain among its own rows.  MEMt is [u in y]
    for u below the level, so it is final too.  Once the last level is
    filled, one more fold over the whole EQ gives MEM, returned as a
    transposed view.

    The n^2 codes of EQ, n^2 * width bytes, are predicted from the
    closure before any array is allocated; above `GRID_BUDGET` bytes
    `BudgetExceeded` is raised.  With |J| <= 8 a code is one byte, so
    the cap is the n^2 <= `GRID_BUDGET` it was on elements.
    """
    A = store.algebra
    codes = A.codes
    nodes = _closure(store, ids)
    n = len(nodes)
    check_kernel_size(n, codes.width)
    pos = {u: p for p, u in enumerate(nodes)}
    K, V, sizes = child_arrays(store, nodes, pos, _element_dtype(A))
    V = codes.encode(V)
    rank = [store.rank(u) for u in nodes]
    ends = [p + 1 for p in range(n) if p + 1 == n or rank[p + 1] != rank[p]]
    EQ = np.empty((n, n, codes.width), dtype=np.uint8)
    EQ[:1, :1] = codes.top
    for lo, end in zip(ends, ends[1:]):
        wide = sizes[:end].max()
        k, v = K[:end, :wide], V[:end, :wide]
        MEMt = np.ascontiguousarray(_code_fold(codes, k, v, EQ[:lo, :lo]).transpose(1, 0, 2))
        SUB = _code_fold(codes, k, v, MEMt, implies=True)
        np.bitwise_and(SUB, SUB.transpose(1, 0, 2), out=EQ[:end, :end])
        del MEMt, SUB  # before the arrays of the next level or of MEM
    MEM = _code_fold(codes, K, V, EQ).transpose(1, 0, 2)
    return pos, EQ, MEM, K, V, sizes


def eval_grid(ctx, phi, columns):
    r"""[phi] for every assignment of the grid of `columns`, as one int64
    array: `grid_codes` on the batch of one, decoded to elements.

    `columns` maps variables to lists of name ids; the axes of the result
    follow the dict's order, and a closed formula over no columns gives
    a 0-d array.  A column the formula does not use is a broadcast axis.
    Errors, the size prediction and the row blocks are those of
    `grid_codes`; `ctx`'s memo is neither read nor written, and its
    kernel is reused or replaced.
    """
    codes = grid_codes(ctx, [phi], columns)[0]
    values = ctx.algebra.codes.decode(codes.reshape(-1, codes.shape[-1]))
    return values.reshape(codes.shape[:-1]).astype(np.int64)


def grid_codes(ctx, phis, columns):
    r"""The Birkhoff codes of [phi] for every formula of `phis` and every
    assignment of the grid of `columns`, as one uint8 array of shape
    (len(phis), *shape, width), compiled into one plan (`_Grid`) with
    one size prediction and one placement in the context's kernel.

    Every subformula is evaluated once per block, as an array over its
    own free variables (a relation annotated by the algebra) that holds
    the codes of its values, as the context's kernel does; a subformula
    that recurs on the same axes, in one formula or across the batch, is
    one node.  Atoms are gathers from the kernel's EQ and MEM over all
    the names involved.  /\ is AND, \/ is OR, and a -> b and ~a are the
    interiors of ~a | b and of ~a.  A bounded quantifier folds over the
    child slots of its bound in the kernel's own child layout, padded
    with code 0 (bottom), which is neutral in both folds:
    OR_s V_s & g_s for exists, and the interior of AND_s ~V_s | g_s
    for forall, taken once.  An unbounded one is an AND or OR reduction
    over the fragment.  Nothing is decoded.

    The bytes the plan holds at once are predicted before anything is
    built (`_Grid.predict`).  The grid runs in blocks of rows of the
    first column, each as large as `GRID_BUDGET` allows, so one block
    when the whole grid fits; when a single row is still too large
    `BudgetExceeded` is raised, and so it is when the kernel's n^2 codes
    over the closure of the names involved exceed the budget.  A closed
    formula over no columns runs once, and its prediction counts every
    axis at its full size.  With |J| <= 8 a code is one byte, so the
    budget counts cells; wider codes make it tighter (a 12-chain,
    |J| = 11, has two bytes a cell).  When some assignment would make
    `eval` raise (an unbound variable, an unbounded quantifier with no
    fragment, an unknown id), a formula is evaluated assignment by
    assignment instead, on a private context, so the same error comes
    from the same assignment.  A batch whose plan would raise, or is
    over the budget, runs formula by formula, in order, so every error
    comes from the formula and assignment it comes from alone.  `ctx`'s
    memo is neither read nor written; its kernel is reused or replaced.
    """
    phis = list(phis)
    names = list(columns)
    domains = [list(columns[v]) for v in names]
    shape = tuple(map(len, domains))
    out = np.zeros((len(phis), *shape, ctx.algebra.codes.width), dtype=np.uint8)
    if len(phis) != 1:
        try:
            if _run_plan(ctx, phis, names, domains, out):
                return out
        except BudgetExceeded:
            pass
        for k, phi in enumerate(phis):
            out[k] = grid_codes(ctx, [phi], columns)[0]
    elif not _run_plan(ctx, phis, names, domains, out):
        ref = EvalContext(ctx.store, ctx.fragment)
        values = [ref._eval(phis[0], dict(zip(names, point))) for point in iproduct(*domains)]
        out[0] = ctx.algebra.codes.encode(np.array(values, dtype=np.intp).reshape(shape))
    return out


def _run_plan(ctx, phis, names, domains, out):
    """Fill `out` with the codes of `phis` over the grid of `domains` on
    one plan; False, with nothing filled, when the plan is risky."""
    for phi in phis:
        check_height(phi)
    if not out.size:
        return True
    grid = _Grid(ctx, phis, names, [list(dom) for dom in domains])
    if grid.risky:
        return False
    shape = out.shape[1:-1]
    row = grid.predict(1)
    if row > GRID_BUDGET:
        unit = "cell" if grid.width == 1 else "byte"
        raise BudgetExceeded(
            f"the formula needs an array of {row} {unit}s"
            f"{' for one row of its first column' if shape else ''}, "
            f"over the {GRID_BUDGET}-{unit} budget",
            predicted=row, budget=GRID_BUDGET)
    grid.prepare()
    # blocks of the most rows whose prediction fits; a closed formula runs once
    for rows in _row_blocks(shape[0], 1, grid.block_rows(shape[0])) if shape else [slice(None)]:
        for k, codes in enumerate(grid.run(rows)):
            out[k, rows] = codes
    return True


class _Grid:
    r"""The plan of one `grid_codes` call: a batch of formulas over one
    grid of columns, compiled into one graph of nodes.  A lone formula
    is a batch of one.

    Variables become integer axes: the columns first, in order, then one
    axis per constant (of size one) and the axes of bound variables.
    Each axis has a domain, the list of names it ranges over: a column
    its list, a constant itself, a variable bound by `Q u in t` the
    sorted union of the children of t's domain, an unboundedly
    quantified one the fragment.  Axis reuse: a variable bound by
    `Q u in t` takes the first axis over t's children that no variable
    in scope holds, and a new one only when every such axis is held (an
    unboundedly quantified one likewise among the axes over the
    fragment).  So shadowing is harmless, and a subformula that recurs
    under quantifiers over the same bounds lands on the same axes: the
    three copies of `names._PAIR` in the function predicate share
    theirs.

    Node sharing: nodes are hash-consed on their class, their axes or
    the ids of their children, and whether they can be reached, so a
    subformula that recurs on the same axes, within one formula or
    across the batch, is one node, evaluated once per block.  A node is
    a tuple (formula class, free axes, ...) with the free axes sorted, so
    its array is laid out on exactly those axes in that order, then one
    trailing axis of the `width` bytes of a code.  `readers[i]` counts
    the reads of node i by its parents and by the outputs.  A node read
    by two or more is kept from its first read to its last, then freed
    (`_value`); any other array lives only as long as its reader needs
    it.

    Compilation follows `eval`'s order and tracks whether a node can be
    reached: the body of a bounded quantifier whose domain is empty is
    never evaluated, by `eval` or here.  `risky` is set when a reachable
    node would raise, and only reachable nodes count towards the size
    prediction.  `predict` counts the largest node plus every kept
    shared node, as if all were alive at once; a plan with no sharing
    predicts its largest node alone.

    Sizes count axis 0 as the block's rows only when it is a column; with
    no column it is a quantifier's or a constant's, at its full size.

    `prepare` places every domain in the context's kernel: `pos[a]`
    holds the kernel positions of axis a's names.  The child slots of a
    bound axis u's bound t are the kernel's K and V at t's positions,
    with K read through the inverse of u's positions.
    """

    def __init__(self, ctx, phis, names, domains):
        self.ctx = ctx
        self.store, self.algebra = ctx.store, ctx.algebra
        self.codes = self.algebra.codes
        self.width = self.codes.width
        self.ncols = len(domains)
        self.domains = domains
        self.nodes, self.readers, self.reached = [], [], []
        self._ids = {}
        self._const_axes = {}
        self._bound_axes = {}  # t, or None for the fragment -> the axes over its children
        # every id an int in range, as `NameStore.check_id` requires
        n = len(self.store)
        self.risky = not all(
            all(map(isinstance, dom, repeat(int))) and (not dom or 0 <= min(dom) <= max(dom) < n)
            for dom in domains)
        if not self.risky:
            scope = dict(zip(names, range(self.ncols)))
            self.roots = [self._compile(phi, scope, True)
                          for phi in ([phis] if isinstance(phis, FORMULAS) else phis)]
            for root in self.roots:
                self.readers[root] += 1

    # -- compilation --------------------------------------------------------

    def _axis(self, domain):
        self.domains.append(domain)
        return len(self.domains) - 1

    def _bound_axis(self, t, scope):
        """The first axis over the children of t's domain (over the
        fragment when t is None) that no variable in `scope` holds; a new
        one when every such axis is held."""
        axes = self._bound_axes.setdefault(t, [])
        held = set(scope.values())
        for u in axes:
            if u not in held:
                return u
        if axes:
            domain = self.domains[axes[0]]
        elif t is None:
            domain = list(self.ctx.fragment)
        else:
            domain = sorted({k for u in self.domains[t] for k, _ in self.store.entries(u)})
        axes.append(self._axis(domain))
        return axes[-1]

    def _term(self, term, scope, reachable):
        if isinstance(term, Var):
            axis = scope.get(term.name)
        elif isinstance(term, Const):
            nid = term.nid
            if isinstance(nid, int) and 0 <= nid < len(self.store):
                axis = self._const_axes.get(nid)
                if axis is None:
                    axis = self._const_axes[nid] = self._axis([nid])
            else:
                axis = None
        else:
            raise TypeError(f"not a term: {term!r}")
        if axis is None:  # eval raises here; a placeholder where it is never reached
            self.risky |= reachable
            axis = self._axis([])
        return axis

    def _compile(self, phi, scope, reachable):
        """The id of phi's node under `scope`, made on its key's first
        compilation; its children are counted as read once per node."""
        args, free, kids = self._parts(phi, scope, reachable)
        key = (type(phi), reachable, *args)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.nodes)
            self.nodes.append((type(phi), free, *args))
            self.readers.append(0)
            for k in kids:
                self.readers[k] += 1
            if reachable:
                self.reached.append(nid)
        return nid

    def _parts(self, phi, scope, reachable):
        """The axes and child ids of phi's node, its free axes, and its
        child ids."""
        kind = type(phi)
        if kind in (Eq, Member):
            l = self._term(phi.left, scope, reachable)
            r = self._term(phi.right, scope, reachable)
            return (l, r), tuple(sorted({l, r})), ()
        if kind is Not:
            body = self._compile(phi.body, scope, reachable)
            return (body,), self.nodes[body][1], (body,)
        if kind in (And, Or, Implies):
            a = self._compile(phi.left, scope, reachable)
            b = self._compile(phi.right, scope, reachable)
            return (a, b), tuple(sorted({*self.nodes[a][1], *self.nodes[b][1]})), (a, b)
        if kind in (BForall, BExists):
            t = self._term(phi.bound, scope, reachable)
            u = self._bound_axis(t, scope)
            body = self._compile(phi.body, {**scope, phi.var: u},
                                 reachable and bool(self.domains[u]))
            # with no child anywhere the value is the unit, whatever the body
            free = (tuple(sorted({*self.nodes[body][1], t} - {u})) if self.domains[u]
                    else (t,))
            return (u, t, body), free, (body,)
        if kind in (UForall, UExists):
            u = self._bound_axis(None, scope)
            self.risky |= reachable and not self.domains[u]
            body = self._compile(phi.body, {**scope, phi.var: u},
                                 reachable and bool(self.domains[u]))
            return (u, body), tuple(a for a in self.nodes[body][1] if a != u), (body,)
        raise TypeError(f"not a formula: {phi!r}")

    # -- sizes --------------------------------------------------------------

    def _cells(self, free, rows):
        cells = 1
        for a in free:
            cells *= rows if a == 0 and self.ncols else len(self.domains[a])
        return cells

    def predict(self, rows):
        """Bytes of the largest node array plus those of every kept
        shared node, cells times the code width, when the first column
        has `rows` entries; with no column every axis counts at its full
        size."""
        cells = [self._cells(self.nodes[i][1], rows) for i in self.reached]
        shared = sum(c for i, c in zip(self.reached, cells) if self.readers[i] > 1)
        return self.width * (max(cells) + shared)

    def block_rows(self, n):
        """The most rows of the first column, at most n, whose prediction
        fits in `GRID_BUDGET`; at least 1."""
        if self.predict(n) <= GRID_BUDGET:
            return n
        lo, hi = 1, n
        while lo < hi:  # predict grows with the rows
            mid = (lo + hi + 1) // 2
            if self.predict(mid) <= GRID_BUDGET:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- evaluation ---------------------------------------------------------

    def prepare(self):
        """The context's kernel, whose EQ and MEM every atom gathers from
        and whose child layout every bounded quantifier folds over, and
        the kernel positions of every domain."""
        names = set().union(*self.domains)
        at, self.EQ, self.MEM, self.K, self.V, self.kids = _eq_kernel(self.ctx, names)
        self.pos = [np.fromiter(map(at.__getitem__, dom), dtype=np.intp, count=len(dom))
                    for dom in self.domains]

    def run(self, block):
        """The codes of every formula of the batch over the columns, for
        the rows `block` (a slice) of the first column, one after the
        other, each a read-only view broadcast over the columns: the
        caller copies each once."""
        self.block = block
        self.slots, self.kept = {}, {}
        self.sizes = [len(dom) for dom in self.domains]
        if self.ncols:
            self.sizes[0] = len(self.domains[0][self.block])
        for root in self.roots:
            arr, free = self._value(root), self.nodes[root][1]
            # drop the size-one constant axes, then lay the rest out on the columns
            cols = [a for a in free if a < self.ncols]
            arr = arr.reshape([self.sizes[a] for a in cols] + [self.width])
            arr = self._expand(arr, cols, range(self.ncols))
            yield np.broadcast_to(arr, self.sizes[:self.ncols] + [self.width])

    def _rows(self, axis, arr):
        return arr[self.block] if axis == 0 else arr

    def _at(self, vec, axis, free):
        """`vec`, which runs along `axis` (its trailing axes kept), shaped
        to broadcast over `free`."""
        return vec.reshape([-1 if a == axis else 1 for a in free] + list(vec.shape[1:]))

    def _expand(self, arr, have, free):
        """An array laid out on the axes `have` (its trailing axes kept),
        reshaped to broadcast over the axes `free`, which contain them in
        the same order."""
        return arr.reshape([self.sizes[a] if a in have else 1 for a in free]
                           + list(arr.shape[len(have):]))

    def _full(self, free, code):
        return np.full([self.sizes[a] for a in free] + [self.width], code, dtype=np.uint8)

    def _interior(self, arr):
        return self.codes.interior(arr.reshape(-1, self.width)).reshape(arr.shape)

    def _slots(self, u, t):
        """The child slots of t's rows in the kernel, slot first: the
        indices of the children in u's domain, the domain of the variable
        bound by t, read through the inverse of u's kernel positions, and
        the codes of their values, padded with index 0 and code 0."""
        if u not in self.slots:
            inv = np.zeros(len(self.kids), dtype=np.intp)
            inv[self.pos[u]] = np.arange(len(self.pos[u]))
            rows = self._rows(t, self.pos[t])
            wide = self.kids[rows].max(initial=0)
            self.slots[u] = (inv[self.K[rows, :wide].T],
                             np.ascontiguousarray(self.V[rows, :wide].transpose(1, 0, 2)))
        return self.slots[u]

    def _value(self, nid):
        """The array of node `nid` in this block.  A node with two or more
        readers is kept from its first read and freed at its last."""
        hit = self.kept.get(nid)
        if hit is None:
            arr = self._eval(self.nodes[nid])
            if self.readers[nid] > 1:
                self.kept[nid] = [arr, self.readers[nid] - 1]
            return arr
        hit[1] -= 1
        if not hit[1]:
            del self.kept[nid]
        return hit[0]

    def _eval(self, node):
        kind, free = node[0], node[1]
        if kind in (Eq, Member):
            l, r = node[2:]
            pl, pr = self._rows(l, self.pos[l]), self._rows(r, self.pos[r])
            table = self.EQ if kind is Eq else self.MEM
            return table[self._at(pl, l, free), self._at(pr, r, free)]
        if kind is Not:
            return self._interior(~self._value(node[2]))
        if kind in (And, Or, Implies):
            a, b = node[2:]
            a = self._expand(self._value(a), self.nodes[a][1], free)
            b = self._expand(self._value(b), self.nodes[b][1], free)
            if kind is And:
                return a & b
            return a | b if kind is Or else self._interior(~a | b)
        if kind in (BForall, BExists):
            return self._bounded(kind is BForall, free, *node[2:])
        # unbounded: the fragment is not empty, or the plan is risky
        u, body = node[2:]
        arr, have = self._value(body), self.nodes[body][1]
        if u not in have:  # meet and join are idempotent
            return arr
        fold = np.bitwise_and if kind is UForall else np.bitwise_or
        return fold.reduce(arr, axis=have.index(u))

    def _bounded(self, forall, free, u, t, body):
        """OR over the slots s of V_s & g_s, or the interior of the AND of
        ~V_s | g_s, where g_s is the body at the child in slot s: one
        `np.take` along the bound axis, moved to t's place beforehand."""
        K, V = self._slots(u, t)
        out = self._full(free, 255 if forall else 0)
        if len(K):  # with no child anywhere the body is never reached
            arr, have = self._value(body), self.nodes[body][1]
            at = free.index(t)
            gather = u in have
            if not gather:
                arr = self._expand(arr, have, free)
            elif t in have:
                # the body also runs along t: take its diagonal with u from
                # the two axes merged into one, u next to t
                arr = np.moveaxis(arr, have.index(u), at + 1)
                arr = arr.reshape(arr.shape[:at] + (-1,) + arr.shape[at + 2:])
                K = K + np.arange(K.shape[1]) * self.sizes[u]
            else:
                arr = np.moveaxis(arr, have.index(u), at)
            fold, meet = (np.bitwise_and, np.bitwise_or) if forall else (np.bitwise_or, np.bitwise_and)
            part = np.empty_like(out)
            for k, v in zip(K, ~V if forall else V):
                g = np.take(arr, k, axis=at, out=part, mode="clip") if gather else arr
                meet(g, self._at(v, t, free), out=part)
                fold(out, part, out=out)
        return self._interior(out) if forall else out
