"""Recursive H-valuation of atomic and compound formulas.

Equality is mutual inclusion; membership and inclusion are folds over
the entries of one name:

    [x in y]  =  \\/_{v in dom y} y(v) /\\ [x = v]
    [x sub y] =  /\\_{u in dom x} x(u) -> [u in y]
    [x = y]   =  [x sub y] /\\ [y sub x]

and [x ni y] = [y in x].  The recursion is well-founded because every
sub-pair strictly drops in rank on both coordinates.  The one-off path
(`atomic_eq`, `atomic_mem`, `eval`) realizes it with an explicit stack
and a memo table, so deep names cannot overflow the interpreter stack.
Equality is memoized under a symmetric key: the definition is
symmetric in its arguments, and the symmetry is additionally guarded
against a non-memoized reference implementation in the tests.

`eval_grid` is the one bulk path: it evaluates a whole formula for
every assignment of a grid of columns, each subformula as an array over
its free variables.  Atoms are gathers from an array kernel over the
downward closure of the names involved, laid out by rank in the one
padded child layout, `child_arrays` (shared with `transfer`), and
membership, inclusion and equality are filled one rank level at a
time, each by the one fold over child slots, `_code_fold`.
The kernel holds every value as its Birkhoff code, the bitmask of the
join-irreducibles below it (`HeytingAlgebra.codes`), so a fold is
bitwise AND and OR, and an implication one interior step per fold.
The grid computes on the same codes: connectives are AND, OR and
interiors, and bounded quantifiers fold over the kernel's own child
slots, as do the valuation law families of `checks`.  Values are
encoded once, in the kernel, and decoded once, at the grid's output.
`eq_matrix` and `mem_matrix` are `eval_grid` on a single atom.  The
context keeps its last kernel and reuses it while the requested names
lie in its closure; no cell of a bulk result goes into the memo, which
only the one-off path fills.  `EvalContext.eval` stays the path for
one assignment, where compiling a grid would cost more than it saves.
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
    Implies,
    Member,
    Not,
    Or,
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
    pair at a time.  The kernel is the one `eval_grid` last built, and
    with it `eq_matrix` and `mem_matrix`: the same definition, decided
    a rank level at a time over whole arrays (see `_build_kernel`).  It
    is reused while the names a grid asks for lie in its closure, and
    replaced otherwise.
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
        if isinstance(phi, BForall):
            x = self.term_value(phi.bound, sigma)
            val = A.top
            for u, xu in self.store.entries(x):
                val = A.meet(val, A.imp(xu, self._eval(phi.body, rebind(sigma, phi.var, u))))
            return val
        if isinstance(phi, BExists):
            x = self.term_value(phi.bound, sigma)
            val = A.bottom
            for u, xu in self.store.entries(x):
                val = A.join(val, A.meet(xu, self._eval(phi.body, rebind(sigma, phi.var, u))))
            return val
        if isinstance(phi, UForall):
            if not self.fragment:
                raise EmptyFragment("unbounded forall with no universe fragment")
            val = A.top
            for u in self.fragment:
                val = A.meet(val, self._eval(phi.body, rebind(sigma, phi.var, u)))
            return val
        if isinstance(phi, UExists):
            if not self.fragment:
                raise EmptyFragment("unbounded exists with no universe fragment")
            val = A.bottom
            for u in self.fragment:
                val = A.join(val, self._eval(phi.body, rebind(sigma, phi.var, u)))
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
one cell, when |J| <= 8); above it a grid is evaluated in blocks of its
first column, and a kernel is refused."""


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
    r"""[phi] for every assignment of the grid of `columns`, as one array.

    `columns` maps variables to lists of name ids; the axes of the result
    follow the dict's order, and a closed formula over no columns gives
    a 0-d array.  A column the formula does not use is a broadcast axis.

    Every subformula is evaluated once, as an array over its own free
    variables (a relation annotated by the algebra) that holds the
    Birkhoff codes of its values, as the context's kernel does.  Atoms
    are gathers from the kernel's EQ and MEM over all the names
    involved.  /\ is AND, \/ is OR, and a -> b and ~a are the interiors
    of ~a | b and of ~a.  A bounded quantifier folds over the child
    slots of its bound in the kernel's own child layout, padded with
    code 0 (bottom), which is neutral in both folds:
    OR_s V_s & g_s for exists, and the interior of AND_s ~V_s | g_s
    for forall, taken once.  An unbounded one is an AND or OR reduction
    over the fragment.  The result is decoded to elements once.  See
    `_Grid` for how the variables and their domains are laid out.

    The largest intermediate array is predicted before anything is
    built, in bytes: its cells times the code width.  Above
    `GRID_BUDGET` bytes the grid is evaluated in blocks of rows of the
    first column, and when a single row is still too large
    `BudgetExceeded` is raised; so it is when the kernel's n^2 codes
    over the closure of the names involved exceed the budget.  With
    |J| <= 8 a code is one byte, so the budget counts cells; wider codes
    make it tighter (a 12-chain, |J| = 11, has two bytes a cell).  When
    some assignment would make `eval` raise (an unbound variable, an
    unbounded quantifier with no fragment, an unknown id), the grid is
    evaluated assignment by assignment instead, on a private context,
    so the same error comes from the same assignment.  `ctx`'s memo is
    neither read nor written; its kernel is reused or replaced.
    """
    check_height(phi)
    names = list(columns)
    shape = tuple(len(columns[v]) for v in names)
    if 0 in shape:
        return np.zeros(shape, dtype=np.int64)
    grid = _Grid(ctx, phi, names, [list(columns[v]) for v in names])
    if grid.risky:
        ref = EvalContext(ctx.store, ctx.fragment)
        values = [ref._eval(phi, dict(zip(names, point)))
                  for point in iproduct(*grid.domains[:len(names)])]
        return np.array(values, dtype=np.int64).reshape(shape)
    if grid.predict(shape[0] if shape else 1) <= GRID_BUDGET:
        grid.prepare()
        return grid.run(None)
    row = grid.predict(1)
    if row > GRID_BUDGET:
        unit = "cell" if grid.width == 1 else "byte"
        raise BudgetExceeded(
            f"the formula needs an array of {row} {unit}s"
            f"{' for one row of its first column' if shape else ''}, "
            f"over the {GRID_BUDGET}-{unit} budget",
            predicted=row, budget=GRID_BUDGET)
    grid.prepare()
    out = np.empty(shape, dtype=np.int64)
    for rows in _row_blocks(shape[0], grid.row_bytes(), GRID_BUDGET):
        out[rows] = grid.run(rows)
    return out


class _Grid:
    r"""The plan of one `eval_grid` call.

    Variables become integer axes: the columns first, in order, then one
    axis per constant (of size one) and one per bound variable, renamed
    apart, so shadowing is harmless.  Each axis has a domain, the list of
    names it ranges over: a column its list, a constant itself, a
    variable bound by `Q u in t` the sorted union of the children of
    t's domain, an unboundedly quantified one the fragment.  Nodes are
    tuples (formula class, free axes, ...) with the free axes sorted, so
    the array of a node is laid out on exactly those axes in that order,
    then one trailing axis of the `width` bytes of a code.

    Compilation follows `eval`'s order and tracks whether a node can be
    reached: the body of a bounded quantifier whose domain is empty is
    never evaluated, by `eval` or here.  `risky` is set when a reachable
    node would raise, and only reachable nodes count towards the size
    prediction.

    `prepare` places every domain in the context's kernel: `pos[a]`
    holds the kernel positions of axis a's names.  The child slots of a
    bound axis u's bound t are the kernel's K and V at t's positions,
    with K read through the inverse of u's positions.
    """

    def __init__(self, ctx, phi, names, domains):
        self.ctx = ctx
        self.store, self.algebra = ctx.store, ctx.algebra
        self.codes = self.algebra.codes
        self.width = self.codes.width
        self.ncols = len(domains)
        self.domains = domains
        self.frees = []
        self._const_axes = {}
        self._children = {}
        # every id an int in range, as `NameStore.check_id` requires
        n = len(self.store)
        self.risky = not all(
            all(map(isinstance, dom, repeat(int))) and (not dom or 0 <= min(dom) <= max(dom) < n)
            for dom in domains)
        if not self.risky:
            self.root = self._compile(phi, dict(zip(names, range(self.ncols))), True)

    # -- compilation --------------------------------------------------------

    def _axis(self, domain):
        self.domains.append(domain)
        return len(self.domains) - 1

    def _children_of(self, t):
        """Sorted union of the children of t's domain."""
        if t not in self._children:
            kids = {k for u in self.domains[t] for k, _ in self.store.entries(u)}
            self._children[t] = sorted(kids)
        return self._children[t]

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
        node = self._node(phi, scope, reachable)
        if reachable:
            self.frees.append(node[1])
        return node

    def _node(self, phi, scope, reachable):
        kind = type(phi)
        if kind in (Eq, Member):
            l = self._term(phi.left, scope, reachable)
            r = self._term(phi.right, scope, reachable)
            return (kind, tuple(sorted({l, r})), l, r)
        if kind is Not:
            body = self._compile(phi.body, scope, reachable)
            return (kind, body[1], body)
        if kind in (And, Or, Implies):
            a = self._compile(phi.left, scope, reachable)
            b = self._compile(phi.right, scope, reachable)
            return (kind, tuple(sorted({*a[1], *b[1]})), a, b)
        if kind in (BForall, BExists):
            t = self._term(phi.bound, scope, reachable)
            u = self._axis(self._children_of(t))
            body = self._compile(phi.body, {**scope, phi.var: u},
                                 reachable and bool(self.domains[u]))
            # with no child anywhere the value is the unit, whatever the body
            free = tuple(sorted({*body[1], t} - {u})) if self.domains[u] else (t,)
            return (kind, free, u, t, body)
        if kind in (UForall, UExists):
            fragment = list(self.ctx.fragment)
            self.risky |= reachable and not fragment
            u = self._axis(fragment)
            body = self._compile(phi.body, {**scope, phi.var: u},
                                 reachable and bool(fragment))
            return (kind, tuple(a for a in body[1] if a != u), u, body)
        raise TypeError(f"not a formula: {phi!r}")

    # -- sizes --------------------------------------------------------------

    def _cells(self, free, rows):
        cells = 1
        for a in free:
            cells *= rows if a == 0 else len(self.domains[a])
        return cells

    def predict(self, rows):
        """Bytes of the largest node array, cells times the code width,
        when the first column has `rows` entries."""
        return self.width * max(self._cells(free, rows) for free in self.frees)

    def row_bytes(self):
        """Bytes per first-column row of the largest node array on it."""
        return self.width * max(self._cells(free, 1) for free in self.frees if 0 in free)

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
        """The values over the columns, for the rows `block` of the first
        column (all rows when None), decoded to an int64 array."""
        self.block = slice(None) if block is None else block
        self.slots = {}
        self.sizes = [len(dom) for dom in self.domains]
        if self.ncols:
            self.sizes[0] = len(self.domains[0][self.block])
        arr, free = self._eval(self.root), self.root[1]
        # drop the size-one constant axes, then lay the rest out on the columns
        kept = [a for a in free if a < self.ncols]
        arr = self.codes.decode(arr.reshape(-1, self.width))
        arr = self._expand(arr.reshape([self.sizes[a] for a in kept]), kept, range(self.ncols))
        return np.broadcast_to(arr, self.sizes[:self.ncols]).astype(np.int64)

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

    def _eval(self, node):
        kind, free = node[0], node[1]
        if kind in (Eq, Member):
            l, r = node[2:]
            pl, pr = self._rows(l, self.pos[l]), self._rows(r, self.pos[r])
            table = self.EQ if kind is Eq else self.MEM
            return table[self._at(pl, l, free), self._at(pr, r, free)]
        if kind is Not:
            return self._interior(~self._eval(node[2]))
        if kind in (And, Or, Implies):
            a, b = node[2:]
            a = self._expand(self._eval(a), a[1], free)
            b = self._expand(self._eval(b), b[1], free)
            if kind is And:
                return a & b
            return a | b if kind is Or else self._interior(~a | b)
        if kind in (BForall, BExists):
            return self._bounded(kind is BForall, free, *node[2:])
        # unbounded: the fragment is not empty, or the plan is risky
        u, body = node[2:]
        arr, have = self._eval(body), body[1]
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
            arr, have = self._eval(body), body[1]
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
