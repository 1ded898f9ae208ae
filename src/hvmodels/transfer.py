"""Locale morphisms and the induced map between name universes.

A locale morphism f: A -> B preserves finite meets and all joins; over
finite algebras that reduces to top, bottom, binary meets and binary
joins.  The induced map on names comes in two flavors:

- the strict relation: x is related to x' when some surjection from
  dom x onto dom x' commutes with f on values and relates children
  recursively.  This relation is not total (see the counterexample
  helpers), which is the point of the construction below.  It is
  decided as one boolean array over the downward closures of the
  source names and the candidates, filled one source rank at a time
  (`strict_images`).
- the generalized relation and its canonical witness `lift`: children
  are lifted recursively in deterministic domain order, and when two
  children receive the same interned image the later one is replaced by
  an equivalence-padded variant, so the witness is a bijection and the
  image is a genuine mapping.

The preservation checkers report through `errors.Family`, the one report
type for a single law, so the suites append their results as they are.
Functoriality of lifting is checked by `checks.functoriality_suite`.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct
from weakref import WeakKeyDictionary

import numpy as np

from .errors import (
    BottomNotPreserved,
    BudgetExceeded,
    CrossAlgebra,
    Family,
    NotJoinPreserving,
    NotMeetPreserving,
    NotPositiveBounded,
    ParseError,
    TopNotPreserved,
)
from .formula import Eq, Member, Var, free_vars, has_const, is_positive_bounded
from .hset import HSet, HSetMorphism, compose_tables
from .lattice import GATHER_CELLS, _row_blocks, split_arrow_header, text_lines
from .names import _fold_dag, pad_equivalent
from .valuation import (
    GRID_BUDGET,
    _bridge,
    _closure,
    _element_dtype,
    _extents,
    child_arrays,
    grid_codes,
)

SURJECTION_DOMAIN_CAP = 4


class LocaleMorphism:
    """Validated element-wise table A -> B; construct via
    validate_locale_morphism."""

    def __init__(self, source, target, table, name=None):
        self.source = source
        self.target = target
        self.table = np.asarray(table, dtype=np.int64)
        self.table.setflags(write=False)
        self.name = name
        self._lift_cache = WeakKeyDictionary()

    def __call__(self, a):
        return int(self.table[a])

    def __repr__(self):
        return f"LocaleMorphism({self.name or '?'}: {self.source!r} -> {self.target!r})"


def validate_locale_morphism(source, target, table, name=None):
    """Check the locale-morphism laws; raise a structured error naming the
    violated law with witnesses on failure."""
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (source.n,):
        raise ParseError("morphism table must cover every source element once")
    if table.min() < 0 or table.max() >= target.n:
        raise CrossAlgebra("table values outside the target algebra")
    if table[source.bottom] != target.bottom:
        raise BottomNotPreserved((source.labels[source.bottom],),
                                 f"maps to {target.labels[table[source.bottom]]}")
    if table[source.top] != target.top:
        raise TopNotPreserved((source.labels[source.top],),
                              f"maps to {target.labels[table[source.top]]}")
    for op, op_target, error in ((source.meet_table, target.meet_table, NotMeetPreserving),
                                 (source.join_table, target.join_table, NotJoinPreserving)):
        bad = np.argwhere(_mismatch(table, op, op_target))
        if len(bad):
            a, b = map(int, bad[0])
            raise error((source.labels[a], source.labels[b]))
    return LocaleMorphism(source, target, table, name=name)


def _mismatch(table, op, op_target):
    """The mask of the pairs (a, b) with f(a op b) != f(a) op' f(b), for
    the map f = `table` and the operation tables `op` of its source and
    `op_target` of its target."""
    return table[op] != op_target[table[:, None], table[None, :]]


def identity_morphism(algebra):
    return LocaleMorphism(algebra, algebra, np.arange(algebra.n), name="id")


def compose_locale(g, f):
    """g after f."""
    if g.source is not f.target:
        raise CrossAlgebra("locale morphisms are not composable")
    name = None
    if f.name and g.name:
        name = f"{g.name}.{f.name}"
    return LocaleMorphism(f.source, g.target, g.table[f.table], name=name)


def preserves_implication(f):
    """True when f also strictly preserves the Heyting implication (and
    hence, over finite algebras, all the operations used by valuation)."""
    return not _mismatch(f.table, f.source.impl_table, f.target.impl_table).any()


# -- the strict (first-proposal) relation ------------------------------------------


@cache
def _surjection_table(k, m):
    """Every surjection from range(k) onto range(m), one per row."""
    rows = [s for s in iproduct(range(m), repeat=k) if len(set(s)) == m]
    table = np.array(rows, dtype=np.intp).reshape(len(rows), k)
    table.setflags(write=False)
    return table


def strict_images(f, xs, candidates, store_a, store_b):
    r"""For each x of `xs`, the candidates strictly related to x, in the
    order of `candidates` with duplicates kept.

    x is related to x' when some surjection eps from dom x onto dom x'
    commutes with f on values, x'(eps(u)) = f(x(u)), and relates every
    child u to eps(u); the empty name is related only to the empty name.

    The relation is decided as one boolean array R over the downward
    closures of `xs` (rows, by rank) and of the candidates no wider than
    the widest source domain (columns): a wider candidate is the image
    of no surjection, so its result is empty.  R is
    filled one source rank at a time, so every child pair a level reads
    is final.  Within a level the source names of domain size k meet the
    target names of domain size m <= k:

        compat[a, b, i, j] = (VB[b, j] == f(VA[a, i])) & R[KA[a, i], KB[b, j]]
        R[a, b] = \/_eps /\_i compat[a, b, i, eps(i)]

    over a cached table of the surjections k -> m, in blocks of source
    rows that stay within `GRID_BUDGET` cells.

    Before anything is allocated, a source closure holding a domain above
    `SURJECTION_DOMAIN_CAP`, or an R of more than `GRID_BUDGET` cells,
    raises `BudgetExceeded`.
    """
    xs, candidates = list(xs), list(candidates)
    nodes_a = _closure(store_a, xs)
    width = max((len(store_a.entries(u)) for u in nodes_a), default=0)
    if width > SURJECTION_DOMAIN_CAP:
        raise BudgetExceeded(
            f"surjection search over a domain of {width} exceeds the cap "
            f"of {SURJECTION_DOMAIN_CAP}",
            predicted=width, budget=SURJECTION_DOMAIN_CAP)
    # a candidate wider than every source domain is the image of no surjection
    kept = [j for j, c in enumerate(candidates) if len(store_b.entries(c)) <= width]
    nodes_b = _closure(store_b, [candidates[j] for j in kept])
    cells = len(nodes_a) * len(nodes_b)
    if cells > GRID_BUDGET:
        raise BudgetExceeded(
            f"the strict relation over {len(nodes_a)} x {len(nodes_b)} names "
            f"needs {cells} cells, over the {GRID_BUDGET}-cell budget",
            predicted=cells, budget=GRID_BUDGET)
    pos_a = {u: p for p, u in enumerate(nodes_a)}
    pos_b = {u: p for p, u in enumerate(nodes_b)}
    KA, VA, size_a = child_arrays(store_a, nodes_a, pos_a, _element_dtype(f.source))
    KB, VB, size_b = child_arrays(store_b, nodes_b, pos_b, _element_dtype(f.target))
    FA = f.table.astype(VB.dtype)[VA]
    rank_a = np.array([store_a.rank(u) for u in nodes_a], dtype=np.intp)
    R = np.zeros((len(nodes_a), len(nodes_b)), dtype=bool)
    if store_a.empty in pos_a and store_b.empty in pos_b:
        R[pos_a[store_a.empty], pos_b[store_b.empty]] = True
    cols_of = [np.flatnonzero(size_b == m) for m in range(width + 1)]
    for r in range(1, int(rank_a.max(initial=0)) + 1):
        for k in range(1, width + 1):
            rows = np.flatnonzero((rank_a == r) & (size_a == k))
            if not len(rows):
                continue
            ka, fa = KA[rows, :k], FA[rows, :k]
            for m in range(1, k + 1):
                cols = cols_of[m]
                if not len(cols):
                    continue
                kb, vb = KB[cols, :m], VB[cols, :m]
                surj = _surjection_table(k, m)
                for blk in _row_blocks(len(rows), len(cols) * k * max(m, len(surj)),
                                       GRID_BUDGET):
                    compat = (vb[None, :, None, :] == fa[blk, None, :, None]) \
                        & R[ka[blk, None, :, None], kb[None, :, None, :]]
                    hit = compat[:, :, np.arange(k), surj].all(axis=3).any(axis=2)
                    R[rows[blk, None], cols[None, :]] = hit
    ia = [pos_a[x] for x in xs]
    ib = [pos_b[candidates[j]] for j in kept]
    return [[candidates[kept[j]] for j in np.flatnonzero(row)]
            for row in R[np.ix_(ia, ib)]]


def strict_related(f, store_a, store_b, x, xp):
    """The strict relation on one pair: `strict_images` over [x] and [xp]."""
    return bool(strict_images(f, [x], [xp], store_a, store_b)[0])


def first_proposal_images(f, x, candidates, store_a, store_b):
    """All candidates strictly related to x; empty exactly when the naive
    definition fails to assign x an image inside the candidate pool."""
    return strict_images(f, [x], candidates, store_a, store_b)[0]


# -- the canonical witnessed lift ---------------------------------------------------


@dataclass(frozen=True)
class WitnessedLift:
    x: int
    image: int
    witness: tuple  # pairs (u, tau(u)) in domain order; tau: dom x -> dom image, a bijection


def lift(f, x, store_a, store_b):
    """Canonical total lift of x along f.

    Children are lifted in ascending NameId order; a child whose image
    collides with an already-used key is replaced by successive
    equivalence pads until fresh.  Deterministic: equal inputs produce
    equal witnesses and images.
    """
    # keyed weakly by the stores themselves: the cached name ids are valid
    # exactly as long as both stores live, and the morphism keeps neither
    by_target = f._lift_cache.setdefault(store_a, WeakKeyDictionary())
    cache = by_target.setdefault(store_b, {})

    def lift_entries(cur, cache):
        image_entries = {}
        witness = []
        for u, val in store_a.entries(cur):
            target = cache[u].image
            k = 1
            while target in image_entries:
                target = pad_equivalent(store_b, cache[u].image, k)
                k += 1
            image_entries[target] = f(val)
            witness.append((u, target))
        return WitnessedLift(
            x=cur, image=store_b.intern(image_entries), witness=tuple(witness)
        )

    return _fold_dag(store_a.check_id(x), store_a.domain, lift_entries, cache)


def witnessed_lift_with(f, x, tau, store_a, ctx_b):
    """Build a WitnessedLift from an explicit witness bijection, checking
    its validity: values commute with f and every target is equal (value
    top) to the canonical child image."""
    store_b = ctx_b.store
    entries = store_a.entries(x)
    for u, _ in entries:
        if u not in tau:
            raise ParseError(f"witness has no target for {u}")
    targets = [tau[u] for u, _ in entries]
    if len(set(targets)) != len(targets):
        raise ParseError("witness is not injective")
    image_entries = {}
    for u, val in entries:
        rep = lift(f, u, store_a, store_b).image
        if ctx_b.atomic_eq(rep, tau[u]) != ctx_b.algebra.top:
            raise ParseError(f"witness target for {u} is not equivalent to a lift of it")
        image_entries[tau[u]] = f(val)
    image = store_b.intern(image_entries)
    return WitnessedLift(x=x, image=image, witness=tuple((u, tau[u]) for u, _ in entries))


def is_generalized_related(f, x, xp, store_a, ctx_b):
    """Decide the generalized relation by its equivalence-closure clause
    against the canonical representative: [x' = lift(f,x).image] = top.

    No surjection search is needed on top of it.  Suppose a surjection
    eps of domains commutes with f on values and every child u has
    [lift(f,u).image = eps(u)] = top.  By transitivity of internal
    equality, and because each equivalence pad is equal with value top
    to the name it pads, every entry of x' lies below [. in lift(f,x).image]
    and every entry of lift(f,x).image lies below [. in x'].  Hence
    [x' = lift(f,x).image] = top, and the clause above already holds.
    """
    return ctx_b.atomic_eq(xp, lift(f, x, store_a, ctx_b.store).image) == ctx_b.algebra.top


# -- preservation ---------------------------------------------------------------------


def map_codes(f, codes):
    """f on Birkhoff codes: an array of A's codes, trailing axis last,
    decoded and mapped through B's codes of f's values, a table of
    uint8 codes, in blocks of `GATHER_CELLS` codes.  No int64 array is
    built, and nothing of the size of `codes` beside the result."""
    table = f.target.codes.encode(f.table)
    flat = codes.reshape(-1, codes.shape[-1])
    out = np.empty((len(flat), table.shape[-1]), dtype=np.uint8)
    for rows in _row_blocks(len(flat), 1, GATHER_CELLS):
        np.take(table, f.source.codes.decode(flat[rows]), axis=0, out=out[rows])
    return out.reshape(*codes.shape[:-1], table.shape[-1])


def preservation_failures(f, fa, vb, strict=False):
    """The cells where f([phi(a)]) <= [phi(a')] fails, from the stacked
    codes `fa` of f([phi(a)]) (see `map_codes`) and `vb` of [phi(a')] in
    f's target: fa <= vb iff fa & ~vb is 0, as a code is the set of
    join-irreducibles below a value.  With `strict`, for an f that
    preserves implication, equality is required instead.  Returns the
    failing cells in row-major order as (index tuple, label of f's
    value, label of the target value); only those cells are decoded."""
    bad = ((fa != vb) if strict else (fa & ~vb)).any(axis=-1)
    labels, decode = f.target.labels, f.target.codes.decode
    return [(tuple(map(int, point)), labels[a], labels[b])
            for point, a, b in zip(np.argwhere(bad), decode(fa[bad]), decode(vb[bad]))]


ATOMIC_FORMULAS = (Member(Var("X"), Var("Y")), Eq(Var("X"), Var("Y")))
"""[X in Y] and [X = Y], the atoms `check_atomic_preservation` compares."""


def atomic_preservation_family(f, pairs, fa, vb, store_a, store_b):
    """The report of `check_atomic_preservation` from the stacked codes
    of [X in Y] and [X = Y] over the related list: `fa` those of the
    source side mapped along f, `vb` those of the target side, both of
    shape (2, n, n, width of f's target)."""
    strict = preserves_implication(f)
    rep = Family(f"atomic preservation along {f.name or 'f'}"
                 + (" (equality)" if strict else ""), checked=vb[..., 0].size)
    rep.notes["equality_asserted"] = strict
    for (k, i, j), fl, tl in preservation_failures(f, fa, vb, strict):
        rep.violations.append({
            "relation": ("in", "=")[k],
            "source_pair": [store_a.to_literal(pairs[i][0]), store_a.to_literal(pairs[j][0])],
            "target_pair": [store_b.to_literal(pairs[i][1]), store_b.to_literal(pairs[j][1])],
            "f_of_source_value": fl,
            "target_value": tl,
        })
    return rep


def check_atomic_preservation(f, pairs, ctx_a, ctx_b):
    """f([y in x]) <= [y' in x'] and f([x = z]) <= [x' = z'] over all
    ordered pairs drawn from the related list; when f also preserves
    implication, equality of both sides is asserted instead.  Each side
    is one `grid_codes` call on `ATOMIC_FORMULAS`, compared on codes by
    `preservation_failures`; violations come relation by relation, each
    in row-major order."""
    xs = [x for x, _ in pairs]
    xps = [xp for _, xp in pairs]
    fa = map_codes(f, grid_codes(ctx_a, ATOMIC_FORMULAS, {"X": xs, "Y": xs}))
    vb = grid_codes(ctx_b, ATOMIC_FORMULAS, {"X": xps, "Y": xps})
    return atomic_preservation_family(f, pairs, fa, vb, ctx_a.store, ctx_b.store)


def positive_bounded_family(f, names, xs, fa, vb, store_a, title=None):
    """The report of `check_positive_bounded_preservation` from the codes
    `fa` of f([phi]) and `vb` of [phi'] over the grid whose axes are the
    variables `names`, each ranging over the source names `xs`."""
    rep = Family(title or "positive bounded preservation", checked=vb[..., 0].size)
    for point, fl, tl in preservation_failures(f, fa, vb):
        rep.violations.append({
            "assignment": {v: store_a.to_literal(xs[i]) for v, i in zip(names, point)},
            "f_of_source_value": fl,
            "target_value": tl,
        })
    return rep


def check_positive_bounded_preservation(f, phi, pairs, ctx_a, ctx_b, title=None):
    """f([phi(a)]) <= [phi(a')] for positive bounded phi, where each free
    variable of phi, in sorted order, ranges over the lifted pairs
    (a, a').  Both sides are evaluated over the whole grid at once, one
    `grid_codes` call each, and compared on codes by
    `preservation_failures`; checks and violations run in row-major
    order of the grid.  Parameters must come through the pairs:
    constants are rejected.  A formula higher than `MAX_NESTING` raises
    `BudgetExceeded` first, from `is_positive_bounded`."""
    if not is_positive_bounded(phi):
        raise NotPositiveBounded(
            "formula uses negation, implication or an unbounded quantifier"
        )
    if has_const(phi):
        raise NotPositiveBounded(
            "constants are store-specific; pass parameters through assignments"
        )
    names = sorted(free_vars(phi))
    xs = [x for x, _ in pairs]
    xps = [xp for _, xp in pairs]
    fa = map_codes(f, grid_codes(ctx_a, [phi], dict.fromkeys(names, xs))[0])
    vb = grid_codes(ctx_b, [phi], dict.fromkeys(names, xps))[0]
    return positive_bounded_family(f, names, xs, fa, vb, ctx_a.store, title)


# -- the induced H-set morphism ----------------------------------------------------


def epsilon_tables(f, wls, ctx_a, ctx_b):
    """The tables of the H-set morphisms induced by the witnessed lifts
    `wls`, one stack per table: (ds, dt, phis) of shapes (G, ns, ns),
    (G, nt, nt) and (G, ns, nt), with ns the widest source domain and
    nt the widest image domain.  For a lift of x with image x' and
    witness tau, over dom x and dom x' in domain order, ds is f applied
    to the from_name table of x, dt is the from_name table of x', and

        phi(u, v') = f([u in x]) /\\ [tau(u) = v'] /\\ [v' in x']

    All three are gathers (`valuation._extents`) from the kernels of
    `ctx_a` over the closure of the sources and of `ctx_b` over that of
    the images, whose children are the witness targets, met as ANDs of
    Birkhoff codes and decoded once.  A narrower domain is padded with
    bottom, code 0, its padded points last, which
    `hset.morphism_law_masks` and `mono_epi_masks` read as vacuous
    (f(bottom) = bottom).
    """
    A, B = f.source, f.target
    _, _, ext_a, ds = _extents(ctx_a, [wl.x for wl in wls])
    (pos_b, EQ_b, *_), K_b, ext_b, dt = _extents(ctx_b, [wl.image for wl in wls])
    T = np.zeros(ext_a.shape[:2], dtype=np.intp)   # tau(u) at the slot of u
    for g, wl in enumerate(wls):
        T[g, :len(wl.witness)] = [pos_b[t] for _, t in wl.witness]
    phis = _bridge(map_codes(f, ext_a), EQ_b[T[:, :, None], K_b[:, None, :]], ext_b)
    return (f.table[A.codes.decode(ds)], B.codes.decode(dt).astype(np.int64),
            B.codes.decode(phis).astype(np.int64))


def epsilon_hset_morphism(f, wl, ctx_a, ctx_b):
    """The H-set morphism (dom x, f . delta_x) -> (dom x', delta_x')
    induced by a witnessed lift:
    eps(u, v') = f([u in x]) /\\ [tau(u) = v'] /\\ [v' in x'].  This is
    `epsilon_tables` on a stack of one."""
    ds, dt, phis = epsilon_tables(f, [wl], ctx_a, ctx_b)
    source = HSet(f.target, ctx_a.store.domain(wl.x), ds[0])
    target = HSet(f.target, ctx_b.store.domain(wl.image), dt[0])
    return HSetMorphism(source, target, phis[0])


def mono_epi_masks(A, ds, dt, phis):
    """Experimental probes for the open question about eps being an iso,
    for a stack of tables as `hset.morphism_law_masks` takes it: the
    (G,) masks of the usual mono characterization
    phi(x,z') /\\ phi(y,z') <= delta(x,y) and epi characterization
    \\/_x phi(x,x') = delta'(x',x').  Points padded with bottom pass both
    vacuously."""
    # \/_{z'} phi(x,z') /\ phi(y,z') <= delta(x,y) holds iff every z' does
    mono = A.leq[compose_tables(A, phis, phis.swapaxes(1, 2)), ds].all(axis=(1, 2))
    column_joins = compose_tables(A, np.full((1, phis.shape[1]), A.top), phis)[:, 0]
    epi = (column_joins == dt.diagonal(axis1=-2, axis2=-1)).all(axis=1)
    return mono, epi


def mono_epi_experiment(m):
    """`mono_epi_masks` on the stack of one morphism."""
    mono, epi = mono_epi_masks(m.source.algebra, m.source.delta, m.target.delta, m.phi[None])
    return {"mono": bool(mono[0]), "epi": bool(epi[0])}


# -- morphism text format -------------------------------------------------------------


def parse_morphism(text, algebras):
    """Parse `morphism NAME : A -> B` followed by `map: a -> b` lines.

    `algebras` maps identifiers to loaded HeytingAlgebra values; the
    table must be total on the source.  Returns (name, LocaleMorphism),
    validated.
    """
    name = None
    src = tgt = None
    mapping = {}
    for lineno, line in text_lines(text):
        with ParseError.on_line(lineno):
            if line.startswith("morphism"):
                if name is not None:
                    raise ParseError("duplicate morphism header")
                name, a_ident, b_ident = split_arrow_header(
                    line[len("morphism"):], "morphism NAME : A -> B")
                try:
                    src, tgt = algebras[a_ident], algebras[b_ident]
                except KeyError as ex:
                    raise ParseError(f"unknown algebra {ex.args[0]!r}") from None
                continue
            if line.startswith("map:"):
                if name is None:
                    raise ParseError("map: line before morphism header")
                try:
                    a_lab, b_lab = line[len("map:"):].split("->", 1)
                except ValueError:
                    raise ParseError("expected 'map: a -> b'")
                a_lab, b_lab = a_lab.strip(), b_lab.strip()
                try:
                    a = src.index(a_lab)
                except KeyError:
                    raise ParseError(f"unknown source element {a_lab!r}")
                try:
                    b = tgt.index(b_lab)
                except KeyError:
                    raise ParseError(f"unknown target element {b_lab!r}")
                if a in mapping:
                    raise ParseError(f"duplicate map for {a_lab!r}")
                mapping[a] = b
                continue
            raise ParseError(f"unrecognized line {line!r}")
    if name is None:
        raise ParseError("missing morphism header")
    if len(mapping) != src.n:
        missing = [src.labels[i] for i in range(src.n) if i not in mapping]
        raise ParseError(f"table not total, missing {missing}")
    table = [mapping[i] for i in range(src.n)]
    return name, validate_locale_morphism(src, tgt, table, name=name)
