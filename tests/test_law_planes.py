r"""The bitplane law families against the per-middle loops they replace.

`reference_families` is the earlier form of the eleven valuation law
families, kept frozen here: families 5, 6, 7 and 9 loop over every
middle name k, the fragment forms of 10 and 11 loop over every
fragment name w, and families 2, 4, 8, 10 and 11 loop over the entries
of every pool name.  `checks.valuation_law_families` decides the same
laws on join-irreducible bitplanes and by folds over child slots, on
the Birkhoff codes of the equality kernel.  Both run on intact
[x = y] / [x in y] matrices and on seeded corruptions of them (encoded
into a kernel by `_kernel` for the families), and on the real
`_build_kernel` output over hypothesis stores, intact and with seeded
corrupted codes, and must agree on every family's name, check count and
violation list, order included.

Families 4, 8, 10 and 11 are also compared with `element_table_families`,
which computes them with `_slot_fold`, the fold over child slots on
element tables that Birkhoff codes replaced, kept here as it was; and
`valuation._code_fold` is compared with it on hypothesis inputs with
codes of one to nine bytes.

On each plane the families are decided on the classes of E_p, and the
0/1 matrix products run only where E_p is not an equivalence or a
family fails.  Hypothesis planes compare the two paths mask for mask,
and counted calls pin which path runs.

Before the planes, the families quotient the pool by the classes of
[x = y] = top (`checks._quotient`) when EQ and MEM are constant on
them.  The live families are compared with the same families with the
quotient forced to the identity, on intact and corrupted kernels;
counted calls pin which of the two runs, and the class counts of the
intact pools are pinned.
"""

import random
import time
import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import checks, valuation
from hvmodels.checks import CheckReport, valuation_law_families, valuation_property_suite
from hvmodels.formula import parse_formula
from hvmodels.lattice import _row_blocks, make_boolean, make_chain
from hvmodels.names import NameStore, enumerate_names
from hvmodels.valuation import (
    EvalContext,
    _build_kernel,
    _element_dtype,
    _eq_kernel,
    child_arrays,
    eq_matrix,
    eval_grid,
    mem_matrix,
)

from test_valuation import DIAMOND_ON_TOP, _names


def reference_fragment_forms(algebra, MEM):
    n = MEM.shape[0]
    mt, jt, it = algebra.meet_table, algebra.join_table, algebra.impl_table
    fex = np.full((n, n), algebra.bottom, dtype=np.int64)
    ffa = np.full((n, n), algebra.top, dtype=np.int64)
    for w in range(n):
        fex = jt[fex, mt[MEM[w, :][:, None], MEM[w, :][None, :]]]
        ffa = mt[ffa, it[MEM[w, :][:, None], MEM[w, :][None, :]]]
    return fex, ffa


def reference_families(store, pool, EQ, MEM, ctx, eval_samples):
    algebra = store.algebra
    n = len(pool)
    idx = {nid: k for k, nid in enumerate(pool)}
    mt, jt, it, leq = (algebra.meet_table, algebra.join_table,
                       algebra.impl_table, algebra.leq)
    top, bottom = algebra.top, algebra.bottom
    rep = CheckReport("reference")
    fam = rep.family("1 reflexivity [x = x] = top")
    fam.bulk(n, EQ.diagonal() == top, "diagonal below top")

    fam = rep.family("2 entry value below membership")
    for j, y in enumerate(pool):
        for u, v in store.entries(y):
            fam.record(bool(leq[v, MEM[idx[u], j]]),
                       {"y": store.to_literal(y), "u": store.to_literal(u)})

    fam = rep.family("3 symmetry [x = y] = [y = x]")
    fam.bulk(n * n, np.array_equal(EQ, EQ.T), "asymmetric pair")

    fam = rep.family("4 mirrored membership [x in y] = [y ni x]")
    for i, x in enumerate(pool):
        row = np.full(n, bottom, dtype=np.int64)
        for u, v in store.entries(x):
            row = jt[row, mt[v, EQ[idx[u], :]]]
        fam.bulk(n, np.array_equal(row, MEM[:, i]), {"x": store.to_literal(x)})

    fam = rep.family("5 equality transitive")
    for k in range(n):
        lhs = mt[EQ[:, k][:, None], EQ[k, :][None, :]]
        fam.bulk(n * n, leq[lhs, EQ].all(), {"middle": store.to_literal(pool[k])})

    fam = rep.family("6 equality then membership")
    for k in range(n):
        lhs = mt[EQ[:, k][:, None], MEM[k, :][None, :]]
        fam.bulk(n * n, leq[lhs, MEM].all(), {"middle": store.to_literal(pool[k])})

    fam = rep.family("7 membership then equality")
    for k in range(n):
        lhs = mt[MEM[:, k][:, None], EQ[k, :][None, :]]
        fam.bulk(n * n, leq[lhs, MEM].all(), {"middle": store.to_literal(pool[k])})

    fam = rep.family("8 equality carries entries")
    for i, x in enumerate(pool):
        for u, v in store.entries(x):
            fam.bulk(n, leq[mt[EQ[i, :], v], MEM[idx[u], :]].all(),
                     {"x": store.to_literal(x), "u": store.to_literal(u)})

    fam = rep.family("9 substitution under equality")
    for k in range(n):
        for tag, phi in (("w in z", MEM[:, k]), ("z in w", MEM[k, :]),
                         ("w = z", EQ[:, k])):
            lhs = mt[EQ, phi[:, None]]
            rhs = mt[EQ, phi[None, :]]
            fam.bulk(n * n, np.array_equal(lhs, rhs),
                     {"family": tag, "z": store.to_literal(pool[k])})

    bex = np.full((n, n), bottom, dtype=np.int64)
    bfa = np.full((n, n), top, dtype=np.int64)
    for i, x in enumerate(pool):
        for u, v in store.entries(x):
            bex[i, :] = jt[bex[i, :], mt[v, MEM[idx[u], :]]]
            bfa[i, :] = mt[bfa[i, :], it[v, MEM[idx[u], :]]]
    fex, ffa = reference_fragment_forms(algebra, MEM)

    sample = pool[:: max(1, n // eval_samples)]
    frag_ctx = EvalContext(store, fragment=pool)
    bounded_ex = parse_formula("exists u in X . u in Z", free=("X", "Z"))
    unbounded_ex = parse_formula("exists u . u in X /\\ u in Z", free=("X", "Z"))
    bounded_fa = parse_formula("forall u in X . u in Z", free=("X", "Z"))
    unbounded_fa = parse_formula("forall u . u in X -> u in Z", free=("X", "Z"))

    fam = rep.family("10 bounded exists expands over the domain")
    fam.bulk(n * n, np.array_equal(bex, fex), "fragment form differs")
    for x in sample:
        for z in sample:
            sigma = {"X": x, "Z": z}
            b = ctx.eval(bounded_ex, sigma)
            u = frag_ctx.eval(unbounded_ex, sigma)
            fam.record(b == bex[idx[x], idx[z]] == u,
                       {"x": store.to_literal(x), "z": store.to_literal(z)})

    fam = rep.family("11 bounded forall expands over the domain")
    fam.bulk(n * n, np.array_equal(bfa, ffa), "fragment form differs")
    for x in sample:
        for z in sample:
            sigma = {"X": x, "Z": z}
            b = ctx.eval(bounded_fa, sigma)
            u = frag_ctx.eval(unbounded_fa, sigma)
            fam.record(b == bfa[idx[x], idx[z]] == u,
                       {"x": store.to_literal(x), "z": store.to_literal(z)})
    return rep


def _slot_fold(fold, op, unit, K, V, M):
    """Row x is fold_s op(V[x, s], M[K[x, s], :]) over the child slots s
    of x from `unit`, in blocks of rows; the padding value bottom must
    give op(bottom, a) = unit."""
    out = np.full((len(K), M.shape[1]), unit, dtype=fold.dtype)
    for rows in _row_blocks(len(K), M.shape[1], valuation.FOLD_CELLS):
        for s in range(K.shape[1]):
            out[rows] = fold[out[rows], op[V[rows, s, None], M[K[rows, s]]]]
    return out


def element_table_families(ctx, EQ, MEM):
    """Families 4, 8, 10 and 11 as element-table folds: `_slot_fold`
    above, the fold over child slots before Birkhoff codes, and family
    8 by table lookups in row blocks."""
    store, pool, algebra = ctx.store, ctx.fragment, ctx.algebra
    n = len(pool)
    idx = {nid: k for k, nid in enumerate(pool)}
    K, V, sizes = child_arrays(store, pool, idx, _element_dtype(algebra))
    mt, jt, it = (t.astype(V.dtype) for t in (
        algebra.meet_table, algebra.join_table, algebra.impl_table))
    leq, top, bottom = algebra.leq, algebra.top, algebra.bottom

    def lit(p):
        return store.to_literal(pool[p])

    rep = CheckReport("element tables")
    fam = rep.family("4 mirrored membership [x in y] = [y ni x]")
    mirrored = (_slot_fold(jt, mt, bottom, K, V, EQ) == MEM.T).all(axis=1)
    fam.checked += n * n
    fam.violations.extend({"x": lit(i)} for i in np.flatnonzero(~mirrored))

    fam = rep.family("8 equality carries entries")
    carried = np.ones(K.shape, dtype=bool)
    for rows in _row_blocks(n, n, valuation.FOLD_CELLS):
        for s in range(K.shape[1]):
            carried[rows, s] = leq[mt[EQ[rows], V[rows, s, None]],
                                   MEM[K[rows, s]]].all(axis=1)
    fam.checked += n * int(sizes.sum())
    fam.violations.extend({"x": lit(i), "u": lit(K[i, s])}
                          for i, s in np.argwhere(~carried))

    bex = _slot_fold(jt, mt, bottom, K, V, MEM)
    bfa = _slot_fold(mt, it, top, K, V, MEM)
    fex, ffa = reference_fragment_forms(algebra, MEM)
    sample = pool[:: max(1, n // checks.EVAL_SAMPLES)]
    for name, value, form, bounded, unbounded in (
        ("10 bounded exists expands over the domain", bex, fex,
         "exists u in X . u in Z", "exists u . u in X /\\ u in Z"),
        ("11 bounded forall expands over the domain", bfa, ffa,
         "forall u in X . u in Z", "forall u . u in X -> u in Z"),
    ):
        bounded = parse_formula(bounded, free=("X", "Z"))
        unbounded = eval_grid(ctx, parse_formula(unbounded, free=("X", "Z")),
                              {"X": sample, "Z": sample})
        fam = rep.family(name)
        fam.bulk(n * n, np.array_equal(value, form), "fragment form differs")
        for (i, x), (j, z) in iproduct(enumerate(sample), repeat=2):
            b = ctx.eval(bounded, {"X": x, "Z": z})
            ok = b == value[idx[x], idx[z]] == unbounded[i, j]
            fam.record(ok, None if ok else
                       {"x": store.to_literal(x), "z": store.to_literal(z)})
    return rep


# the folds are checked over codes of one byte (|J| <= 8) and more
FOLD_ALGEBRAS = (make_chain(2), make_chain(5), make_boolean(2), make_boolean(3),
                 DIAMOND_ON_TOP, make_chain(12), make_chain(70))

# (algebra, domain cap at rank 2, corruption seeds); seed 0 leaves the
# matrices intact
CASES = [
    (make_chain(5), 1, range(8)),
    (make_boolean(2), 2, range(3)),
    (make_boolean(3), 1, range(6)),
    (DIAMOND_ON_TOP, 1, range(8)),
]


def _corrupt(algebra, EQ, MEM, seed):
    """Copies of the matrices with a few cells overwritten by seeded
    random elements: EQ only, MEM only, or both, and for some seeds
    EQ symmetrically."""
    EQ, MEM = EQ.copy(), MEM.copy()
    if seed == 0:
        return EQ, MEM
    rng = random.Random(seed)
    n = EQ.shape[0]
    targets = [(EQ,), (MEM,), (EQ, MEM)][seed % 3]
    for mat in targets:
        for _ in range(rng.randint(1, 4)):
            i, j, a = rng.randrange(n), rng.randrange(n), rng.randrange(algebra.n)
            mat[i, j] = a
            if mat is EQ and seed % 2:
                mat[j, i] = a
    return EQ, MEM


def _lower_entry(store, pool, MEM, seed):
    """A copy of MEM with [u in y] lowered to bottom for one seeded entry
    (u, v) of a pool name y with v above bottom, which family 2 reports."""
    MEM = MEM.copy()
    idx = {nid: k for k, nid in enumerate(pool)}
    bottom = store.algebra.bottom
    entries = [(idx[u], j) for j, y in enumerate(pool)
               for u, v in store.entries(y) if v != bottom]
    MEM[random.Random(seed).choice(entries)] = bottom
    return MEM


def _matrices(algebra, cap):
    store = NameStore(algebra)
    pool = enumerate_names(store, max_rank=2, max_domain=cap)
    ctx = EvalContext(store)
    return store, pool, eq_matrix(ctx, pool), mem_matrix(ctx, pool)


def _summary(rep):
    return [(f.name, f.checked, f.violations) for f in rep.families]


def _identity(codes, EQ, MEM):
    """`checks._quotient` forced to the identity."""
    return slice(None), slice(None)


def _count_quotients(monkeypatch):
    """Wrap `checks._quotient` so that the returned list records, per
    call, whether the families ran on a quotient (True) or on the
    identity (False)."""
    paths = []

    def counted(*args, _quotient=checks._quotient):
        reps, cls = _quotient(*args)
        paths.append(not isinstance(reps, slice))
        return reps, cls
    monkeypatch.setattr(checks, "_quotient", counted)
    return paths


def _kernel(store, pool, EQ, MEM):
    """The kernel tuple (pos, EQ, MEM, K, V, sizes) of `pool`, in pool
    order, with the element matrices EQ and MEM and the entry values
    encoded to Birkhoff codes, as `_build_kernel` lays them out."""
    codes = store.algebra.codes
    pos = {u: p for p, u in enumerate(pool)}
    K, V, sizes = child_arrays(store, pool, pos, _element_dtype(store.algebra))
    return pos, codes.encode(EQ), codes.encode(MEM), K, codes.encode(V), sizes


def _families(store, pool, EQ, MEM):
    """`valuation_law_families` on the element matrices EQ and MEM of
    `pool`, through `_kernel`."""
    return valuation_law_families(CheckReport("codes"), EvalContext(store, fragment=pool),
                                  _kernel(store, pool, EQ, MEM))


def fragment_forms(algebra, MEM):
    """`checks._fragment_codes` on the element matrix MEM, decoded:
    fex[x, z] = \\/_w [w in x] /\\ [w in z] and
    ffa[x, z] = /\\_w [w in x] -> [w in z]."""
    codes = algebra.codes
    return tuple(codes.decode(form)
                 for form in checks._fragment_codes(codes, codes.encode(MEM)))


@pytest.mark.parametrize("algebra,cap,seeds", CASES, ids=[c[0].name for c in CASES])
def test_bitplane_families_match_the_per_middle_reference(algebra, cap, seeds,
                                                          monkeypatch):
    store, pool, EQ0, MEM0 = _matrices(algebra, cap)
    monkeypatch.setattr(checks, "EVAL_SAMPLES", 3)
    failing = set()
    cases = [(seed, *_corrupt(algebra, EQ0, MEM0, seed)) for seed in seeds]
    cases.append(("lowered entry", EQ0, _lower_entry(store, pool, MEM0, len(seeds))))
    for seed, EQ, MEM in cases:
        want = _summary(reference_families(store, pool, EQ, MEM,
                                           EvalContext(store), eval_samples=3))
        got = _summary(_families(store, pool, EQ, MEM))
        assert got == want, f"seed {seed}"
        assert [np.array_equal(a, b) for a, b in zip(
            fragment_forms(algebra, MEM), reference_fragment_forms(algebra, MEM))] \
            == [True, True]
        if seed == 0:
            assert all(not v for _, _, v in got)
        failing |= {name for name, _, v in got if v}
    # the corruptions reach every family decided on bitplanes or child slots
    for prefix in ("2 ", "4 ", "5 ", "6 ", "7 ", "8 ", "9 ", "10 ", "11 "):
        assert any(name.startswith(prefix) for name in failing), prefix


def test_slot_folds_agree_in_blocks_of_one_row(monkeypatch):
    algebra = make_boolean(2)
    store, pool, EQ0, MEM0 = _matrices(algebra, 2)
    EQ, MEM = _corrupt(algebra, EQ0, MEM0, 2)
    MEM = _lower_entry(store, pool, MEM, 2)
    monkeypatch.setattr(checks, "EVAL_SAMPLES", 3)

    def families():
        return _summary(_families(store, pool, EQ, MEM))

    whole = families()
    assert any(v for name, _, v in whole if name.startswith(("2 ", "4 ", "8 ", "10 ")))
    monkeypatch.setattr(valuation, "FOLD_CELLS", 1)
    assert families() == whole


@pytest.mark.parametrize("algebra,cap,seeds", CASES, ids=[c[0].name for c in CASES])
def test_code_families_match_the_element_table_folds(algebra, cap, seeds, monkeypatch):
    # families 4, 8, 10 and 11 on Birkhoff codes against the same
    # families on element tables, on intact and corrupted matrices
    store, pool, EQ0, MEM0 = _matrices(algebra, cap)
    monkeypatch.setattr(checks, "EVAL_SAMPLES", 3)
    cases = [_corrupt(algebra, EQ0, MEM0, seed) for seed in seeds]
    cases.append((EQ0, _lower_entry(store, pool, MEM0, len(seeds))))
    failing = set()
    for EQ, MEM in cases:
        want = _summary(element_table_families(EvalContext(store, fragment=pool), EQ, MEM))
        got = _summary(_families(store, pool, EQ, MEM))
        assert [f for f in got if f[0].startswith(("4 ", "8 ", "10 ", "11 "))] == want
        failing |= {name for name, _, v in want if v}
    assert len(failing) == 4, failing  # the corruptions reach all four


@st.composite
def _folds(draw):
    """An algebra (codes of one to nine bytes), a padded child layout K,
    V over m rows and any element matrix M of m rows."""
    algebra = draw(st.sampled_from(FOLD_ALGEBRAS))
    rows, width, cols = (draw(st.integers(1, 7)) for _ in range(3))
    m = draw(st.integers(1, 6))
    def matrix(shape, top):
        return np.array(draw(st.lists(st.integers(0, top - 1), min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]))).reshape(shape)
    dtype = _element_dtype(algebra)
    return (algebra, matrix((rows, width), m), matrix((rows, width), algebra.n).astype(dtype),
            matrix((m, cols), algebra.n).astype(dtype))


@settings(max_examples=300, deadline=None)
@given(_folds())
def test_code_fold_matches_the_element_table_fold(case):
    algebra, K, V, M = case
    codes = algebra.codes
    mt, jt, it = (t.astype(V.dtype) for t in (
        algebra.meet_table, algebra.join_table, algebra.impl_table))
    Vc, Mc = codes.encode(V), codes.encode(M)
    assert np.array_equal(codes.decode(valuation._code_fold(codes, K, Vc, Mc)),
                          _slot_fold(jt, mt, algebra.bottom, K, V, M))
    assert np.array_equal(codes.decode(valuation._code_fold(codes, K, Vc, Mc, implies=True)),
                          _slot_fold(mt, it, algebra.top, K, V, M))


def test_bigger_sweep_boolean4_domain_cap_3():
    started = time.perf_counter()
    rep = valuation_property_suite(make_boolean(2), rank=2, max_domain=3)
    elapsed = time.perf_counter() - started
    assert rep.config["pool"] == 821
    assert len(rep.families) == 11 and rep.ok, rep.render_text()
    assert elapsed < 60.0


def _count_products(monkeypatch):
    """Wrap the plane products of families 5, 6, 7 and 9 so that the
    returned dict counts their calls."""
    calls = {}
    for fname in ("_failing_middles", "_unequal_columns"):
        def counted(*args, _fname=fname, _fn=getattr(checks, fname)):
            calls[_fname] = calls.get(_fname, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(checks, fname, counted)
    return calls


@pytest.mark.parametrize("algebra,cap,names", [
    (make_chain(5), 3, 2906),
    (make_boolean(3), 2, 2377),
], ids=["chain5-cap3", "boolean8-cap2"])
def test_big_sweeps_within_the_bound(algebra, cap, names, monkeypatch):
    # both pools build their kernel under the real GRID_BUDGET, once, and
    # the families decide every law on its codes: the only grids are the
    # samples of families 10 and 11, and the peak stays well below the
    # 2 x 64 MiB that two int64 matrices over chain5's pool would take.
    # The families run on the quotient by [x = y] = top, and every plane
    # of an intact pool is decided on its classes, with no product.
    calls = _count_products(monkeypatch)
    paths = _count_quotients(monkeypatch)
    kernels, grids = [], []
    build = valuation._build_kernel

    def counted_build(*args):
        kernels.append(args)
        return build(*args)

    monkeypatch.setattr(valuation, "_build_kernel", counted_build)
    for module in (checks, valuation):
        def recorded(*args, _grid=module.eval_grid):
            out = _grid(*args)
            grids.append(out.size)
            return out
        monkeypatch.setattr(module, "eval_grid", recorded)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        rep = valuation_property_suite(algebra, rank=2, max_domain=cap)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.config["pool"] == names
    assert len(rep.families) == 11 and rep.ok, rep.render_text()
    assert calls == {}
    assert paths == [True]
    assert len(kernels) == 1
    assert grids and max(grids) <= (2 * checks.EVAL_SAMPLES) ** 2
    assert peak < 80 * 2**20, peak
    assert elapsed < 60.0


def test_families_refuse_a_fragment_out_of_kernel_order():
    # the unbounded forms of 10 and 11 range over the fragment and the
    # families over the kernel, so the two must be the same names in the
    # same order: a fragment that lacks a child, or is permuted, is
    # refused before any family runs
    store = NameStore(make_chain(3))
    pool = enumerate_names(store, max_rank=2, max_domain=2)
    child = next(u for x in pool[::-1] for u in store.domain(x) if u != store.empty)
    for fragment in ([u for u in pool if u != child], pool[::-1]):
        ctx = EvalContext(store, fragment=fragment)
        rep = CheckReport("refused")
        with pytest.raises(ValueError, match="kernel order"):
            valuation_law_families(rep, ctx, _eq_kernel(ctx, fragment))
        assert rep.families == []
    ctx = EvalContext(store, fragment=pool)
    assert valuation_law_families(CheckReport("pool"), ctx, _eq_kernel(ctx, pool)).ok


@settings(max_examples=40, deadline=None)
@given(_names())
def test_families_on_the_built_kernel_match_the_reference(case):
    # the families on `_build_kernel`'s own arrays (MEM the transposed
    # view it returns), then on its codes with a few cells of EQ and MEM
    # overwritten by the codes of seeded random elements, over ALGEBRAS
    # (|J| = 1 to 69, codes of one to nine bytes); the fragment is the
    # kernel's closure in kernel order
    store, rows, cols = case
    codes = store.algebra.codes
    kernel = _build_kernel(store, [store.empty, *rows, *cols])
    pos, EQ, MEM, K, V, sizes = kernel
    pool = list(pos)
    for seed in range(7):
        EQe, MEMe = _corrupt(store.algebra, codes.decode(EQ), codes.decode(MEM), seed)
        if seed:
            kernel = (pos, codes.encode(EQe), codes.encode(MEMe), K, V, sizes)
        want = _summary(reference_families(store, pool, EQe, MEMe, EvalContext(store),
                                           eval_samples=checks.EVAL_SAMPLES))
        got = _summary(valuation_law_families(CheckReport("kernel"),
                                              EvalContext(store, fragment=pool), kernel))
        assert got == want, f"seed {seed}"
        if not seed:
            assert all(not v for _, _, v in got)


def _corrupt_classes(algebra, EQ, MEM, seed):
    """`_corrupt` on the first member of each class of [x = y] = top of
    the element matrices EQ and MEM, spread back over the classes, so
    both stay constant on them; None when `checks._quotient` gives the
    identity."""
    codes = algebra.codes
    reps, cls = checks._quotient(codes, codes.encode(EQ), codes.encode(MEM))
    if isinstance(reps, slice):
        return None
    EQq, MEMq = _corrupt(algebra, EQ[np.ix_(reps, reps)], MEM[np.ix_(reps, reps)], seed)
    return EQq[np.ix_(cls, cls)], MEMq[np.ix_(cls, cls)]


@settings(max_examples=40, deadline=None)
@given(_names())
def test_the_quotient_matches_the_identity_on_the_built_kernel(case):
    # the families on the quotient against the same families with the
    # quotient forced to the identity, on `_build_kernel`'s arrays and on
    # its codes with seeded corrupted cells, over ALGEBRAS (codes of one
    # to nine bytes); corrupting whole classes keeps EQ and MEM constant
    # on them, so the quotient also runs on failing families
    store, rows, cols = case
    algebra, codes = store.algebra, store.algebra.codes
    pos, EQ, MEM, K, V, sizes = _build_kernel(store, [store.empty, *rows, *cols])
    pool = list(pos)
    EQ, MEM = codes.decode(EQ), codes.decode(MEM)
    cases = [_corrupt(algebra, EQ, MEM, seed) for seed in range(7)]
    cases += filter(None, (_corrupt_classes(algebra, EQ, MEM, seed) for seed in range(1, 7)))
    for k, (EQe, MEMe) in enumerate(cases):
        kernel = (pos, codes.encode(EQe), codes.encode(MEMe), K, V, sizes)

        def families():
            return _summary(valuation_law_families(
                CheckReport("kernel"), EvalContext(store, fragment=pool), kernel))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "_quotient", _identity)
            want = families()
        assert families() == want, f"case {k}"


@pytest.mark.parametrize("algebra,cap,seeds", CASES, ids=[c[0].name for c in CASES])
def test_intact_pools_take_the_quotient_and_corruptions_the_identity(algebra, cap, seeds,
                                                                     monkeypatch):
    # every report equals the identity's.  The intact pool runs on its
    # classes, some corruption of each case on the identity, and some
    # corruption of whole classes on its classes with a failing family,
    # so both paths stay covered
    store, pool, EQ0, MEM0 = _matrices(algebra, cap)
    monkeypatch.setattr(checks, "EVAL_SAMPLES", 3)
    cases = [_corrupt(algebra, EQ0, MEM0, seed) for seed in seeds]
    cases.append((EQ0, _lower_entry(store, pool, MEM0, len(seeds))))
    cases += [_corrupt_classes(algebra, EQ0, MEM0, seed) for seed in seeds[1:]]
    paths = _count_quotients(monkeypatch)
    failing = []
    for k, (EQ, MEM) in enumerate(cases):
        got = _summary(_families(store, pool, EQ, MEM))
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_quotient", _identity)
            assert got == _summary(_families(store, pool, EQ, MEM)), f"case {k}"
        failing.append(any(v for _, _, v in got))
    assert len(paths) == len(cases)
    plain = len(seeds) + 1
    assert paths[0] is True and not all(paths[1:plain])
    assert any(p and f for p, f in zip(paths[plain:], failing[plain:]))


def test_the_quotient_is_the_identity_unless_every_condition_holds():
    # over chain3 (0 < 1 < 2): names 1 and 2 are equal with value top,
    # and EQ and MEM are constant on the classes {0} and {1, 2}
    codes = make_chain(3).codes
    EQ = np.array([[2, 0, 0], [0, 2, 2], [0, 2, 2]])
    MEM = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    reps, cls = checks._quotient(codes, codes.encode(EQ), codes.encode(MEM))
    assert reps.tolist() == [0, 1] and cls.tolist() == [0, 1, 1]
    for which, cells, value in (
        ("EQ", [(0, 0)], 1),          # not reflexive; the rows stay constant
        ("EQ", [(0, 2), (2, 0)], 1),  # an equivalence, EQ not constant
        ("MEM", [(0, 2)], 2),         # an equivalence, MEM not constant
        ("EQ", [(1, 2), (2, 1)], 0),  # every class a singleton
    ):
        E, M = EQ.copy(), MEM.copy()
        for cell in cells:
            (E if which == "EQ" else M)[cell] = value
        reps, cls = checks._quotient(codes, codes.encode(E), codes.encode(M))
        assert isinstance(reps, slice) and isinstance(cls, slice), (which, cells)


@pytest.mark.parametrize("algebra,rank,cap,classes", [
    (make_chain(2), 2, 2, 4),
    (make_chain(3), 2, 2, 13),
    (make_boolean(2), 2, 2, 16),
    (make_chain(5), 2, 2, 80),
    (make_chain(5), 2, 3, 203),
    (make_boolean(3), 2, 2, 64),
], ids=["chain2", "chain3-cap2", "four-cap2", "chain5-cap2", "chain5-cap3",
        "boolean8-cap2"])
def test_the_kernel_classes_of_intact_pools(algebra, rank, cap, classes):
    # the number of classes of [x = y] = top that the families run on;
    # each class's representative is its first member in kernel order
    store = NameStore(algebra)
    pool = enumerate_names(store, max_rank=rank, max_domain=cap)
    ctx = EvalContext(store, fragment=pool)
    _, EQ, MEM, *_ = _eq_kernel(ctx, pool)
    reps, cls = checks._quotient(algebra.codes, EQ, np.ascontiguousarray(MEM))
    assert len(reps) == classes < len(pool)
    assert reps[cls].tolist() == [min(np.flatnonzero(cls == c)) for c in cls]


@pytest.mark.parametrize("algebra,cap,seeds", CASES, ids=[c[0].name for c in CASES])
def test_products_run_only_on_failing_planes(algebra, cap, seeds, monkeypatch):
    # intact matrices are decided on the classes alone; some corruption
    # of each case takes the product path, so both paths stay covered
    store, pool, EQ0, MEM0 = _matrices(algebra, cap)
    monkeypatch.setattr(checks, "EVAL_SAMPLES", 1)
    calls = _count_products(monkeypatch)
    called = []
    for seed in seeds:
        calls.clear()
        _families(store, pool, *_corrupt(algebra, EQ0, MEM0, seed))
        called.append(bool(calls))
    assert called[0] is False
    assert any(called[1:])


def _products(E, M):
    """Families 5, 6, 7 and 9 on one plane by the products alone."""
    return (checks._failing_middles(E, E, E), checks._failing_middles(E, M, M),
            checks._failing_middles(M, E, M),
            np.array([checks._unequal_columns(E, F) for F in (M, M.T, E)]))


@st.composite
def _plane_pairs(draw):
    """E from a random partition of n points and M constant on its
    classes, or any M; then a few cells of either flipped, and E's flips
    mirrored for some draws, so E can lose reflexivity, symmetry or
    transitivity."""
    n = draw(st.integers(1, 12))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    E = labels[:, None] == labels[None, :]
    def bits(k):
        return np.array(draw(st.lists(st.booleans(), min_size=k * k,
                                      max_size=k * k))).reshape(k, k)
    M = bits(n) if draw(st.booleans()) else bits(4)[labels][:, labels]
    mirror = draw(st.booleans())
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cell, max_size=3)):
        E[i, j] = not E[i, j]
        if mirror:
            E[j, i] = E[i, j]
    for i, j in draw(st.lists(cell, max_size=3)):
        M[i, j] = not M[i, j]
    return E, M


@settings(max_examples=400, deadline=None)
@given(_plane_pairs())
def test_class_decision_matches_the_products(planes):
    E, M = planes
    got, want = checks._plane_failures(E, M), _products(E, M)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def _classes_by_three_comparisons(E):
    """The first member of each row's class when the boolean plane E is
    an equivalence relation, else None.  A reflexive, symmetric E whose
    every row equals the row of its first member is transitive."""
    first = E.argmax(axis=1)
    if E.diagonal().all() and np.array_equal(E, E.T) and np.array_equal(E, E[first]):
        return first
    return None


@settings(max_examples=400, deadline=None)
@given(_plane_pairs())
def test_one_comparison_finds_the_classes_three_found(planes):
    # the draws are equivalences with 0 to 3 cells flipped, mirrored or not
    E, _ = planes
    got, want = checks._classes(E), _classes_by_three_comparisons(E)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


def test_classes_of_an_equivalence_and_of_near_misses():
    labels = np.array([2, 0, 2, 1, 0])
    E = labels[:, None] == labels[None, :]
    assert checks._classes(E).tolist() == [0, 1, 0, 3, 1]
    for i, j in ((0, 0), (0, 1), (1, 3)):  # reflexivity, symmetry, transitivity
        F = E.copy()
        F[i, j] = not F[i, j]
        assert checks._classes(F) is None and _classes_by_three_comparisons(F) is None
    F = E.copy()
    F[0, 1] = F[1, 0] = True  # symmetric, but 0 ~ 1 ~ 4 and 0 ~ 2 without 1 ~ 2
    assert checks._classes(F) is None and _classes_by_three_comparisons(F) is None


@st.composite
def _mem_matrices(draw):
    """An algebra and a MEM matrix whose rows come from a small palette,
    so the planes have repeated rows."""
    algebra = draw(st.sampled_from([make_chain(3), make_boolean(2), make_boolean(3)]))
    n = draw(st.integers(1, 10))
    element = st.integers(0, algebra.n - 1)
    palette = draw(st.lists(st.lists(element, min_size=n, max_size=n),
                            min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return algebra, np.array(rows, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_mem_matrices())
def test_fragment_forms_match_the_per_name_reference(case):
    algebra, MEM = case
    for got, want in zip(fragment_forms(algebra, MEM),
                         reference_fragment_forms(algebra, MEM)):
        assert np.array_equal(got, want)
