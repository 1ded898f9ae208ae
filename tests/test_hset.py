r"""Category-of-H-sets tests.

Handcrafted violation instances pin down which law each validator
reports; singletons are cross-checked against an exhaustive |H|^n scan
on small carriers.
"""

import itertools
import json
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import checks, cli, hset, valuation
from hvmodels.errors import (
    BudgetExceeded,
    CrossAlgebra,
    Family,
    NotAFunctionName,
    NotComposable,
    NotEquivalent,
    ParseError,
    UnknownId,
)
from hvmodels.hset import (
    HSet,
    HSetMorphism,
    Singleton,
    completion,
    compose,
    compose_tables,
    dagger_hset,
    dagger_iso,
    dagger_morphism,
    dagger_points,
    equalizer,
    from_name,
    hsets_equal,
    identity,
    is_complete,
    lambda_f,
    lambda_iso,
    morphism_law_masks,
    morphisms_equal,
    parse_hset_file,
    product,
    singletons,
    validate_hset,
    validate_morphism,
)
from hvmodels.lattice import make_boolean, make_chain
from hvmodels.names import NameStore, enumerate_names, ordered_pair_h, pad_equivalent
from hvmodels.transfer import (
    epsilon_hset_morphism,
    identity_morphism,
    lift,
    validate_locale_morphism,
    witnessed_lift_with,
)
from hvmodels.valuation import GRID_BUDGET, EvalContext

from oracles import ref_eq, ref_mem
from test_valuation import ALGEBRAS as WIDTH_ALGEBRAS

GOLDEN = Path(__file__).parent / "data" / "hset_laws_golden.json"


def laws(report):
    return {f["law"] for f in report.violations}


# -- validators ----------------------------------------------------------------


def test_validate_hset_accepts_name_images(store3):
    for u in enumerate_names(store3, max_rank=2, max_domain=2)[::9]:
        assert validate_hset(from_name(EvalContext(store3), u))


def test_validate_hset_symmetry_witness(chain3):
    X = HSet(chain3, ["a", "b"], [[2, 0], [1, 2]])
    rep = validate_hset(X)
    assert not rep
    assert laws(rep) == {"symmetry"}
    assert rep.violations[0]["witness"] == ("a", "b")


def test_validate_hset_transitivity_witness(chain3):
    X = HSet(chain3, ["a", "b", "c"], [[2, 2, 0], [2, 2, 2], [0, 2, 2]])
    rep = validate_hset(X)
    assert laws(rep) == {"transitivity"}
    law, values = rep.violations[0]["law"], rep.violations[0]["values"]
    assert law == "transitivity" and values == ("1", "0")


def test_validate_morphism_totality(chain3):
    X = HSet(chain3, ["x"], [[2]])
    Y = HSet(chain3, ["y"], [[2]])
    rep = validate_morphism(HSetMorphism(X, Y, [[1]]))
    assert laws(rep) == {"totality"}
    assert rep.violations[0]["values"] == ("m", "1")


def test_validate_morphism_single_valuedness(chain3):
    X = HSet(chain3, ["x"], [[2]])
    Y = HSet(chain3, ["a", "b"], [[2, 0], [0, 2]])
    rep = validate_morphism(HSetMorphism(X, Y, [[2, 2]]))
    assert laws(rep) == {"single-valuedness"}


def test_validate_morphism_target_congruence(chain3):
    X = HSet(chain3, ["x"], [[2]])
    Y = HSet(chain3, ["a", "b"], [[2, 2], [2, 2]])
    rep = validate_morphism(HSetMorphism(X, Y, [[2, 0]]))
    assert laws(rep) == {"target congruence"}


def test_validate_morphism_source_congruence(chain3):
    X = HSet(chain3, ["x", "y"], [[2, 2], [2, 2]])
    Y = HSet(chain3, ["a"], [[2]])
    rep = validate_morphism(HSetMorphism(X, Y, [[2], [0]]))
    assert "source congruence" in laws(rep)


def test_validate_morphism_rejects_cross_algebra(chain3, four):
    X = HSet(chain3, ["x"], [[2]])
    Y = HSet(four, ["y"], [[3]])
    with pytest.raises(CrossAlgebra):
        validate_morphism(HSetMorphism(X, Y, [[0]]))


def test_duplicate_points_rejected(chain3):
    with pytest.raises(ParseError):
        HSet(chain3, ["p", "p"], [[2, 2], [2, 2]])


# -- category structure -----------------------------------------------------------


def _two_point(algebra, d01):
    top = algebra.top
    return HSet(algebra, ["p", "q"], [[top, d01], [d01, top]])


def test_identity_and_compose(chain3):
    X = _two_point(chain3, 1)
    Y = HSet(chain3, ["a"], [[2]])
    f = HSetMorphism(X, Y, [[2], [2]])
    assert validate_morphism(f)
    assert morphisms_equal(compose(f, identity(X)), f)
    assert morphisms_equal(compose(identity(Y), f), f)
    assert morphisms_equal(f, compose(f, identity(X)))


def test_compose_requires_matching_middle(chain3):
    X = _two_point(chain3, 1)
    Y = HSet(chain3, ["a"], [[2]])
    f = HSetMorphism(X, Y, [[2], [2]])
    with pytest.raises(NotComposable):
        compose(f, f)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_tables_matches_the_triple_loop(data):
    A = data.draw(st.sampled_from((make_chain(3), make_boolean(2), make_boolean(3))))
    # zero-point carriers on any side, and non-square tables
    n, m, k = (data.draw(st.integers(0, 4)) for _ in range(3))

    def table(rows, cols):
        cells = data.draw(st.lists(st.integers(0, A.n - 1),
                                   min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    P, Q = table(n, m), table(m, k)
    want = np.full((n, k), A.bottom, dtype=np.int64)
    for i, j, l in itertools.product(range(n), range(m), range(k)):
        want[i, l] = A.join(want[i, l], A.meet(P[i, j], Q[j, l]))
    got = compose_tables(A, P, Q)
    assert got.dtype == np.int64
    assert np.array_equal(got, want) and got.shape == (n, k)


def test_morphisms_equal_needs_same_endpoints(chain3):
    X = _two_point(chain3, 1)
    f = identity(X)
    g = HSetMorphism(_two_point(chain3, 0), _two_point(chain3, 0), np.eye(2, dtype=np.int64) * 2)
    assert not morphisms_equal(f, g)


# -- singletons and completion ------------------------------------------------------


def brute_singletons(X):
    A, n, d = X.algebra, len(X), X.delta
    mt, leq = A.meet_table, A.leq
    out = []
    for sigma in itertools.product(range(A.n), repeat=n):
        ok = all(
            leq[mt[sigma[i], sigma[j]], d[i, j]] and leq[mt[sigma[i], d[i, j]], sigma[j]]
            for i in range(n)
            for j in range(n)
        )
        if ok:
            out.append(sigma)
    return sorted(out)


def _small_corpus():
    chain3 = make_chain(3)
    four = make_boolean(2)
    top3, top4 = chain3.top, four.top
    corpus = [
        HSet(chain3, ["x"], [[1]]),
        _two_point(chain3, 0),
        _two_point(chain3, 1),
        HSet(chain3, ["a", "b", "c"], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]),
        HSet(chain3, ["a", "b", "c"], [[2, 1, 0], [1, 1, 0], [0, 0, 2]]),
        HSet(four, ["a", "b"], [[3, 1], [1, 3]]),
        HSet(four, ["a", "b", "c"], [[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
        HSet(chain3, [], []),
    ]
    store = NameStore(chain3)
    e = store.intern({})
    u = store.intern({e: 1})
    corpus.append(from_name(EvalContext(store), store.intern({e: 2, u: 1})))
    for X in corpus:
        assert validate_hset(X), X.points
    return corpus


def test_singletons_match_exhaustive_scan():
    for X in _small_corpus():
        got = [s.sigma for s in singletons(X)]
        assert got == brute_singletons(X)
        assert all(s.owner is X for s in singletons(X))


def test_singleton_budget():
    B3 = make_boolean(3)
    n = 13
    delta = np.full((n, n), B3.bottom, dtype=np.int64)
    np.fill_diagonal(delta, B3.top)
    X = HSet(B3, list(range(n)), delta)
    with pytest.raises(BudgetExceeded) as err:
        singletons(X)
    assert err.value.budget is not None


def test_completion_of_a_deficient_point(chain3):
    X = HSet(chain3, ["x"], [[1]])
    assert [s.sigma for s in singletons(X)] == [(0,), (1,)]
    assert not is_complete(X)
    comp, (fwd, bwd) = completion(X)
    assert len(comp) == 2
    assert np.array_equal(comp.delta, [[0, 0], [0, 1]])
    assert is_complete(comp)
    assert validate_hset(comp) and validate_morphism(fwd) and validate_morphism(bwd)
    assert morphisms_equal(compose(bwd, fwd), identity(X))
    again, _ = completion(comp)
    assert len(again) == len(comp)


def test_empty_hset_is_not_complete_but_completes(chain3):
    E = HSet(chain3, [], [])
    assert singletons(E) == [Singleton(E, ())]
    assert not is_complete(E)
    comp, (fwd, bwd) = completion(E)
    assert len(comp) == 1 and comp.delta[0, 0] == chain3.bottom
    assert is_complete(comp)
    assert fwd.phi.shape == (0, 1) and bwd.phi.shape == (1, 0)


def test_complete_examples(chain3):
    # delta(a, b) = a /\ b: the rows are exactly the singletons
    X = HSet(chain3, chain3.labels, chain3.meet_table)
    assert is_complete(X)
    assert not is_complete(HSet(chain3, ["z", "t"], [[0, 0], [0, 2]]))


# -- finite limits ---------------------------------------------------------------------


def test_product_projection_needs_the_diagonal_cut(chain3):
    X = HSet(chain3, ["x"], [[1]])
    Y = HSet(chain3, ["y"], [[2]])
    P, (px, py) = product([X, Y])
    assert P.delta[0, 0] == 1
    bare = HSetMorphism(P, Y, [[2]])
    assert laws(validate_morphism(bare)) == {"totality"}
    assert validate_morphism(px) and validate_morphism(py)
    assert py.phi[0, 0] == 1


def test_product_carrier_and_delta(four):
    X = HSet(four, ["a", "b"], [[3, 1], [1, 3]])
    Y = HSet(four, ["c"], [[2]])
    P, (px, py) = product([X, Y])
    assert P.points == [("a", "c"), ("b", "c")]
    assert np.array_equal(P.delta, four.meet_table[X.delta, Y.delta[0, 0]])
    assert validate_morphism(px) and validate_morphism(py)


def test_product_rejects_mixed_algebras_and_caps(chain3, four):
    with pytest.raises(CrossAlgebra):
        product([HSet(chain3, ["x"], [[2]]), HSet(four, ["y"], [[3]])])
    with pytest.raises(CrossAlgebra):
        product([])
    big = HSet(chain3, list(range(17)), np.full((17, 17), 2, dtype=np.int64))
    with pytest.raises(BudgetExceeded):
        product([big, big, big])


def test_product_refuses_before_it_enumerates(four, monkeypatch):
    X = HSet(four, list("abcd"), np.full((4, 4), four.top, dtype=np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            product([X] * 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.predicted, err.value.budget) == (4 ** 12, 4096)
    assert peak < 1 << 20  # the 4**12 points were never listed
    # up to the cap the product is built as before
    monkeypatch.setattr(hset, "PRODUCT_CAP", 16)
    Y = HSet(four, ["a", "b"], [[3, 1], [1, 3]])
    P, projs = product([X, Y, Y])
    assert P.points == list(itertools.product(X.points, Y.points, Y.points))
    meet = four.meet_table
    for (i, p), (j, q) in itertools.product(enumerate(P.points), repeat=2):
        want = meet[meet[X.delta[X.index[p[0]], X.index[q[0]]],
                         Y.delta[Y.index[p[1]], Y.index[q[1]]]],
                    Y.delta[Y.index[p[2]], Y.index[q[2]]]]
        assert P.delta[i, j] == want
    assert all(validate_morphism(m) for m in projs)
    with pytest.raises(BudgetExceeded) as err:
        product([X, X, Y])
    assert (err.value.predicted, err.value.budget) == (32, 16)


def test_empty_product_with_algebra_is_terminal(chain3):
    P, projections = product([], algebra=chain3)
    assert projections == []
    assert len(P) == 1 and P.delta[0, 0] == chain3.top


def test_equalizer_of_disjoint_maps_is_degenerate(chain3):
    X = HSet(chain3, ["x"], [[2]])
    Y = HSet(chain3, ["a", "b"], [[2, 0], [0, 2]])
    f = HSetMorphism(X, Y, [[2, 0]])
    g = HSetMorphism(X, Y, [[0, 2]])
    assert validate_morphism(f) and validate_morphism(g)
    E, inc = equalizer(f, g)
    assert E.delta[0, 0] == chain3.bottom
    assert validate_morphism(inc)
    assert morphisms_equal(compose(f, inc), compose(g, inc))


def test_equalizer_of_equal_maps_is_the_whole_source(chain3):
    X = _two_point(chain3, 1)
    Y = HSet(chain3, ["a"], [[2]])
    f = HSetMorphism(X, Y, [[2], [2]])
    E, inc = equalizer(f, f)
    assert hsets_equal(E, X)
    assert morphisms_equal(inc, identity(X))


def test_equalizer_needs_parallel_maps(chain3):
    X = _two_point(chain3, 1)
    Y = HSet(chain3, ["a"], [[2]])
    f = HSetMorphism(X, Y, [[2], [2]])
    with pytest.raises(NotComposable):
        equalizer(f, identity(X))


# -- bridges to the name universe ----------------------------------------------------


def test_from_name_simplification_is_sound(store4):
    # [x in u] /\ [x = y] <= [y in u] lets the third factor be dropped
    ctx = EvalContext(store4)
    A = store4.algebra
    for u in enumerate_names(store4, max_rank=2, max_domain=2)[::13]:
        full = from_name(ctx, u)
        slim = [[A.meet(ctx.atomic_mem(x, u), ctx.atomic_eq(x, y)) for y in full.points]
                for x in full.points]
        assert np.array_equal(full.delta, np.array(slim, dtype=np.int64).reshape(full.delta.shape))


def test_lambda_iso_roundtrip(store3):
    e = store3.intern({})
    u = store3.intern({e: 1})
    up = pad_equivalent(store3, u, 1)
    ctx = EvalContext(store3)
    fwd = lambda_iso(ctx, u, up)
    bwd = lambda_iso(ctx, up, u)
    assert validate_morphism(fwd) and validate_morphism(bwd)
    assert morphisms_equal(compose(bwd, fwd), identity(from_name(ctx, u)))
    assert morphisms_equal(compose(fwd, bwd), identity(from_name(ctx, up)))


def test_lambda_iso_requires_equality_top(store3):
    e = store3.intern({})
    u = store3.intern({e: 2})
    with pytest.raises(NotEquivalent):
        lambda_iso(EvalContext(store3), e, u)


def test_dagger_iso_roundtrip(chain3):
    store = NameStore(chain3)
    X = HSet(chain3, ["p", "q"], [[2, 1], [1, 2]])
    ctx = EvalContext(store)
    fwd, bwd = dagger_iso(ctx, X)
    assert validate_morphism(fwd) and validate_morphism(bwd)
    assert morphisms_equal(compose(bwd, fwd), identity(X))
    Y = fwd.target
    assert morphisms_equal(compose(fwd, bwd), identity(Y))
    assert len(Y) == 2 and Y.algebra is chain3


def test_dagger_hset_respects_extents(chain3):
    store = NameStore(chain3)
    X = HSet(chain3, ["p", "q"], [[1, 0], [0, 2]])
    u = dagger_hset(store, X)
    values = sorted(v for _, v in store.entries(u))
    assert values == [1, 2]


def test_lambda_f_of_a_dagger_identity(chain3):
    store = NameStore(chain3)
    X = HSet(chain3, ["p", "q"], [[2, 1], [1, 2]])
    ctx = EvalContext(store)
    h = dagger_morphism(store, identity(X))
    u = dagger_hset(store, X)
    m = lambda_f(ctx, h, u, u)
    assert validate_morphism(m)
    assert morphisms_equal(m, identity(from_name(ctx, u)))


def test_lambda_f_rejects_non_functional_names(store3):
    e = store3.intern({})
    s = store3.intern({e: 2})
    x = store3.intern({e: 2})
    y = store3.intern({e: 2, s: 2})
    from hvmodels.names import ordered_pair_h

    h = store3.intern({
        ordered_pair_h(store3, e, e): 2,
        ordered_pair_h(store3, e, s): 2,
    })
    with pytest.raises(NotAFunctionName):
        lambda_f(EvalContext(store3), h, x, y)


TWO = make_chain(2)


@st.composite
def _stores(draw):
    """A store over one of `test_valuation.ALGEBRAS` (Birkhoff codes of 1
    to 9 bytes) with up to 8 hypothesis-built names, and those names."""
    A = draw(st.sampled_from(WIDTH_ALGEBRAS))
    store = NameStore(A)
    ids = [store.empty]
    for _ in range(draw(st.integers(1, 8))):
        kids = draw(st.lists(st.sampled_from(ids), max_size=3))
        vals = draw(st.lists(st.integers(0, A.n - 1), min_size=len(kids), max_size=len(kids)))
        ids.append(store.intern(dict(zip(kids, vals))))
    return store, ids


@st.composite
def _bridge_cases(draw):
    """A `_stores` store, one name u of it (the empty name one time in
    four), an equivalence-pad index, and a locale morphism out of its
    algebra: the identity, or x -> [p <= x] onto the two-chain for a
    join-irreducible p."""
    store, ids = draw(_stores())
    A = store.algebra
    f = draw(st.sampled_from([identity_morphism(A)] + [
        validate_locale_morphism(A, TWO, A.leq[p].astype(np.int64))
        for p in A.join_irreducibles]))
    u = store.empty if draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(ids))
    return store, u, draw(st.integers(1, 2)), f


def _cells(A, left, rows, cols, right, cell):
    """left(x) /\\ cell(x, y) /\\ right(y) over the rows x and columns y,
    one oracle call per cell."""
    return [[A.big_meet([left(x), cell(x, y), right(y)]) for y in cols] for x in rows]


def _from_name_cells(store, u):
    mem = lambda x: ref_mem(store, x, u)
    dom = store.domain(u)
    return _cells(store.algebra, mem, dom, dom, mem, lambda x, y: ref_eq(store, x, y))


def _lambda_iso_cells(store, u, up):
    return _cells(store.algebra, lambda x: ref_mem(store, x, u), store.domain(u),
                  store.domain(up), lambda y: ref_mem(store, y, up),
                  lambda x, y: ref_eq(store, x, y))


def _dagger_iso_cells(store, X):
    dots, u = dagger_points(store, X), dagger_hset(store, X)
    return _cells(store.algebra, lambda i: X.delta[i, i], range(len(X)), store.domain(u),
                  lambda k: ref_mem(store, k, u), lambda i, k: ref_eq(store, dots[i], k))


def _lambda_f_cells(store, h, x, y):
    return _cells(store.algebra, lambda u: ref_mem(store, u, x), store.domain(x),
                  store.domain(y), lambda v: ref_mem(store, v, y),
                  lambda u, v: ref_mem(store, ordered_pair_h(store, u, v), h))


def _with_a_twin(X):
    """X with a copy of its first point appended: a lawful X stays lawful,
    and the two points have equal delta rows, so their dots collide."""
    idx = [*range(len(X)), 0]
    return HSet(X.algebra, range(len(idx)), X.delta[np.ix_(idx, idx)])


@settings(max_examples=80, deadline=None)
@given(_bridge_cases())
def test_bridges_match_their_cell_by_cell_definitions(case):
    store, u, k, f = case
    ctx = EvalContext(store)
    up = pad_equivalent(store, u, k)
    for v in (u, up):
        X = from_name(ctx, v)
        assert X.points == list(store.domain(v))
        assert X.delta.tolist() == _from_name_cells(store, v)
    for a, b in ((u, up), (up, u), (u, u)):
        lam = lambda_iso(ctx, a, b)
        assert lam.source.points == list(store.domain(a))
        assert lam.target.points == list(store.domain(b))
        assert lam.phi.tolist() == _lambda_iso_cells(store, a, b)

    X = from_name(ctx, u)
    fwd, bwd = dagger_iso(ctx, X)
    want = _dagger_iso_cells(store, X)
    assert fwd.phi.tolist() == want and bwd.phi.T.tolist() == want

    sb = NameStore(f.target)
    wl = lift(f, u, store, sb)
    tau = dict(wl.witness)
    eps = epsilon_hset_morphism(f, wl, ctx, EvalContext(sb))
    assert eps.source.delta.tolist() == f.table[X.delta].tolist()
    assert eps.phi.tolist() == _cells(
        f.target, lambda x: f(ref_mem(store, x, u)), X.points, eps.target.points,
        lambda y: ref_mem(sb, y, wl.image), lambda x, y: ref_eq(sb, tau[x], y))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(WIDTH_ALGEBRAS), st.integers(0, 2**32 - 1), st.booleans())
def test_dagger_iso_and_lambda_f_match_oracle_cells(A, seed, twin):
    # up to 3 points with the twin: lambda_f's predicate check is one-off
    X = checks._random_hset(A, random.Random(seed), max_points=2)
    if twin:
        X = _with_a_twin(X)
    store = NameStore(A)
    ctx = EvalContext(store)
    fwd, bwd = dagger_iso(ctx, X)
    u = dagger_hset(store, X)
    assert len(store.domain(u)) == len(set(dagger_points(store, X)))
    assert len(store.domain(u)) < len(X) or not twin
    assert fwd.target.delta.tolist() == _from_name_cells(store, u)
    want = _dagger_iso_cells(store, X)
    assert fwd.phi.tolist() == want and bwd.phi.T.tolist() == want
    h = dagger_morphism(store, identity(X))
    m = lambda_f(ctx, h, u, u)
    assert m.phi.tolist() == _lambda_f_cells(store, h, u, u)
    assert morphisms_equal(m, identity(from_name(ctx, u)))


def test_dagger_iso_meets_in_the_target_extents(chain3):
    # equal delta rows, but not symmetric: the two dots collide, the dagger
    # keeps the last extent, 1, and the table meets the first row's 2 with it
    X = HSet(chain3, ["p", "q"], [[2, 1], [2, 1]])
    store = NameStore(chain3)
    fwd, _ = dagger_iso(EvalContext(store), X)
    assert fwd.phi.tolist() == _dagger_iso_cells(store, X) == [[1], [1]]


def test_bridges_raise_their_errors_on_a_kept_kernel(store3):
    e = store3.empty
    u = store3.intern({e: 2})
    x, y = store3.intern({e: 2}), store3.intern({e: 2, u: 2})
    h = store3.intern({ordered_pair_h(store3, e, e): 2, ordered_pair_h(store3, e, u): 2})
    ctx = EvalContext(store3)
    from_name(ctx, y)   # a kernel is kept from here on
    with pytest.raises(NotEquivalent):
        lambda_iso(ctx, e, u)
    with pytest.raises(NotAFunctionName):
        lambda_f(ctx, h, x, y)
    for bad in (len(store3), -1, "u", None, 1.0):
        for call in (lambda: from_name(ctx, bad), lambda: lambda_iso(ctx, u, bad),
                     lambda: lambda_iso(ctx, bad, u), lambda: lambda_f(ctx, h, x, bad),
                     lambda: lambda_f(ctx, bad, x, y)):
            with pytest.raises(UnknownId):
                call()


@settings(max_examples=40, deadline=None)
@given(_stores(), st.data())
def test_bridges_interleaved_with_interning_match_fresh_contexts(case, data):
    store, ids = case
    A = store.algebra
    ctx = EvalContext(store)
    for _ in range(data.draw(st.integers(1, 8))):
        step = data.draw(st.sampled_from(("intern", "from_name", "lambda_iso", "dagger")))
        u = data.draw(st.sampled_from(ids))
        if step == "intern":
            ids.append(store.intern({u: data.draw(st.integers(0, A.n - 1))}))
            continue
        if step == "dagger":
            X = checks._random_hset(A, random.Random(data.draw(st.integers(0, 99))))
            request = lambda c: dagger_iso(c, X)[0].phi
        elif step == "lambda_iso":
            up = pad_equivalent(store, u, data.draw(st.integers(1, 2)))
            request = lambda c: lambda_iso(c, up, u).phi
        else:
            request = lambda c: from_name(c, u).delta
        assert np.array_equal(request(ctx), request(EvalContext(store)))


def test_hset_law_suite_reads_its_bridges_off_five_kernels(monkeypatch):
    # the one-off path is left to the alternate witnesses of the induced
    # morphism family: every bridge table is a gather from a kernel
    builds, outside = [], []
    build = valuation._build_kernel

    def counted(store, ids):
        builds.append(store.algebra)
        return build(store, ids)

    def watched(method):
        def call(self, x, y):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not witnessed_lift_with.__code__:
                frame = frame.f_back
            if frame is None:
                outside.append(method.__name__)
            return method(self, x, y)
        return call

    monkeypatch.setattr(valuation, "_build_kernel", counted)
    for name in ("atomic_eq", "atomic_mem"):
        monkeypatch.setattr(EvalContext, name, watched(getattr(EvalContext, name)))
    for seed in (0, 1729, 4242):
        builds.clear()
        assert checks.hset_law_suite(seed=seed).ok
        # one per algebra for the category and coherence families, two for epsilon
        assert len(builds) <= 5
        assert outside == []


def test_dagger_transfers_cross_algebra(chain3, four):
    store = NameStore(four)
    X = HSet(chain3, ["p"], [[2]])
    with pytest.raises(CrossAlgebra):
        dagger_hset(store, X)


# -- text format -------------------------------------------------------------------


GOOD = """
# two carriers and a map between them
hset X over chain3
points: p, q
delta: p,p = 1
delta: q,q = 1
delta: p,q = m

hset Y over chain3
points: z
delta: z,z = 1

morphism f : X -> Y
phi: p,z = 1
phi: q,z = 1
"""


def test_parse_hset_file_happy_path(chain3):
    hsets, morphisms = parse_hset_file(GOOD, {"chain3": chain3})
    X, Y, f = hsets["X"], hsets["Y"], morphisms["f"]
    assert X.points == ["p", "q"] and X.delta[0, 1] == X.delta[1, 0] == 1
    assert validate_hset(X) and validate_hset(Y) and validate_morphism(f)


@pytest.mark.parametrize("snippet,fragment", [
    ("hset X over nowhere\npoints: p\ndelta: p,p = 1", "unknown algebra"),
    ("hset X over chain3\ndelta: p,p = 1", "unknown point"),
    ("hset X over chain3\npoints: p\ndelta: p,p = zz", "unknown element label"),
    ("hset X over chain3\npoints: p q\ndelta: p,p = 1", "missing delta"),
    ("hset X over chain3\npoints: p q\ndelta: p,p = 1\ndelta: q,q = 1\n"
     "delta: p,q = m\ndelta: q,p = 0", "conflicting delta"),
    ("hset X over chain3\npoints: p p\ndelta: p,p = 1", "duplicate point"),
    ("hset X over chain3\npoints: p\ndelta: p,p = 1\n"
     "morphism f : X -> Z\nphi: p,p = 1", "unknown hset"),
    ("hset X over chain3\npoints: p\ndelta: p,p = 1\n"
     "morphism f : X -> X", "missing phi"),
    ("points: p", "unrecognized line"),
])
def test_parse_hset_file_errors(chain3, snippet, fragment):
    with pytest.raises(ParseError) as err:
        parse_hset_file(snippet, {"chain3": chain3})
    assert fragment in str(err.value)


# -- the batched law helper against the four-loop validator --------------------


def _fail(rep, law, witness, values):
    rep.violations.append({"law": law, "witness": witness, "values": values})


def frozen_validate_morphism(m):
    """The four morphism laws, one check per cell they quantify over;
    each law reports its first failure."""
    A = m.source.algebra
    if A is not m.target.algebra:
        raise CrossAlgebra("morphism endpoints live over different algebras")
    ds, dt, phi = m.source.delta, m.target.delta, m.phi
    ns, nt = len(m.source), len(m.target)
    rep = Family("H-set morphism laws", checked=2 * ns * nt * nt + ns * ns * nt + ns)
    mt, leq = A.meet_table, A.leq
    for x in range(ns):
        # 1. delta'(x',y') /\ phi(x,y') <= phi(x,x')
        lhs = mt[dt, phi[x][None, :]]        # lhs[x', y']
        viol = ~leq[lhs, phi[x][:, None]]
        if viol.any():
            xp, yp = map(int, np.argwhere(viol)[0])
            _fail(rep, "target congruence", (m.source.points[x], m.target.points[xp], m.target.points[yp]),
                  (A.labels[lhs[xp, yp]], A.labels[phi[x, xp]]))
            break
    for x in range(ns):
        # 2. delta(x,y) /\ phi(x,y') <= phi(y,y')
        lhs = mt[ds[x][:, None], phi[x][None, :]]   # lhs[y, y']
        viol = ~leq[lhs, phi]
        if viol.any():
            y, yp = map(int, np.argwhere(viol)[0])
            _fail(rep, "source congruence", (m.source.points[x], m.source.points[y], m.target.points[yp]),
                  (A.labels[lhs[y, yp]], A.labels[phi[y, yp]]))
            break
    for x in range(ns):
        # 3. phi(x,x') /\ phi(x,y') <= delta'(x',y')
        lhs = mt[phi[x][:, None], phi[x][None, :]]
        viol = ~leq[lhs, dt]
        if viol.any():
            xp, yp = map(int, np.argwhere(viol)[0])
            _fail(rep, "single-valuedness", (m.source.points[x], m.target.points[xp], m.target.points[yp]),
                  (A.labels[lhs[xp, yp]], A.labels[dt[xp, yp]]))
            break
    for x in range(ns):
        # 4. \/_{z'} phi(x,z') = delta(x,x)
        v = A.big_join(phi[x])
        if v != ds[x, x]:
            _fail(rep, "totality", (m.source.points[x],),
                  (A.labels[v], A.labels[ds[x, x]]))
            break
    return rep


ALGEBRAS = checks.test_algebras()


@st.composite
def _hset_pairs(draw):
    """An algebra, two `_random_hset` carriers (the source up to 3 or 6
    points, the target up to 3) and a rng for candidate tables."""
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    X = checks._random_hset(algebra, rng, max_points=draw(st.sampled_from([3, 6])))
    Y = checks._random_hset(algebra, rng)
    return X, Y, rng


def _candidate(X, Y, rng):
    """A graph-shaped table, one with a cell changed, or an arbitrary one."""
    n = X.algebra.n
    kind = rng.randrange(3)
    if kind == 2:
        return np.array([[rng.randrange(n) for _ in Y.points] for _ in X.points],
                        dtype=np.int64).reshape(len(X), len(Y))
    phi = Y.delta[[rng.randrange(len(Y)) for _ in X.points]].copy()
    if kind == 1:
        phi[rng.randrange(len(X)), rng.randrange(len(Y))] = rng.randrange(n)
    return phi


@settings(max_examples=150, deadline=None)
@given(_hset_pairs())
def test_validate_morphism_matches_the_four_loops(case):
    X, Y, rng = case
    for _ in range(4):
        m = HSetMorphism(X, Y, _candidate(X, Y, rng))
        new, old = validate_morphism(m), frozen_validate_morphism(m)
        assert (new.ok, new.checked, new.violations) == (old.ok, old.checked, old.violations)


@settings(max_examples=100, deadline=None)
@given(_hset_pairs(), st.integers(1, 27))
def test_law_masks_match_the_four_loops(case, G):
    X, Y, rng = case
    phis = np.stack([_candidate(X, Y, rng) for _ in range(G)])
    mask = morphism_law_masks(X.algebra, X.delta, Y.delta, phis)
    assert mask.tolist() == [
        bool(frozen_validate_morphism(HSetMorphism(X, Y, phi))) for phi in phis]


def _padded(tables, bottom):
    """The tables stacked and padded with bottom to the widest shape."""
    rows, cols = (max(t.shape[k] for t in tables) for k in (0, 1))
    out = np.full((len(tables), rows, cols), bottom, dtype=np.int64)
    for g, t in enumerate(tables):
        out[g, :t.shape[0], :t.shape[1]] = t
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(_hset_pairs(), min_size=1, max_size=8))
def test_law_masks_on_padded_stacks_of_mixed_carriers(cases):
    # one algebra per stack; each candidate brings its own carriers
    A = cases[0][0].algebra
    ms = []
    for X, Y, rng in cases:
        if X.algebra is A:
            ms.append(HSetMorphism(X, Y, _candidate(X, Y, rng)))
    ds, dt, phis = (_padded([t(m) for m in ms], A.bottom) for t in (
        lambda m: m.source.delta, lambda m: m.target.delta, lambda m: m.phi))
    mask = morphism_law_masks(A, ds, dt, phis)
    assert mask.tolist() == [bool(frozen_validate_morphism(m)) for m in ms]
    # padding comes last, so a stack of one keeps its first witnesses
    m = ms[0]
    padded, plain = {}, {}
    morphism_law_masks(A, ds[:1], dt[:1], phis[:1], padded)
    morphism_law_masks(A, m.source.delta, m.target.delta, m.phi[None], plain)
    assert padded == plain


@settings(max_examples=40, deadline=None)
@given(_hset_pairs())
def test_graph_morphisms_match_the_brute_filter(case):
    X, Y, _ = case
    brute = []
    for g in itertools.product(range(len(Y)), repeat=len(X)):
        m = HSetMorphism(X, Y, Y.delta[np.asarray(g, dtype=np.int64), :])
        if frozen_validate_morphism(m):
            brute.append(m.phi)
    got = checks._graph_morphisms(X, Y)
    assert all(m.source is X and m.target is Y for m in got)
    assert [m.phi.tolist() for m in got] == [phi.tolist() for phi in brute]


def test_graph_morphisms_budget(chain2):
    X = HSet(chain2, range(12), np.full((12, 12), chain2.top))
    with pytest.raises(BudgetExceeded) as err:
        checks._graph_morphisms(X, X)
    assert err.value.predicted == 12 ** 12 * 12 * 12
    assert err.value.budget == GRID_BUDGET


def test_hset_law_suite_enumerates_each_pair_once(monkeypatch):
    calls = []
    enumerate_ = checks._graph_morphisms

    def counted(X, Y):
        calls.append((X, Y))
        return enumerate_(X, Y)

    monkeypatch.setattr(checks, "_graph_morphisms", counted)
    for seed in (0, 1729):
        calls.clear()
        assert checks.hset_law_suite(seed=seed).ok
        # 3 algebras x 4^2 ordered pairs of H-sets
        assert len(calls) <= 48


@pytest.mark.parametrize("seed", ["0", "1729", "4242"])
def test_hset_laws_json_matches_golden(seed, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())[seed]
    out = tmp_path / "hset.json"
    assert cli.main(["check", "hset-laws", "--seed", seed, "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == json.dumps(golden, indent=2, sort_keys=True) + "\n"
