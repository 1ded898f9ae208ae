"""The H-set category families of `checks.hset_law_suite`, decided as
one stack per algebra by `checks._category_families`, against a frozen
copy of the per-morphism loops they replaced.

The corpora come from hypothesis: H-sets of 1 to 5 points, mixed in
size so that every stack is padded, over chain2, chain3, four, chain5
and boolean8, some with one cell of their table changed.  The
morphisms drawn from are lawful graphs, arbitrary tables and lawful
graphs with one cell changed, so every family but associativity sees
failing checks (composition of tables is associative whatever they
are); on a table that is not a morphism a two-sided equality or a
misordered composite gives another verdict than the loops do.
"""

import random
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import checks, hset as hs
from hvmodels.errors import BudgetExceeded, Family
from hvmodels.lattice import make_boolean, make_chain
from hvmodels.names import NameStore, function_predicate
from hvmodels.valuation import GRID_BUDGET, EvalContext, _Grid, eval_grid

ALGEBRAS = dict(checks.test_algebras(), chain5=make_chain(5), boolean8=make_boolean(3))


def frozen_category_families(rep, algebras, corpus, graphs):
    """The families as `hset_law_suite` decided them before they were
    stacked, one `hset` call per morphism, kept verbatim as the
    reference."""
    alg = algebras
    fam_id = rep.family("identity is neutral for composition")
    fam_assoc = rep.family("composition is associative")
    fam_onesided = rep.family("one-sided comparison already implies equality")
    for aname, hsets in corpus.items():
        for X, Y in iproduct(hsets, hsets):
            mors = graphs[id(X), id(Y)][:6]
            for m in mors:
                fam_id.record(
                    hs.morphisms_equal(hs.compose(m, hs.identity(X)), m)
                    and hs.morphisms_equal(hs.compose(hs.identity(Y), m), m),
                    {"algebra": aname},
                )
            for m, m2 in iproduct(mors, mors):
                leq_both = hs.hsets_equal(m.source, m2.source) and hs.hsets_equal(
                    m.target, m2.target)
                if leq_both and alg[aname].leq[m.phi, m2.phi].all():
                    fam_onesided.record(np.array_equal(m.phi, m2.phi),
                                        {"algebra": aname})
        for X, Y, Z in iproduct(hsets, hsets, hsets):
            for m in graphs[id(X), id(Y)][:2]:
                for m2 in graphs[id(Y), id(Z)][:2]:
                    for m3 in graphs[id(Z), id(X)][:2]:
                        lhs = hs.compose(m3, hs.compose(m2, m))
                        rhs = hs.compose(hs.compose(m3, m2), m)
                        fam_assoc.record(hs.morphisms_equal(lhs, rhs),
                                         {"algebra": aname})

    fam = rep.family("dagger roundtrip is an isomorphism")
    fam_fun = rep.family("dagger of the identity satisfies the function predicate")
    for aname, algebra in alg.items():
        store = NameStore(algebra)
        ctx = EvalContext(store)
        for X in corpus[aname][:2]:
            phi, psi = hs.dagger_iso(ctx, X)
            ok = (bool(hs.validate_morphism(phi)) and bool(hs.validate_morphism(psi))
                  and hs.morphisms_equal(hs.compose(psi, phi), hs.identity(X))
                  and hs.morphisms_equal(hs.compose(phi, psi),
                                         hs.identity(phi.target)))
            fam.record(ok, {"algebra": aname, "points": len(X)})
            h = hs.dagger_morphism(store, hs.identity(X))
            xd = hs.dagger_hset(store, X)
            fun = eval_grid(ctx, function_predicate(), {"H": [h], "X": [xd], "Y": [xd]})
            fam_fun.record(fun.item() == algebra.top,
                           {"algebra": aname, "points": len(X)})

    fam = rep.family("completion is complete and idempotent")
    for aname, algebra in alg.items():
        for X in corpus[aname][:2]:
            comp, (fwd, bwd) = hs.completion(X)
            ok = (bool(hs.validate_morphism(fwd)) and bool(hs.validate_morphism(bwd))
                  and hs.is_complete(comp)
                  and hs.morphisms_equal(hs.compose(bwd, fwd), hs.identity(X))
                  and hs.morphisms_equal(hs.compose(fwd, bwd), hs.identity(comp)))
            comp2, (f2, b2) = hs.completion(comp)
            ok = ok and hs.morphisms_equal(hs.compose(b2, f2), hs.identity(comp))
            ok = ok and hs.morphisms_equal(hs.compose(f2, b2), hs.identity(comp2))
            fam.record(ok, {"algebra": aname})

    fam = rep.family("product projections and pairing")
    fam_eq = rep.family("equalizer equalizes and includes")
    for aname, algebra in alg.items():
        hsets = corpus[aname]
        mt = algebra.meet_table
        for X, Y in iproduct(hsets, hsets):
            P, projs = hs.product([X, Y])
            ok = all(bool(hs.validate_morphism(p)) for p in projs)
            fam.record(ok, {"algebra": aname, "kind": "projections"})
            for W in hsets:
                h1 = graphs[id(W), id(X)][:1]
                h2 = graphs[id(W), id(Y)][:1]
                if not (h1 and h2):
                    continue
                pair_phi = np.empty((len(W), len(P)), dtype=np.int64)
                for k, (ix, iy) in enumerate(
                        iproduct(range(len(X)), range(len(Y)))):
                    pair_phi[:, k] = mt[h1[0].phi[:, ix], h2[0].phi[:, iy]]
                paired = hs.HSetMorphism(W, P, pair_phi)
                ok = bool(hs.validate_morphism(paired))
                ok = ok and hs.morphisms_equal(hs.compose(projs[0], paired), h1[0])
                ok = ok and hs.morphisms_equal(hs.compose(projs[1], paired), h2[0])
                fam.record(ok, {"algebra": aname, "kind": "pairing"})
                break
            mors = graphs[id(X), id(Y)][:2]
            for m, m2 in iproduct(mors, mors):
                E, incl = hs.equalizer(m, m2)
                ok = bool(hs.validate_morphism(incl))
                ok = ok and hs.morphisms_equal(hs.compose(m, incl),
                                               hs.compose(m2, incl))
                fam_eq.record(ok, {"algebra": aname})


class LoggedFamily(Family):
    """A family that also keeps the verdict of every check, in order."""

    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def record(self, ok, detail=None):
        self.log.append(bool(ok))
        super().record(ok, detail)


class LoggedReport(checks.CheckReport):
    def family(self, name):
        fam = LoggedFamily(name)
        self.families.append(fam)
        return fam


def _run(families, algebras, corpus, graphs):
    rep = LoggedReport("H-set category laws")
    families(rep, algebras, corpus, graphs)
    return [(f.name, f.checked, f.log, f.violations, f.notes) for f in rep.families]


def _tables(X, Y, rng):
    """Up to 7 tables X -> Y in a random order: lawful graphs (the
    suite's own morphisms), lawful graphs with one cell changed, and
    arbitrary tables."""
    lawful = [m.phi for m in checks._graph_morphisms(X, Y)]
    n = X.algebra.n
    out = []
    for _ in range(rng.randrange(8)):
        kind = rng.randrange(3)
        if kind == 0 and lawful:
            out.append(lawful[rng.randrange(len(lawful))])
        elif kind == 1 and lawful:
            phi = lawful[rng.randrange(len(lawful))].copy()
            phi[rng.randrange(len(X)), rng.randrange(len(Y))] = rng.randrange(n)
            out.append(phi)
        else:
            out.append(np.array([[rng.randrange(n) for _ in Y.points] for _ in X.points],
                                dtype=np.int64).reshape(len(X), len(Y)))
    return [hs.HSetMorphism(X, Y, phi) for phi in out]


def _hset(A, rng, lawful_only):
    """A `_random_hset` of 1 to 5 points; unless `lawful_only`, one time
    in four with one cell of its table changed, so that the dagger,
    function predicate and completion families fail too."""
    X = checks._random_hset(A, rng, max_points=rng.randrange(1, 6))
    if lawful_only or rng.randrange(4):
        return X
    delta = X.delta.copy()
    delta[rng.randrange(len(X)), rng.randrange(len(X))] = rng.randrange(A.n)
    return hs.HSet(A, X.points, delta)


@st.composite
def corpora(draw, lawful_only=False):
    """Algebras with a corpus of 1 to 3 H-sets of 1 to 5 points each
    (`_hset`), and for every ordered pair of H-sets of an algebra the
    morphisms to draw from: the pair's lawful graphs, or with
    `lawful_only` unset, a mix of lawful and unlawful tables."""
    names = draw(st.lists(st.sampled_from(sorted(ALGEBRAS)), min_size=1, max_size=2,
                          unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    corpus = {a: [_hset(ALGEBRAS[a], rng, lawful_only)
                  for _ in range(draw(st.integers(1, 3)))] for a in names}
    graphs = {}
    for hsets in corpus.values():
        for X, Y in iproduct(hsets, hsets):
            graphs[id(X), id(Y)] = (checks._graph_morphisms(X, Y) if lawful_only
                                    else _tables(X, Y, rng))
    return {a: ALGEBRAS[a] for a in names}, corpus, graphs


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_families_match_the_frozen_loops(case):
    assert _run(checks._category_families, *case) == _run(frozen_category_families, *case)


@settings(max_examples=25, deadline=None)
@given(corpora(lawful_only=True))
def test_families_match_the_frozen_loops_on_lawful_graphs(case):
    got = _run(checks._category_families, *case)
    assert got == _run(frozen_category_families, *case)
    assert all(f[2] and all(f[2]) for f in got)


def _five_point_corpus(algebras, seed):
    """The corpus of `hset_law_suite` with H-sets of up to 5 points
    instead of 3, and its graph morphisms."""
    rng = random.Random(seed)
    corpus = {a: [checks._random_hset(A, rng, max_points=5) for _ in range(4)]
              for a, A in algebras.items()}
    graphs = {(id(X), id(Y)): checks._graph_morphisms(X, Y)
              for hsets in corpus.values() for X, Y in iproduct(hsets, hsets)}
    return corpus, graphs


def test_families_pass_on_five_point_corpora():
    corpus, graphs = _five_point_corpus(ALGEBRAS, checks.DEFAULT_SEED)
    assert max(len(X) for hsets in corpus.values() for X in hsets) == 5
    rep = checks.CheckReport("H-set category laws")
    checks._category_families(rep, ALGEBRAS, corpus, graphs)
    assert rep.ok
    assert all(f.checked for f in rep.families)


def test_function_predicate_grid_fits_at_five_points():
    # the largest grid of the family: two 5-point H-sets over boolean8
    A = ALGEBRAS["boolean8"]
    rng = random.Random(0)
    hsets = []
    while len(hsets) < 2:
        X = checks._random_hset(A, rng, max_points=5)
        if len(X) == 5:
            hsets.append(X)
    store = NameStore(A)
    ctx = EvalContext(store)
    columns = {"H": [hs.dagger_morphism(store, hs.identity(X)) for X in hsets],
               "X": [hs.dagger_hset(store, X) for X in hsets]}
    columns["Y"] = columns["X"]
    grid = _Grid(ctx, function_predicate(), list(columns), list(columns.values()))
    assert grid.predict(2) <= GRID_BUDGET
    fun = eval_grid(ctx, function_predicate(), columns)
    assert fun[0, 0, 0] == fun[1, 1, 1] == A.top


def _assert_graphs_match_the_whole_tables(X, Y):
    """`_graph_morphisms`, which decides pair restrictions, against every
    graph table X -> Y decided whole."""
    gs = np.array(list(iproduct(range(len(Y)), repeat=len(X))), dtype=np.intp)
    phis = Y.delta[gs].reshape(len(gs), len(X), len(Y))
    whole = phis[hs.morphism_law_masks(X.algebra, X.delta, Y.delta, phis)]
    got = checks._graph_morphisms(X, Y)
    assert all(m.source is X and m.target is Y for m in got)
    assert [m.phi.tolist() for m in got] == whole.tolist()
    return whole.tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2**32 - 1))
def test_graph_morphisms_match_the_whole_tables(aname, seed):
    # H-sets of up to 5 points, lawful or not
    A, rng = ALGEBRAS[aname], random.Random(seed)
    _assert_graphs_match_the_whole_tables(_hset(A, rng, False), _hset(A, rng, False))


def test_graph_morphisms_read_the_source_carrier_in_order():
    # delta_X(0, 1) != delta_X(1, 0): source congruence from x to y reads
    # delta_X(x, y), so the graph of g = (0, 1) is lawful one way only
    A = ALGEBRAS["chain3"]
    Y = hs.HSet(A, [0, 1], [[0, 0], [0, 1]])
    up, down = (_assert_graphs_match_the_whole_tables(hs.HSet(A, [0, 1], d), Y)
                for d in ([[0, 1], [0, 1]], [[0, 0], [1, 1]]))
    assert (up, down) == ([[[0, 0], [0, 1]]], [])


def test_graph_morphisms_budget_covers_the_restriction_stack():
    # 100^2 maps of 2 points are few, but the stack of restrictions to the
    # 3 pairs of source points has 3 * 100^2 candidates of 100 columns
    A = ALGEBRAS["chain2"]
    X = hs.HSet(A, range(2), np.full((2, 2), A.top))
    Y = hs.HSet(A, range(100), np.eye(100, dtype=np.int64))
    with pytest.raises(BudgetExceeded) as err:
        checks._graph_morphisms(X, Y)
    assert err.value.predicted == 3 * 100 ** 3 * 100
    assert err.value.budget == GRID_BUDGET
