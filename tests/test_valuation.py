r"""Valuation and formula-language tests.

Atomic values are cross-checked against the naive reference recursion in
oracles.py; the parser is checked for precedence ("->" binds loosest and
associates right, "\/" above it, "/\" above that, "~" tightest) and for
text round-trips.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import valuation
from hvmodels.checks import (
    counterexample_names,
    preservation_suite,
    standard_morphisms,
    valuation_property_suite,
)
from hvmodels.errors import (
    MAX_NESTING,
    BudgetExceeded,
    EmptyFragment,
    NotAFrame,
    ParseError,
    UnboundVariable,
    UnknownConstant,
)
from hvmodels.formula import (
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
    free_vars,
    is_positive_bounded,
    parse_formula,
    to_text,
)
from hvmodels.lattice import load_algebra, make_boolean, make_chain
from hvmodels.names import NameStore, enumerate_names, ordered_pair_h, pad_equivalent
from hvmodels.transfer import check_positive_bounded_preservation, lift
from hvmodels.valuation import EvalContext, eq_matrix, eval_grid, mem_matrix

from conftest import FIXTURES
from oracles import ref_eq, ref_mem, ref_ni

DIAMOND_ON_TOP = load_algebra(
    "elements: 0, a, b, ab, 1\nhasse: 0 < a\nhasse: 0 < b\n"
    "hasse: a < ab\nhasse: b < ab\nhasse: ab < 1\n", name="diamond_on_top")


# -- atomic values against the reference recursion ---------------------------


def _sample(pool, k):
    if len(pool) <= k:
        return list(pool)
    step = max(1, len(pool) // k)
    return list(pool[::step][:k])


def test_atomic_values_match_oracle(pools):
    budgets = {"chain2": 27, "chain3": 16, "four": 12}
    for name, (store, ctx, pool) in pools.items():
        sample = _sample(pool, budgets[name])
        for x in sample:
            for y in sample:
                assert ctx.atomic_eq(x, y) == ref_eq(store, x, y)
                assert ctx.atomic_mem(x, y) == ref_mem(store, x, y)
                assert ctx.atomic_ni(x, y) == ref_ni(store, x, y)


def test_memo_is_shared_across_queries(store3):
    ctx = EvalContext(store3)
    e = store3.intern({})
    u = store3.intern({e: 1})
    x = store3.intern({u: 2, e: 0})
    ctx.atomic_eq(x, u)
    # the recursive fill must have populated strictly smaller pairs
    assert (min(e, u), max(e, u)) in ctx._eq
    assert ctx.atomic_eq(u, x) == ctx.atomic_eq(x, u)


def test_matrix_helpers_agree_with_loops(store2):
    pool = enumerate_names(store2, max_rank=1)
    ctx = EvalContext(store2)
    E = eq_matrix(ctx, pool)
    M = mem_matrix(ctx, pool, pool)
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            assert E[i, j] == ctx.atomic_eq(x, y)
            assert M[i, j] == ctx.atomic_mem(x, y)
    assert (E == E.T).all()


# -- the array kernel behind eq_matrix / mem_matrix against the oracles -------


def _assert_matrices_match_oracle(store, rows, cols):
    """eq_matrix / mem_matrix on a fresh context equal the naive
    recursion cell by cell, and leave the context's memo empty."""
    ctx = EvalContext(store)
    E = eq_matrix(ctx, rows, cols)
    M = mem_matrix(ctx, rows, cols)
    assert E.shape == M.shape == (len(rows), len(cols))
    assert E.dtype == M.dtype == np.int64
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            assert E[i, j] == ref_eq(store, u, v)
            assert M[i, j] == ref_mem(store, u, v)
    assert not ctx._eq and not ctx._mem


def test_kernel_matches_oracle_on_the_shared_pools(pools):
    for store, _, pool in pools.values():
        sample = _sample(pool, 24)
        ctx = EvalContext(store)
        E, M = eq_matrix(ctx, pool), mem_matrix(ctx, pool)
        at = [pool.index(u) for u in sample]
        for i, u in zip(at, sample):
            for j, v in zip(at, sample):
                assert E[i, j] == ref_eq(store, u, v)
                assert M[i, j] == ref_mem(store, u, v)
        assert not ctx._eq and not ctx._mem
        _assert_matrices_match_oracle(store, sample[::2], sample[1::2])


def test_kernel_on_lift_images_that_are_not_downward_closed():
    # the images along f of a rank-2 pool over four, padded where two
    # children collide; neither the image list nor rows/cols below is
    # downward closed
    f = standard_morphisms()["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    pool = enumerate_names(sa, max_rank=2, max_domain=2)
    images = sorted({lift(f, x, sa, sb).image for x in pool[::7]}
                    | {lift(f, counterexample_names(sa), sa, sb).image})
    children = {k for u in images for k, _ in sb.entries(u)}
    w = sb.intern({sb.empty: f.target.bottom})
    assert pad_equivalent(sb, w, 1) in children
    assert not children <= set(images)
    _assert_matrices_match_oracle(sb, images, images)
    _assert_matrices_match_oracle(sb, images[::3], images[1::2])
    _assert_matrices_match_oracle(sb, [], images[:3])


def _fixture_frames():
    """Every frame among the `fixtures/*.alg` files (m3 is no frame)."""
    frames = []
    for path in sorted(FIXTURES.glob("*.alg")):
        try:
            frames.append(load_algebra(path.read_text(), name=f"fixture-{path.stem}"))
        except NotAFrame:
            continue
    return frames


# Birkhoff codes of every width: |J| = 1 (chain2) to 69 (the 70-chain,
# 9 bytes), through every built-in algebra (chain2, chain3, four),
# chain5, boolean8, the diamond on top, the fixture frames and the
# 12-chain (|J| = 11, 2 bytes)
ALGEBRAS = (make_chain(2), make_chain(3), make_boolean(2), make_chain(5), make_boolean(3),
            DIAMOND_ON_TOP, *_fixture_frames(), make_chain(12), make_chain(70))


@st.composite
def _names(draw):
    """A store over one of ALGEBRAS with up to a dozen hypothesis-built
    names, and row and column lists drawn from it (duplicates allowed)."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    store = NameStore(algebra)
    ids = [store.empty]
    for _ in range(draw(st.integers(1, 12))):
        kids = draw(st.lists(st.sampled_from(ids), max_size=3))
        vals = draw(st.lists(st.integers(0, algebra.n - 1),
                             min_size=len(kids), max_size=len(kids)))
        ids.append(store.intern(dict(zip(kids, vals))))
    rows = draw(st.lists(st.sampled_from(ids), max_size=6))
    cols = draw(st.lists(st.sampled_from(ids), max_size=6))
    return store, rows, cols


@settings(max_examples=80, deadline=None)
@given(_names())
def test_kernel_matches_oracle_on_generated_names(case):
    _assert_matrices_match_oracle(*case)


# -- the kernel itself: mutual inclusion by child-slot folds ---------------------


def _assert_kernel_matches_oracle(store, ids):
    """`_build_kernel(store, ids)` lays out exactly the downward closure
    of `ids`, its EQ and MEM, decoded, equal the naive recursion on every
    pair of it, and its K, V and sizes are the closure's `child_arrays`
    with V encoded; with folds in blocks of one row it builds the same
    arrays."""
    codes = store.algebra.codes
    pos, EQ, MEM, K, V, sizes = valuation._build_kernel(store, ids)
    nodes = sorted(pos, key=pos.get)
    K0, V0, sizes0 = valuation.child_arrays(store, nodes, pos, np.intp)
    assert np.array_equal(K, K0) and np.array_equal(sizes, sizes0)
    assert np.array_equal(V, codes.encode(V0))
    EQ, MEM = codes.decode(EQ), codes.decode(MEM)
    closure, stack = set(), list(ids)
    while stack:
        u = stack.pop()
        if u not in closure:
            closure.add(u)
            stack.extend(k for k, _ in store.entries(u))
    assert set(pos) == closure and sorted(pos.values()) == list(range(len(closure)))
    assert EQ.shape == MEM.shape == (len(closure), len(closure))
    for u, v in itertools.product(closure, repeat=2):
        assert EQ[pos[u], pos[v]] == ref_eq(store, u, v)
        assert MEM[pos[u], pos[v]] == ref_mem(store, u, v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(valuation, "FOLD_CELLS", 1)
        pos1, EQ1, MEM1 = valuation._build_kernel(store, ids)[:3]
    EQ1, MEM1 = codes.decode(EQ1), codes.decode(MEM1)
    assert pos1 == pos and np.array_equal(EQ1, EQ) and np.array_equal(MEM1, MEM)


@settings(max_examples=80, deadline=None)
@given(_names())
def test_kernel_arrays_match_oracle_on_generated_stores(case):
    store, rows, cols = case
    _assert_kernel_matches_oracle(store, rows + cols)


@pytest.mark.parametrize("algebra", ALGEBRAS,
                         ids=[f"{a.name}-J{len(a.join_irreducibles)}" for a in ALGEBRAS])
def test_kernel_arrays_match_oracle_at_every_code_width(algebra):
    # a seeded store of 16 names with up to 3 children each, valued over
    # the whole algebra, so every width of code is built and decoded
    rng = random.Random(algebra.n)
    store = NameStore(algebra)
    ids = [store.empty]
    for _ in range(16):
        kids = rng.sample(ids, rng.randint(0, min(3, len(ids))))
        ids.append(store.intern({k: rng.randrange(algebra.n) for k in kids}))
    _assert_kernel_matches_oracle(store, ids[-6:])


def test_kernel_cap_counts_the_bytes_of_the_codes(monkeypatch):
    # a 12-chain has 11 join-irreducibles, so a code is 2 bytes and the
    # kernel over n names needs 2 n^2 bytes; one byte per code below 9
    for algebra, width in ((make_chain(12), 2), (make_chain(9), 1)):
        store = NameStore(algebra)
        e = store.empty
        x = store.intern({store.intern({e: 1}): 3, e: 2})  # closure of 3 names
        assert algebra.codes.width == width
        monkeypatch.setattr(valuation, "GRID_BUDGET", 9 * width - 1)
        with pytest.raises(BudgetExceeded) as err:
            valuation._build_kernel(store, [x])
        assert (err.value.predicted, err.value.budget) == (9 * width, 9 * width - 1)
        monkeypatch.setattr(valuation, "GRID_BUDGET", 9 * width)
        _assert_kernel_matches_oracle(store, [x])
    # the property suite predicts the same bytes before it enumerates:
    # 13 names of rank <= 1 over the 12-chain
    monkeypatch.setattr(valuation, "GRID_BUDGET", 2 * 13 * 13 - 1)
    with pytest.raises(BudgetExceeded) as err:
        valuation_property_suite(make_chain(12), rank=1)
    assert err.value.predicted == 2 * 13 * 13


def test_kernel_arrays_pad_mixed_domain_widths(store3):
    # widths 0 to 4, mixed within the levels of rank 2 and 3, so most
    # rows of the child layout end in padding
    e = store3.empty
    a = store3.intern({e: 1})
    b = store3.intern({e: 2, a: 1})
    c = store3.intern({a: 2})
    d = store3.intern({e: 0, a: 2, b: 1, c: 2})
    x = store3.intern({d: 1, a: 2})
    y = store3.intern({b: 2, c: 1, d: 2, e: 1})
    _assert_kernel_matches_oracle(store3, [x, y, c])


def test_kernel_arrays_on_lift_images_with_equivalence_pads():
    f = standard_morphisms()["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    pool = enumerate_names(sa, max_rank=2, max_domain=2)
    images = {lift(f, x, sa, sb).image for x in pool[::11]}
    images.add(lift(f, counterexample_names(sa), sa, sb).image)
    w = sb.intern({sb.empty: f.target.bottom})
    assert pad_equivalent(sb, w, 1) in {k for u in images for k, _ in sb.entries(u)}
    _assert_kernel_matches_oracle(sb, sorted(images))


def test_kernel_arrays_of_the_empty_name_and_of_no_name(store3):
    A = store3.algebra
    decode = A.codes.decode
    pos, EQ, MEM = valuation._build_kernel(store3, [store3.empty])[:3]
    assert pos == {store3.empty: 0}
    assert decode(EQ).tolist() == [[A.top]] and decode(MEM).tolist() == [[A.bottom]]
    _assert_kernel_matches_oracle(store3, [store3.empty])
    pos, EQ, MEM = valuation._build_kernel(store3, [])[:3]
    assert pos == {} and decode(EQ).shape == decode(MEM).shape == (0, 0)


@settings(max_examples=80, deadline=None)
@given(_names(), st.integers(0, 2 ** 16))
def test_child_arrays_reproduce_the_entries(case, seed):
    store, rows, _ = case
    # positions are any map of the children; here a seeded shuffle
    order = list(range(len(store)))
    np.random.default_rng(seed).shuffle(order)
    pos = dict(enumerate(order))
    dtype = np.min_scalar_type(store.algebra.n - 1)
    K, V, sizes = valuation.child_arrays(store, rows, pos, dtype)
    width = max((len(store.entries(u)) for u in rows), default=0)
    assert K.shape == V.shape == (len(rows), width)
    assert V.dtype == dtype and K.dtype == np.intp
    assert sizes.tolist() == [len(store.entries(u)) for u in rows]
    for p, u in enumerate(rows):
        entries, size = store.entries(u), sizes[p]
        assert K[p, :size].tolist() == [pos[k] for k, _ in entries]
        assert V[p, :size].tolist() == [v for _, v in entries]
        assert (K[p, size:] == 0).all()
        assert (V[p, size:] == store.algebra.bottom).all()


# -- one kernel per context ----------------------------------------------------


def _count_builds(monkeypatch):
    """The id lists the kernel is built over, one per build."""
    builds = []
    build = valuation._build_kernel

    def counted(store, ids):
        builds.append(sorted(ids))
        return build(store, ids)

    monkeypatch.setattr(valuation, "_build_kernel", counted)
    return builds


GRID_FORMULA = parse_formula("exists w in Y . X = w \\/ X in w", free=("X", "Y"))


def test_one_kernel_serves_a_pool_until_a_new_name(four, monkeypatch):
    builds = _count_builds(monkeypatch)
    store = NameStore(four)
    pool = enumerate_names(store, max_rank=2, max_domain=2)
    ctx = EvalContext(store)
    eq_matrix(ctx, pool)
    mem_matrix(ctx, pool)
    eval_grid(ctx, GRID_FORMULA, {"X": pool, "Y": pool[::5]})
    eq_matrix(ctx, pool[::3], pool[1::4])
    assert len(builds) == 1
    # a name interned after the build lies outside the kept closure
    x = store.intern({pool[-1]: four.top, pool[-2]: 1})
    rows, cols = [x, *pool[::40]], [x, *pool[7::50]]
    E, M = eq_matrix(ctx, rows, cols), mem_matrix(ctx, rows, cols)
    assert len(builds) == 2 and x in builds[1]
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            assert E[i, j] == ref_eq(store, u, v)
            assert M[i, j] == ref_mem(store, u, v)
    assert not ctx._eq and not ctx._mem


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interleaved_requests_match_fresh_contexts(data):
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    store = NameStore(algebra)
    ids = [store.empty]
    ctx = EvalContext(store)
    for _ in range(data.draw(st.integers(1, 10))):
        step = data.draw(st.sampled_from(("intern", "eq", "mem", "grid")))
        if step == "intern":
            kids = data.draw(st.lists(st.sampled_from(ids), max_size=3))
            vals = data.draw(st.lists(st.integers(0, algebra.n - 1),
                                      min_size=len(kids), max_size=len(kids)))
            ids.append(store.intern(dict(zip(kids, vals))))
            continue
        rows = data.draw(st.lists(st.sampled_from(ids), max_size=5))
        cols = data.draw(st.lists(st.sampled_from(ids), max_size=5))
        request = {
            "eq": lambda c: eq_matrix(c, rows, cols),
            "mem": lambda c: mem_matrix(c, rows, cols),
            "grid": lambda c: eval_grid(c, GRID_FORMULA, {"X": rows, "Y": cols}),
        }[step]
        assert np.array_equal(request(ctx), request(EvalContext(store)))


def test_kernel_budget_is_checked_before_building(store3, monkeypatch):
    e = store3.empty
    u = store3.intern({e: 1})
    x = store3.intern({u: 2, e: 0})  # closure {e, u, x}: 9 cells
    ctx = EvalContext(store3)
    monkeypatch.setattr(valuation, "GRID_BUDGET", 8)
    with pytest.raises(BudgetExceeded) as err:
        eq_matrix(ctx, [x])
    assert (err.value.predicted, err.value.budget) == (9, 8)
    assert ctx._kernel is None
    monkeypatch.setattr(valuation, "GRID_BUDGET", 9)
    assert eq_matrix(ctx, [x])[0, 0] == store3.algebra.top


def test_suites_build_one_kernel_per_context(monkeypatch):
    builds = _count_builds(monkeypatch)
    valuation_property_suite(make_chain(3))
    assert len(builds) == 1
    builds.clear()
    preservation_suite()
    assert len(builds) == 8  # one per side of each of the four morphisms


# -- parser ------------------------------------------------------------------

FREE = ("a", "b", "c", "X", "Y")


def P(text):
    return parse_formula(text, free=FREE)


def test_implication_associates_right():
    assert P("a = a -> b = b -> c = c") == Implies(
        Eq(Var("a"), Var("a")),
        Implies(Eq(Var("b"), Var("b")), Eq(Var("c"), Var("c"))),
    )


def test_connective_precedence():
    na = Not(Eq(Var("a"), Var("a")))
    bc = And(Member(Var("b"), Var("X")), Member(Var("c"), Var("X")))
    assert P("~a = a \\/ b in X /\\ c in X") == Or(na, bc)
    assert P("a in X /\\ b in X \\/ c in X") == Or(
        And(Member(Var("a"), Var("X")), Member(Var("b"), Var("X"))),
        Member(Var("c"), Var("X")),
    )
    assert P("a in X \\/ b in X -> c in X") == Implies(
        Or(Member(Var("a"), Var("X")), Member(Var("b"), Var("X"))),
        Member(Var("c"), Var("X")),
    )


def test_quantifier_body_extends_right():
    phi = P("forall u in X . u in Y /\\ u = u")
    assert phi == BForall(
        "u",
        Var("X"),
        And(Member(Var("u"), Var("Y")), Eq(Var("u"), Var("u"))),
    )
    psi = P("exists u . forall v in X . u = v")
    assert psi == UExists("u", BForall("v", Var("X"), Eq(Var("u"), Var("v"))))


def test_parens_override_precedence():
    assert P("(a in X \\/ b in X) /\\ c in X") == And(
        Or(Member(Var("a"), Var("X")), Member(Var("b"), Var("X"))),
        Member(Var("c"), Var("X")),
    )


def test_constants_resolve_to_name_ids(store3):
    e = store3.intern({})
    phi = parse_formula("e in X", constants={"e": e}, free=("X",))
    assert phi == Member(Const(e, "e"), Var("X"))


def test_scope_shadows_constants(store3):
    e = store3.intern({})
    phi = parse_formula("forall e in X . e = e", constants={"e": e}, free=("X",))
    assert phi.body == Eq(Var("e"), Var("e"))


def test_parse_errors():
    with pytest.raises(UnknownConstant):
        parse_formula("mystery in X", free=("X",))
    with pytest.raises(ParseError) as err:
        parse_formula("a = a \\/", free=("a",))
    assert err.value.column is not None
    with pytest.raises(ParseError):
        parse_formula("a = a b = b", free=("a", "b"))
    with pytest.raises(ParseError):
        parse_formula("forall . a = a", free=("a",))
    with pytest.raises(ParseError):
        parse_formula("a ? a", free=("a",))
    with pytest.raises(ParseError):
        parse_formula("(a = a", free=("a",))


def test_free_vars_and_positivity():
    phi = P("forall u in X . u in Y \\/ (exists v in X . u = v)")
    assert free_vars(phi) == {"X", "Y"}
    assert is_positive_bounded(phi)
    assert not is_positive_bounded(P("~a = a"))
    assert not is_positive_bounded(P("a = a -> b = b"))
    assert not is_positive_bounded(parse_formula("exists u . u in X", free=("X",)))


# -- text round-trip ----------------------------------------------------------

_vars = st.sampled_from(["a", "b", "X"])


def _terms():
    return st.builds(Var, _vars)


def _formulas(depth=3):
    atoms = st.one_of(
        st.builds(Eq, _terms(), _terms()),
        st.builds(Member, _terms(), _terms()),
    )
    if depth == 0:
        return atoms
    sub = _formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(BForall, st.just("u"), _terms(), sub),
        st.builds(BExists, st.just("u"), _terms(), sub),
        st.builds(UForall, st.just("w"), sub),
        st.builds(UExists, st.just("w"), sub),
    )


@settings(max_examples=120, deadline=None)
@given(_formulas())
def test_to_text_parse_roundtrip(phi):
    assert parse_formula(to_text(phi), free=("a", "b", "X")) == phi


# -- evaluation errors ---------------------------------------------------------


def test_eval_error_paths(store3):
    ctx = EvalContext(store3)
    e = store3.intern({})
    with pytest.raises(UnboundVariable):
        ctx.eval(Eq(Var("a"), Var("a")))
    with pytest.raises(EmptyFragment):
        ctx.eval(UForall("u", Eq(Var("u"), Var("u"))))
    with pytest.raises(EmptyFragment):
        ctx.eval(UExists("u", Eq(Var("u"), Var("u"))))
    frag = EvalContext(store3, fragment=[e])
    assert frag.eval(UExists("u", Eq(Var("u"), Const(e)))) == store3.algebra.top


def _tower(wrap, height):
    phi = Eq(Var("x"), Var("x"))
    for _ in range(height):
        phi = wrap(phi)
    return phi


def test_built_formulas_above_the_nesting_cap_are_a_budget_error(store3):
    # a built formula has no parser in front of it; 5,000 levels would
    # overflow the recursion of every evaluator
    ctx = EvalContext(store3)
    sigma = {"x": store3.empty}
    at_cap = _tower(Not, MAX_NESTING)
    assert ctx.eval(at_cap, sigma) == store3.algebra.top
    assert eval_grid(ctx, at_cap, {"x": [store3.empty]}).tolist() == [store3.algebra.top]
    deep = _tower(Not, 5000)
    positive = _tower(lambda phi: And(phi, Eq(Var("x"), Var("x"))), 5000)
    f = standard_morphisms()["collapse0"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    for call in (lambda: ctx.eval(deep, sigma),
                 lambda: ctx.models(deep, sigma),
                 lambda: eval_grid(ctx, deep, {"x": [store3.empty]}),
                 lambda: check_positive_bounded_preservation(
                     f, positive, [(sa.empty, sb.empty)], EvalContext(sa), EvalContext(sb))):
        with pytest.raises(BudgetExceeded) as err:
            call()
        assert (err.value.predicted, err.value.budget) == (5000, MAX_NESTING)
    with pytest.raises(BudgetExceeded):
        ctx.eval(_tower(Not, MAX_NESTING + 1), sigma)


def test_formula_helpers_refuse_towers_above_the_nesting_cap():
    # each helper recurses once per level below its height check
    at_cap = _tower(Not, MAX_NESTING)
    assert free_vars(at_cap) == {"x"}
    assert not is_positive_bounded(at_cap)
    assert to_text(at_cap) == "~" * MAX_NESTING + "x = x"
    positive = _tower(lambda phi: And(phi, Eq(Var("x"), Var("x"))), MAX_NESTING)
    assert is_positive_bounded(positive)
    for deep in (_tower(Not, 5000),
                 _tower(lambda phi: And(phi, Eq(Var("x"), Var("x"))), 5000)):
        for helper in (free_vars, is_positive_bounded, to_text):
            with pytest.raises(BudgetExceeded) as err:
                helper(deep)
            assert (err.value.predicted, err.value.budget) == (5000, MAX_NESTING)


# -- soundness of the intuitionistic propositional laws -------------------------

# each schema maps formula slots to a compound that must carry value top
SCHEMAS = [
    ("K", 2, lambda a, b: Implies(a, Implies(b, a))),
    ("S", 3, lambda a, b, c: Implies(
        Implies(a, Implies(b, c)),
        Implies(Implies(a, b), Implies(a, c)))),
    ("and-left", 2, lambda a, b: Implies(And(a, b), a)),
    ("and-right", 2, lambda a, b: Implies(And(a, b), b)),
    ("and-intro", 2, lambda a, b: Implies(a, Implies(b, And(a, b)))),
    ("or-left", 2, lambda a, b: Implies(a, Or(a, b))),
    ("or-right", 2, lambda a, b: Implies(b, Or(a, b))),
    ("or-elim", 3, lambda a, b, c: Implies(
        Implies(a, c), Implies(Implies(b, c), Implies(Or(a, b), c)))),
    ("neg-intro", 2, lambda a, b: Implies(
        Implies(a, b), Implies(Implies(a, Not(b)), Not(a)))),
    ("explosion", 2, lambda a, b: Implies(Not(a), Implies(a, b))),
    ("double-neg", 1, lambda a: Implies(a, Not(Not(a)))),
    ("contrapose", 2, lambda a, b: Implies(Implies(a, b), Implies(Not(b), Not(a)))),
]


def _atoms_covering_algebra(store):
    """One atomic formula per algebra element, with exactly that value."""
    e = store.intern({})
    out = []
    for v in range(store.algebra.n):
        holder = store.intern({e: v})
        out.append(Member(Const(e), Const(holder)))
    return out


@pytest.mark.parametrize("label,arity,schema", SCHEMAS, ids=[s[0] for s in SCHEMAS])
def test_intuitionistic_schemas_hold(label, arity, schema, algebras):
    for algebra in algebras.values():
        store = NameStore(algebra)
        ctx = EvalContext(store)
        atoms = _atoms_covering_algebra(store)
        for slots in itertools.product(atoms, repeat=arity):
            phi = schema(*slots)
            assert ctx.eval(phi) == algebra.top, (label, algebra.name)


def test_atoms_cover_every_value(algebras):
    for algebra in algebras.values():
        store = NameStore(algebra)
        ctx = EvalContext(store)
        assert [ctx.eval(a) for a in _atoms_covering_algebra(store)] == list(
            range(algebra.n)
        )


def test_peirce_fails_on_the_chain_and_holds_boolean(chain3, four):
    def peirce(a, b):
        return Implies(Implies(Implies(a, b), a), a)

    store = NameStore(chain3)
    ctx = EvalContext(store)
    e = store.intern({})
    a = Member(Const(e), Const(store.intern({e: 1})))  # value m
    b = Member(Const(e), Const(e))  # value 0
    assert ctx.eval(peirce(a, b)) == 1  # the middle element, not top

    bstore = NameStore(four)
    bctx = EvalContext(bstore)
    for a, b in itertools.product(_atoms_covering_algebra(bstore), repeat=2):
        assert bctx.eval(peirce(a, b)) == four.top


# -- ordered pairs -------------------------------------------------------------


@pytest.mark.parametrize("size", [2, 3])
def test_ordered_pair_equality_law(size):
    store = NameStore(make_chain(size))
    ctx = EvalContext(store)
    pool = enumerate_names(store, max_rank=1)
    mt = store.algebra.meet_table
    for u, v, up, vp in itertools.product(pool, repeat=4):
        lhs = ctx.atomic_eq(
            ordered_pair_h(store, u, v), ordered_pair_h(store, up, vp)
        )
        rhs = mt[ctx.atomic_eq(u, up), ctx.atomic_eq(v, vp)]
        assert lhs == rhs, (u, v, up, vp)


# -- unbounded vs bounded agreement ---------------------------------------------


def test_fragment_evaluation_is_exact_for_bounded_ranges(store3):
    pool = enumerate_names(store3, max_rank=2, max_domain=2)
    ctx = EvalContext(store3, fragment=pool)
    inner = Member(Var("u"), Var("Y"))
    jt = store3.algebra.join_table
    mt = store3.algebra.meet_table
    it = store3.algebra.impl_table
    for x in pool[::7]:
        for y in pool[::11]:
            sigma = {"X": x, "Y": y}
            # exists u in X . u in Y  ==  relativised unbounded exists
            bound = ctx.eval(BExists("u", Var("X"), inner), sigma)
            guard = UExists("u", And(Member(Var("u"), Var("X")), inner))
            assert ctx.eval(guard, sigma) == bound
            bound = ctx.eval(BForall("u", Var("X"), inner), sigma)
            guard = UForall("u", Implies(Member(Var("u"), Var("X")), inner))
            assert ctx.eval(guard, sigma) == bound
