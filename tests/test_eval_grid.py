r"""`valuation.eval_grid` against per-assignment `EvalContext.eval`.

The grid path evaluates a formula for every assignment of its columns at
once; the interpreter, one assignment at a time, is the reference.  The
formulas are the preservation family, the bounded and unbounded forms of
the valuation laws 10 and 11, negation and implication, the
function predicate on dagger names, and hypothesis-generated formulas
over hypothesis-built stores.  Errors must match the interpreter's,
raised for the same assignment.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import hset as hs
from hvmodels import valuation
from hvmodels.checks import (
    DEFAULT_SEED,
    POSITIVE_BOUNDED_FAMILY,
    _random_hset,
    preservation_suite,
    test_algebras as builtin_test_algebras,
)
from hvmodels.errors import BudgetExceeded, EmptyFragment, UnboundVariable
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
    _walk as formula_walk,
    parse_formula,
)
from hvmodels.lattice import make_chain
from hvmodels.names import _PAIR, NameStore, enumerate_names, function_predicate
from hvmodels.valuation import EvalContext, eval_grid, grid_codes

from test_valuation import ALGEBRAS


def _per_assignment(ctx, phi, columns):
    """Row-major values from `eval`, or the first error it raises."""
    names = list(columns)
    ref = EvalContext(ctx.store, ctx.fragment)
    values = [ref.eval(phi, dict(zip(names, point)))
              for point in itertools.product(*columns.values())]
    return np.array(values, dtype=np.int64).reshape([len(c) for c in columns.values()])


def _assert_agrees(ctx, phi, columns):
    try:
        expected = _per_assignment(ctx, phi, columns)
    except Exception as ex:  # the grid must raise the same error
        with pytest.raises(type(ex)) as got:
            eval_grid(ctx, phi, columns)
        assert str(got.value) == str(ex)
        return None
    out = eval_grid(ctx, phi, columns)
    assert out.dtype == np.int64 and out.shape == expected.shape
    np.testing.assert_array_equal(out, expected)
    return out


FORMS_10_11 = (
    "exists u in X . u in Z",
    "exists u . u in X /\\ u in Z",
    "forall u in X . u in Z",
    "forall u . u in X -> u in Z",
)


def test_preservation_family_and_connectives(pools):
    texts = POSITIVE_BOUNDED_FAMILY + (
        "~(X in Y)", "X in Y -> Y = X", "~~(exists u in X . u = Y) \\/ X = X")
    for store, ctx, pool in pools.values():
        cols = {"X": pool[::3], "Y": pool[1::4]}
        for text in texts:
            _assert_agrees(ctx, parse_formula(text, free=("X", "Y")), cols)


def test_valuation_law_forms_over_a_fragment(pools):
    for store, _, pool in pools.values():
        ctx = EvalContext(store, fragment=pool[::2])
        cols = {"X": pool[::5], "Z": pool[::4]}
        for text in FORMS_10_11:
            _assert_agrees(ctx, parse_formula(text, free=("X", "Z")), cols)


def test_function_predicate_on_dagger_names():
    algebras = builtin_test_algebras()
    for seed in (DEFAULT_SEED, 28, 52):
        rng = random.Random(seed)
        corpus = {a: [_random_hset(A, rng) for _ in range(4)] for a, A in algebras.items()}
        for aname, algebra in algebras.items():
            store = NameStore(algebra)
            ctx = EvalContext(store)
            # the dagger names of two H-sets, crossed: each identity's
            # dagger is a function on its own H-set's dagger
            hsets = corpus[aname][:2]
            funs = [hs.dagger_morphism(store, hs.identity(X)) for X in hsets]
            xs = [hs.dagger_hset(store, X) for X in hsets]
            out = _assert_agrees(ctx, function_predicate(), {"H": funs, "X": xs, "Y": xs})
            assert out.shape == (2, 2, 2)
            assert out[0, 0, 0] == out[1, 1, 1] == algebra.top


# -- edge cases ------------------------------------------------------------------


def _chain3_names():
    store = NameStore(make_chain(3))
    e = store.empty
    u = store.intern({e: 1})
    v = store.intern({e: 2, u: 1})
    w = store.intern({u: 2, v: 1})
    return store, [e, u, v, w]


def test_bound_with_an_empty_domain():
    store, names = _chain3_names()
    ctx = EvalContext(store)
    empty = [store.empty, store.empty]
    for text in ("forall u in X . u in Y", "exists u in X . u in Y",
                 "exists u in X . forall v in u . v = Y",
                 "forall u in Y . exists v in u . exists w in v . w = X"):
        phi = parse_formula(text, free=("X", "Y"))
        _assert_agrees(ctx, phi, {"X": empty, "Y": names})
        _assert_agrees(ctx, phi, {"X": names, "Y": empty})


def test_unreached_body_is_not_an_error(monkeypatch):
    # the body is never reached, so its unbound variable raises nothing,
    # and the grid is evaluated without falling back to `eval`
    store, names = _chain3_names()
    monkeypatch.setattr(EvalContext, "eval", None)
    phi = parse_formula("exists v in Y . forall u in X . u in Z", free=("X", "Y", "Z"))
    empty = [store.empty, store.empty]
    out = eval_grid(EvalContext(store), phi, {"X": empty, "Y": names})
    # the join of the values of each Y, as the body is top
    np.testing.assert_array_equal(out, [[0, 1, 2, 2]] * 2)


def test_shadowed_variable_and_repeated_variable():
    store, names = _chain3_names()
    ctx = EvalContext(store)
    cols = {"X": names, "Y": names[::-1]}
    for text in ("exists X in Y . X in X", "X = X", "X in X",
                 "forall u in X . exists u in u . u = X",
                 "(exists X in Y . X = Y) /\\ X in Y",
                 "forall u in X . u in X"):
        _assert_agrees(ctx, parse_formula(text, free=("X", "Y")), cols)


def test_unused_column_is_a_broadcast_axis():
    store, names = _chain3_names()
    ctx = EvalContext(store)
    phi = parse_formula("exists u in X . u = Y", free=("X", "Y"))
    wide = _assert_agrees(ctx, phi, {"Z": names[:3], "X": names, "Y": names})
    narrow = eval_grid(ctx, phi, {"X": names, "Y": names})
    assert wide.shape == (3, 4, 4)
    for row in wide:
        np.testing.assert_array_equal(row, narrow)


def test_closed_formula_and_empty_grid():
    store, names = _chain3_names()
    ctx = EvalContext(store)
    c = {f"n{i}": nid for i, nid in enumerate(names)}
    phi = parse_formula("forall u in n3 . exists v in n2 . u = v", constants=c)
    out = _assert_agrees(ctx, phi, {})
    assert out.shape == ()
    empty = eval_grid(ctx, parse_formula("X in Y", free=("X", "Y")), {"X": [], "Y": names})
    assert empty.shape == (0, 4)


def test_error_parity():
    store, names = _chain3_names()
    bare = EvalContext(store)
    cases = [
        ("X in Z", {"X": names}),                              # Z unbound
        ("exists w . w in X", {"X": names}),                   # no fragment
        ("X = X /\\ (forall w . w in X)", {"X": names}),
        ("(forall u in X . Z = Z) \\/ (exists w . w = X)", {"X": names}),
        ("(forall u in X . Z = Z) \\/ (exists w . w = X)", {"X": names[::-1]}),
        ("forall u in X . Z = Z", {"X": names}),
    ]
    for text, cols in cases:
        _assert_agrees(bare, parse_formula(text, free=("X", "Z")), cols)
    with pytest.raises(UnboundVariable):
        eval_grid(bare, parse_formula("X in Z", free=("X", "Z")), {"X": names})
    with pytest.raises(EmptyFragment):
        eval_grid(bare, parse_formula("exists w . w in X", free=("X",)), {"X": names})
    # with a fragment the unbounded forms evaluate
    ctx = EvalContext(store, fragment=names)
    _assert_agrees(ctx, parse_formula("X = X /\\ (forall w . w in X)", free=("X",)),
                   {"X": names})


def test_memo_is_not_written(pools):
    store, _, pool = pools["four"]
    ctx = EvalContext(store)
    eval_grid(ctx, parse_formula(POSITIVE_BOUNDED_FAMILY[4], free=("X", "Y")),
              {"X": pool, "Y": pool})
    assert not ctx._eq and not ctx._mem


def test_blocked_evaluation_matches_unblocked(pools, monkeypatch):
    store, ctx, pool = pools["chain3"]
    cols = {"X": pool, "Y": pool[::2], "Z": pool[::9]}
    runs = []
    real_run = valuation._Grid.run

    def counting_run(self, block):
        runs.append(block)
        step = runs[0].stop - runs[0].start
        # every block is as large as the budget allows
        assert self.predict(step) <= 200 < self.predict(step + 1)
        return real_run(self, block)

    for text in POSITIVE_BOUNDED_FAMILY + FORMS_10_11[::2]:
        phi = parse_formula(text, free=("X", "Y", "Z"))
        whole = eval_grid(ctx, phi, cols)
        monkeypatch.setattr(valuation._Grid, "run", counting_run)
        monkeypatch.setattr(valuation, "GRID_BUDGET", 200)
        runs.clear()
        np.testing.assert_array_equal(eval_grid(ctx, phi, cols), whole)
        assert len(runs) > 1, text
        assert all(b.stop - b.start == runs[0].stop - runs[0].start for b in runs[:-1])
        monkeypatch.undo()


def test_id_errors_match_eval():
    # bool ids are ints to `NameStore.check_id`, so the grid computes
    # them; np.int64, negative and out-of-range ids make both raise
    store, names = _chain3_names()
    ctx = EvalContext(store)
    phi = parse_formula("exists u in X . u in Y", free=("X", "Y"))
    cols = {"X": names, "Y": names}
    for bad in (True, False, np.int64(1), -1, len(store), 10 ** 30):
        for column in ("X", "Y"):
            grid_cols = {**cols, column: [*names[:2], bad]}
            grid = valuation._Grid(ctx, phi, list(grid_cols), list(grid_cols.values()))
            assert grid.risky is not isinstance(bad, bool)
            _assert_agrees(ctx, phi, grid_cols)
    out = _assert_agrees(ctx, phi, {"X": [True, 1], "Y": [False, 0]})
    assert out[0].tolist() == out[1].tolist()


def test_budget_counts_the_bytes_of_wider_codes(monkeypatch):
    # a 12-chain has 11 join-irreducibles, so a grid cell is a two-byte
    # code and the budget is tighter; below 9 a cell is one byte
    for algebra, width, unit in ((make_chain(12), 2, "byte"), (make_chain(9), 1, "cell")):
        store = NameStore(algebra)
        names = [store.empty]
        for v in (1, 5, 8):
            names.append(store.intern({names[-1]: v, store.empty: v // 2}))
        ctx = EvalContext(store)
        phi = parse_formula("forall u in X . u in Y", free=("X", "Y"))
        cols = {"X": names, "Y": names}
        whole = eval_grid(ctx, phi, cols)  # builds the kernel before the budget shrinks
        # at one row of X the largest node is u in Y, 3 children by 4 names
        row = 3 * 4 * width
        monkeypatch.setattr(valuation, "GRID_BUDGET", row - 1)
        with pytest.raises(BudgetExceeded) as err:
            eval_grid(ctx, phi, cols)
        assert (err.value.predicted, err.value.budget) == (row, row - 1)
        assert str(err.value) == (f"the formula needs an array of {row} {unit}s for one "
                                  f"row of its first column, over the {row - 1}-{unit} budget")
        runs = []
        real_run = valuation._Grid.run
        monkeypatch.setattr(valuation._Grid, "run",
                            lambda self, block: runs.append(block) or real_run(self, block))
        # the whole grid's 4 x 4 root is over 14 cells; blocks of 3 rows fit
        monkeypatch.setattr(valuation, "GRID_BUDGET", 14 * width)
        np.testing.assert_array_equal(eval_grid(ctx, phi, cols), whole)
        assert [(b.start, b.stop) for b in runs] == [(0, 3), (3, 6)]
        monkeypatch.undo()


def test_one_row_over_budget_raises(pools, monkeypatch):
    store, ctx, pool = pools["chain3"]
    monkeypatch.setattr(valuation, "GRID_BUDGET", 10)
    phi = parse_formula("X in Y", free=("X", "Y"))
    with pytest.raises(BudgetExceeded) as err:
        eval_grid(ctx, phi, {"X": pool, "Y": pool})
    assert err.value.predicted == len(pool) and err.value.budget == 10
    closed = parse_formula("forall u in c . u = u", constants={"c": pool[-1]})
    with pytest.raises(BudgetExceeded):
        monkeypatch.setattr(valuation, "GRID_BUDGET", 0)
        eval_grid(ctx, closed, {})


def test_closed_formula_counts_every_axis(monkeypatch):
    # with no column, axis 0 is the first quantifier's, not a row of a
    # column, so it counts at its full size: u = v /\\ v = w spans all
    # three 13-name fragment axes, as it does beside a one-name column
    store = NameStore(make_chain(3))
    pool = enumerate_names(store, 2, 1)
    assert len(pool) == 13
    ctx = EvalContext(store, fragment=pool)
    phi = parse_formula("forall u . forall v . forall w . u = v /\\ v = w")
    monkeypatch.setattr(valuation, "GRID_BUDGET", 1000)
    for columns in ({}, {"X": pool[:1]}):
        with pytest.raises(BudgetExceeded) as err:
            eval_grid(ctx, phi, columns)
        assert (err.value.predicted, err.value.budget) == (13 ** 3, 1000)
    monkeypatch.undo()
    assert eval_grid(ctx, phi, {}) == _per_assignment(ctx, phi, {})


# -- generated formulas over generated stores ------------------------------------

_BOUND = ("u", "v")


@st.composite
def _cases(draw):
    """A store over one of the `ALGEBRAS` of the kernel tests, whose
    Birkhoff codes are 1 to 9 bytes wide (|J| = 1 to 69), with up to ten
    hypothesis-built names, columns for a, b
    and X drawn from them in some order, a fragment (sometimes empty),
    and a formula over those variables, two bound ones, and constants
    of the store."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    store = NameStore(algebra)
    ids = [store.empty]
    for _ in range(draw(st.integers(1, 10))):
        kids = draw(st.lists(st.sampled_from(ids), max_size=3))
        vals = draw(st.lists(st.integers(0, algebra.n - 1),
                             min_size=len(kids), max_size=len(kids)))
        ids.append(store.intern(dict(zip(kids, vals))))
    names = draw(st.permutations(["a", "b", "X"]))
    columns = {v: draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
               for v in names}
    # an empty fragment makes the unbounded quantifiers raise
    fragment = draw(st.lists(st.sampled_from(ids), max_size=4))
    terms = st.one_of(st.builds(Var, st.sampled_from(["a", "b", "X", *_BOUND])),
                      st.builds(Const, st.sampled_from(ids)))
    atoms = st.one_of(st.builds(Eq, terms, terms), st.builds(Member, terms, terms))
    bound = st.sampled_from(_BOUND)
    phi = draw(st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(BForall, bound, terms, sub),
        st.builds(BExists, bound, terms, sub),
        st.builds(UForall, bound, sub),
        st.builds(UExists, bound, sub),
    ), max_leaves=8))
    return EvalContext(store, fragment=fragment), phi, columns


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_generated_formulas_match_eval(case):
    _assert_agrees(*case)


# -- batches: grid_codes against one formula at a time ---------------------------


def _pair(p, u, v):
    """`names._PAIR` with its variables renamed."""
    return parse_formula(_PAIR.format(p=p, u=u, v=v), free=("a", "b", "X", p, u, v))


# formulas every batch may draw besides the generated ones: a recurring
# subformula, one text on other axes, `_PAIR` under renamed variables,
# shadowing, and an unbounded quantifier, which is risky when the
# fragment is empty
_FIXED = (
    "(exists u in X . u in a) /\\ (exists u in X . u in a) \\/ (forall v in b . v = a)",
    "(exists u in X . u in a) /\\ (forall u in b . u in a)",
    "forall u in X . (exists v in X . v = u) /\\ (forall u in a . exists v in X . v = u)",
    "exists u in X . forall u in u . forall v in X . u in v \\/ v = a",
    "forall u in X . forall u in u . u = a",
    "forall u in X . exists v in X . u = v /\\ (forall u in v . u in a)",
    "forall u . u in X -> (exists v in u . v = a)",
)
_PAIRS = (("X", "a", "b"), ("X", "b", "a"), ("a", "b", "b"), ("b", "X", "a"))
# an unbound variable, which raises wherever it is reached
_RISKY = "exists u in X . Z in u"


@st.composite
def _batches(draw):
    """A context, columns and a batch of one to five formulas from
    `_cases`, `_FIXED`, renamed `_PAIR`s and the case itself, sometimes
    with the risky formula at a drawn position."""
    ctx, phi, columns = draw(_cases())
    ids = sorted({u for col in columns.values() for u in col} | set(ctx.fragment))
    fixed = st.one_of(
        st.sampled_from(_FIXED).map(lambda t: parse_formula(t, free=("a", "b", "X"))),
        st.sampled_from(_PAIRS).map(lambda p: _pair(*p)),
        st.builds(lambda t, c: parse_formula(t, free=("a", "b", "X"), constants={"c": c}),
                  st.sampled_from(("c in X /\\ (forall u in c . u = a)", "exists u in c . u = u")),
                  st.sampled_from(ids)),
    )
    phis = draw(st.lists(st.one_of(fixed, st.just(phi)), min_size=1, max_size=4))
    if draw(st.booleans()):
        phis.insert(draw(st.integers(0, len(phis))),
                    parse_formula(_RISKY, free=("a", "b", "X", "Z")))
    return ctx, phis, columns


def _first_error(ctx, phis, columns):
    """The per-formula values, or the first error in batch order."""
    try:
        return [_per_assignment(ctx, phi, columns) for phi in phis], None
    except Exception as ex:
        return None, ex


def _assert_batch_agrees(ctx, phis, columns):
    expected, error = _first_error(ctx, phis, columns)
    if error is not None:
        with pytest.raises(type(error)) as got:
            grid_codes(ctx, phis, columns)
        assert str(got.value) == str(error)
        return None
    codes = grid_codes(ctx, phis, columns)
    A = ctx.algebra
    assert codes.dtype == np.uint8
    assert codes.shape == (len(phis), *(len(c) for c in columns.values()), A.codes.width)
    for k, phi in enumerate(phis):
        np.testing.assert_array_equal(codes[k], A.codes.encode(expected[k]))
        np.testing.assert_array_equal(codes[k], A.codes.encode(eval_grid(ctx, phi, columns)))
    return codes


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_generated_batches_match_one_formula_at_a_time(case):
    ctx, phis, columns = case
    whole = _assert_batch_agrees(ctx, phis, columns)
    if whole is None:
        return
    # the smallest budget a batch may run under: blocks of one row
    grid = valuation._Grid(ctx, phis, list(columns), [list(c) for c in columns.values()])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(valuation, "GRID_BUDGET", grid.predict(1))  # the kernel is kept
        np.testing.assert_array_equal(grid_codes(ctx, phis, columns), whole)


def test_recurring_subformulas_are_one_node():
    # a recurring subformula is one node however often it recurs, in one
    # formula or across the batch, and it is evaluated once
    store, names = _chain3_names()
    ctx = EvalContext(store)
    cols = {"a": names, "b": names, "X": names}
    pair = _pair("X", "a", "b")
    twice = And(pair, pair)
    grid = valuation._Grid(ctx, [pair, twice, pair], list(cols), list(cols.values()))
    alone = valuation._Grid(ctx, [pair], list(cols), list(cols.values()))
    assert len(grid.nodes) == len(alone.nodes) + 1
    assert grid.roots[0] == grid.roots[2] and grid.readers[grid.roots[0]] == 4
    # shadowed and renamed: u over X twice in scope, then one axis again
    shadow = parse_formula("forall u in X . forall v in X . forall u in u . u = v",
                           free=("X",))
    reuse = parse_formula("(forall u in X . u = u) /\\ (forall v in X . v = v)", free=("X",))
    for phi, axes in ((shadow, 4), (reuse, 2)):
        assert len(valuation._Grid(ctx, phi, ["X"], [names]).domains) == axes
    _assert_batch_agrees(ctx, [pair, twice, shadow, reuse], {"a": names, "b": names,
                                                             "X": names})


def test_function_predicate_pairs_are_evaluated_once(monkeypatch):
    # the three copies of the pair (p, u, v) in the function predicate sit
    # on the same axes, so they are one node; every node is evaluated at
    # most once per block
    algebra = builtin_test_algebras()["four"]
    store = NameStore(algebra)
    ctx = EvalContext(store)
    X = _random_hset(algebra, random.Random(DEFAULT_SEED), max_points=3)
    cols = {"H": [hs.dagger_morphism(store, hs.identity(X))], "X": [hs.dagger_hset(store, X)]}
    cols["Y"] = cols["X"]
    phi = function_predicate()
    grid = valuation._Grid(ctx, phi, list(cols), list(cols.values()))
    puv = _pair("p", "u", "v")
    tree = sum(1 for _ in formula_walk(phi))
    assert tree - len(grid.nodes) >= 2 * sum(1 for _ in formula_walk(puv))
    seen = []
    real_eval = valuation._Grid._eval
    monkeypatch.setattr(valuation._Grid, "_eval",
                        lambda self, node: seen.append(id(node)) or real_eval(self, node))
    out = eval_grid(ctx, phi, cols)
    assert out[0, 0, 0] == algebra.top
    assert len(seen) == len(set(seen))


def test_preservation_suite_builds_eight_plans(monkeypatch):
    # one plan per side and standard morphism, on all six family formulas
    plans = []
    real_init = valuation._Grid.__init__
    monkeypatch.setattr(valuation._Grid, "__init__",
                        lambda self, *a: plans.append(a[1]) or real_init(self, *a))
    assert preservation_suite().ok
    assert len(plans) == 8 and all(len(phis) == 6 for phis in plans)


def test_batch_over_budget_runs_formula_by_formula(pools, monkeypatch):
    # the batch's prediction counts its shared nodes; over the budget it
    # falls back to one plan per formula, so the error, when there is
    # one, is the first formula's own
    store, ctx, pool = pools["chain3"]
    cols = {"X": pool, "Y": pool}
    phis = [parse_formula(t, free=("X", "Y")) for t in POSITIVE_BOUNDED_FAMILY]
    whole = grid_codes(ctx, phis, cols)
    batch = valuation._Grid(ctx, phis, list(cols), list(cols.values()))
    alone = [valuation._Grid(ctx, [phi], list(cols), list(cols.values())).predict(1)
             for phi in phis]
    assert batch.predict(1) > max(alone)
    monkeypatch.setattr(valuation, "GRID_BUDGET", max(alone))
    np.testing.assert_array_equal(grid_codes(ctx, phis, cols), whole)
    monkeypatch.setattr(valuation, "GRID_BUDGET", max(alone) - 1)
    big = alone.index(max(alone))
    with pytest.raises(BudgetExceeded) as err:
        grid_codes(ctx, phis, cols)
    with pytest.raises(BudgetExceeded) as own:
        eval_grid(ctx, phis[big], cols)
    assert str(err.value) == str(own.value)
