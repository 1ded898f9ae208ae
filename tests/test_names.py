from collections import Counter
from itertools import islice, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from hvmodels.errors import (
    BudgetExceeded,
    CrossAlgebra,
    ParseError,
    UnknownId,
    UnknownKey,
    WrongAlgebra,
)
from hvmodels import names as names_mod
from hvmodels.lattice import make_boolean, make_chain
from hvmodels.names import (
    NameStore,
    check_project,
    enumerate_names,
    function_predicate,
    hat_embed,
    ord_hf,
    ordered_pair_h,
    ordinal_tags,
    pad_equivalent,
    parse_name_literal,
    pool_size,
    singleton_h,
    unordered_pair_h,
)
from hvmodels.valuation import EvalContext, eval_grid

from oracles import hf_eval, pool_count, ref_eq


def test_interning_is_canonical(store3):
    e = store3.intern({})
    a = store3.intern({e: 1})
    b = store3.intern(((e, 1),))
    assert a == b
    assert store3.intern({e: 1, e: 2}) == store3.intern({e: 2})
    # last-wins on duplicate pair keys as well
    assert store3.intern(((e, 1), (e, 2))) == store3.intern({e: 2})
    assert len({e, a}) == 2


def test_entries_are_sorted_and_immutable(store3):
    e = store3.intern({})
    u = store3.intern({e: 1})
    x = store3.intern({u: 0, e: 2})
    assert store3.entries(x) == ((e, 2), (u, 0))
    assert store3.domain(x) == (e, u)


def test_intern_validates_keys_and_values(store3):
    e = store3.intern({})
    with pytest.raises(UnknownKey):
        store3.intern({41: 1})
    with pytest.raises(CrossAlgebra):
        store3.intern({e: 9})
    with pytest.raises(UnknownId):
        store3.entries(99)


def test_rank_convention(store3):
    e = store3.intern({})
    assert store3.rank(e) == 0
    u = store3.intern({e: 0})
    assert store3.rank(u) == 1
    v = store3.intern({u: 1, e: 1})
    assert store3.rank(v) == 2


@pytest.mark.parametrize("alg_size,max_rank,cap,expect", [
    (2, 2, 2, 19),
    (2, 2, None, 27),
    (3, 2, 2, 67),
    (4, 2, 2, 181),
    (4, 2, 3, 821),
])
def test_enumeration_counts_match_closed_form(alg_size, max_rank, cap, expect):
    algebra = make_chain(alg_size) if alg_size != 4 else make_boolean(2)
    store = NameStore(algebra)
    pool = enumerate_names(store, max_rank=max_rank, max_domain=cap)
    assert len(pool) == expect
    assert pool_count(alg_size, max_rank, cap) == expect
    assert len(set(pool)) == len(pool)
    assert all(store.rank(x) <= max_rank for x in pool)


def test_enumeration_is_downward_closed_and_sorted(store3):
    pool = enumerate_names(store3, max_rank=2, max_domain=2)
    assert pool == sorted(pool)
    members = set(pool)
    for x in pool:
        for u, _ in store3.entries(x):
            assert u in members


def test_pool_size_is_the_closed_form():
    # the oracle sums every term, so uncapped rank 3 stays at small algebras
    for h, r, cap in iproduct((1, 2, 3, 4, 5, 8), (0, 1, 2, 3), (None, 1, 2, 3)):
        if not (cap is None and r == 3 and h > 4):
            assert pool_size(h, r, cap, budget=float("inf")) == pool_count(h, r, cap), \
                (h, r, cap)


def test_enumeration_budget():
    # round 2 (3125 names) is within the budget and round 3 is not; both
    # are predicted first, so not even round 1 is interned
    store = NameStore(make_boolean(2))
    with pytest.raises(BudgetExceeded) as err:
        enumerate_names(store, max_rank=3, max_domain=None, budget=10_000)
    assert err.value.predicted == 5 ** 3125
    assert err.value.predicted > 10_000
    assert len(store) == 1


@pytest.mark.parametrize("rank, cap", [(-1, None), (-1, 2), (2, -1), (0, -1)])
def test_negative_rank_or_cap_is_a_parse_error(rank, cap):
    store = NameStore(make_chain(3))
    with pytest.raises(ParseError) as err:
        pool_size(3, rank, cap)
    assert str(err.value) == f"rank and domain cap must be >= 0, got {rank} and {cap}"
    with pytest.raises(ParseError):
        enumerate_names(store, rank, cap)
    assert len(store) == 1


def test_hat_embed_and_project_roundtrip(store2):
    sets = [frozenset(), ord_hf(1), ord_hf(3),
            frozenset([frozenset(), frozenset([frozenset()])])]
    for x in sets:
        assert check_project(store2, hat_embed(store2, x)) == x


@pytest.mark.parametrize("x, kind", [("ab", "str"), ([3], "int")])
def test_hat_embed_rejects_non_sets(store2, x, kind):
    with pytest.raises(ParseError) as err:
        hat_embed(store2, x)
    assert kind in str(err.value)


def test_hat_embed_visits_each_distinct_subterm_once(store2, monkeypatch):
    # ord_hf(k) has k + 1 distinct subterms but 2^k paths to them; more
    # than 41 calls of either function below fails at once rather than
    # walking all 2^40 paths
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            if calls[fn.__name__] > 41:
                raise AssertionError(f"more {fn.__name__} calls than distinct subterms")
            return fn(*args)
        return wrapper

    monkeypatch.setattr(NameStore, "intern", counted(NameStore.intern))
    monkeypatch.setattr(names_mod, "as_hf", counted(names_mod.as_hf))
    nid = hat_embed(store2, ord_hf(40))
    assert store2.rank(nid) == 40
    # hat_embed is injective, so this says check_project gives ord_hf(40)
    # back; comparing two separately built ordinals would itself take 2^40
    # steps
    calls.clear()
    assert hat_embed(store2, check_project(store2, nid)) == nid
    calls.clear()
    assert check_project(store2, hat_embed(store2, ord_hf(12))) == ord_hf(12)


def test_hat_embed_of_deep_chains(store2):
    # {{...{}...}} 3,000 braces deep, as frozensets and as tuples: far
    # deeper than the interpreter's recursion limit
    nested, tupled = frozenset(), ()
    for _ in range(3000):
        nested, tupled = frozenset([nested]), (tupled,)
    nid = hat_embed(store2, nested)
    assert store2.rank(nid) == 3000
    assert hat_embed(store2, tupled) == nid
    assert hat_embed(store2, check_project(store2, nid)) == nid
    # three equal deep chains, none the same object, collapse to one member
    listed = []
    for _ in range(3000):
        listed = [listed]
    assert hat_embed(store2, [nested, tupled, listed]) == singleton_h(store2, nid)


def test_as_hf_shares_equal_subterms_and_rejects_cycles():
    shared = [[], [[]]]
    out = names_mod.as_hf([shared, [shared], (x for x in [shared])])
    assert out == frozenset([ord_hf(2), frozenset([ord_hf(2)])])
    # equal subterms of the result are one object
    (a,) = [y for y in out if y == ord_hf(2)]
    (b,) = [y for y in out if y != ord_hf(2)]
    assert next(iter(b)) is a
    cyclic = []
    cyclic.append([cyclic])
    with pytest.raises(ParseError):
        names_mod.as_hf(cyclic)


def test_ordinal_tags_are_the_hat_images_of_the_ordinals(store3):
    fresh = NameStore(store3.algebra)
    tags = list(islice(ordinal_tags(store3), 12))
    assert tags == [hat_embed(fresh, ord_hf(k)) for k in range(12)]
    assert tags == [hat_embed(store3, ord_hf(k)) for k in range(12)]


def test_check_project_requires_the_two_chain(store3):
    e = store3.intern({})
    with pytest.raises(WrongAlgebra):
        check_project(store3, e)


def test_ord_hf():
    assert ord_hf(0) == frozenset()
    assert ord_hf(2) == frozenset([frozenset(), frozenset([frozenset()])])
    assert len(ord_hf(4)) == 4


def test_pairing_collapses_duplicates(store3):
    e = store3.intern({})
    u = store3.intern({e: 1})
    assert unordered_pair_h(store3, u, u) == singleton_h(store3, u)
    p = ordered_pair_h(store3, u, e)
    (k1, v1), (k2, v2) = store3.entries(p)
    assert {k1, k2} == {singleton_h(store3, u), unordered_pair_h(store3, u, e)}
    assert v1 == v2 == store3.algebra.top


def test_pad_equivalent_is_equal_with_value_top(store4):
    e = store4.intern({})
    u = store4.intern({e: 1})
    x = store4.intern({u: 3, e: 1})
    seen = {x}
    for k in (1, 2, 3):
        p = pad_equivalent(store4, x, k)
        assert p not in seen
        seen.add(p)
        assert ref_eq(store4, x, p) == store4.algebra.top
        # pads only ever append bottom-valued fresh keys
        base = dict(store4.entries(x))
        for key, v in store4.entries(p):
            if key in base:
                assert v == base[key]
            else:
                assert v == store4.algebra.bottom


def test_pad_equivalent_skips_keys_already_in_the_domain(store3):
    e = store3.intern({})
    x = store3.intern({e: 1})  # the first tag candidate is already a key
    p = pad_equivalent(store3, x, 1)
    extra = [k for k, _ in store3.entries(p) if k != e]
    assert len(extra) == 1
    assert extra[0] != e
    assert ref_eq(store3, x, p) == store3.algebra.top


def test_literal_roundtrip_basics(store3):
    e = parse_name_literal(store3, "{}")
    assert e == store3.intern({})
    u = parse_name_literal(store3, "{({}, m)}")
    assert u == store3.intern({e: 1})
    nested = parse_name_literal(store3, "{({({}, m)}, 0), ({}, 1)}")
    assert store3.entries(nested) == ((e, 2), (u, 0))
    # trailing comma and whitespace are tolerated
    assert parse_name_literal(store3, "{ ({} , m) , }") == u


def test_literal_bindings(store3):
    e = store3.intern({})
    u = store3.intern({e: 0})
    got = parse_name_literal(store3, "{(base, m), ({}, 0)}", {"base": u})
    assert got == store3.intern({u: 1, e: 0})


def test_literal_errors(store3):
    for bad in ["", "{", "{(}", "{({}, zz)}", "{({}, m) ({}, 0)}", "oops", "{} {}"]:
        with pytest.raises(ParseError):
            parse_name_literal(store3, bad)


def test_to_literal_parse_roundtrip_exhaustive(pools):
    for store, _, pool in pools.values():
        for x in pool[:200]:
            assert parse_name_literal(store, store.to_literal(x)) == x


@st.composite
def name_trees(draw, depth=3):
    if depth == 0:
        return ()
    n = draw(st.integers(0, 2))
    return tuple(
        (draw(name_trees(depth=depth - 1)), draw(st.integers(0, 2)))
        for _ in range(n)
    )


def _intern_tree(store, tree):
    return store.intern({_intern_tree(store, sub): v for sub, v in tree})


@settings(max_examples=60, deadline=None)
@given(name_trees())
def test_interning_literal_roundtrip_random(tree):
    store = NameStore(make_chain(3))
    x = _intern_tree(store, tree)
    assert parse_name_literal(store, store.to_literal(x)) == x
    # re-interning the parsed entries is stable
    assert store.intern(dict(store.entries(x))) == x


# -- fun(h: x -> y) against the classical HF oracle ------------------------------

HF_POINTS = (ord_hf(0), ord_hf(1), ord_hf(2), frozenset([ord_hf(1)]))


def _kpair(u, v):
    return frozenset([frozenset([u]), frozenset([u, v])])


def _is_function(h, x, y):
    """Classically: every member of h is a pair (u, v) with u in x and v
    in y, and each u in x is the first coordinate of exactly one."""
    graph = [(u, v) for u in x for v in y if _kpair(u, v) in h]
    return len(graph) == len(h) == len(x) and {u for u, _ in graph} == x


@st.composite
def hf_relations(draw):
    """(h, x, y) over small HF sets: h is the graph of a function from x
    to y, then possibly loses a pair, gains one, gains a non-pair, or has
    a pair widened by one more member or narrowed by one."""
    points = st.sampled_from(HF_POINTS)
    x = frozenset(draw(st.lists(points, max_size=3)))
    y = frozenset(draw(st.lists(points, min_size=1, max_size=3)))
    h = {_kpair(u, draw(st.sampled_from(sorted(y, key=len)))) for u in x}
    change = draw(st.sampled_from(("none", "drop", "pair", "junk", "widen", "narrow")))
    if change in ("drop", "widen", "narrow") and h:
        p = draw(st.sampled_from(sorted(h, key=repr)))
        h.discard(p)
        if change == "widen":
            h.add(p | {draw(points)})
        elif change == "narrow":
            h.add(p - {draw(st.sampled_from(sorted(p, key=repr)))})
    elif change == "pair":  # most often a second value for some u in x
        u = draw(st.sampled_from(sorted(x, key=len)) if x else points)
        h.add(_kpair(u, draw(st.sampled_from(sorted(y, key=len)) | points)))
    elif change == "junk":
        h.add(draw(points))
    return frozenset(h), x, y


@settings(max_examples=150, deadline=None)
@given(hf_relations())
def test_function_predicate_matches_the_hf_oracle(rel):
    store = NameStore(make_chain(2))
    ctx = EvalContext(store)
    h, x, y = rel
    sigma = {"H": hat_embed(store, h), "X": hat_embed(store, x), "Y": hat_embed(store, y)}
    expected = hf_eval(function_predicate(), {"H": h, "X": x, "Y": y})
    assert expected == _is_function(h, x, y)
    assert ctx.models(function_predicate(), sigma) == expected
    grid = eval_grid(ctx, function_predicate(), {v: [u] for v, u in sigma.items()})
    assert (grid.item() == store.algebra.top) == expected
