r"""Locale morphisms and name lifting.

The strict relation is cross-checked against the memo-free recursion in
oracles.py, on the full rank-2 pools of the standard morphisms and on
hypothesis-built stores; the generalized relation against the
candidate-pool closure recursion; and the atomic preservation bounds
against direct evaluation on both sides.
"""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import transfer
from hvmodels.checks import (
    POSITIVE_BOUNDED_FAMILY,
    counterexample_names,
    hset_law_suite,
    standard_morphisms,
)
from hvmodels.errors import (
    BottomNotPreserved,
    BudgetExceeded,
    CrossAlgebra,
    NotJoinPreserving,
    NotMeetPreserving,
    NotPositiveBounded,
    ParseError,
    TopNotPreserved,
)
from hvmodels.formula import free_vars, parse_formula
from hvmodels.hset import HSet, HSetMorphism, morphism_law_masks, validate_morphism
from hvmodels.lattice import make_boolean, make_chain
from hvmodels.names import NameStore, enumerate_names, pad_equivalent
from hvmodels.lattice import load_algebra
from hvmodels.transfer import (
    LocaleMorphism,
    check_atomic_preservation,
    check_positive_bounded_preservation,
    compose_locale,
    epsilon_hset_morphism,
    epsilon_tables,
    first_proposal_images,
    identity_morphism,
    is_generalized_related,
    lift,
    map_codes,
    mono_epi_experiment,
    mono_epi_masks,
    parse_morphism,
    preserves_implication,
    strict_images,
    strict_related,
    validate_locale_morphism,
    witnessed_lift_with,
)
from hvmodels.valuation import EvalContext

from conftest import FIXTURES
from oracles import (
    brute_generalized_closed,
    brute_generalized_related,
    brute_strict_related,
    ref_eq,
    ref_mem,
)


@pytest.fixture(scope="module")
def morphisms():
    return standard_morphisms()


# -- validation ----------------------------------------------------------------


def test_validator_accepts_the_standard_morphisms(morphisms):
    assert set(morphisms) == {"f", "i", "collapse0", "collapse1"}
    assert list(morphisms["f"].table) == [0, 0, 1, 1]


def test_validator_error_kinds(chain2, chain3, four):
    with pytest.raises(ParseError):
        validate_locale_morphism(four, chain2, [0, 1])
    with pytest.raises(CrossAlgebra):
        validate_locale_morphism(chain2, chain2, [0, 7])
    with pytest.raises(BottomNotPreserved) as err:
        validate_locale_morphism(chain2, chain2, [1, 1])
    assert err.value.witness == ("0",)
    with pytest.raises(TopNotPreserved):
        validate_locale_morphism(chain2, chain2, [0, 0])
    with pytest.raises(NotMeetPreserving) as err:
        validate_locale_morphism(four, chain2, [0, 1, 1, 1])
    assert set(err.value.witness) == {"a", "na"}
    with pytest.raises(NotJoinPreserving) as err:
        validate_locale_morphism(four, chain2, [0, 0, 0, 1])
    assert set(err.value.witness) == {"a", "na"}


def test_validator_order_of_checks(chain3):
    # bottom is reported before the (also broken) meet law
    with pytest.raises(BottomNotPreserved):
        validate_locale_morphism(chain3, chain3, [1, 0, 2])
    with pytest.raises(TopNotPreserved):
        validate_locale_morphism(chain3, chain3, [0, 2, 1])


def test_identity_and_composition(chain2, four, morphisms):
    ida = identity_morphism(four)
    assert list(ida.table) == [0, 1, 2, 3]
    f, i = morphisms["f"], morphisms["i"]
    fi = compose_locale(f, i)  # two -> four -> two
    assert list(fi.table) == [0, 1]
    assert fi.name == "f.i"
    if_ = compose_locale(i, f)  # four -> two -> four
    assert list(if_.table) == [0, 0, 3, 3]
    with pytest.raises(CrossAlgebra):
        compose_locale(f, f)


def test_preserves_implication(morphisms):
    assert preserves_implication(morphisms["f"])
    assert preserves_implication(morphisms["i"])
    assert preserves_implication(morphisms["collapse1"])
    assert not preserves_implication(morphisms["collapse0"])


# -- the strict relation ---------------------------------------------------------


def test_strict_base_cases(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    assert strict_related(f, sa, sb, sa.empty, sb.empty)
    nonempty_b = sb.intern({sb.empty: 1})
    assert not strict_related(f, sa, sb, sa.empty, nonempty_b)
    nonempty_a = sa.intern({sa.empty: 3})
    assert not strict_related(f, sa, sb, nonempty_a, sb.empty)


def _assert_full_pools_match_oracle(f, max_domain=None):
    # the full rank-2 pools of both sides, the source one up to the
    # domain cap the kernel accepts
    sa, sb = NameStore(f.source), NameStore(f.target)
    pool_a = enumerate_names(sa, max_rank=2, max_domain=max_domain)
    pool_b = enumerate_names(sb, max_rank=2)
    got = strict_images(f, pool_a, pool_b, sa, sb)
    want = [[xp for xp in pool_b if brute_strict_related(f, sa, sb, x, xp)]
            for x in pool_a]
    assert got == want
    return got


def test_strict_matches_oracle_along_f(morphisms):
    got = _assert_full_pools_match_oracle(morphisms["f"], transfer.SURJECTION_DOMAIN_CAP)
    assert len(got) == 2101 and sum(map(len, got)) == 1189


def test_strict_matches_oracle_along_collapse0(morphisms):
    got = _assert_full_pools_match_oracle(morphisms["collapse0"])
    assert len(got) == 256 and sum(map(len, got)) == 192


def test_strict_matches_oracle_along_collapse1(morphisms):
    assert any(_assert_full_pools_match_oracle(morphisms["collapse1"]))


def test_strict_matches_oracle_along_i(morphisms):
    # i is injective: every name has exactly one strict image
    got = _assert_full_pools_match_oracle(morphisms["i"])
    assert [len(imgs) for imgs in got] == [1] * 27


def test_strict_budgets(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    e = sa.empty
    wide = sa.intern({sa.intern({e: v}): 3 for v in range(4)} | {e: 3})
    assert len(sa.domain(wide)) == 5
    with pytest.raises(BudgetExceeded) as err:
        strict_related(f, sa, sb, wide, sb.empty)
    assert (err.value.predicted, err.value.budget) == (5, transfer.SURJECTION_DOMAIN_CAP)


def test_wide_name_inside_the_source_closure_is_refused(morphisms):
    # the only candidate has an empty domain, so no surjection would ever
    # reach the wide child; the cap holds over the whole closure anyway
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    e = sa.empty
    wide = sa.intern({sa.intern({e: v}): 3 for v in range(4)} | {e: 3})
    x = sa.intern({wide: 3})
    with pytest.raises(BudgetExceeded) as err:
        first_proposal_images(f, x, [sb.empty], sa, sb)
    assert err.value.predicted == 5


def test_strict_grid_budget_is_checked_before_allocation(morphisms, monkeypatch):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = sa.intern({sa.empty: 3})
    xp = sb.intern({sb.empty: 1})
    assert strict_related(f, sa, sb, x, xp)

    def refuse(*args):
        raise AssertionError("arrays built before the budget check")

    monkeypatch.setattr(transfer, "child_arrays", refuse)
    # both closures hold two names: 4 cells of R
    monkeypatch.setattr(transfer, "GRID_BUDGET", 3)
    with pytest.raises(BudgetExceeded) as err:
        strict_related(f, sa, sb, x, xp)
    assert (err.value.predicted, err.value.budget) == (4, 3)
    monkeypatch.setattr(transfer, "GRID_BUDGET", 0)
    with pytest.raises(BudgetExceeded) as err:
        first_proposal_images(f, x, [xp, sb.empty, xp], sa, sb)
    assert (err.value.predicted, err.value.budget) == (4, 0)


def test_strict_images_blocks_agree_with_one_block(morphisms, monkeypatch):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    pool_a = enumerate_names(sa, max_rank=2, max_domain=3)
    pool_b = enumerate_names(sb, max_rank=2)
    whole = strict_images(f, pool_a, pool_b, sa, sb)
    # R needs 821 x 27 cells; the 640 source names of domain size 3 then
    # meet their candidates in blocks of at most 277 rows
    monkeypatch.setattr(transfer, "GRID_BUDGET", 40000)
    assert strict_images(f, pool_a, pool_b, sa, sb) == whole


def test_strict_images_keep_candidate_order_and_duplicates(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = sa.intern({sa.empty: 3})
    xp = sb.intern({sb.empty: 1})
    assert strict_images(f, [x, sa.empty, x], [xp, sb.empty, xp], sa, sb) == [
        [xp, xp], [sb.empty], [xp, xp]]
    assert strict_images(f, [], [xp], sa, sb) == []
    assert strict_images(f, [x], [], sa, sb) == [[]]


def test_strict_images_drop_wide_candidates(morphisms):
    # the pools of injective_suite: 27 source names of at most 3 children,
    # 3125 candidates of which 2304 have 4 or 5 and are nobody's image
    i = morphisms["i"]
    sa, sb = NameStore(i.source), NameStore(i.target)
    pool_a = enumerate_names(sa, max_rank=2)
    pool_b = enumerate_names(sb, max_rank=2)
    wide = [c for c in pool_b if len(sb.entries(c)) > 3]
    assert max(len(sa.entries(x)) for x in pool_a) == 3
    assert (len(pool_a), len(pool_b), len(wide)) == (27, 3125, 2304)
    assert strict_images(i, pool_a, wide, sa, sb) == [[]] * 27
    mixed = wide[:5] + pool_b[:40] + wide[5:9] + pool_b[:3]
    assert strict_images(i, pool_a, mixed, sa, sb) == [
        [c for c in mixed if brute_strict_related(i, sa, sb, x, c)] for x in pool_a]
    tracemalloc.start()
    try:
        images = strict_images(i, pool_a, pool_b, sa, sb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(imgs) for imgs in images] == [1] * 27
    assert peak < 0.75 * 2 ** 20


_STANDARD = standard_morphisms()


def _draw_names(draw, store, count):
    ids = [store.empty]
    for _ in range(count):
        kids = draw(st.lists(st.sampled_from(ids), max_size=3))
        vals = draw(st.lists(st.integers(0, store.algebra.n - 1),
                             min_size=len(kids), max_size=len(kids)))
        ids.append(store.intern(dict(zip(kids, vals))))
    return ids


@st.composite
def _strict_cases(draw):
    """A standard morphism, hypothesis-built source names, and candidates
    drawn, duplicates allowed, from their lift images, equivalence pads
    of those images, and hypothesis-built target names."""
    f = _STANDARD[draw(st.sampled_from(sorted(_STANDARD)))]
    sa, sb = NameStore(f.source), NameStore(f.target)
    xs = _draw_names(draw, sa, draw(st.integers(1, 6)))
    images = [lift(f, x, sa, sb).image for x in xs]
    pads = [pad_equivalent(sb, img, draw(st.integers(1, 2)))
            for img in draw(st.lists(st.sampled_from(images), max_size=3))]
    others = _draw_names(draw, sb, draw(st.integers(0, 4)))
    candidates = draw(st.lists(st.sampled_from(images + pads + others),
                               min_size=1, max_size=10))
    return f, sa, sb, draw(st.permutations(xs)), candidates


@settings(max_examples=150, deadline=None)
@given(_strict_cases())
def test_strict_images_match_oracle_on_generated_stores(case):
    f, sa, sb, xs, candidates = case
    want = [[xp for xp in candidates if brute_strict_related(f, sa, sb, x, xp)]
            for x in xs]
    assert strict_images(f, xs, candidates, sa, sb) == want
    assert [first_proposal_images(f, x, candidates, sa, sb) for x in xs] == want


# -- the canonical lift -----------------------------------------------------------


def test_lift_witness_commutes_and_is_bijective(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    pool = enumerate_names(sa, max_rank=2, max_domain=2)
    for x in pool[::6]:
        wl = lift(f, x, sa, sb)
        tau = dict(wl.witness)
        assert sorted(tau) == sorted(sa.domain(x))
        assert len(set(tau.values())) == len(tau)
        image = dict(sb.entries(wl.image))
        assert sorted(image) == sorted(tau.values())
        for u, val in sa.entries(x):
            assert image[tau[u]] == f(val)


def test_lift_is_deterministic_and_cached(morphisms, four, chain2):
    f = morphisms["f"]
    sa, sb = NameStore(four), NameStore(chain2)
    x = counterexample_names(sa)
    wl1 = lift(f, x, sa, sb)
    assert lift(f, x, sa, sb) is wl1
    f2 = validate_locale_morphism(four, chain2, [0, 0, 1, 1], name="f")
    wl2 = lift(f2, x, sa, sb)
    assert (wl1.image, wl1.witness) == (wl2.image, wl2.witness)


def test_lift_cache_does_not_keep_stores_alive(four, chain2):
    f = validate_locale_morphism(four, chain2, [0, 0, 1, 1], name="f")
    refs = []
    for _ in range(3):
        sa, sb = NameStore(four), NameStore(chain2)
        for x in enumerate_names(sa, max_rank=1):
            lift(f, x, sa, sb)
        refs += [weakref.ref(sa), weakref.ref(sb)]
    del sa, sb
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(f._lift_cache) == 0


def test_lift_pads_on_collision(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = counterexample_names(sa)
    wl = lift(f, x, sa, sb)
    (u1, t1), (u2, t2) = wl.witness
    assert u1 != u2 and t1 != t2
    # both children have the same canonical image; the second is padded
    assert lift(f, u1, sa, sb).image == lift(f, u2, sa, sb).image == t1
    assert t2 == pad_equivalent(sb, t1, 1)
    ctx = EvalContext(sb)
    assert ctx.atomic_eq(t1, t2) == sb.algebra.top


def test_identity_lift_is_interned_equal(four):
    sa = NameStore(four)
    ida = identity_morphism(four)
    for x in enumerate_names(sa, max_rank=2, max_domain=2)[::9]:
        assert lift(ida, x, sa, sa).image == x


def test_witnessed_lift_with_accepts_a_padded_witness(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = counterexample_names(sa)
    canonical = lift(f, x, sa, sb)
    (u1, t1), (u2, t2) = canonical.witness
    ctx = EvalContext(sb)
    swapped = witnessed_lift_with(f, x, {u1: t2, u2: t1}, sa, ctx)
    assert swapped.image != canonical.image
    assert ctx.atomic_eq(swapped.image, canonical.image) == sb.algebra.top


def test_witnessed_lift_with_rejects_bad_witnesses(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = counterexample_names(sa)
    (u1, t1), (u2, t2) = lift(f, x, sa, sb).witness
    with pytest.raises(ParseError):
        witnessed_lift_with(f, x, {u1: t1, u2: t1}, sa, EvalContext(sb))
    stray = sb.intern({sb.empty: 1})  # not equivalent to the child image
    with pytest.raises(ParseError):
        witnessed_lift_with(f, x, {u1: t1, u2: stray}, sa, EvalContext(sb))


def test_witnessed_lift_with_names_a_child_without_a_target(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = counterexample_names(sa)
    (u1, t1), (u2, _) = lift(f, x, sa, sb).witness
    with pytest.raises(ParseError, match=f"no target for {u2}$"):
        witnessed_lift_with(f, x, {u1: t1}, sa, EvalContext(sb))


# -- the generalized relation -------------------------------------------------------


def test_counterexample_strict_fails_generalized_succeeds(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = counterexample_names(sa)
    pool_b = enumerate_names(sb, max_rank=2)
    assert len(pool_b) == 27
    assert first_proposal_images(f, x, pool_b, sa, sb) == []
    assert is_generalized_related(f, x, lift(f, x, sa, sb).image, sa, EvalContext(sb))


def test_generalized_matches_oracle(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    e = sa.empty
    sample = list(enumerate_names(sa, max_rank=1)) + [
        sa.intern({sa.intern({e: 0}): 0, sa.intern({e: 1}): 3}),
        counterexample_names(sa),
    ]
    pool_b = enumerate_names(sb, max_rank=2)
    ctx_b = EvalContext(sb)
    eq = ctx_b.atomic_eq
    top = sb.algebra.top
    for x in sample:
        raw = {xp for xp in pool_b
               if brute_generalized_related(f, sa, sb, x, xp, pool_b, eq)}
        for xp in pool_b:
            # the full relation closes the witness clause under equality
            want = xp in raw or any(eq(w, xp) == top for w in raw)
            got = is_generalized_related(f, x, xp, sa, ctx_b)
            assert got == want, (sa.to_literal(x), sb.to_literal(xp))


def test_generalized_closed_oracle_spot_checks(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = sa.intern({sa.empty: 0})
    pool_b = enumerate_names(sb, max_rank=2)
    ctx_b = EvalContext(sb)
    args = (f, sa, sb, x, sb.empty, pool_b, ctx_b.atomic_eq)
    assert not brute_generalized_related(*args)
    assert brute_generalized_closed(*args)
    assert is_generalized_related(f, x, sb.empty, sa, ctx_b)


def test_generalized_budget(morphisms):
    # a domain above SURJECTION_DOMAIN_CAP is decided by the closure
    # clause alone, without a surjection search
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    e = sa.empty
    wide = sa.intern({sa.intern({e: v}): 3 for v in range(4)} | {e: 3})
    assert len(sa.entries(wide)) == 5
    ctx_b = EvalContext(sb)
    assert is_generalized_related(f, wide, lift(f, wide, sa, sb).image, sa, ctx_b)
    pool_b = enumerate_names(sb, max_rank=2)
    assert not brute_generalized_closed(f, sa, sb, wide, sb.empty, pool_b, ctx_b.atomic_eq)
    assert not is_generalized_related(f, wide, sb.empty, sa, ctx_b)


# -- preservation bounds -------------------------------------------------------------


def _lift_pairs(f, sa, sb, step=6):
    pool = enumerate_names(sa, max_rank=2, max_domain=2)
    return [(x, lift(f, x, sa, sb).image) for x in pool[::step]]


def test_atomic_preservation_is_equality_for_f(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    rep = check_atomic_preservation(f, _lift_pairs(f, sa, sb), EvalContext(sa), EvalContext(sb))
    assert rep.ok and rep.notes["equality_asserted"]
    assert rep.checked > 0


def test_atomic_preservation_is_an_inequality_for_collapse0(morphisms):
    g = morphisms["collapse0"]
    sa, sb = NameStore(g.source), NameStore(g.target)
    ctx_a, ctx_b = EvalContext(sa), EvalContext(sb)
    rep = check_atomic_preservation(g, _lift_pairs(g, sa, sb, step=4), ctx_a, ctx_b)
    assert rep.ok and not rep.notes["equality_asserted"]
    # and the bound really is strict somewhere: x = {({}, m)} against {}
    x = sa.intern({sa.empty: 1})
    xp = lift(g, x, sa, sb).image
    lhs = g(ctx_a.atomic_eq(x, sa.empty))
    rhs = ctx_b.atomic_eq(xp, sb.empty)
    assert lhs == 0 and rhs == 1


def test_atomic_preservation_reports_violations(chain2, chain3):
    # a deliberately wrong table behind the validator's back
    bogus = LocaleMorphism(chain3, chain2, np.array([0, 1, 1]), name="bogus")
    bogus_bad = LocaleMorphism(chain3, chain2, np.array([0, 1, 0]), name="broken")
    sa, sb = NameStore(chain3), NameStore(chain2)
    pairs = _lift_pairs(bogus, sa, sb, step=7)
    pairs = [(x, lift(bogus_bad, x, sa, sb).image) for x, _ in pairs]
    rep = check_atomic_preservation(bogus, pairs, EvalContext(sa), EvalContext(sb))
    assert not rep.ok
    v = rep.violations[0]
    assert {"relation", "source_pair", "target_pair",
            "f_of_source_value", "target_value"} <= set(v)


def _fixture_morphisms():
    """Every `fixtures/*.mor` table, as an unvalidated `LocaleMorphism`
    over the fixture frames, so the non-morphisms l and r are kept."""
    frames = {p.stem: load_algebra(p.read_text(), name=p.stem)
              for p in FIXTURES.glob("*.alg") if p.stem != "m3"}
    out = []
    for path in sorted(FIXTURES.glob("*.mor")):
        lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        _, name, _, a, _, b = lines[0].split()
        A, B = frames[a], frames[b]
        table = dict(ln[len("map:"):].replace(" ", "").split("->") for ln in lines[1:])
        out.append(LocaleMorphism(A, B, [B.index(table[lab]) for lab in A.labels], name=name))
    return out


def test_map_codes_is_f_on_every_code(morphisms, chain2, chain3):
    # the standard morphisms, the fixture tables (l and r are not locale
    # morphisms), the unvalidated tables of the violation tests, and a
    # 12-chain onto the two-chain, whose source codes are two bytes wide
    chain12 = make_chain(12)
    cases = [*morphisms.values(), *_fixture_morphisms(),
             LocaleMorphism(chain3, chain2, np.array([0, 1, 1]), name="bogus"),
             LocaleMorphism(chain3, chain2, np.array([0, 1, 0]), name="broken"),
             LocaleMorphism(chain12, chain2, np.array([0] * 11 + [1]), name="top")]
    assert len(cases) == 13 and chain12.codes.width == 2
    for f in cases:
        A, B = f.source, f.target
        got = map_codes(f, A.codes.encode(np.arange(A.n)))
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, B.codes.encode(f.table[np.arange(A.n)]))
        # any leading shape, every element in every cell
        stack = A.codes.encode(np.arange(A.n)[::-1].reshape(1, A.n, 1).repeat(3, axis=2))
        np.testing.assert_array_equal(map_codes(f, stack),
                                      B.codes.encode(f.table[::-1].reshape(1, A.n, 1)
                                                     .repeat(3, axis=2)))


def test_positive_bounded_preservation(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    pairs = _lift_pairs(f, sa, sb, step=5)[:6]
    ctx_a, ctx_b = EvalContext(sa), EvalContext(sb)
    phi = parse_formula("forall u in X . u in Y", free=("X", "Y"))
    rep = check_positive_bounded_preservation(f, phi, pairs, ctx_a, ctx_b)
    assert rep.ok and rep.checked == 36
    with pytest.raises(NotPositiveBounded):
        check_positive_bounded_preservation(
            f, parse_formula("~(X = Y)", free=("X", "Y")), pairs, ctx_a, ctx_b)
    with pytest.raises(NotPositiveBounded):
        const_phi = parse_formula("e in X", constants={"e": sa.empty}, free=("X",))
        check_positive_bounded_preservation(f, const_phi, pairs, ctx_a, ctx_b)


def _per_tuple_preservation(f, phi, names, pairs, sa, sb):
    """The per-assignment loop the grid checker replaced: one `eval` per
    side and tuple, the tuples in row-major order of `names`."""
    ctx_a, ctx_b = EvalContext(sa), EvalContext(sb)
    B = f.target
    checked, violations = 0, []
    for point in itertools.product(pairs, repeat=len(names)):
        sigma_a = {v: x for v, (x, _) in zip(names, point)}
        sigma_b = {v: xp for v, (_, xp) in zip(names, point)}
        va = f(ctx_a.eval(phi, sigma_a))
        vb = ctx_b.eval(phi, sigma_b)
        checked += 1
        if not B.leq[va, vb]:
            violations.append({
                "assignment": {k: sa.to_literal(v) for k, v in sigma_a.items()},
                "f_of_source_value": B.labels[va],
                "target_value": B.labels[vb],
            })
    return checked, violations


def test_positive_bounded_preservation_reports_violations(chain2, chain3):
    # pairs lifted along a broken table, checked along another one
    bogus = LocaleMorphism(chain3, chain2, np.array([0, 1, 1]), name="bogus")
    broken = LocaleMorphism(chain3, chain2, np.array([0, 1, 0]), name="broken")
    sa, sb = NameStore(chain3), NameStore(chain2)
    pairs = [(x, lift(broken, x, sa, sb).image) for x, _ in _lift_pairs(bogus, sa, sb, step=4)]
    texts = POSITIVE_BOUNDED_FAMILY + ("exists u in Z . u in X /\\ (forall v in u . v = Y)",
                                       "forall u in X . u = u")
    failing = 0
    for text in texts:
        phi = parse_formula(text, free=("X", "Y", "Z"))
        names = sorted(free_vars(phi))
        rep = check_positive_bounded_preservation(bogus, phi, pairs, EvalContext(sa),
                                                  EvalContext(sb), title=text)
        checked, violations = _per_tuple_preservation(bogus, phi, names, pairs, sa, sb)
        assert rep.checked == checked == len(pairs) ** len(names)
        assert rep.violations == violations
        failing += bool(violations)
    assert failing == 7


def test_functoriality_report(morphisms, four):
    # f then i; checks.functoriality_suite covers i then f
    f, i = morphisms["f"], morphisms["i"]
    sa = NameStore(four)
    sb = NameStore(f.target)
    sc = NameStore(i.target)
    ctx_a, ctx_c = EvalContext(sa), EvalContext(sc)
    ident = identity_morphism(four)
    i_after_f = compose_locale(i, f)
    sample = enumerate_names(sa, max_rank=2, max_domain=2)[::9]
    for x in sample:
        image = lift(ident, x, sa, sa).image
        assert image == x and ctx_a.atomic_eq(image, x) == four.top
        two_step = lift(i, lift(f, x, sa, sb).image, sb, sc).image
        one_step = lift(i_after_f, x, sa, sc).image
        assert ctx_c.atomic_eq(two_step, one_step) == four.top


# -- the induced H-set morphism -------------------------------------------------------


def test_witness_independence_grows_with_the_domain_cap(morphisms):
    # every name with two or more entries whose witness has a pair of
    # top-equal targets with values f identifies gets a second witness,
    # counted here one name at a time on the one-off path
    f = morphisms["f"]
    for cap, pinned in ((2, 32), (3, 384)):
        sa, sb = NameStore(f.source), NameStore(f.target)
        ctx_b = EvalContext(sb)
        swappable = 0
        for x in enumerate_names(sa, max_rank=2, max_domain=cap):
            wl, entries = lift(f, x, sa, sb), sa.entries(x)
            swappable += any(
                ctx_b.atomic_eq(wl.witness[i][1], wl.witness[j][1]) == sb.algebra.top
                and f(entries[i][1]) == f(entries[j][1])
                for i, j in itertools.combinations(range(len(entries)), 2))
        fam = next(fam for fam in hset_law_suite(max_domain=cap).families
                   if fam.name == "induced morphism is witness independent")
        assert fam.ok and fam.checked == fam.notes["alternate_witness_instances"]
        assert fam.checked == swappable == pinned


def test_epsilon_morphism_validates_and_ignores_the_witness(morphisms):
    f = morphisms["f"]
    sa, sb = NameStore(f.source), NameStore(f.target)
    x = counterexample_names(sa)
    ctx_a, ctx_b = EvalContext(sa), EvalContext(sb)
    canonical = lift(f, x, sa, sb)
    eps = epsilon_hset_morphism(f, canonical, ctx_a, ctx_b)
    assert validate_morphism(eps)
    (u1, t1), (u2, t2) = canonical.witness
    swapped = witnessed_lift_with(f, x, {u1: t2, u2: t1}, sa, ctx_b)
    eps2 = epsilon_hset_morphism(f, swapped, ctx_a, ctx_b)
    assert validate_morphism(eps2)
    assert np.array_equal(eps.phi, eps2.phi)
    probes = mono_epi_experiment(eps)
    assert set(probes) == {"mono", "epi"}


# locale morphisms whose source or target codes are two bytes wide
TWO_BYTE_MORPHISMS = {"chain12-chain2": (make_chain(12), make_chain(2), [0] * 11 + [1]),
                      "chain2-chain12": (make_chain(2), make_chain(12), [0, 11])}


@pytest.mark.parametrize("name,mono", [
    ("f", 181), ("i", 19), ("collapse0", 65), ("collapse1", 67),
    ("chain12-chain2", 157), ("chain2-chain12", 19)])
def test_epsilon_tables_match_the_cell_by_cell_definition(morphisms, name, mono):
    # every name of the rank-2, domain cap 2 pool, lifted canonically;
    # lifted in descending order, a name's children are lifted last
    # first, so tau need not follow the domain order of the image.  Over
    # the 12-chain the cap is 1 (157 names; cap 2 has 11,389)
    f = morphisms.get(name) or validate_locale_morphism(*TWO_BYTE_MORPHISMS[name], name=name)
    A, B = f.source, f.target
    sa, sb = NameStore(A), NameStore(B)
    pool = enumerate_names(sa, max_rank=2, max_domain=2 if A.codes.width == 1 else 1)[::-1]
    wls = [lift(f, x, sa, sb) for x in pool]
    ds, dt, phis = epsilon_tables(f, wls, EvalContext(sa), EvalContext(sb))
    for g, wl in enumerate(wls):
        dom, img, tau = sa.domain(wl.x), sb.domain(wl.image), dict(wl.witness)
        ext_a = [ref_mem(sa, u, wl.x) for u in dom]
        ext_b = [ref_mem(sb, v, wl.image) for v in img]
        want_ds = [[f(A.big_meet([ext_a[i], ref_eq(sa, u, v), ext_a[j]]))
                    for j, v in enumerate(dom)] for i, u in enumerate(dom)]
        want_dt = [[B.big_meet([ext_b[i], ref_eq(sb, v, w), ext_b[j]])
                    for j, w in enumerate(img)] for i, v in enumerate(img)]
        want_phi = [[B.big_meet([f(ext_a[i]), ref_eq(sb, tau[u], v), ext_b[j]])
                     for j, v in enumerate(img)] for i, u in enumerate(dom)]
        ns, nt = len(dom), len(img)
        assert ds[g, :ns, :ns].tolist() == want_ds
        assert dt[g, :nt, :nt].tolist() == want_dt
        assert phis[g, :ns, :nt].tolist() == want_phi
        # the padding is bottom
        for table, (rows, cols) in ((ds[g], (ns, ns)), (dt[g], (nt, nt)),
                                    (phis[g], (ns, nt))):
            padded = np.ones(table.shape, dtype=bool)
            padded[:rows, :cols] = False
            assert (table[padded] == B.bottom).all()
    assert morphism_law_masks(B, ds, dt, phis).all()
    mono_mask, epi_mask = mono_epi_masks(B, ds, dt, phis)
    assert (int(mono_mask.sum()), int(epi_mask.sum())) == (mono, len(pool))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mono_epi_probes_match_the_per_column_loops(data):
    A = data.draw(st.sampled_from((make_chain(3), make_boolean(2))))
    ns, nt = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))

    def table(rows, cols):
        cells = data.draw(st.lists(st.integers(0, A.n - 1),
                                   min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    # a source delta of top everywhere lets the mono probe pass too
    ds = np.full((ns, ns), A.top) if data.draw(st.booleans()) else table(ns, ns)
    m = HSetMorphism(HSet(A, range(ns), ds), HSet(A, range(nt), table(nt, nt)),
                     table(ns, nt))
    phi, mt, leq = m.phi, A.meet_table, A.leq
    mono = all(leq[mt[phi[:, z, None], phi[None, :, z]], m.source.delta].all()
               for z in range(nt))
    epi = all(A.big_join(phi[:, z]) == m.target.delta[z, z] for z in range(nt))
    assert mono_epi_experiment(m) == {"mono": mono, "epi": epi}
    # padded with bottom points, in a stack with its unpadded self, the
    # probes do not change
    ps, pt = ns + data.draw(st.integers(0, 2)), nt + data.draw(st.integers(0, 2))
    stacks = [np.full((2, n, k), A.bottom, dtype=np.int64)
              for n, k in ((ps, ps), (pt, pt), (ps, pt))]
    for stack, table in zip(stacks, (m.source.delta, m.target.delta, phi)):
        stack[:, :table.shape[0], :table.shape[1]] = table
    assert [mask.tolist() for mask in mono_epi_masks(A, *stacks)] == [[mono] * 2, [epi] * 2]


# -- text format -----------------------------------------------------------------------


F_TEXT = """
# the double collapse
morphism f : four -> two
map: 0 -> 0
map: a -> 0
map: na -> 1
map: 1 -> 1
"""


def test_parse_morphism_happy_path(chain2, four):
    name, f = parse_morphism(F_TEXT, {"two": chain2, "four": four})
    assert name == "f"
    assert list(f.table) == [0, 0, 1, 1]
    assert f.source is four and f.target is chain2


@pytest.mark.parametrize("text,fragment", [
    ("map: 0 -> 0", "before morphism header"),
    ("morphism f : four -> nowhere\n", "unknown algebra"),
    ("morphism f four two\n", "expected 'morphism NAME : A -> B'"),
    ("morphism f : four -> two\nmap: zz -> 0", "unknown source element"),
    ("morphism f : four -> two\nmap: 0 -> zz", "unknown target element"),
    ("morphism f : four -> two\nmap: 0 -> 0\nmap: 0 -> 1", "duplicate map"),
    ("morphism f : four -> two\nmorphism g : four -> two", "duplicate morphism header"),
    ("morphism f : four -> two\nmap: 0 -> 0", "not total"),
    ("", "missing morphism header"),
    ("morphism f : four -> two\nwhat is this", "unrecognized line"),
])
def test_parse_morphism_errors(chain2, four, text, fragment):
    with pytest.raises(ParseError) as err:
        parse_morphism(text, {"two": chain2, "four": four})
    assert fragment in str(err.value)


def test_parse_morphism_validates(chain2, four):
    text = "morphism l : four -> two\nmap: 0 -> 0\nmap: a -> 1\nmap: na -> 1\nmap: 1 -> 1"
    with pytest.raises(NotMeetPreserving):
        parse_morphism(text, {"two": chain2, "four": four})
