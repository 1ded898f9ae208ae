"""The acceptance gate: nine end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines inline; each criterion prints `ACCEPTANCE n: PASS` or `FAIL`
before asserting, so a red run still shows the full scoreboard.
"""

import time

import pytest

from hvmodels.checks import (
    counterexample_suite,
    functoriality_suite,
    hset_law_suite,
    immersion_suite,
    injective_suite,
    negative_validator_suite,
    preservation_suite,
    test_algebras as builtin_algebras,
    valuation_property_suite,
)


def verdict(n, label, ok):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}  ({label})")
    assert ok, f"criterion {n} failed: {label}"


@pytest.fixture(scope="module")
def preservation_report():
    return preservation_suite(rank=2, max_domain=2)


@pytest.fixture(scope="module")
def hset_report():
    return hset_law_suite()


def test_criterion_1_valuation_properties():
    started = time.perf_counter()
    reports = [
        valuation_property_suite(algebra, rank=2, max_domain=2)
        for algebra in builtin_algebras().values()
    ]
    elapsed = time.perf_counter() - started
    ok = all(r.ok and len(r.families) == 11 for r in reports) and elapsed < 60.0
    verdict(1, f"11 valuation laws on 3 algebras in {elapsed:.2f}s", ok)


def test_criterion_2_counterexample_pin():
    rep = counterexample_suite()
    verdict(2, "strict lift fails, generalized lift succeeds via a pad", rep.ok)


def test_criterion_3_injective_strict_function():
    rep = injective_suite(rank=2)
    verdict(3, "strict relation is a total injective function", rep.ok)


def test_criterion_4_atomic_preservation(preservation_report):
    fams = [f for f in preservation_report.families
            if f.name.startswith("atomic preservation")]
    ok = len(fams) == 4 and all(not f.violations for f in fams)
    # the implication-preserving morphisms must assert equality outright
    asserted = {f.name: f.notes.get("equality_asserted") for f in fams}
    ok = ok and all(
        asserted[name] is True
        for name in asserted
        if "collapse0" not in name
    )
    verdict(4, "atomic inequalities on all four standard sweeps", ok)


def test_criterion_5_positive_bounded_preservation(preservation_report):
    fams = [f for f in preservation_report.families
            if f.name.startswith("positive bounded")]
    ok = (
        len(fams) == 4
        and all(not f.violations for f in fams)
        and all(f.checked > 0 for f in fams)
    )
    verdict(5, "six positive bounded formulas on the same sweeps", ok)


def test_criterion_6_functoriality():
    rep = functoriality_suite(rank=2, max_domain=2)
    interned = all(
        f.notes.get("images_interned_equal", True) for f in rep.families
    )
    verdict(6, "identity and composite lifts agree up to top equality",
            rep.ok and interned)


def test_criterion_7_hset_category(hset_report):
    wi = next(f for f in hset_report.families
              if f.name == "induced morphism is witness independent")
    enough = wi.notes.get("alternate_witness_instances", 0) >= 10
    verdict(7, "category laws, bridge isos, induced morphisms",
            hset_report.ok and enough)


def test_criterion_8_immersion():
    rep = immersion_suite()
    verdict(8, "finite sets embed rigidly; projection inverts exactly", rep.ok)


def test_criterion_9_negative_validators():
    rep = negative_validator_suite()
    verdict(9, "non-morphisms and the non-frame are rejected with witnesses",
            rep.ok)
