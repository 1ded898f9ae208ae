from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hvmodels.errors import (
    CrossAlgebra,
    NotAFrame,
    NotALattice,
    NotAPoset,
    ParseError,
)
from hvmodels.lattice import (
    BUILTIN_ALGEBRAS,
    HeytingAlgebra,
    big_join,
    big_meet,
    implication,
    is_boolean,
    load_algebra,
    make_boolean,
    make_chain,
    meet,
    negation,
)


def brute_meet(algebra, a, b):
    lower = [c for c in range(algebra.n)
             if algebra.leq[c, a] and algebra.leq[c, b]]
    tops = [c for c in lower if all(algebra.leq[d, c] for d in lower)]
    assert len(tops) == 1
    return tops[0]


@pytest.mark.parametrize("factory", [
    lambda: make_chain(2),
    lambda: make_chain(3),
    lambda: make_chain(5),
    lambda: make_boolean(2),
    lambda: make_boolean(3),
])
def test_meet_join_against_brute_force(factory):
    A = factory()
    for a in range(A.n):
        for b in range(A.n):
            assert A.meet_table[a, b] == brute_meet(A, a, b)
            # joins are meets in the dual order
            dual = HeytingAlgebra(A.labels, A.leq.T.copy())
            assert A.join_table[a, b] == dual.meet_table[a, b]


@pytest.mark.parametrize("factory", [
    lambda: make_chain(3),
    lambda: make_boolean(2),
    lambda: make_boolean(3),
])
def test_implication_is_the_adjoint(factory):
    # c <= (a -> b) exactly when a /\ c <= b
    A = factory()
    for a in range(A.n):
        for b in range(A.n):
            r = A.impl_table[a, b]
            for c in range(A.n):
                assert bool(A.leq[c, r]) == bool(A.leq[A.meet_table[a, c], b])


def test_chain_labels_and_structure():
    A = make_chain(3)
    assert list(A.labels) == ["0", "m", "1"]
    assert A.bottom == 0 and A.top == 2
    m = A.index("m")
    assert A.imp(m, A.bottom) == A.bottom
    assert A.imp(A.top, m) == m
    assert not is_boolean(A)
    assert make_chain(1).n == 1
    assert is_boolean(make_chain(2))


def test_boolean_labels_and_structure():
    A = make_boolean(2)
    assert list(A.labels) == ["0", "a", "na", "1"]
    assert is_boolean(A)
    a, na = A.index("a"), A.index("na")
    assert A.meet(a, na) == A.bottom
    assert A.join(a, na) == A.top
    assert A.neg(a) == na
    assert is_boolean(make_boolean(0))
    assert make_boolean(3).n == 8


def test_frame_law_holds_on_all_factories():
    for A in (make_chain(4), make_boolean(3)):
        mt, jt = A.meet_table, A.join_table
        lhs = mt[:, jt]                       # a /\ (b \/ c)
        rhs = jt[mt[:, :, None], mt[:, None, :]]
        assert np.array_equal(lhs, rhs)


def test_wrapper_functions_validate_elements():
    A, B = make_chain(3), make_chain(2)
    assert meet(A, 1, 2) == 1
    assert implication(A, 2, 1) == 1
    assert negation(A, 0) == A.top
    assert big_meet(A, []) == A.top
    assert big_join(A, []) == A.bottom
    assert big_meet(A, [2, 1, 2]) == 1
    with pytest.raises(CrossAlgebra):
        meet(A, 1, 5)
    with pytest.raises(CrossAlgebra):
        meet(B, 1, 2)


def test_not_a_poset_reflexivity():
    leq = np.array([[0, 1], [0, 1]], dtype=bool)
    with pytest.raises(NotAPoset) as err:
        HeytingAlgebra(["x", "y"], leq)
    assert err.value.law == "reflexivity"


def test_not_a_poset_antisymmetry():
    leq = np.ones((2, 2), dtype=bool)
    with pytest.raises(NotAPoset) as err:
        HeytingAlgebra(["x", "y"], leq)
    assert err.value.law == "antisymmetry"
    assert set(err.value.witness) == {"x", "y"}


def test_not_a_poset_transitivity():
    n = 3
    leq = np.eye(n, dtype=bool)
    leq[0, 1] = leq[1, 2] = True  # 0<=1<=2 but not 0<=2
    with pytest.raises(NotAPoset) as err:
        HeytingAlgebra(["x", "y", "z"], leq)
    assert err.value.law == "transitivity"


def test_not_a_poset_transitivity_with_256_middles():
    # 0 <= m <= 1 for 256 middles m but not 0 <= 1: a count of the
    # middles that wraps at 256 would see none
    n = 258
    leq = np.eye(n, dtype=bool)
    leq[0, 2:] = leq[2:, 1] = True
    labels = ["0", "1"] + [f"m{k}" for k in range(256)]
    with pytest.raises(NotAPoset) as err:
        HeytingAlgebra(labels, leq)
    assert err.value.law == "transitivity"
    assert err.value.witness == ("0", "1")


def test_not_a_lattice_reports_kind_and_witness():
    # two incomparable tops: no join of the two atoms
    labels = ["0", "x", "y", "p", "q"]
    leq = np.eye(5, dtype=bool)
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)}
    for a, b in order:
        leq[a, b] = True
    with pytest.raises(NotALattice) as err:
        HeytingAlgebra(labels, leq)
    assert err.value.kind in ("meet", "join")


def test_m3_is_not_a_frame():
    labels = ["0", "a", "b", "c", "1"]
    leq = np.eye(5, dtype=bool)
    for i in range(5):
        leq[0, i] = True
        leq[i, 4] = True
    with pytest.raises(NotAFrame) as err:
        HeytingAlgebra(labels, leq)
    a, b, c = err.value.witness
    assert len({a, b, c}) == 3


def test_load_algebra_order_and_hasse_agree():
    by_hasse = load_algebra(
        "elements: 0, m, 1\nhasse: 0 < m\nhasse: m < 1\n", name="h")
    by_order = load_algebra(
        "elements: 0, m, 1\n"
        "order: 0 <= m\norder: 0 <= 1\norder: m <= 1\n", name="o")
    assert np.array_equal(by_hasse.leq, by_order.leq)
    assert by_hasse.content_hash() == by_order.content_hash()
    assert by_hasse.content_hash() == make_chain(3).content_hash()


def test_load_algebra_order_mode_is_literal():
    # order: lines state the whole relation; a missing composite is an error
    with pytest.raises(NotAPoset) as err:
        load_algebra("elements: 0, m, 1\norder: 0 <= m\norder: m <= 1\n")
    assert err.value.law == "transitivity"


def test_load_algebra_rejects_mixed_modes():
    with pytest.raises(ParseError):
        load_algebra("elements: 0, 1\nhasse: 0 < 1\norder: 0 <= 1\n")


def test_load_algebra_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_algebra("elements: 0, 1\nhasse: 0 < q\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_algebra("hasse: 0 < 1\n")
    with pytest.raises(ParseError):
        load_algebra("elements: 0, 1\nnonsense here\n")


def test_tables_are_read_only():
    A = make_chain(3)
    with pytest.raises(ValueError):
        A.meet_table[0, 0] = 1
    with pytest.raises(ValueError):
        A.leq[0, 0] = False


def test_content_hash_distinguishes_algebras():
    assert make_chain(3).content_hash() != make_chain(4).content_hash()
    assert make_chain(4).content_hash() != make_boolean(2).content_hash()


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_heyting_laws_on_the_eight_boolean(a, b, c):
    A = make_boolean(3)
    mt, jt, it = A.meet_table, A.join_table, A.impl_table
    assert mt[a, b] == mt[b, a]
    assert jt[a, jt[b, c]] == jt[jt[a, b], c]
    assert mt[a, jt[a, b]] == a
    # residuation
    assert A.leq[mt[a, it[a, b]], b]
    assert it[a, it[b, c]] == it[mt[a, b], c]


@given(st.integers(2, 6))
def test_chains_have_goedel_implication(n):
    A = make_chain(n)
    for a in range(n):
        for b in range(n):
            expected = A.top if a <= b else b
            assert A.impl_table[a, b] == expected


# -- join-irreducibles and Birkhoff's representation ------------------------

DIAMOND_ON_TOP = "elements: 0, a, b, ab, 1\nhasse: 0 < a\nhasse: 0 < b\n" \
                 "hasse: a < ab\nhasse: b < ab\nhasse: ab < 1\n"


def _frames():
    """The built-ins, the fixture frames, and a frame that is neither a
    chain nor Boolean: 0 < a, b < ab < 1."""
    out = {name: make() for name, make in BUILTIN_ALGEBRAS.items()}
    out.update({"chain5": make_chain(5), "boolean8": make_boolean(3),
                "diamond_on_top": load_algebra(DIAMOND_ON_TOP)})
    for path in sorted((Path(__file__).parent.parent / "fixtures").glob("*.alg")):
        try:
            out[path.name] = load_algebra(path.read_text())
        except NotAFrame:
            pass
    return out


def brute_join_irreducibles(A):
    # p != bottom and p is not the join of the elements strictly below it
    out = []
    for p in range(A.n):
        below = [q for q in range(A.n) if q != p and A.leq[q, p]]
        if p != A.bottom and big_join(A, below) != p:
            out.append(p)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(_frames()))
def test_join_irreducibles_match_the_definition(name):
    A = _frames()[name]
    assert A.join_irreducibles == brute_join_irreducibles(A)


@pytest.mark.parametrize("name", sorted(_frames()))
def test_birkhoff_order_is_inclusion_of_join_irreducibles(name):
    A = _frames()[name]
    J = A.join_irreducibles
    below = {a: {p for p in J if A.leq[p, a]} for a in range(A.n)}
    for a in range(A.n):
        for b in range(A.n):
            assert bool(A.leq[a, b]) == (below[a] <= below[b])


def test_join_irreducibles_are_computed_on_first_use():
    A = make_chain(4)
    assert "join_irreducibles" not in vars(A)
    assert A.join_irreducibles == (1, 2, 3)
    assert "join_irreducibles" in vars(A)
    assert make_boolean(3).join_irreducibles == (1, 2, 4)
    assert load_algebra(DIAMOND_ON_TOP).join_irreducibles == (1, 2, 4)
