import math
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import lattice
from hvmodels.cli import main
from hvmodels.errors import (
    BudgetExceeded,
    CrossAlgebra,
    HvError,
    NotAFrame,
    NotALattice,
    NotAPoset,
    ParseError,
)
from hvmodels.lattice import (
    BUILTIN_ALGEBRAS,
    MAX_ELEMENTS,
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda pairs: (n, sorted(pairs)))))
def test_hasse_closure_is_the_warshall_closure(relation):
    # any relation, cycles included: the matrix handed to the constructor
    # is its reflexive-transitive closure
    n, pairs = relation
    want = np.eye(n, dtype=bool)
    for a, b in pairs:
        want[a, b] = True
    for k in range(n):
        want |= want[:, k:k + 1] & want[k:k + 1, :]
    text = "elements: " + ", ".join(f"e{i}" for i in range(n)) + "\n"
    text += "".join(f"hasse: e{a} < e{b}\n" for a, b in pairs)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "HeytingAlgebra", lambda labels, leq, name: seen.append(leq))
        load_algebra(text)
    assert np.array_equal(seen[0], want)


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


# -- differential test against the frozen loop construction -------------------


class FrozenLoops(HeytingAlgebra):
    """The construction as it stood before the row-at-a-time kernels, kept
    verbatim as the reference: per-pair Python loops for the poset laws
    and for meets and joins, a frame check over n^3 arrays, a triple loop
    for the implication, and bottom and top as folds."""

    def __init__(self, labels, leq, name=None):
        labels = [str(s) for s in labels]
        if len(set(labels)) != len(labels):
            raise ParseError("duplicate element labels")
        n = len(labels)
        if n == 0:
            raise ParseError("an algebra needs at least one element")
        if n > MAX_ELEMENTS:
            raise BudgetExceeded(f"{n} elements exceeds the {MAX_ELEMENTS} cap")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ParseError("order matrix shape does not match element count")

        self.name = name
        self.labels = labels
        self._index = {s: i for i, s in enumerate(labels)}
        self.n = n
        self.leq = leq

        self._check_poset()
        self.meet_table, self.join_table = self._compute_bounds()
        # fold instead of min(): indices are arbitrary, order is not
        bot = 0
        top = 0
        for i in range(1, n):
            bot = int(self.meet_table[bot, i])
            top = int(self.join_table[top, i])
        self.bottom = bot
        self.top = top
        self._check_frame()
        self.impl_table = self._compute_implication()
        for arr in (self.leq, self.meet_table, self.join_table, self.impl_table):
            arr.setflags(write=False)

    def _check_poset(self):
        # each law reports its first failing element or pair in row order
        n, leq, labels = self.n, self.leq, self.labels
        for i in range(n):
            if not leq[i, i]:
                raise NotAPoset("reflexivity", (labels[i],))
        for i in range(n):
            for j in range(n):
                if i != j and leq[i, j] and leq[j, i]:
                    raise NotAPoset("antisymmetry", (labels[i], labels[j]))
        for i in range(n):
            for j in range(n):
                if not leq[i, j] and any(leq[i, k] and leq[k, j] for k in range(n)):
                    raise NotAPoset("transitivity", (labels[i], labels[j]))

    def _compute_bounds(self):
        n = self.n
        leq = self.leq
        meet = np.empty((n, n), dtype=np.int64)
        join = np.empty((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(a, n):
                lows = leq[:, a] & leq[:, b]
                m = self._greatest(lows)
                if m is None:
                    raise NotALattice("meet", (self.labels[a], self.labels[b]))
                ups = leq[a, :] & leq[b, :]
                j = self._least(ups)
                if j is None:
                    raise NotALattice("join", (self.labels[a], self.labels[b]))
                meet[a, b] = meet[b, a] = m
                join[a, b] = join[b, a] = j
        return meet, join

    def _greatest(self, mask):
        for m in np.flatnonzero(mask):
            if np.all(~mask | self.leq[:, m]):
                return int(m)
        return None

    def _least(self, mask):
        for m in np.flatnonzero(mask):
            if np.all(~mask | self.leq[m, :]):
                return int(m)
        return None

    def _check_frame(self):
        # a /\ (b \/ c) == (a /\ b) \/ (a /\ c) for all triples
        mt, jt = self.meet_table, self.join_table
        lhs = mt[:, jt]                      # lhs[a, b, c]
        rhs = jt[mt[:, :, None], mt[:, None, :]]
        bad = lhs != rhs
        if bad.any():
            a, b, c = map(int, np.argwhere(bad)[0])
            raise NotAFrame((self.labels[a], self.labels[b], self.labels[c]))

    def _compute_implication(self):
        n = self.n
        impl = np.empty((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                # \/ {c : a /\ c <= b}
                mask = self.leq[self.meet_table[a], b]
                v = self.bottom
                for c in np.flatnonzero(mask):
                    v = int(self.join_table[v, c])
                impl[a, b] = v
        return impl


def _outcome(build):
    """What a construction yields: its tables with their dtype, bottom and
    top, or the type, message and witness of the error it raises."""
    try:
        A = build()
    except HvError as ex:
        return ("error", type(ex).__name__, str(ex), getattr(ex, "witness", None))
    tables = (A.meet_table, A.join_table, A.impl_table)
    return ("ok", [(t.dtype.str, t.shape, t.tobytes()) for t in tables], A.bottom, A.top)


def assert_same_as_frozen_loops(build):
    """`build` gives the same outcome with the constructor it calls swapped
    for the frozen loop construction."""
    got = _outcome(build)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "HeytingAlgebra", FrozenLoops)
        want = _outcome(build)
    assert got == want


@st.composite
def shuffled_posets(draw):
    """The transitive closure of a random upper-triangular relation on at
    most 8 elements, with its indices shuffled."""
    n = draw(st.integers(1, 8))
    rel = np.eye(n, dtype=bool)
    pairs = n * (n - 1) // 2
    rel[np.triu_indices(n, 1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    for k in range(n):
        rel |= rel[:, k:k + 1] & rel[k:k + 1, :]
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    leq = np.empty_like(rel)
    leq[np.ix_(perm, perm)] = rel
    return [f"e{i}" for i in range(n)], leq


@st.composite
def shuffled_chain_products(draw):
    """A product of up to three chains, its elements in a random order."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda s: math.prod(s) <= 32))
    elems = list(product(*(range(k) for k in shape)))
    elems = [elems[i] for i in draw(st.permutations(range(len(elems))))]
    coords = np.array(elems)
    leq = (coords[:, None, :] <= coords[None, :, :]).all(axis=2)
    return ["_".join(map(str, e)) for e in elems], leq


@st.composite
def broken_posets(draw):
    """A `shuffled_posets` order with 1 to 3 cells flipped: most break
    reflexivity, antisymmetry or transitivity, and some break several,
    so the law reported first and its witness are both compared."""
    labels, leq = draw(shuffled_posets())
    leq = leq.copy()
    n = len(labels)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        leq[i, j] = not leq[i, j]
    return labels, leq


@settings(max_examples=300, deadline=None)
@given(broken_posets())
def test_broken_posets_match_the_frozen_loops(poset):
    labels, leq = poset
    assert_same_as_frozen_loops(lambda: lattice.HeytingAlgebra(labels, leq))


@settings(max_examples=150, deadline=None)
@given(shuffled_posets())
def test_random_posets_match_the_frozen_loops(poset):
    labels, leq = poset
    assert_same_as_frozen_loops(lambda: lattice.HeytingAlgebra(labels, leq))


@settings(max_examples=60, deadline=None)
@given(shuffled_chain_products())
def test_shuffled_chain_products_match_the_frozen_loops(poset):
    labels, leq = poset
    assert_same_as_frozen_loops(lambda: lattice.HeytingAlgebra(labels, leq))


FIXTURE_ALGEBRAS = sorted((Path(__file__).parent.parent / "fixtures").glob("*.alg"))


@pytest.mark.parametrize("build", [
    *BUILTIN_ALGEBRAS.values(),
    lambda: make_chain(64),
    lambda: make_boolean(5),
    *(lambda p=p: load_algebra(p.read_text(), name=p.stem) for p in FIXTURE_ALGEBRAS),
], ids=[*BUILTIN_ALGEBRAS, "chain64", "boolean32", *(p.name for p in FIXTURE_ALGEBRAS)])
def test_builders_and_fixtures_match_the_frozen_loops(build):
    assert_same_as_frozen_loops(build)


def test_not_a_lattice_pins_the_first_failing_pair():
    # the example of test_not_a_lattice_reports_kind_and_witness: x and y
    # have the meet 0 but two incomparable least upper bounds
    labels = ["0", "x", "y", "p", "q"]
    leq = np.eye(5, dtype=bool)
    for a, b in {(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)}:
        leq[a, b] = True
    with pytest.raises(NotALattice) as err:
        HeytingAlgebra(labels, leq)
    assert (err.value.kind, err.value.witness) == ("join", ("x", "y"))
    # without 0, the pair lacks both bounds, and the meet is reported
    with pytest.raises(NotALattice) as err:
        HeytingAlgebra(labels[1:], leq[1:, 1:])
    assert (err.value.kind, err.value.witness) == ("meet", ("x", "y"))


# -- the frame law on join-irreducibles ---------------------------------------

M3 = ["0", "a", "b", "c", "1"], {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}
N5 = ["0", "a", "b", "c", "1"], {(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)}


def _order(lattice_spec):
    """The labels and the reflexive-transitive order of (labels, covers)."""
    labels, covers = lattice_spec
    leq = np.eye(len(labels), dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for k in range(len(labels)):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return labels, leq


def _hidden(base, other):
    """M3 or N5 times a chain of `other` elements or the four-element
    Boolean algebra, as labels and the product order."""
    la, a = _order(M3 if base == "m3" else N5)
    B = make_chain(other) if isinstance(other, int) else make_boolean(2)
    leq = (a[:, None, :, None] & B.leq[None, :, None, :]).reshape(len(la) * B.n, -1)
    return [f"{x}_{y}" for x in la for y in B.labels], leq


def brute_join_table(leq):
    n = len(leq)
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            ups = leq[a] & leq[b]
            table[a, b] = next(c for c in np.flatnonzero(ups) if (~ups | leq[c]).all())
    return table


HIDDEN = [("m3", 1), ("n5", 1), ("m3", 2), ("m3", 3), ("m3", 4), ("n5", 3), ("n5", "boolean4")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HIDDEN[2:]), st.randoms(use_true_random=False))
def test_hidden_m3_and_n5_match_the_frozen_loops(factors, rnd):
    # the NotAFrame witness of the row-block search is the first failing
    # (a, b, c) of the n^3 reference, wherever the indices put the sublattice
    labels, leq = _hidden(*factors)
    perm = np.array(rnd.sample(range(len(labels)), len(labels)))
    labels, leq = [labels[i] for i in perm], leq[np.ix_(perm, perm)]
    assert_same_as_frozen_loops(lambda: lattice.HeytingAlgebra(labels, leq))
    with pytest.raises(NotAFrame):
        HeytingAlgebra(labels, leq)


@pytest.mark.parametrize("factors", HIDDEN, ids=[f"{a}x{b}" for a, b in HIDDEN])
def test_join_irreducibles_are_not_all_join_prime_off_frames(factors):
    _, leq = _hidden(*factors)
    assert not lattice._join_irreducibles_join_prime(leq, brute_join_table(leq))


@pytest.mark.parametrize("name", [*sorted(_frames()), "chain512", "boolean512"])
def test_join_irreducibles_are_join_prime_on_frames(name):
    A = {"chain512": lambda: make_chain(512), "boolean512": lambda: make_boolean(9)}.get(
        name, lambda: _frames()[name])()
    assert lattice._join_irreducibles_join_prime(A.leq, A.join_table)


# -- the element cap and the cost of construction -----------------------------


def assert_goedel_chain(A):
    i = np.arange(A.n)
    assert (A.bottom, A.top) == (0, A.n - 1)
    assert np.array_equal(A.meet_table, np.minimum.outer(i, i))
    assert np.array_equal(A.join_table, np.maximum.outer(i, i))
    assert np.array_equal(A.impl_table, np.where(i[:, None] <= i, A.n - 1, i))


def assert_powerset(A):
    # element i is the set of atoms whose bits i has
    i = np.arange(A.n)
    assert (A.bottom, A.top) == (0, A.n - 1)
    assert np.array_equal(A.meet_table, np.bitwise_and.outer(i, i))
    assert np.array_equal(A.join_table, np.bitwise_or.outer(i, i))
    assert np.array_equal(A.impl_table, np.bitwise_or.outer(~i, i) & (A.n - 1))


def test_algebras_at_the_cap_build():
    assert MAX_ELEMENTS == 512
    assert_goedel_chain(make_chain(MAX_ELEMENTS))
    assert_powerset(make_boolean(MAX_ELEMENTS.bit_length() - 1))


def _labels_text(n):
    return "elements: " + ", ".join(f"e{i}" for i in range(n)) + "\n"


@pytest.mark.parametrize("build, predicted", [
    (lambda: make_chain(MAX_ELEMENTS + 1), MAX_ELEMENTS + 1),
    (lambda: make_boolean(10), 1024),
    (lambda: HeytingAlgebra([f"e{i}" for i in range(MAX_ELEMENTS + 1)],
                            np.eye(MAX_ELEMENTS + 1, dtype=bool)), MAX_ELEMENTS + 1),
    (lambda: load_algebra(_labels_text(MAX_ELEMENTS + 1)), MAX_ELEMENTS + 1),
], ids=["make_chain", "make_boolean", "HeytingAlgebra", "load_algebra"])
def test_past_the_cap_is_a_budget_error(build, predicted):
    with pytest.raises(BudgetExceeded) as err:
        build()
    assert (err.value.predicted, err.value.budget) == (predicted, MAX_ELEMENTS)


def test_cli_reports_an_algebra_past_the_cap(capsys, tmp_path):
    path = tmp_path / "big.alg"
    path.write_text(_labels_text(MAX_ELEMENTS + 1))
    assert main(["algebra", "show", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BudgetExceeded:")


def test_construction_memory_is_quadratic():
    # the n^3 frame check peaked at 34 MiB on this chain, the
    # row-at-a-time one under 1 MiB; tracemalloc sees numpy's buffers
    tracemalloc.start()
    try:
        A = make_chain(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert_goedel_chain(A)
    assert_powerset(make_boolean(7))


def test_construction_leaves_the_callers_order_writable():
    leq = np.array([[True, True], [False, True]])
    HeytingAlgebra(["a", "b"], leq)
    leq[0, 0] = True
