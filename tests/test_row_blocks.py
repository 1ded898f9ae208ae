"""The one row-block rule, `lattice._row_blocks`, and the loops built on it.

Every blocked loop of the package sizes its blocks with `_row_blocks`
from its own cell budget.  The blocks change how much memory a step
takes, never what it computes: with every budget cut to one cell, so
that each block is a single row, the tables, witnesses and verdicts
must be the ones of the default budgets.
"""

from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import hset as hs
from hvmodels import lattice
from hvmodels.errors import NotAFrame, NotALattice
from hvmodels.lattice import HeytingAlgebra, _row_blocks, load_algebra, make_boolean, make_chain

from test_category_families import corpora

FIXTURES = Path(__file__).parent.parent / "fixtures"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.integers(0, 60), st.integers(0, 1000))
def test_row_blocks_cover_every_row_once_in_order(n, row_cells, cells):
    blocks = _row_blocks(n, row_cells, cells)
    step = max(1, cells // max(1, row_cells))
    assert all(isinstance(b, slice) and b.stop - b.start == step for b in blocks)
    assert [b.start for b in blocks] == list(range(0, n, step))
    rows = [r for b in blocks for r in range(n)[b]]
    assert rows == list(range(n))


def _one_cell_budgets(mp):
    for module, name in ((lattice, "SLAB_CELLS"), (lattice, "GATHER_CELLS"),
                         (hs, "SLAB_CELLS")):
        mp.setattr(module, name, 1)


def _tables(build):
    A = build()
    return A.meet_table, A.join_table, A.impl_table, A.codes.table


ALGEBRAS = {
    **{f"chain{n}": (lambda n=n: make_chain(n)) for n in (1, 2, 5, 12, 40)},
    **{f"boolean{1 << k}": (lambda k=k: make_boolean(k)) for k in range(6)},
    **{p.stem: (lambda p=p: load_algebra(p.read_text())) for p in sorted(FIXTURES.glob("*.alg"))
       if p.stem != "m3"},
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_tables_do_not_depend_on_the_block_budgets(name):
    whole = _tables(ALGEBRAS[name])
    with pytest.MonkeyPatch.context() as mp:
        _one_cell_budgets(mp)
        rows = _tables(ALGEBRAS[name])
    for a, b in zip(whole, rows):
        np.testing.assert_array_equal(a, b)


# the five-element poset 0 < a, b < c, d with no meet of c and d (a and
# b are both maximal below them) and no join of a and b
NO_MEET = (["0", "a", "b", "c", "d"],
           [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


def _no_meet():
    labels, covers = NO_MEET
    leq = np.eye(len(labels), dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    leq[0] = True
    return HeytingAlgebra(labels, leq)


@pytest.mark.parametrize("build,error", [
    (lambda: load_algebra((FIXTURES / "m3.alg").read_text()), NotAFrame),
    (_no_meet, NotALattice),
], ids=["m3", "no-meet"])
def test_witnesses_do_not_depend_on_the_block_budgets(build, error):
    with pytest.raises(error) as whole:
        build()
    with pytest.MonkeyPatch.context() as mp:
        _one_cell_budgets(mp)
        with pytest.raises(error) as rows:
            build()
    assert str(rows.value) == str(whole.value)


def test_two_byte_decode_and_interior_do_not_depend_on_the_gather_budget():
    A = make_chain(12)
    codes = A.codes
    assert codes.width == 2
    rng = np.random.default_rng(12)
    elements = rng.integers(0, A.n, size=(37, 5))
    encoded = codes.encode(elements)
    arbitrary = rng.integers(0, 256, size=(37, 5, 2), dtype=np.uint8)
    arbitrary[..., 1] &= (1 << (codes.size - 8)) - 1   # bits past |J| are 0
    whole = codes.decode(encoded), codes.interior(arbitrary.copy())
    with pytest.MonkeyPatch.context() as mp:
        _one_cell_budgets(mp)
        rows = codes.decode(encoded), codes.interior(arbitrary.copy())
    np.testing.assert_array_equal(whole[0], elements)
    for a, b in zip(whole, rows):
        np.testing.assert_array_equal(a, b)


def _verdicts(corpus, graphs, algebras):
    """For every ordered pair of H-sets, the `morphism_law_masks` mask of
    its tables as one stack, and the first failure of each table alone."""
    out = []
    for aname, hsets in corpus.items():
        A = algebras[aname]
        for X, Y in iproduct(hsets, hsets):
            phis = [m.phi for m in graphs[id(X), id(Y)]]
            if not phis:
                continue
            mask = hs.morphism_law_masks(A, X.delta, Y.delta, np.stack(phis))
            firsts = []
            for phi in phis:
                first = {}
                hs.morphism_law_masks(A, X.delta, Y.delta, phi[None], first)
                firsts.append(first)
            out.append((mask.tolist(), firsts))
    return out


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_morphism_law_masks_do_not_depend_on_the_slab_budget(case):
    algebras, corpus, graphs = case
    whole = _verdicts(corpus, graphs, algebras)
    with pytest.MonkeyPatch.context() as mp:
        _one_cell_budgets(mp)
        assert _verdicts(corpus, graphs, algebras) == whole


def test_morphism_law_masks_witness_a_later_block():
    # source classes {0, 1} and {2}, a target of two equal points, and
    # row 2 of phi (top, m): only target congruence fails, at x = 2, so
    # one-row blocks find it in the third block, at the same place
    A = make_chain(3)
    t, m = A.top, 1
    X = hs.HSet(A, range(3), [[t, t, 0], [t, t, 0], [0, 0, t]])
    Y = hs.HSet(A, range(2), np.full((2, 2), t))
    phi = np.array([[t, t], [t, t], [t, m]])[None]
    firsts = []
    for budget in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if budget:
                _one_cell_budgets(mp)
            first = {}
            assert not hs.morphism_law_masks(A, X.delta, Y.delta, phi, first)[0]
            firsts.append(first)
    assert firsts[0] == firsts[1] == {"target congruence": (2, 1, 0, t, m)}
