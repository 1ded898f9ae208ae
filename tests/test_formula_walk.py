"""The formula shape helpers, comprehensions over `formula._walk`, against
the recursive helpers they replaced, kept verbatim as references, on the
hypothesis formulas of `test_eval_grid` (atoms over variables and store
constants under every connective and quantifier)."""

import pytest
from hypothesis import given, settings

from hvmodels import formula
from hvmodels.formula import (
    ATOMS,
    BINARY,
    And,
    BExists,
    BForall,
    Const,
    Eq,
    Implies,
    Not,
    Or,
    UExists,
    UForall,
    Var,
    free_vars,
    has_const,
    is_positive_bounded,
    parse_formula,
)

from test_eval_grid import _cases


def _free_vars(phi):
    if isinstance(phi, ATOMS):
        out = set()
        for t in (phi.left, phi.right):
            if isinstance(t, Var):
                out.add(t.name)
        return out
    if isinstance(phi, Not):
        return _free_vars(phi.body)
    if isinstance(phi, BINARY):
        return _free_vars(phi.left) | _free_vars(phi.right)
    if isinstance(phi, (BForall, BExists)):
        out = _free_vars(phi.body) - {phi.var}
        if isinstance(phi.bound, Var):
            out.add(phi.bound.name)
        return out
    if isinstance(phi, (UForall, UExists)):
        return _free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def _is_positive_bounded(phi):
    if isinstance(phi, ATOMS):
        return True
    if isinstance(phi, (And, Or)):
        return _is_positive_bounded(phi.left) and _is_positive_bounded(phi.right)
    if isinstance(phi, (BForall, BExists)):
        return _is_positive_bounded(phi.body)
    if isinstance(phi, (Not, Implies, UForall, UExists)):
        return False
    raise TypeError(f"not a formula: {phi!r}")


def _has_const(phi):
    if isinstance(phi, Const):
        return True
    return any(
        _has_const(child)
        for attr in ("left", "right", "bound", "body")
        if (child := getattr(phi, attr, None)) is not None
    )


def _preorder(phi, depth=0, bound=frozenset()):
    """Nodes in `eval`'s order, recursively, as `_walk` yields them."""
    yield phi, depth, bound
    if isinstance(phi, Not):
        yield from _preorder(phi.body, depth + 1, bound)
    elif isinstance(phi, BINARY):
        yield from _preorder(phi.left, depth + 1, bound)
        yield from _preorder(phi.right, depth + 1, bound)
    elif not isinstance(phi, ATOMS):
        yield from _preorder(phi.body, depth + 1, bound | {phi.var})


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_helpers_match_the_recursive_references(case):
    _, phi, _ = case
    assert free_vars(phi) == _free_vars(phi)
    assert is_positive_bounded(phi) == _is_positive_bounded(phi)
    assert has_const(phi) == _has_const(phi)
    walked = list(formula._walk(phi))
    assert walked == list(_preorder(phi))
    assert formula._height(phi) == max(depth for _, depth, _ in walked)


def test_the_bound_of_a_quantifier_is_read_outside_its_scope():
    phi = parse_formula("forall u in u . exists v in v . u = w", free=("u", "v", "w"))
    assert free_vars(phi) == _free_vars(phi) == {"u", "v", "w"}
    assert free_vars(parse_formula("forall u in X . u = u", free=("X",))) == {"X"}


def test_a_node_that_is_not_a_formula_raises_type_error():
    for phi in (Var("x"), And(Eq(Var("x"), Var("x")), "x = x"),
                BExists("u", Var("x"), None)):
        for helper in (free_vars, is_positive_bounded, has_const, formula._height):
            with pytest.raises(TypeError, match="not a formula"):
                helper(phi)
