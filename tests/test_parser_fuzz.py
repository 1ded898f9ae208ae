"""Mutation fuzzing of every text reader: each input ends in a parse
result or an `HvError`, never in another exception.

Valid texts (the fixtures and a few formulas and name literals) are
mutated by hypothesis: characters and syntax tokens are inserted,
deleted or replaced, short spans are repeated up to past the nesting
cap, and the text may be cut short.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hvmodels.cli import Session, _run_script, build_parser
from hvmodels.errors import HvError
from hvmodels.formula import parse_formula
from hvmodels.hset import parse_hset_file
from hvmodels.lattice import BUILTIN_ALGEBRAS, load_algebra, make_boolean, make_chain
from hvmodels.names import NameStore, parse_name_literal
from hvmodels.transfer import parse_morphism

FIXTURES = Path(__file__).parent.parent / "fixtures"

TOKENS = ("{", "}", "(", ")", ",", ".", "=", "<", "<=", "->", ":", "#", "~",
          "/\\", "\\/", " ", "\n", "\t", '"', "in", "forall", "exists", "algebra",
          "let", "eval", "lift", "fragment", "elements:", "hasse:", "order:",
          "map:", "morphism", "hset", "over", "points:", "delta:", "phi:",
          "0", "1", "m", "a", "na", "e", "u", "x", "zz", "chain3", "four",
          "two", "é", "\x00", "999999999999")


@st.composite
def mutated(draw, seeds):
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace", "repeat", "cut")))
        if op == "insert":
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif op == "replace":
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at + 1:]
        elif op == "repeat":
            span = text[at:at + draw(st.integers(1, 3))]
            text = text[:at] + span * draw(st.integers(2, 150)) + text[at:]
        else:
            text = text[:at]
    return text


def _fixtures(suffix):
    return [p.read_text() for p in sorted(FIXTURES.glob(f"*.{suffix}"))]


def _only_hv_errors(parse, text):
    try:
        parse(text)
    except HvError:
        pass


ALGEBRAS = {"chain3": make_chain(3), "four": make_boolean(2), "two": make_chain(2)}
FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(mutated(_fixtures("alg")))
def test_load_algebra_fuzz(text):
    _only_hv_errors(load_algebra, text)


@FUZZ
@given(mutated(_fixtures("mor")))
def test_parse_morphism_fuzz(text):
    _only_hv_errors(lambda t: parse_morphism(t, ALGEBRAS), text)


@FUZZ
@given(mutated(_fixtures("hset")))
def test_parse_hset_file_fuzz(text):
    _only_hv_errors(lambda t: parse_hset_file(t, ALGEBRAS), text)


@pytest.fixture(scope="module")
def script_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.eval"


@FUZZ
@given(mutated(_fixtures("eval") + _fixtures("names")))
def test_script_reader_fuzz(script_path, text):
    def read(t):
        script_path.write_text(t, encoding="utf-8")
        session = Session(build_parser().parse_args(["eval", str(script_path)]))
        _run_script(session, script_path)

    _only_hv_errors(read, text)


FORMULAS = ("u = u", "e in u \\/ ~(e in u)", "forall w in u . w in u",
            "exists p in H . forall q in p . q = X -> X in H",
            "~~(exists u in X . u = Y) /\\ X = X")


@FUZZ
@given(mutated(FORMULAS))
def test_parse_formula_fuzz(text):
    _only_hv_errors(lambda t: parse_formula(t, constants={"e": 0, "u": 1},
                                            free=("H", "X", "Y")), text)


LITERALS = ("{}", "{({}, 1)}", "{(e, m), ({({}, 0)}, 1),}", "{(u, m), (e, 0)}")


@FUZZ
@given(mutated(LITERALS))
def test_parse_name_literal_fuzz(text):
    store = NameStore(BUILTIN_ALGEBRAS["chain3"]())
    e = store.empty
    bindings = {"e": e, "u": store.intern({e: 1})}
    _only_hv_errors(lambda t: parse_name_literal(store, t, bindings), text)
