"""Command-line interface tests, driven through main(argv)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvmodels import checks
from hvmodels.cli import SUITES, Session, _run_script, build_parser, main
from hvmodels.errors import MAX_NESTING, BudgetExceeded, ParseError
from hvmodels.hset import parse_hset_file
from hvmodels.lattice import is_boolean, load_algebra, make_boolean, make_chain
from hvmodels.transfer import parse_morphism
from hvmodels.valuation import GRID_BUDGET

GOLDEN = Path(__file__).parent / "data" / "cli_json_golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_check_valid(capsys, fixtures_dir):
    code, out, err = run(capsys, "algebra", "check", str(fixtures_dir / "four.alg"))
    assert code == 0 and err == ""
    assert "valid frame with 4 elements" in out
    assert "bottom: 0  top: 1" in out
    assert "boolean: yes" in out


def test_algebra_check_rejects_non_frame(capsys, fixtures_dir):
    code, out, err = run(capsys, "algebra", "check", str(fixtures_dir / "m3.alg"))
    assert code == 1
    assert err.startswith("error: NotAFrame")


def frozen_table_text(algebra, table, title):
    # `_table_text` as it stood with one numpy scalar per cell
    width = max(len(l) for l in algebra.labels) + 1
    head = " " * width + " ".join(l.rjust(width) for l in algebra.labels)
    lines = [f"{title}:", head]
    for i, row in enumerate(table):
        lines.append(
            algebra.labels[i].rjust(width)
            + " ".join(algebra.labels[v].rjust(width) for v in row)
        )
    return "\n".join(lines)


def frozen_show_text(algebra):
    # the text of `algebra show` as it stood, with an n^2 loop for the order
    parts = [f"{algebra.name}: {algebra.n} elements: " + " ".join(algebra.labels)]
    order = [
        f"{algebra.labels[a]} <= {algebra.labels[b]}"
        for a in range(algebra.n)
        for b in range(algebra.n)
        if a != b and algebra.leq[a, b]
    ]
    parts.append("order: " + ("; ".join(order) if order else "(discrete)"))
    parts.append(frozen_table_text(algebra, algebra.meet_table, "meet"))
    parts.append(frozen_table_text(algebra, algebra.join_table, "join"))
    parts.append(frozen_table_text(algebra, algebra.impl_table, "implication"))
    return "\n".join(parts) + "\n"


def _chain_product_text(shape, seed):
    """An .alg text of the product of chains of the given lengths, its
    elements listed in a shuffled order, with every order pair."""
    elems = [tuple(e) for e in np.ndindex(*shape)]
    elems = [elems[i] for i in np.random.default_rng(seed).permutation(len(elems))]
    labels = ["p" + "".join(map(str, e)) for e in elems]
    lines = ["elements: " + ", ".join(labels)]
    lines += [f"order: {labels[i]} <= {labels[j]}"
              for i, x in enumerate(elems) for j, y in enumerate(elems)
              if i != j and all(a <= b for a, b in zip(x, y))]
    return "\n".join(lines) + "\n"


def assert_show_matches_the_per_cell_rendering(path, capsys):
    algebra = load_algebra(path.read_text(), name=path.stem)
    code, out, err = run(capsys, "algebra", "show", str(path))
    assert (code, err) == (0, "")
    assert out == frozen_show_text(algebra)
    assert is_boolean(algebra) == all(
        algebra.join(a, algebra.neg(a)) == algebra.top for a in range(algebra.n))


FIXTURE_FRAMES = sorted(p.name for p in (Path(__file__).parent.parent / "fixtures").glob("*.alg")
                        if p.name != "m3.alg")


@pytest.mark.parametrize("filename", FIXTURE_FRAMES)
def test_algebra_show_of_fixtures_matches_the_per_cell_rendering(filename, capsys, fixtures_dir):
    assert_show_matches_the_per_cell_rendering(fixtures_dir / filename, capsys)


@pytest.mark.parametrize("shape, seed", [((1,), 0), ((2, 2), 1), ((3, 4), 2), ((2, 2, 2), 3),
                                         ((4, 8), 4), ((2, 4, 4), 5), ((32,), 6)])
def test_algebra_show_of_chain_products_matches_the_per_cell_rendering(shape, seed, capsys,
                                                                      tmp_path):
    path = tmp_path / f"product{seed}.alg"
    path.write_text(_chain_product_text(shape, seed))
    assert_show_matches_the_per_cell_rendering(path, capsys)


def test_algebra_show_prints_tables(capsys, fixtures_dir):
    code, out, _ = run(capsys, "algebra", "show", str(fixtures_dir / "chain3.alg"))
    assert code == 0
    for section in ("order:", "meet:", "join:", "implication:"):
        assert section in out


def test_eval_script(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", str(fixtures_dir / "excluded_middle.eval"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "u = u  =  1",
        r"e in u \/ ~(e in u)  =  m",
        "forall w in u . w in u  =  1",
    ]


def test_eval_error_names_line_and_column(capsys, tmp_path):
    script = tmp_path / "bad.eval"
    script.write_text("algebra chain3\nlet a = {({}, zz)}\n")
    code, _, err = run(capsys, "eval", str(script))
    assert code == 1
    assert err == "error: ParseError: unknown element label 'zz' (line 2, col 14)\n"


@pytest.mark.parametrize("line,col", [
    ('eval "a = = a"', 10),
    ("eval a in $ a", 10),
    ("  let b = {(a, 1), (a, q)}", 23),
])
def test_script_error_columns_count_from_the_line_start(capsys, tmp_path, line, col):
    script = tmp_path / "bad.eval"
    script.write_text(f"algebra chain3\nlet a = {{}}\n{line}  # note\n")
    code, _, err = run(capsys, "eval", str(script))
    assert code == 1
    assert err.endswith(f"(line 3, col {col})\n"), err


DEEP = 3000


@pytest.mark.parametrize("line", [
    'eval "' + "~" * DEEP + 'a = a"',
    'eval "' + "(" * DEEP + "a = a" + ")" * DEEP + '"',
    "let b = " + "{(" * DEEP + "{}" + ", 1)}" * DEEP,
], ids=["negations", "parentheses", "name-literal"])
def test_deep_input_is_a_parse_error(capsys, tmp_path, line):
    script = tmp_path / "deep.eval"
    script.write_text(f"algebra chain3\nlet a = {{}}\n{line}\n")
    code, out, err = run(capsys, "eval", str(script))
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: ParseError: [^\n]* \(line 3, col \d+\)\n", err), err[:300]


def test_input_at_the_nesting_limit_evaluates_and_prints(capsys, tmp_path):
    n = MAX_NESTING
    script = tmp_path / "limit.eval"
    script.write_text(
        "algebra chain3\nlet a = {}\n"
        "let b = " + "{(" * (n - 1) + "{}" + ", 1)}" * (n - 1) + "\n"
        'eval "' + "~" * n + 'a = a"\n'
        'eval "' + "(" * n + "b = b" + ")" * n + '"\n'
        'eval "' + " /\\ ".join(["a in b"] * (n + 1)) + '"\n'
    )
    code, out, err = run(capsys, "eval", str(script), "--json", str(tmp_path / "out.json"))
    assert code == 0, err
    payload = json.loads((tmp_path / "out.json").read_text())
    assert [r["value"] for r in payload["results"]] == ["1", "1", "0"]
    assert payload["bindings"]["b"].count("{") == n


def test_deep_let_chain_evaluates_and_prints(capsys, tmp_path):
    # each line is within every parse limit, but the last name has rank
    # 600, and every binding is printed
    n = 600
    lines = ["algebra chain3", "let a0 = {}"]
    lines += [f"let a{k} = {{(a{k - 1}, 1)}}" for k in range(1, n + 1)]
    lines.append(f'eval "a{n - 1} in a{n}"')
    script = tmp_path / "chain.eval"
    script.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "eval", str(script), "--json", str(tmp_path / "out.json"))
    assert code == 0, err[-300:]
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["bindings"][f"a{n}"] == "{(" * n + "{}" + ", 1)}" * n
    assert [r["value"] for r in payload["results"]] == ["1"]


def test_eval_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "nope.eval"))
    assert code == 1 and err.startswith("error:")


def test_lift_pinned_name(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "lift", str(fixtures_dir / "f.mor"), str(fixtures_dir / "x.names")
    )
    assert code == 0
    assert "morphism f : four -> two" in out
    assert "name x = " in out
    assert "image = {({({}, 0)}, 0), ({({}, 0), ({({}, 1)}, 0)}, 1)}" in out
    assert "witness bijection:" in out
    assert "generalized related: yes" in out


def test_lift_explicit_binding(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "lift", str(fixtures_dir / "f.mor"), str(fixtures_dir / "x.names"),
        "--name", "u1",
    )
    assert code == 0
    assert "name u1 = {({}, 0)}" in out
    assert "image = {({}, 0)}" in out


def test_lift_unknown_binding(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "lift", str(fixtures_dir / "f.mor"), str(fixtures_dir / "x.names"),
        "--name", "zz",
    )
    assert code == 1 and "error: ParseError" in err


def test_lift_reports_the_real_error_of_an_adjacent_algebra(capsys, tmp_path, fixtures_dir):
    (tmp_path / "bad.alg").write_text((fixtures_dir / "m3.alg").read_text())
    mor = tmp_path / "g.mor"
    mor.write_text("morphism g : bad -> two\nmap: 0 -> 0\n")
    code, _, err = run(capsys, "lift", str(mor), str(fixtures_dir / "x.names"))
    assert code == 1
    assert err.startswith("error: NotAFrame")


def test_lift_cross_algebra(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "lift", str(fixtures_dir / "collapse0.mor"),
        str(fixtures_dir / "x.names"),
    )
    assert code == 1 and "error: CrossAlgebra" in err


def test_check_properties_summary_line(capsys):
    code, out, _ = run(
        capsys, "check", "properties", "--algebra", "chain3", "--rank", "2"
    )
    assert code == 0
    assert "11/11 property families pass" in out


def test_check_counterexample(capsys):
    code, out, _ = run(capsys, "check", "counterexample")
    assert code == 0
    assert "property families pass" in out


def test_consecutive_calls_share_no_state(capsys, tmp_path):
    # the parser is built once per process; options of one call must not
    # reach the next
    assert build_parser() is build_parser()
    out = tmp_path / "first.json"
    code, text, _ = run(capsys, "check", "properties", "--algebra", "chain2",
                        "--rank", "1", "--json", str(out))
    assert code == 0 and out.exists()
    assert text.count("== valuation laws over") == 1
    out.unlink()
    code, text, _ = run(capsys, "check", "properties", "--rank", "1")
    assert code == 0 and not out.exists()
    assert text.count("== valuation laws over") == 3
    args = build_parser().parse_args(["check", "counterexample"])
    assert (args.algebra, args.json, args.rank, args.budget) == (None, None, 2, None)


def test_check_budget_reaches_the_injective_suite(capsys):
    # without the budget, rank 3 would enumerate 3**27 names over chain2
    code, out, err = run(capsys, "check", "counterexample", "--rank", "3",
                         "--budget", "100000")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: BudgetExceeded:")


@pytest.mark.parametrize("argv", [
    ["eval", "excluded_middle.eval", "--rank", "3"],
    ["algebra", "check", "four.alg", "--seed", "5"],
    ["lift", "f.mor", "x.names", "--max-domain", "3"],
    ["eval", "excluded_middle.eval", "--budget", "10"],
])
def test_sweep_options_belong_to_check(argv, capsys, fixtures_dir):
    argv = [str(fixtures_dir / a) if "." in a else a for a in argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [
    lambda: checks.injective_suite(rank=3, budget=10**5),
    lambda: checks.preservation_suite(rank=2, budget=10),
    lambda: checks.functoriality_suite(rank=2, budget=10),
    lambda: checks.hset_law_suite(rank=2, budget=10),
], ids=["injective", "preservation", "functoriality", "hset-laws"])
def test_suites_take_the_enumeration_budget(suite):
    with pytest.raises(BudgetExceeded) as err:
        suite()
    assert err.value.predicted > err.value.budget


@pytest.mark.parametrize("flag", ["--rank", "--max-domain", "--budget"])
def test_a_negative_sweep_flag_is_a_usage_error(flag):
    proc = subprocess.run(
        [sys.executable, "-m", "hvmodels", "check", "properties", flag, "-1"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(f"argument {flag}: must be >= 0, got -1")


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("flag", ["--rank", "--max-domain", "--budget", "--seed"])
@pytest.mark.parametrize("suite", ["counterexample", "properties", "preservation",
                                   "functoriality", "hset-laws"])
def test_sweep_flags_at_zero_and_below_end_in_an_exit_code(suite, flag, value, capsys):
    # an uncaught exception would fail the test here, as a traceback
    try:
        code = main(["check", suite, flag, value])
    except SystemExit as exit_:
        code = exit_.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if flag in ("--rank", "--max-domain", "--budget") and value == "-1":
        assert code == 2


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["counterexample", "properties", "preservation", "functoriality",
                        "hset-laws"]),
       st.fixed_dictionaries({flag: st.one_of(st.none(), st.integers(-3, 3)) for flag in
                              ("--rank", "--max-domain", "--budget", "--seed")}))
def test_small_sweep_flag_values_end_in_an_exit_code(suite, flags):
    # every call is answered or refused at once: rank 3 is refused by the
    # enumeration prediction, a negative rank, cap or budget by the parser
    argv = ["check", suite]
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, str(value)]
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    assert code in (0, 1, 2)
    negative = any((flags[f] or 0) < 0 for f in ("--rank", "--max-domain", "--budget"))
    assert (code == 2) == negative


def test_rank3_counterexample_stops_at_the_enumeration_budget():
    # round 3 over the two-chain would intern 3^27 mappings; the default
    # budget refuses it before the first one
    proc = subprocess.run(
        [sys.executable, "-m", "hvmodels", "check", "counterexample", "--rank", "3"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BudgetExceeded:")
    assert f"{3 ** 27} mappings" in lines[0] and str(GRID_BUDGET) in lines[0]


def test_rank3_preservation_is_refused_before_enumerating():
    # the source pool over four has 261,365 names at rank 3; its kernel
    # is predicted from the closed form, so no name is built first
    proc = subprocess.run(
        [sys.executable, "-m", "hvmodels", "check", "preservation", "--rank", "3"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BudgetExceeded:")
    assert "kernel over 261365 names" in lines[0] and str(GRID_BUDGET) in lines[0]


def test_rank3_hset_laws_is_refused_before_enumerating():
    # the witnessed-lift families stack a kernel over the 261,365-name
    # rank-3 pool over four; it is predicted before the suite starts
    proc = subprocess.run(
        [sys.executable, "-m", "hvmodels", "check", "hset-laws", "--rank", "3"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BudgetExceeded:")
    assert "kernel over 261365 names" in lines[0] and str(GRID_BUDGET) in lines[0]


@pytest.mark.parametrize("suite,names", [
    (lambda: checks.valuation_property_suite(make_chain(3), rank=3), 20101),
    (lambda: checks.preservation_suite(rank=3), 261365),
    (lambda: checks.hset_law_suite(rank=3), 261365),
], ids=["properties", "preservation", "hset-laws"])
def test_kernel_suites_refuse_before_enumerating(suite, names, monkeypatch):
    def enumerate_names(*args, **kw):
        raise AssertionError("enumerated")
    monkeypatch.setattr(checks, "enumerate_names", enumerate_names)
    with pytest.raises(BudgetExceeded) as err:
        suite()
    assert (err.value.predicted, err.value.budget) == (names * names, GRID_BUDGET)


@pytest.mark.parametrize("command", sorted(json.loads(GOLDEN.read_text())))
def test_json_reports_match_golden(command, tmp_path, capsys, fixtures_dir):
    golden = json.loads(GOLDEN.read_text())[command]
    argv = [str(fixtures_dir / a.removeprefix("fixtures/")) if a.startswith("fixtures/")
            else a for a in command.split()]
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == json.dumps(golden, indent=2, sort_keys=True) + "\n"


def test_hset_laws_reads_the_domain_cap(capsys, tmp_path):
    # the lifted pool over four is the cap's own: 21 names at cap 1, where
    # the cap-2 pool has 181
    counts = []
    for cap in ("1", "2"):
        out = tmp_path / f"cap{cap}.json"
        assert main(["check", "hset-laws", "--max-domain", cap, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["max_domain"] == int(cap)
        families = {f["name"]: f for f in payload["reports"][0]["families"]}
        counts.append(families["induced morphism of a witnessed lift validates"]["checked"])
    capsys.readouterr()
    assert counts == [21, 181]


def test_check_takes_its_suites_from_the_suite_table(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "no-such-suite"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'no-such-suite'" in err
    assert all(repr(name) in err for name in SUITES)


def test_check_json_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "hset-laws", "--json", str(out1)]) == 0
    assert main(["check", "hset-laws", "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["reports"][0]["config"]["seed"] == 1729


def test_lift_json_payload(capsys, tmp_path, fixtures_dir):
    out = tmp_path / "lift.json"
    code = main([
        "lift", str(fixtures_dir / "f.mor"), str(fixtures_dir / "x.names"),
        "--json", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["generalized_related"] is True
    assert payload["name"] == "x"
    assert len(payload["witness"]) == 2


def test_algebra_registration_by_path(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "check", "properties",
        "--algebra", f"mine={fixtures_dir / 'two.alg'}", "--rank", "1",
    )
    assert code == 0
    assert "mine" in out and "11/11 property families pass" in out


def test_registered_algebra_must_exist(capsys, tmp_path):
    code, _, err = run(
        capsys, "check", "properties",
        "--algebra", f"mine={tmp_path / 'missing.alg'}",
    )
    assert code == 1 and err.startswith("error:")


def test_module_entry_point(fixtures_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "hvmodels", "algebra", "check",
         str(fixtures_dir / "two.alg")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "valid frame with 2 elements" in proc.stdout


def _eval_script(text, tmp_path):
    path = tmp_path / "bad.eval"
    path.write_text(text)
    return _run_script(Session(build_parser().parse_args(["eval", str(path)])), path)


def test_an_algebra_name_too_long_for_a_file_is_a_parse_error(capsys, tmp_path, fixtures_dir):
    long = "a" * 300
    with pytest.raises(ParseError, match="cannot resolve algebra"):
        _eval_script(f"algebra {long}\n", tmp_path)
    mor = tmp_path / "long.mor"
    mor.write_text(f"morphism g : {long} -> two\nmap: 0 -> 0\n")
    code, _, err = run(capsys, "lift", str(mor), str(fixtures_dir / "x.names"))
    assert code == 1 and err.startswith("error: ParseError: unknown algebra")


# each text has its first error on line 3; a comment line and a blank
# line must not shift the count
BAD_LINE_3 = {
    "alg": ("elements: 0, 1\n# no order yet\norder: 0 <= 2\n",
            lambda text, _: load_algebra(text)),
    "mor": ("morphism f : four -> two\n\nmap: a -> zz\n",
            lambda text, _: parse_morphism(text, {"four": make_boolean(2), "two": make_chain(2)})),
    "hset": ("hset X over chain3\npoints: p\ndelta: p,p = zz\n",
             lambda text, _: parse_hset_file(text, {"chain3": make_chain(3)})),
    "eval": ('algebra chain3\nlet a = {}\neval "a in"\n', _eval_script),
}


@pytest.mark.parametrize("suffix", sorted(BAD_LINE_3))
def test_parse_errors_carry_the_line(suffix, tmp_path):
    text, parse = BAD_LINE_3[suffix]
    with pytest.raises(ParseError) as err:
        parse(text, tmp_path)
    assert err.value.line == 3
