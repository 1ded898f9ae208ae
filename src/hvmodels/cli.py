"""Command-line front end.

Subcommands:
  algebra check|show FILE     validate / print a lattice given by a file
  eval SCRIPT                 run let-bindings and formula evaluations
  lift MOR NAMES              lift a name along a locale morphism
  check SUITE                 run a law suite and report violations

Exit code 0 means zero violations; structured validation errors exit 1.
Reports are deterministic: identical inputs give byte-identical JSON.
"""

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import checks
from . import transfer as tr
from .errors import CrossAlgebra, HvError, ParseError
from .formula import parse_formula
from .lattice import BUILTIN_ALGEBRAS, is_boolean, load_algebra, text_lines
from .names import NameStore, parse_name_literal
from .valuation import EvalContext


def _load_algebra_file(path):
    p = Path(path)
    return load_algebra(p.read_text(), name=p.stem)


def _sibling_file(near, filename):
    """The file `filename` next to the file `near`, or None when there is
    none or the operating system refuses the name (too long, say)."""
    candidate = Path(near).parent / filename
    try:
        return candidate if candidate.is_file() else None
    except OSError:
        return None


class Session:
    """Resolved context for one command: algebras by identifier plus the
    cap/seed configuration every sweep must respect.  Only `check`
    declares the sweep options; every other command reports their
    defaults."""

    def __init__(self, args):
        self.algebras = {}
        for spec in args.algebra or []:
            name, eq, path = spec.partition("=")
            if eq:
                self.algebras[name] = _load_algebra_file(path)
                self.algebras[name].name = name
            elif name in BUILTIN_ALGEBRAS:
                self.resolve(name)
            else:
                raise ParseError(f"unknown algebra {spec!r}; use NAME=PATH")
        self.selected = [s.partition("=")[0] for s in (args.algebra or [])]
        self.rank = getattr(args, "rank", 2)
        self.max_domain = getattr(args, "max_domain", 2)
        self.budget = getattr(args, "budget", None)
        self.seed = getattr(args, "seed", checks.DEFAULT_SEED)

    def find(self, name, near=None):
        """The algebra called `name`: registered, built in, or loaded from
        NAME.alg next to the file `near`.  KeyError when there is none."""
        if name not in self.algebras:
            if name in BUILTIN_ALGEBRAS:
                self.algebras[name] = BUILTIN_ALGEBRAS[name]()
                self.algebras[name].name = name
            elif near is not None and (candidate := _sibling_file(near, f"{name}.alg")):
                self.algebras[name] = _load_algebra_file(candidate)
            else:
                raise KeyError(name)
        return self.algebras[name]

    def resolve(self, name, near=None):
        try:
            return self.find(name, near)
        except KeyError:
            raise ParseError(f"cannot resolve algebra {name!r}") from None

    def config(self, command):
        return {
            "command": command,
            "rank": self.rank,
            "max_domain": self.max_domain,
            "budget": self.budget,
            "seed": self.seed,
            "algebras": {n: a.content_hash() for n, a in sorted(self.algebras.items())},
        }


def _emit(args, text, payload):
    """Print `text`; with --json, also write `payload()`, which is built
    only then."""
    print(text)
    if getattr(args, "json", None):
        Path(args.json).write_text(
            json.dumps(payload(), indent=2, sort_keys=True) + "\n"
        )


def _table_text(algebra, table, title):
    width = max(len(l) for l in algebra.labels) + 1
    padded = [l.rjust(width) for l in algebra.labels]
    lines = [f"{title}:", " " * width + " ".join(padded)]
    lines += [padded[i] + " ".join([padded[v] for v in row])
              for i, row in enumerate(table.tolist())]
    return "\n".join(lines)


def cmd_algebra(args, session):
    algebra = _load_algebra_file(args.file)
    bottom, top = algebra.labels[algebra.bottom], algebra.labels[algebra.top]
    boolean = is_boolean(algebra)

    def payload():
        out = {
            "config": session.config(f"algebra {args.mode}"),
            "file": Path(args.file).name,
            "name": algebra.name,
            "elements": list(algebra.labels),
            "bottom": bottom,
            "top": top,
            "boolean": boolean,
            "hash": algebra.content_hash(),
            "valid": True,
        }
        if args.mode != "check":
            out["tables"] = {
                "meet": algebra.meet_table.tolist(),
                "join": algebra.join_table.tolist(),
                "implication": algebra.impl_table.tolist(),
            }
        return out

    if args.mode == "check":
        text = (f"{algebra.name}: valid frame with {algebra.n} elements\n"
                f"bottom: {bottom}  top: {top}\n"
                f"boolean: {'yes' if boolean else 'no'}")
        _emit(args, text, payload)
        return 0
    parts = [f"{algebra.name}: {algebra.n} elements: " + " ".join(algebra.labels)]
    strict = algebra.leq & ~np.eye(algebra.n, dtype=bool)
    order = [f"{algebra.labels[a]} <= {algebra.labels[b]}"
             for a, b in np.argwhere(strict).tolist()]
    parts.append("order: " + ("; ".join(order) if order else "(discrete)"))
    parts.append(_table_text(algebra, algebra.meet_table, "meet"))
    parts.append(_table_text(algebra, algebra.join_table, "join"))
    parts.append(_table_text(algebra, algebra.impl_table, "implication"))
    _emit(args, "\n".join(parts), payload)
    return 0


def _run_script(session, path):
    """Shared reader for eval scripts and .names files.

    Lines: `algebra IDENT`, `let NAME = <name literal>`,
    `fragment NAME...`, `eval "<formula>"`, `lift NAME`.
    """
    store = None
    ctx = None
    bindings = {}
    fragment = []
    evals = []
    lift_target = None
    algebra_name = None
    text = Path(path).read_text()
    raw_lines = text.splitlines()
    for lineno, line in text_lines(text):
        # a suffix `part` of the stripped line starts at column
        # end - len(part) of the raw line
        raw = raw_lines[lineno - 1]
        end = len(raw) - len(raw.lstrip()) + len(line)
        with ParseError.on_line(lineno):
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "algebra":
                algebra = session.resolve(rest, near=path)
                algebra_name = rest
                store = NameStore(algebra)
                ctx = EvalContext(store)
                continue
            if store is None:
                raise ParseError("script must start with 'algebra IDENT'")
            if head == "let":
                name, _, literal = rest.partition("=")
                name = name.strip()
                if not name.isidentifier():
                    raise ParseError(f"bad binding name {name!r}")
                literal = literal.lstrip()
                with ParseError.from_column(end - len(literal)):
                    bindings[name] = parse_name_literal(store, literal, bindings)
                continue
            if head == "fragment":
                for ident in rest.split():
                    if ident not in bindings:
                        raise ParseError(f"unknown name {ident!r}")
                    fragment.append(bindings[ident])
                ctx = EvalContext(store, fragment=tuple(fragment))
                continue
            if head == "eval":
                formula, start = rest, end - len(rest)
                if formula.startswith('"') and formula.endswith('"') and len(formula) >= 2:
                    formula, start = formula[1:-1], start + 1
                with ParseError.from_column(start):
                    phi = parse_formula(formula, constants=bindings)
                evals.append((formula, phi))
                continue
            if head == "lift":
                if rest not in bindings:
                    raise ParseError(f"unknown name {rest!r}")
                lift_target = rest
                continue
            raise ParseError(f"unrecognized line {line!r}")
    if store is None:
        raise ParseError("script must declare an algebra")
    return {
        "algebra_name": algebra_name,
        "store": store,
        "ctx": ctx,
        "bindings": bindings,
        "evals": evals,
        "lift_target": lift_target,
    }


def cmd_eval(args, session):
    script = _run_script(session, args.script)
    store, ctx = script["store"], script["ctx"]
    algebra = store.algebra
    results = []
    lines = []
    for text, phi in script["evals"]:
        value = ctx.eval(phi)
        results.append({"formula": text, "value": algebra.labels[value]})
        lines.append(f"{text}  =  {algebra.labels[value]}")
    _emit(args, "\n".join(lines) if lines else "(no eval lines)", lambda: {
        "config": session.config("eval"),
        "script": Path(args.script).name,
        "algebra": script["algebra_name"],
        "bindings": {
            n: store.to_literal(v) for n, v in script["bindings"].items()
        },
        "results": results,
    })
    return 0


def cmd_lift(args, session):
    mor_path = Path(args.morphism)
    name, morphism = tr.parse_morphism(
        mor_path.read_text(),
        _MorphismAlgebras(session, mor_path),
    )
    script = _run_script(session, args.names)
    store_a = script["store"]
    if store_a.algebra.content_hash() != morphism.source.content_hash():
        raise CrossAlgebra(
            "the names file algebra differs from the morphism source"
        )
    target = args.name or script["lift_target"]
    if target is None:
        if not script["bindings"]:
            raise ParseError("names file binds nothing to lift")
        target = list(script["bindings"])[-1]
    if target not in script["bindings"]:
        raise ParseError(f"no binding named {target!r}")
    x = script["bindings"][target]
    store_b = NameStore(morphism.target)
    wl = tr.lift(morphism, x, store_a, store_b)
    ctx_b = EvalContext(store_b)
    related = tr.is_generalized_related(morphism, x, wl.image, store_a, ctx_b)
    witness = [
        [store_a.to_literal(u), store_b.to_literal(v)] for u, v in wl.witness
    ]
    lines = [
        f"morphism {name} : {morphism.source.name} -> {morphism.target.name}",
        f"name {target} = {store_a.to_literal(x)}",
        f"image = {store_b.to_literal(wl.image)}",
        "witness bijection:",
    ]
    lines += [f"  {u} -> {v}" for u, v in witness] or ["  (empty domain)"]
    lines.append(f"generalized related: {'yes' if related else 'no'}")
    _emit(args, "\n".join(lines), lambda: {
        "config": session.config("lift"),
        "morphism": name,
        "name": target,
        "source": store_a.to_literal(x),
        "image": store_b.to_literal(wl.image),
        "witness": witness,
        "generalized_related": bool(related),
    })
    return 0


class _MorphismAlgebras:
    """Mapping view that resolves algebra identifiers lazily, looking for
    IDENT.alg next to the morphism file when IDENT is not known."""

    def __init__(self, session, near):
        self.session = session
        self.near = near

    def __getitem__(self, name):
        return self.session.find(name, near=self.near)


# suite name -> the reports it runs for a Session, in `hvm check` order
SUITES = {
    "counterexample": lambda s: [
        checks.counterexample_suite(),
        checks.injective_suite(rank=s.rank, budget=s.budget)],
    "properties": lambda s: [
        checks.valuation_property_suite(a, rank=s.rank, max_domain=s.max_domain,
                                        budget=s.budget)
        for a in [s.resolve(n) for n in s.selected] or checks.test_algebras().values()],
    "preservation": lambda s: [checks.preservation_suite(
        rank=s.rank, max_domain=s.max_domain, budget=s.budget)],
    "functoriality": lambda s: [checks.functoriality_suite(
        rank=s.rank, max_domain=s.max_domain, budget=s.budget)],
    "hset-laws": lambda s: [checks.hset_law_suite(
        seed=s.seed, rank=s.rank, max_domain=s.max_domain, budget=s.budget)],
}


def cmd_check(args, session):
    reports = SUITES[args.suite](session)
    ok = all(r.ok for r in reports)
    _emit(args, "\n".join(r.render_text() for r in reports), lambda: {
        "config": session.config(f"check {args.suite}"),
        "reports": [r.to_json_dict() for r in reports],
        "ok": ok,
    })
    return 0 if ok else 1


def _count(text):
    """An argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@cache
def build_parser():
    """The `hvm` argument parser, built once per process: `parse_args`
    returns a fresh namespace on every call and leaves the parser as it
    was."""
    parser = argparse.ArgumentParser(
        prog="hvm",
        description="Lattice-valued set models: algebras, names, valuation, "
                    "lifting and H-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", action="append", metavar="NAME[=PATH]",
                       help="select a builtin algebra or register a file")
        p.add_argument("--json", metavar="PATH",
                       help="also write a deterministic JSON report")

    p = sub.add_parser("algebra", help="validate or print an algebra file")
    p.add_argument("mode", choices=("check", "show"))
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("eval", help="run an evaluation script")
    p.add_argument("script")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("lift", help="lift a name along a locale morphism")
    p.add_argument("morphism", help="morphism file (.mor)")
    p.add_argument("names", help="names script (.names)")
    p.add_argument("--name", help="binding to lift (default: the designated "
                                  "or last one)")
    common(p)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("check", help="run a law suite")
    p.add_argument("suite", choices=SUITES)
    common(p)
    p.add_argument("--rank", type=_count, default=2,
                   help="name rank ceiling for sweeps (default 2)")
    p.add_argument("--max-domain", type=_count, default=2,
                   help="domain-size cap for enumerated names (default 2)")
    p.add_argument("--budget", type=_count, default=None,
                   help="hard ceiling on enumeration/search work")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                   help="seed for sampled corpora (default %(default)s)")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        session = Session(args)
        return args.fn(args, session)
    except (HvError, OSError) as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
