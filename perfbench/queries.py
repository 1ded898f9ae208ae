"""The `queries` workload: a closed loop with one client sending one-off
`hvm` requests, each a fresh `cli.main(argv)` call with its output
captured.

Inputs are generated at set-up from the seed.  A pass sends every request
once, in a seeded order; its fixed mix is

- 240 `eval` scripts, 60 each over chain3, four, chain5 and boolean8:
  names of rank <= 3 with domains of at most 3, and formulas with up to
  three nested bounded quantifiers;
- 60 `lift` requests, 15 along each fixture morphism;
- 60 `algebra check` / `show` requests: 12 on the fixtures and 48 on
  generated products of chains of 4 to 32 elements;
- 40 malformed inputs (10%), whose expected outcome is exit 1 with one
  `error:` line naming the error type.

Every expected output is computed here without the package's valuation
or lifting code: formula values from the frozen oracles' `ref_eq` /
`ref_mem` plus the algebra's tables, lift images up to internal
equality (also through `ref_eq`), product-frame tables coordinatewise.
"""

import contextlib
import io
import itertools
import random
import time
from array import array
from pathlib import Path

from sweeps import PassResult

EVAL_ALGEBRAS = ("chain3", "four", "chain5", "boolean8")
EVALS_PER_ALGEBRA = 60
# morphism -> (fixture file, source algebra, target algebra, table by label)
MORPHISMS = {
    "f": ("f.mor", "four", "two", {"0": "0", "a": "0", "na": "1", "1": "1"}),
    "i": ("i.mor", "two", "four", {"0": "0", "1": "1"}),
    "collapse0": ("collapse0.mor", "chain3", "two", {"0": "0", "m": "0", "1": "1"}),
    "collapse1": ("collapse1.mor", "chain3", "two", {"0": "0", "m": "1", "1": "1"}),
}
LIFTS_PER_MORPHISM = 15
# product-of-chains shapes; the 32-chain takes 2% of all requests, so
# the 99th percentile falls inside its group rather than on a boundary
FRAME_SHAPES = ((2, 2), (3, 3), (2, 2, 2), (4, 4), (2, 2, 2, 2), (3, 3, 3),
                (5, 6), (2, 4, 4), (4, 8), (2, 2, 2, 2, 2))
CHAIN32_REQUESTS = 8
FIXTURE_FRAMES = {"two": (2, "0", "1", True), "chain3": (3, "0", "1", False),
                  "four": (4, "0", "1", True)}
MALFORMED_PER_KIND = 4


def _builtin(hv, ident):
    lat = hv.lattice
    return {"two": lambda: lat.make_chain(2), "chain3": lambda: lat.make_chain(3),
            "four": lambda: lat.make_boolean(2), "chain5": lambda: lat.make_chain(5),
            "boolean8": lambda: lat.make_boolean(3)}[ident]()


def _alg_text(algebra):
    lines = ["elements: " + ", ".join(algebra.labels)]
    for a in range(algebra.n):
        for b in range(algebra.n):
            if a != b and algebra.leq[a, b]:
                lines.append(f"order: {algebra.labels[a]} <= {algebra.labels[b]}")
    return "\n".join(lines) + "\n"


# -- random names and formulas ---------------------------------------------------
# A name is a tuple of (child name, label) pairs with distinct children.


def random_name(rng, labels, rank):
    if rank == 0:
        return ()
    size = rng.randint(1, 3)
    children = {random_name(rng, labels, rng.randrange(rank)) for _ in range(size - 1)}
    children.add(random_name(rng, labels, rank - 1))
    return tuple((c, rng.choice(labels)) for c in sorted(children))


def name_literal(name, bound):
    if name in bound:
        return bound[name]
    return "{" + ", ".join(f"({name_literal(c, bound)}, {v})" for c, v in name) + "}"


def random_formula(rng, consts, scope=(), depth=0, size=6):
    """A formula AST over constants `consts` and bound variables `scope`;
    at most three quantifiers nest."""
    terms = list(consts) + list(scope)

    def term():
        t = rng.choice(terms)
        return ("var", t) if t in scope else ("const", t)

    roll = rng.random()
    if size <= 1 or roll < 0.3:
        return ("eq" if rng.random() < 0.5 else "in", term(), term())
    if roll < 0.55 and depth < 3:
        var = f"q{depth}"
        return ("all" if rng.random() < 0.5 else "ex", var, term(),
                random_formula(rng, consts, scope + (var,), depth + 1, size - 1))
    if roll < 0.65:
        return ("not", random_formula(rng, consts, scope, depth, size - 1))
    op = rng.choice(("and", "or", "imp"))
    half = (size - 1) // 2
    return (op, random_formula(rng, consts, scope, depth, max(1, half)),
            random_formula(rng, consts, scope, depth, max(1, size - 1 - half)))


def formula_text(phi):
    kind = phi[0]
    if kind in ("eq", "in"):
        op = "=" if kind == "eq" else "in"
        return f"{phi[1][1]} {op} {phi[2][1]}"
    if kind == "not":
        return f"~({formula_text(phi[1])})"
    if kind in ("all", "ex"):
        word = "forall" if kind == "all" else "exists"
        return f"({word} {phi[1]} in {phi[2][1]} . {formula_text(phi[3])})"
    op = {"and": "/\\", "or": "\\/", "imp": "->"}[kind]
    return f"({formula_text(phi[1])} {op} {formula_text(phi[2])})"


class Reference:
    """Expected values over one algebra, in a store private to the check."""

    def __init__(self, hv, oracles, algebra):
        self.algebra = algebra
        self.store = hv.names.NameStore(algebra)
        self.oracles = oracles
        self._atoms = {}

    def intern(self, name):
        return self.store.intern(
            {self.intern(c): self.algebra.index(v) for c, v in name})

    def atom(self, kind, x, y):
        key = (kind, x, y)
        if key not in self._atoms:
            ref = self.oracles.ref_eq if kind == "eq" else self.oracles.ref_mem
            self._atoms[key] = ref(self.store, x, y)
        return self._atoms[key]

    def value(self, phi, env):
        A = self.algebra
        kind = phi[0]
        if kind in ("eq", "in"):
            return self.atom(kind, env[phi[1][1]], env[phi[2][1]])
        if kind == "not":
            return A.imp(self.value(phi[1], env), A.bottom)
        if kind in ("and", "or", "imp"):
            op = {"and": A.meet, "or": A.join, "imp": A.imp}[kind]
            return op(self.value(phi[1], env), self.value(phi[2], env))
        var, bound, body = phi[1], env[phi[2][1]], phi[3]
        if kind == "all":
            out = A.top
            for u, xu in self.store.entries(bound):
                out = A.meet(out, A.imp(xu, self.value(body, dict(env, **{var: u}))))
            return out
        out = A.bottom
        for u, xu in self.store.entries(bound):
            out = A.join(out, A.meet(xu, self.value(body, dict(env, **{var: u}))))
        return out

    def parse(self, text):
        """Intern a `{(N, v), ...}` literal printed by the CLI."""
        pos = 0

        def skip():
            nonlocal pos
            while text[pos] == " ":
                pos += 1

        def expect(char):
            nonlocal pos
            skip()
            if text[pos] != char:
                raise ValueError(f"expected {char!r} at {pos} in {text!r}")
            pos += 1

        def name():
            nonlocal pos
            expect("{")
            entries = {}
            skip()
            while text[pos] != "}":
                expect("(")
                child = name()
                skip()
                if text[pos] != ",":
                    raise ValueError(f"expected ',' at {pos} in {text!r}")
                end = text.index(")", pos)
                entries[child] = self.algebra.index(text[pos + 1:end].strip())
                pos = end + 1
                skip()
                if text[pos] == ",":
                    pos += 1
                    skip()
            pos += 1
            return self.store.intern(entries)

        return name()


# -- product-of-chains frames -----------------------------------------------------


def frame_file(rng, shape, stem):
    """An .alg file for a product of chains, elements in seeded order and
    covers in seeded order.  Returns (text, labels, coordinates)."""
    coords = list(itertools.product(*[range(k) for k in shape]))
    letters = rng.sample("abcdefghjkpqrstuvwxyz", len(shape))
    label = {c: "".join(f"{letters[i]}{v}" for i, v in enumerate(c)) for c in coords}
    order = coords[:]
    rng.shuffle(order)
    covers = [
        f"hasse: {label[a]} < {label[b]}"
        for a in coords for b in coords
        if sum(y - x for x, y in zip(a, b)) == 1 and all(x <= y for x, y in zip(a, b))
    ]
    rng.shuffle(covers)
    text = "\n".join([f"# product of chains {shape}",
                      "elements: " + ", ".join(label[c] for c in order)] + covers)
    return text + "\n", [label[c] for c in order], order


def frame_expected(stem, shape, labels, coords, mode):
    top = tuple(k - 1 for k in shape)
    lab = dict(zip(coords, labels))
    head = [f"{stem}: valid frame with {len(labels)} elements"]
    if mode == "check":
        boolean = "yes" if all(k == 2 for k in shape) else "no"
        return "\n".join(head + [
            f"bottom: {lab[tuple(0 for _ in shape)]}  top: {lab[top]}",
            f"boolean: {boolean}"]) + "\n"
    tables = {
        "meet": lambda a, b: tuple(map(min, a, b)),
        "join": lambda a, b: tuple(map(max, a, b)),
        "implication": lambda a, b: tuple(t if x <= y else y
                                          for x, y, t in zip(a, b, top)),
    }
    return {name: [[lab[op(a, b)] for b in coords] for a in coords]
            for name, op in tables.items()}


def parse_show_tables(out, n):
    """The meet/join/implication tables of `hvm algebra show` output, as
    rows of labels."""
    lines = out.splitlines()
    tables = {}
    for name in ("meet", "join", "implication"):
        at = lines.index(f"{name}:")
        tables[name] = [line.split()[1:] for line in lines[at + 2:at + 2 + n]]
    return tables


# -- the workload ------------------------------------------------------------------


class Queries:
    name = "queries"

    def __init__(self, hv, oracles, seed, workdir, fixtures):
        self.hv = hv
        self.oracles = oracles
        self.workdir = Path(workdir)
        self.files = {}
        self.fixtures = Path(fixtures)
        rng = random.Random(f"queries/{seed}")
        self.algebras = {a: _builtin(hv, a) for a in
                         ("two", "chain3", "four", "chain5", "boolean8")}
        for ident in ("chain5", "boolean8"):
            self._write(f"{ident}.alg", _alg_text(self.algebras[ident]))
        self.requests = []   # (kind, argv, expectation)
        self._make_evals(rng)
        self._make_lifts(rng)
        self._make_frames(rng)
        self._make_malformed(rng)
        rng.shuffle(self.requests)
        self.first_outputs = None
        self.tracer = None      # set for traced passes, to tag requests

    def _write(self, fname, text):
        self.files[fname] = text
        return str(self.workdir / fname)

    def write_inputs(self):
        """Write the generated files.  Set-up time leaves this out: it is
        file-system latency of the benchmark itself, which no change to
        the package can move, and it varied by 2x between runs."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, text in self.files.items():
            (self.workdir / fname).write_text(text)

    def sizes(self):
        kinds = {}
        for kind, _, _ in self.requests:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {"requests_per_pass": len(self.requests), "mix": kinds}

    def _script(self, rng, ident, max_tops=3):
        """Bindings for an `algebra IDENT` script: returns (lines, names)
        where names maps each binding to its name."""
        labels = self.algebras[ident].labels
        tops = [random_name(rng, labels, rng.randint(1, 3))
                for _ in range(rng.randint(1, max_tops))]
        bound, names, lines = {}, {}, [f"algebra {ident}"]
        # bind some subnames first so literals refer to earlier bindings
        # a total order: set order follows string hashes, which vary by process
        subs = sorted({c for t in tops for c, _ in t if c}, key=lambda n: (len(n), n))
        for name in rng.sample(subs, min(len(subs), rng.randint(0, 2))) + tops:
            if name in bound:
                continue
            ident_ = f"n{len(bound)}"
            lines.append(f"let {ident_} = {name_literal(name, bound)}")
            bound[name] = ident_
            names[ident_] = name
        return lines, names

    def _make_evals(self, rng):
        for ident in EVAL_ALGEBRAS:
            for _ in range(EVALS_PER_ALGEBRA):
                lines, names = self._script(rng, ident)
                formulas = [random_formula(rng, sorted(names), size=rng.randint(1, 7))
                            for _ in range(rng.randint(1, 3))]
                lines += [f'eval "{formula_text(phi)}"' for phi in formulas]
                path = self._write(f"q{len(self.requests):04d}.eval",
                                   "\n".join(lines) + "\n")
                self.requests.append(("eval", ["eval", path],
                                      (ident, names, formulas)))

    def _make_lifts(self, rng):
        for mname, (mfile, src, tgt, _) in MORPHISMS.items():
            for _ in range(LIFTS_PER_MORPHISM):
                lines, names = self._script(rng, src, max_tops=2)
                target = rng.choice(sorted(names))
                lines.append(f"lift {target}")
                path = self._write(f"q{len(self.requests):04d}.names",
                                   "\n".join(lines) + "\n")
                self.requests.append((
                    "lift", ["lift", str(self.fixtures / mfile), path],
                    (mname, src, tgt, names[target])))

    def _make_frames(self, rng):
        plan = [(shape, mode) for shape in FRAME_SHAPES for mode in
                ("check", "show", "check", "show")]
        plan += [((32,), mode) for mode in ("check", "show") * (CHAIN32_REQUESTS // 2)]
        for shape, mode in plan:
            stem = f"frame{len(self.requests):04d}"
            text, labels, coords = frame_file(rng, shape, stem)
            path = self._write(f"{stem}.alg", text)
            self.requests.append(("algebra", ["algebra", mode, path],
                                  (stem, shape, labels, coords, mode)))
        for ident in FIXTURE_FRAMES:
            for _ in range(3):
                self.requests.append((
                    "algebra", ["algebra", "check", str(self.fixtures / f"{ident}.alg")],
                    ("fixture", ident)))
        for _ in range(3):
            self.requests.append((
                "algebra", ["algebra", "show", str(self.fixtures / "m3.alg")],
                ("error", "NotAFrame")))

    def _make_malformed(self, rng):
        def script(ident, *lines):
            head = [f"algebra {ident}"] if ident else []
            return "\n".join(head + list(lines)) + "\n"

        lit = lambda ident: name_literal(
            random_name(rng, self.algebras[ident].labels, rng.randint(1, 2)), {})
        kinds = {
            # kind: (error type, file suffix, text, extra argv before the file)
            "bad-label": lambda: ("ParseError", "eval", script(
                "chain3", f"let a = {{({lit('chain3')}, zz)}}")),
            "unterminated": lambda: ("ParseError", "eval", script(
                "four", f"let a = {lit('four')[:-1]}")),
            "missing-dot": lambda: ("ParseError", "eval", script(
                "chain3", f"let a = {lit('chain3')}", 'eval "forall q0 in a q0 = a"')),
            "unknown-constant": lambda: ("UnknownConstant", "eval", script(
                "four", f"let a = {lit('four')}", 'eval "zz in a"')),
            "no-algebra": lambda: ("ParseError", "eval", script(
                None, f"let a = {lit('chain3')}", 'eval "a = a"')),
            "unknown-algebra": lambda: ("ParseError", "eval", script(
                f"chain{rng.randint(6, 9)}", "let a = {}")),
            "empty-fragment": lambda: ("EmptyFragment", "eval", script(
                "chain3", f"let a = {lit('chain3')}", 'eval "exists q0 . q0 in a"')),
            "not-a-poset": lambda: ("NotAPoset", "alg",
                                    "elements: 0, a, b\nhasse: 0 < a\nhasse: a < b\n"
                                    "hasse: b < a\n"),
            "not-a-lattice": lambda: ("NotALattice", "alg",
                                      "elements: 0, a, b\nhasse: 0 < a\nhasse: 0 < b\n"),
            "cross-algebra": lambda: ("CrossAlgebra", "names", script(
                "chain3", f"let a = {lit('chain3')}", "lift a")),
        }
        for kind, make in kinds.items():
            for _ in range(MALFORMED_PER_KIND):
                error, suffix, text = make()
                path = self._write(f"q{len(self.requests):04d}.{suffix}", text)
                argv = {"eval": ["eval", path], "alg": ["algebra", "check", path],
                        "names": ["lift", str(self.fixtures / "f.mor"), path]}[suffix]
                self.requests.append(("malformed", argv, ("error", error)))

    # -- measuring ------------------------------------------------------------------

    def run_pass(self):
        # looked up per pass, so a traced pass gets the wrapped entry point
        main, tracer = self.hv.cli.main, self.tracer
        clock = time.perf_counter
        latencies, outputs = array("d"), []
        t_pass = clock()
        for _, argv, _ in self.requests:
            if tracer is not None:
                tracer.request += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except (Exception, SystemExit) as ex:   # a traceback is a failure
                    rc = f"raised {type(ex).__name__}: {ex}"
            latencies.append((clock() - t0) * 1e3)
            outputs.append((rc, out.getvalue(), err.getvalue()))
        sweep_s = clock() - t_pass
        failed = 0
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            failed = sum(1 for a, b in zip(outputs, self.first_outputs) if a != b)
        return PassResult(sweep_s, latencies, len(outputs), failed)

    def check_oracles(self):
        """Failures among the first pass's outputs."""
        refs = {}

        def ref(ident):
            if ident not in refs:
                refs[ident] = Reference(self.hv, self.oracles, self.algebras[ident])
            return refs[ident]

        failed = 0
        for (kind, _, expect), output in zip(self.requests, self.first_outputs):
            try:
                ok = self._check_one(kind, expect, output, ref)
            except (KeyError, ValueError, IndexError):
                ok = False
            failed += not ok
        return failed

    def _check_one(self, kind, expect, output, ref):
        rc, out, err = output
        if expect[0] == "error":
            lines = err.splitlines()
            return (rc == 1 and out == "" and len(lines) == 1
                    and lines[0].startswith(f"error: {expect[1]}: "))
        if rc != 0 or err:
            return False
        if kind == "eval":
            ident, names, formulas = expect
            r = ref(ident)
            env = {b: r.intern(name) for b, name in names.items()}
            want = [f"{formula_text(phi)}  =  {r.algebra.labels[r.value(phi, env)]}"
                    for phi in formulas]
            return out == "\n".join(want) + "\n"
        if kind == "lift":
            mname, src, tgt, name = expect
            table = MORPHISMS[mname][3]
            target = ref(tgt)
            lines = out.splitlines()
            image = target.parse(lines[2].removeprefix("image = "))

            # children whose lifts coincide merge by join; the package pads
            # them apart instead, which gives an equal name
            def naive_lift(x):
                entries = {}
                for child, label in x:
                    key = naive_lift(child)
                    value = target.algebra.index(table[label])
                    entries[key] = target.algebra.join(entries.get(key, value), value)
                return target.store.intern(entries)

            same = self.oracles.ref_eq(target.store, image, naive_lift(name))
            return (lines[-1] == "generalized related: yes"
                    and same == target.algebra.top)
        if expect[0] == "fixture":
            n, bottom, top, boolean = FIXTURE_FRAMES[expect[1]]
            return out == (f"{expect[1]}: valid frame with {n} elements\n"
                           f"bottom: {bottom}  top: {top}\n"
                           f"boolean: {'yes' if boolean else 'no'}\n")
        stem, shape, labels, coords, mode = expect
        want = frame_expected(stem, shape, labels, coords, mode)
        if mode == "check":
            return out == want
        first = out.splitlines()[0]
        return (first == f"{stem}: {len(labels)} elements: " + " ".join(labels)
                and parse_show_tables(out, len(labels)) == want)
