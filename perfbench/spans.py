"""Spans around the public entry points of each hvmodels module.

The tracer wraps functions from outside the package: it replaces every
reference to a public function in the package's module namespaces (and
a few methods on their classes) with a wrapper that records a span, and
puts the originals back on `uninstall`.  Nothing under `src/` changes.

Each wrapped function belongs to a family.  A call records a span only
when no span of its family is open, so recursive entry points
(`EvalContext.eval`, `atomic_eq`, `strict_related`, `hat_embed`, ...)
and helpers that call each other inside one layer give outermost spans
only.  Spans live in flat arrays in memory; `save` writes them out.
"""

import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("lattice", "names", "formula", "valuation", "transfer", "hset",
           "checks", "cli")

METHODS = {
    "lattice": {"HeytingAlgebra": ("__init__",)},
    "names": {"NameStore": ("__init__",)},
    "valuation": {"EvalContext": ("eval", "models", "atomic_eq", "atomic_mem",
                                  "atomic_ni")},
}

EVAL = ("valuation.EvalContext.eval", "valuation.EvalContext.models",
        "valuation.eval_formula", "valuation.models")
ATOMIC = ("valuation.EvalContext.atomic_eq", "valuation.EvalContext.atomic_mem",
          "valuation.EvalContext.atomic_ni", "valuation.atomic_eq",
          "valuation.atomic_mem", "valuation.atomic_ni")
MATRIX = ("valuation.eq_matrix", "valuation.mem_matrix")

# Families with more than one member.  Any other function of `checks` or
# `cli` belongs to its module's family; any other function is a family
# of its own.
FAMILIES = {
    "lattice.build": ("lattice.HeytingAlgebra", "lattice.make_chain",
                      "lattice.make_boolean", "lattice.load_algebra"),
    # inner atomic calls made by eval or by a matrix helper stay inside
    # the outer span
    "valuation": EVAL + ATOMIC + MATRIX + ("valuation.make_function_predicate",),
    "names.hf": ("names.hat_embed", "names.as_hf", "names.ord_hf",
                 "names.check_project"),
    "transfer.strict": ("transfer.first_proposal_images", "transfer.strict_related"),
    "transfer.check": ("transfer.check_atomic_preservation",
                       "transfer.check_positive_bounded_preservation"),
    "hset.validate": ("hset.validate_hset", "hset.validate_morphism"),
    "hset.dagger": ("hset.dagger_points", "hset.dagger_hset",
                    "hset.dagger_morphism", "hset.dagger_iso"),
}
MODULE_FAMILIES = ("checks", "cli")
# Public helpers that are not entry points: eval calls rebind once per
# quantifier step, and a span there would multiply the tracing cost.
UNTRACED = ("valuation.rebind",)

# Work counted at the span boundary: (args, result) -> number.
QUANTITIES = {
    "lattice.HeytingAlgebra": lambda a, r: a[0].n,
    "lattice.make_chain": lambda a, r: r.n,
    "lattice.make_boolean": lambda a, r: r.n,
    "lattice.load_algebra": lambda a, r: r.n,
    "names.enumerate_names": lambda a, r: len(r),
    "valuation.eq_matrix": lambda a, r: r.size,
    "valuation.mem_matrix": lambda a, r: r.size,
    "hset.singletons": lambda a, r: len(r),
}

# Per-layer metric -> (unit, how, span labels), where `how` is
#   "time"   summed span duration
#   "self"   summed self time: duration minus that of direct child spans
#   "count"  number of spans
#   "qty"    summed quantity
LAYER_METRICS = {
    "lattice.build_s": ("s", "time", FAMILIES["lattice.build"]),
    "lattice.elements": ("count", "qty", FAMILIES["lattice.build"]),
    "names.enumerate_s": ("s", "time", ("names.enumerate_names",)),
    "names.pool_size": ("count", "qty", ("names.enumerate_names",)),
    "names.parse_s": ("s", "time", ("names.parse_name_literal",)),
    "formula.parse_s": ("s", "time", ("formula.parse_formula",)),
    "formula.parses": ("count", "count", ("formula.parse_formula",)),
    "valuation.matrix_s": ("s", "time", MATRIX),
    "valuation.matrix_cells": ("count", "qty", MATRIX),
    "valuation.eval_s": ("s", "time", EVAL),
    "valuation.evals": ("count", "count", EVAL),
    "valuation.atomic_s": ("s", "time", ATOMIC),
    "transfer.lift_s": ("s", "time", ("transfer.lift",)),
    "transfer.lifts": ("count", "count", ("transfer.lift",)),
    "transfer.pads": ("count", "count", ("names.pad_equivalent",)),
    "transfer.strict_s": ("s", "time", FAMILIES["transfer.strict"]),
    "transfer.check_s": ("s", "self", FAMILIES["transfer.check"]),
    "hset.validate_s": ("s", "time", FAMILIES["hset.validate"]),
    "hset.compose_s": ("s", "time", ("hset.compose",)),
    "hset.singletons_s": ("s", "time", ("hset.singletons",)),
    "hset.singleton_count": ("count", "qty", ("hset.singletons",)),
    "hset.dagger_s": ("s", "time", FAMILIES["hset.dagger"]),
    "checks.self_s": ("s", "self", ("checks",)),
    "cli.self_s": ("s", "self", ("cli",)),
}
# Not a span quantity: the summed size of the name stores created while
# tracing, read once the traced work has ended.
STORE_SIZE = "names.store_size"
class Tracer:
    """Span recorder for one thread.  `request` tags the spans it opens;
    a workload advances it at each suite call, probe or CLI request.
    The wrappers are built once, for the modules of `package`; `install`
    and `uninstall` swap them in and out."""

    def __init__(self, package):
        self.span_names = []
        self._families = {}
        self._swaps = self._build(package)   # (namespace, attribute, original, wrapper)
        self.request = 0
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self._stack = []
        self._open = [0] * len(self._families)
        self.stores = []

    def _wrap(self, fn, label, family, shadow=()):
        """A span-recording wrapper around `fn`.  `shadow` lists (method,
        function) pairs bound onto the first argument, an EvalContext,
        for the span's length: its recursive calls then go straight to
        the originals instead of through the wrappers, which would charge
        their pass-through cost to the span."""
        name_id = len(self.span_names)
        self.span_names.append(label)
        fam = self._families.setdefault(family, len(self._families))
        quantity = QUANTITIES.get(label)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            open_ = tracer._open
            if open_[fam]:
                return fn(*args, **kwargs)
            open_[fam] += 1
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.req.append(tracer.request)
            tracer.qty.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            if shadow:
                ctx = args[0].__dict__
                for meth, orig in shadow:
                    ctx[meth] = orig.__get__(args[0])
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                if shadow:
                    for meth, _ in shadow:
                        del ctx[meth]
                stack.pop()
                open_[fam] -= 1
            if quantity is not None:
                tracer.qty[idx] = quantity(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self, pkg):
        """Wrappers for every public function of MODULES and the METHODS,
        paired with each module or class attribute that refers to them."""
        swaps = []
        mods = {m: getattr(pkg, m) for m in MODULES}
        family_of = {lab: fam for fam, labs in FAMILIES.items() for lab in labs}
        ctx_dict = mods["valuation"].EvalContext.__dict__
        shadow = tuple((m, ctx_dict[m]) for m in ("eval", "atomic_eq", "atomic_mem"))
        shadow_for = {lab: shadow for lab in EVAL + MATRIX}
        wrappers = {}
        for mname, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                label = f"{mname}.{attr}"
                if label in UNTRACED:
                    continue
                family = mname if mname in MODULE_FAMILIES else family_of.get(label, label)
                wrappers[id(fn)] = (fn, self._wrap(fn, label, family,
                                                   shadow_for.get(label, ())))
        for ns in [pkg] + list(mods.values()):
            for attr, value in vars(ns).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    swaps.append((ns, attr, value, hit[1]))
        for mname, classes in METHODS.items():
            for cname, methods in classes.items():
                cls = getattr(mods[mname], cname)
                for meth in methods:
                    label = f"{mname}.{cname}" + ("" if meth == "__init__" else f".{meth}")
                    orig = cls.__dict__[meth]
                    fn = self._registering(orig) if label == "names.NameStore" else orig
                    swaps.append((cls, meth, orig, self._wrap(
                        fn, label, family_of.get(label, label), shadow_for.get(label, ()))))
        return swaps

    def _registering(self, init):
        tracer = self

        def __init__(store, *args, **kwargs):
            init(store, *args, **kwargs)
            tracer.stores.append(store)

        return __init__

    def install(self):
        """Swap every reference to a traced function for its wrapper."""
        for ns, attr, _, wrapper in self._swaps:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._swaps:
            setattr(ns, attr, original)

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since `clear`."""
        n = len(self.name)
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(
            self.start, dtype=np.float64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.name, dtype=np.int32)[:n]
        qty = np.frombuffer(self.qty, dtype=np.float64)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.span_names)
        per_label = {
            "time": np.bincount(names, weights=dur, minlength=k),
            "self": np.bincount(names, weights=dur - child, minlength=k),
            "count": np.bincount(names, minlength=k).astype(np.float64),
            "qty": np.bincount(names, weights=qty, minlength=k),
        }
        out = {}
        for metric, (_, how, labels) in LAYER_METRICS.items():
            ids = [i for i, lab in enumerate(self.span_names)
                   if lab in labels or lab.split(".", 1)[0] in labels]
            out[metric] = float(per_label[how][ids].sum())
        out[STORE_SIZE] = float(sum(len(s) for s in self.stores))
        return out

    def save(self, path, meta):
        """Write the spans to an .npz file: one array per span field plus
        the span names and `meta` as JSON."""
        n = len(self.name)
        np.savez(
            path,
            meta=np.array(json.dumps(dict(meta, span_names=self.span_names))),
            name=np.frombuffer(self.name, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            request=np.frombuffer(self.req, dtype=np.int32)[:n],
            start=np.frombuffer(self.start, dtype=np.float64)[:n],
            end=np.frombuffer(self.end, dtype=np.float64)[:n],
            quantity=np.frombuffer(self.qty, dtype=np.float64)[:n],
        )
