"""The three sweep workloads: law suites run whole, plus cold one-cell
queries on the workload's own name pools.

A pass is one full sweep followed by a block of probes.  A probe is one
`[x = y]` or `[x in y]` value computed on a fresh `EvalContext` (an
empty memo), which is the cold, one-query use of the valuation layer;
its latency is what `query_ms` reports on these workloads.  The 2000
probe cells are drawn from the seed and checked against the frozen
naive oracles in `tests/oracles.py`.

A probe takes tens of microseconds, while the host's speed drifts over
seconds, so a short block would sample the drift at a few instants.
The block repeats the cells `probe_rounds` times instead, which makes it
last about a fifth of the sweep, and its latencies average over time as
the sweep times do.
"""

import random
import time
from array import array
from dataclasses import dataclass

PROBE_CELLS = 2000


class SweepWorkload:
    """Base class: subclasses implement `probe_pools(hv)` -> list of
    (store, names) and `suites()` -> list of (pinned key, thunk that
    returns a report)."""

    def __init__(self, hv, oracles, seed, pinned):
        self.hv = hv
        self.oracles = oracles
        self.pinned = pinned
        rng = random.Random(f"{self.name}/{seed}")
        self.pools = self.probe_pools(hv)
        self.probes = []
        for k in range(PROBE_CELLS):
            store, names = self.pools[rng.randrange(len(self.pools))]
            self.probes.append((store, rng.choice(names), rng.choice(names),
                                "eq" if k % 2 == 0 else "mem"))
        self.choose_inputs(rng)
        self.first_values = None
        self.tracer = None      # set for traced passes, to tag requests

    def choose_inputs(self, rng):
        pass

    def write_inputs(self):
        pass

    def sizes(self):
        return {"probe_pools": [len(names) for _, names in self.pools],
                "probe_cells": len(self.probes), "probe_rounds": self.probe_rounds}

    def run_pass(self):
        """One sweep and one probe batch; returns a PassResult."""
        suites = self.suites()
        tracer = self.tracer
        failed = 0
        t0 = time.perf_counter()
        for key, suite in suites:
            if tracer is not None:
                tracer.request += 1
            try:
                failed += not self.report_ok(key, suite())
            except Exception:   # a traceback is a failed operation
                failed += 1
        sweep_s = time.perf_counter() - t0
        EvalContext = self.hv.valuation.EvalContext
        clock = time.perf_counter
        latencies = array("d")   # compact, so peak RSS barely grows with the pass count
        for _ in range(self.probe_rounds):
            values = []
            for store, x, y, kind in self.probes:
                if tracer is not None:
                    tracer.request += 1
                t0 = clock()
                try:
                    ctx = EvalContext(store)
                    v = ctx.atomic_eq(x, y) if kind == "eq" else ctx.atomic_mem(x, y)
                except Exception as ex:
                    v = f"raised {type(ex).__name__}"
                latencies.append((clock() - t0) * 1e3)
                values.append(v)
            if self.first_values is None:
                self.first_values = values
            else:
                failed += sum(1 for a, b in zip(values, self.first_values) if a != b)
        return PassResult(sweep_s, latencies, len(suites) + len(latencies), failed)

    def report_ok(self, key, rep):
        """A report passes when it is ok and every family checked exactly
        the pinned number of cases."""
        want = self.pinned[key]
        got = {f.name: f.checked for f in rep.families}
        return rep.ok and got == want

    def check_oracles(self):
        """Failures among the first pass's probe values, by the oracles."""
        ref_eq, ref_mem = self.oracles.ref_eq, self.oracles.ref_mem
        failed = 0
        for (store, x, y, kind), v in zip(self.probes, self.first_values):
            want = ref_eq(store, x, y) if kind == "eq" else ref_mem(store, x, y)
            failed += v != want
        return failed


@dataclass
class PassResult:
    sweep_s: float          # the timed sweep, or all requests of a queries pass
    latencies_ms: array     # one per query
    attempted: int
    failed: int
    wall: float = 0.0       # the whole pass, set by the caller


class ValuationLaws(SweepWorkload):
    """The eleven valuation laws over the five-chain, rank 2, domain cap 2
    (406 names): bulk `[x = y]` / `[x in y]` matrices and numpy law
    families; no transfer or H-set code."""

    name = "valuation-laws"
    probe_rounds = 30

    def probe_pools(self, hv):
        store = hv.names.NameStore(hv.lattice.make_chain(5))
        return [(store, hv.names.enumerate_names(store, max_rank=2, max_domain=2))]

    def suites(self):
        hv = self.hv
        return [("valuation-laws", lambda: hv.checks.valuation_property_suite(
            hv.lattice.make_chain(5), rank=2, max_domain=2))]


class Preservation(SweepWorkload):
    """Atomic and positive-bounded preservation along the four standard
    morphisms (`hvm check preservation`): formula evaluation over
    assignment pairs dominates."""

    name = "preservation"
    probe_rounds = 25

    def probe_pools(self, hv):
        pools = []
        for algebra, cap in ((hv.lattice.make_boolean(2), 2),
                             (hv.lattice.make_chain(3), 2),
                             (hv.lattice.make_chain(2), None)):
            store = hv.names.NameStore(algebra)
            pools.append((store, hv.names.enumerate_names(store, max_rank=2,
                                                          max_domain=cap)))
        return pools

    def suites(self):
        checks = self.hv.checks
        return [("preservation", lambda: checks.preservation_suite(rank=2, max_domain=2))]


class HsetTransfer(SweepWorkload):
    """H-set laws on seeded corpora, the strict-lifting counterexample,
    strict images along the injective morphism, and functoriality of
    lifting: H-set operations, surjection search and lifts with
    equivalence pads, with almost no bulk valuation.

    The cost of one H-set corpus varies about fourfold with its seed, so
    a pass runs one corpus from each of the pinned cost strata; the seed
    picks which."""

    name = "hset-transfer"
    probe_rounds = 8

    def probe_pools(self, hv):
        # the images of every rank-2 name over four lifted along f: 147
        # names over the two-chain, padded where children collide
        checks, names = hv.checks, hv.names
        algebras = checks.test_algebras()
        f = checks.standard_morphisms(algebras)["f"]
        sa = names.NameStore(algebras["four"])
        sb = names.NameStore(algebras["chain2"])
        images = {hv.transfer.lift(f, x, sa, sb).image
                  for x in names.enumerate_names(sa, max_rank=2)}
        return [(sb, sorted(images))]

    def choose_inputs(self, rng):
        self.corpus_seeds = [rng.choice(stratum)
                             for stratum in self.pinned["hset-strata"]]

    def sizes(self):
        return dict(super().sizes(), hset_corpus_seeds=self.corpus_seeds)

    def suites(self):
        checks = self.hv.checks
        return [(f"hset-laws/{s}", lambda s=s: checks.hset_law_suite(seed=s))
                for s in self.corpus_seeds] + [
            ("counterexample", checks.counterexample_suite),
            ("injective", lambda: checks.injective_suite(rank=2)),
            ("functoriality", lambda: checks.functoriality_suite(rank=2, max_domain=2)),
        ]


SWEEPS = {w.name: w for w in (ValuationLaws, Preservation, HsetTransfer)}
