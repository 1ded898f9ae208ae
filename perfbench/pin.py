"""Regenerate perfbench/pinned.json from the package in this checkout.

    python3 perfbench/pin.py

The file pins, for every sweep report the benchmark runs, the number of
cases each family checks; the benchmark counts a report whose counts
differ as a failed operation.  It also pins the cost strata of the H-set
corpora: seeds 0..63 of `hset_law_suite`, sorted by measured time (best
of three) and cut into eight strata of eight, so that a pass which runs
one corpus per stratum costs about the same for every benchmark seed.
"""

import json
import sys
import time
from pathlib import Path

from run import BENCH_DIR, load_package

CORPUS_SEEDS = range(64)
STRATA = 8


def counts(report):
    return {f.name: f.checked for f in report.families}


def main():
    hv, _ = load_package(Path.cwd())
    checks = hv.checks
    pinned = {
        "valuation-laws": counts(checks.valuation_property_suite(
            hv.lattice.make_chain(5), rank=2, max_domain=2)),
        "preservation": counts(checks.preservation_suite(rank=2, max_domain=2)),
        "counterexample": counts(checks.counterexample_suite()),
        "injective": counts(checks.injective_suite(rank=2)),
        "functoriality": counts(checks.functoriality_suite(rank=2, max_domain=2)),
    }
    cost = {}
    for seed in CORPUS_SEEDS:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            report = checks.hset_law_suite(seed=seed)
            best = min(best, time.perf_counter() - t0)
        if not report.ok:
            sys.exit(f"hset_law_suite(seed={seed}) is not ok")
        pinned[f"hset-laws/{seed}"] = counts(report)
        cost[seed] = best
    ranked = sorted(CORPUS_SEEDS, key=cost.__getitem__)
    size = len(ranked) // STRATA
    pinned["hset-strata"] = [ranked[k * size:(k + 1) * size] for k in range(STRATA)]
    (BENCH_DIR / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
