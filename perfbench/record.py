"""Record reference outputs and cost strata from the current program.

    python3 perfbench/record.py [corpus] [sweep] [ladder]

Run from the root of a checkout. For each workload it writes
``perfbench/reference/<workload>.out.json`` (the output of every pool item)
and ``<workload>.plan.json`` (the items a run may draw, grouped into strata
of similar cost). The committed files were recorded from the seed code;
re-record only for a change whose output differences are intended, and say
why where the change is described.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from timing import DriftClock
from workloads import (CORPUS_POOL, LADDER_CANDIDATES, REFERENCE, SWEEP_NAMES, SWEEP_STARTS,
                       WORK, corpus_economy, corpus_record, ladder_economy, ladder_record,
                       sweep_grid, write_sweep_models)

CORPUS_STRATA = 32
LADDER_STRATA = 16
SWEEP_LEAD_STRATA = 10  # concave-window strata; each other fixture is one stratum
# threshold_table cost band (normalized seconds) for ladder items. Most
# n=2 tables cost 0.4-0.5 s; the n=3 tables spread thinly from 0.6 s to
# 2.4 s. A band around the peak gives a run dozens of tables and puts the
# median table inside the peak, where the seed barely moves it; with the
# dear tables in, a run holds under 25 and its median falls between the
# two groups.
LADDER_BAND = (0.2, 0.7)


def stratify(costs: dict, count: int) -> list:
    """Split items, sorted by cost, into ``count`` strata of equal size."""
    ordered = sorted(costs, key=costs.get)
    return [ordered[k * len(ordered) // count:(k + 1) * len(ordered) // count]
            for k in range(count)]


def interleaved(count: int) -> list:
    """0, count-1, 1, count-2, ...: any prefix of a round mixes cheap and dear."""
    order = []
    lo, hi = 0, count - 1
    while lo <= hi:
        order.append(lo)
        if hi != lo:
            order.append(hi)
        lo, hi = lo + 1, hi - 1
    return order


def write(name: str, plan: dict, out: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{name}.plan.json").write_text(json.dumps(plan, sort_keys=True) + "\n")
    (REFERENCE / f"{name}.out.json").write_text(json.dumps(out, sort_keys=True) + "\n")


def costed(fn):
    """Run fn; return its output and its wall time scaled by the reference
    kernel measured just before and after."""
    clock = DriftClock()
    t0 = time.perf_counter()
    out = fn()
    clock.record(time.perf_counter() - t0)
    clock.finish()
    return out, clock.norm_s[0]


def record_corpus(am) -> None:
    out, costs = {}, {}
    for i in range(CORPUS_POOL):
        econ = corpus_economy(am, i)

        def op():
            if not am.validate_economy(econ).passed:
                return None
            sol = am.solve(econ)
            return sol, am.verify_solution(econ, sol)
        try:
            result, cost = costed(op)
        except am.SolverError:
            continue
        if result is None or not result[1].passed:
            continue
        out[str(i)] = corpus_record(*result)
        costs[i] = cost
    plan = {"strata": stratify(costs, CORPUS_STRATA), "pattern": interleaved(CORPUS_STRATA),
            "warmup": list(range(CORPUS_STRATA))}
    write("corpus", plan, out)
    print(f"corpus: {len(out)} of {CORPUS_POOL} draws certified")


def record_sweep(am) -> None:
    from agendamech import cli
    paths = write_sweep_models()
    target = WORK / "sweep.csv"
    out = {name: {} for name in SWEEP_NAMES}
    costs = {name: {} for name in SWEEP_NAMES}
    for name in SWEEP_NAMES:
        for j in range(len(SWEEP_STARTS)):
            code, cost = costed(lambda: cli.main(
                ["sweep", "--model", paths[name], "--grid", sweep_grid(j), "--out", str(target)]))
            if code == 0:
                out[name][str(j)] = target.read_text()
                costs[name][j] = cost
    lead, others = SWEEP_NAMES[0], SWEEP_NAMES[1:]
    strata = [[[lead, j] for j in s] for s in stratify(costs[lead], SWEEP_LEAD_STRATA)]
    strata += [[[name, j] for j in sorted(costs[name])] for name in others]
    # Two concave-window sweeps per other fixture: two thirds of the calls,
    # so the median call is a concave-window one.
    lead_order = iter(interleaved(SWEEP_LEAD_STRATA))
    pattern = []
    for k in range(len(others)):
        pattern += [next(lead_order), SWEEP_LEAD_STRATA + k, next(lead_order)]
    plan = {"strata": strata, "pattern": pattern,
            "warmup": [0] + [SWEEP_LEAD_STRATA + k for k in range(len(others))]}
    write("sweep", plan, out)
    print("sweep: " + ", ".join(f"{n} {len(c)}" for n, c in costs.items()))


def record_ladder(am) -> None:
    out, costs = {}, {}
    for i in range(LADDER_CANDIDATES):
        econ = ladder_economy(am, i)
        try:
            table, cost = costed(lambda: am.threshold_table(econ))
        except am.SolverError:
            continue
        if LADDER_BAND[0] <= cost <= LADDER_BAND[1]:
            out[str(i)] = ladder_record(table)
            costs[i] = cost
    plan = {"strata": stratify(costs, LADDER_STRATA), "pattern": interleaved(LADDER_STRATA),
            "warmup": [0]}
    write("ladder", plan, out)
    print(f"ladder: {len(out)} of {LADDER_CANDIDATES} candidates in the cost band")


def main(argv) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import agendamech as am
    recorders = {"corpus": record_corpus, "sweep": record_sweep, "ladder": record_ladder}
    for name in argv or list(recorders):
        recorders[name](am)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
