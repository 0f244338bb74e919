"""Time a revision and this working tree in alternating benchmark pairs.

Run from anywhere inside the repository::

    python scripts/bench_pairs.py PARENT --workload ladder --seed 1201 --pairs 10

The script extracts ``PARENT``'s committed files with ``git archive`` into a
temporary directory and copies this working tree's ``src/``, ``perfbench/``
and ``BENCHMARK.json`` (uncommitted edits included) into another, so no run
writes into the repository. Each pair runs ``perfbench/run.py`` once on
each side, one after the other; odd pairs run the parent first, even pairs
the change. It prints one line per pair, then, for each end-to-end metric
of ``BENCHMARK.json``, the median and quartiles of each side, the change of
the medians, the change's wins out of the pairs (a win is a better value
in the metric's own direction) and a verdict against the metric's bound
(see ``verdict``). ``--seconds`` defaults to the benchmark's
``run_seconds``. Exit codes: 0 when every run is correct, 1 when a run is
not, 2 on a usage error, an unknown revision or a failed run. Both trees
are removed in every case.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> tuple:
    """(correct, {metric: value}) from a run's last line of output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return bool(result["correct"]), {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(old: list, new: list, higher: bool, bound: float) -> str:
    """The change's verdict on one metric from paired runs ``old`` (parent)
    and ``new`` (change), better when ``higher`` or lower, against its
    relative ``bound``, first rule that holds:

    - ``gain``: the change wins at least 9 of 10 pairs and its median is
      better than the parent's by more than the parent's interquartile range;
    - ``worse than bound``: its median is worse than the parent's by more
      than ``bound`` of the parent's;
    - ``unresolved``: the parent's interquartile range is wider than
      ``bound`` of its median, and some change run does not beat every
      parent run;
    - ``within bound``: every other case.
    """
    sign = 1.0 if higher else -1.0
    (o1, om, o3), nm = quartiles(old), quartiles(new)[1]
    wins = sum(sign * b > sign * a for a, b in zip(old, new))
    if wins >= 0.9 * len(old) and sign * (nm - om) > o3 - o1:
        return "gain"
    if sign * (om - nm) > bound * abs(om):
        return "worse than bound"
    if o3 - o1 > bound * abs(om) and min(sign * b for b in new) <= max(sign * a for a in old):
        return "unresolved"
    return "within bound"


def summarize(pairs: list, spec: dict) -> list:
    """One line per end-to-end metric of ``spec`` from ``pairs``, a list of
    {side: {metric: value}}: each side's median [quartiles], the change of
    the medians in percent, the change's wins in the metric's direction and
    its `verdict` against the metric's bound."""
    lines = []
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [pair["parent"][name] for pair in pairs]
        new = [pair["change"][name] for pair in pairs]
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        change = 100.0 * (nm / om - 1.0) if om else float("nan")
        lines.append(f"{name}: parent {om:.6g} [{o1:.6g}, {o3:.6g}] -> change {nm:.6g} "
                     f"[{n1:.6g}, {n3:.6g}], {change:+.1f} %, wins {wins}/{len(pairs)} "
                     f"({metric['better']} is better): "
                     f"{verdict(old, new, higher, metric['bound'])} ({100 * metric['bound']:g} %)")
    return lines


def _run(tree: Path, args) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"run.py failed in the {tree.name} tree")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(trees["parent"],
                                                                   filter="data")
        skip = shutil.ignore_patterns("__pycache__", "work", "results")
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, trees["change"] / part, ignore=skip)
        shutil.copyfile(ROOT / "BENCHMARK.json", trees["change"] / "BENCHMARK.json")
        pairs, correct = [], True
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {}
            try:
                for side in order:
                    ok, pair[side] = _run(trees[side], args)
                    correct &= ok
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            print(f"pair {k + 1} ({order[0]} first): " + ", ".join(
                f"{side} ops_per_s {pair[side].get('ops_per_s', float('nan')):.6g}"
                for side in SIDES), flush=True)
            pairs.append(pair)
        print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
        for line in summarize(pairs, spec):
            print(line)
        if not correct:
            print("a run was not correct", file=sys.stderr)
        return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
