"""Compare two ``dump_outputs.py`` files class by class.

Run from anywhere::

    python scripts/compare_dumps.py OLD NEW

Lines are paired by position and sorted into output classes: validation,
reservation, solution, shadow weight (its description and its values),
schedule, anchor (each schedule's anchor type), oracle, threshold table,
sweep CSV, sweep segments, solve record (the JSON ``solve`` writes), verify
(``verify``'s stderr on that record), error and header. For each class the
script prints how many lines moved and the largest absolute and relative
change of a number (relative to the old value; ``inf`` when a zero moved)
and the largest change scaled by ``max(1, |old|)``.

Float literals, numeric CSV cells and JSON numbers (of sweep segments and
solve records) are numeric. Everything else (integers in a ``repr`` such
as agent indices, coalitions and grid sizes, regimes, booleans, notes'
words, CSV text cells, line counts) must match exactly. The exit code is
1 when anything but a number differs, which includes a flipped oracle
verdict, a changed regime, coalition, excluded or bunched set, and an
oracle's ``worst_deviation`` that moved to another (agent, type,
misreport). One case is reported as noise instead: such a move while the
old and new gains are both below 1e-14. The exit code is 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import re
import sys

NOISE_GAIN = 1e-14
NOISE_SHOWN = 10
# float literals as repr writes them, and the same with integers added
FLOAT = re.compile(r"(?<![\w.])-?(?:(?:\d+\.\d*|\.\d+)(?:e[+-]?\d+)?|\d+e[+-]?\d+|inf|nan)"
                   r"(?![\w.])")
NUMBER = re.compile(r"(?<![\w.])-?(?:(?:\d+\.\d*|\.\d+|\d+)(?:e[+-]?\d+)?|inf|nan)(?![\w.])")
DEVIATION = re.compile(r"worst_deviation=DeviationRecord\(agent=(\d+), true_type=([^,]+), "
                       r"misreport=([^,]+), gain=([^)]+)\)")
VERDICT = re.compile(r"(\w+_ok)=(\w+)")
GAMMA_TEXT = ("constant ", "mass at ", "point mass", "piecewise ")
# the lines that follow a "sweep|solve|verify NAME exit N" header, in order
FOLLOWERS = {"sweep": ("sweep CSV", "sweep segments"), "solve": ("solve record",),
             "verify": ("verify",)}
SECTION = re.compile(r"(sweep|solve|verify) \S+ exit -?\d+$")


class Stats:
    def __init__(self):
        self.lines = self.moved = 0
        self.abs = self.rel = self.scaled = 0.0

    def add(self, old: float, new: float) -> float:
        """Record one pair of numbers; return the scaled change."""
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        diff = abs(new - old)
        if math.isfinite(diff) and math.isfinite(old):
            rel, scaled = diff / abs(old) if old else math.inf, diff / max(1.0, abs(old))
        else:
            diff = rel = scaled = math.inf
        self.abs, self.rel = max(self.abs, diff), max(self.rel, rel)
        self.scaled = max(self.scaled, scaled)
        return scaled


def classify(line: str, follower) -> str:
    """Class of one dump line; ``follower`` is the class its position after
    a sweep, solve or verify header gives it, if any."""
    if follower and line.startswith(("b'", 'b"', "'", '"')):
        return follower
    for prefix, name in (("ValidationReport(", "validation"), ("OracleReport(", "oracle"),
                         ("ThresholdTable(", "threshold table"),
                         ("('foc'", "schedule"), ("('flat'", "schedule"),
                         ("([", "reservation"), ("[", "shadow weight")):
        if line.startswith(prefix):
            return name
    if line.startswith("(") and "<Regime." in line:
        return "solution"
    if line.startswith(GAMMA_TEXT):
        return "shadow weight"
    if re.match(r"\w+: ", line):
        return "error"
    return "header"


def _tokens(line: str, pattern) -> tuple:
    return pattern.sub("#", line), [float(m) for m in pattern.findall(line)]


def _csv_rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode())))


def _csv_pairs(old: bytes, new: bytes):
    """Numeric cell pairs of two sweep CSVs, or None when their text differs."""
    a, b = _csv_rows(old), _csv_rows(new)
    if len(a) != len(b) or not a or a[0] != b[0]:
        return None
    pairs = []
    for row_a, row_b in zip(a[1:], b[1:]):
        if len(row_a) != len(row_b):
            return None
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                pairs.append((float(x), float(y)))
            except ValueError:
                return None
    return pairs


def _json_pairs(a, b, out: list) -> bool:
    """Collect numeric leaf pairs of two JSON values; False if their shape differs."""
    number = (int, float)
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, number) and isinstance(b, number):
        out.append((float(a), float(b)))
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_pairs(a[k], b[k], out) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_pairs(x, y, out) for x, y in zip(a, b))
    return a == b


def _argmax_change(old: str, new: str):
    """(message, noise, old, new) when the oracle's worst deviation moved to
    another (agent, type, misreport), with that record blanked in both lines;
    noise when its old and new gains are both below NOISE_GAIN."""
    a, b = DEVIATION.search(old), DEVIATION.search(new)
    if not a or not b or a.groups()[:3] == b.groups()[:3]:
        return None
    gains = (float(a.group(4)), float(b.group(4)))
    message = (f"worst_deviation argmax {a.groups()[:3]} -> {b.groups()[:3]} "
               f"with gains {gains[0]:.3g} -> {gains[1]:.3g}")
    blank = "worst_deviation=<argmax>"
    return (message, max(abs(g) for g in gains) < NOISE_GAIN,
            old[:a.start()] + blank + old[a.end():], new[:b.start()] + blank + new[b.end():])


def _pairs(kind: str, old: str, new: str):
    """(class, old, new) numbers of one line pair, or None if the lines differ
    in anything but numbers. A schedule's first float is its anchor."""
    if kind == "sweep CSV":
        pairs = _csv_pairs(ast.literal_eval(old), ast.literal_eval(new))
    elif kind in ("sweep segments", "solve record"):
        pairs = []
        if not _json_pairs(json.loads(ast.literal_eval(old)), json.loads(ast.literal_eval(new)),
                           pairs):
            return None
    else:
        pattern = NUMBER if kind in ("shadow weight", "error") else FLOAT
        (skel_a, nums_a), (skel_b, nums_b) = _tokens(old, pattern), _tokens(new, pattern)
        if skel_a != skel_b:
            return None
        pairs = list(zip(nums_a, nums_b))
    if pairs is None:
        return None
    out = [(kind, x, y) for x, y in pairs]
    if kind == "schedule" and out:  # (kind, agent, anchor, allocations, transfers)
        out[0] = ("anchor", *pairs[0])
    return out


def compare(old_lines: list, new_lines: list) -> tuple:
    """(stats by class, failures, noise) of two dumps."""
    stats: dict = {}
    failures: list = []
    noise: list = []
    if len(old_lines) != len(new_lines):
        failures.append(f"line count {len(old_lines)} -> {len(new_lines)}")
    followers = ()  # classes of the lines after the last section header
    for number, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        kind = classify(old, followers[0] if followers else None)
        section = SECTION.match(old)
        followers = FOLLOWERS[section.group(1)] if section else followers[1:]
        for cls in (kind, "anchor") if kind == "schedule" else (kind,):
            stats.setdefault(cls, Stats()).lines += 1
        if old == new:
            continue
        if kind == "oracle":
            flips = [(x, y) for x, y in zip(VERDICT.findall(old), VERDICT.findall(new)) if x != y]
            for (name, was), (_, now) in flips:
                failures.append(f"line {number}: oracle verdict {name} {was} -> {now}")
            if flips:
                continue
            change = _argmax_change(old, new)
            if change:
                message, is_noise, old, new = change
                (noise if is_noise else failures).append(f"line {number}: {message}")
                if not is_noise:
                    continue
        pairs = _pairs(kind, old, new)
        if pairs is None:
            failures.append(f"line {number} ({kind}): non-numeric difference")
            continue
        moved = {cls for cls, x, y in pairs if stats.setdefault(cls, Stats()).add(x, y)}
        for cls in moved:
            stats[cls].moved += 1
    return stats, failures, noise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old) as fa, open(args.new) as fb:
        old_lines, new_lines = fa.read().splitlines(), fb.read().splitlines()
    stats, failures, noise = compare(old_lines, new_lines)
    print(f"{'class':<16} {'lines':>6} {'moved':>6} {'max abs':>10} {'max rel':>10} "
          f"{'max scaled':>10}")
    for name, row in sorted(stats.items()):
        print(f"{name:<16} {row.lines:>6} {row.moved:>6} {row.abs:>10.3g} {row.rel:>10.3g} "
              f"{row.scaled:>10.3g}")
    if noise:
        print(f"noise: {len(noise)} worst_deviation argmax changes with every gain "
              f"below {NOISE_GAIN:g}, the first {min(len(noise), NOISE_SHOWN)}:")
        for line in noise[:NOISE_SHOWN]:
            print(f"  {line}")
    for line in failures:
        print(f"FAIL: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
