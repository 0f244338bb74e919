import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _line(ops, p50, setup, rss, correct=True) -> str:
    """A run's last line of output, as `perfbench/run.py` prints it."""
    values = {"ops_per_s": (ops, "1/s"), "latency_ms.p50": (p50, "ms"),
              "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB")}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        k: {"value": v, "unit": u} for k, (v, u) in values.items()}})


def test_parse_result_reads_the_last_line():
    out = "# {\"summary\": 1}\n" + _line(400.0, 2.5, 0.03, 34.0, correct=False) + "\n"
    correct, metrics = bench_pairs.parse_result(out)
    assert not correct
    assert metrics == {"ops_per_s": 400.0, "latency_ms.p50": 2.5, "setup_s": 0.03,
                       "peak_rss_mb": 34.0}


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_in_each_metric_direction():
    """Five canned pairs: the change wins ops/s 4 of 5 (higher is better) and
    p50 4 of 5 (lower is better), ties count as losses, and the medians'
    change is the change's median over the parent's."""
    runs = [((380, 2.50, 0.030, 34.0), (460, 2.05, 0.030, 34.2)),
            ((370, 2.60, 0.028, 34.1), (450, 2.10, 0.031, 34.3)),
            ((390, 2.40, 0.029, 34.0), (380, 2.45, 0.027, 33.9)),
            ((375, 2.55, 0.027, 34.2), (470, 2.00, 0.029, 34.2)),
            ((385, 2.45, 0.031, 34.0), (455, 2.08, 0.030, 34.1))]
    pairs = [{side: bench_pairs.parse_result(_line(*values))[1]
              for side, values in zip(bench_pairs.SIDES, pair)} for pair in runs]
    lines = bench_pairs.summarize(pairs, SPEC)
    assert lines == [
        "ops_per_s: parent 380 [375, 385] -> change 455 [450, 460], +19.7 %, "
        "wins 4/5 (higher is better): within bound (25 %)",
        "latency_ms.p50: parent 2.5 [2.45, 2.55] -> change 2.08 [2.05, 2.1], -16.8 %, "
        "wins 4/5 (lower is better): within bound (25 %)",
        "setup_s: parent 0.029 [0.028, 0.03] -> change 0.03 [0.029, 0.03], +3.4 %, "
        "wins 2/5 (lower is better): within bound (25 %)",
        "peak_rss_mb: parent 34 [34, 34.1] -> change 34.2 [34.1, 34.2], +0.6 %, "
        "wins 1/5 (lower is better): within bound (10 %)",
    ]


PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
WIDE = [10.0, 11.0, 100.0, 101.0, 102.0]  # quartiles 11, 100, 101: 90 % of the median
WIDE_LOW = [98.0, 99.0, 100.0, 189.0, 190.0]  # quartiles 99, 100, 189, when lower is better


@pytest.mark.parametrize("old, new, higher, bound, expected", [
    # 10/10 wins and a median 10 above the parent's interquartile range of 1
    (PARENT, [v + 10.0 for v in PARENT], True, 0.25, "gain"),
    ([v / 50 for v in PARENT], [v / 50 - 0.2 for v in PARENT], False, 0.25, "gain"),
    # 9 of 10 wins is enough; 8 of 10 is not, however large the medians' change
    (PARENT, [v + 10.0 for v in PARENT[:9]] + [90.0], True, 0.25, "gain"),
    (PARENT, [v + 10.0 for v in PARENT[:8]] + [90.0, 90.0], True, 0.25, "within bound"),
    # every pair won, but the medians differ by less than the parent's spread
    (PARENT, [v + 0.5 for v in PARENT], True, 0.25, "within bound"),
    # a median 30 % below the parent's, and one 11.8 % above it when lower is better
    (PARENT, [v - 30.0 for v in PARENT], True, 0.25, "worse than bound"),
    ([34.0] * 5, [38.0] * 5, False, 0.1, "worse than bound"),
    # the parent's spread is wider than the bound and the change does not beat all of it
    (WIDE, [99.0, 100.0, 101.0, 100.0, 100.0], True, 0.25, "unresolved"),
    (WIDE_LOW, [99.0, 100.0, 101.0, 100.0, 100.0], False, 0.25, "unresolved"),
    # ... unless every change run beats every parent run
    (WIDE, [103.0, 104.0, 105.0, 106.0, 107.0], True, 0.25, "within bound"),
    (WIDE_LOW, [93.0, 94.0, 95.0, 96.0, 97.0], False, 0.25, "within bound"),
    # a 20 % fall inside a 25 % bound
    (PARENT, [v - 20.0 for v in PARENT], True, 0.25, "within bound"),
], ids=["gain", "gain_lower", "gain_9_of_10", "8_of_10", "inside_spread", "worse",
        "worse_lower", "unresolved", "unresolved_lower", "beats_every_run",
        "beats_every_run_lower", "within"])
def test_verdict_per_metric(old, new, higher, bound, expected):
    assert bench_pairs.verdict(old, new, higher, bound) == expected


def test_unknown_revision_is_a_usage_error(capsys):
    assert bench_pairs.main(["no-such-revision", "--workload", "ladder", "--seed", "1",
                             "--pairs", "1", "--seconds", "0.1"]) == 2


@pytest.mark.parametrize("argv", [[], ["HEAD", "--workload", "ladder"]])
def test_missing_arguments_exit_two(argv):
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert info.value.code == 2
