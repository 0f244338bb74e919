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
        "wins 4/5 (higher is better)",
        "latency_ms.p50: parent 2.5 [2.45, 2.55] -> change 2.08 [2.05, 2.1], -16.8 %, "
        "wins 4/5 (lower is better)",
        "setup_s: parent 0.029 [0.028, 0.03] -> change 0.03 [0.029, 0.03], +3.4 %, "
        "wins 2/5 (lower is better)",
        "peak_rss_mb: parent 34 [34, 34.1] -> change 34.2 [34.1, 34.2], +0.6 %, "
        "wins 1/5 (lower is better)",
    ]


def test_unknown_revision_is_a_usage_error(capsys):
    assert bench_pairs.main(["no-such-revision", "--workload", "ladder", "--seed", "1",
                             "--pairs", "1", "--seconds", "0.1"]) == 2


@pytest.mark.parametrize("argv", [[], ["HEAD", "--workload", "ladder"]])
def test_missing_arguments_exit_two(argv):
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert info.value.code == 2
