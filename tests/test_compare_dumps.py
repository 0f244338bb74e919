import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_dumps.py"
spec = importlib.util.spec_from_file_location("compare_dumps", SCRIPT)
compare_dumps = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_dumps)

SOLUTION = ("(0.5, <Regime.MIXED_INTERIOR: 'mixed_interior'>, [0, 1, 2], [], [], (0.5,), "
            "Partition(K=frozenset({1}), L=frozenset(), M=frozenset({2})), (0.25, -0.125, 0.375), "
            "Thresholds(g_low=0.0, g_high=2.5), Thresholds(g_low=0.0, g_high=2.5), ())")
SCHEDULE = "('foc', 1, 0.38, [0.0, 0.5], [0.125, -0.25])"
ORACLE = ("OracleReport(dsic_ok=True, worst_deviation=DeviationRecord(agent=1, true_type=0.2, "
          "misreport=0.025, gain={gain}), monotone_ok=True, first_monotonicity_violation=None, "
          "participation_ok=True, participation_slack=((0, 0.0), (1, 0.0)), budget_slack=0.0, "
          "budget_ok=True, tolerance=1e-08, grid_size=41, notes=())")
CSV = repr(b"g_circ,status,g_star,regime,coalition\n0,ok,1.5,understate_interior,0 3 4\n")
RECORD = repr(b'{"g_star": 0.1, "regime": "understate_interior", "transfers": [0.02, 0.08]}\n')
DUMP = ["corpus 0", SOLUTION, "mass at theta=0.5 (weight 0.9 on the point)", "[0.9, 1.0]",
        SCHEDULE, ORACLE.format(gain="1e-16"), "sweep golden exit 0", CSV, repr(b'{"a": 2.5}\n'),
        "solve golden exit 0", RECORD, "verify golden exit 0", repr("")]


def _run(new):
    stats, failures, noise = compare_dumps.compare(DUMP, new)
    return {k: (v.lines, v.moved, v.abs, v.scaled) for k, v in stats.items()}, failures, noise


def _edit(index, old, new):
    out = list(DUMP)
    out[index] = out[index].replace(old, new)
    assert out != DUMP
    return out


def test_identical_dumps_move_nothing():
    stats, failures, noise = _run(list(DUMP))
    assert not failures and not noise
    assert stats["solution"] == (1, 0, 0.0, 0.0)
    assert stats["anchor"] == (1, 0, 0.0, 0.0)
    assert stats["sweep CSV"] == (1, 0, 0.0, 0.0) and stats["sweep segments"] == (1, 0, 0.0, 0.0)
    assert stats["solve record"] == (1, 0, 0.0, 0.0) and stats["verify"] == (1, 0, 0.0, 0.0)
    assert stats["header"][0] == 4  # "corpus 0" and the sweep, solve and verify headers


def test_numeric_moves_are_counted_by_class():
    new = _edit(1, "-0.125", "-0.12500000000000003")
    new[4] = "('foc', 1, 0.3800001, [0.0, 0.5], [0.125, -0.25])"
    new[7] = CSV.replace("1.5", "1.5000000000000002")
    new[8] = repr(b'{"a": 4.5}\n')
    stats, failures, _ = _run(new)
    assert not failures
    assert stats["solution"][1] == 1 and stats["solution"][2] == pytest.approx(3e-17, rel=0.1)
    assert stats["anchor"][1] == 1 and stats["anchor"][2] == pytest.approx(1e-7, rel=1e-3)
    assert stats["schedule"][1] == 0
    assert stats["sweep CSV"][1] == 1
    assert stats["sweep segments"][1:] == (1, 2.0, 0.8)  # scaled by max(1, |old|)


def test_solve_record_numbers_are_compared_as_json():
    stats, failures, _ = _run(_edit(10, "0.1,", "0.2,"))
    assert not failures
    assert stats["solve record"][:3] == (1, 1, pytest.approx(0.1, rel=1e-12))
    assert stats["header"][1] == 0


@pytest.mark.parametrize("index, old, new", [
    (1, "MIXED_INTERIOR: 'mixed_interior'", "UNDERSTATE_INTERIOR: 'understate_interior'"),
    (1, "[0, 1, 2]", "[0, 2]"),  # coalition
    (5, "dsic_ok=True", "dsic_ok=False"),
    (7, "understate_interior", "mixed_interior"),  # a CSV text cell
    (4, "('foc', 1,", "('foc', 2,"),
    (10, "understate_interior", "mixed_interior"),  # a record's regime
    (12, "''", "'solution does not match the model economy'"),  # verify's stderr
])
def test_non_numeric_differences_fail(index, old, new):
    assert _run(_edit(index, old, new))[1]


def test_worst_deviation_argmax_below_noise_is_reported_not_failed():
    new = _edit(5, "true_type=0.2", "true_type=0.175")
    _, failures, noise = _run(new)
    assert not failures and len(noise) == 1 and "argmax" in noise[0]
    old_lines, new_lines = ([line.replace("gain=1e-16", "gain=1e-13") for line in dump]
                            for dump in (DUMP, new))
    assert compare_dumps.compare(old_lines, new_lines)[1]


def test_main_exit_codes(tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(DUMP) + "\n")
    new.write_text("\n".join(DUMP) + "\n")
    assert compare_dumps.main([str(old), str(new)]) == 0
    new.write_text("\n".join(_edit(5, "dsic_ok=True", "dsic_ok=False")) + "\n")
    assert compare_dumps.main([str(old), str(new)]) == 1
    assert "oracle verdict dsic_ok True -> False" in capsys.readouterr().out
    new.write_text("\n".join(DUMP[:-1]) + "\n")
    assert compare_dumps.main([str(old), str(new)]) == 1
