import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agendamech as am
from agendamech import cli
from agendamech.cli import load_model, main

GOLDEN_MODEL = {
    "economy": {
        "agenda_setter_type": 0.5,
        "agent_types": [0.8],
        "quota": 2,
        "outside_g": 0.0,
        "distributions": {"family": "uniform", "lo": 0.0, "hi": 1.0},
        "technology": {"family": "log"},
        "reservation": {"family": "linear"},
    }
}

NON_MONOTONE_MODEL = {
    "economy": {
        "agenda_setter_type": 0.5,
        "agent_types": [0.2, 0.8],
        "quota": 2,
        "outside_g": 0.0,
        "distributions": {"family": "uniform"},
        "technology": {"family": "log"},
        "reservation": {"family": "linear"},
    }
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_golden_record(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["g_star"] == pytest.approx(0.1, abs=1e-8)
    assert record["regime"] == "understate_interior"
    assert record["oracle"]["passed"] is True
    assert (record["oracle"]["grid_size"], record["oracle"]["tolerance"]) == (41, 1e-8)
    assert record["coalition"] == [0, 1]


def test_solve_missing_field_exit_2(tmp_path, capsys):
    broken = {"economy": dict(GOLDEN_MODEL["economy"])}
    del broken["economy"]["quota"]
    model = _write(tmp_path, "broken.json", broken)
    assert main(["solve", "--model", model]) == 2
    assert "quota" in capsys.readouterr().err


def test_solve_invalid_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--model", str(path)]) == 2


@pytest.mark.parametrize("block, spec, field", [
    ("technology", {"family": "power", "alpha": 1.5}, "alpha"),
    ("reservation", {"family": "negative_slope", "level": 1.0, "slope": -0.2}, "slope"),
    ("technology", {"family": "power", "alpha": "half"}, "alpha"),
    ("distributions", {"family": "uniform", "lo": "zero"}, "lo"),
    ("reservation", {"family": "quadratic_share", "slope": "s", "curve": 0.5}, "slope"),
    ("technology", {"family": "power", "alpha": True}, "alpha"),
    ("distributions", {"family": "truncated_exponential", "rate": float("nan")}, "rate"),
], ids=["alpha-range", "slope-sign", "alpha-string", "lo-string", "slope-string",
        "alpha-bool", "rate-nan"])
def test_bad_family_parameter_exit_2(tmp_path, capsys, block, spec, field):
    payload = {"economy": {**GOLDEN_MODEL["economy"], block: spec}}
    model = _write(tmp_path, "bad.json", payload)
    assert main(["solve", "--model", model]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"model file error: economy.{block}")
    assert field in err


@pytest.mark.parametrize("solver, field", [
    ({"grid_size": "x"}, "grid_size"),
    ({"grid_size": 41.5}, "grid_size"),
    ({"grid_size": True}, "grid_size"),
    ({"grid_size": 3}, "grid_size"),
    ({"seed": "2"}, "seed"),
    ({"seed": 2.0}, "seed"),
    ({"tolerance": float("nan")}, "tolerance"),
    ({"tolerance": "tight"}, "tolerance"),
    ({"tau_bar": None}, "tau_bar"),
    ({"tau_bar": [0.1]}, "tau_bar"),
], ids=["grid-string", "grid-fraction", "grid-bool", "grid-small", "seed-string",
        "seed-float", "tolerance-nan", "tolerance-string", "tau-null", "tau-list"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_bad_solver_option_exit_2(tmp_path, capsys, solver, field, command):
    model = _write(tmp_path, "bad.json", {**GOLDEN_MODEL, "solver": solver})
    args = ["--solution", _write(tmp_path, "sol.json", {})] if command == "verify" else []
    assert main([command, "--model", model, *args]) == 2
    assert capsys.readouterr().err.startswith(f"model file error: solver.{field}: ")


def test_solver_options_accept_integral_tolerance(tmp_path):
    payload = {**GOLDEN_MODEL, "solver": {"seed": 1, "tau_bar": 0}}
    model = _write(tmp_path, "model.json", payload)
    assert main(["solve", "--model", model, "--out", str(tmp_path / "sol.json")]) == 0


@pytest.mark.parametrize("path, value", [
    ("economy.technology", 5),
    ("economy.technology", "log"),
    ("economy.reservation", ["linear"]),
    ("economy.distributions", 5),
    ("economy.distributions[0]", None),
    ("economy", "golden"),
    ("solver", 41),
], ids=["technology-number", "technology-string", "reservation-list", "distributions-number",
        "distribution-entry-null", "economy-string", "solver-number"])
def test_non_object_block_exit_2(tmp_path, capsys, path, value):
    payload = {"economy": dict(GOLDEN_MODEL["economy"])}
    if path == "economy.distributions[0]":
        payload["economy"]["distributions"] = [value]
    elif path.startswith("economy."):
        payload["economy"][path.split(".")[1]] = value
    else:
        payload[path] = value
    model = _write(tmp_path, "bad.json", payload)
    assert main(["solve", "--model", model]) == 2
    assert capsys.readouterr().err == (
        f"model file error: {path}: must be a JSON object, got {value!r}\n")


@pytest.mark.parametrize("payload, path, expected", [
    ({"output": "out.json"}, "$.output", "economy, solver"),
    ({"output": {"out": "solution.json", "format": "json"}}, "$.output", "economy, solver"),
    ({"solver": {"grid_size": 41}}, "solver.grid_size", "seed, tau_bar"),
    ({"solver": {"tolerance": 1e-8, "seed": 1}}, "solver.tolerance", "seed, tau_bar"),
], ids=["output-string", "output-block", "grid-size", "tolerance"])
@pytest.mark.parametrize("command", ["solve", "sweep", "verify", "vcg"])
def test_retired_model_key_exit_2(tmp_path, capsys, payload, path, expected, command):
    # the oracle's grid and tolerance and the output paths have one home
    # each; a model file that still sets them is refused like any unknown key
    model = _write(tmp_path, "retired.json", {**GOLDEN_MODEL, **payload})
    args = {"solve": [], "sweep": ["--grid", "0:1:3"], "vcg": [],
            "verify": ["--solution", _write(tmp_path, "sol.json", {})]}[command]
    assert main([command, "--model", model, *args]) == 2
    assert capsys.readouterr().err == (
        f"model file error: {path}: unknown key; expected one of {expected}\n")


def test_loosening_solver_block_exit_2(tmp_path, capsys):
    model = _write(tmp_path, "loose.json",
                   {**GOLDEN_MODEL, "solver": {"grid_size": 5, "tolerance": 1}})
    out = tmp_path / "sol.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "model file error: solver.grid_size: unknown key; ")
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--tau-bar", "0.05"]],
                         ids=["seed", "tau-bar"])
def test_solve_mechanism_flags_exit_2(tmp_path, flag):
    model = _write(tmp_path, "model.json", NON_MONOTONE_MODEL)
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--model", model, *flag])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("block, spec, parts", [
    ("distributions", {"family": "truncated_normal", "mu": 0.4, "sigma": 0.3},
     lambda tech: {"distributions": am.truncated_normal(0.4, 0.3)}),
    ("reservation", {"family": "zero"}, lambda tech: {"reservation": am.zero_reservation()}),
    ("reservation", {"family": "negative_slope", "level": 1.0, "slope": 0.5},
     lambda tech: {"reservation": am.negative_slope_reservation(tech, 1.0, 0.5)}),
], ids=["truncated_normal", "zero", "negative_slope"])
def test_model_file_families_match_library(tmp_path, block, spec, parts):
    payload = {"economy": {**GOLDEN_MODEL["economy"], "agenda_setter_type": 1.5,
                           "agent_types": [0.3, 0.8], "quota": 3, "outside_g": 0.5, block: spec}}
    loaded = load_model(_write(tmp_path, "model.json", payload))[0]
    tech = am.log_technology()
    built = am.Economy(1.5, (0.3, 0.8), am.uniform(0.0, 1.0), tech,
                       am.linear_reservation(tech, 3), 3, 0.5)
    built = dataclasses.replace(built, **parts(tech))
    got, want = am.solve(loaded), am.solve(built)
    for field in dataclasses.fields(got):
        if field.name != "schedules":
            assert getattr(got, field.name) == getattr(want, field.name), field.name
    reports = np.linspace(0.0, 1.0, 9)
    for a, b in zip(got.schedules, want.schedules):
        assert list(a.allocation(reports)) == list(b.allocation(reports))
        assert list(a.transfer(reports)) == list(b.transfer(reports))


@pytest.mark.parametrize("edit, code, message", [
    ({"distributions": {"family": "uniform", "lo": 1, "hi": 0.5}}, 2,
     "economy.distributions: type support requires theta_hi > theta_lo"),
    ({"distributions": {"family": "truncated_exponential", "rate": 0}}, 2,
     "rate must be positive"),
    ({"distributions": [{"family": "uniform"}, {"family": "uniform"}]}, 3,
     "one distribution per non-agenda agent required"),
], ids=["support-reversed", "rate-zero", "two-specs-one-agent"])
def test_model_errors_no_other_test_reaches(tmp_path, capsys, edit, code, message):
    model = _write(tmp_path, "bad.json", {"economy": {**GOLDEN_MODEL["economy"], **edit}})
    assert main(["solve", "--model", model]) == code
    assert message in capsys.readouterr().err


def test_module_entry_point_writes_the_solve_record(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    direct, entry = tmp_path / "direct.json", tmp_path / "entry.json"
    assert main(["solve", "--model", model, "--out", str(direct)]) == 0
    src = str(Path(am.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "agendamech", "solve", "--model", model,
                           "--out", str(entry)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert entry.read_bytes() == direct.read_bytes()


def test_solve_validation_failure_exit_3(tmp_path, capsys):
    # a mislabelled curvature fails validation before solving
    payload = {"economy": dict(GOLDEN_MODEL["economy"])}
    payload["economy"]["reservation"] = {"family": "quadratic_share",
                                         "slope": -0.5, "curve": 0.1}
    model = _write(tmp_path, "invalid.json", payload)
    assert main(["solve", "--model", model]) == 3
    assert "validation failed" in capsys.readouterr().err


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    assert main(["verify", "--model", model, "--solution", str(out)]) == 0

    record = json.loads(out.read_text())
    record["transfers"][1] += 0.01
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(record))
    assert main(["verify", "--model", model, "--solution", str(tampered)]) == 4
    assert "solution.transfers[1]: differs from the re-solved record" in capsys.readouterr().err

    record = json.loads(out.read_text())
    record["transfers"][0] += 5
    tampered.write_text(json.dumps(record))
    assert main(["verify", "--model", model, "--solution", str(tampered)]) == 4
    assert "solution.transfers[0]: differs from the re-solved record" in capsys.readouterr().err

    other = {"economy": dict(GOLDEN_MODEL["economy"])}
    other["economy"]["agent_types"] = [0.4]
    model2 = _write(tmp_path, "other.json", other)
    assert main(["verify", "--model", model2, "--solution", str(out)]) == 3


def test_sweep_csv_shape_and_determinism(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--model", model, "--grid", "0:2:41",
                 "--out", str(out_a), "--plot-data", str(tmp_path / "a.seg.json")]) == 0
    assert main(["sweep", "--model", model, "--grid", "0:2:41",
                 "--out", str(out_b), "--plot-data", str(tmp_path / "b.seg.json")]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text().strip().splitlines()
    assert lines[0].startswith("g_circ,status,g_star,regime")
    assert len(lines) == 42
    segments = json.loads((tmp_path / "a.seg.json").read_text())
    kinds = [s["kind"] for s in segments["segments"]]
    assert kinds == ["flat", "moving", "flat"]
    assert segments["jumps"] == []


def test_sweep_single_point(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "one.csv"
    assert main(["sweep", "--model", model, "--grid", "0.5:0.5:1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.5,ok,0.5")


def test_sweep_negative_level_is_an_error_row(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "neg.csv"
    assert main(["sweep", "--model", model, "--grid=-0.5:0.5:3", "--out", str(out)]) == 4
    rows = out.read_text().splitlines()[1:]
    assert rows[0] == "-0.5,error:InvalidEconomy,,,,,,,"
    assert [row.split(",")[:2] for row in rows[1:]] == [["0", "ok"], ["0.5", "ok"]]


def test_sweep_without_out_writes_csv_then_segments_to_stdout(tmp_path, capsys):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "golden.csv"
    seg = tmp_path / "golden.seg.json"
    assert main(["sweep", "--model", model, "--grid", "0:2:5",
                 "--out", str(out), "--plot-data", str(seg)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--model", model, "--grid", "0:2:5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text() + seg.read_text()
    assert captured.err == ""


def test_missing_model_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["solve", "--model", missing]) == 2
    assert capsys.readouterr().err.startswith(f"model file error: {missing}: cannot read")


def test_unknown_family_exit_2(tmp_path, capsys):
    payload = {"economy": {**GOLDEN_MODEL["economy"], "technology": {"family": "cubic"}}}
    model = _write(tmp_path, "unknown.json", payload)
    assert main(["solve", "--model", model]) == 2
    assert capsys.readouterr().err == (
        "model file error: economy.technology.family: unknown technology family 'cubic'\n")


def test_sweep_validation_failure_exit_3(tmp_path, capsys):
    payload = {"economy": {**GOLDEN_MODEL["economy"], "reservation": {
        "family": "quadratic_share", "slope": -0.5, "curve": 0.1}}}
    model = _write(tmp_path, "invalid.json", payload)
    out = tmp_path / "never.csv"
    assert main(["sweep", "--model", model, "--grid", "0:1:3", "--out", str(out)]) == 3
    assert "validation failed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_detects_downward_jump(tmp_path):
    model = _write(tmp_path, "model.json", NON_MONOTONE_MODEL)
    seg = tmp_path / "seg.json"
    assert main(["sweep", "--model", model, "--grid", "0:1.2:25",
                 "--out", str(tmp_path / "nm.csv"), "--plot-data", str(seg)]) == 0
    jumps = json.loads(seg.read_text())["jumps"]
    assert len(jumps) == 1
    assert jumps[0]["direction"] == "down"
    assert jumps[0]["from"] == pytest.approx(0.5, abs=1e-8)
    assert jumps[0]["to"] == pytest.approx(0.1, abs=1e-8)


def test_vcg_ladder(tmp_path):
    payload = {"economy": dict(GOLDEN_MODEL["economy"])}
    payload["economy"]["agent_types"] = [0.8, 0.7]
    payload["economy"]["quota"] = 3
    payload["economy"]["reservation"] = {"family": "linear"}
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "vcg.json"
    assert main(["vcg", "--model", model, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["epsilon"] for r in rows] == [1e-2, 1e-3, 1e-4]
    assert all(r["deficit"] > 0 for r in rows)
    assert all(r["perturbation_gain"] > 0 for r in rows)


def test_vcg_requires_log_tech_exit_3(tmp_path):
    payload = {"economy": dict(GOLDEN_MODEL["economy"])}
    payload["economy"]["technology"] = {"family": "power", "alpha": 0.5}
    model = _write(tmp_path, "model.json", payload)
    assert main(["vcg", "--model", model]) == 3


def test_vcg_single_agent_economy_exit_3(tmp_path):
    payload = {"economy": dict(GOLDEN_MODEL["economy"])}
    payload["economy"]["agent_types"] = []
    payload["economy"]["quota"] = 1
    model = _write(tmp_path, "model.json", payload)
    assert main(["vcg", "--model", model]) == 3


def test_vcg_epsilon_outside_its_range_exit_3(tmp_path, capsys):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    assert main(["vcg", "--model", model, "--epsilon", "0.5"]) == 3
    assert "epsilon must lie in [0, 0.1]" in capsys.readouterr().err


def test_per_agent_distribution_list(tmp_path):
    payload = {"economy": dict(GOLDEN_MODEL["economy"])}
    payload["economy"]["agent_types"] = [0.3, 0.8]
    payload["economy"]["quota"] = 3
    payload["economy"]["distributions"] = [
        {"family": "uniform"},
        {"family": "truncated_exponential", "rate": 1.0},
    ]
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "sol.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["oracle"]["passed"]


def test_bad_grid_spec_exit_2(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    assert main(["sweep", "--model", model, "--grid", "oops"]) == 2


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "0:nan:2"])
def test_non_finite_grid_exit_2(tmp_path, capsys, grid):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", model, "--grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("model file error: --grid: ")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("outside_g", float("nan")),
                                          ("outside_g", float("inf")),
                                          ("agenda_setter_type", float("nan")),
                                          ("agenda_setter_type", float("-inf"))])
def test_non_finite_economy_level_exit_2(tmp_path, capsys, field, value):
    payload = {"economy": {**GOLDEN_MODEL["economy"], field: value}}
    model = _write(tmp_path, "model.json", payload)
    assert main(["solve", "--model", model]) == 2
    assert capsys.readouterr().err.startswith(f"model file error: economy.{field}: ")


@pytest.mark.parametrize("field, value, named", [
    ("quota", 2.5, "economy.quota"),
    ("quota", 2.0, "economy.quota"),
    ("quota", True, "economy.quota"),
    ("agent_types", ["0.2", 0.8], "economy.agent_types[0]"),
    ("agent_types", [True, 0.8], "economy.agent_types[0]"),
], ids=["quota-fraction", "quota-float", "quota-bool", "type-string", "type-bool"])
def test_bad_quota_or_agent_type_exit_2(tmp_path, capsys, field, value, named):
    payload = {"economy": {**NON_MONOTONE_MODEL["economy"], field: value}}
    model = _write(tmp_path, "model.json", payload)
    assert main(["solve", "--model", model]) == 2
    assert capsys.readouterr().err.startswith(f"model file error: {named}: ")


@pytest.mark.parametrize("edit", [
    lambda record: [record],
    lambda record: {**record, "economy": 5},
    lambda record: {**record, "transfers": ["x"] + record["transfers"][1:]},
    lambda record: {**record, "g_star": None},
    lambda record: {**record, "transfers": "12"},
    lambda record: {**record, "economy": {**record["economy"], "agent_types": "0.8"}},
    lambda record: {k: v for k, v in record.items() if k != "g_star"},
    lambda record: {**record, "g_star": float("nan")},
    lambda record: {**record, "transfers": [float("nan")] + record["transfers"][1:]},
], ids=["list", "economy-number", "transfer-string", "g_star-null", "transfers-string",
        "agent-types-string", "g_star-missing", "g_star-nan", "transfer-nan"])
def test_verify_malformed_solution_exit_2(tmp_path, capsys, edit):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    broken = _write(tmp_path, "broken.json", edit(json.loads(out.read_text())))
    capsys.readouterr()
    assert main(["verify", "--model", model, "--solution", broken]) == 2
    assert capsys.readouterr().err.startswith("cannot read solution: ")


def test_solve_stochastic_coalition_flags(tmp_path):
    payload = {"economy": dict(GOLDEN_MODEL["economy"]),
               "solver": {"seed": 7, "tau_bar": 0.05}}
    payload["economy"]["agent_types"] = [0.2, 0.5, 0.8]
    payload["economy"]["quota"] = 3
    model = _write(tmp_path, "model.json", payload)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--model", model, "--out", str(out_a)]) == 0
    assert main(["solve", "--model", model, "--out", str(out_b)]) == 0
    rec_a, rec_b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    assert rec_a == rec_b  # same seed, same record
    assert rec_a["oracle"]["passed"]
    assert len(rec_a["coalition"]) == 3
    assert main(["verify", "--model", model, "--solution", str(out_a)]) == 0


def test_seeded_solve_verify_round_trip(tmp_path):
    # a drawn coalition is asked for in the model file only, so `verify`
    # re-solves the mechanism `solve` emitted, outsiders' tax included
    payload = {"economy": {**GOLDEN_MODEL["economy"], "agent_types": [0.2, 0.45, 0.8],
                           "quota": 3, "outside_g": 0.5},
               "solver": {"seed": 3, "tau_bar": 0.05}}
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "sol.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--model", _write(tmp_path, "bare.json", {"economy": payload["economy"]}),
              "--seed", "3", "--tau-bar", "0.05", "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["coalition"] == [0, 1, 3]
    assert record["transfers"][2] == pytest.approx(0.05)
    assert main(["verify", "--model", model, "--solution", str(out)]) == 0


def test_sweep_solves_as_the_solver_block_asks(tmp_path):
    payload = {"economy": {**GOLDEN_MODEL["economy"], "agent_types": [0.2, 0.5, 0.8],
                           "quota": 2},
               "solver": {"seed": 2}}
    model = _write(tmp_path, "model.json", payload)
    out, rows = tmp_path / "sol.json", tmp_path / "rows.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    assert main(["sweep", "--model", model, "--grid", "0:0:1", "--format", "json",
                 "--out", str(rows)]) == 0
    record, (row,) = json.loads(out.read_text()), json.loads(rows.read_text())["rows"]
    assert row["g_star"] == record["g_star"] == 0.0
    assert row["regime"] == record["regime"]
    assert row["coalition"] == " ".join(map(str, record["coalition"]))


def test_solver_block_seed_from_model_file(tmp_path):
    payload = {"economy": dict(GOLDEN_MODEL["economy"]),
               "solver": {"seed": 2, "tau_bar": 0.0}}
    payload["economy"]["agent_types"] = [0.2, 0.5, 0.8]
    payload["economy"]["quota"] = 2
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "sol.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert "coalition drawn with seed 2" in " ".join(record["notes"])


def test_verify_solves_as_the_solver_block_asks(tmp_path):
    # the drawn coalition's level differs from the deterministic solve's, so
    # verify must re-draw it rather than solve deterministically
    payload = {"economy": {**GOLDEN_MODEL["economy"], "agent_types": [0.2, 0.5, 0.8],
                           "quota": 2},
               "solver": {"seed": 2, "tau_bar": 0.0}}
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "sol.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["g_star"] != am.solve(load_model(model)[0]).g_star
    assert main(["verify", "--model", model, "--solution", str(out)]) == 0


def test_verify_validation_failure_exit_3(tmp_path, capsys):
    # the same economy block as the stored solution, but a mislabelled
    # curvature that `solve` rejects with exit 3
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    payload = {"economy": {**GOLDEN_MODEL["economy"], "reservation": {
        "family": "quadratic_share", "slope": -0.5, "curve": 0.1}}}
    invalid = _write(tmp_path, "invalid.json", payload)
    assert main(["solve", "--model", invalid]) == 3
    capsys.readouterr()
    assert main(["verify", "--model", invalid, "--solution", str(out)]) == 3
    assert "validation failed" in capsys.readouterr().err


@pytest.mark.parametrize("tau_bar, code, message", [
    (float("nan"), 2, "model file error: solver.tau_bar: "),
    (float("inf"), 2, "model file error: solver.tau_bar: "),
    (float("-inf"), 2, "model file error: solver.tau_bar: "),
    (-0.1, 3, "invalid economy: tau_bar must be finite and nonnegative"),
], ids=["nan", "inf", "-inf", "negative"])
def test_solver_block_bad_tau_bar(tmp_path, capsys, tau_bar, code, message):
    payload = {**NON_MONOTONE_MODEL, "solver": {"seed": 1, "tau_bar": tau_bar}}
    model = _write(tmp_path, "model.json", payload)
    assert main(["solve", "--model", model]) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("edit, named", [
    (lambda record: {**record, "g_star": record["g_star"] - 5e-7},
     "solution.g_star: differs from the re-solved record"),
    (lambda record: {**record, "coalition": [0]},
     "solution.coalition: differs from the re-solved record"),
    (lambda record: {**record, "regime": "mixed_interior"},
     "solution.regime: differs from the re-solved record"),
    (lambda record: {**record, "excluded": [1]},
     "solution.excluded: differs from the re-solved record"),
    (lambda record: {**record, "bunched": [1]},
     "solution.bunched: differs from the re-solved record"),
    # the budget exemption follows the re-solved regime, not the stored one
    (lambda record: {**record, "regime": "outside_option",
                     "transfers": [t - 6e-8 for t in record["transfers"]]}, "budget violation"),
], ids=["g_star-offset", "coalition", "regime", "excluded", "bunched", "budget-exemption"])
def test_verify_rejects_record_solve_never_wrote(tmp_path, capsys, edit, named):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    tampered = _write(tmp_path, "tampered.json", edit(json.loads(out.read_text())))
    capsys.readouterr()
    assert main(["verify", "--model", model, "--solution", tampered]) == 4
    assert named in capsys.readouterr().err


def test_sweep_json_format(tmp_path):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "rows.json"
    assert main(["sweep", "--model", model, "--grid", "0:1:5",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 5 and rows[0]["status"] == "ok"


SEED_2_ECONOMY = {**GOLDEN_MODEL["economy"], "agent_types": [0.2, 0.5, 0.8], "quota": 2}


@pytest.mark.parametrize("payload, message", [
    ({"economy": SEED_2_ECONOMY, "solver": {"sed": 2}},
     "solver.sed: unknown key; expected one of seed, tau_bar"),
    ({"economy": SEED_2_ECONOMY, "solver": {"tau_bar": 0.3}},
     "solver.tau_bar: taxes a drawn coalition's outsiders; needs a seed"),
    ({"economy": SEED_2_ECONOMY, "Solver": {"seed": 2}},
     "$.Solver: unknown key; expected one of economy, solver"),
    ({"economy": {**SEED_2_ECONOMY, "quorum": 2}}, "economy.quorum: unknown key; expected one of "
     "agenda_setter_type, agent_types, quota, outside_g, distributions, technology, reservation"),
    ({"economy": {**SEED_2_ECONOMY, "distributions": {"family": "uniform", "low": 0.1}}},
     "economy.distributions.low: unknown key; expected one of family, lo, hi"),
    ({"economy": {**SEED_2_ECONOMY, "reservation": {"family": "quadratic_share", "slope": 1.4,
                                                    "curv": -0.5}}},
     "economy.reservation.curv: unknown key; expected one of family, slope, curve"),
], ids=["solver-sed", "tau-bar-without-seed", "top-level-Solver", "economy-quorum",
        "distribution-low", "reservation-curv"])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unknown_model_key_exit_2(tmp_path, capsys, payload, message, command):
    # each of these once solved some other mechanism than the file meant
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "out"
    args = ["--grid", "0:1:3"] if command == "sweep" else []
    assert main([command, "--model", model, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"model file error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "vcg"])
def test_negative_tau_bar_exit_3_for_every_command(tmp_path, capsys, command):
    payload = {**NON_MONOTONE_MODEL, "solver": {"seed": 1, "tau_bar": -0.1}}
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "out.csv"
    args = ["--grid", "0:1:3"] if command == "sweep" else []
    assert main([command, "--model", model, *args, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "invalid economy: tau_bar must be finite and nonnegative\n"
    assert not out.exists()


def test_realized_type_outside_support_exit_2(tmp_path, capsys):
    model = _write(tmp_path, "model.json",
                   {"economy": {**GOLDEN_MODEL["economy"], "agent_types": [1.5]}})
    assert main(["solve", "--model", model]) == 2
    assert capsys.readouterr().err == (
        "model file error: economy: type 1.5 outside support [0.0, 1.0]\n")


def test_oracle_failure_exit_4(tmp_path, capsys):
    # a level near 7.1e7 leaves the transfers 1.49e-8 short of it in float
    # arithmetic, past the oracle's 1e-8 budget tolerance
    payload = {"economy": {**GOLDEN_MODEL["economy"], "agenda_setter_type": 0.9,
                           "agent_types": [0.9, 0.95], "quota": 3,
                           "technology": {"family": "power", "alpha": 0.95}}}
    model = _write(tmp_path, "model.json", payload)
    out = tmp_path / "sol.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 4
    record = json.loads(out.read_text())
    assert record["g_star"] == pytest.approx(7.1e7, rel=0.01)
    assert record["oracle"]["passed"] is False
    capsys.readouterr()
    assert main(["verify", "--model", model, "--solution", str(out)]) == 4
    assert "budget=FAIL (slack -1.49e-08)" in capsys.readouterr().err


def test_verify_compares_every_record_field(tmp_path, capsys):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    record["thresholds"]["g_low"] = 99
    record["thresholds_raw"]["g_high"] += 1e-6
    record["cutoff_types"] = [0.3]
    record["partition"]["K"] = [1]
    record["payoff"] = -5
    record["gamma"] = "constant 0.5 with end-point jumps"
    record["notes"] = ["edited"]
    tampered = _write(tmp_path, "tampered.json", record)
    capsys.readouterr()
    assert main(["verify", "--model", model, "--solution", tampered]) == 4
    err = capsys.readouterr().err
    for field in ("thresholds.g_low", "thresholds_raw.g_high", "cutoff_types[0]", "partition.K",
                  "payoff", "gamma", "notes"):
        assert f"solution.{field}: differs from the re-solved record" in err


@pytest.mark.parametrize("edit, code, message", [
    (lambda record: {**record, "gamma": 5}, 2, "solution.gamma: must be a JSON string"),
    (lambda record: {**record, "partition": [1]}, 2, "solution.partition: must be a JSON object"),
    (lambda record: {**record, "payoff": float("inf")}, 2,
     "solution.payoff: must be a finite JSON number"),
    (lambda record: {k: v for k, v in record.items() if k != "notes"}, 2,
     "solution.notes: missing required field"),
    (lambda record: {**record, "extra": 1}, 4, "solution.extra: solve never writes this field"),
    (lambda record: {**record, "economy": {**record["economy"], "outside_g": 1e-13}}, 3,
     "solution.economy.outside_g: differs from the re-solved record"),
], ids=["gamma-number", "partition-list", "payoff-inf", "notes-missing", "extra-field",
        "economy-off-by-1e-13"])
def test_verify_reads_the_whole_record(tmp_path, capsys, edit, code, message):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    tampered = _write(tmp_path, "tampered.json", edit(json.loads(out.read_text())))
    capsys.readouterr()
    assert main(["verify", "--model", model, "--solution", tampered]) == code
    assert message in capsys.readouterr().err


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    assert main(["solve", "--model", model, "--out", str(tmp_path / "solution.json")]) == 0
    assert main(["sweep", "--model", model, "--grid", "0.5:0.5:1",
                 "--out", str(tmp_path / "one.csv")]) == 0
    assert len(builds) == 1


def test_main_runs_the_command_patched_on_the_module(tmp_path, monkeypatch):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    assert main(["sweep", "--model", model, "--grid", "0.5:0.5:1",
                 "--out", str(tmp_path / "one.csv")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.grid) or 0)
    assert main(["sweep", "--model", model, "--grid", "0:1:3"]) == 0
    assert seen == ["0:1:3"]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["solve"], ["sweep", "--model", "m.json"],
                                  ["verify", "--model", "m.json", "--grid", "0:1:3"]],
                         ids=["no-command", "unknown-command", "solve-no-model", "sweep-no-grid",
                              "verify-unknown-flag"])
def test_usage_errors_exit_2_on_the_kept_parser(tmp_path, capsys, argv):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert main(["solve", "--model", model, "--out", str(tmp_path / "solution.json")]) == 0
    assert "usage: agendamech" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_solver_failure_exit_4(tmp_path, capsys, monkeypatch, command):
    model = _write(tmp_path, "model.json", GOLDEN_MODEL)
    out = tmp_path / "solution.json"
    assert main(["solve", "--model", model, "--out", str(out)]) == 0
    capsys.readouterr()

    def failing(econ):
        raise am.BracketFailure("rent gap keeps its sign on [0, 1]")

    monkeypatch.setattr(cli, "solve", failing)
    written = out.read_bytes()
    argv = {"solve": ["--out", str(out)], "verify": ["--solution", str(out)]}[command]
    assert main([command, "--model", model, *argv]) == 4
    assert capsys.readouterr() == ("", "solver failure: rent gap keeps its sign on [0, 1]\n")
    assert out.read_bytes() == written
