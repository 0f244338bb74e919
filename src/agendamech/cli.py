"""Batch front-end: model-file ingestion, solves, sweeps, verification runs
and the efficiency demo.

Model files are JSON with two blocks::

    {
      "economy": {
        "agenda_setter_type": 0.5,
        "agent_types": [0.8],
        "quota": 2,
        "outside_g": 0.0,
        "distributions": {"family": "uniform", "lo": 0.0, "hi": 1.0},
        "technology": {"family": "log"},
        "reservation": {"family": "linear"}
      },
      "solver": {"seed": 0, "tau_bar": 0.0}
    }

``distributions`` is one spec applied to every agent or a list with one spec
per agent. Families: uniform(lo, hi), truncated_exponential(rate, lo, hi),
truncated_normal(mu, sigma, lo, hi). Technologies: log, power(alpha).
Reservations: linear, zero, quadratic_share(slope, curve),
negative_slope(level, slope). Every family parameter and solver option must
be a finite JSON number, not a bool, in range (seed is an integer), and every
block an object; a bad one is a parse error, and so is any key the schema
above does not name (``_FAMILIES`` lists each family's keys). A ``solver``
seed solves the coalition it draws, taxing outsiders ``tau_bar``, which
needs a seed; a negative one is an invalid economy. The oracle always runs
at ``ORACLE_GRID`` points and tolerance ``ORACLE_TOL``. ``verify`` compares
every field of a stored record but its ``oracle`` block with the re-solve's.

Exit codes: 0 success, 2 model-file parse error, 3 validation or
precondition failure, 4 oracle or verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from .model import (
    AGENDA_SETTER,
    Economy,
    InvalidEconomy,
    ModelError,
    linear_reservation,
    log_technology,
    negative_slope_reservation,
    power_technology,
    quadratic_share_reservation,
    truncated_exponential,
    truncated_normal,
    uniform,
    validate_economy,
    zero_reservation,
)
from .regimes import Regime, solve, solve_stochastic_coalition
from .solver_core import SolverError
from .transfers import agenda_setter_payoff
from .verify import ORACLE_TOL, vcg_demo, verify_solution

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ORACLE = 4

FLOAT_FMT = "%.17g"


class ModelFileError(ModelError):
    """Malformed model file or stored record; the message leads with the
    offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


def _object(value, path: str, keys=None) -> dict:
    """A JSON object; with ``keys``, one that has no other key."""
    if not isinstance(value, dict):
        raise ModelFileError(path, f"must be a JSON object, got {value!r}")
    for key in value:
        if keys is not None and key not in keys:
            raise ModelFileError(f"{path}.{key}",
                                 f"unknown key; expected one of {', '.join(keys)}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ModelFileError(path, f"must be a JSON list, got {value!r}")
    return value


def _need(block: dict, field: str, path: str):
    if field not in _object(block, path):
        raise ModelFileError(f"{path}.{field}", "missing required field")
    return block[field]


def _number(spec: dict, field: str, path: str, default=None, integer=False):
    """A finite JSON number (an integer when asked), never a bool; required without a default."""
    value = _need(spec, field, path) if default is None else spec.get(field, default)
    return _checked_number(value, f"{path}.{field}", integer)


def _checked_number(value, path: str, integer=False):
    kind = "a JSON integer" if integer else "a finite JSON number"
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) < math.inf):
        raise ModelFileError(path, f"must be {kind}, got {value!r}")
    return value


# The only list of each family block's keys: family -> (constructor, its
# parameters in call order, each with its default, None for a required one).
# Reservations are built with (tech, n) ahead of their parameters.
_SUPPORT = (("lo", 0.0), ("hi", 1.0))
_FAMILIES = {
    "distribution": {
        "uniform": (uniform, _SUPPORT),
        "truncated_exponential": (truncated_exponential, (("rate", None), *_SUPPORT)),
        "truncated_normal": (truncated_normal, (("mu", None), ("sigma", None), *_SUPPORT)),
    },
    "technology": {
        "log": (log_technology, ()),
        "power": (power_technology, (("alpha", None),)),
    },
    "reservation": {
        "linear": (linear_reservation, ()),
        "zero": (lambda tech, n: zero_reservation(), ()),
        "quadratic_share": (lambda tech, n, *p: quadratic_share_reservation(tech, *p),
                            (("slope", None), ("curve", None))),
        "negative_slope": (lambda tech, n, *p: negative_slope_reservation(tech, *p),
                           (("level", None), ("slope", None))),
    },
}


def _build(kind: str, spec, path: str, *leading):
    """The ``kind`` family that ``spec`` names, built from its parameters."""
    family = _need(spec, "family", path)
    if not isinstance(family, str) or family not in _FAMILIES[kind]:
        raise ModelFileError(f"{path}.family", f"unknown {kind} family {family!r}")
    make, params = _FAMILIES[kind][family]
    _object(spec, path, ("family", *(name for name, _ in params)))
    values = [_number(spec, name, path, default) for name, default in params]
    try:
        return make(*leading, *values)
    except ModelError as exc:
        raise ModelFileError(path, str(exc)) from exc


def load_model(path: str):
    """Parse a model file into (economy, solver options)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelFileError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(path, f"invalid JSON: {exc}") from exc

    raw = _object(raw, "$", ("economy", "solver"))
    eco = _object(_need(raw, "economy", "$"), "economy",
                  ("agenda_setter_type", "agent_types", "quota", "outside_g",
                   "distributions", "technology", "reservation"))
    agent_types = _list(_need(eco, "agent_types", "economy"), "economy.agent_types")
    dist_spec = _need(eco, "distributions", "economy")
    if not isinstance(dist_spec, list):
        dists = (_build("distribution", dist_spec, "economy.distributions"),) * len(agent_types)
    else:
        dists = tuple(_build("distribution", s, f"economy.distributions[{k}]")
                      for k, s in enumerate(dist_spec))
    tech = _build("technology", _need(eco, "technology", "economy"), "economy.technology")
    reservation = _build("reservation", _need(eco, "reservation", "economy"),
                         "economy.reservation", tech, len(agent_types) + 1)

    setter = _number(eco, "agenda_setter_type", "economy")
    types = tuple(_checked_number(t, f"economy.agent_types[{k}]")
                  for k, t in enumerate(agent_types))
    quota = _number(eco, "quota", "economy", integer=True)
    outside_g = _number(eco, "outside_g", "economy")
    try:
        econ = Economy(setter, types, dists, tech, reservation, quota, outside_g)
    except InvalidEconomy:
        raise
    except ModelError as exc:  # a realized type outside its distribution's support
        raise ModelFileError("economy", str(exc)) from exc

    solver = _object(raw.get("solver", {}), "solver", ("seed", "tau_bar"))
    if "tau_bar" in solver and "seed" not in solver:
        raise ModelFileError("solver.tau_bar", "taxes a drawn coalition's outsiders; needs a seed")
    for field in solver:
        _number(solver, field, "solver", integer=field == "seed")
    if solver.get("tau_bar", 0) < 0:
        raise InvalidEconomy("tau_bar must be finite and nonnegative")
    return econ, solver


def _solution_record(econ, solution, oracle) -> dict:
    return {
        "g_star": solution.g_star,
        "regime": solution.regime.value,
        "coalition": sorted(solution.coalition),
        "excluded": sorted(solution.excluded),
        "bunched": sorted(solution.bunched),
        "cutoff_types": list(solution.cutoff_types),
        "transfers": list(solution.transfers),
        "thresholds": dataclasses.asdict(solution.thresholds),
        "thresholds_raw": dataclasses.asdict(solution.thresholds_raw),
        "gamma": solution.gamma.describe(),
        "partition": {part: sorted(getattr(solution.partition, part)) for part in "KLM"},
        "payoff": agenda_setter_payoff(econ, solution),
        "economy": {"n": econ.n, "quota": econ.quota, "outside_g": econ.outside_g,
                    "agenda_setter_type": econ.agenda_setter_type,
                    "agent_types": list(econ.agent_types)},
        "oracle": {
            "passed": oracle.passed,
            "dsic_ok": oracle.dsic_ok,
            "monotone_ok": oracle.monotone_ok,
            "participation_ok": oracle.participation_ok,
            "budget_slack": oracle.budget_slack,
            "tolerance": oracle.tolerance,
            "grid_size": oracle.grid_size,
            "summary": oracle.summary(),
        },
        "notes": list(solution.notes),
    }


def _write_text(path: str | None, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validation_exit(econ) -> int | None:
    report = validate_economy(econ)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        print(f"validation failed: {names}", file=sys.stderr)
        return EXIT_VALIDATION
    return None


def _solved(econ, solver_opts):
    """`solve`, or the coalition drawn with the solver block's `seed`."""
    if "seed" not in solver_opts:
        return solve(econ)
    return solve_stochastic_coalition(econ, solver_opts["seed"],
                                      float(solver_opts.get("tau_bar", 0.0)))


def _certified(econ, solver_opts):
    """(solution, oracle report); a drawn coalition's incentive constraints
    hold inside it only, so the oracle scans its members."""
    solution = _solved(econ, solver_opts)
    agents = sorted(solution.coalition - {AGENDA_SETTER}) if "seed" in solver_opts else None
    return solution, verify_solution(econ, solution, agents=agents)


def cmd_solve(args) -> int:
    econ, solver_opts = load_model(args.model)
    code = _validation_exit(econ)
    if code is not None:
        return code
    solution, oracle = _certified(econ, solver_opts)
    record = _solution_record(econ, solution, oracle)
    _write_text(args.out, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if oracle.passed else EXIT_ORACLE


SWEEP_COLUMNS = ("g_circ", "status", "g_star", "regime", "coalition", "excluded",
                 "g_low", "g_high", "payoff")


def _parse_grid(spec: str):
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ModelFileError("--grid", f"expected start:stop:count, got {spec!r}") from exc
    if count < 1 or not -math.inf < start <= stop < math.inf:
        raise ModelFileError("--grid", f"need finite start <= stop and count >= 1, got {spec!r}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _sweep_row(econ, solver_opts, g_circ):
    try:
        at = econ.with_outside_g(g_circ)  # a negative level is an error row
        sol = _solved(at, solver_opts)
    except (SolverError, InvalidEconomy) as exc:
        return {"g_circ": g_circ, "status": f"error:{type(exc).__name__}"}
    return {
        "g_circ": g_circ,
        "status": "ok",
        "g_star": sol.g_star,
        "regime": sol.regime.value,
        "coalition": " ".join(str(i) for i in sorted(sol.coalition)),
        "excluded": " ".join(str(i) for i in sorted(sol.excluded)),
        "g_low": sol.thresholds.g_low,
        "g_high": sol.thresholds.g_high,
        "payoff": agenda_setter_payoff(at, sol),
    }


def _segments(rows):
    """Compress sweep rows into flat/moving segments plus jump locations."""
    segments = []
    jumps = []
    current = None
    prev = None
    for row in rows:
        if row["status"] != "ok":
            current = None
            prev = None
            continue
        g0, gs = row["g_circ"], row["g_star"]
        if prev is not None:
            dg = gs - prev["g_star"]
            span = g0 - prev["g_circ"]
            if abs(dg) > 2.0 * span + 1e-9:
                jumps.append({"g_circ": g0, "from": prev["g_star"], "to": gs,
                              "direction": "down" if dg < 0 else "up"})
        if current is not None and current["regime"] == row["regime"] and (
                abs(gs - current["stop_level"]) <= 2.0 * (g0 - current["stop"]) + 1e-9):
            current.update(stop=g0, stop_level=gs)
        else:
            current = {"start": g0, "stop": g0, "regime": row["regime"],
                       "start_level": gs, "stop_level": gs}
            segments.append(current)
        prev = row
    for seg in segments:
        seg["kind"] = "flat" if abs(seg["stop_level"] - seg["start_level"]) <= 1e-9 else "moving"
    return segments, jumps


def cmd_sweep(args) -> int:
    econ, solver_opts = load_model(args.model)
    code = _validation_exit(econ)
    if code is not None:
        return code
    grid = _parse_grid(args.grid)
    rows = [_sweep_row(econ, solver_opts, g) for g in grid]

    if args.format == "json":
        body = json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(SWEEP_COLUMNS)]
        for row in rows:
            cells = []
            for col in SWEEP_COLUMNS:
                val = row.get(col, "")
                cells.append(FLOAT_FMT % val if isinstance(val, float) else str(val))
            lines.append(",".join(cells))
        body = "\n".join(lines) + "\n"
    _write_text(args.out, body)

    segments, jumps = _segments(rows)
    plot_path = args.plot_data or (args.out + ".segments.json" if args.out else None)
    plot_payload = json.dumps({"segments": segments, "jumps": jumps},
                              indent=2, sort_keys=True) + "\n"
    if plot_path:
        _write_text(plot_path, plot_payload)
    else:
        sys.stdout.write(plot_payload)

    return EXIT_ORACLE if any(row["status"] != "ok" for row in rows) else EXIT_OK


def _mismatches(stored, resolved, path: str, tol: float) -> list:
    """Each place where a stored record departs from the re-solved one:
    floats by more than tol, anything else at all. A missing field, a value
    of the wrong JSON type or a non-finite number raises ModelFileError."""
    if isinstance(resolved, dict):
        found = [f"{path}.{key}: solve never writes this field"
                 for key in _object(stored, path) if key not in resolved]
        for key, value in resolved.items():
            found += _mismatches(_need(stored, key, path), value, f"{path}.{key}", tol)
        return found
    if isinstance(resolved, list):
        if len(_list(stored, path)) == len(resolved):
            return [found for k, pair in enumerate(zip(stored, resolved))
                    for found in _mismatches(*pair, f"{path}[{k}]", tol)]
    elif isinstance(resolved, str):
        if not isinstance(stored, str):
            raise ModelFileError(path, f"must be a JSON string, got {stored!r}")
    elif resolved is not None:  # a number; None marks a field left uncompared
        _checked_number(stored, path)
    if stored == resolved or isinstance(resolved, float) and abs(stored - resolved) <= tol:
        return []
    return [f"{path}: differs from the re-solved record (stored {stored!r}, "
            f"re-solved {resolved!r})"]


def cmd_verify(args) -> int:
    econ, solver_opts = load_model(args.model)
    code = _validation_exit(econ)
    if code is not None:
        return code
    solution, oracle = _certified(econ, solver_opts)
    # the oracle is recomputed, not compared
    resolved = {**_solution_record(econ, solution, oracle), "oracle": None}
    try:
        with open(args.solution) as fh:
            stored = {**_object(json.load(fh), "solution"), "oracle": None}
        foreign = _mismatches(_need(stored, "economy", "solution"), resolved["economy"],
                              "solution.economy", 0.0)
        problems = _mismatches(stored, resolved, "solution", 10 * ORACLE_TOL)
    except (OSError, ValueError) as exc:
        print(f"cannot read solution: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if foreign:
        print(f"solution does not match the model economy: {'; '.join(foreign)}", file=sys.stderr)
        return EXIT_VALIDATION
    transfers = stored["transfers"]
    shortfall = stored["g_star"] - sum(transfers) if len(transfers) == econ.n else 0.0
    if solution.regime is not Regime.OUTSIDE_OPTION and shortfall > ORACLE_TOL:
        problems.append(f"budget violation: transfers fall short by {shortfall:.3g}")
    if not oracle.passed:
        problems.append(oracle.summary())

    if problems:
        print("; ".join(problems), file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def cmd_vcg(args) -> int:
    econ = load_model(args.model)[0]
    ladder = [args.epsilon] if args.epsilon is not None else [1e-2, 1e-3, 1e-4]
    try:
        rows = []
        for eps in ladder:
            rep = vcg_demo(econ, eps)
            rows.append({
                "epsilon": eps,
                "g_efficient": rep.g_efficient,
                "deficit": rep.deficit,
                "perturbation_gain": rep.perturbation_gain,
                "gain_over_epsilon": rep.perturbation_gain / eps if eps else 0.0,
            })
    except (InvalidEconomy, ModelError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_text(args.out, json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agendamech",
        description="Solve and verify agenda-setter public-good mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one economy and emit a record")
    p_solve.add_argument("--model", required=True)
    p_solve.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="re-solve over an outside-option grid")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--grid", required=True, help="start:stop:count")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--plot-data", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="re-run the oracle on a stored solution")
    p_verify.add_argument("--model", required=True)
    p_verify.add_argument("--solution", required=True)

    p_vcg = sub.add_parser("vcg", help="efficiency benchmark: deficit and gain ladder")
    p_vcg.add_argument("--model", required=True)
    p_vcg.add_argument("--epsilon", type=float, default=None)
    p_vcg.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a command patched on this module is the one run
    commands = {"solve": cmd_solve, "sweep": cmd_sweep, "verify": cmd_verify, "vcg": cmd_vcg}
    try:
        return commands[args.command](args)
    except ModelFileError as exc:
        print(f"model file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidEconomy as exc:
        print(f"invalid economy: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
