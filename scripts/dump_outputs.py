"""Write a ``repr`` dump of the program's outputs, for a byte comparison of
two checkouts.

Run from the root of a checkout::

    python scripts/dump_outputs.py OUT

The program is imported from ``src/`` and the economy generators from
``perfbench/workloads.py``. Dump the parent and the change into two files
and compare them with ``cmp``: any output that moved shows as a difference.

The dump covers every second draw of the benchmark's 2048-economy corpus
(validation, the reservation profile's value and slope at 17 types, every
solution field, the shadow weight at a type grid and at the realized types,
each schedule's allocation, transfer and rent at 17 reports, read one
report at a time and again as one array, each FOC schedule's anchor and
kink nodes (its nodes off the evenly spaced base grid) in hex, so a moved
node shows directly, and the oracle report),
re-solves every 16th draw with its technology's closed forms stripped and
every 32nd draw at every quota, with two drawn coalitions and with
scalar-only type distributions, threshold tables (all 192
ladder economies, every 8th again with its closed forms stripped, every
3rd again with its first agent at the top and at the bottom of the type
support and with truncated-normal types, each of these also solved, every
three-agent one again at quota 2, and the six sweep fixtures), the bytes
of ``agendamech sweep`` over ``0:3:121`` and over ``-0.5:0.5:5`` (whose
negative levels are error rows) on each fixture (its exit code, CSV and
segments file), the bytes of the ``agendamech solve`` record of each
fixture and of one seeded model with ``verify``'s exit code and stderr on
it, the concave-window fixture with tied middle types solved at every
quota and three outside levels, and every candidate's configured constant
shadow weight (each concave window, each convex tail and the convex
unanimity configuration) on the six fixtures over ``0:3:121`` and on the
ladder economies over ``0:1:31``, so the shadow-weight solve is compared
directly, not only through the candidates that win. Last come the exit
code, stderr and JSON bytes of ``agendamech vcg`` on each fixture, with the
default epsilon ladder and with ``--epsilon 0``, and on one model whose
lowest type is 0, which the perturbation refuses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import agendamech as am  # noqa: E402
from agendamech import regimes, transfers  # noqa: E402
from agendamech.cli import _parse_grid, load_model, main as cli_main  # noqa: E402
from workloads import (CORPUS_POOL, LADDER_CANDIDATES, SWEEP_MODELS,  # noqa: E402
                       corpus_economy, ladder_economy)

REPORTS = 17

# A drawn coalition with an outsiders' tax, so the record covers that branch.
SEEDED_MODEL = {"economy": {**SWEEP_MODELS["golden"]["economy"], "agent_types": [0.2, 0.45, 0.8],
                            "quota": 3, "outside_g": 0.5},
                "solver": {"seed": 3, "tau_bar": 0.05}}
# An agent of type 0, which ``vcg``'s perturbation cannot compensate.
ZERO_TYPE_MODEL = {"economy": {**SWEEP_MODELS["golden"]["economy"], "agent_types": [0.0, 0.8],
                               "quota": 2}}


def _solution_lines(econ, sol, agents=None) -> list:
    lo, hi = econ.theta_lo, econ.theta_hi
    grid = [float(t) for t in np.linspace(lo, hi, REPORTS)]
    realized = [econ.type_of(i) for i in econ.agents]
    lines = [repr((sol.g_star, sol.regime, sorted(sol.coalition), sorted(sol.excluded),
                   sorted(sol.bunched), sol.cutoff_types, sol.partition, sol.transfers,
                   sol.thresholds, sol.thresholds_raw, sol.notes)),
             sol.gamma.describe(),
             repr([sol.gamma.value(t, lo, hi) for t in grid + realized])]
    reports = np.array(grid)
    for s in sol.schedules:
        foc = s.kind == "foc"  # a flat schedule has no rent curve
        lines.append(repr((s.kind, s.agent, s.anchor, [float(s.allocation(t)) for t in grid],
                           [float(s.transfer(t)) for t in grid],
                           [float(s.rent(t)) for t in grid] if foc else None)))
        lines.append(repr(("array", s.kind, s.agent, s.allocation(reports).tolist(),
                           s.transfer(reports).tolist(),
                           s.rent(reports).tolist() if foc else None)))
        if foc:
            lines.append(repr(("nodes", s.agent, s.anchor.hex(),
                               [x.hex() for x in _kink_nodes(s)])))
    lines.append(repr(am.verify_solution(econ, sol, agents=agents)))
    return lines


def _kink_nodes(sched) -> list:
    """A FOC schedule's nodes off its evenly spaced base grid: its kinks."""
    lo, hi = sched._econ.theta_lo, sched._econ.theta_hi
    base = np.linspace(lo, hi, transfers.RENT_NODES if sched._batched else 257)
    return np.setdiff1d(sched._xs, base).tolist()


def _reservation_lines(econ) -> list:
    """Reservation value and slope at the report types, at the draw's outside
    level and at 0, one type at a time and as one array."""
    res = econ.reservation
    grid = np.linspace(econ.theta_lo, econ.theta_hi, REPORTS)
    lines = []
    for g_circ in (econ.outside_g, 0.0):
        for curve in (res.value, res.slope):
            lines.append(repr(([curve(float(t), g_circ) for t in grid],
                               curve(grid, g_circ).tolist())))
    return lines


def _solved(econ, solve, agents=None) -> list:
    try:
        sol = solve(econ)
    except am.SolverError as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return _solution_lines(econ, sol, agents(sol) if agents else None)


def _corpus(index: int) -> list:
    econ = corpus_economy(am, index)
    report = am.validate_economy(econ)
    lines = [f"corpus {index}", repr(report), *_reservation_lines(econ)]
    if not report.passed:
        return lines
    lines += _solved(econ, am.solve)
    if index % 16 == 0:
        lines.append("stripped")
        lines += _solved(_stripped(econ), am.solve)
    if index % 32 == 0:
        for quota in range(1, econ.n + 1):
            lines.append(f"quota {quota}")
            lines += _solved(econ.with_quota(quota), am.solve)
        lines.append("scalar-only distributions")
        lines += _solved(_scalar_only(econ), am.solve)
        for seed in (1, 2):
            lines.append(f"coalition seed {seed}")
            lines += _solved(econ, lambda e: am.solve_stochastic_coalition(e, seed, 0.05),
                             agents=lambda sol: sorted(sol.coalition - {0}))
    return lines


def _table(name: str, econ) -> list:
    try:
        return [name, repr(am.threshold_table(econ))]
    except am.SolverError as exc:
        return [name, f"{type(exc).__name__}: {exc}"]


def _sweep(name: str, model: Path) -> list:
    """The sweep over ``0:3:121``, then over ``-0.5:0.5:5``, whose negative
    levels are error rows."""
    lines = []
    for grid, label in (("0:3:121", name), ("-0.5:0.5:5", f"{name}@negative")):
        out = model.with_name(f"{label}.csv")
        code = cli_main(["sweep", "--model", str(model), f"--grid={grid}", "--out", str(out)])
        segments = Path(str(out) + ".segments.json")
        lines += [f"sweep {label} exit {code}", repr(out.read_bytes()),
                  repr(segments.read_bytes())]
    return lines


def _solve_verify(name: str, model: Path) -> list:
    """The bytes of the ``solve`` record, then ``verify``'s exit code and
    stderr on that record."""
    record = model.with_suffix(".solution.json")
    code = cli_main(["solve", "--model", str(model), "--out", str(record)])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        verified = cli_main(["verify", "--model", str(model), "--solution", str(record)])
    return [f"solve {name} exit {code}", repr(record.read_bytes()),
            f"verify {name} exit {verified}", repr(err.getvalue())]


def _vcg(label: str, model: Path, *flags) -> list:
    """``agendamech vcg``'s exit code, stderr and JSON bytes (``None`` when
    it writes none)."""
    out = model.with_name(f"{label}.vcg.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["vcg", "--model", str(model), *flags, "--out", str(out)])
    return [f"vcg {label} exit {code}", repr(err.getvalue()),
            repr(out.read_bytes() if out.exists() else None)]


def _tied(window) -> list:
    """The concave-window fixture with three, then two, tied middle agents,
    solved at every quota over three outside levels."""
    lines = []
    for types in ((0.2, 0.5, 0.5, 0.5, 0.9), (0.2, 0.45, 0.45, 0.9)):
        econ = dataclasses.replace(window, agent_types=types,
                                   distributions=window.distributions[0])
        for quota in range(1, econ.n + 1):
            for g_circ in (0.9, 1.3, 2.0):
                lines.append(f"tied {types} quota {quota} g_circ {g_circ}")
                lines += _solved(econ.with_quota(quota).with_outside_g(g_circ), am.solve)
    return lines


def _configured_gammas(name: str, econ, grid: str) -> list:
    """Each candidate's constant shadow weight at every outside level of
    ``grid``: what ``gamma_root`` returns (``%.17g``) or the error it raises,
    then ``then`` and the error that ends the candidate, if one does; ``-``
    when the candidate returns before the solve without an error."""
    r, root, found = econ.n - 1, regimes.gamma_root, []

    def recorded(*args):
        try:
            gamma = root(*args)
        except am.SolverError as exc:
            found.append(type(exc).__name__)
            raise
        found.append("%.17g" % gamma)
        return gamma

    curvature = econ.reservation.curvature
    if curvature is am.Curvature.CONCAVE:
        candidates = {f"window {start},{width}": (regimes._concave_window_candidate, start, width)
                      for width in range(1, r - 1) for start in range(1, r - width)}
    elif curvature is am.Curvature.CONVEX:
        candidates = {f"tail {k_lo},{k_hi}": (regimes._convex_tail_candidate, k_lo, k_hi)
                      for k_lo in range(r) for k_hi in range(r - k_lo) if k_lo or k_hi}
        candidates["unanimity"] = (lambda e: regimes._convex_configuration(
            e, regimes._convex_ends(e)),)
    else:
        return []
    lines = []
    regimes.gamma_root = recorded
    try:
        for g_circ in _parse_grid(grid):
            at = econ.with_outside_g(g_circ)
            for label, (candidate, *args) in candidates.items():
                found.clear()
                try:
                    candidate(at, *args)
                except (am.SolverError, am.InvalidEconomy) as exc:
                    found.append(f"then {type(exc).__name__}")
                lines.append(f"gamma {name} {g_circ!r} {label}: {' '.join(found) or '-'}")
    finally:
        regimes.gamma_root = root
    return lines


def _ladder_variants(econ) -> dict:
    """The economy with its first agent at the top, then at the bottom of the
    type support, and with truncated-normal types. A convex rung's two kinds
    of end weight differ most at the top: ``gamma_weight_sum`` gives an agent
    there shadow weight 1 at every constant, a one-sided sum does not."""
    rest = econ.agent_types[1:]
    return {"theta_hi": dataclasses.replace(econ, agent_types=(econ.theta_hi, *rest)),
            "theta_lo": dataclasses.replace(econ, agent_types=(econ.theta_lo, *rest)),
            "truncnorm": dataclasses.replace(econ, distributions=am.truncated_normal(0.4, 0.3))}


def _stripped(econ):
    """The economy with its technology's closed forms removed, so every FOC
    solve and phi inversion bisects."""
    return dataclasses.replace(
        econ, tech=dataclasses.replace(econ.tech, weighted_argmax=None, phi_inverse=None))


def _scalar_only(econ):
    """The economy with every cdf and pdf wrapped to accept only a scalar,
    so each evaluation takes the per-element fallback of ``model._as_array``."""
    def wrap(dist):
        return dataclasses.replace(dist, cdf=lambda x: dist.cdf(float(x)),
                                   pdf=lambda x: dist.pdf(float(x)))
    return dataclasses.replace(econ, distributions=tuple(wrap(d) for d in econ.distributions))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = []
    for index in range(0, CORPUS_POOL, 2):
        lines += _corpus(index)
    for index in range(LADDER_CANDIDATES):
        econ = ladder_economy(am, index)
        lines += _table(f"ladder {index}", econ)
        if index % 8 == 0:
            lines += _table(f"ladder {index} stripped", _stripped(econ))
        if index % 3 == 0:
            for name, variant in _ladder_variants(econ).items():
                lines += _table(f"ladder {index} {name}", variant)
                lines += _solved(variant, am.solve)
        if econ.n == 3:
            lines += _table(f"ladder {index} quota 2", econ.with_quota(2))
        lines += _configured_gammas(f"ladder {index}", econ, "0:1:31")
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = {}
        for name, model in SWEEP_MODELS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(model))
            fixtures[name] = load_model(str(path))[0]
            lines += _table(f"fixture {name}", fixtures[name])
            lines += _sweep(name, path)
            lines += _solve_verify(name, path)
            lines += _configured_gammas(f"fixture {name}", fixtures[name], "0:3:121")
            lines += _vcg(name, path) + _vcg(f"{name}@epsilon0", path, "--epsilon", "0")
        seeded = Path(tmp) / "seeded.json"
        seeded.write_text(json.dumps(SEEDED_MODEL))
        lines += _solve_verify("seeded", seeded)
        zero = Path(tmp) / "zero_type.json"
        zero.write_text(json.dumps(ZERO_TYPE_MODEL))
        lines += _vcg("zero_type", zero)
    lines += _tied(fixtures["concave_window"])
    Path(argv[1]).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
