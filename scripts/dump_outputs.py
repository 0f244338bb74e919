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
each schedule's allocation and transfer at 17 reports, and the oracle
report), re-solves every 16th draw with its technology's closed forms
stripped and every 32nd draw at every quota, with two drawn coalitions and
with scalar-only type distributions, threshold tables (all 192
ladder economies, every 8th again with its closed forms stripped, every
three-agent one again at quota 2, and the six sweep fixtures), the bytes
of ``agendamech sweep`` over ``0:3:121`` on each fixture (its exit code, CSV
and segments file), the bytes of the ``agendamech solve`` record of each
fixture and of one seeded model with ``verify``'s exit code and stderr on
it, and the concave-window fixture with tied middle types solved at every
quota and three outside levels.
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
from agendamech.cli import load_model, main as cli_main  # noqa: E402
from workloads import (CORPUS_POOL, LADDER_CANDIDATES, SWEEP_MODELS,  # noqa: E402
                       corpus_economy, ladder_economy)

REPORTS = 17

# A drawn coalition with an outsiders' tax, so the record covers that branch.
SEEDED_MODEL = {"economy": {**SWEEP_MODELS["golden"]["economy"], "agent_types": [0.2, 0.45, 0.8],
                            "quota": 3, "outside_g": 0.5},
                "solver": {"seed": 3, "tau_bar": 0.05}}


def _solution_lines(econ, sol, agents=None) -> list:
    lo, hi = econ.theta_lo, econ.theta_hi
    grid = [float(t) for t in np.linspace(lo, hi, REPORTS)]
    realized = [econ.type_of(i) for i in econ.agents]
    lines = [repr((sol.g_star, sol.regime, sorted(sol.coalition), sorted(sol.excluded),
                   sorted(sol.bunched), sol.cutoff_types, sol.partition, sol.transfers,
                   sol.thresholds, sol.thresholds_raw, sol.notes)),
             sol.gamma.describe(),
             repr([sol.gamma.value(t, lo, hi) for t in grid + realized])]
    for s in sol.schedules:
        lines.append(repr((s.kind, s.agent, s.anchor, [float(s.allocation(t)) for t in grid],
                           [float(s.transfer(t)) for t in grid])))
    lines.append(repr(am.verify_solution(econ, sol, agents=agents)))
    return lines


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
    out = model.with_suffix(".csv")
    code = cli_main(["sweep", "--model", str(model), "--grid", "0:3:121", "--out", str(out)])
    segments = Path(str(out) + ".segments.json")
    return [f"sweep {name} exit {code}", repr(out.read_bytes()), repr(segments.read_bytes())]


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
        if econ.n == 3:
            lines += _table(f"ladder {index} quota 2", econ.with_quota(2))
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = {}
        for name, model in SWEEP_MODELS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(model))
            fixtures[name] = load_model(str(path))[0]
            lines += _table(f"fixture {name}", fixtures[name])
            lines += _sweep(name, path)
            lines += _solve_verify(name, path)
        seeded = Path(tmp) / "seeded.json"
        seeded.write_text(json.dumps(SEEDED_MODEL))
        lines += _solve_verify("seeded", seeded)
    lines += _tied(fixtures["concave_window"])
    Path(argv[1]).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
