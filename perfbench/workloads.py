"""Workload inputs, ops and output checks.

Each workload draws its inputs from a fixed pool whose outputs were recorded
from the seed code (``reference/``, written by ``record.py``). A run walks
the pool in rounds: every round takes one item from each stratum of a fixed
pattern, and ``--seed`` picks which item of each stratum. Strata group pool
items of similar cost, so two seeds give different inputs but the same mix
of cheap and dear ops, which keeps the run-to-run spread small.

All paths are relative to the root of the checkout, the working directory.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = Path("perfbench") / "work"

# |got - want| <= FLOAT_TOL * max(1, |want|). Loose enough for the 1e-12
# output drift a performance change may cause, tight against real errors.
FLOAT_TOL = 1e-9


def close(got: float, want: float) -> bool:
    return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def all_close(got, want) -> bool:
    return len(got) == len(want) and all(close(a, b) for a, b in zip(got, want))


def load_json(name: str):
    with open(REFERENCE / name) as fh:
        return json.load(fh)


class Rounds:
    """Seeded round-robin over the strata of a plan.

    ``plan["pattern"]`` lists the strata of one round, in order. The c-th
    visit to a stratum takes item c of a seeded permutation of that stratum,
    cycling. Warm-up items, one per stratum in ``plan["warmup"]``, come from
    the ends of the permutations, which a run reaches last.
    """

    def __init__(self, plan: dict, seed: int, tag: str, key=lambda item: item):
        rng = random.Random(f"{tag}-run:{seed}")
        self.perms = [[key(item) for item in rng.sample(s, len(s))] for s in plan["strata"]]
        self.pattern = plan["pattern"]
        self.warmup_strata = plan["warmup"]

    def round(self, r: int) -> list:
        visits = {}
        items = []
        for s in self.pattern:
            c = r * self.pattern.count(s) + visits.get(s, 0)
            visits[s] = visits.get(s, 0) + 1
            perm = self.perms[s]
            items.append(perm[c % len(perm)])
        return items

    def first(self, count: int) -> list:
        items = []
        r = 0
        while len(items) < count:
            items.extend(self.round(r))
            r += 1
        return items[:count]

    def warmup(self) -> list:
        return [self.perms[s][-1] for s in self.warmup_strata]


# ---------------------------------------------------------------------------
# corpus: validate -> solve -> verify on a mixed economy corpus
# ---------------------------------------------------------------------------

CORPUS_POOL = 2048


def corpus_economy(am, index: int):
    """Pool item ``index``: the randomized test-corpus draw, all four
    reservation shapes, log and power technology."""
    rng = random.Random(f"corpus:{index}")
    n = rng.randint(2, 6)
    q = rng.randint((n + 1) // 2, n)
    tech = am.log_technology() if rng.random() < 0.6 else am.power_technology(
        rng.choice([0.3, 0.5, 0.7]))
    curv = rng.choice(["linear", "concave", "convex", "negative"])
    if curv == "linear":
        res = am.linear_reservation(tech, n)
    elif curv == "concave":
        a = rng.uniform(0.8, 1.6)
        res = am.quadratic_share_reservation(tech, a, -rng.uniform(0.05, 0.45 * a))
    elif curv == "convex":
        res = am.quadratic_share_reservation(tech, rng.uniform(0.2, 0.8), rng.uniform(0.1, 1.0))
    else:
        level = rng.uniform(0.5, 1.5)
        res = am.negative_slope_reservation(tech, level, rng.uniform(0.1, level))
    dists = []
    for _ in range(n - 1):
        u = rng.random()
        if u < 0.5:
            dists.append(am.uniform(0.0, 1.0))
        elif u < 0.8:
            dists.append(am.truncated_exponential(rng.uniform(0.5, 2.0), 0.0, 1.0))
        else:
            dists.append(am.truncated_normal(rng.uniform(0.2, 0.8), rng.uniform(0.3, 1.0),
                                             0.0, 1.0))
    return am.Economy(
        agenda_setter_type=rng.uniform(0.05, 1.2),
        agent_types=tuple(rng.uniform(0.02, 0.98) for _ in range(n - 1)),
        distributions=tuple(dists),
        tech=tech,
        reservation=res,
        quota=q,
        outside_g=rng.uniform(0.0, 2.5),
    )


def corpus_record(sol, oracle) -> list:
    return [sol.g_star, sol.regime.value, sorted(sol.coalition), sorted(sol.excluded),
            sorted(sol.bunched), list(sol.transfers),
            sol.thresholds.g_low, sol.thresholds.g_high, oracle.passed]


class Corpus:
    """One op certifies one economy: validate_economy, solve, verify_solution."""

    name = "corpus"
    trace_ops = 200

    def __init__(self, am, seed: int):
        self.am = am
        plan = load_json("corpus.plan.json")
        self.econs = {i: corpus_economy(am, i) for s in plan["strata"] for i in s}
        self.rounds = Rounds(plan, seed, "corpus")
        self.reference = None

    def points(self, key) -> int:
        return 1

    def run(self, key):
        am = self.am
        econ = self.econs[key]
        if not am.validate_economy(econ).passed:
            return None
        sol = am.solve(econ)
        return sol, am.verify_solution(econ, sol)

    def check(self, key, out) -> bool:
        if self.reference is None:
            self.reference = load_json("corpus.out.json")
        if out is None:
            return False
        got = corpus_record(*out)
        want = self.reference[str(key)]
        g, regime, coalition, excluded, bunched, transfers, g_low, g_high, passed = got
        return (passed and want[8]
                and [regime, coalition, excluded, bunched] == want[1:5]
                and all_close([g, g_low, g_high], [want[0], want[6], want[7]])
                and all_close(transfers, want[5]))


# ---------------------------------------------------------------------------
# sweep: `agendamech sweep` in-process over short outside-option grids
# ---------------------------------------------------------------------------

def _fixture(a, types, quota, g, reservation):
    return {"economy": {"agenda_setter_type": a, "agent_types": types, "quota": quota,
                        "outside_g": g,
                        "distributions": {"family": "uniform", "lo": 0.0, "hi": 1.0},
                        "technology": {"family": "log"}, "reservation": reservation}}


CONCAVE = {"family": "quadratic_share", "slope": 1.4, "curve": -0.5}
CONVEX = {"family": "quadratic_share", "slope": 0.3, "curve": 0.5}
LINEAR = {"family": "linear"}

# The test fixtures; the concave window (n=5, quota 3) leads.
SWEEP_MODELS = {
    "concave_window": _fixture(0.5, [0.2, 0.45, 0.55, 0.9], 3, 1.3, CONCAVE),
    "golden": _fixture(0.5, [0.8], 2, 0.0, LINEAR),
    "majority": _fixture(0.5, [0.2, 0.8], 2, 0.0, LINEAR),
    "concave": _fixture(0.6, [0.3, 0.5, 0.8], 4, 1.0, CONCAVE),
    "convex": _fixture(0.6, [0.3, 0.5, 0.8], 4, 1.0, CONVEX),
    "convex_tail": _fixture(0.5, [0.1, 0.45, 0.55, 0.95], 3, 1.0, CONVEX),
}
SWEEP_NAMES = list(SWEEP_MODELS)
SWEEP_POINTS = 5
# Grids start at g_circ 0.8 or above, where every fixture's cost per call is
# flat; below it the concave window's cost jumps fivefold.
SWEEP_STARTS = [round(0.8 + 0.1 * j, 1) for j in range(18)]


def sweep_grid(start_index: int) -> str:
    a = SWEEP_STARTS[start_index]
    return f"{a:.1f}:{a + 0.5:.1f}:{SWEEP_POINTS}"


def write_sweep_models() -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, model in SWEEP_MODELS.items():
        path = WORK / f"{name}.json"
        path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths


SWEEP_FLOAT_COLUMNS = {"g_circ", "g_star", "g_low", "g_high", "payoff"}


def csv_matches(got: str, want: str) -> bool:
    """Header and text columns exact, numeric columns within FLOAT_TOL.

    Cells are rendered with %.17g, so comparing bytes would reject a
    last-digit change that the tolerance admits."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        return False
    numeric = [col in SWEEP_FLOAT_COLUMNS for col in want_rows[0]]
    for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
        if len(g_row) != len(w_row):
            return False
        for is_float, g, w in zip(numeric, g_row, w_row):
            if is_float and w:
                try:
                    if not close(float(g), float(w)):
                        return False
                except ValueError:
                    return False
            elif g != w:
                return False
    return True


class Sweep:
    """One op is one `agendamech sweep` call; ops_per_s counts grid points."""

    name = "sweep"

    def __init__(self, am, seed: int):
        from agendamech import cli
        self.main = cli.main
        self.paths = write_sweep_models()
        self.out = str(WORK / "sweep.csv")
        plan = load_json("sweep.plan.json")
        self.rounds = Rounds(plan, seed, "sweep", key=tuple)
        self.trace_ops = len(plan["pattern"])
        self.reference = None

    def points(self, key) -> int:
        return SWEEP_POINTS

    def run(self, key):
        name, start = key
        return self.main(["sweep", "--model", self.paths[name], "--grid", sweep_grid(start),
                          "--out", self.out])

    def check(self, key, code) -> bool:
        if self.reference is None:
            self.reference = load_json("sweep.out.json")
        if code != 0:
            return False
        name, start = key
        return csv_matches(Path(self.out).read_text(), self.reference[name][str(start)])


# ---------------------------------------------------------------------------
# ladder: threshold_table on small convex economies
# ---------------------------------------------------------------------------

LADDER_CANDIDATES = 192


def ladder_economy(am, index: int):
    """Candidate ``index``: n 2-3, convex benefit share, unanimity."""
    rng = random.Random(f"ladder:{index}")
    n = 2 + index % 2
    tech = am.log_technology() if rng.random() < 0.6 else am.power_technology(
        rng.choice([0.3, 0.5, 0.7]))
    res = am.quadratic_share_reservation(tech, rng.uniform(0.2, 0.8), rng.uniform(0.1, 1.0))
    return am.Economy(
        agenda_setter_type=rng.uniform(0.05, 1.2),
        agent_types=tuple(rng.uniform(0.02, 0.98) for _ in range(n - 1)),
        distributions=am.uniform(0.0, 1.0),
        tech=tech,
        reservation=res,
        quota=n,
        outside_g=rng.uniform(0.0, 2.5),
    )


def ladder_record(table) -> list:
    return [table.g_low, table.g_high, [[r.g_circ, r.k, r.l] for r in table.intermediate]]


class Ladder:
    """One op is one threshold_table call."""

    name = "ladder"
    trace_ops = 4

    def __init__(self, am, seed: int):
        self.am = am
        plan = load_json("ladder.plan.json")
        self.econs = {i: ladder_economy(am, i) for s in plan["strata"] for i in s}
        self.rounds = Rounds(plan, seed, "ladder")
        self.reference = None

    def points(self, key) -> int:
        return 1

    def run(self, key):
        return self.am.threshold_table(self.econs[key])

    def check(self, key, table) -> bool:
        if self.reference is None:
            self.reference = load_json("ladder.out.json")
        g_low, g_high, rungs = ladder_record(table)
        want = self.reference[str(key)]
        return (all_close([g_low, g_high], want[:2]) and len(rungs) == len(want[2])
                and all(r[1:] == w[1:] and close(r[0], w[0]) for r, w in zip(rungs, want[2])))


WORKLOADS = {w.name: w for w in (Corpus, Sweep, Ladder)}
