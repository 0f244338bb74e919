"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success)."""

import dataclasses
import importlib.util
import random
import time

import numpy as np
import pytest

import agendamech as am
from conftest import random_economy
from oracles import all_coalitions, flat_rent_curve, foc_level, lottery_lp_value

LOG_PRIME = lambda g: 1.0 / (1.0 + g)


def _report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# ---------------------------------------------------------------------------


def test_criterion_1_linear_unanimity_golden(golden_economy):
    """Golden thresholds 0.1 / 1.1 and the three-branch sweep, under 1 s."""
    t0 = time.perf_counter()
    sol = am.solve(golden_economy)
    ok = (abs(sol.thresholds.g_low - foc_level(LOG_PRIME, 1.1)) < 1e-8
          and abs(sol.thresholds.g_high - foc_level(LOG_PRIME, 2.1)) < 1e-8
          and abs(sol.thresholds.g_low - 0.1) < 1e-8
          and abs(sol.thresholds.g_high - 1.1) < 1e-8)

    grid = [k * 0.025 for k in range(81)]  # 0 to 2
    for g_circ in grid:
        s = am.solve(golden_economy.with_outside_g(g_circ))
        if g_circ < 0.1 - 1e-8:
            ok &= abs(s.g_star - 0.1) < 1e-8
        elif g_circ <= 1.1 + 1e-8:
            ok &= abs(s.g_star - g_circ) < 1e-8
        else:
            ok &= abs(s.g_star - 1.1) < 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(f"criterion 1: linear-unanimity golden values and sweep "
            f"({elapsed:.2f} s)", ok)


def test_criterion_2_oracle_suite_randomized_corpus():
    """200 random economies, every emitted mechanism passes the full oracle
    on a 41-point grid at 1e-8, in under 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    failures = []
    for idx in range(200):
        econ = random_economy(rng)
        sol = am.solve(econ)
        rep = am.verify_solution(econ, sol, grid_size=41)
        if not rep.passed:
            failures.append((idx, rep.summary()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(f"criterion 2: oracle suite on 200-economy corpus, "
            f"{len(failures)} failures ({elapsed:.1f} s)", ok)


def test_criterion_3_partition_and_rent_shapes(concave_economy, convex_economy):
    """Concave: single interior binding type, V-shaped rents. Convex:
    both-end anchors, inverted-V, endpoint rents below 1e-7. Every gamma is
    a valid cdf."""
    ok = True

    sol_c = am.solve(concave_economy)
    grid, rents = flat_rent_curve(concave_economy, sol_c)
    anchor = sol_c.cutoff_types[0]
    k = int(np.argmin(np.abs(grid - anchor)))
    ok &= concave_economy.theta_lo < anchor < concave_economy.theta_hi
    ok &= abs(rents[k]) < 1e-6 and rents.min() > -1e-9
    ok &= bool((np.diff(rents[: k + 1]) <= 1e-9).all())
    ok &= bool((np.diff(rents[k:]) >= -1e-9).all())
    ok &= len(sol_c.partition.L) == 1

    sol_x = am.solve(convex_economy)
    grid, rents = flat_rent_curve(convex_economy, sol_x)
    peak = int(np.argmax(rents))
    ok &= abs(rents[0]) < 1e-7 and abs(rents[-1]) < 1e-7
    ok &= 0 < peak < len(grid) - 1
    ok &= bool((np.diff(rents[: peak + 1]) >= -1e-9).all())
    ok &= bool((np.diff(rents[peak:]) <= 1e-9).all())

    rng = random.Random(5)
    for _ in range(40):
        econ = random_economy(rng)
        sol = am.solve(econ)
        ok &= sol.gamma.is_valid_cdf(econ.theta_lo, econ.theta_hi)
    _report("criterion 3: concave V rents, convex inverted-V rents, "
            "gamma always a valid cdf", ok)


def test_criterion_4_majority_comparative_statics(log_tech):
    """Lowering the quota never lowers provision; the cap hits the efficient
    level exactly (1e-8)."""
    types = (0.55, 0.6, 0.65, 0.95)
    ok = True
    previous = -1.0
    eff = None
    for q in (5, 4, 3, 2):
        econ = am.Economy(0.5, types, am.uniform(0.0, 1.0), log_tech,
                          am.linear_reservation(log_tech, 5), q, 0.0)
        sol = am.solve(econ)
        eff = am.efficient_level(econ)
        ok &= sol.g_star >= previous - 1e-12
        ok &= sol.g_star <= eff + 1e-8
        previous = sol.g_star
    ok &= abs(previous - eff) < 1e-8
    _report("criterion 4: provision nondecreasing in falling quota, capped "
            "exactly at the efficient level", ok)


def test_criterion_5_coalition_structure(concave_window_economy,
                                         convex_tail_economy, log_tech):
    """Non-convex coalition with an interior excluded agent (concave);
    tail-only exclusion (convex); quota-sized coalition enumeration confirms
    the extremal choice in uniform-sign regimes."""
    ok = True

    sol_w = am.solve(concave_window_economy)
    members = sorted(concave_window_economy.type_of(i)
                     for i in sol_w.coalition if i != 0)
    outs = sorted(concave_window_economy.type_of(i) for i in sol_w.excluded)
    ok &= bool(sol_w.excluded) and members[0] < outs[0] and outs[-1] < members[-1]

    sol_t = am.solve(convex_tail_economy)
    order = convex_tail_economy.sorted_agents()
    ranks = {order.index(i) for i in sol_t.excluded}
    k_lo = 0
    while k_lo in ranks:
        k_lo += 1
    k_hi = 0
    while (len(order) - 1 - k_hi) in ranks:
        k_hi += 1
    ok &= bool(ranks) and len(ranks) == k_lo + k_hi

    rng = random.Random(77)
    checked = 0
    while checked < 12:
        n = rng.randint(3, 6)
        q = rng.randint(2, n - 1)
        econ = am.Economy(rng.uniform(0.1, 1.0),
                          tuple(rng.uniform(0.05, 0.95) for _ in range(n - 1)),
                          am.uniform(0.0, 1.0), log_tech,
                          am.linear_reservation(log_tech, n), q, 0.0)
        sol = am.solve(econ)
        if sol.regime not in (am.Regime.UNDERSTATE_INTERIOR,
                              am.Regime.NON_MONOTONE_LOW):
            continue
        xi = {c: sum(econ.type_of(i) for i in c if i != 0)
              for c in all_coalitions(range(econ.n), q)}
        ok &= abs(xi[sol.coalition] - max(xi.values())) < 1e-12
        checked += 1
    _report("criterion 5: non-convex concave coalition, convex tail "
            "exclusion, extremal coalition confirmed by enumeration", ok)


def test_criterion_6_vcg_impossibility(log_tech):
    """Positive budget deficit and positive perturbation gain on three
    seeded economies for every epsilon in the ladder."""
    rng = random.Random(13)
    ok = True
    for _ in range(3):
        n = rng.randint(3, 5)
        econ = am.Economy(rng.uniform(0.4, 1.0),
                          tuple(rng.uniform(0.3, 0.9) for _ in range(n - 1)),
                          am.uniform(0.0, 1.0), log_tech,
                          am.linear_reservation(log_tech, n), n, 0.0)
        for eps in (1e-2, 1e-3, 1e-4):
            rep = am.vcg_demo(econ, eps)
            ok &= rep.deficit > 0.0 and rep.perturbation_gain > 0.0
    _report("criterion 6: efficient mechanisms run a strict deficit and the "
            "compensated reduction strictly profits the proposer", ok)


def _lottery_gap(econ, m, n_levels=240):
    """LP value over lottery mechanisms minus the deterministic map payoff,
    for the one agent's type on an m-node grid with F-mass weights."""
    lo, hi = econ.theta_lo, econ.theta_hi
    types = np.linspace(lo, hi, m)
    edges = np.concatenate([[lo], 0.5 * (types[1:] + types[:-1]), [hi]])
    weights = np.diff(econ.dist_of(1).F(edges))
    top = (1.5 * am.solve_weighted_foc(econ.tech, econ.agenda_setter_type + 2.0 * hi)
           + 1.5 * econ.outside_g + 1.0)
    levels = np.linspace(0.0, top, n_levels)
    reservation = [float(econ.reservation.value(t, econ.outside_g)) for t in types]
    lp = lottery_lp_value(types, weights, levels, econ.tech.phi_at(levels),
                          reservation, econ.agenda_setter_type)
    deterministic = 0.0
    for w, theta in zip(weights, types):
        at_type = dataclasses.replace(econ, agent_types=(float(theta),))
        deterministic += w * am.agenda_setter_payoff(at_type, am.solve(at_type))
    return lp - deterministic


def test_criterion_7_extensions(golden_economy, log_tech):
    """The golden solution passes the oracle, so its T-fold repetition, whose
    payoff scales by beta = (1 - delta**T) / (1 - delta), does too; a lottery
    LP gains nothing over the deterministic map beyond discretization error
    (the gap at 41 type nodes is at most 0.6 of the gap at 21); decreasing
    profiles reproduce the zero-reservation solution exactly."""
    ok = am.verify_solution(golden_economy, am.solve(golden_economy)).passed

    res_neg = am.negative_slope_reservation(log_tech, 1.2, 0.6)
    for g_circ in (0.0, 0.9, 2.4):
        neg = am.Economy(0.5, (0.6, 0.9), am.uniform(0.0, 1.0), log_tech,
                         res_neg, 2, g_circ)
        zero = am.Economy(0.5, (0.6, 0.9), am.uniform(0.0, 1.0), log_tech,
                          am.zero_reservation(), 2, g_circ)
        s_neg, s_zero = am.solve(neg), am.solve(zero)
        ok &= s_neg.g_star == s_zero.g_star
        ok &= s_neg.coalition == s_zero.coalition and s_neg.excluded == s_zero.excluded

    # the lottery LP needs scipy; without it the other two parts still run
    has_lp = importlib.util.find_spec("scipy") is not None
    gaps = []
    for res in (am.linear_reservation(log_tech, 2), res_neg) if has_lp else ():
        for g_circ in (0.0, 2.0):
            econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech, res, 2, g_circ)
            coarse, fine = _lottery_gap(econ, 21), _lottery_gap(econ, 41)
            gaps.append(f"{coarse:.3g}->{fine:.3g}")
            ok &= -1e-9 <= fine <= 0.6 * coarse
    lottery = (f"lottery LP gap shrinks with the grid ({', '.join(gaps)})"
               if has_lp else "lottery LP not run (no scipy)")
    _report("criterion 7: golden solution certified (repetition scales payoff "
            "by beta), decreasing profiles match the zero-reservation "
            f"solution, {lottery}", ok)
    if not has_lp:
        pytest.skip("lottery LP needs scipy; the other parts passed")


def test_criterion_8_non_monotone_regime(tmp_path, majority_economy):
    """A linear-majority economy with inverted raw thresholds produces the
    two-branch rule with a downward jump, detected by the sweep command."""
    import json

    from agendamech.cli import main

    sol = am.solve(majority_economy)
    ok = sol.thresholds_raw.g_low > sol.thresholds_raw.g_high
    ok &= sol.regime is am.Regime.NON_MONOTONE_LOW

    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "economy": {
            "agenda_setter_type": 0.5,
            "agent_types": [0.2, 0.8],
            "quota": 2,
            "outside_g": 0.0,
            "distributions": {"family": "uniform"},
            "technology": {"family": "log"},
            "reservation": {"family": "linear"},
        }
    }))
    seg_path = tmp_path / "segments.json"
    code = main(["sweep", "--model", str(model), "--grid", "0:1.2:25",
                 "--out", str(tmp_path / "sweep.csv"),
                 "--plot-data", str(seg_path)])
    ok &= code == 0
    jumps = json.loads(seg_path.read_text())["jumps"]
    ok &= len(jumps) == 1 and jumps[0]["direction"] == "down"
    ok &= jumps[0]["from"] > jumps[0]["to"]
    _report("criterion 8: non-monotone two-branch rule with a downward jump "
            "detected by the sweep", ok)
