"""Independent numerical oracles used to derive and freeze expected values.

Everything here is deliberately self-contained (plain Python or numpy, no
imports from the package under test) so golden numbers are cross-checked by
a second, unrelated computation path.
"""

from itertools import combinations

import numpy as np


def bisect_root(f, lo, hi, tol=1e-12, iters=200):
    """Plain interval halving; f(lo) and f(hi) must straddle zero."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert f_lo * f_hi < 0.0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def foc_level(phi_prime, weight, hi=None, tol=1e-12):
    """Solve weight * phi'(g) = 1 for g >= 0 by bracketed bisection."""
    if weight <= 0.0:
        return 0.0
    try:
        if weight * phi_prime(0.0) <= 1.0:
            return 0.0
    except (ZeroDivisionError, OverflowError, ValueError):
        pass  # infinite marginal benefit at zero: interior optimum
    if hi is None:
        hi = 1.0
        while weight * phi_prime(hi) > 1.0:
            hi *= 2.0
            assert hi < 1e12, "no interior optimum"
    return bisect_root(lambda g: weight * phi_prime(g) - 1.0, 1e-300, hi, tol)


def simpson(f, a, b, panels=2000):
    """Composite Simpson quadrature, scalar integrand."""
    if b <= a:
        return 0.0
    h = (b - a) / (2 * panels)
    total = f(a) + f(b)
    for k in range(1, 2 * panels):
        total += (4.0 if k % 2 else 2.0) * f(a + k * h)
    return total * h / 3.0


def cumulative_trapezoid(values, grid):
    """Running trapezoid sums matching the transfer-module convention."""
    out = [0.0]
    for k in range(1, len(grid)):
        out.append(out[-1] + 0.5 * (values[k] + values[k - 1]) * (grid[k] - grid[k - 1]))
    return out


def all_coalitions(members, quota, agenda=0):
    """Every quota-sized coalition containing the agenda setter."""
    others = [m for m in members if m != agenda]
    return [frozenset({agenda, *c}) for c in combinations(others, quota - 1)]


def second_difference(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def lottery_lp_value(types, weights, levels, phi_levels, reservation, theta0):
    """Agenda setter's best expected payoff over every mechanism that may
    randomize the level, for one agent with a discretized type.

    Automated mechanism design (Conitzer & Sandholm, 2002): for each type
    cell c a lottery p[c, .] over the candidate levels and a transfer t[c]
    are free; the LP maximizes sum_c weights[c] * (t[c] + sum_l p[c, l] *
    (theta0 * phi_l - g_l)) subject to incentive compatibility between
    every pair of cells and participation (utility at least
    reservation[c]) at every cell. Needs scipy (HiGHS).
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    types = np.asarray(types, float)
    weights = np.asarray(weights, float)
    levels = np.asarray(levels, float)
    phi = np.asarray(phi_levels, float)
    m, n_levels = types.size, levels.size
    n_vars = m * n_levels + m  # p row-major, then t

    def p_col(c):
        return c * n_levels + np.arange(n_levels)

    def t_col(c):
        return m * n_levels + c

    rows, cols, vals, rhs = [], [], [], []

    def add_row(entries, bound):
        k = len(rhs)
        for col, val in entries:
            col = np.atleast_1d(col)
            rows.append(np.full(col.size, k))
            cols.append(col)
            vals.append(np.broadcast_to(val, col.shape))
        rhs.append(bound)

    for c in range(m):
        # participation: theta_c * E[phi] - t_c >= reservation_c
        add_row([(p_col(c), -types[c] * phi), (t_col(c), 1.0)], -reservation[c])
        for d in range(m):
            if d != c:
                # type c reporting d gains nothing: u(c, d) - u(c, c) <= 0
                add_row([(p_col(d), types[c] * phi), (t_col(d), -1.0),
                         (p_col(c), -types[c] * phi), (t_col(c), 1.0)], 0.0)
    a_ub = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(rhs), n_vars)).tocsr()
    a_eq = coo_matrix((np.ones(m * n_levels),
                       (np.repeat(np.arange(m), n_levels), np.arange(m * n_levels))),
                      shape=(m, n_vars)).tocsr()
    objective = np.concatenate([np.outer(weights, theta0 * phi - levels).ravel(), weights])
    bounds = [(0.0, None)] * (m * n_levels) + [(None, None)] * m
    res = linprog(-objective, A_ub=a_ub, b_ub=rhs, A_eq=a_eq, b_eq=np.ones(m),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun
