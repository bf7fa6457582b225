"""End-to-end acceptance gate for the model, optimizer, and simulator.

Each test measures one claim at its stated tolerance and appends a
PASS/FAIL summary line (with the measured figure) that the conftest
terminal hook prints after the run.
"""

import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from powertalk import (
    CASE_STUDY_SIGMA_Z,
    Bus,
    GridSpec,
    LoadSpec,
    NoRealRoot,
    SimConfig,
    VscSpec,
    allocate_input_variance,
    capacity_sweep,
    check_viability,
    concavity_probe,
    linearize,
    measure_power_compliance,
    nominal_droop,
    one_way_snr,
    run_transmission,
    single_bus_channel,
    solve_steady_state,
    two_source_closed_form,
    validate_grid,
    vr_power_investment,
)

PI_POINTS = [2.0, 5.0, 10.0, 15.0, 20.0]


def record(name, ok, detail):
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


@pytest.fixture(scope="session")
def sweep(grid, nominal):
    """Budget sweep over the full search box, shared by several criteria."""
    start = time.perf_counter()
    rows = capacity_sweep(grid, nominal, PI_POINTS, CASE_STUDY_SIGMA_Z, tx=0, rx=1)
    return rows, time.perf_counter() - start


def test_linear_load_exactness(linear_grid):
    start = time.perf_counter()
    droop = nominal_droop(linear_grid)
    state = solve_steady_state(linear_grid, droop)
    model = linearize(linear_grid, droop, state)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        dx = np.zeros(linear_grid.n)
        for bus in linear_grid.vsc_buses:
            dx[bus] = rng.uniform(-5.0, 5.0)
        moved = solve_steady_state(
            linear_grid,
            droop.with_x({b: droop.x[b] + dx[b] for b in linear_grid.vsc_buses}),
        )
        worst = max(worst, float(np.max(np.abs(moved.v - (state.v + model.H @ dx)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    record(
        "linear-load exactness",
        ok,
        f"max |v - H dx| = {worst:.3e} V over 100 draws (<= 1e-8), {elapsed:.2f} s",
    )
    assert worst <= 1e-8, f"linear-load prediction error {worst:.3e} V exceeds 1e-8"
    assert elapsed < 1.0, f"took {elapsed:.2f} s (budget 1 s)"


def test_linearization_error_order(grid, nominal):
    start = time.perf_counter()
    state = solve_steady_state(grid, nominal)
    model = linearize(grid, nominal, state)
    errors = []
    delta = 0.2
    for _ in range(5):
        moved = solve_steady_state(grid, nominal.with_x({0: nominal.x[0] + delta}))
        errors.append(float(np.max(np.abs(moved.v - (state.v + model.H[:, 0] * delta)))))
        delta /= 2.0
    ratios = [errors[i] / errors[i + 1] for i in range(4)]
    elapsed = time.perf_counter() - start
    ok = all(3.2 <= r <= 4.8 for r in ratios) and elapsed < 1.0
    record(
        "linearization error order",
        ok,
        "error ratios per halving " + ", ".join(f"{r:.2f}" for r in ratios) + " (in [3.2, 4.8])",
    )
    for r in ratios:
        assert 3.2 <= r <= 4.8, f"halving ratio {r:.3f} outside [3.2, 4.8]: {errors}"
    assert elapsed < 1.0


def test_solver_agrees_with_closed_form(grid, nominal):
    start = time.perf_counter()
    worst = 0.0
    for r_a in np.linspace(0.39, 1.56, 10):
        for r_b in np.linspace(0.39, 1.56, 10):
            droop = nominal.with_r({0: float(r_a), 1: float(r_b)})
            state = solve_steady_state(grid, droop)
            exact = two_source_closed_form(grid, droop)
            worst = max(worst, float(np.max(np.abs(state.v - exact))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    record(
        "solver vs closed form",
        ok,
        f"max error {worst:.3e} V over the 10x10 resistance lattice (<= 1e-8), {elapsed:.2f} s",
    )
    assert worst <= 1e-8, f"solver vs closed form differ by {worst:.3e} V"
    assert elapsed < 1.0


def test_channel_gains_match_finite_differences(grid, nominal, model):
    h = 1e-3
    worst = 0.0
    for m in grid.vsc_buses:
        up = solve_steady_state(grid, nominal.with_x({m: nominal.x[m] + h}))
        dn = solve_steady_state(grid, nominal.with_x({m: nominal.x[m] - h}))
        dv = (up.v - dn.v) / (2.0 * h)
        for bus in range(grid.n):
            worst = max(worst, abs(model.H[bus, m] - dv[bus]) / abs(dv[bus]))
        for bus in grid.vsc_buses:
            dp = (up.p[bus] - dn.p[bus]) / (2.0 * h)
            worst = max(worst, abs(model.Phi[bus, m] - dp) / abs(dp))
    ok = worst <= 1e-4
    record(
        "finite-difference channel check",
        ok,
        f"max relative gain error {worst:.3e} (<= 1e-4)",
    )
    assert ok, f"gain vs finite difference relative error {worst:.3e} exceeds 1e-4"


def test_load_correction_properties(grid, nominal, state):
    kappas = []
    for d_cp in (2500.0, 1000.0, 250.0, 50.0, 0.0):
        buses = list(grid.spec.buses)
        buses[2] = Bus(2, LoadSpec(r_cr=50.0, d_cp=d_cp))
        scaled = validate_grid(GridSpec(buses=tuple(buses), lines=grid.spec.lines))
        kappas.append(float(solve_steady_state(scaled, nominal).kappa[2]))
    monotone = all(a > b for a, b in zip(kappas, kappas[1:]))
    ok = (
        all(k >= 1.0 for k in kappas)
        and monotone
        and kappas[-1] == 1.0
        and abs(kappas[0] - 1.0024) <= 1e-3
    )
    record(
        "load correction factor",
        ok,
        f"kappa_C = {kappas[0]:.6f} (1.0024 +/- 1e-3), decreasing to 1 as the CPL vanishes",
    )
    assert all(k >= 1.0 for k in kappas), f"kappa below one: {kappas}"
    assert monotone and kappas[-1] == 1.0, f"kappa not monotone to 1: {kappas}"
    assert abs(kappas[0] - 1.0024) <= 1e-3, f"kappa_C {kappas[0]:.6f} off the fixture"


def test_single_bus_gain_bounds():
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    for _ in range(50):
        units = [
            VscSpec(x_nom=float(rng.uniform(300.0, 500.0)), r_nom=float(rng.uniform(0.1, 3.0)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        load = LoadSpec(r_cr=float(rng.uniform(10.0, 200.0)))
        h, kappa = single_bus_channel(units, load)
        assert kappa == 1.0
        assert np.all(h < 1.0), f"per-unit gain >= 1: {h}"
        worst_sum = max(worst_sum, float(h.sum()))
    ok = worst_sum < 1.0
    record(
        "single-bus gain bounds",
        ok,
        f"largest gain sum {worst_sum:.6f} over 50 randomized unit sets (< 1)",
    )
    assert ok, f"gain sum {worst_sum} reached 1"


def test_optimized_capacity_dominates(sweep):
    rows, elapsed = sweep
    dominance = all(row.capacity_opt >= row.capacity_nominal - 1e-12 for row in rows)
    nominal_trend = all(
        b.capacity_nominal >= a.capacity_nominal for a, b in zip(rows, rows[1:])
    )
    opt_trend = all(b.capacity_opt >= a.capacity_opt for a, b in zip(rows, rows[1:]))
    gains = []
    for row in rows:
        gain = (
            (row.capacity_opt - row.capacity_nominal) / row.capacity_nominal
            if row.capacity_nominal > 0.0
            else 0.0
        )
        gains.append(gain if abs(gain) > 1e-12 else 0.0)
    improved = sum(gain > 0.05 for gain in gains)
    ok = dominance and nominal_trend and opt_trend and improved >= 3 and elapsed < 60.0
    record(
        "optimizer dominance and trend",
        ok,
        f"gains {', '.join(f'{g:.1%}' for g in gains)} at pi {PI_POINTS}; "
        f"{improved}/5 above 5%; sweep {elapsed:.1f} s (< 60 s)",
    )
    assert dominance, "optimized capacity fell below nominal"
    assert nominal_trend and opt_trend, "capacity not nondecreasing in the budget"
    assert improved >= 3, f"only {improved} of 5 budget points gained > 5%"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s (budget 60 s)"


def test_grid_optimum_certificate(grid, nominal, sweep):
    rows, _ = sweep
    row = next(r for r in rows if r.pi == 10.0)
    budgets = {0: 10.0, 1: 10.0}
    step = 0.005

    def score(r_pair):
        droop = nominal.with_r(dict(zip((0, 1), r_pair)))
        snr, g = one_way_snr(grid, droop, nominal, budgets, CASE_STUDY_SIGMA_Z, 0, 1)
        return snr, g

    here = (row.r_star[0], row.r_star[1])
    snr_star, g_star = score(here)
    neighbor_snrs = {}
    diff_variation = []
    for axis in (0, 1):
        for sign in (-1.0, 1.0):
            shifted = list(here)
            shifted[axis] += sign * step
            if shifted[axis] < nominal.r[axis] - 1e-12:
                continue
            snr_nb, g_nb = score(tuple(shifted))
            neighbor_snrs[(axis, sign)] = snr_nb
            diff_variation.append(
                abs((g_nb[0] - g_nb[1]) - (g_star[0] - g_star[1]))
            )
    no_improvement = all(
        snr_star >= snr_nb * (1.0 - 1e-6) for snr_nb in neighbor_snrs.values()
    )
    imbalance = abs(g_star[0] - g_star[1])
    balanced = imbalance <= max(diff_variation)
    ok = no_improvement and balanced
    record(
        "grid optimum certificate",
        ok,
        f"r* = ({here[0]:.3f}, {here[1]:.3f}); no +/-0.005 step improves the SNR; "
        f"|g_A - g_B| = {imbalance:.3e} <= step variation {max(diff_variation):.3e}",
    )
    assert no_improvement, f"a neighbor beats r*: {neighbor_snrs} vs {snr_star}"
    assert balanced, (
        f"gain imbalance {imbalance:.3e} exceeds the adjacent variation {max(diff_variation):.3e}"
    )


def test_gain_concavity_over_feasible_region(grid, nominal, budgets):
    report = concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    flagged = len({violation[0] for violation in report.violations})
    ok = report.max_rel_eig <= 1e-6
    record(
        "gain concavity over the feasible region",
        ok,
        f"max Hessian eigenvalue {report.max_rel_eig:.3e} relative to its norm "
        f"(tolerance 1e-6); {flagged} of {len(report.points)} interior points flagged",
    )
    assert ok, (
        f"g_A/g_B are not numerically concave: max relative Hessian eigenvalue "
        f"{report.max_rel_eig:.3e} > 1e-6 at {flagged} of {len(report.points)} "
        f"sampled interior points. The positive curvature is resolution-independent "
        f"(it persists under step refinement and direct quadratic fits along the "
        f"feasible band), so the gain terms are only approximately concave; the "
        f"interior optimum and the grid-search results are unaffected."
    )


def test_ber_waterfall_matches_gaussian_theory(grid, nominal, model):
    start = time.perf_counter()
    slots = 100_000
    h = model.H[1, 0]
    worst_dev = 0.0
    details = []
    for snr in (1.0, 4.0, 9.0):
        amplitude = CASE_STUDY_SIGMA_Z * math.sqrt(snr) / h
        cfg = SimConfig(
            slots=slots, amplitude=amplitude, sigma_z=CASE_STUDY_SIGMA_Z,
            mode="linearized", rng_seed=0, tx=0, rx=1,
        )
        report = run_transmission(grid, nominal, cfg)
        predicted = 0.5 * math.erfc(math.sqrt(snr) / math.sqrt(2.0))
        se = math.sqrt(predicted * (1.0 - predicted) / slots)
        dev = abs(report.ber - predicted) / se
        worst_dev = max(worst_dev, dev)
        details.append(f"snr {snr:.0f}: ber {report.ber:.4f} ({dev:.1f} se)")

    # nonlinear vs linearized at the budget-derived case amplitude
    dp = {0: 0.0, 1: 0.0}
    alloc = allocate_input_variance(model.Phi, {0: 10.0, 1: 10.0}, dp, transmitters=[0])
    amplitude = math.sqrt(alloc.s[0])
    base = dict(slots=slots, amplitude=amplitude, sigma_z=CASE_STUDY_SIGMA_Z,
                rng_seed=0, tx=0, rx=1)
    lin = run_transmission(grid, nominal, SimConfig(mode="linearized", **base))
    non = run_transmission(grid, nominal, SimConfig(mode="nonlinear", **base))
    combined = math.sqrt(
        lin.ber * (1.0 - lin.ber) / slots + non.ber * (1.0 - non.ber) / slots
    )
    mode_dev = abs(lin.ber - non.ber) / combined if combined > 0.0 else 0.0
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 3.0 and mode_dev <= 3.0 and elapsed < 120.0
    record(
        "ber waterfall",
        ok,
        "; ".join(details)
        + f"; nonlinear vs linearized {mode_dev:.2f} combined sigma; {elapsed:.1f} s",
    )
    assert worst_dev <= 3.0, f"ber deviates {worst_dev:.2f} binomial se from theory"
    assert mode_dev <= 3.0, f"mode disagreement {mode_dev:.2f} combined sigma"
    assert elapsed < 120.0


def test_power_budget_compliance(grid, nominal, sweep):
    rows, _ = sweep
    row = next(r for r in rows if r.pi == 10.0)
    droop = nominal.with_r(dict(row.r_star))
    state = solve_steady_state(grid, droop)
    model = linearize(grid, droop, state)
    dp = vr_power_investment(grid, nominal, droop)
    pi = {0: 10.0, 1: 10.0}
    alloc = allocate_input_variance(model.Phi, pi, dp, transmitters=[0])
    cfg = SimConfig(
        slots=100_000, amplitude=math.sqrt(alloc.s[0]), sigma_z=CASE_STUDY_SIGMA_Z,
        mode="nonlinear", rng_seed=0, tx=0, rx=1,
    )
    compliance = measure_power_compliance(grid, droop, cfg, pi)
    ok = all(row_.ok for row_ in compliance.values())
    ratios = {bus: row_.empirical / row_.bound for bus, row_ in compliance.items()}
    record(
        "power budget compliance",
        ok,
        "measured/bound " + ", ".join(f"bus {b}: {v:.3f}" for b, v in ratios.items())
        + " (<= 1.05)",
    )
    for bus, row_ in compliance.items():
        assert row_.ok, (
            f"bus {bus}: mean-square deviation {row_.empirical:.2f} W^2 "
            f"exceeds 1.05 x {row_.bound:.2f} W^2"
        )


def test_viability_boundary_classification():
    x, r = 400.0, 0.39
    boundary = x * x / (4.0 * r)

    def classify(d_cp):
        grid = validate_grid(
            GridSpec(buses=(Bus(0, LoadSpec(d_cp=d_cp), VscSpec(x, r)),), lines=())
        )
        droop = nominal_droop(grid)
        try:
            state = solve_steady_state(grid, droop)
        except NoRealRoot:
            return "gated"
        return "gated" if check_viability(grid, droop, state.v) else "viable"

    below = classify(0.99 * boundary)
    above = classify(1.01 * boundary)
    ok = below == "viable" and above == "gated"
    record(
        "viability boundary classification",
        ok,
        f"d_cp = x^2/(4r) = {boundary:.1f} W: 0.99x {below}, 1.01x {above}",
    )
    assert below == "viable", f"0.99x boundary load classified as {below}"
    assert above == "gated", f"1.01x boundary load classified as {above}"
