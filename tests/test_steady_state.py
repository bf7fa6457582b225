import inspect
import logging
import math
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import cli, steady_state
from powertalk import (
    Bus,
    DroopState,
    GridSpec,
    InvalidArgument,
    LineSpec,
    LoadSpec,
    NoRealRoot,
    NonConvergence,
    TopologyMismatch,
    VscSpec,
    check_viability,
    nominal_droop,
    solve_steady_state,
    solve_steady_state_many,
    two_source_closed_form,
    validate_grid,
)
from powertalk.optimizer import DEFAULT_STEP, default_r_max

from conftest import dense_lines
from grids import chain_document, radial_feeder_document

ROOT = Path(__file__).resolve().parent.parent
r_values = st.floats(min_value=0.2, max_value=2.0)


def test_solution_matches_closed_form(grid, nominal):
    state = solve_steady_state(grid, nominal)
    exact = two_source_closed_form(grid, nominal)
    err = np.max(np.abs(state.v - exact))
    assert err < 1e-9, f"iterative vs closed form differ by {err:.3e} V"


def test_gauss_seidel_and_newton_agree(grid, nominal):
    gs = solve_steady_state(grid, nominal, method="gauss_seidel")
    nt = solve_steady_state(grid, nominal, method="newton")
    err = np.max(np.abs(gs.v - nt.v))
    assert err < 1e-8, f"solver paths differ by {err:.3e} V"


def test_newton_flags_a_droop_without_a_real_root(grid, nominal):
    with pytest.raises(NoRealRoot):
        solve_steady_state(grid, nominal.with_r({0: 3000.0, 1: 3000.0}), method="newton")


def test_newton_reports_an_exhausted_iteration_budget(grid, nominal, monkeypatch):
    monkeypatch.setattr(steady_state, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="after 1 iterations"):
        solve_steady_state(grid, nominal, method="newton")


@pytest.mark.parametrize("budget", [1, 2])
def test_a_scalar_newton_solve_stops_by_its_lanes_budget(grid, nominal, monkeypatch, budget):
    # the scalar solve bound DEFAULT_MAX_ITER where it was defined, so at a
    # budget of 1 it certified r = (0.5, 0.39) ohm, which its lane does not
    monkeypatch.setattr(steady_state, "DEFAULT_MAX_ITER", budget)
    r = {0: np.array([0.39, 0.5, 0.45, 0.8, 2.0]), 1: np.array([0.39, 0.39, 0.47, 0.39, 1.0])}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    assert batch.feasible.sum() == {1: 0, 2: 4}[budget]  # both outcomes, at a budget of 2
    for lane in range(5):
        droop = nominal.with_r({bus: float(values[lane]) for bus, values in r.items()})
        if batch.feasible[lane]:
            state = solve_steady_state(grid, droop, method="newton")
            assert state.v.tobytes() == batch.v[lane].tobytes(), lane
        else:
            with pytest.raises(NonConvergence, match=f"after {budget} iterations"):
                solve_steady_state(grid, droop, method="newton")


@settings(max_examples=25)
@given(r_a=r_values, r_b=r_values)
def test_newton_tracks_closed_form_over_droop_range(grid, nominal, r_a, r_b):
    droop = nominal.with_r({0: r_a, 1: r_b})
    state = solve_steady_state(grid, droop, method="newton")
    err = np.max(np.abs(state.v - two_source_closed_form(grid, droop)))
    assert err <= 1e-9, f"r=({r_a}, {r_b}): {err:.3e} V"


def test_newton_reports_a_residual_within_tolerance(grid, nominal):
    rng = np.random.default_rng(5)
    for _ in range(200):
        droop = nominal.with_r({bus: nominal.r[bus] * rng.uniform(1.0, 3.0) for bus in (0, 1)})
        state = solve_steady_state(grid, droop, method="newton")
        assert state.residual <= steady_state.DEFAULT_TOL, droop


def test_unknown_method_rejected(grid, nominal):
    with pytest.raises(ValueError):
        solve_steady_state(grid, nominal, method="simplex")


def test_residual_below_tolerance(grid, nominal):
    for method in ("gauss_seidel", "newton"):
        state = solve_steady_state(grid, nominal, method=method)
        assert 0.0 <= state.residual <= steady_state.DEFAULT_TOL, method


def test_power_balance(grid, nominal, state):
    injected = sum(state.p.values())
    load = float(
        np.sum(state.v**2 * grid.r_cr_inv)
        + np.sum(grid.i_cc * state.v)
        + np.sum(grid.d_cp)
    )
    dv = state.v[:, None] - state.v[None, :]
    losses = 0.5 * float(np.sum(dense_lines(grid) * dv**2))
    assert injected == pytest.approx(load + losses, rel=1e-9)


def test_converter_outputs_follow_droop_law(grid, nominal, state):
    for bus in grid.vsc_buses:
        i = (nominal.x[bus] - state.v[bus]) / nominal.r[bus]
        assert state.i[bus] == pytest.approx(i)
        assert state.p[bus] == pytest.approx(state.v[bus] * i)


def test_kappa_is_exactly_one_without_constant_power_load(linear_grid):
    state = solve_steady_state(linear_grid, nominal_droop(linear_grid))
    assert np.all(state.kappa == 1.0)


def test_kappa_at_least_one_with_constant_power_load(grid, state):
    assert np.all(state.kappa >= 1.0)
    assert state.kappa[2] > 1.0  # bus with the constant power load
    assert state.kappa[0] == 1.0 and state.kappa[1] == 1.0


def test_kappa_grows_with_load_power(grid, nominal):
    kappas = []
    for scale in (0.25, 0.5, 1.0):
        spec = grid.spec
        buses = list(spec.buses)
        buses[2] = Bus(2, LoadSpec(r_cr=50.0, d_cp=2500.0 * scale))
        scaled = validate_grid(GridSpec(buses=tuple(buses), lines=spec.lines))
        kappas.append(solve_steady_state(scaled, nominal).kappa[2])
    assert kappas[0] < kappas[1] < kappas[2]


def test_constant_current_load_pulls_voltage_down(grid, nominal, state):
    spec = grid.spec
    buses = list(spec.buses)
    buses[2] = Bus(2, LoadSpec(r_cr=50.0, i_cc=5.0, d_cp=2500.0))
    loaded = validate_grid(GridSpec(buses=tuple(buses), lines=spec.lines))
    drawn = solve_steady_state(loaded, nominal)
    assert np.all(drawn.v < state.v)


def test_no_real_root_for_extreme_virtual_resistance(grid, nominal):
    with pytest.raises(NoRealRoot):
        solve_steady_state(grid, nominal.with_r({0: 3000.0, 1: 3000.0}))


def test_non_convergence_when_budget_exhausted(grid, nominal, monkeypatch):
    # the star's sweeps need more than one block, and Newton more than one iteration
    monkeypatch.setattr(steady_state, "GS_SWEEPS", steady_state.SWEEP_BLOCK)
    monkeypatch.setattr(steady_state, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NonConvergence):
        solve_steady_state(grid, nominal)


def test_droop_validation_rejects_wrong_buses(grid):
    bad = DroopState(x={0: 400.0}, r={0: 0.39})
    with pytest.raises(ValueError):
        solve_steady_state(grid, bad)


def test_droop_validation_rejects_nonpositive_resistance(grid, nominal):
    with pytest.raises(ValueError):
        solve_steady_state(grid, nominal.with_r({0: 0.0}))


@pytest.mark.parametrize("r", [np.inf, np.nan])
def test_droop_validation_rejects_an_infinite_resistance(grid, nominal, r):
    with pytest.raises(InvalidArgument, match="bus 1 must be positive and finite"):
        solve_steady_state(grid, nominal.with_r({1: r}))


def test_droop_validation_rejects_a_subnormal_resistance(grid, nominal):
    # 1/r overflows to inf, which would reach the solve's setup as inf/inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="bus 0 must be positive and finite"):
            solve_steady_state(grid, nominal.with_r({0: 1e-320}))


def test_with_r_and_with_x_return_updated_copies(nominal):
    tweaked = nominal.with_r({0: 0.5}).with_x({1: 401.0})
    assert tweaked.r == {0: 0.5, 1: 0.39}
    assert tweaked.x == {0: 400.0, 1: 401.0}
    assert nominal.r[0] == 0.39 and nominal.x[1] == 400.0  # originals untouched


@pytest.mark.parametrize(
    "load, bound",
    [
        (LoadSpec(d_cp=150_000.0), 0.39 * math.sqrt(4.0 * 150_000.0 / 0.39)),
        # the constant-current draw raises the bound: r (sqrt(4 d_cp/r_bus) + i_cc)
        (LoadSpec(i_cc=100.0, d_cp=90_000.0), 0.39 * (math.sqrt(4.0 * 90_000.0 / 0.39) + 100.0)),
    ],
    ids=["constant-power", "constant-current"],
)
def test_check_viability_flags_low_reference(load, bound):
    grid = validate_grid(GridSpec(buses=(Bus(0, load, VscSpec(400.0, 0.39)),), lines=()))
    droop = nominal_droop(grid)
    violations = check_viability(grid, droop, np.zeros(1))
    assert [v.bus for v in violations] == [0]
    assert violations[0].bound == pytest.approx(bound, rel=1e-12)
    assert violations[0].bound > violations[0].x
    for method in ("gauss_seidel", "newton"):
        with pytest.raises(NoRealRoot):
            solve_steady_state(grid, droop, method=method)


def test_check_viability_quiet_at_nominal(grid, nominal, state):
    assert check_viability(grid, nominal, state.v) == []


@pytest.mark.parametrize("v_neighbors", [np.zeros(1), np.zeros(2), np.zeros((1, 3))])
def test_check_viability_rejects_voltages_not_of_the_grids_shape(grid, nominal, v_neighbors):
    with pytest.raises(InvalidArgument, match=r"v_neighbors must have shape \(3,\)"):
        check_viability(grid, nominal, v_neighbors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_viability_rejects_non_finite_voltages(grid, nominal, bad):
    # NaN voltages gave no violation: a point reported as viable
    with pytest.raises(InvalidArgument, match="v_neighbors must be finite"):
        check_viability(grid, nominal, np.full(3, bad))


def test_closed_form_topology_checks(grid):
    spec = grid.spec
    buses = list(spec.buses)

    loaded_source = list(buses)
    loaded_source[0] = Bus(0, LoadSpec(r_cr=80.0), VscSpec(400.0, 0.39))
    bad = validate_grid(GridSpec(buses=tuple(loaded_source), lines=spec.lines))
    with pytest.raises(TopologyMismatch):
        two_source_closed_form(bad, nominal_droop(bad))

    bridged = validate_grid(
        GridSpec(buses=spec.buses, lines=spec.lines + (LineSpec(0, 1, 0.5),))
    )
    with pytest.raises(TopologyMismatch):
        two_source_closed_form(bridged, nominal_droop(bridged))

    one_source = list(buses)
    one_source[1] = Bus(1, LoadSpec(r_cr=100.0))
    lone = validate_grid(GridSpec(buses=tuple(one_source), lines=spec.lines))
    with pytest.raises(TopologyMismatch):
        two_source_closed_form(lone, nominal_droop(lone))


@settings(max_examples=25)
@given(r_a=r_values, r_b=r_values)
def test_closed_form_tracks_solver_over_droop_range(grid, nominal, r_a, r_b):
    droop = nominal.with_r({0: r_a, 1: r_b})
    state = solve_steady_state(grid, droop)
    exact = two_source_closed_form(grid, droop)
    err = np.max(np.abs(state.v - exact))
    assert err < 1e-8, f"r=({r_a}, {r_b}): {err:.3e} V"


@settings(max_examples=15)
@given(
    r_a=st.lists(r_values, min_size=1, max_size=4),
    r_b=r_values,
)
def test_batch_solve_matches_single_solves(grid, nominal, r_a, r_b):
    batch = solve_steady_state_many(
        grid, x=dict(nominal.x), r={0: np.array(r_a), 1: r_b}
    )
    assert batch.feasible.all()
    for lane, r0 in enumerate(r_a):
        single = solve_steady_state(grid, nominal.with_r({0: r0, 1: r_b}))
        err = np.max(np.abs(batch.v[lane] - single.v))
        assert err < 1e-8, f"lane {lane}: {err:.3e} V"


def test_batch_solve_flags_nonviable_lanes(grid, nominal):
    batch = solve_steady_state_many(
        grid,
        x=dict(nominal.x),
        r={0: np.array([0.39, 3000.0, 0.8]), 1: np.array([0.39, 3000.0, 0.39])},
    )
    assert list(batch.feasible) == [True, False, True]
    assert np.isnan(batch.v[1]).all()
    assert batch.sweeps <= 10  # the stray lane leaves at once, not at DEFAULT_MAX_ITER


def test_batch_solve_rejects_wrong_bus_keys(grid, nominal):
    with pytest.raises(InvalidArgument):
        solve_steady_state_many(grid, x=dict(nominal.x), r={0: 0.39})


@pytest.mark.parametrize("bad", [-0.39, 0.0, np.inf, np.nan, 1e-320])
def test_batch_solve_rejects_invalid_resistances(grid, nominal, bad):
    # no such lane may be solved: a negative one would be "feasible", and 0 or
    # a subnormal one would overflow 1/r with a warning
    r = {0: np.array([0.39, bad, 0.5]), 1: 0.39}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="bus 0 must be positive and finite"):
            solve_steady_state_many(grid, dict(nominal.x), r)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"])
@pytest.mark.parametrize("solve", [
    lambda grid, droop: solve_steady_state(grid, droop),
    lambda grid, droop: solve_steady_state_many(grid, droop.x, {0: np.array([0.4, 0.5]), 1: 0.4}),
], ids=["scalar", "batched"])
def test_a_reference_voltage_that_is_not_finite_is_an_invalid_argument(grid, nominal, bad, solve):
    # not a NonConvergence, an infeasible lane or a bare OverflowError
    with pytest.raises(InvalidArgument, match="reference voltage on bus 0 must be finite"):
        solve(grid, nominal.with_x({0: bad}))


def _case_study_lattice(grid, nominal):
    """The optimizer's resistance lattice for the case study, flattened."""
    axes = []
    for bus in grid.vsc_buses:
        lo, hi = nominal.r[bus], default_r_max(grid, nominal, bus)
        axes.append(lo + DEFAULT_STEP * np.arange(int(np.floor((hi - lo) / DEFAULT_STEP + 1e-9)) + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return {bus: m.reshape(-1) for bus, m in zip(grid.vsc_buses, mesh)}


def test_batch_lanes_do_not_depend_on_their_block(grid, nominal):
    block = steady_state._block_lanes(grid)
    lanes = 3 * block + 17
    r = {0: np.linspace(0.39, 3.9, lanes), 1: np.linspace(3.9, 0.39, lanes)}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    assert batch.feasible.all()
    edges = [k * block + d for k in range(1, 4) for d in (-1, 0, 1)]
    for lane in [0, 1, lanes - 1] + edges + list(range(5, lanes, 997)):
        alone = solve_steady_state_many(
            grid, dict(nominal.x), {0: r[0][lane : lane + 1], 1: r[1][lane : lane + 1]}
        )
        np.testing.assert_array_equal(batch.v[lane], alone.v[0], err_msg=f"lane {lane}")


def test_batch_matches_closed_form_on_case_study_lattice(grid, nominal):
    lattice = _case_study_lattice(grid, nominal)
    sample = {bus: r[::499] for bus, r in lattice.items()}
    batch = solve_steady_state_many(grid, dict(nominal.x), sample)
    assert batch.feasible.all()
    assert batch.sweeps <= 10
    for lane in range(len(sample[0])):
        droop = nominal.with_r({bus: float(r[lane]) for bus, r in sample.items()})
        err = np.max(np.abs(batch.v[lane] - two_source_closed_form(grid, droop)))
        assert err <= 1e-9, f"lane {lane}: {err:.3e} V"


def _collapse_root(grid, droop):
    """Star voltages on the smaller root of the load-bus quadratic."""
    load, sources, g_line = 2, (0, 1), dense_lines(grid)
    r_leg = {bus: droop.r[bus] + 1.0 / g_line[bus, load] for bus in sources}
    g_total = sum(1.0 / r_leg[bus] for bus in sources) + grid.r_cr_inv[load]
    b = sum(droop.x[bus] / r_leg[bus] for bus in sources) - grid.i_cc[load]
    v = np.zeros(3)
    v[load] = (b - np.sqrt(b * b - 4.0 * grid.d_cp[load] * g_total)) / (2.0 * g_total)
    for bus in sources:
        g = g_line[bus, load]
        v[bus] = (droop.x[bus] / droop.r[bus] + v[load] * g) / (1.0 / droop.r[bus] + g)
    return v


def test_branch_certificate_rejects_collapse_root(grid, nominal):
    xr, y = steady_state._droop_lanes(grid, nominal.x, nominal.r, 1)
    g_bus = grid.lines.degree + y + grid.r_cr_inv
    upper = two_source_closed_form(grid, nominal)[None, :]
    lower = _collapse_root(grid, nominal)[None, :]
    assert 0.0 < lower[0, 2] < upper[0, 2]
    for v, on_upper in ((upper, True), (lower, False)):
        b, f = steady_state._balance(grid, xr, g_bus, v)
        assert np.max(np.abs(f)) < 1e-9  # both roots satisfy the current balance
        assert steady_state._on_upper_branch(grid, g_bus, b, v).tolist() == [on_upper]


# -- the Gauss-Seidel sweep against its numpy form ----------------------------

def _numpy_residual(grid, xr, y, v):
    """The current-balance error of the solvers, written out in their order of operations."""
    g_line = dense_lines(grid)
    line_sum = np.zeros(grid.n)
    for bus, ends in enumerate(grid.adjacent):
        for m in ends:  # ascending neighbour ids
            line_sum[bus] += g_line[bus, m] * v[m]
    b = xr + line_sum - grid.i_cc
    return b - (grid.lines.degree + y + grid.r_cr_inv) * v - grid.d_cp / v


def _numpy_gauss_seidel(grid, xr, y, r_bus, v, tol, max_iter, damping):
    """The sweep as numpy scalar code: the reference for the float sweep.

    A bus's inflow is the dot of its line conductances over the span of its
    neighbour ids, the summation order of the float sweep's BLAS dot.
    """
    four_d = 4.0 * grid.d_cp / r_bus
    g_line = dense_lines(grid)
    spans = [slice(ends[0], ends[-1] + 1) for ends in grid.adjacent]
    res = np.inf
    for _ in range(max_iter):
        for bus in range(grid.n):
            span = spans[bus]
            b = xr[bus] + g_line[bus, span] @ v[span] - grid.i_cc[bus]
            disc = b * b - four_d[bus]
            if disc < 0.0:
                raise NoRealRoot(
                    f"bus {bus}: voltage quadratic has no real root "
                    f"(discriminant {disc:.3e}); droop parameters not viable"
                )
            root = 0.5 * r_bus[bus] * (b + np.sqrt(disc))
            v[bus] = damping * root + (1.0 - damping) * v[bus]
        res = np.max(np.abs(_numpy_residual(grid, xr, y, v)))
        if res <= tol:
            return v
    raise NonConvergence(f"gauss_seidel: residual {res:.3e} A after {max_iter} sweeps")


def _numpy_start(grid, droop):
    """``(xr, y, r_bus, v0)``: the numpy sweep's inputs at the solver's starting point."""
    (xr,), (y,) = steady_state._droop_lanes(grid, droop.x, droop.r, 1)
    r_bus = 1.0 / (grid.r_cr_inv + grid.lines.degree + y)
    v0 = steady_state._initial_voltages(grid, droop.x)
    return xr, y, r_bus, v0


def _numpy_solve(
    grid, droop, tol=steady_state.DEFAULT_TOL, max_iter=steady_state.DEFAULT_MAX_ITER
):
    """``(v, residual)`` of the numpy sweep from the solver's starting point."""
    xr, y, r_bus, v0 = _numpy_start(grid, droop)
    v = _numpy_gauss_seidel(grid, xr, y, r_bus, v0, tol, max_iter, steady_state.DEFAULT_DAMPING)
    return v, float(np.max(np.abs(_numpy_residual(grid, xr, y, v))))


def _numpy_residuals(grid, droop, sweeps):
    """Each numpy sweep's residual, up to ``sweeps`` of them or the one that raises NoRealRoot."""
    xr, y, r_bus, v = _numpy_start(grid, droop)
    residuals = []
    for _ in range(sweeps):
        try:  # one sweep that never converges, continuing from ``v`` in place
            _numpy_gauss_seidel(grid, xr, y, r_bus, v, -1.0, 1, steady_state.DEFAULT_DAMPING)
        except NonConvergence:
            residuals.append(float(np.max(np.abs(_numpy_residual(grid, xr, y, v)))))
        except NoRealRoot:
            break
    return residuals


def _from_document(document):
    return cli.validate_grid(cli.parse_config(document).grid)


def _radial_feeder():
    """The 21-bus, five-converter feeder of :func:`grids.radial_feeder_document`."""
    return _from_document(radial_feeder_document())


def _case_study_config():
    return _from_document((ROOT / "configs" / "case_study.json").read_text())


def _jittered(grid, nominal, lanes):
    """``lanes`` resistances r_nom * (1 + U(0, 0.05)) per converter, drawn at seed 1."""
    jitter = np.random.default_rng(1).uniform(0.0, 0.05, (lanes, len(grid.vsc_buses)))
    return {bus: nominal.r[bus] * (1.0 + jitter[:, j]) for j, bus in enumerate(grid.vsc_buses)}


def _lane(grid, droop):
    """``(v, residual)`` of ``droop``'s lane of the batched solve; NoRealRoot if not feasible."""
    batch = solve_steady_state_many(grid, dict(droop.x), {bus: [r] for bus, r in droop.r.items()})
    if not batch.feasible[0]:
        raise NoRealRoot("the lane is not feasible")
    return batch.v[0], float(batch.residual[0])


def _numpy_then_lane(grid, droop):
    """``(v, residual)`` of the lane, once ``GS_SWEEPS`` numpy sweeps have ended outside tol."""
    with pytest.raises(NonConvergence):  # the budget runs out
        _numpy_solve(grid, droop, max_iter=steady_state.GS_SWEEPS)
    return _lane(grid, droop)


BLOCK = steady_state.SWEEP_BLOCK


def _gave_up(residuals, budget, tol=steady_state.DEFAULT_TOL):
    """Gauss-Seidel's give-up line after sweeps with these residuals, out of ``budget``.

    ``residuals`` are every sweep's, up to the budget or to the sweep before
    one that lost a bus's real root, none within ``tol``.  The sweeps stop
    at the first whole block before the budget whose rate per sweep over
    its second half, kept up one block past the budget, leaves its last
    residual above ``tol``; else where the real root was lost; else at the
    budget.
    """
    assert budget % BLOCK == 0, budget
    res, half = np.array(residuals), BLOCK // 2
    blocks = min(len(res), budget - 1) // BLOCK  # the whole blocks before the budget
    ends = BLOCK * np.arange(1, blocks + 1)
    with np.errstate(over="ignore"):
        rates = (res[ends - 1] / res[ends - BLOCK + half - 1]) ** (1.0 / half)
        (short,) = np.nonzero(~(res[ends - 1] * rates ** (budget + BLOCK - ends) <= tol))
    if short.size:
        stop, rate = ends[short[0]], rates[short[0]]
        reason = f"its rate {rate:.4f} per sweep cannot reach tol by sweep {budget}"
    elif len(res) < budget:
        stop, reason = len(res), "then a bus lost its real root"
    else:
        stop, reason = budget, "the budget is spent"
    last = res[stop - 1] if stop else math.inf
    return f"gauss_seidel: residual {last:.3e} A after {stop} sweeps, {reason}; newton starts afresh"


def _oracle_droops(grid, nominal, count):
    """``nominal`` and ``count - 1`` droops about it, r up to 2x and x within 2 V, at a fixed seed."""
    rng = np.random.default_rng(20160101)
    return [nominal] + [
        nominal.with_r({bus: nominal.r[bus] * rng.uniform(1.0, 2.0) for bus in grid.vsc_buses})
        .with_x({bus: nominal.x[bus] + rng.uniform(-2.0, 2.0) for bus in grid.vsc_buses})
        for _ in range(count - 1)
    ]


# Every case-study solve converges inside Gauss-Seidel's budget, so it is
# the numpy sweep; the radial feeder's needs more sweeps, so it is the lane.
@pytest.mark.parametrize(
    "make_grid, count, reference",
    [(_case_study_config, 25, _numpy_solve), (_radial_feeder, 5, _numpy_then_lane)],
    ids=["_case_study_config-25", "_radial_feeder-5"],
)
def test_float_sweep_matches_numpy_sweep_bit_for_bit(make_grid, count, reference, caplog):
    grid = make_grid()
    nominal = nominal_droop(grid)
    for droop in _oracle_droops(grid, nominal, count):
        v, residual = reference(grid, droop)
        state = solve_steady_state(grid, droop)
        assert state.v.tobytes() == v.tobytes(), droop
        assert state.residual == residual, droop
    # the sweeps give up where the numpy residuals say (on both grids, the
    # first block's rate cannot reach tol), and the lane decides
    collapsed = nominal.with_r({bus: 3000.0 for bus in grid.vsc_buses})
    with pytest.raises(NoRealRoot, match="voltage quadratic has no real root"):
        _numpy_solve(grid, collapsed)
    with pytest.raises(NoRealRoot):
        _lane(grid, collapsed)
    with caplog.at_level(logging.DEBUG, logger="powertalk.steady_state"):
        with pytest.raises(NoRealRoot, match="^newton: iterate left the larger root"):
            solve_steady_state(grid, collapsed)
    budget = steady_state.GS_SWEEPS
    gave_up = _gave_up(_numpy_residuals(grid, collapsed, budget), budget)
    assert [record.getMessage() for record in caplog.records] == [gave_up]


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder])
def test_convergence_at_every_block_offset_matches_numpy_sweep(make_grid, monkeypatch):
    # DEFAULT_TOL is the residual of a target sweep, so the solve stops there:
    # at the first sweep, both ends of the first two blocks and inside the third
    grid = make_grid()
    nominal = nominal_droop(grid)
    targets = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 3)
    residuals = _numpy_residuals(grid, nominal, max(targets))
    for target in targets:
        tol = residuals[target - 1]
        assert min(residuals[: target - 1], default=np.inf) > tol, target  # first sweep in tol
        v, residual = _numpy_solve(grid, nominal, tol=tol)
        monkeypatch.setattr(steady_state, "DEFAULT_TOL", tol)
        state = solve_steady_state(grid, nominal)
        assert state.v.tobytes() == v.tobytes(), target
        assert state.residual == residual == tol, target


def _outcome(solve):
    """``solve()``'s voltage bits and residual, or its error's type and message."""
    try:
        state = solve()
    except (NoRealRoot, NonConvergence) as error:
        return type(error), str(error)
    return state.v.tobytes(), state.residual


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder])
@pytest.mark.parametrize("budget", [BLOCK, 3 * BLOCK])
def test_an_exhausted_sweep_budget_reports_the_numpy_residual(make_grid, budget, caplog,
                                                              monkeypatch):
    # the numpy sweeps run out of the budget; the float sweeps give up where
    # the numpy residuals say, at the budget or at a block whose rate cannot
    # reach tol, and Newton solves from the set-points, the call
    # method="newton" makes, outcome and bits
    monkeypatch.setattr(steady_state, "GS_SWEEPS", budget)
    grid = make_grid()
    nominal = nominal_droop(grid)
    with pytest.raises(NonConvergence):
        _numpy_solve(grid, nominal, max_iter=budget)
    with caplog.at_level(logging.DEBUG, logger="powertalk.steady_state"):
        got = _outcome(lambda: solve_steady_state(grid, nominal))
    gave_up = _gave_up(_numpy_residuals(grid, nominal, budget), budget)
    assert [record.getMessage() for record in caplog.records] == [gave_up]
    assert got == _outcome(lambda: solve_steady_state(grid, nominal, method="newton"))


def test_no_real_root_after_convergence_in_the_block_is_discarded(grid, nominal, caplog,
                                                                  monkeypatch):
    # at x = 50 V the star's residual falls to a minimum, then a later sweep
    # of the same block meets a negative discriminant: a DEFAULT_TOL met by
    # that minimum returns it, as the numpy sweep does, and a tighter one
    # gives the solve to Newton from the set-points, whose lane is not viable
    droop = nominal.with_x({0: 50.0, 1: 50.0})
    residuals = _numpy_residuals(grid, droop, BLOCK)
    failing = len(residuals) + 1
    tol = min(residuals)
    converged = residuals.index(tol) + 1
    assert converged < failing <= BLOCK, (converged, failing)
    v, residual = _numpy_solve(grid, droop, tol=tol)
    monkeypatch.setattr(steady_state, "DEFAULT_TOL", tol)
    state = solve_steady_state(grid, droop)
    assert state.v.tobytes() == v.tobytes() and state.residual == residual == tol
    with pytest.raises(NoRealRoot, match="voltage quadratic has no real root"):
        _numpy_solve(grid, droop, tol=0.5 * tol)
    monkeypatch.setattr(steady_state, "DEFAULT_TOL", 0.5 * tol)
    with pytest.raises(NoRealRoot):
        _lane(grid, droop)
    with pytest.raises(NoRealRoot) as newton_error:
        solve_steady_state(grid, droop, method="newton")
    with caplog.at_level(logging.DEBUG, logger="powertalk.steady_state"):
        with pytest.raises(NoRealRoot) as error:
            solve_steady_state(grid, droop)
    assert str(error.value) == str(newton_error.value)
    gave_up = _gave_up(residuals, steady_state.GS_SWEEPS, 0.5 * tol)
    assert [record.getMessage() for record in caplog.records] == [gave_up]


def test_no_real_root_in_the_first_sweep_of_a_block_surfaces(grid, nominal, caplog):
    # the first sweep meets a negative discriminant; the lane is not viable either
    droop = nominal.with_x({0: 10.0, 1: 10.0})
    assert _numpy_residuals(grid, droop, 1) == []
    with pytest.raises(NoRealRoot, match="voltage quadratic has no real root"):
        _numpy_solve(grid, droop)
    with pytest.raises(NoRealRoot):
        _lane(grid, droop)
    with pytest.raises(NoRealRoot) as newton_error:
        solve_steady_state(grid, droop, method="newton")
    with caplog.at_level(logging.DEBUG, logger="powertalk.steady_state"):
        with pytest.raises(NoRealRoot) as error:
            solve_steady_state(grid, droop)
    assert str(error.value) == str(newton_error.value)
    gave_up = _gave_up([], steady_state.GS_SWEEPS)
    assert [record.getMessage() for record in caplog.records] == [gave_up]


def test_a_non_finite_residual_stops_the_sweep_without_warnings(grid, nominal):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match=r"not finite, after sweep 1$"):
            solve_steady_state(grid, nominal.with_r({0: 1e-300}))


# -- the Newton step: elimination on the line graph ---------------------------

def _meshed_grid():
    """An 8-bus ring with a chord from bus 1 to bus 5: meshed, so its elimination fills."""
    vsc = {0: (400.0, 0.39), 4: (399.0, 0.45)}
    buses = [
        Bus(bus, LoadSpec(), VscSpec(*vsc[bus])) if bus in vsc
        else Bus(bus, LoadSpec(r_cr=60.0 + 10.0 * bus, d_cp=800.0 + 150.0 * bus))
        for bus in range(8)
    ]
    edges = [(k, (k + 1) % 8) for k in range(8)] + [(1, 5)]
    lines = [
        LineSpec.from_length(a, b, rho=0.641, length_km=0.1 + 0.05 * (k % 3))
        for k, (a, b) in enumerate(edges)
    ]
    return validate_grid(GridSpec(buses=tuple(buses), lines=tuple(lines)))


def _chain(n):
    """The n-bus chain of :func:`grids.chain_document`, a converter at each end."""
    return _from_document(chain_document(n))


def _dense_jacobians(grid, diag):
    jac = np.repeat(dense_lines(grid)[None], len(diag), axis=0)
    bus = np.arange(grid.n)
    jac[:, bus, bus] = diag
    return jac


def test_the_schedule_fills_only_meshed_grids():
    for make_grid in (_case_study_config, _radial_feeder, lambda: _chain(12)):
        grid = make_grid()
        assert not grid.elimination.updates
        assert len(grid.elimination.values) == grid.n - 1  # one spoke per line
        assert np.all(grid.elimination.values > 0.0)
    grid = _meshed_grid()
    assert grid.elimination.updates
    assert len(grid.elimination.values) > 9  # 9 lines plus the fill
    assert len(grid.elimination.levels[-1].target) == 0  # the root goes last, alone


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder, _meshed_grid])
def test_elimination_solves_the_dense_jacobian(make_grid):
    grid = make_grid()
    nominal = nominal_droop(grid)
    rng = np.random.default_rng(7)
    lanes = 64
    r = {bus: nominal.r[bus] * rng.uniform(1.0, 2.0, lanes) for bus in grid.vsc_buses}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    assert batch.feasible.all()
    _, y = steady_state._droop_lanes(grid, nominal.x, r, lanes)
    v = batch.v * rng.uniform(0.98, 1.02, batch.v.shape)  # an iterate short of the root
    diag = grid.d_cp / v**2 - (grid.lines.degree + y + grid.r_cr_inv)
    rhs = rng.standard_normal((lanes, grid.n))
    want = np.linalg.solve(_dense_jacobians(grid, diag), rhs[:, :, None])[:, :, 0]
    got = steady_state._eliminate(grid.elimination, diag.copy(), rhs.copy())
    rel = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert rel.max() <= 1e-12, rel.max()


def _dense_newton_flags(grid, xr, y, v0, max_iter=100):
    """Per lane, whether Newton with dense Jacobians and LAPACK certifies it: the reference."""
    flags, g_line = [], dense_lines(grid)
    for lane in range(len(xr)):
        g_bus = grid.lines.degree + y[lane] + grid.r_cr_inv
        v, certified = v0.copy(), False
        for _ in range(max_iter):
            b = xr[lane] + g_line @ v - grid.i_cc
            f = b - g_bus * v - grid.d_cp / v
            disc = b * b - 4.0 * grid.d_cp * g_bus
            upper = (grid.d_cp == 0.0) | ((disc >= 0.0) & (2.0 * v * g_bus >= b))
            if not np.all((v > 0.0) & upper):
                break
            if np.max(np.abs(f)) <= steady_state.DEFAULT_TOL:
                certified = True
                break
            v = v - np.linalg.solve(g_line - np.diag(g_bus - grid.d_cp / v**2), f)
        flags.append(certified)
    return flags


@pytest.mark.parametrize("make_grid", [_case_study_config, _meshed_grid])
def test_feasibility_flags_match_dense_newton_across_the_viability_edge(make_grid):
    grid = make_grid()
    nominal = nominal_droop(grid)
    scale = np.geomspace(1.0, 5000.0, 301)  # every virtual resistance times 1 ... 5000
    r = {bus: nominal.r[bus] * scale for bus in grid.vsc_buses}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    xr, y = steady_state._droop_lanes(grid, nominal.x, r, len(scale))
    x = np.array([nominal.x.get(bus, 0.0) for bus in range(grid.n)])
    v0 = steady_state._initial_voltages(grid, x)
    with np.errstate(all="ignore"):
        want = _dense_newton_flags(grid, xr, y, v0)
    assert batch.feasible.tolist() == want
    assert batch.feasible[0] and not batch.feasible[-1]  # the lanes cross the edge
    assert np.isnan(batch.v[~batch.feasible]).all()


def test_a_zero_pivot_flags_its_lane_and_leaves_the_others_alone():
    # bus 0 goes first; at the starting voltages (400, 1200) V its pivot
    # d_cp/v**2 - g_bus is exactly 0 when r_0 = 0.5 ohm, while that lane is
    # still on the physical branch (its discriminant exactly 0) and short of
    # the root.  A stiff bus 1 keeps the lanes beside it viable.
    stiff = 2.0**-10
    grid = validate_grid(GridSpec(
        buses=(Bus(0, LoadSpec(d_cp=640000.0), VscSpec(400.0, 0.5)),
               Bus(1, LoadSpec(), VscSpec(1200.0, stiff))),
        lines=(LineSpec(0, 1, 0.5),),
    ))
    x = {0: 400.0, 1: 1200.0}
    r = {0: np.array([0.3, 0.5, 0.4]), 1: stiff}
    xr, y = steady_state._droop_lanes(grid, x, {0: r[0], 1: np.full(3, stiff)}, 3)
    g_bus = grid.lines.degree + y + grid.r_cr_inv
    v0 = np.tile(steady_state._initial_voltages(grid, np.array([400.0, 1200.0])), (3, 1))
    b, f = steady_state._balance(grid, xr, g_bus, v0)
    assert (grid.d_cp / v0**2 - g_bus)[1, 0] == 0.0
    assert steady_state._on_upper_branch(grid, g_bus, b, v0)[1]
    assert np.max(np.abs(f[1])) > steady_state.DEFAULT_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_steady_state_many(grid, x, r)
    assert batch.feasible.tolist() == [True, False, True]
    assert np.isnan(batch.v[1]).all()
    for lane in (0, 2):
        alone = solve_steady_state_many(grid, x, {0: r[0][lane : lane + 1], 1: stiff})
        assert alone.v[0].tobytes() == batch.v[lane].tobytes()
        assert alone.residual[0] == batch.residual[lane]
    with pytest.raises(NoRealRoot):
        solve_steady_state(grid, DroopState(x=x, r={0: 0.5, 1: stiff}), method="newton")


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder, _meshed_grid])
def test_scalar_newton_is_its_batched_lane(make_grid):
    grid = make_grid()
    nominal = nominal_droop(grid)
    r = _jittered(grid, nominal, 50)
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    assert batch.feasible.all()
    for lane in range(50):
        droop = nominal.with_r({bus: float(values[lane]) for bus, values in r.items()})
        state = solve_steady_state(grid, droop, method="newton")
        assert state.v.tobytes() == batch.v[lane].tobytes(), lane
        assert state.residual == batch.residual[lane], lane


def test_batched_newton_on_a_192_bus_chain():
    # the dense (lanes, n, n) Jacobian solve took ~6.5 s here
    grid = _chain(192)
    nominal = nominal_droop(grid)
    axis = 0.39 + 0.005 * np.arange(51)
    r = {0: np.repeat(axis, 51), 191: np.tile(axis, 51)}  # the 51 x 51 lattice
    start = time.perf_counter()
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    elapsed = time.perf_counter() - start
    assert batch.feasible.all()
    assert batch.residual.max() <= steady_state.DEFAULT_TOL
    assert solve_steady_state(grid, nominal, method="newton").residual <= steady_state.DEFAULT_TOL
    assert elapsed <= 2.0, f"{elapsed:.2f} s for 2,601 lanes"


def _rounding_floor(grid, y, v0):
    """Newton's residual floor for a lane with converter conductances ``y``, from ``v0``."""
    g_bus = grid.lines.degree + y + grid.r_cr_inv
    return steady_state.ROUNDING_TERMS * np.finfo(float).eps * np.max(g_bus * v0)


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder, _meshed_grid])
def test_the_rounding_floor_stays_below_the_tolerance_on_small_grids(make_grid):
    # at r_nom, the largest conductances of the lattice: every lane there stops
    # where the absolute DEFAULT_TOL alone stops it
    grid = make_grid()
    nominal = nominal_droop(grid)
    v0 = steady_state._initial_voltages(grid, nominal.x)
    assert _rounding_floor(grid, nominal.conductances(grid), v0) < steady_state.DEFAULT_TOL


def _exact_residual(grid, xr, y, v):
    """Max current-balance error over the buses, each bus's terms summed exactly (math.fsum)."""
    terms = [
        [xr[bus], -y[bus] * v[bus], -grid.r_cr_inv[bus] * v[bus], -grid.i_cc[bus],
         -grid.d_cp[bus] / v[bus]]
        for bus in range(grid.n)
    ]
    for line in grid.spec.lines:
        g = 1.0 / line.r_line
        for bus, m in ((line.a, line.b), (line.b, line.a)):
            terms[bus] += [g * v[m], -g * v[bus]]
    return max(abs(math.fsum(bus_terms)) for bus_terms in terms)


@pytest.mark.parametrize("n", [1000, 2000])
def test_newton_certifies_long_chains_at_their_rounding_floor(monkeypatch, n):
    # The line conductances, and with them the balance's largest terms, grow
    # with n: Newton's residual bottoms out at 1.5-3.6e-10 A here, so the
    # absolute 1e-10 A alone would never certify a lane.
    monkeypatch.setattr(steady_state, "DEFAULT_MAX_ITER", 8)  # stop a lane that never certifies
    grid = _chain(n)
    nominal = nominal_droop(grid)
    state = solve_steady_state(grid, nominal, method="newton")
    r = {0: np.array([0.39, 0.45, 0.6]), n - 1: np.array([0.39, 0.5, 0.42])}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    assert batch.feasible.all() and batch.sweeps <= 8
    assert state.v.tobytes() == batch.v[0].tobytes()

    xr, y = steady_state._droop_lanes(grid, nominal.x, r, 3)
    v0 = steady_state._initial_voltages(grid, nominal.x)
    for lane in range(3):
        threshold = max(steady_state.DEFAULT_TOL, _rounding_floor(grid, y[lane], v0))
        assert batch.residual[lane] <= threshold
        assert _exact_residual(grid, xr[lane], y[lane], batch.v[lane]) <= threshold, lane


# -- Gauss-Seidel's budget: past it, a solve is its own batch lane -----------

def test_newton_finishes_a_solve_past_the_gauss_seidel_budget(caplog):
    grid = _radial_feeder()  # its Gauss-Seidel needs more than GS_SWEEPS sweeps
    nominal = nominal_droop(grid)
    budget = steady_state.GS_SWEEPS
    with pytest.raises(NonConvergence):
        _numpy_solve(grid, nominal, max_iter=budget)
    with caplog.at_level(logging.DEBUG, logger="powertalk.steady_state"):
        state = solve_steady_state(grid, nominal)
    newton = solve_steady_state(grid, nominal, method="newton")
    assert state.residual == newton.residual <= steady_state.DEFAULT_TOL
    assert state.v.tobytes() == newton.v.tobytes()
    # the first block's rate already shows the budget cannot be met
    gave_up = _gave_up(_numpy_residuals(grid, nominal, budget), budget)
    assert [record.getMessage() for record in caplog.records] == [gave_up]
    assert f"after {BLOCK} sweeps, its rate " in gave_up


@pytest.mark.parametrize("make_grid", [_radial_feeder, lambda: _chain(192)],
                         ids=["_radial_feeder", "_chain-192"])
def test_a_rate_that_cannot_reach_tol_hands_over_after_one_block(make_grid, monkeypatch):
    # both solves swept the budget's 16 blocks before Newton took over
    grid = make_grid()
    nominal = nominal_droop(grid)
    blocks = _count_calls(monkeypatch, "_sweep_block")
    state = solve_steady_state(grid, nominal)
    assert len(blocks) == 1
    newton = solve_steady_state(grid, nominal, method="newton")
    assert state.v.tobytes() == newton.v.tobytes()
    assert state.residual == newton.residual


# Points k of the case study's search lattice, r = r_nom + DEFAULT_STEP * k on
# each converter, among the latest of a scan over every third point to
# converge: at sweep 512, the budget's last, and at sweep 483, where a rate
# over a whole first block (its first sweeps still settling) extrapolated
# short of tol.
LATE_LATTICE_POINTS = [(699, 360), (513, 507), (371, 686)]


def test_sweeps_that_converge_late_in_the_budget_are_kept(monkeypatch):
    grid = _case_study_config()
    nominal = nominal_droop(grid)
    late = [
        nominal.with_r({bus: nominal.r[bus] + DEFAULT_STEP * k for bus, k in zip(grid.vsc_buses, ks)})
        for ks in LATE_LATTICE_POINTS
    ]
    blocks = _count_calls(monkeypatch, "_sweep_block")
    needed = []
    for droop in late + _oracle_droops(grid, nominal, 25):
        v, residual = _numpy_solve(grid, droop)
        blocks.clear()
        state = solve_steady_state(grid, droop)
        assert state.v.tobytes() == v.tobytes(), droop
        assert state.residual == residual, droop
        needed.append(len(blocks))
    # the lattice points converge in the budget's last block, 16 blocks in
    assert needed[:3] == [steady_state.GS_SWEEPS // BLOCK] * 3, needed


@pytest.mark.parametrize("make_grid", [_radial_feeder, _meshed_grid, lambda: _chain(192)],
                         ids=["_radial_feeder", "_meshed_grid", "_chain-192"])
def test_a_solve_past_the_sweeps_is_its_batch_lane(make_grid):
    # Newton once started from the last sweep, and its voltages differed
    # from the lane's in the last bits
    grid = make_grid()
    nominal = nominal_droop(grid)
    state = solve_steady_state(grid, nominal)
    v, residual = _lane(grid, nominal)
    newton = solve_steady_state(grid, nominal, method="newton")
    assert state.v.tobytes() == v.tobytes() == newton.v.tobytes()
    assert state.residual == residual == newton.residual


@pytest.mark.parametrize("r_0", [1e-10, 1e-300])
def test_a_stiff_converter_does_not_loosen_the_other_buses(grid, nominal, r_0):
    # one rounding floor per lane, from bus 0's g_bus v, certified
    # [400, 400, 400] V at r_0 = 1e-300, 2.31 V off, and 3.4e-5 V at 1e-10
    droop = nominal.with_r({0: r_0})
    exact = two_source_closed_form(grid, droop)
    state = solve_steady_state(grid, droop, method="newton")
    v, _ = _lane(grid, droop)
    assert np.max(np.abs(state.v - exact)) <= 1e-9
    assert np.max(np.abs(v - exact)) <= 1e-9


def test_a_solve_sets_no_tolerance_or_budget():
    # the tolerance and the budgets are the module's constants, so a scalar
    # solve is its batch lane with no condition on its arguments
    assert list(inspect.signature(solve_steady_state).parameters) == ["grid", "droop", "method"]


def _scaled_loads(grid, scale):
    """``grid`` with every constant-power load times ``scale``."""
    buses = tuple(
        replace(bus, load=replace(bus.load, d_cp=scale * bus.load.d_cp)) for bus in grid.spec.buses
    )
    return validate_grid(GridSpec(buses=buses, lines=grid.spec.lines))


def test_the_default_method_certifies_a_point_near_voltage_collapse(monkeypatch):
    # Gauss-Seidel slows down as the loads near collapse: at 0.995 of the
    # largest load scale Newton certifies (~38.75) it alone stood 7.4e-9 A
    # short of tol after 10,000 sweeps
    grid = _radial_feeder()

    def certifies(scale):
        loaded = _scaled_loads(grid, scale)
        with monkeypatch.context() as patch:
            patch.setattr(steady_state, "DEFAULT_MAX_ITER", 50)
            try:
                solve_steady_state(loaded, nominal_droop(loaded), method="newton")
            except (NoRealRoot, NonConvergence):
                return False
        return True

    lo, hi = 1.0, 64.0
    assert certifies(lo) and not certifies(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if certifies(mid) else (lo, mid)
    loaded = _scaled_loads(grid, 0.995 * lo)
    nominal = nominal_droop(loaded)
    state = solve_steady_state(loaded, nominal)
    newton = solve_steady_state(loaded, nominal, method="newton")
    assert state.residual <= steady_state.DEFAULT_TOL
    assert np.max(np.abs(state.v - newton.v)) <= 1e-9


def test_optimize_runs_on_a_192_bus_chain(tmp_path, capsys):
    # the nominal solve ran 10,000 Gauss-Seidel sweeps here and exited 3;
    # with Newton finishing it the run took ~1.7 s under tracemalloc, peaking
    # at ~1.2 MB, on 2 vCPUs
    path = tmp_path / "chain.json"
    path.write_text(chain_document(192, r_max=0.39 + 0.25))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main(["optimize", "--grid", str(path), "--pi", "10", "--tx", "0", "--rx", "191"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "r_star_191_ohm=" in out.out
    assert elapsed <= 15.0, f"optimize took {elapsed:.1f} s"
    assert peak <= 16 * 2**20, f"optimize peaked at {peak / 2**20:.1f} MB"


def test_a_6000_bus_chain_validates_without_an_n_by_n_array():
    # a dense (n, n) line matrix alone would take 275 MB here
    tracemalloc.start()
    try:
        grid = _chain(6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"validation peaked at {peak / 2**20:.1f} MB"
    nominal = nominal_droop(grid)
    r = {0: np.array([0.39, 0.45, 0.6]), 5999: np.array([0.39, 0.5, 0.42])}
    assert solve_steady_state_many(grid, dict(nominal.x), r).feasible.all()


def test_newton_block_memory_grows_linearly_with_the_buses(monkeypatch):
    monkeypatch.setattr(steady_state, "DEFAULT_MAX_ITER", 50)
    lanes, peaks = 32, {}
    for n in (96, 192):
        grid = _chain(n)
        nominal = nominal_droop(grid)
        r = {0: np.full(lanes, 0.4), n - 1: np.full(lanes, 0.45)}
        xr, y = steady_state._droop_lanes(grid, nominal.x, r, lanes)
        v0 = steady_state._initial_voltages(grid, xr[0] / np.where(y[0] > 0.0, y[0], 1.0))
        tracemalloc.start()
        try:
            steady_state._newton_block(grid, xr, y, v0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # within the per-lane memory that sizes the blocks
        assert peaks[n] <= 8 * steady_state.LANE_ROWS * (n + len(grid.elimination.values)) * lanes
    assert peaks[192] < 2.5 * peaks[96]  # a dense (lanes, n, n) Jacobian grows 4x


def test_gauss_seidel_builds_no_n_by_n_array(monkeypatch):
    # 32 sweeps of a 4,000-bus chain: a dense (n, n) line matrix alone
    # would take 128 MB here
    monkeypatch.setattr(steady_state, "GS_SWEEPS", steady_state.SWEEP_BLOCK)
    grid = _chain(4000)
    nominal = nominal_droop(grid)
    (xr,), (y,) = steady_state._droop_lanes(grid, nominal.x, nominal.r, 1)
    v0 = steady_state._initial_voltages(grid, nominal.x)
    tracemalloc.start()
    try:
        swept = steady_state._gauss_seidel(grid, xr, y, v0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swept is None  # the sweeps ran out
    assert peak <= 16 * 2**20, f"gauss_seidel peaked at {peak / 2**20:.1f} MB"


# -- every call solves -------------------------------------------------------

def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(steady_state, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(steady_state, name, counted)
    return calls


def test_every_call_runs_the_solver(grid, nominal, monkeypatch):
    solves = _count_calls(monkeypatch, "_gauss_seidel")
    droop = nominal.with_r({0: 0.47})
    first = solve_steady_state(grid, droop)
    again = solve_steady_state(grid, droop)
    assert len(solves) == 2
    for field in ("v", "kappa"):
        assert getattr(again, field).tobytes() == getattr(first, field).tobytes(), field
    assert again.residual == first.residual
    assert again.i == first.i and again.p == first.p
