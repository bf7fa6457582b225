import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import steady_state
from powertalk import (
    Bus,
    DroopState,
    GridSpec,
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


def test_unknown_method_rejected(grid, nominal):
    with pytest.raises(ValueError):
        solve_steady_state(grid, nominal, method="simplex")


def test_residual_below_tolerance(grid, nominal):
    state = solve_steady_state(grid, nominal, tol=1e-11)
    assert state.residual <= 1e-11


def test_power_balance(grid, nominal, state):
    injected = sum(state.p.values())
    load = float(
        np.sum(state.v**2 * grid.r_cr_inv)
        + np.sum(grid.i_cc * state.v)
        + np.sum(grid.d_cp)
    )
    dv = state.v[:, None] - state.v[None, :]
    losses = 0.5 * float(np.sum(grid.g_line * dv**2))
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


def test_non_convergence_when_budget_exhausted(grid, nominal):
    with pytest.raises(NonConvergence):
        solve_steady_state(grid, nominal, max_iter=1)


def test_droop_validation_rejects_wrong_buses(grid):
    bad = DroopState(x={0: 400.0}, r={0: 0.39})
    with pytest.raises(ValueError):
        solve_steady_state(grid, bad)


def test_droop_validation_rejects_nonpositive_resistance(grid, nominal):
    with pytest.raises(ValueError):
        solve_steady_state(grid, nominal.with_r({0: 0.0}))


def test_with_r_and_with_x_return_updated_copies(nominal):
    tweaked = nominal.with_r({0: 0.5}).with_x({1: 401.0})
    assert tweaked.r == {0: 0.5, 1: 0.39}
    assert tweaked.x == {0: 400.0, 1: 401.0}
    assert nominal.r[0] == 0.39 and nominal.x[1] == 400.0  # originals untouched


def test_check_viability_flags_low_reference():
    grid = validate_grid(
        GridSpec(buses=(Bus(0, LoadSpec(d_cp=150_000.0), VscSpec(400.0, 0.39)),), lines=())
    )
    droop = nominal_droop(grid)
    violations = check_viability(grid, droop, np.zeros(1))
    assert [v.bus for v in violations] == [0]
    assert violations[0].bound > violations[0].x
    with pytest.raises(NoRealRoot):
        solve_steady_state(grid, droop)


def test_check_viability_quiet_at_nominal(grid, nominal, state):
    assert check_viability(grid, nominal, state.v) == []


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
    state = solve_steady_state(grid, droop, tol=1e-11)
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
    assert batch.sweeps <= 10  # the stray lane leaves at once, not at max_iter


def test_batch_solve_rejects_wrong_bus_keys(grid, nominal):
    with pytest.raises(ValueError):
        solve_steady_state_many(grid, x=dict(nominal.x), r={0: 0.39})


def _case_study_lattice(grid, nominal):
    """The optimizer's resistance lattice for the case study, flattened."""
    axes = []
    for bus in grid.vsc_buses:
        lo, hi = nominal.r[bus], default_r_max(grid, nominal, bus)
        axes.append(lo + DEFAULT_STEP * np.arange(int(np.floor((hi - lo) / DEFAULT_STEP + 1e-9)) + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return {bus: m.reshape(-1) for bus, m in zip(grid.vsc_buses, mesh)}


def test_batch_lanes_do_not_depend_on_their_block(grid, nominal):
    block = steady_state.BLOCK_BYTES // (8 * grid.n * grid.n)
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
    load, sources = 2, (0, 1)
    r_leg = {bus: droop.r[bus] + 1.0 / grid.g_line[bus, load] for bus in sources}
    g_total = sum(1.0 / r_leg[bus] for bus in sources) + grid.r_cr_inv[load]
    b = sum(droop.x[bus] / r_leg[bus] for bus in sources) - grid.i_cc[load]
    v = np.zeros(3)
    v[load] = (b - np.sqrt(b * b - 4.0 * grid.d_cp[load] * g_total)) / (2.0 * g_total)
    for bus in sources:
        g_line = grid.g_line[bus, load]
        v[bus] = (droop.x[bus] / droop.r[bus] + v[load] * g_line) / (1.0 / droop.r[bus] + g_line)
    return v


def test_branch_certificate_rejects_collapse_root(grid, nominal):
    xr = nominal.source_terms(grid)[None, :]
    g_bus = (grid.g_line.sum(axis=1) + nominal.conductances(grid) + grid.r_cr_inv)[None, :]
    upper = two_source_closed_form(grid, nominal)[None, :]
    lower = _collapse_root(grid, nominal)[None, :]
    assert 0.0 < lower[0, 2] < upper[0, 2]
    for v, on_upper in ((upper, True), (lower, False)):
        b, f = steady_state._balance(grid, xr, g_bus, v)
        assert np.max(np.abs(f)) < 1e-9  # both roots satisfy the current balance
        assert steady_state._on_upper_branch(grid, g_bus, b, v).tolist() == [on_upper]
