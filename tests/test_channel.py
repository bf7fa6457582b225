from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracemalloc

from powertalk import (
    Bus,
    GridSpec,
    LineSpec,
    LoadSpec,
    NonConvergence,
    NoRealRoot,
    VscSpec,
    channel_gains,
    linearize,
    network_matrices,
    nominal_droop,
    single_bus_channel,
    solve_steady_state,
    validate_grid,
)
from powertalk import steady_state
from powertalk.steady_state import BLOCK_BYTES
from test_steady_state import _case_study_config, _meshed_grid, _radial_feeder


def finite_difference_gains(grid, droop, h=1e-3):
    """Central-difference dv/dx and dp/dx columns, one nonlinear solve per side."""
    n = grid.n
    dv = np.zeros((n, n))
    dp = np.zeros((n, n))
    for m in grid.vsc_buses:
        up = solve_steady_state(grid, droop.with_x({m: droop.x[m] + h}), tol=1e-12)
        dn = solve_steady_state(grid, droop.with_x({m: droop.x[m] - h}), tol=1e-12)
        dv[:, m] = (up.v - dn.v) / (2.0 * h)
        for bus in grid.vsc_buses:
            dp[bus, m] = (up.p[bus] - dn.p[bus]) / (2.0 * h)
    return dv, dp


def test_voltage_gains_match_finite_differences(grid, nominal, model):
    dv, _ = finite_difference_gains(grid, nominal)
    err = np.max(np.abs(model.H - dv)) / np.max(np.abs(dv))
    assert err < 1e-4, f"voltage gains off by rel {err:.3e}"


def test_power_gains_match_finite_differences(grid, nominal, model):
    _, dp = finite_difference_gains(grid, nominal)
    err = np.max(np.abs(model.Phi - dp)) / np.max(np.abs(dp))
    assert err < 1e-4, f"power gains off by rel {err:.3e}"


def test_model_is_exact_for_linear_loads(linear_grid):
    droop = nominal_droop(linear_grid)
    state = solve_steady_state(linear_grid, droop, tol=1e-12)
    model = linearize(linear_grid, droop, state)
    rng = np.random.default_rng(11)
    for _ in range(20):
        dx = np.zeros(linear_grid.n)
        for bus in linear_grid.vsc_buses:
            dx[bus] = rng.uniform(-5.0, 5.0)
        moved = solve_steady_state(
            linear_grid, droop.with_x({b: droop.x[b] + dx[b] for b in linear_grid.vsc_buses}),
            tol=1e-12,
        )
        err = np.max(np.abs(moved.v - (state.v + model.H @ dx)))
        assert err < 1e-9, f"linear-load prediction off by {err:.3e} V"


def test_load_bus_columns_and_rows_are_zero(grid, model):
    assert np.all(model.H[:, 2] == 0.0)
    assert np.all(model.Phi[2, :] == 0.0)


def test_gains_are_attenuating(model):
    sub = model.H[np.ix_([0, 1, 2], [0, 1])]
    assert np.all(sub > 0.0) and np.all(sub < 1.0)


def test_kappa_carried_from_operating_point(model, state):
    assert np.array_equal(model.K, state.kappa)


def test_symmetric_star_gives_symmetric_gains():
    grid = validate_grid(
        GridSpec(
            buses=(
                Bus(0, LoadSpec(), VscSpec(400.0, 0.39)),
                Bus(1, LoadSpec(), VscSpec(400.0, 0.39)),
                Bus(2, LoadSpec(r_cr=50.0, d_cp=2500.0)),
            ),
            lines=(LineSpec(0, 2, 0.5), LineSpec(1, 2, 0.5)),
        )
    )
    droop = nominal_droop(grid)
    model = linearize(grid, droop, solve_steady_state(grid, droop))
    assert model.H[0, 0] == pytest.approx(model.H[1, 1])
    assert model.H[0, 1] == pytest.approx(model.H[1, 0])
    assert model.Phi[0, 0] == pytest.approx(model.Phi[1, 1])


unit_resistances = st.lists(
    st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=6
)


@settings(max_examples=50)
@given(r=unit_resistances, r_cr=st.floats(min_value=5.0, max_value=200.0))
def test_single_bus_gains_sum_below_one(r, r_cr):
    units = [VscSpec(x_nom=400.0, r_nom=val) for val in r]
    h, kappa = single_bus_channel(units, LoadSpec(r_cr=r_cr))
    assert kappa == 1.0
    assert np.all(h > 0.0) and np.all(h < 1.0)
    assert h.sum() < 1.0, f"gains sum to {h.sum()}"


def test_single_bus_gains_sum_to_one_without_any_load():
    h, _ = single_bus_channel(
        [VscSpec(400.0, 0.4), VscSpec(400.0, 0.8)], LoadSpec()
    )
    assert h.sum() == pytest.approx(1.0)


def test_single_bus_kappa_above_one_with_constant_power_load():
    _, kappa = single_bus_channel([VscSpec(400.0, 0.39)], LoadSpec(d_cp=2500.0))
    assert kappa > 1.0


def test_single_bus_detects_excessive_constant_power_load():
    # boundary is x**2 / (4 r) for one lossless unit
    with pytest.raises(NoRealRoot):
        single_bus_channel([VscSpec(400.0, 0.39)], LoadSpec(d_cp=1.01 * 400.0**2 / (4 * 0.39)))


def test_single_bus_input_validation():
    with pytest.raises(ValueError):
        single_bus_channel([], LoadSpec())
    with pytest.raises(ValueError):
        single_bus_channel([VscSpec(400.0, -0.5)], LoadSpec())


# -- the batched gain kernel against the matrix form --------------------------

def _matrix_linearize(grid, droop, state):
    """``(H, Phi)`` as full n x n solves, the form ``channel_gains`` replaced: the oracle."""
    psi, _ = network_matrices(grid, droop)
    y = droop.conductances(grid)
    m = psi.copy()
    diag = np.diag_indices(grid.n)
    m[diag] = (psi[diag] + y + grid.r_cr_inv) / state.kappa
    h = np.linalg.solve(m, np.diag(y))
    phi = np.zeros_like(h)
    v = state.v
    for bus in grid.vsc_buses:
        x, r = droop.x[bus], droop.r[bus]
        phi[bus, :] = h[bus, :] * (x - 2.0 * v[bus]) / r
        phi[bus, bus] += v[bus] / r
    return h, phi


def _random_droops(grid, count, seed):
    nominal = nominal_droop(grid)
    rng = np.random.default_rng(seed)
    return [nominal] + [
        nominal.with_r({bus: nominal.r[bus] * rng.uniform(1.0, 2.0) for bus in grid.vsc_buses})
        .with_x({bus: nominal.x[bus] + rng.uniform(-2.0, 2.0) for bus in grid.vsc_buses})
        for _ in range(count - 1)
    ]


def _assert_matches_the_matrix_form(grid, droop, state):
    """Gains within 1e-12 relative of the oracle, entry by entry; kappa carried byte for byte."""
    model = linearize(grid, droop, state)
    h, phi = _matrix_linearize(grid, droop, state)
    np.testing.assert_allclose(model.H, h, rtol=1e-12, atol=0.0, err_msg=str(droop))
    np.testing.assert_allclose(model.Phi, phi, rtol=1e-12, atol=0.0, err_msg=str(droop))
    assert model.K.tobytes() == state.kappa.tobytes()


@pytest.mark.parametrize(
    "make_grid, count", [(_case_study_config, 25), (_radial_feeder, 5), (_meshed_grid, 5)]
)
def test_linearize_matches_the_matrix_form(make_grid, count):
    grid = make_grid()
    for droop in _random_droops(grid, count, seed=20160102):
        _assert_matches_the_matrix_form(grid, droop, solve_steady_state(grid, droop))


# Scale of every constant-power load at which the nominal operating point
# collapses, to six digits: the largest scale where Newton finds a viable point.
COLLAPSE_SCALE = {_case_study_config: 42.6785, _radial_feeder: 38.7548, _meshed_grid: 19.9695}


def _scale_constant_power(grid, scale):
    buses = tuple(
        replace(bus, load=replace(bus.load, d_cp=scale * bus.load.d_cp)) for bus in grid.spec.buses
    )
    return validate_grid(replace(grid.spec, buses=buses))


@pytest.mark.parametrize("make_grid", list(COLLAPSE_SCALE))
def test_linearize_matches_the_matrix_form_near_collapse(make_grid):
    grid = make_grid()
    beyond = _scale_constant_power(grid, 1.0001 * COLLAPSE_SCALE[make_grid])
    with pytest.raises((NoRealRoot, NonConvergence)):
        solve_steady_state(beyond, nominal_droop(beyond), method="newton")
    grid = _scale_constant_power(grid, 0.9999 * COLLAPSE_SCALE[make_grid])
    droop = nominal_droop(grid)
    _assert_matches_the_matrix_form(grid, droop, solve_steady_state(grid, droop, method="newton"))


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder])
def test_channel_gains_lanes_equal_per_lane_linearize(make_grid):
    grid = make_grid()
    vsc = list(grid.vsc_buses)
    droops = _random_droops(grid, 6, seed=7)[1:]
    states = [solve_steady_state(grid, droop) for droop in droops]
    x = droops[0].x
    r = {bus: np.array([droop.r[bus] for droop in droops]) for bus in vsc}
    v = np.stack([state.v for state in states])
    kappa = np.stack([state.kappa for state in states])
    x_lanes = {bus: np.array([droop.x[bus] for droop in droops]) for bus in vsc}
    h, phi = channel_gains(grid, x_lanes, r, v, kappa, vsc)
    assert h.shape == (len(droops), grid.n, len(vsc))
    assert phi.shape == (len(droops), len(vsc), len(vsc))
    for lane, (droop, state) in enumerate(zip(droops, states)):
        model = linearize(grid, droop, state)
        assert h[lane].tobytes() == model.H[:, vsc].tobytes(), lane
        assert phi[lane].tobytes() == model.Phi[np.ix_(vsc, vsc)].tobytes(), lane

    # one input column, as the optimizer's table asks for: each input is its own row
    droop = droops[0].with_x(x)
    tx = vsc[0]
    h_tx, phi_tx = channel_gains(grid, x, r, v, kappa, [tx])
    for lane, state in enumerate(states):
        model = linearize(grid, droop.with_r({bus: r[bus][lane] for bus in vsc}), state)
        assert h_tx[lane, :, 0].tobytes() == model.H[:, tx].tobytes(), lane
        assert phi_tx[lane, :, 0].tobytes() == model.Phi[vsc, tx].tobytes(), lane


def test_channel_gains_isolate_lanes_without_a_viable_point(grid, nominal, state):
    # lane 3: kappa infinite at the one constant-power bus only, which
    # elimination alone would turn into finite gains
    (cp,) = np.flatnonzero(grid.d_cp)
    one_bus = state.kappa.copy()
    one_bus[cp] = np.inf
    v = np.stack([state.v, np.full(grid.n, np.nan), state.v, state.v])
    kappa = np.stack([state.kappa, np.full(grid.n, np.nan), state.kappa, one_bus])
    r = {bus: np.full(4, nominal.r[bus]) for bus in grid.vsc_buses}
    h, phi = channel_gains(grid, nominal.x, r, v, kappa, [0])
    for lane in (1, 3):
        assert np.isnan(h[lane]).all() and np.isnan(phi[lane]).all(), lane
    alone, _ = channel_gains(grid, nominal.x, nominal.r, state.v[None], state.kappa[None], [0])
    assert h[0].tobytes() == h[2].tobytes() == alone[0].tobytes()

    # on the feeder, constant-power bus 16 is a leaf, so its zero pivot is
    # divided by first: still NaN gains, and no numpy warning
    feeder = _radial_feeder()
    droop = nominal_droop(feeder)
    solved = solve_steady_state(feeder, droop)
    kappa = solved.kappa.copy()
    kappa[16] = np.inf
    h, phi = channel_gains(feeder, droop.x, droop.r, solved.v[None], kappa[None], [0])
    assert np.isnan(h).all() and np.isnan(phi).all()


def _lattice_state(grid, nominal, lanes):
    """Resistances on a ramp of ``lanes`` points, with the nominal voltages and corrections.

    The kernel's arithmetic needs no solved state, only finite inputs.
    """
    r = {
        bus: nominal.r[bus] * np.linspace(1.0, 1.5 + 0.1 * k, lanes)
        for k, bus in enumerate(grid.vsc_buses)
    }
    state = solve_steady_state(grid, nominal)
    return r, np.repeat(state.v[None], lanes, axis=0), np.repeat(state.kappa[None], lanes, axis=0)


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder])
def test_channel_gains_do_not_depend_on_the_block(make_grid, monkeypatch):
    grid = make_grid()
    nominal = nominal_droop(grid)
    r, v, kappa = _lattice_state(grid, nominal, 23)
    x = {bus: np.full(23, nominal.x[bus]) for bus in grid.vsc_buses}
    inputs = list(grid.vsc_buses)
    h, phi = channel_gains(grid, x, r, v, kappa, inputs)
    lane_bytes = 8 * steady_state.LANE_ROWS * (grid.n + len(grid.elimination.values))
    monkeypatch.setattr(steady_state, "BLOCK_BYTES", 3 * len(inputs) * lane_bytes)  # 3 lanes
    assert steady_state._block_lanes(grid) // len(inputs) == 3
    h_3, phi_3 = channel_gains(grid, x, r, v, kappa, inputs)
    assert h_3.tobytes() == h.tobytes()
    assert phi_3.tobytes() == phi.tobytes()
    h_1, phi_1 = channel_gains(grid, nominal.x, r, v, kappa, inputs)  # scalar x, same values
    assert h_1.tobytes() == h.tobytes() and phi_1.tobytes() == phi.tobytes()


def test_channel_gains_memory_is_bounded_beyond_the_outputs(grid, nominal):
    lanes = 200_000
    r, v, kappa = _lattice_state(grid, nominal, lanes)
    tracemalloc.start()
    try:
        h, phi = channel_gains(grid, nominal.x, r, v, kappa, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-lattice (lanes, n, n) system alone would take 14.4 MB here
    assert peak < h.nbytes + phi.nbytes + 8 * BLOCK_BYTES
