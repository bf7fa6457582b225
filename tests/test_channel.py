from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import math
import tracemalloc
import warnings

from powertalk import (
    Bus,
    GridSpec,
    InvalidArgument,
    InvalidGridSpec,
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
    solve_steady_state_many,
    validate_grid,
)
from powertalk import steady_state
from powertalk.steady_state import BLOCK_BYTES
from conftest import dense_lines
from test_steady_state import _case_study_config, _chain, _meshed_grid, _radial_feeder


def finite_difference_gains(grid, droop, h=1e-3):
    """Central-difference dv/dx and dp/dx columns, one nonlinear solve per side."""
    n = grid.n
    dv = np.zeros((n, n))
    dp = np.zeros((n, n))
    for m in grid.vsc_buses:
        up = solve_steady_state(grid, droop.with_x({m: droop.x[m] + h}))
        dn = solve_steady_state(grid, droop.with_x({m: droop.x[m] - h}))
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
    state = solve_steady_state(linear_grid, droop)
    model = linearize(linear_grid, droop, state)
    rng = np.random.default_rng(11)
    for _ in range(20):
        dx = np.zeros(linear_grid.n)
        for bus in linear_grid.vsc_buses:
            dx[bus] = rng.uniform(-5.0, 5.0)
        moved = solve_steady_state(
            linear_grid, droop.with_x({b: droop.x[b] + dx[b] for b in linear_grid.vsc_buses})
        )
        err = np.max(np.abs(moved.v - (state.v + model.H @ dx)))
        assert err < 1e-9, f"linear-load prediction off by {err:.3e} V"


def test_load_bus_columns_and_rows_are_zero(grid, model):
    assert np.all(model.H[:, 2] == 0.0)
    assert np.all(model.Phi[2, :] == 0.0)


def test_gains_are_attenuating(model):
    sub = model.H[np.ix_([0, 1, 2], [0, 1])]
    assert np.all(sub > 0.0) and np.all(sub < 1.0)


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


@pytest.mark.parametrize("load", [LoadSpec(i_cc=100.0, d_cp=1.0), LoadSpec(i_cc=100.0)],
                         ids=["with-constant-power", "current-only"])
def test_single_bus_source_current_must_be_positive(load):
    # the unit sources x / r = 2.56 A, less than the load's 100 A, so no bus
    # voltage is positive; kappa -2.7e-4, and kappa 1 at r_bus * source = -38 V,
    # came back
    with pytest.raises(NoRealRoot, match="too large for a positive bus voltage"):
        single_bus_channel([VscSpec(1.0, 0.39)], load)


def test_single_bus_input_validation():
    with pytest.raises(ValueError):
        single_bus_channel([], LoadSpec())
    with pytest.raises(ValueError):
        single_bus_channel([VscSpec(400.0, -0.5)], LoadSpec())


@pytest.mark.parametrize(
    "load",
    [LoadSpec(d_cp=math.nan), LoadSpec(d_cp=-100.0), LoadSpec(d_cp=math.inf),
     LoadSpec(i_cc=math.inf), LoadSpec(i_cc=math.nan), LoadSpec(i_cc=-1.0)],
    ids=["nan-d-cp", "negative-d-cp", "infinite-d-cp", "infinite-i-cc", "nan-i-cc",
         "negative-i-cc"],
)
def test_single_bus_checks_its_load_as_grid_validation_does(load):
    # NaN gains, or a gain of 1.0 at kappa 1, came back before; a library
    # check raises InvalidArgument, a grid document's InvalidGridSpec
    with pytest.raises(InvalidArgument, match="load (i_cc|d_cp) must be finite and non-negative"):
        single_bus_channel([VscSpec(400.0, 0.39)], load)
    with pytest.raises(InvalidGridSpec, match="load (i_cc|d_cp) must be finite and non-negative"):
        validate_grid(GridSpec(buses=(Bus(0, load, VscSpec(400.0, 0.39)),), lines=()))


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
    """Gains within 1e-12 relative of the oracle, entry by entry."""
    model = linearize(grid, droop, state)
    h, phi = _matrix_linearize(grid, droop, state)
    np.testing.assert_allclose(model.H, h, rtol=1e-12, atol=0.0, err_msg=str(droop))
    np.testing.assert_allclose(model.Phi, phi, rtol=1e-12, atol=0.0, err_msg=str(droop))


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


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder, _meshed_grid])
def test_channel_gains_lanes_equal_per_lane_linearize(make_grid):
    grid = make_grid()
    vsc = list(grid.vsc_buses)
    droops = _random_droops(grid, 6, seed=7)[1:]
    states = [solve_steady_state(grid, droop) for droop in droops]
    x = droops[0].x
    r = {bus: np.array([droop.r[bus] for droop in droops]) for bus in vsc}
    v = np.stack([state.v for state in states])
    x_lanes = {bus: np.array([droop.x[bus] for droop in droops]) for bus in vsc}
    h, phi = channel_gains(grid, x_lanes, r, v, vsc)
    assert h.shape == (len(droops), grid.n, len(vsc))
    assert phi.shape == (len(droops), len(vsc), len(vsc))
    for lane, (droop, state) in enumerate(zip(droops, states)):
        model = linearize(grid, droop, state)
        assert h[lane].tobytes() == model.H[:, vsc].tobytes(), lane
        assert phi[lane].tobytes() == model.Phi[np.ix_(vsc, vsc)].tobytes(), lane

    # one input column, as the optimizer's table asks for: no column depends on the others
    droop = droops[0].with_x(x)
    tx = vsc[0]
    h_tx, phi_tx = channel_gains(grid, x, r, v, [tx])
    for lane, state in enumerate(states):
        model = linearize(grid, droop.with_r({bus: r[bus][lane] for bus in vsc}), state)
        assert h_tx[lane, :, 0].tobytes() == model.H[:, tx].tobytes(), lane
        assert phi_tx[lane, :, 0].tobytes() == model.Phi[vsc, tx].tobytes(), lane


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder, _meshed_grid])
def test_linearize_leaves_the_columns_of_buses_without_a_converter_at_plus_zero(make_grid):
    grid = make_grid()
    droop = nominal_droop(grid)
    model = linearize(grid, droop, solve_steady_state(grid, droop))
    loads = [bus for bus in range(grid.n) if not grid.has_vsc(bus)]
    for matrix in (model.H, model.Phi):
        assert (matrix[:, loads] == 0.0).all() and not np.signbit(matrix[:, loads]).any()


def test_channel_gains_isolate_lanes_without_a_viable_point(grid, nominal, state):
    # lane 1 has no viable point: its NaN voltages give NaN gains on every
    # bus, those without a constant-power load too, and its neighbours keep
    # the bytes they have alone
    v = np.stack([state.v, np.full(grid.n, np.nan), state.v])
    r = {bus: np.full(3, nominal.r[bus]) for bus in grid.vsc_buses}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, phi = channel_gains(grid, nominal.x, r, v, [0])
    assert np.isnan(h[1]).all() and np.isnan(phi[1]).all()
    alone_h, alone_phi = channel_gains(grid, nominal.x, nominal.r, state.v[None], [0])
    assert h[0].tobytes() == h[2].tobytes() == alone_h[0].tobytes()
    assert phi[0].tobytes() == phi[2].tobytes() == alone_phi[0].tobytes()

    # on the feeder, constant-power bus 16 is a leaf, eliminated first; at
    # d_cp/v**2 == g_bus its Jacobian pivot is zero: NaN gains, and no warning
    feeder = _radial_feeder()
    droop = nominal_droop(feeder)
    v = solve_steady_state(feeder, droop).v.copy()
    g_bus = feeder.lines.degree[16] + feeder.r_cr_inv[16]
    v[16] = np.sqrt(feeder.d_cp[16] / g_bus)
    assert feeder.d_cp[16] / v[16] ** 2 == g_bus
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, phi = channel_gains(feeder, droop.x, droop.r, v[None], [0])
    assert np.isnan(h).all() and np.isnan(phi).all()


@pytest.mark.parametrize(
    "case, match",
    [
        # bus n - 1's gains came back for input -1
        (lambda x, r, v: (x, r, v, [-1]), "input bus -1 hosts no converter"),
        (lambda x, r, v: (x, r, v, [0, 99]), "input bus 99 hosts no converter"),
        (lambda x, r, v: (x, r, v, [2]), "input bus 2 hosts no converter"),
        # bus ids that are not integers raised a bare TypeError
        (lambda x, r, v: (x, r, v, [1.0]), "input bus 1.0 hosts no converter"),
        (lambda x, r, v: (x, r, v, [1.5]), "input bus 1.5 hosts no converter"),
        (lambda x, r, v: (x, r, v, ["0"]), "input bus 0 hosts no converter"),
        # Phi's v/r term went to the first column only: [0, 0] gave
        # Phi[0, 1] = -763.28 where column 0 reads 253.27
        (lambda x, r, v: (x, r, v, [0, 1, 0]), "input bus 0 is repeated"),
        (lambda x, r, v: (x, r, v[0], [0]), r"v must have shape \(lanes, 3\), got \(3,\)"),
        (lambda x, r, v: (x, r, v[:, :2], [0]), r"got \(4, 2\)"),
        (lambda x, r, v: (x, r, v[None], [0]), r"got \(1, 4, 3\)"),
        (lambda x, r, v: (x, {0: r[0][:3], 1: r[1]}, v, [0]),
         r"r on bus 0 has shape \(3,\), not \(4,\) as the lanes of v"),
        (lambda x, r, v: ({0: np.full(5, x[0]), 1: x[1]}, r, v, [0]),
         r"x on bus 0 has shape \(5,\)"),
        (lambda x, r, v: (x, {0: r[0][:, None], 1: r[1]}, v, [0]), r"shape \(4, 1\)"),
    ],
    ids=["negative-input", "input-beyond-the-grid", "input-without-converter", "float-input",
         "fractional-input", "string-input", "repeated-input", "one-lane-vector",
         "too-few-buses", "three-dimensional", "r-lanes", "x-lanes", "r-two-dimensional"],
)
def test_channel_gains_inputs_that_do_not_fit_are_an_invalid_argument(
    grid, nominal, state, case, match
):
    r = {bus: np.full(4, nominal.r[bus]) for bus in grid.vsc_buses}
    v = np.repeat(state.v[None], 4, axis=0)
    x, r, v, inputs = case(dict(nominal.x), r, v)
    with pytest.raises(InvalidArgument, match=match):
        channel_gains(grid, x, r, v, inputs)


# -- the gains against a dense solve of the Newton Jacobian -------------------

def _dense_jacobian_gains(grid, x, r, v, inputs):
    """``(h, phi)`` of one lane from ``np.linalg.solve`` of J built from the line specs: the oracle.

    The current balance f_n = x_n/r_n + sum_m g_nm (v_m - v_n) - v_n/r_n
    - v_n/r_cr_n - i_cc_n - d_cp_n/v_n has J = df/dv and df/dx = Y, so
    J dv = -Y dx.
    """
    g_line = dense_lines(grid)
    y = np.zeros(grid.n)
    for bus in grid.vsc_buses:
        y[bus] = 1.0 / r[bus]
    jacobian = g_line - np.diag(g_line.sum(axis=1) + y + grid.r_cr_inv - grid.d_cp / v**2)
    h = np.linalg.solve(jacobian, -np.diag(y)[:, inputs])
    phi = np.array([h[bus] * (x[bus] - 2.0 * v[bus]) / r[bus] for bus in grid.vsc_buses])
    for i, bus in enumerate(grid.vsc_buses):
        if bus in inputs:
            phi[i, inputs.index(bus)] += v[bus] / r[bus]
    return h, phi


@pytest.mark.parametrize(
    "make_grid", [_case_study_config, _radial_feeder, _meshed_grid, lambda: _chain(192)],
    ids=["star", "radial", "meshed", "chain-192"],
)
def test_channel_gains_equal_a_dense_solve_of_the_newton_jacobian(make_grid):
    grid = make_grid()
    nominal = nominal_droop(grid)
    vsc = list(grid.vsc_buses)
    rng = np.random.default_rng(26)
    lanes = 24
    scale = np.where(np.arange(lanes) % 3 == 2, 60.0, 3.0)  # every third lane up to 60x nominal
    r = {bus: nominal.r[bus] * rng.uniform(1.0, scale) for bus in vsc}
    r[vsc[0]][-1] = 3000.0  # past any viable point
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    assert batch.feasible.any() and not batch.feasible.all()
    h, phi = channel_gains(grid, nominal.x, r, batch.v, vsc)
    for lane in range(lanes):
        if not batch.feasible[lane]:
            assert np.isnan(h[lane]).all() and np.isnan(phi[lane]).all(), lane
            continue
        r_lane = {bus: r[bus][lane] for bus in vsc}
        dense_h, dense_phi = _dense_jacobian_gains(grid, nominal.x, r_lane, batch.v[lane], vsc)
        np.testing.assert_allclose(h[lane], dense_h, rtol=1e-11, atol=0.0, err_msg=str(lane))
        np.testing.assert_allclose(phi[lane], dense_phi, rtol=1e-11, atol=0.0, err_msg=str(lane))


@pytest.mark.parametrize(
    "make_grid, method",
    [(_case_study_config, "newton"), (_radial_feeder, "newton"), (_meshed_grid, "newton"),
     (lambda: _chain(192), "newton"), (_case_study_config, "gauss_seidel"),
     (_radial_feeder, "gauss_seidel"), (_meshed_grid, "gauss_seidel")],
    ids=["star", "radial", "meshed", "chain-192", "star-gauss-seidel", "radial-gauss-seidel",
         "meshed-gauss-seidel"],  # Gauss-Seidel needs over 100,000 sweeps on the chain
)
def test_the_kappa_corrected_diagonal_is_the_jacobian_diagonal(make_grid, method):
    # the reported g_bus / -J_nn against the larger root's discriminant form
    # 0.5 (1 + b / sqrt(b**2 - 4 d_cp g_bus)), b the linear coefficient of
    # each bus quadratic, at solved points
    grid = make_grid()
    for droop in _random_droops(grid, 5, seed=26):
        state = solve_steady_state(grid, droop, method=method)
        xr, y = steady_state._droop_lanes(grid, droop.x, droop.r, 1)
        g_bus = grid.lines.degree + y[0] + grid.r_cr_inv
        b = steady_state._balance(grid, xr, g_bus[None], state.v[None])[0][0]
        paper = 0.5 * (1.0 + b / np.sqrt(b * b - 4.0 * grid.d_cp * g_bus))
        paper[grid.d_cp == 0.0] = 1.0
        assert np.all(np.abs(state.kappa - paper) <= 4 * np.spacing(paper)), droop  # 1 measured


def _lattice_state(grid, nominal, lanes):
    """Resistances on a ramp of ``lanes`` points, with the nominal voltages.

    The kernel's arithmetic needs no solved state, only finite inputs.
    """
    r = {
        bus: nominal.r[bus] * np.linspace(1.0, 1.5 + 0.1 * k, lanes)
        for k, bus in enumerate(grid.vsc_buses)
    }
    state = solve_steady_state(grid, nominal)
    return r, np.repeat(state.v[None], lanes, axis=0)


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder])
def test_channel_gains_do_not_depend_on_the_block(make_grid, monkeypatch):
    grid = make_grid()
    nominal = nominal_droop(grid)
    r, v = _lattice_state(grid, nominal, 23)
    x = {bus: np.full(23, nominal.x[bus]) for bus in grid.vsc_buses}
    inputs = list(grid.vsc_buses)
    h, phi = channel_gains(grid, x, r, v, inputs)
    lane_bytes = 8 * steady_state.LANE_ROWS * (grid.n + len(grid.elimination.values))
    monkeypatch.setattr(steady_state, "BLOCK_BYTES", 3 * len(inputs) * lane_bytes)  # 3 lanes
    assert steady_state._block_lanes(grid) // len(inputs) == 3
    h_3, phi_3 = channel_gains(grid, x, r, v, inputs)
    assert h_3.tobytes() == h.tobytes()
    assert phi_3.tobytes() == phi.tobytes()
    h_1, phi_1 = channel_gains(grid, nominal.x, r, v, inputs)  # scalar x, same values
    assert h_1.tobytes() == h.tobytes() and phi_1.tobytes() == phi.tobytes()


def test_channel_gains_memory_is_bounded_beyond_the_outputs(grid, nominal):
    lanes = 200_000
    r, v = _lattice_state(grid, nominal, lanes)
    tracemalloc.start()
    try:
        h, phi = channel_gains(grid, nominal.x, r, v, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-lattice (lanes, n, n) system alone would take 14.4 MB here
    assert peak < h.nbytes + phi.nbytes + 8 * BLOCK_BYTES
