import json
import logging
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import (
    Bus,
    EmptySearchSpace,
    GridSpec,
    InvalidArgument,
    InvalidBudget,
    LineSpec,
    LoadSpec,
    NoRealRoot,
    NonpositiveResistance,
    VscSpec,
    capacity,
    capacity_sweep,
    case_study,
    case_study_document,
    channel,
    channel_gains,
    check_viability,
    cli,
    concavity_probe,
    default_r_max,
    linearize,
    maximize_snr_grid,
    nominal_droop,
    one_way_snr,
    optimizer,
    solve_steady_state,
    solve_steady_state_many,
    steady_state,
    validate_grid,
    vr_power_investment,
    vsc_outputs,
)
from powertalk.optimizer import DEFAULT_STEP
from conftest import dense_lines
from test_channel import _random_droops
from test_steady_state import _case_study_config, _chain, _jittered, _meshed_grid, _radial_feeder

SIGMA_Z = 0.01
BOX = {0: 0.6, 1: 0.7}


def _boxed(r_max):
    """The case study with the nameplate search limits ``r_max`` per converter."""
    spec = case_study().spec
    buses = tuple(
        replace(bus, vsc=replace(bus.vsc, r_max=r_max[bus.id])) if bus.id in r_max else bus
        for bus in spec.buses
    )
    return validate_grid(replace(spec, buses=buses))


def _blocks_of(lanes, grid, monkeypatch):
    """Make the Newton blocks, and so the whole-lattice scan's blocks, ``lanes`` lanes each."""
    lane_bytes = 8 * steady_state.LANE_ROWS * (grid.n + len(grid.elimination.values))
    monkeypatch.setattr(steady_state, "BLOCK_BYTES", lanes * lane_bytes)
    assert steady_state._block_lanes(grid) == lanes


@pytest.fixture(scope="module")
def boxed():
    """The case study searched inside ``BOX``, set on the converters' nameplates."""
    return _boxed(BOX)


def test_capacity_reference_points():
    assert capacity(0.0) == 0.0
    assert capacity(3.0) == pytest.approx(1.0)
    assert capacity(15.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        capacity(-0.5)


def test_capacity_of_nan_is_an_invalid_argument():
    with pytest.raises(InvalidArgument, match="snr must be nonnegative, got nan"):
        capacity(float("nan"))  # returned NaN


def test_snr_scales_inversely_with_noise_power(grid, nominal, budgets):
    snr_1, g_1 = one_way_snr(grid, nominal, nominal, budgets, SIGMA_Z, tx=0, rx=1)
    snr_2, g_2 = one_way_snr(grid, nominal, nominal, budgets, SIGMA_Z / 2, tx=0, rx=1)
    assert snr_2 == pytest.approx(4.0 * snr_1, rel=1e-12)
    assert g_1 == g_2  # gain terms do not involve the noise


def test_snr_at_nominal_reproduces_frozen_value(grid, nominal, budgets):
    snr, g = one_way_snr(grid, nominal, nominal, budgets, SIGMA_Z, tx=0, rx=1)
    assert snr == pytest.approx(0.908361193, rel=1e-8)
    assert min(g.values()) / SIGMA_Z**2 == pytest.approx(snr)


def test_snr_composes_model_pieces(grid, nominal, budgets):
    droop = nominal.with_r({0: 0.44, 1: 0.48})
    snr, g = one_way_snr(grid, droop, nominal, budgets, SIGMA_Z, tx=0, rx=1)
    state = solve_steady_state(grid, droop)
    shifted = linearize(grid, droop, state)
    dp = vr_power_investment(grid, nominal, droop)
    for bus in (0, 1):
        expected = (shifted.H[1, 0] / shifted.Phi[bus, 0]) ** 2 * (
            budgets[bus] ** 2 - dp[bus] ** 2
        )
        assert g[bus] == pytest.approx(expected, rel=1e-12)
    assert snr == pytest.approx(min(g.values()) / SIGMA_Z**2)


def test_snr_clamps_to_zero_when_investment_overruns(grid, nominal):
    droop = nominal.with_r({0: 0.6, 1: 0.39})  # hundreds of watts of investment
    snr, _ = one_way_snr(grid, droop, nominal, {0: 1.0, 1: 1.0}, SIGMA_Z, 0, 1)
    assert snr == 0.0


def test_link_validation(grid, nominal, budgets):
    with pytest.raises(ValueError):
        one_way_snr(grid, nominal, nominal, budgets, SIGMA_Z, tx=0, rx=0)
    with pytest.raises(ValueError):
        one_way_snr(grid, nominal, nominal, budgets, SIGMA_Z, tx=0, rx=2)
    with pytest.raises(ValueError):
        one_way_snr(grid, nominal, nominal, {0: 10.0, 2: 10.0}, SIGMA_Z, 0, 1)
    with pytest.raises(ValueError):
        one_way_snr(grid, nominal, nominal, {0: -1.0, 1: 10.0}, SIGMA_Z, 0, 1)


@pytest.mark.parametrize(
    "tx, rx, budgets",
    [(0, 0, {0: 10.0, 1: 10.0}), (2, 1, {0: 10.0, 1: 10.0}), (0, 1, {0: -10.0, 1: 10.0})],
    ids=["self-link", "load-bus-transmitter", "negative-budget"],
)
def test_search_validates_its_link_and_budgets(boxed, nominal, tx, rx, budgets):
    with pytest.raises(ValueError):
        maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, tx, rx)


def test_grid_search_matches_brute_force_loop(grid, nominal, budgets):
    boxed = _boxed({0: 0.41, 1: 0.41})
    result = maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, tx=0, rx=1, step=0.005)
    assert result.evaluations == 25
    best = (-np.inf, None)
    for r_a in np.arange(0.39, 0.4101, 0.005):
        for r_b in np.arange(0.39, 0.4101, 0.005):
            snr, _ = one_way_snr(
                grid, nominal.with_r({0: r_a, 1: r_b}), nominal, budgets, SIGMA_Z, 0, 1
            )
            if snr > best[0] + 1e-12:
                best = (snr, (r_a, r_b))
    assert result.snr == pytest.approx(best[0], rel=1e-6)
    assert result.r_star[0] == pytest.approx(best[1][0])
    assert result.r_star[1] == pytest.approx(best[1][1])


def test_zero_budget_ties_break_to_nominal(nominal):
    boxed = _boxed({0: 0.42, 1: 0.42})
    result = maximize_snr_grid(boxed, nominal, {0: 0.0, 1: 0.0}, SIGMA_Z, 0, 1)
    assert result.snr == 0.0
    assert result.r_star == {0: 0.39, 1: 0.39}


def test_restricted_search_finds_frozen_optimum(boxed, nominal, budgets):
    result = maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, 0, 1)
    assert result.r_star[0] == pytest.approx(0.44)
    assert result.r_star[1] == pytest.approx(0.48)
    assert result.snr == pytest.approx(1.19904669, rel=1e-8)
    assert result.capacity == capacity(result.snr)


def test_empty_search_space_raised(boxed, nominal, budgets):
    above_the_box = nominal.with_r({0: 0.65})  # the nameplate r_max is 0.6
    with pytest.raises(EmptySearchSpace):
        maximize_snr_grid(boxed, above_the_box, budgets, SIGMA_Z, 0, 1)


def test_step_must_be_positive(grid, nominal, budgets):
    with pytest.raises(ValueError):
        maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 1, step=0.0)


def test_sweep_rows_dominate_and_grow(boxed, nominal):
    rows = capacity_sweep(boxed, nominal, [2.0, 10.0], SIGMA_Z, 0, 1)
    assert [row.pi for row in rows] == [2.0, 10.0]
    for row in rows:
        assert row.capacity_opt >= row.capacity_nominal - 1e-12
    assert rows[1].capacity_nominal > rows[0].capacity_nominal
    assert rows[1].capacity_opt > rows[0].capacity_opt
    assert rows[1].r_star == {0: pytest.approx(0.44), 1: pytest.approx(0.48)}


def test_sweep_input_validation(boxed, nominal):
    with pytest.raises(ValueError):
        capacity_sweep(boxed, nominal, [], SIGMA_Z, 0, 1)
    with pytest.raises(ValueError):
        capacity_sweep(_boxed({0: 0.4, 1: 0.4}), nominal, [10.0, 5.0], SIGMA_Z, 0, 1)
    with pytest.raises(ValueError):
        capacity_sweep(boxed, nominal, [-10.0, 5.0], SIGMA_Z, 0, 1)
    with pytest.raises(ValueError):
        capacity_sweep(boxed, nominal, [5.0], SIGMA_Z, 0, 0)


def test_sweep_and_optimize_solve_the_nominal_point_once(grid, nominal, tmp_path, monkeypatch):
    solves = []
    gauss_seidel = steady_state._gauss_seidel

    def counted(*args):
        solves.append(args)
        return gauss_seidel(*args)

    def scalar_path(*args, **kwargs):
        raise AssertionError("a point the search solved was scored again on the scalar path")

    monkeypatch.setattr(steady_state, "_gauss_seidel", counted)
    for module in (optimizer, cli):
        for name in ("one_way_snr", "linearize", "vr_power_investment"):
            monkeypatch.setattr(module, name, scalar_path)
    capacity_sweep(grid, nominal, [2.0, 5.0, 10.0, 15.0, 20.0], SIGMA_Z, 0, 1)
    assert len(solves) == 1
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(case_study_document()))
    assert cli.main(["optimize", "--grid", str(path), "--pi", "10"]) == 0
    assert len(solves) == 2


@pytest.fixture()
def no_scalar_solve(monkeypatch):
    def scalar_path(*args, **kwargs):
        raise AssertionError("default_r_max took the scalar solver")

    monkeypatch.setattr(optimizer, "solve_steady_state", scalar_path)


def test_default_r_max_caps_on_always_viable_grids(linear_grid, no_scalar_solve):
    nominal = nominal_droop(linear_grid)
    assert default_r_max(linear_grid, nominal, 0) == pytest.approx(10 * 0.39)


@pytest.mark.parametrize("bus", [2, 99])
def test_default_r_max_rejects_a_bus_without_a_converter(grid, nominal, bus):
    with pytest.raises(InvalidArgument, match=f"bus {bus} hosts no converter"):
        default_r_max(grid, nominal, bus)


def test_default_r_max_bisects_the_viability_boundary(no_scalar_solve):
    # lone converter with a heavy constant-power load: real roots exist only
    # while r <= x**2 / (4 d), here 0.8 ohm
    grid = validate_grid(
        GridSpec(buses=(Bus(0, LoadSpec(d_cp=50_000.0), VscSpec(400.0, 0.39)),), lines=())
    )
    nominal = nominal_droop(grid)
    r_limit = default_r_max(grid, nominal, 0)
    assert 0.6 < r_limit < 0.8
    assert r_limit == pytest.approx(0.9 * 0.8, rel=1e-9)
    droop = nominal.with_r({0: r_limit})
    state = solve_steady_state(grid, droop)
    assert check_viability(grid, droop, state.v) == []


def test_concavity_probe_report_structure(grid, nominal, budgets):
    report = concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    assert 1 <= len(report.points) <= optimizer.PROBE_SAMPLES
    for point in report.points:
        assert point[0] >= 0.39 and point[1] >= 0.39
    assert np.isfinite(report.max_rel_eig)
    assert sorted(report.grad_nominal) == [0, 1]
    assert all(len(parts) == 2 for parts in report.grad_nominal.values())
    # at nominal the investment vanishes, so every partial is nonnegative:
    # the optimum sits above nominal in both coordinates
    assert report.nominal_at_box_corner
    assert report.ok == (not report.violations and report.nominal_at_box_corner)


@pytest.mark.parametrize("pi", [0.0, 1e-9])
def test_a_concavity_probe_that_samples_no_point_is_not_ok(grid, nominal, pi):
    # it returned points=(), max_rel_eig=-inf and ok=True: a verdict with no evidence
    report = concavity_probe(grid, nominal, {0: pi, 1: pi}, tx=0, rx=1)
    assert report.points == () and report.max_rel_eig == -math.inf
    assert not report.ok


def test_concavity_probe_validates_inputs(grid, nominal, budgets):
    with pytest.raises(ValueError):
        concavity_probe(grid, nominal, budgets, tx=0, rx=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid, nominal: one_way_snr(grid, nominal, nominal, {}, SIGMA_Z, 0, 1),
        lambda grid, nominal: concavity_probe(grid, nominal, {}, 0, 1),
    ],
    ids=["one-way-snr", "concavity-probe"],
)
def test_empty_budgets_are_an_invalid_budget(grid, nominal, call):
    # both took a reduction over no converters: a bare ValueError from numpy or max()
    with pytest.raises(InvalidBudget, match="at least one budget is required"):
        call(grid, nominal)


def test_a_nan_nominal_resistance_is_a_nonpositive_resistance(boxed, nominal, budgets):
    # was InvalidArgument("step 0.005 is too fine to count the lattice on bus 0")
    with pytest.raises(NonpositiveResistance, match="virtual resistance on bus 0 must be positive"):
        maximize_snr_grid(boxed, nominal.with_r({0: math.nan}), budgets, SIGMA_Z, 0, 1)


def test_a_nominal_entry_on_a_load_bus_is_an_invalid_argument(boxed, nominal, budgets):
    # was InvalidGridSpec("bus 2 hosts no converter"), from the nameplate lookup
    match = r"^droop entries must exist exactly for converter buses \[0, 1\]$"
    with pytest.raises(InvalidArgument, match=match):
        maximize_snr_grid(boxed, nominal.with_r({2: 0.39}), budgets, SIGMA_Z, 0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid, nominal: maximize_snr_grid(grid, nominal, {0: 10.0, 1: 10.0}, SIGMA_Z, 0, 1),
        lambda grid, nominal: capacity_sweep(grid, nominal, [2.0, 10.0], SIGMA_Z, 0, 1),
        lambda grid, nominal: one_way_snr(
            grid, nominal_droop(grid), nominal, {0: 10.0, 1: 10.0}, SIGMA_Z, 0, 1
        ),
        lambda grid, nominal: concavity_probe(grid, nominal, {0: 10.0, 1: 10.0}, 0, 1),
        lambda grid, nominal: default_r_max(grid, nominal, 1),
    ],
    ids=["optimize", "sweep", "one-way-snr", "probe", "default-r-max"],
)
@pytest.mark.parametrize(
    "bad", [{0: math.nan}, {2: 0.39}], ids=["nan-resistance", "load-bus-entry"]
)
def test_a_bad_nominal_is_rejected_before_any_solve(grid, nominal, call, bad, monkeypatch):
    # each entry used to solve before the bad nominal was found: on the
    # default box, default_r_max's first batched solve raised from its own check
    solves = []
    for name in ("solve_steady_state", "solve_steady_state_many"):
        def counted(*args, solve=getattr(optimizer, name), **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    with pytest.raises(InvalidArgument):
        call(grid, nominal.with_r(bad))
    assert solves == []


# -- the gain derivatives: dv/dr, dH/dr, dPhi/dr and dp/dr = -i Phi ---------------

def _star_powers(mp, grid, droop, r, x=None):
    """Bus voltages and converter powers of the two-source star in closed form.

    In mpmath at its precision; ``r`` and ``x`` (default the droop's) map each
    converter bus to its resistance and reference voltage.
    """
    g_line = dense_lines(grid)
    load = next(bus for bus in range(grid.n) if not grid.has_vsc(bus))
    x = x or {bus: mp.mpf(droop.x[bus]) for bus in grid.vsc_buses}
    g = {bus: mp.mpf(g_line[bus, load]) for bus in grid.vsc_buses}
    r_leg = {bus: r[bus] + 1 / g[bus] for bus in grid.vsc_buses}
    g_total = sum(1 / r_leg[bus] for bus in grid.vsc_buses) + mp.mpf(grid.r_cr_inv[load])
    b = sum(x[bus] / r_leg[bus] for bus in grid.vsc_buses) - mp.mpf(grid.i_cc[load])
    v = {load: (b + mp.sqrt(b * b - 4 * mp.mpf(grid.d_cp[load]) * g_total)) / (2 * g_total)}
    powers = {}
    for bus in grid.vsc_buses:
        v[bus] = (x[bus] / r[bus] + v[load] * g[bus]) / (1 / r[bus] + g[bus])
        powers[bus] = v[bus] * (x[bus] - v[bus]) / r[bus]
    return v, powers


@pytest.mark.parametrize("method", ["gauss_seidel", "newton"])
def test_the_investment_jacobian_is_the_star_closed_form_derivative(method):
    mp = pytest.importorskip("mpmath")
    grid = _case_study_config()
    vsc = list(grid.vsc_buses)
    for droop in _random_droops(grid, 6, seed=27):  # nominal, then off-nominal r and x
        state = solve_steady_state(grid, droop, method=method)
        _, phi, _, _ = channel._gain_derivatives(grid, droop, state, vsc[0])
        jac = -phi * [state.i[bus] for bus in vsc]
        with mp.workdps(50):
            r = {bus: mp.mpf(droop.r[bus]) for bus in vsc}
            exact = np.array([
                [float(mp.diff(lambda t: _star_powers(mp, grid, droop, {**r, m: t})[1][n], r[m]))
                 for m in vsc]
                for n in vsc
            ])
        # the solver's stopping residual, not the identity: 1.2e-11 measured
        np.testing.assert_allclose(jac, exact, rtol=1e-10, atol=0.0, err_msg=str(droop))


@pytest.mark.parametrize("method", ["gauss_seidel", "newton"])
def test_the_gain_derivatives_are_the_star_closed_form_derivatives(method):
    # dH[n, t]/dr_m and dPhi[n, t]/dr_m are the mixed partials d2v_n/dx_t dr_m
    # and d2p_n/dx_t dr_m of the closed form
    mp = pytest.importorskip("mpmath")
    grid = _case_study_config()
    vsc = list(grid.vsc_buses)
    for droop in _random_droops(grid, 4, seed=27):  # nominal, then off-nominal r and x
        state = solve_steady_state(grid, droop, method=method)
        for t, tx in enumerate(vsc):
            h, phi, dh, dphi = channel._gain_derivatives(grid, droop, state, tx)
            with mp.workdps(40):
                x = {bus: mp.mpf(droop.x[bus]) for bus in vsc}
                r = {bus: mp.mpf(droop.r[bus]) for bus in vsc}

                def partial(kind, n, m, orders):
                    def at(x_t, r_m):
                        return _star_powers(mp, grid, droop, {**r, m: r_m}, {**x, tx: x_t})[kind][n]
                    return float(mp.diff(at, (x[tx], r[m]), orders))

                exact = [
                    np.array([[partial(kind, n, m, (1, 1)) for m in vsc] for n in rows])
                    for kind, rows in ((0, range(grid.n)), (1, vsc))
                ]
                gains = [np.array([partial(kind, n, tx, (1, 0)) for n in rows])
                         for kind, rows in ((0, range(grid.n)), (1, vsc))]
            # 1.0e-12 measured, on the smallest dPhi entry
            for got, want in zip((h[:, t], phi[:, t], dh, dphi), gains + exact):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0, err_msg=str(droop))


@pytest.mark.parametrize(
    "make_grid", [_radial_feeder, _meshed_grid, lambda: _chain(192)],
    ids=["radial", "meshed", "chain-192"],
)
def test_the_investment_jacobian_matches_central_differences(make_grid):
    grid = make_grid()
    vsc = sorted(grid.vsc_buses)
    dim, h = len(vsc), 1e-4
    for droop in _random_droops(grid, 4, seed=27):  # nominal, then off-nominal r and x
        state = solve_steady_state(grid, droop, method="newton")
        _, phi, _, _ = channel._gain_derivatives(grid, droop, state, vsc[0])
        jac = -phi * [state.i[bus] for bus in vsc]
        r = np.array([droop.r[bus] for bus in vsc])
        shifted = r + np.concatenate([np.eye(dim), -np.eye(dim)]) * h
        dp = optimizer._lane_investments(grid, droop, state.p, dict(zip(vsc, shifted.T)))
        fd = ((dp[:dim] - dp[dim:]) / (2.0 * h)).T
        # truncation and the solves' stopping errors: 2.4e-8 of the largest entry measured
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd)), droop


def _newton_gains(grid, droop):
    model = linearize(grid, droop, solve_steady_state(grid, droop, method="newton"))
    return model.H, model.Phi


@pytest.mark.parametrize(
    "make_grid", [_radial_feeder, _meshed_grid, lambda: _chain(192)],
    ids=["radial", "meshed", "chain-192"],
)
def test_the_gain_derivatives_match_central_differences(make_grid):
    grid = make_grid()
    vsc = list(grid.vsc_buses)
    for droop in _random_droops(grid, 3, seed=27):
        state = solve_steady_state(grid, droop, method="newton")
        tx = vsc[-1]
        _, _, dh, dphi = channel._gain_derivatives(grid, droop, state, tx)
        for m, bus in enumerate(vsc):
            step = 1e-4 * droop.r[bus]  # at 1e-6, the solves' rounding shows on the chain
            (h_up, phi_up), (h_down, phi_down) = (
                _newton_gains(grid, droop.with_r({bus: droop.r[bus] + sign * step}))
                for sign in (1.0, -1.0)
            )
            fd_h = (h_up[:, tx] - h_down[:, tx]) / (2.0 * step)
            fd_phi = (phi_up[vsc, tx] - phi_down[vsc, tx]) / (2.0 * step)
            # the differences' own truncation and rounding: 1.0e-8 measured
            for got, fd in ((dh[:, m], fd_h), (dphi[:, m], fd_phi)):
                assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd)), (droop, bus)


def test_the_probe_sizes_its_box_from_the_investment_jacobian(grid, nominal, budgets, monkeypatch):
    # one set of gains, at the nominal operating point the probe solved: no
    # solve of its own, and the same gains give the nominal gradient
    calls, boxes = [], []
    derivatives, band = optimizer._gain_derivatives, optimizer._band_interior

    def recorded(*args):
        calls.append((args, derivatives(*args)))
        return calls[-1][1]

    def sized(*args):
        boxes.append(args[-1])
        return band(*args)

    monkeypatch.setattr(optimizer, "_gain_derivatives", recorded)
    monkeypatch.setattr(optimizer, "_band_interior", sized)
    concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    [((_, droop, state, tx), (_, phi, _, _))] = calls
    assert (droop, tx) == (nominal, 0)
    assert state.v.tobytes() == solve_steady_state(grid, nominal).v.tobytes()
    [jacobian] = boxes
    assert jacobian.tobytes() == (-phi * [state.i[bus] for bus in (0, 1)]).tobytes()


@pytest.mark.parametrize("pi", [{0: 10.0, 1: 10.0}, {0: 10.0}])
def test_concavity_probe_band_equals_the_box_fallback(grid, nominal, pi, monkeypatch):
    report = concavity_probe(grid, nominal, pi, tx=0, rx=1)
    monkeypatch.setattr(optimizer, "_band_lanes", lambda *args: (None, None))  # band unknown
    _blocks_of(997, grid, monkeypatch)  # the box is scanned in blocks
    assert concavity_probe(grid, nominal, pi, tx=0, rx=1) == report


def test_concavity_probe_samples_inside_the_nameplate_box(nominal):
    grid = _boxed({0: 0.45, 1: 0.45})
    report = concavity_probe(grid, nominal, {0: 10.0, 1: 10.0}, tx=0, rx=1)
    assert report.points
    for point in report.points:  # the box maximize_snr_grid searches
        assert all(0.39 <= r <= 0.45 for r in point)


# -- the band search against a full-lattice oracle ------------------------------

def _lattice(grid, nominal, step, r_max):
    """Every point of the search lattice, per converter, in C order."""
    vsc = list(grid.vsc_buses)
    axes = [
        nominal.r[bus]
        + step * np.arange(int(np.floor((r_max[bus] - nominal.r[bus]) / step + 1e-9)) + 1)
        for bus in vsc
    ]
    return {bus: m.reshape(-1) for bus, m in zip(vsc, np.meshgrid(*axes, indexing="ij"))}


def _lattice_oracle(grid, nominal, pi, sigma_z, tx, rx, step, r_max):
    """First maximum of the SNR over every point of the lattice, from public kernels.

    Returns the maximizing resistances, the SNR and the gain terms there,
    and the lattice's feasible mask.
    """
    vsc = list(grid.vsc_buses)
    r = _lattice(grid, nominal, step, r_max)
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    h, phi = channel_gains(grid, nominal.x, r, batch.v, [tx])
    p_nom = solve_steady_state(grid, nominal).p
    _, p = vsc_outputs(grid, nominal.with_r(r), batch.v.T)
    dp = np.stack([p[bus] - p_nom[bus] for bus in vsc], axis=1)
    headroom = np.array([pi[bus] for bus in vsc]) ** 2 - dp**2
    with np.errstate(invalid="ignore", divide="ignore"):
        g = (h[:, rx, 0, None] / phi[:, :, 0]) ** 2 * headroom
        snr = np.min(g, axis=1) / sigma_z**2
    snr = np.where(np.any(headroom < 0.0, axis=1), 0.0, np.maximum(snr, 0.0))
    feasible = batch.feasible & np.isfinite(h[:, rx, 0]) & np.all(np.isfinite(phi[:, :, 0]), axis=1)
    snr = np.where(feasible, snr, -np.inf)
    best = int(np.argmax(snr))
    r_star = {bus: float(r[bus][best]) for bus in vsc}
    return r_star, float(snr[best]), {bus: float(g[best, j]) for j, bus in enumerate(vsc)}, feasible


@pytest.fixture
def solves(monkeypatch):
    """The resistance lanes of each batched solve the optimizer makes while the test runs."""
    calls = []

    def recording(grid, x, r, *args, **kwargs):
        batch = solve_steady_state_many(grid, x, r, *args, **kwargs)
        lanes = len(batch.v)
        calls.append({bus: np.broadcast_to(values, lanes).copy() for bus, values in r.items()})
        return batch

    monkeypatch.setattr(optimizer, "solve_steady_state_many", recording)
    return calls


@pytest.fixture
def solved_lanes(monkeypatch):
    """Lanes per batched solve the optimizer makes while the test runs."""
    lanes = []

    def counting(grid, x, r, *args, **kwargs):
        batch = solve_steady_state_many(grid, x, r, *args, **kwargs)
        lanes.append(len(batch.v))
        return batch

    monkeypatch.setattr(optimizer, "solve_steady_state_many", counting)
    return lanes


def _radial_pair():
    """A 10-bus radial trunk fed by converters at both ends, lightly loaded."""
    buses = []
    for bus in range(10):
        if bus in (0, 9):
            buses.append(Bus(bus, LoadSpec(), VscSpec(400.0, 0.39, r_max=0.64)))
        else:
            load = LoadSpec(r_cr=400.0 + 300.0 * (bus % 4), i_cc=0.2 * (bus % 2),
                            d_cp=60.0 + 40.0 * (bus % 3))
            buses.append(Bus(bus, load))
    lines = [
        LineSpec.from_length(k, k + 1, rho=0.641, length_km=0.05 + 0.03 * (k % 3))
        for k in range(9)
    ]
    return validate_grid(GridSpec(buses=tuple(buses), lines=tuple(lines)))


def test_snr_nominal_is_the_one_way_snr_at_nominal(grid, boxed, nominal):
    def assert_nominal(result_snr, grid, nominal, budgets, tx, rx):
        expected, _ = one_way_snr(grid, nominal, nominal, budgets, SIGMA_Z, tx, rx)
        assert result_snr == expected  # one lane of the search's own table

    pis = [2.0, 5.0, 10.0, 15.0, 20.0]
    for pi, row in zip(pis, capacity_sweep(boxed, nominal, pis, SIGMA_Z, 0, 1)):
        assert_nominal(row.snr_nominal, grid, nominal, {0: pi, 1: pi}, 0, 1)
        assert row.capacity_nominal == capacity(row.snr_nominal)
    uneven = {0: 3.0, 1: 17.0}
    result = maximize_snr_grid(boxed, nominal, uneven, SIGMA_Z, 0, 1)
    assert_nominal(result.snr_nominal, grid, nominal, uneven, 0, 1)
    feeder = _radial_pair()
    feeder_nominal = nominal_droop(feeder)
    for pi in pis:
        budgets = {0: pi, 9: pi}
        result = maximize_snr_grid(feeder, feeder_nominal, budgets, SIGMA_Z, 0, 9)
        assert_nominal(result.snr_nominal, feeder, feeder_nominal, budgets, 0, 9)


@pytest.mark.parametrize("pi", [2.0, 5.0, 10.0, 15.0, 20.0])
def test_one_way_snr_is_the_search_lane_at_r_star(boxed, nominal, pi):
    # the scalar path solved the droop and the nominal point again, on
    # Gauss-Seidel, and read a dense linearization: 4.2e-9 relative off at r*
    feeder = _radial_pair()
    for grid, start, tx, rx in ((boxed, nominal, 0, 1), (feeder, nominal_droop(feeder), 0, 9)):
        budgets = {tx: pi, rx: pi}
        result = maximize_snr_grid(grid, start, budgets, SIGMA_Z, tx, rx)
        snr, g = one_way_snr(grid, start.with_r(result.r_star), start, budgets, SIGMA_Z, tx, rx)
        assert (snr, g) == (result.snr, result.g_values)


def test_one_way_snr_solves_one_lane_and_the_nominal_point(grid, nominal, budgets, monkeypatch):
    scalar_solves, batches = [], []

    def scalar(*args, **kwargs):
        scalar_solves.append(args)
        return solve_steady_state(*args, **kwargs)

    def batched(*args, **kwargs):
        batches.append(solve_steady_state_many(*args, **kwargs))
        return batches[-1]

    def dense_path(*args, **kwargs):
        raise AssertionError("one_way_snr took the dense scalar path")

    monkeypatch.setattr(optimizer, "solve_steady_state", scalar)
    monkeypatch.setattr(optimizer, "solve_steady_state_many", batched)
    for name in ("linearize", "vr_power_investment"):
        monkeypatch.setattr(optimizer, name, dense_path)
    one_way_snr(grid, nominal.with_r({0: 0.44, 1: 0.48}), nominal, budgets, SIGMA_Z, 0, 1)
    assert [args[1] for args in scalar_solves] == [nominal]
    assert [len(batch.v) for batch in batches] == [1]


def test_one_way_snr_of_a_droop_with_no_viable_point_is_no_real_root(grid, nominal, budgets):
    with pytest.raises(NoRealRoot):
        one_way_snr(grid, nominal.with_r({0: 100.0, 1: 100.0}), nominal, budgets, SIGMA_Z, 0, 1)


def _assert_matches_oracle(result, oracle):
    r_star, snr, g, _ = oracle
    assert result.r_star == r_star
    assert result.snr == snr
    assert result.g_values == g


@pytest.mark.parametrize("pi", [2.0, 5.0, 10.0, 15.0, 20.0])
def test_band_search_equals_the_full_lattice_on_the_case_study(
    grid, boxed, nominal, pi, solved_lanes
):
    budgets = {0: pi, 1: pi}
    result = maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, 0, 1)
    oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, DEFAULT_STEP, BOX)
    _assert_matches_oracle(result, oracle)
    assert result.evaluations == oracle[3].size  # every lattice point is covered
    assert sum(solved_lanes) < oracle[3].size  # ... but not every one is solved


def test_band_sweep_equals_the_full_lattice_per_budget(grid, boxed, nominal):
    pis = [2.0, 5.0, 10.0, 15.0, 20.0]
    rows = capacity_sweep(boxed, nominal, pis, SIGMA_Z, 0, 1)
    for pi, row in zip(pis, rows):
        r_star, snr, _, _ = _lattice_oracle(
            grid, nominal, {0: pi, 1: pi}, SIGMA_Z, 0, 1, DEFAULT_STEP, BOX
        )
        assert row.r_star == r_star
        assert row.snr_opt == snr


def test_band_search_equals_the_full_lattice_on_a_radial_feeder(solved_lanes):
    grid = _radial_pair()
    nominal = nominal_droop(grid)
    box = {0: 0.64, 9: 0.64}
    pis = [1.0, 5.0, 20.0]
    for pi in pis:
        budgets = {0: pi, 9: pi}
        result = maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 9)
        oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 9, DEFAULT_STEP, box)
        _assert_matches_oracle(result, oracle)
    assert result.r_star[0] > nominal.r[0]  # an interior optimum, not the nominal corner
    solved_lanes.clear()
    rows = capacity_sweep(grid, nominal, pis, SIGMA_Z, 9, 0)
    for pi, row in zip(pis, rows):
        r_star, snr, _, _ = _lattice_oracle(
            grid, nominal, {0: pi, 9: pi}, SIGMA_Z, 9, 0, DEFAULT_STEP, box
        )
        assert row.r_star == r_star
        assert row.snr_opt == snr
    assert sum(solved_lanes) < 51 * 51


@settings(max_examples=15)
@given(
    pi=st.floats(min_value=0.5, max_value=25.0),
    step=st.floats(min_value=0.004, max_value=0.02),
)
def test_band_search_equals_the_full_lattice_over_budgets_and_steps(
    grid, boxed, nominal, pi, step
):
    budgets = {0: pi, 1: 0.8 * pi}
    result = maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, 0, 1, step=step)
    _assert_matches_oracle(
        result, _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, step, BOX)
    )


@pytest.mark.parametrize(
    "box, pi, edge",
    [
        (BOX, {0: 10.0, 1: 10.0}, "first"),  # row 0 starts at the nominal point, in the band
        ({0: 0.6, 1: 0.45}, {0: 10.0, 1: 10.0}, "last"),  # the band runs into the box's edge
        (BOX, {0: 10.0, 1: np.inf}, None),  # no budget: infinite slack, as in the probe's box
        (BOX, {0: np.inf, 1: 10.0}, None),
        (BOX, {0: np.inf, 1: np.inf}, "every"),
        (BOX, {0: 0.0, 1: 0.0}, "none"),
    ],
    ids=["column 0", "last column", "no budget on bus 1", "no budget on bus 0", "no budget",
         "empty"],
)
@pytest.mark.parametrize("block", [None, 64], ids=["middle probed", "ends only"])
def test_the_band_equals_the_full_lattice_at_its_edges(
    grid, nominal, box, pi, edge, block, monkeypatch
):
    if block:  # three columns of the 43 rows would add a Newton block: the end probe has two
        _blocks_of(block, grid, monkeypatch)
    p_nom = solve_steady_state(grid, nominal).p
    axes = optimizer._r_axes(_boxed(box), nominal, DEFAULT_STEP)
    _, (lanes, r, batch) = optimizer._band_lanes(grid, nominal, p_nom, axes, pi)
    lattice = _lattice(grid, nominal, DEFAULT_STEP, box)
    whole = solve_steady_state_many(grid, dict(nominal.x), lattice)
    _, p = vsc_outputs(grid, nominal.with_r(lattice), whole.v.T)
    inside = whole.feasible & np.all([np.abs(p[bus] - p_nom[bus]) <= pi[bus] for bus in pi], axis=0)
    assert lanes.tobytes() == np.flatnonzero(inside).tobytes()
    assert batch.v.tobytes() == whole.v[inside].tobytes()
    for bus in pi:
        assert r[bus].tobytes() == lattice[bus][inside].tobytes()
    col, width = lanes % len(axes[1]), len(axes[1])
    shown = {"first": np.any(col == 0), "last": np.any(col == width - 1),
             "every": inside.all(), "none": not inside.any(), None: True}
    assert shown[edge]


def test_the_case_study_band_takes_four_solves_after_its_end_probe(grid, nominal, solved_lanes):
    # bisection took ten rounds on the 703-point rows, and then the check batch
    p_nom = solve_steady_state(grid, nominal).p
    axes = optimizer._r_axes(grid, nominal, DEFAULT_STEP)
    assert [len(values) for values in axes.values()] == [703, 703]
    solved_lanes.clear()
    _, (lanes, _, _) = optimizer._band_lanes(grid, nominal, p_nom, axes, {0: 20.0, 1: 20.0})
    assert lanes.size == 203
    end_probe, *after = solved_lanes
    assert end_probe == 3 * 703  # both ends and the middle of every row
    assert len(after) <= 4


def test_the_band_search_logs_its_lanes_or_why_it_falls_back(boxed, nominal, caplog):
    caplog.set_level(logging.DEBUG, logger="powertalk.optimizer")
    budgets = {0: 10.0, 1: 10.0}
    maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, 0, 1)
    assert [m for m in caplog.messages if m.startswith("band search")] == [
        "band search: 49 lanes in the band; 268 probed, 218 in the check batch; "
        "rounds after the end probe: 1"
    ]
    caplog.clear()
    maximize_snr_grid(_boxed({0: 40.0, 1: 40.0}), nominal, budgets, SIGMA_Z, 0, 1, step=0.5)
    assert [m for m in caplog.messages if m.startswith("band search")] == [
        "band search: falls back to the whole lattice: a lane of the end probe is not viable"
    ]


def _assert_last_solves_cover(solves, lattice):
    """The trailing batched solves, taken together, are every lattice lane once, in C order."""
    size = next(iter(lattice.values())).size
    tail = []
    while sum(next(iter(r.values())).size for r in tail) < size:
        tail.insert(0, solves[len(solves) - 1 - len(tail)])
    for bus, values in lattice.items():
        assert np.concatenate([r[bus] for r in tail]).tobytes() == values.tobytes()


@pytest.mark.parametrize("case", ["zero budget", "past viability", "row check fails"])
def test_band_search_falls_back_to_the_full_lattice(grid, nominal, case, solves, monkeypatch):
    budgets, step, box = {0: 10.0, 1: 10.0}, DEFAULT_STEP, BOX
    if case == "zero budget":  # scanned only when the band is unknown: a box past viability
        budgets, step, box = {0: 0.0, 1: 0.0}, 0.5, {0: 40.0, 1: 40.0}
    elif case == "past viability":
        step, box = 0.5, {0: 40.0, 1: 40.0}
    else:
        monkeypatch.setattr(optimizer, "_runs_monotone", lambda *args: False)
    _blocks_of(97, grid, monkeypatch)  # block edges fall inside lattice rows
    result = maximize_snr_grid(_boxed(box), nominal, budgets, SIGMA_Z, 0, 1, step=step)
    oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, step, box)
    _assert_matches_oracle(result, oracle)
    feasible = oracle[3]
    # the fallback's solves cover every lattice lane exactly once
    _assert_last_solves_cover(solves, _lattice(grid, nominal, step, box))
    if case != "row check fails":
        assert not feasible.all()
    if case == "zero budget":
        assert result.r_star == {0: 0.39, 1: 0.39}


@pytest.mark.parametrize("lanes", [1, 3, 8])
@pytest.mark.parametrize("case", ["zero budget", "past viability"])
def test_streamed_fallback_equals_the_materialised_argmax(grid, nominal, case, lanes, monkeypatch):
    # zero budget: every viable lane scores 0, a tie across every block edge
    # that the first lane must win (scanned with the band taken as unknown);
    # past viability: blocks of non-viable lanes
    if case == "zero budget":
        budgets, step, box = {0: 0.0, 1: 0.0}, DEFAULT_STEP, {0: 0.42, 1: 0.42}
        monkeypatch.setattr(optimizer, "_band_lanes", lambda *args: (None, None))
    else:
        budgets, step, box = {0: 10.0, 1: 10.0}, 1.0, {0: 30.0, 1: 30.0}
    _blocks_of(lanes, grid, monkeypatch)
    result = maximize_snr_grid(_boxed(box), nominal, budgets, SIGMA_Z, 0, 1, step=step)
    oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, step, box)
    _assert_matches_oracle(result, oracle)
    if case == "zero budget":
        assert result.r_star == {0: 0.39, 1: 0.39}
    else:
        assert not oracle[3].all()


def test_sweep_scores_band_and_fallback_budgets_alike(grid, boxed, nominal, solves, monkeypatch):
    _blocks_of(50, grid, monkeypatch)
    pis = [0.0, 2.0, 10.0]  # 0 takes the nominal lane, 2 and 10 the band
    rows = capacity_sweep(boxed, nominal, pis, SIGMA_Z, 0, 1)
    with monkeypatch.context() as unknown:  # the band unknown: all three are scanned
        unknown.setattr(optimizer, "_band_lanes", lambda *args: (None, None))
        scanned = capacity_sweep(boxed, nominal, pis, SIGMA_Z, 0, 1)
    _assert_last_solves_cover(solves, _lattice(grid, nominal, DEFAULT_STEP, BOX))
    for pi, row, scan in zip(pis, rows, scanned):
        assert row == scan
        budgets = {0: pi, 1: pi}
        oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, DEFAULT_STEP, BOX)
        assert (row.r_star, row.snr_opt) == oracle[:2]
        alone = maximize_snr_grid(boxed, nominal, budgets, SIGMA_Z, 0, 1)
        assert (row.r_star, row.snr_opt, row.snr_nominal) == (
            alone.r_star, alone.snr, alone.snr_nominal
        )


def test_streamed_fallback_raises_when_no_lane_is_viable(boxed, nominal, monkeypatch):
    def nowhere_viable(grid, x, r):
        batch = solve_steady_state_many(grid, x, r)
        nan = np.full_like(batch.v, np.nan)
        return steady_state.BatchSolve(nan, np.zeros_like(batch.feasible), batch.residual, 0)

    monkeypatch.setattr(optimizer, "solve_steady_state_many", nowhere_viable)
    _blocks_of(7, boxed, monkeypatch)
    with pytest.raises(NoRealRoot, match="anywhere on the search lattice"):
        maximize_snr_grid(boxed, nominal, {0: 10.0, 1: 10.0}, SIGMA_Z, 0, 1)
    with pytest.raises(NoRealRoot, match="anywhere on the search lattice"):
        capacity_sweep(boxed, nominal, [0.0, 10.0], SIGMA_Z, 0, 1)


@pytest.mark.parametrize("make_grid", [_case_study_config, _radial_feeder, _meshed_grid])
def test_channel_table_lanes_do_not_depend_on_their_batch(make_grid):
    grid = make_grid()
    nominal = nominal_droop(grid)
    p_nom = solve_steady_state(grid, nominal).p
    link = (grid, nominal, p_nom, grid.vsc_buses[0], grid.vsc_buses[-1])

    def table_of(r):
        return optimizer._channel_table(*link, r, solve_steady_state_many(grid, dict(nominal.x), r))

    r = _jittered(grid, nominal, 300)
    table = table_of(r)
    assert table.feasible.all()
    for lane in range(300):
        alone = table_of({bus: values[lane : lane + 1] for bus, values in r.items()})
        for field in ("h_rx", "phi", "dp"):
            got, want = getattr(table, field)[lane], getattr(alone, field)[0]
            assert got.tobytes() == want.tobytes(), (lane, field)


def test_the_nominal_lane_invests_nothing_where_the_sweeps_run_out():
    # the nominal powers came from Newton warm-started at the last sweep, and
    # the nominal lane read dp of up to 3e-8 W against its own solve
    grid = _radial_feeder()
    nominal = nominal_droop(grid)
    r = {bus: np.array([nominal.r[bus]]) for bus in grid.vsc_buses}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    p_nom = solve_steady_state(grid, nominal).p
    table = optimizer._channel_table(grid, nominal, p_nom, 0, 18, r, batch)
    assert table.feasible[0] and not table.dp.any()


def test_a_lane_with_non_finite_gains_is_not_feasible_in_the_table():
    # lane 1 claims a viable point, but constant-power bus 16, a leaf, sits
    # where d_cp/v**2 == g_bus: its Jacobian pivot is zero and its gains NaN,
    # which would score NaN and win the first maximum
    grid = _radial_feeder()
    nominal = nominal_droop(grid)
    r = {bus: np.full(3, nominal.r[bus]) for bus in grid.vsc_buses}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    v = batch.v.copy()
    v[1, 16] = np.sqrt(grid.d_cp[16] / (grid.lines.degree[16] + grid.r_cr_inv[16]))
    hand_built = steady_state.BatchSolve(v, batch.feasible, batch.residual, batch.sweeps)
    assert hand_built.feasible.all()
    p_nom = solve_steady_state(grid, nominal).p
    table = optimizer._channel_table(grid, nominal, p_nom, 0, 18, r, hand_built)
    assert not np.isfinite(table.h_rx[1])
    assert table.feasible.tolist() == [True, False, True]


@pytest.mark.parametrize("box", [BOX, {0: 0.42, 1: 0.42}])
def test_zero_budgets_pick_the_nominal_lane_without_scanning(grid, nominal, box, monkeypatch):
    # at pi = 0 every headroom is -dp**2 <= 0, so every viable lane scores 0 and
    # the first maximum is lane 0; a known band whose best is 0 says the same
    def no_scan(*args):
        raise AssertionError("the lattice was scanned")

    monkeypatch.setattr(optimizer, "_lattice_blocks", no_scan)
    boxed = _boxed(box)
    zero = {0: 0.0, 1: 0.0}
    result = maximize_snr_grid(boxed, nominal, zero, SIGMA_Z, 0, 1)
    _assert_matches_oracle(
        result, _lattice_oracle(grid, nominal, zero, SIGMA_Z, 0, 1, DEFAULT_STEP, box)
    )
    assert result.r_star == {0: 0.39, 1: 0.39}
    assert result.snr == 0.0
    pis = [0.0, 2.0, 10.0]
    for pi, row in zip(pis, capacity_sweep(boxed, nominal, pis, SIGMA_Z, 0, 1)):
        oracle = _lattice_oracle(grid, nominal, {0: pi, 1: pi}, SIGMA_Z, 0, 1, DEFAULT_STEP, box)
        assert (row.r_star, row.snr_opt) == oracle[:2]


def test_streamed_fallback_memory_does_not_grow_with_the_lattice(grid, boxed, nominal, monkeypatch):
    _blocks_of(200, grid, monkeypatch)
    monkeypatch.setattr(optimizer, "_band_lanes", lambda *args: (None, None))  # every budget is scanned
    peaks = []
    for step in (DEFAULT_STEP, DEFAULT_STEP / 2):  # 43 x 63, then 85 x 125 lanes
        tracemalloc.start()
        try:
            maximize_snr_grid(boxed, nominal, {0: 0.0, 1: 0.0}, SIGMA_Z, 0, 1, step=step)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a whole-lattice table grows 3.9x with the lanes; the blocks do not
    assert peaks[1] < 1.2 * peaks[0]


def test_the_lane_bound_stops_only_a_whole_lattice_scan(grid, boxed, nominal, monkeypatch):
    # the 43 x 63 box exceeds the bound, its 2 x 43 row ends do not
    monkeypatch.setattr(optimizer, "MAX_SEARCH_LANES", 1000)
    pi = {0: 10.0, 1: 10.0}
    result = maximize_snr_grid(boxed, nominal, pi, SIGMA_Z, 0, 1)
    _assert_matches_oracle(result, _lattice_oracle(grid, nominal, pi, SIGMA_Z, 0, 1, DEFAULT_STEP, BOX))
    monkeypatch.setattr(optimizer, "_band_lanes", lambda *args: (None, None))
    with pytest.raises(InvalidArgument, match="step 0.005 gives 2709 lattice points"):
        maximize_snr_grid(boxed, nominal, pi, SIGMA_Z, 0, 1)


def test_five_converters_at_the_default_step_raise_in_bounded_time_and_memory():
    # 2.8e14 lattice points: the band search's end probe of its 3.1e11 rows
    # asked numpy for 2.26 TiB and raised MemoryError
    feeder = _radial_feeder()
    pi = dict.fromkeys(feeder.vsc_buses, 10.0)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgument, match=r"gives 280370369781901 lattice points.*--step"):
            maximize_snr_grid(feeder, nominal_droop(feeder), pi, SIGMA_Z, 0, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 16 * 2**20


def test_default_box_sweep_solves_a_small_share_of_the_lattice(grid, nominal, solved_lanes):
    capacity_sweep(grid, nominal, [2.0, 5.0, 10.0, 15.0, 20.0], SIGMA_Z, 0, 1)
    size = 1
    for bus in grid.vsc_buses:
        span = default_r_max(grid, nominal, bus) - nominal.r[bus]
        size *= int(np.floor(span / DEFAULT_STEP + 1e-9)) + 1
    assert size == 703 * 703
    assert sum(solved_lanes) <= 0.05 * size


@pytest.mark.parametrize(
    "search, calls, lanes",
    [
        (lambda grid, nominal: capacity_sweep(grid, nominal, [2.0, 5.0, 10.0, 15.0, 20.0],
                                              SIGMA_Z, 0, 1), 6, 5_109),
        (lambda grid, nominal: maximize_snr_grid(grid, nominal, {0: 10.0, 1: 10.0},
                                                 SIGMA_Z, 0, 1), 6, 4_812),
        (lambda grid, nominal: concavity_probe(grid, nominal, {0: 10.0, 1: 10.0}, 0, 1), 48, 2_936),
    ],
    ids=["sweep", "optimize", "probe"],
)
def test_the_case_study_solves_each_lane_once(grid, nominal, search, calls, lanes, solved_lanes):
    # the batched solves the search makes, box sizing included; the check batch
    # re-solves the probed lanes between each row's band edges, so a count
    # that grows is work added to the search
    search(grid, nominal)
    assert (len(solved_lanes), sum(solved_lanes)) == (calls, lanes)


def test_the_nominal_corner_rides_in_the_band_search(grid, nominal, solves):
    # solves: the box caps, the end probe, its rounds, the check batch;
    # lattice point 0 is a lane of the end probe, not a solve of its own
    capacity_sweep(grid, nominal, [2.0, 5.0, 10.0, 15.0, 20.0], SIGMA_Z, 0, 1)
    holding = [k for k, r in enumerate(solves)
               if np.any((r[0] == nominal.r[0]) & (r[1] == nominal.r[1]))]
    assert holding == [1, len(solves) - 1]
    assert solves[1][0].size == 3 * 703


def _heavy_converter(helper=False):
    """Bus 0's converter under a heavy constant-power load; ``helper`` adds a converter 2 ohm off."""
    buses = (Bus(0, LoadSpec(d_cp=50_000.0), VscSpec(400.0, 0.39)),)
    if helper:
        return validate_grid(GridSpec(buses=buses + (Bus(1, LoadSpec(), VscSpec(400.0, 0.39)),),
                                      lines=(LineSpec(0, 1, 2.0),)))
    return validate_grid(GridSpec(buses=buses, lines=()))


@pytest.mark.parametrize(
    "make_grid, calls",
    [
        (case_study, [2]),  # both caps viable
        (lambda: _heavy_converter(helper=True), [2] + [1] * 60),  # bus 0's cap is bisected
        (_heavy_converter, [1] + [1] * 60),  # the grid of the bisection test above
        (lambda: _boxed({0: 0.6}), [1]),
        (lambda: _boxed(BOX), []),
    ],
    ids=["caps-viable", "one-bisected", "lone-bisected", "one-nameplate", "all-nameplate"],
)
def test_the_box_limits_share_one_batch_of_caps(make_grid, calls, solved_lanes):
    grid = make_grid()
    nominal = nominal_droop(grid)
    nameplate = {bus: grid.vsc(bus).r_max for bus in grid.vsc_buses}
    limits = optimizer._r_limits(grid, nominal, nameplate)
    assert solved_lanes == calls
    assert limits == {bus: default_r_max(grid, nominal, bus) if limit is None else limit
                      for bus, limit in nameplate.items()}


@pytest.mark.parametrize("n_vsc", [1, 2, 5])
def test_the_lane_reductions_equal_the_row_wise_ones_bit_for_bit(n_vsc):
    # the search reduces over converters lane by lane; numpy's axis=1 reductions
    # are the reference, on tables with NaN, infinities, signed zeros and
    # investments beyond their budgets
    rng = np.random.default_rng(n_vsc)
    lanes = 500

    def column(*shape):
        values = rng.normal(scale=20.0, size=shape)
        special = rng.random(shape) < 0.2
        values[special] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], size=special.sum())
        return values

    vsc = tuple(range(n_vsc))
    table = optimizer._ChannelTable(vsc=vsc, r={}, feasible=np.ones(lanes, dtype=bool),
                                    h_rx=column(lanes), phi=column(lanes, n_vsc), dp=column(lanes, n_vsc))
    pi = {bus: float(rng.uniform(0.0, 30.0)) for bus in vsc[::2]}
    cols = list(pi)
    headroom = np.array(list(pi.values())) ** 2 - table.dp[:, cols] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        g_rows = (table.h_rx[:, None] / table.phi[:, cols]) ** 2 * headroom
    score_rows = np.where(np.any(headroom < 0.0, axis=1), 0.0, np.maximum(np.min(g_rows, axis=1), 0.0))
    score, g = optimizer._score(table, pi)
    assert (score.tobytes(), g.tobytes()) == (score_rows.tobytes(), g_rows.tobytes())

    pi_vec = rng.uniform(0.0, 30.0, n_vsc)
    rising = rng.random((lanes, n_vsc)) < 0.5
    up, down = table.dp + pi_vec, pi_vec - table.dp
    rows = (np.where(rising, up, down).min(axis=1), np.where(rising, down, up).min(axis=1))
    margins = optimizer._margins(table.dp, pi_vec, rising)
    assert [m.tobytes() for m in margins] == [m.tobytes() for m in rows]
    finite = np.isfinite(table.phi)
    assert optimizer._over_converters(np.logical_and, finite).tobytes() == finite.all(axis=1).tobytes()


def test_the_optimum_does_not_depend_on_the_noise(grid, nominal):
    # sigma_z scales the SNR only; 1e-160 squares to a subnormal
    budgets = {0: 10.0, 1: 10.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [maximize_snr_grid(grid, nominal, budgets, sigma_z, 0, 1)
                   for sigma_z in (SIGMA_Z, 1.0, 1e-160)]
    assert results[0].r_star == {0: 0.44, 1: 0.48}
    for result in results[1:]:
        assert (result.r_star, result.g_values) == (results[0].r_star, results[0].g_values)
    assert results[1].snr == pytest.approx(results[0].snr * SIGMA_Z**2, rel=1e-15)


@pytest.mark.parametrize("sigma_z", [1e200, 1e-300])
def test_sigma_z_needs_a_positive_finite_square(boxed, nominal, budgets, sigma_z):
    with pytest.raises(InvalidArgument, match="sigma_z"):
        maximize_snr_grid(boxed, nominal, budgets, sigma_z, 0, 1)
    with pytest.raises(InvalidArgument, match="sigma_z"):
        one_way_snr(boxed, nominal, nominal, budgets, sigma_z, 0, 1)


# -- the concavity probe against the scalar finite-difference probe ------------

def _fd_hessians(g_at, point, vsc, h):
    """Central-difference Hessians of every gain term at one point."""
    dim = len(vsc)

    def shifted(offsets):
        return {bus: point[bus] + off * h for bus, off in zip(vsc, offsets)}

    center = g_at(point)
    buses = sorted(center)
    hess = {bus: np.zeros((dim, dim)) for bus in buses}
    for i in range(dim):
        e = tuple(1 if k == i else 0 for k in range(dim))
        plus = g_at(shifted(e))
        minus = g_at(shifted(tuple(-o for o in e)))
        for bus in buses:
            hess[bus][i, i] = (plus[bus] - 2.0 * center[bus] + minus[bus]) / h**2
        for j in range(i + 1, dim):
            pp = g_at(shifted(tuple(1 if k in (i, j) else 0 for k in range(dim))))
            pm = g_at(shifted(tuple(1 if k == i else -1 if k == j else 0 for k in range(dim))))
            mp = g_at(shifted(tuple(-1 if k == i else 1 if k == j else 0 for k in range(dim))))
            mm = g_at(shifted(tuple(-1 if k in (i, j) else 0 for k in range(dim))))
            for bus in buses:
                mixed = (pp[bus] - pm[bus] - mp[bus] + mm[bus]) / (4.0 * h**2)
                hess[bus][i, j] = hess[bus][j, i] = mixed
    return hess


def _scalar_probe(grid, nominal, pi, tx, rx, samples=25, fd_step=1e-3, rel_tol=1e-6):
    """The concavity probe with every point evaluated on its own.

    The same algorithm as ``concavity_probe`` on a grid whose band lies
    along a direction of positive resistance steps and ends inside the
    box, with each investment from ``vr_power_investment`` and each gain
    term from ``one_way_snr`` (scalar solve and linearization).  Returns
    the sample points, the flagged (point index, bus) pairs, the largest
    relative eigenvalue and :func:`_fd_nominal_gradient`.
    """
    vsc = sorted(nominal.r)
    dim = len(vsc)

    def g_at(point):
        _, g = one_way_snr(grid, nominal.with_r(dict(point)), nominal, pi, 1.0, tx, rx)
        return g

    def dp_at(point):
        return vr_power_investment(grid, nominal, nominal.with_r(point))

    # the band's direction: the investment Jacobian's least singular vector
    h = 1e-5
    jac = np.zeros((dim, dim))
    for j, axis in enumerate(vsc):
        plus = dp_at({axis: nominal.r[axis] + h})
        minus = dp_at({axis: nominal.r[axis] - h})
        jac[:, j] = [(plus[bus] - minus[bus]) / (2.0 * h) for bus in vsc]
    singulars = np.linalg.svd(jac, compute_uv=False)
    direction = np.linalg.svd(jac)[2][-1]
    direction = -direction if direction.sum() < 0.0 else direction
    assert np.all(direction > 0.0)

    # the band's extent along it, by bisection
    cap = np.array([default_r_max(grid, nominal, bus) - nominal.r[bus] for bus in vsc])

    def inside(t):
        if np.any(t * direction > cap):
            return False
        dp = dp_at({bus: nominal.r[bus] + t * direction[i] for i, bus in enumerate(vsc)})
        return all(dp[bus] ** 2 <= pi[bus] ** 2 for bus in pi)

    lo, hi = 0.0, float(np.min(cap / direction))
    assert not inside(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)

    # a lattice over the band; keep the points whose neighbours are in it too
    halfwidth = max(pi.values()) / singulars[0]
    widths = np.minimum(1.2 * lo * direction + 2.0 * halfwidth, cap)
    counts = [int(np.clip(math.ceil(w / (halfwidth / 2.5)), 32, 200)) for w in widths]
    axes = [nominal.r[bus] + np.linspace(0.0, w, c) for bus, w, c in zip(vsc, widths, counts)]
    r = dict(zip(vsc, (m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij"))))
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    p_nom = solve_steady_state(grid, nominal).p
    _, p = vsc_outputs(grid, nominal.with_r(r), batch.v.T)
    dp = np.nan_to_num(np.stack([p[bus] - p_nom[bus] for bus in vsc], axis=1), nan=np.inf)
    pi_vec = np.array([pi.get(bus, np.inf) for bus in vsc])
    feasible = (batch.feasible & np.all(dp**2 <= pi_vec**2, axis=1)).reshape(counts)
    inner = np.zeros_like(feasible)
    inner[(slice(1, -1),) * dim] = True
    for axis in range(dim):
        inner &= feasible & np.roll(feasible, 1, axis) & np.roll(feasible, -1, axis)
    flat = np.flatnonzero(inner)
    chosen = flat[np.round(np.linspace(0, flat.size - 1, num=min(samples, flat.size))).astype(int)]
    points = [{bus: float(r[bus][c]) for bus in vsc} for c in chosen]

    flagged, max_rel = [], -np.inf
    for index, point in enumerate(points):
        for bus, hess in _fd_hessians(g_at, point, vsc, fd_step).items():
            eig = np.linalg.eigvalsh(hess)
            rel = float(eig[-1] / np.max(np.abs(eig)))
            max_rel = max(max_rel, rel)
            if rel > rel_tol:
                flagged.append((index, bus))
    grad = _fd_nominal_gradient(grid, nominal, pi, tx, rx)
    return [tuple(p[bus] for bus in vsc) for p in points], flagged, max_rel, grad


def _fd_nominal_gradient(grid, nominal, pi, tx, rx):
    """Central differences at nominal of each factor pi_n^2 (h / phi_n)^2, per axis.

    At nominal the investment vanishes, so the gain term's gradient is the
    factor's; the headroom's dip would add a truncation error of its own.
    Each point is a Newton solve and :func:`linearize`, at step 1e-6 r.
    """
    def factors(droop):
        model = linearize(grid, droop, solve_steady_state(grid, droop, method="newton"))
        return {bus: pi[bus] ** 2 * (model.H[rx, tx] / model.Phi[bus, tx]) ** 2 for bus in pi}

    parts = []
    for axis in sorted(nominal.r):
        step = 1e-6 * nominal.r[axis]
        up, down = (factors(nominal.with_r({axis: nominal.r[axis] + sign * step}))
                    for sign in (1.0, -1.0))
        parts.append({bus: (up[bus] - down[bus]) / (2.0 * step) for bus in pi})
    return {bus: tuple(part[bus] for part in parts) for bus in sorted(pi)}


@pytest.fixture
def probe_tables(monkeypatch):
    """Every channel table the optimizer builds while the test runs."""
    tables = []
    build = optimizer._channel_table

    def recording(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(optimizer, "_channel_table", recording)
    return tables


def test_concavity_probe_matches_the_scalar_probe(grid, nominal, budgets):
    report = concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    points, flagged, max_rel, grad = _scalar_probe(grid, nominal, budgets, 0, 1)
    # The sample points follow the direction of the investment Jacobian; the
    # oracle's is a finite difference (step 1e-5 ohm) whose entries carry each
    # solver's stopping error, ~1e-8 relative, against the probe's from the
    # channel gains, which moves the points by up to 1.3e-8 ohm.
    assert len(report.points) == len(points) == 25
    np.testing.assert_allclose(report.points, points, rtol=0.0, atol=5e-8)
    assert [(report.points.index(p), bus) for p, bus, _ in report.violations] == flagged
    assert report.max_rel_eig == pytest.approx(max_rel, rel=1e-5)  # 1.1e-6 apart
    for bus, parts in grad.items():  # 4.2e-10 of the gradient's norm measured
        assert np.max(np.abs(np.subtract(report.grad_nominal[bus], parts))) <= (
            1e-6 * np.linalg.norm(parts)
        )


def test_the_nominal_gradient_is_the_star_closed_form_derivative(grid, nominal, budgets):
    # d/dr_m of pi_n^2 (h / phi_n)^2, with h = dv_rx/dx_tx and phi_n = dp_n/dx_tx
    mp = pytest.importorskip("mpmath")
    report = concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    vsc = list(grid.vsc_buses)
    with mp.workdps(40):
        x = {bus: mp.mpf(nominal.x[bus]) for bus in vsc}
        r = {bus: mp.mpf(nominal.r[bus]) for bus in vsc}

        def factor(bus, r):
            def at(x_0):
                return _star_powers(mp, grid, nominal, r, {**x, 0: x_0})
            h, phi = (mp.diff(lambda x_0: at(x_0)[kind][n], x[0]) for kind, n in ((0, 1), (1, bus)))
            return budgets[bus] ** 2 * (h / phi) ** 2

        for bus in sorted(budgets):
            exact = [float(mp.diff(lambda r_m: factor(bus, {**r, m: r_m}), r[m])) for m in vsc]
            # the nominal solve's stopping error: 4.6e-13 of the norm measured
            np.testing.assert_allclose(report.grad_nominal[bus], exact,
                                       rtol=0.0, atol=1e-10 * np.linalg.norm(exact))


@pytest.mark.parametrize("make_grid, rx", [(_radial_feeder, 18), (_meshed_grid, 4)],
                         ids=["radial", "meshed"])
def test_the_nominal_gradient_matches_central_differences(make_grid, rx, monkeypatch):
    # the gradient reads no sample point, and the radial feeder's five
    # converters would make a five-dimensional box: sample none
    grid = make_grid()
    nominal = nominal_droop(grid)
    pi = {bus: 10.0 for bus in grid.vsc_buses}
    monkeypatch.setattr(optimizer, "_band_interior", lambda *args: np.empty((0, len(pi))))
    report = concavity_probe(grid, nominal, pi, tx=0, rx=rx)
    assert report.points == ()
    assert report.nominal_at_box_corner == (make_grid is _meshed_grid)
    for bus, parts in _fd_nominal_gradient(grid, nominal, pi, 0, rx).items():
        # 5.1e-9 (radial) and 4.0e-9 (meshed) of the norm measured; central
        # differences of the whole gain term at step 1e-4 missed by 2.4e-2
        # and 5.1e-3
        assert np.max(np.abs(np.subtract(report.grad_nominal[bus], parts))) <= (
            1e-6 * np.linalg.norm(parts)
        )


def test_concavity_probe_lanes_match_one_way_snr(grid, nominal, budgets, probe_tables):
    concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    table = probe_tables[-1]
    assert len(table.feasible) == 25 * 9  # every stencil, and no lane at nominal
    _, g = optimizer._score(table, budgets)
    for lane in range(len(g)):
        droop = nominal.with_r({bus: float(table.r[bus][lane]) for bus in table.vsc})
        _, expected = one_way_snr(grid, droop, nominal, budgets, 1.0, 0, 1)
        model = linearize(grid, droop, solve_steady_state(grid, droop))
        dp = vr_power_investment(grid, nominal, droop)
        for j, bus in enumerate(table.vsc):
            # one_way_snr scores the lane as the probe does; against the dense
            # model, g = (h / phi)^2 (pi^2 - dp^2)'s gain factor agrees to 1e-9
            # (4e-13 measured), and the investment carries the two solvers'
            # stopping errors, ~4e-8 W
            assert g[lane, j] == expected[bus]
            factor = (model.H[1, 0] / model.Phi[bus, 0]) ** 2
            assert (table.h_rx[lane] / table.phi[lane, j]) ** 2 == pytest.approx(factor, rel=1e-9)
            assert table.dp[lane, j] == pytest.approx(dp[bus], rel=0.0, abs=1e-7)


def test_concavity_probe_scores_its_points_in_batches(
    grid, nominal, budgets, solved_lanes, monkeypatch
):
    def scalar_path(*args, **kwargs):
        raise AssertionError("the concavity probe took a scalar path")

    scalar_solves = []

    def counted(*args, **kwargs):
        scalar_solves.append(args)
        return solve_steady_state(*args, **kwargs)

    for name in ("one_way_snr", "vr_power_investment", "linearize"):
        monkeypatch.setattr(optimizer, name, scalar_path)
    monkeypatch.setattr(optimizer, "solve_steady_state", counted)
    report = concavity_probe(grid, nominal, budgets, tx=0, rx=1)
    assert len(report.points) == 25
    # the viability lane of each converter's default r_max, the band's end,
    # 40 bisection rounds, the box's row ends, 9 rounds of the row bisection,
    # the rows' runs (whose band lanes the probe keeps, solved) and the
    # stencils of every point; the investment Jacobian comes from the
    # channel gains at the nominal point, with no solve of its own
    assert len(solved_lanes) <= 54
    assert sum(solved_lanes) <= 4_000  # 3,763: the box has 30,400 lanes
    assert len(scalar_solves) <= 1  # the nominal operating point
