import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import (
    Bus,
    EmptySearchSpace,
    GridSpec,
    LineSpec,
    LoadSpec,
    VscSpec,
    capacity,
    capacity_sweep,
    channel_gains,
    check_viability,
    concavity_probe,
    default_r_max,
    linearize,
    maximize_snr_grid,
    nominal_droop,
    one_way_snr,
    optimizer,
    solve_steady_state,
    solve_steady_state_many,
    validate_grid,
    vr_power_investment,
    vsc_outputs,
)
from powertalk.optimizer import DEFAULT_STEP

SIGMA_Z = 0.01
BOX = {0: 0.6, 1: 0.7}


def test_capacity_reference_points():
    assert capacity(0.0) == 0.0
    assert capacity(3.0) == pytest.approx(1.0)
    assert capacity(15.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        capacity(-0.5)


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


def test_grid_search_matches_brute_force_loop(grid, nominal, budgets):
    r_max = {0: 0.41, 1: 0.41}
    result = maximize_snr_grid(
        grid, nominal, budgets, SIGMA_Z, tx=0, rx=1, step=0.005, r_max=r_max
    )
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


def test_zero_budget_ties_break_to_nominal(grid, nominal):
    result = maximize_snr_grid(
        grid, nominal, {0: 0.0, 1: 0.0}, SIGMA_Z, 0, 1, r_max={0: 0.42, 1: 0.42}
    )
    assert result.snr == 0.0
    assert result.r_star == {0: 0.39, 1: 0.39}


def test_restricted_search_finds_frozen_optimum(grid, nominal, budgets):
    result = maximize_snr_grid(
        grid, nominal, budgets, SIGMA_Z, 0, 1, r_max={0: 0.6, 1: 0.7}
    )
    assert result.r_star[0] == pytest.approx(0.44)
    assert result.r_star[1] == pytest.approx(0.48)
    assert result.snr == pytest.approx(1.19904669, rel=1e-8)
    assert result.capacity == capacity(result.snr)


def test_empty_search_space_raised(grid, nominal, budgets):
    with pytest.raises(EmptySearchSpace):
        maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 1, r_max={0: 0.2, 1: 0.5})


def test_step_must_be_positive(grid, nominal, budgets):
    with pytest.raises(ValueError):
        maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 1, step=0.0)


def test_sweep_rows_dominate_and_grow(grid, nominal):
    rows = capacity_sweep(
        grid, nominal, [2.0, 10.0], SIGMA_Z, 0, 1, r_max={0: 0.6, 1: 0.7}
    )
    assert [row.pi for row in rows] == [2.0, 10.0]
    for row in rows:
        assert row.capacity_opt >= row.capacity_nominal - 1e-12
    assert rows[1].capacity_nominal > rows[0].capacity_nominal
    assert rows[1].capacity_opt > rows[0].capacity_opt
    assert rows[1].r_star == {0: pytest.approx(0.44), 1: pytest.approx(0.48)}


def test_sweep_input_validation(grid, nominal):
    with pytest.raises(ValueError):
        capacity_sweep(grid, nominal, [], SIGMA_Z, 0, 1)
    with pytest.raises(ValueError):
        capacity_sweep(grid, nominal, [10.0, 5.0], SIGMA_Z, 0, 1, r_max={0: 0.4, 1: 0.4})


def test_default_r_max_caps_on_always_viable_grids(linear_grid):
    nominal = nominal_droop(linear_grid)
    assert default_r_max(linear_grid, nominal, 0) == pytest.approx(10 * 0.39)


def test_default_r_max_bisects_the_viability_boundary():
    # lone converter with a heavy constant-power load: real roots exist only
    # while r <= x**2 / (4 d), here 0.8 ohm
    grid = validate_grid(
        GridSpec(buses=(Bus(0, LoadSpec(d_cp=50_000.0), VscSpec(400.0, 0.39)),), lines=())
    )
    nominal = nominal_droop(grid)
    r_limit = default_r_max(grid, nominal, 0)
    assert 0.6 < r_limit < 0.8
    assert r_limit == pytest.approx(0.9 * 0.8, rel=1e-3)
    droop = nominal.with_r({0: r_limit})
    state = solve_steady_state(grid, droop)
    assert check_viability(grid, droop, state.v) == []


def test_concavity_probe_report_structure(grid, nominal, budgets):
    report = concavity_probe(grid, nominal, budgets, tx=0, rx=1, samples=5)
    assert 1 <= len(report.points) <= 5
    for point in report.points:
        assert point[0] >= 0.39 and point[1] >= 0.39
    assert np.isfinite(report.max_rel_eig)
    assert sorted(report.grad_nominal) == [0, 1]
    assert all(len(parts) == 2 for parts in report.grad_nominal.values())
    # at nominal the investment vanishes, so every partial is nonnegative:
    # the optimum sits above nominal in both coordinates
    assert report.nominal_at_box_corner
    assert report.ok == (not report.violations and report.nominal_at_box_corner)


def test_concavity_probe_validates_inputs(grid, nominal, budgets):
    with pytest.raises(ValueError):
        concavity_probe(grid, nominal, budgets, tx=0, rx=1, samples=0)
    with pytest.raises(ValueError):
        concavity_probe(grid, nominal, budgets, tx=0, rx=0)


# -- the band search against a full-lattice oracle ------------------------------

def _lattice_oracle(grid, nominal, pi, sigma_z, tx, rx, step, r_max):
    """First maximum of the SNR over every point of the lattice, from public kernels.

    Returns the maximizing resistances, the SNR and the gain terms there,
    and the lattice's feasible mask.
    """
    vsc = list(grid.vsc_buses)
    axes = [
        nominal.r[bus]
        + step * np.arange(int(np.floor((r_max[bus] - nominal.r[bus]) / step + 1e-9)) + 1)
        for bus in vsc
    ]
    r = {bus: m.reshape(-1) for bus, m in zip(vsc, np.meshgrid(*axes, indexing="ij"))}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    xr = np.zeros((len(batch.v), grid.n))
    y = np.zeros_like(xr)
    for bus in vsc:
        y[:, bus] = 1.0 / r[bus]
        xr[:, bus] = nominal.x[bus] / r[bus]
    r_bus = 1.0 / (grid.r_cr_inv + grid.g_line.sum(axis=1) + y)
    b = xr + batch.v @ grid.g_line.T - grid.i_cc
    with np.errstate(invalid="ignore", divide="ignore"):
        kappa = 0.5 * (1.0 + b / np.sqrt(b * b - 4.0 * grid.d_cp / r_bus))
    kappa = np.where(grid.d_cp == 0.0, 1.0, kappa)
    h, phi = channel_gains(grid, nominal.x, r, batch.v, kappa, [tx])
    p_nom = solve_steady_state(grid, nominal).p
    _, p = vsc_outputs(grid, nominal.with_r(r), batch.v.T)
    dp = np.stack([p[bus] - p_nom[bus] for bus in vsc], axis=1)
    headroom = np.array([pi[bus] for bus in vsc]) ** 2 - dp**2
    with np.errstate(invalid="ignore", divide="ignore"):
        g = (h[:, rx, 0, None] / phi[:, :, 0]) ** 2 * headroom
        snr = np.min(g, axis=1) / sigma_z**2
    snr = np.where(np.any(headroom < 0.0, axis=1), 0.0, np.maximum(snr, 0.0))
    feasible = batch.feasible & np.all(np.isfinite(kappa), axis=1)
    snr = np.where(feasible, snr, -np.inf)
    best = int(np.argmax(snr))
    r_star = {bus: float(r[bus][best]) for bus in vsc}
    return r_star, float(snr[best]), {bus: float(g[best, j]) for j, bus in enumerate(vsc)}, feasible


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


def _assert_matches_oracle(result, oracle):
    r_star, snr, g, _ = oracle
    assert result.r_star == r_star
    assert result.snr == snr
    assert result.g_values == g


@pytest.mark.parametrize("pi", [2.0, 5.0, 10.0, 15.0, 20.0])
def test_band_search_equals_the_full_lattice_on_the_case_study(grid, nominal, pi, solved_lanes):
    budgets = {0: pi, 1: pi}
    result = maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 1, r_max=BOX)
    oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, DEFAULT_STEP, BOX)
    _assert_matches_oracle(result, oracle)
    assert result.evaluations == oracle[3].size  # every lattice point is covered
    assert sum(solved_lanes) < oracle[3].size  # ... but not every one is solved


def test_band_sweep_equals_the_full_lattice_per_budget(grid, nominal):
    pis = [2.0, 5.0, 10.0, 15.0, 20.0]
    rows = capacity_sweep(grid, nominal, pis, SIGMA_Z, 0, 1, r_max=BOX)
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
def test_band_search_equals_the_full_lattice_over_budgets_and_steps(grid, nominal, pi, step):
    budgets = {0: pi, 1: 0.8 * pi}
    result = maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 1, step=step, r_max=BOX)
    _assert_matches_oracle(
        result, _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, step, BOX)
    )


@pytest.mark.parametrize("case", ["zero budget", "past viability", "row check fails"])
def test_band_search_falls_back_to_the_full_lattice(grid, nominal, case, solved_lanes, monkeypatch):
    budgets, step, box = {0: 10.0, 1: 10.0}, DEFAULT_STEP, BOX
    if case == "zero budget":
        budgets = {0: 0.0, 1: 0.0}
    elif case == "past viability":
        step, box = 0.5, {0: 40.0, 1: 40.0}
    else:
        monkeypatch.setattr(optimizer, "_runs_monotone", lambda *args: False)
    result = maximize_snr_grid(grid, nominal, budgets, SIGMA_Z, 0, 1, step=step, r_max=box)
    oracle = _lattice_oracle(grid, nominal, budgets, SIGMA_Z, 0, 1, step, box)
    _assert_matches_oracle(result, oracle)
    feasible = oracle[3]
    assert solved_lanes[-1] == feasible.size  # the last solve is the whole lattice
    if case == "past viability":
        assert not feasible.all()
    if case == "zero budget":
        assert result.r_star == {0: 0.39, 1: 0.39}


def test_default_box_sweep_solves_a_small_share_of_the_lattice(grid, nominal, solved_lanes):
    capacity_sweep(grid, nominal, [2.0, 5.0, 10.0, 15.0, 20.0], SIGMA_Z, 0, 1)
    size = 1
    for bus in grid.vsc_buses:
        span = default_r_max(grid, nominal, bus) - nominal.r[bus]
        size *= int(np.floor(span / DEFAULT_STEP + 1e-9)) + 1
    assert size == 703 * 703
    assert sum(solved_lanes) <= 0.05 * size
