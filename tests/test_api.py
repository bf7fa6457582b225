import math

import pytest

import powertalk
from powertalk.grid import check_budgets, check_resistances

HUGE = 10**400  # an int beyond float range: float() of it raises OverflowError


def test_every_public_name_resolves_once():
    names = powertalk.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(powertalk, name)]
    assert missing == []


@pytest.mark.parametrize(
    "call",
    [
        lambda grid, nominal: powertalk.vr_power_investment(
            grid, nominal, nominal.with_x({0: 401.0})
        ),
        lambda grid, nominal: powertalk.single_bus_channel([], powertalk.LoadSpec()),
        lambda grid, nominal: powertalk.single_bus_channel(
            [powertalk.VscSpec(400.0, math.nan)], powertalk.LoadSpec()
        ),
        # a subnormal resistance, whose inverse overflows
        lambda grid, nominal: powertalk.single_bus_channel(
            [powertalk.VscSpec(400.0, 1e-320)], powertalk.LoadSpec()
        ),
        lambda grid, nominal: powertalk.single_bus_channel(
            [powertalk.VscSpec(400.0, 0.39)], powertalk.LoadSpec(r_cr=1e-320)
        ),
        lambda grid, nominal: powertalk.capacity(-1.0),
        lambda grid, nominal: powertalk.solve_steady_state(grid, nominal, method="secant"),
        lambda grid, nominal: check_budgets({0: HUGE}),
        lambda grid, nominal: powertalk.maximize_snr_grid(
            grid, nominal, {0: HUGE, 1: 10.0}, 0.01, 0, 1
        ),
        lambda grid, nominal: check_resistances({"r": HUGE}),
        lambda grid, nominal: powertalk.solve_steady_state(grid, nominal.with_r({0: HUGE})),
        lambda grid, nominal: powertalk.solve_steady_state_many(grid, nominal.x, {0: HUGE, 1: 0.4}),
        lambda grid, nominal: powertalk.validate_grid(powertalk.GridSpec(
            grid.spec.buses, (grid.spec.lines[0], powertalk.LineSpec(1, 2, HUGE))
        )),
        lambda grid, nominal: powertalk.one_way_snr(grid, nominal, nominal, {0: 10.0}, HUGE, 0, 1),
        lambda grid, nominal: powertalk.run_transmission(
            grid, nominal,
            powertalk.SimConfig(slots=10, amplitude=HUGE, sigma_z=0.01, mode="nonlinear",
                                rng_seed=1, tx=0, rx=1),
        ),
        # finite gains (1.470, 0.468, 1.238) came back for a negative resistance
        lambda grid, nominal: powertalk.channel_gains(
            grid, nominal.x, {0: -0.39, 1: 0.39},
            powertalk.solve_steady_state(grid, nominal).v[None], [0],
        ),
        lambda grid, nominal: powertalk.channel_gains(
            grid, nominal.x, nominal.with_r({0: HUGE}).r,
            powertalk.solve_steady_state(grid, nominal).v[None], [0],
        ),
        lambda grid, nominal: powertalk.single_bus_channel(
            [powertalk.VscSpec(HUGE, 0.39)], powertalk.LoadSpec()
        ),
        # values that are not numbers raised a bare ValueError or TypeError, or
        # passed the droop check and raised one in the solver
        lambda grid, nominal: check_budgets({0: "abc"}),
        lambda grid, nominal: powertalk.one_way_snr(grid, nominal, nominal, {0: 10.0}, "x", 0, 1),
        lambda grid, nominal: powertalk.capacity_sweep(grid, nominal, ["x"], 0.01, 0, 1),
        lambda grid, nominal: powertalk.maximize_snr_grid(
            grid, nominal, {0: 10.0, 1: 10.0}, 0.01, 0, 1, step="0.01"
        ),
        lambda grid, nominal: powertalk.capacity("1"),
        lambda grid, nominal: powertalk.solve_steady_state(grid, nominal.with_x({0: "400"})),
        # a bool is no bus id: numpy's bare ValueError or IndexError, or a
        # result for bus 1, came back
        lambda grid, nominal: powertalk.one_way_snr(grid, nominal, nominal, {0: 10.0}, 0.01,
                                                    True, 0),
        lambda grid, nominal: powertalk.maximize_snr_grid(
            grid, nominal, {0: 10.0, 1: 10.0}, 0.01, True, 0
        ),
        lambda grid, nominal: powertalk.channel_gains(
            grid, nominal.x, nominal.r, powertalk.solve_steady_state(grid, nominal).v[None], [True],
        ),
        lambda grid, nominal: powertalk.default_r_max(grid, nominal, True),
        lambda grid, nominal: powertalk.run_transmission(
            grid, nominal,
            powertalk.SimConfig(slots=10, amplitude=0.1, sigma_z=0.01, mode="nonlinear",
                                rng_seed=1, tx=True, rx=0),
        ),
        # the droop is scored on the nominal references, so they must match
        lambda grid, nominal: powertalk.one_way_snr(
            grid, nominal.with_x({0: 401.0}), nominal, {0: 10.0}, 0.01, 0, 1
        ),
    ],
    ids=["investment-references", "single-bus-no-units", "single-bus-nan-resistance",
         "single-bus-subnormal-r-nom", "single-bus-subnormal-r-cr", "negative-snr", "unknown-method",
         "huge-int-budget", "huge-int-search-budget", "huge-int-resistance",
         "huge-int-virtual-resistance", "huge-int-batch-resistance", "huge-int-line-resistance",
         "huge-int-sigma-z", "huge-int-amplitude", "channel-negative-resistance",
         "huge-int-channel-resistance", "huge-int-single-bus-x-nom", "string-budget",
         "string-sigma-z", "string-sweep-budget", "string-step", "string-snr",
         "string-reference-voltage", "bool-snr-link", "bool-search-link", "bool-gain-input",
         "bool-r-max-bus", "bool-transmission-link", "snr-references"],
)
def test_library_input_checks_raise_invalid_argument(grid, nominal, call):
    with pytest.raises(powertalk.InvalidArgument):
        call(grid, nominal)


def test_an_int_beyond_float_range_fails_the_check_that_names_it():
    with pytest.raises(powertalk.InvalidBudget, match="budget on bus 0"):
        check_budgets({0: HUGE})
    with pytest.raises(powertalk.NonpositiveResistance, match="finite inverse, got inf$"):
        check_resistances({"r": HUGE})
    with pytest.raises(powertalk.InvalidArgument, match="unit 0 x_nom must be finite, got inf$"):
        powertalk.single_bus_channel([powertalk.VscSpec(HUGE, 0.39)], powertalk.LoadSpec())
