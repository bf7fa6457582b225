import math

import pytest

import powertalk


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
        lambda grid, nominal: powertalk.run_transmission(
            grid, nominal, None,
            powertalk.SimConfig(slots=10, amplitude=0.04, sigma_z=0.01, mode="linearized",
                                rng_seed=1, tx=0, rx=1),
        ),
        # a subnormal resistance, whose inverse overflows
        lambda grid, nominal: powertalk.single_bus_channel(
            [powertalk.VscSpec(400.0, 1e-320)], powertalk.LoadSpec()
        ),
        lambda grid, nominal: powertalk.single_bus_channel(
            [powertalk.VscSpec(400.0, 0.39)], powertalk.LoadSpec(r_cr=1e-320)
        ),
        # a channel model built at the nominal droop, run at another
        lambda grid, nominal: powertalk.run_transmission(
            grid, nominal.with_r({0: 0.44, 1: 0.48}),
            powertalk.linearize(grid, nominal, powertalk.solve_steady_state(grid, nominal)),
            powertalk.SimConfig(slots=10, amplitude=0.04, sigma_z=0.01, mode="linearized",
                                rng_seed=1, tx=0, rx=1),
        ),
        lambda grid, nominal: powertalk.capacity(-1.0),
        lambda grid, nominal: powertalk.solve_steady_state(grid, nominal, method="secant"),
    ],
    ids=["investment-references", "single-bus-no-units", "single-bus-nan-resistance",
         "linearized-without-model", "single-bus-subnormal-r-nom", "single-bus-subnormal-r-cr",
         "linearized-model-of-another-droop", "negative-snr", "unknown-method"],
)
def test_library_input_checks_raise_invalid_argument(grid, nominal, call):
    with pytest.raises(powertalk.InvalidArgument):
        call(grid, nominal)
