import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import (
    InfeasibleBudget,
    InvalidArgument,
    allocate_input_variance,
    solve_steady_state,
    vr_power_investment,
)


def test_investment_is_zero_at_nominal(grid, nominal):
    dp = vr_power_investment(grid, nominal, nominal)
    assert dp == {0: 0.0, 1: 0.0}


def test_investment_signs_when_one_bus_backs_off(grid, nominal):
    # raising r_A shifts supply from bus 0 to bus 1
    dp = vr_power_investment(grid, nominal, nominal.with_r({0: 0.59}))
    assert dp[0] < 0.0 < dp[1]


def test_investment_matches_direct_power_difference(grid, nominal):
    new = nominal.with_r({0: 0.44, 1: 0.48})
    dp = vr_power_investment(grid, nominal, new)
    p_nom = solve_steady_state(grid, nominal).p
    p_new = solve_steady_state(grid, new).p
    for bus in dp:
        assert dp[bus] == pytest.approx(p_new[bus] - p_nom[bus], abs=1e-9)


def test_investment_requires_matching_references(grid, nominal):
    with pytest.raises(ValueError):
        vr_power_investment(grid, nominal, nominal.with_x({0: 401.0}))


def test_single_transmitter_allocation_is_tightest_row(model):
    phi = model.Phi
    pi = {0: 10.0, 1: 10.0}
    alloc = allocate_input_variance(phi, pi, {0: 0.0, 1: 0.0}, transmitters=[0])
    expected = min(pi[n] ** 2 / phi[n, 0] ** 2 for n in (0, 1))
    assert alloc.s[0] == pytest.approx(expected, rel=1e-12)
    assert min(alloc.slack.values()) == pytest.approx(0.0, abs=1e-9)


def test_maxmin_gives_equal_variances_and_binding_row(model):
    alloc = allocate_input_variance(
        model.Phi, {0: 10.0, 1: 10.0}, {0: 0.0, 1: 0.0}, transmitters=[0, 1]
    )
    assert alloc.s[0] == alloc.s[1] > 0.0
    assert min(alloc.slack.values()) == pytest.approx(0.0, abs=1e-9)
    # binding row equality: sum_m phi_nm^2 s = pi^2 on the tightest row
    used = {
        n: sum(model.Phi[n, m] ** 2 * alloc.s[m] for m in (0, 1)) for n in (0, 1)
    }
    binding = min(alloc.slack, key=alloc.slack.get)
    assert used[binding] == pytest.approx(100.0, rel=1e-12)


@settings(max_examples=30)
@given(c=st.floats(min_value=0.1, max_value=10.0))
def test_allocation_scales_with_squared_budget(model, c):
    base = allocate_input_variance(
        model.Phi, {0: 10.0, 1: 10.0}, {0: 0.0, 1: 0.0}, transmitters=[0, 1]
    )
    scaled = allocate_input_variance(
        model.Phi, {0: 10.0 * c, 1: 10.0 * c}, {0: 0.0, 1: 0.0}, transmitters=[0, 1]
    )
    for m in (0, 1):
        assert scaled.s[m] == pytest.approx(base.s[m] * c * c, rel=1e-9)


def test_investment_consumes_headroom(model):
    free = allocate_input_variance(
        model.Phi, {0: 10.0, 1: 10.0}, {0: 0.0, 1: 0.0}, transmitters=[0, 1]
    )
    taxed = allocate_input_variance(
        model.Phi, {0: 10.0, 1: 10.0}, {0: 6.0, 1: 0.0}, transmitters=[0, 1]
    )
    assert taxed.s[0] < free.s[0]


def test_zero_slack_budget_is_feasible_with_zero_variance(model):
    alloc = allocate_input_variance(
        model.Phi, {0: 10.0, 1: 10.0}, {0: 10.0, 1: 0.0}, transmitters=[0, 1]
    )
    assert alloc.s[0] == 0.0


def test_overspent_investment_is_infeasible(model):
    with pytest.raises(InfeasibleBudget):
        allocate_input_variance(
            model.Phi, {0: 10.0, 1: 10.0}, {0: 10.5, 1: 0.0}, transmitters=[0, 1]
        )


def test_allocation_input_validation(model):
    with pytest.raises(ValueError):
        allocate_input_variance(model.Phi, {0: 10.0}, {}, transmitters=[])
    with pytest.raises(ValueError):
        allocate_input_variance(model.Phi, {0: 10.0}, {}, transmitters=[1])


@pytest.mark.parametrize(
    "phi, pi, tx",
    [
        (np.eye(3), {0: 10.0, 7: 10.0}, [0]),
        (np.eye(3), {0: 10.0, 7: 10.0}, [7]),
        (np.eye(3), {-1: 10.0, 0: 10.0}, [0]),
        (np.ones((3, 1)), {0: 10.0, 1: 10.0}, [1]),
        (np.ones(3), {0: 10.0}, [0]),
    ],
    ids=["row-beyond", "transmitter-beyond", "negative-row", "column-beyond", "not-a-matrix"],
)
def test_allocation_rejects_buses_outside_phi(phi, pi, tx):
    # each raised a bare IndexError, or read phi[-1] from the far end
    message = f"budget rows {sorted(pi)} or transmitters {tx} outside phi of {np.shape(phi)}"
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        allocate_input_variance(phi, pi, {}, transmitters=tx)


@pytest.mark.parametrize(
    "where, message",
    [("phi", r"phi\[1, 0\] must be finite, got nan"), ("dp_vr", "dp_vr on bus 1 must be finite, got nan")],
    ids=["phi", "dp_vr"],
)
def test_allocation_rejects_non_finite_gains_and_investments(model, where, message):
    # either raised "no budget row couples to the transmitters"
    phi, dp_vr = model.Phi.copy(), {0: 0.0, 1: 0.0}
    if where == "phi":
        phi[1, 0] = np.nan
    else:
        dp_vr[1] = np.nan
    with pytest.raises(InvalidArgument, match=message):
        allocate_input_variance(phi, {0: 10.0, 1: 10.0}, dp_vr, transmitters=[0])


@pytest.mark.parametrize("tx", [{True}, [0.0], ["0"]])
def test_allocation_reads_transmitters_as_integers(model, tx):
    # {True} raised numpy's bare broadcast ValueError
    with pytest.raises(InvalidArgument, match="transmitter id must be an integer"):
        allocate_input_variance(model.Phi, {0: 10.0, 1: 10.0}, {}, transmitters=tx)
    want = allocate_input_variance(model.Phi, {0: 10.0, 1: 10.0}, {}, transmitters=[0])
    assert allocate_input_variance(model.Phi, {0: 10.0, 1: 10.0}, {}, [np.int64(0)]) == want


def test_uncoupled_rows_are_rejected(model):
    phi = np.zeros_like(model.Phi)
    with pytest.raises(ValueError):
        allocate_input_variance(phi, {0: 10.0, 1: 10.0}, {}, transmitters=[0, 1])
