"""Shared fixtures: the two-converter star grid and its solved artifacts."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from powertalk import (
    Bus,
    GridSpec,
    LineSpec,
    LoadSpec,
    VscSpec,
    case_study,
    linearize,
    nominal_droop,
    solve_steady_state,
    validate_grid,
)

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

# acceptance tests append (criterion, ok, detail) here; printed after the run
ACCEPTANCE_LINES = []


def dense_lines(grid):
    """The (n, n) line conductances 1/r, 0 where no line runs, from the line specs: the oracle."""
    g_line = np.zeros((grid.n, grid.n))
    for line in grid.spec.lines:
        g_line[line.a, line.b] = g_line[line.b, line.a] = 1.0 / line.r_line
    return g_line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid():
    return case_study()


@pytest.fixture(scope="session")
def nominal(grid):
    return nominal_droop(grid)


@pytest.fixture(scope="session")
def state(grid, nominal):
    return solve_steady_state(grid, nominal)


@pytest.fixture(scope="session")
def model(grid, nominal, state):
    return linearize(grid, nominal, state)


@pytest.fixture(scope="session")
def linear_grid():
    """Same star with the constant-power draw removed: exactly linear."""
    return validate_grid(
        GridSpec(
            buses=(
                Bus(0, LoadSpec(), VscSpec(x_nom=400.0, r_nom=0.39)),
                Bus(1, LoadSpec(), VscSpec(x_nom=400.0, r_nom=0.39)),
                Bus(2, LoadSpec(r_cr=50.0)),
            ),
            lines=(
                LineSpec.from_length(0, 2, rho=0.641, length_km=0.3),
                LineSpec.from_length(1, 2, rho=0.641, length_km=1.0),
            ),
        )
    )


@pytest.fixture(scope="session")
def budgets(grid):
    return {bus: 10.0 for bus in grid.vsc_buses}
