import argparse
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import (
    Bus,
    ConfigError,
    DisconnectedGraph,
    DuplicateLine,
    GridSpec,
    InvalidBudget,
    InvalidGridSpec,
    InvalidLink,
    LineSpec,
    LoadSpec,
    NoConverter,
    NonpositiveResistance,
    SimConfig,
    VscSpec,
    allocate_input_variance,
    capacity_sweep,
    cli,
    concavity_probe,
    maximize_snr_grid,
    measure_power_compliance,
    network_matrices,
    nominal_droop,
    one_way_snr,
    validate_grid,
)
from powertalk.grid import check_budgets

from conftest import dense_lines
from test_steady_state import _case_study_config, _chain, _meshed_grid, _radial_feeder


def star(d_cp=2500.0):
    return GridSpec(
        buses=(
            Bus(0, LoadSpec(), VscSpec(x_nom=400.0, r_nom=0.39)),
            Bus(1, LoadSpec(), VscSpec(x_nom=400.0, r_nom=0.39)),
            Bus(2, LoadSpec(r_cr=50.0, d_cp=d_cp)),
        ),
        lines=(
            LineSpec.from_length(0, 2, rho=0.641, length_km=0.3),
            LineSpec.from_length(1, 2, rho=0.641, length_km=1.0),
        ),
    )


def test_line_from_length_multiplies_out():
    line = LineSpec.from_length(0, 2, rho=0.641, length_km=0.3)
    assert line.r_line == pytest.approx(0.1923)


def test_validate_accepts_the_star():
    grid = validate_grid(star())
    assert grid.n == 3
    assert grid.vsc_buses == (0, 1)
    assert grid.has_vsc(0) and not grid.has_vsc(2)
    assert grid.adjacent == ((2,), (2,), (0, 1))
    assert grid.r_cr_inv[2] == pytest.approx(0.02)
    assert grid.d_cp[2] == 2500.0


def test_bus_ids_must_be_dense_and_ordered():
    spec = GridSpec(
        buses=(
            Bus(0, LoadSpec(), VscSpec(400.0, 0.39)),
            Bus(2, LoadSpec(r_cr=50.0)),
        ),
        lines=(LineSpec(0, 2, 0.19),),
    )
    with pytest.raises(InvalidGridSpec):
        validate_grid(spec)


def test_validated_arrays_are_read_only():
    grid = validate_grid(star())
    for array in (grid.lines.degree, grid.r_cr_inv, grid.i_cc, grid.d_cp):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_line_endpoints_must_exist():
    spec = GridSpec(
        buses=(Bus(0, LoadSpec(), VscSpec(400.0, 0.39)), Bus(1, LoadSpec(r_cr=50.0))),
        lines=(LineSpec(0, 5, 0.19),),
    )
    with pytest.raises(InvalidGridSpec):
        validate_grid(spec)


def test_self_loop_rejected():
    spec = GridSpec(
        buses=(Bus(0, LoadSpec(), VscSpec(400.0, 0.39)), Bus(1, LoadSpec(r_cr=50.0))),
        lines=(LineSpec(1, 1, 0.19),),
    )
    with pytest.raises(InvalidGridSpec):
        validate_grid(spec)


def test_duplicate_line_rejected():
    spec = GridSpec(
        buses=(Bus(0, LoadSpec(), VscSpec(400.0, 0.39)), Bus(1, LoadSpec(r_cr=50.0))),
        lines=(LineSpec(0, 1, 0.19), LineSpec(1, 0, 0.25)),
    )
    with pytest.raises(DuplicateLine):
        validate_grid(spec)


# a subnormal resistance's inverse overflows, so it is as unusable as 0
UNUSABLE_RESISTANCES = (0.0, -0.1, np.inf, np.nan, 1e-320, 10**400)  # 10**400: beyond float


def _two_bus(r_nom=0.39, r_cr=50.0, r_line=0.19):
    return GridSpec(
        buses=(Bus(0, LoadSpec(), VscSpec(400.0, r_nom)), Bus(1, LoadSpec(r_cr=r_cr))),
        lines=(LineSpec(0, 1, r_line),),
    )


def test_nonpositive_line_resistance_rejected():
    for r in UNUSABLE_RESISTANCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonpositiveResistance, match=r"line \(0, 1\) resistance"):
                validate_grid(_two_bus(r_line=r))


def test_nonpositive_droop_resistance_rejected():
    for r in UNUSABLE_RESISTANCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonpositiveResistance, match="bus 0 converter r_nom"):
                validate_grid(_two_bus(r_nom=r))


def test_nonpositive_load_resistance_rejected():
    for r in UNUSABLE_RESISTANCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonpositiveResistance, match="bus 1 load r_cr"):
                validate_grid(_two_bus(r_cr=r))


def _random_grid(data, max_buses=12):
    """A connected grid of 1 to ``max_buses`` buses drawn by hypothesis: a random tree plus
    random chords, its lines in random order and orientation, with random resistances."""
    n = data.draw(st.integers(1, max_buses))
    tree = [(data.draw(st.integers(0, bus - 1)), bus) for bus in range(1, n)]
    extra = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    pairs = set(tree) | {(a, b) for a, b in extra if a < b}
    order = data.draw(st.permutations(sorted(pairs)))
    r = data.draw(st.lists(st.floats(0.01, 5.0), min_size=len(order), max_size=len(order)))
    lines = tuple(LineSpec(*(pair if k % 2 else pair[::-1]), r[k]) for k, pair in enumerate(order))
    buses = (Bus(0, LoadSpec(), VscSpec(400.0, 0.39)),) + tuple(Bus(b) for b in range(1, n))
    return validate_grid(GridSpec(buses=buses, lines=lines))


@given(st.data())
def test_neighbour_lists_ascend_without_a_sort(data):
    # validate_grid appends each bus's neighbours from the sorted (bus,
    # neighbour) pairs, which hold every line in both orders
    grid = _random_grid(data)
    pairs = {(min(line.a, line.b), max(line.a, line.b)) for line in grid.spec.lines}
    for bus, ends in enumerate(grid.adjacent):
        lower, higher = {a for a, b in pairs if b == bus}, {b for a, b in pairs if a == bus}
        assert ends == tuple(sorted(lower | higher))


@given(st.data())
def test_the_line_table_holds_the_line_specs(data):
    # the Laplacian is the slot table scattered back, with degree on the
    # diagonal, and degree adds each bus's lines in ascending neighbour
    # order, the order of a line sum
    grid = _random_grid(data)
    dense = dense_lines(grid)
    laplacian = 0.0 - dense
    laplacian[np.diag_indices(grid.n)] = grid.lines.degree
    assert network_matrices(grid, nominal_droop(grid))[0].tobytes() == laplacian.tobytes()
    for bus, ends in enumerate(grid.adjacent):
        degree = 0.0
        for m in ends:
            degree += dense[bus, m]
        assert grid.lines.degree[bus] == degree, bus


def _quadratic_schedule(grid):
    """Per level, each pivot and its later neighbours, every bus picked by ``min`` over the
    remaining ones in O(n) (so O(n**2) in all): the oracle of the heap in ``validate_grid``."""
    adjacent = [set(ends) for ends in grid.adjacent]
    remaining = set(range(grid.n))
    order, later = [], {}
    while remaining:
        bus = min(remaining, key=lambda b: (len(adjacent[b]), b))
        remaining.remove(bus)
        order.append(bus)
        later[bus] = sorted(adjacent[bus])
        for other in later[bus]:
            adjacent[other].discard(bus)
            adjacent[other].update(m for m in later[bus] if m != other)
    position = {bus: p for p, bus in enumerate(order)}
    height = dict.fromkeys(order, 0)
    for bus in order:
        if later[bus]:
            parent = min(later[bus], key=position.__getitem__)
            height[parent] = max(height[parent], height[bus] + 1)
    return [
        [(bus, later[bus]) for bus in order if height[bus] == h]
        for h in range(max(height.values()) + 1)
    ]


def _assert_schedule_matches_the_quadratic_order(grid):
    ids = np.arange(grid.n)
    want = _quadratic_schedule(grid)
    got = []
    for level in grid.elimination.levels:
        pivot, target = ids[level.pivot].tolist(), ids[level.target].tolist()
        got.append([
            (k, [i for p, i in zip(pivot, target) if p == k]) for k in ids[level.pivots].tolist()
        ])
    assert got == want
    dense = dense_lines(grid)  # a spoke's value is its line's conductance, 0 for fill
    values = [dense[k, i] for level in want for k, ends in level for i in ends]
    assert grid.elimination.values.tolist() == values


@pytest.mark.parametrize(
    "make_grid",
    [_case_study_config, _radial_feeder, _meshed_grid, lambda: _chain(192)],
    ids=["case-study", "feeder", "meshed", "chain-192"],
)
def test_the_schedule_follows_the_quadratic_minimum_degree_order(make_grid):
    _assert_schedule_matches_the_quadratic_order(make_grid())


@settings(max_examples=300)
@given(st.data())
def test_the_schedule_follows_the_quadratic_order_on_random_grids(data):
    _assert_schedule_matches_the_quadratic_order(_random_grid(data, max_buses=30))


def test_disconnected_grid_rejected():
    spec = GridSpec(
        buses=(
            Bus(0, LoadSpec(), VscSpec(400.0, 0.39)),
            Bus(1, LoadSpec(r_cr=50.0)),
            Bus(2, LoadSpec(r_cr=50.0)),
        ),
        lines=(LineSpec(0, 1, 0.19),),
    )
    with pytest.raises(DisconnectedGraph):
        validate_grid(spec)


def test_grid_without_converters_rejected():
    spec = GridSpec(
        buses=(Bus(0, LoadSpec(r_cr=50.0)), Bus(1, LoadSpec(r_cr=20.0))),
        lines=(LineSpec(0, 1, 0.19),),
    )
    with pytest.raises(NoConverter):
        validate_grid(spec)


def test_negative_load_fields_rejected():
    for load in (LoadSpec(r_cr=-1.0), LoadSpec(d_cp=-5.0)):
        spec = GridSpec(
            buses=(Bus(0, LoadSpec(), VscSpec(400.0, 0.39)), Bus(1, load)),
            lines=(LineSpec(0, 1, 0.19),),
        )
        with pytest.raises(InvalidGridSpec):
            validate_grid(spec)


@pytest.mark.parametrize(
    "bus",
    [Bus(1, LoadSpec(i_cc=10**400)), Bus(1, LoadSpec(d_cp=10**400)),
     Bus(1, LoadSpec(), VscSpec(10**400, 0.39)), Bus(1, LoadSpec(), VscSpec(400.0, 0.39, 10**400))],
    ids=["i_cc", "d_cp", "x_nom", "r_max"],
)
def test_an_int_beyond_float_range_is_an_invalid_grid_spec(bus):
    spec = GridSpec(
        buses=(Bus(0, LoadSpec(), VscSpec(400.0, 0.39)), bus), lines=(LineSpec(0, 1, 0.19),)
    )
    with pytest.raises(InvalidGridSpec, match="bus 1"):
        validate_grid(spec)


def test_single_bus_grid_is_valid():
    grid = validate_grid(
        GridSpec(buses=(Bus(0, LoadSpec(d_cp=100.0), VscSpec(400.0, 0.39)),), lines=())
    )
    assert grid.n == 1 and grid.vsc_buses == (0,)


def test_network_matrices_star_values(grid, nominal):
    psi, r_bus = network_matrices(grid, nominal)
    g_ac = 1.0 / 0.1923
    g_bc = 1.0 / 0.641
    assert psi[0, 0] == pytest.approx(g_ac)
    assert psi[1, 1] == pytest.approx(g_bc)
    assert psi[2, 2] == pytest.approx(g_ac + g_bc)
    assert psi[0, 2] == pytest.approx(-g_ac)
    assert psi[0, 1] == 0.0
    # Laplacian rows sum to zero
    assert np.allclose(psi.sum(axis=1), 0.0, atol=1e-12)
    assert r_bus[0] == pytest.approx(1.0 / (1.0 / 0.39 + g_ac))
    assert r_bus[2] == pytest.approx(1.0 / (0.02 + g_ac + g_bc))


def test_vsc_lookup(grid):
    assert grid.vsc(0).x_nom == 400.0
    with pytest.raises(InvalidGridSpec):
        grid.vsc(2)


@pytest.mark.parametrize("bus", [3, 99])
def test_bus_ids_outside_the_grid_host_no_converter(grid, bus):
    assert not grid.has_vsc(bus)
    with pytest.raises(InvalidGridSpec):
        grid.vsc(bus)


@pytest.mark.parametrize("bus", [1.0, 1.5, "0", None])
def test_bus_ids_that_are_not_integers_host_no_converter(grid, bus):
    # they raised a bare TypeError; numpy integers stay ids
    assert grid.has_vsc(np.int64(1)) and not grid.has_vsc(bus)
    with pytest.raises(InvalidLink, match="hosts no converter"):
        grid.check_link(bus, 0)
    with pytest.raises(InvalidBudget, match="hosts no converter"):
        check_budgets({bus: 1.0}, grid)


@pytest.mark.parametrize("tx, rx, message", [
    (True, 1, "bus True hosts no converter"),  # True == 1 named the link not distinct
    (2, 2, "bus 2 hosts no converter"),  # a load bus linked to itself, likewise
    (0, 0, "transmitter and receiver must be distinct buses"),
], ids=["bool-id", "load-bus-self-link", "converter-self-link"])
def test_check_link_names_a_missing_converter_before_a_self_link(grid, tx, rx, message):
    with pytest.raises(InvalidLink, match=f"^{message}$"):
        grid.check_link(tx, rx)


@pytest.mark.parametrize("tx, rx", [(0, 0), (0, 2), (99, 1)], ids=["self-link", "load-bus", "id-99"])
@pytest.mark.parametrize("entry", ["cli", "optimizer", "comsim"])
def test_every_entry_point_checks_the_link_alike(grid, nominal, entry, tx, rx):
    assert issubclass(InvalidLink, ConfigError) and issubclass(InvalidLink, ValueError)
    with pytest.raises(InvalidLink):
        if entry == "cli":
            cli._link(grid, argparse.Namespace(tx=tx, rx=rx))
        elif entry == "optimizer":
            maximize_snr_grid(grid, nominal, {0: 10.0, 1: 10.0}, 0.01, tx, rx)
        else:
            cfg = SimConfig(slots=10, amplitude=0.1, sigma_z=0.01, mode="nonlinear",
                            rng_seed=0, tx=tx, rx=rx)
            cfg.validate(grid)


def _budgets_at(entry, grid, nominal, model, pi):
    """Hand the budgets ``pi`` to one entry point of the package."""
    cfg = SimConfig(
        slots=10, amplitude=0.1, sigma_z=0.01, mode="nonlinear", rng_seed=0, tx=0, rx=1
    )
    if entry == "search":
        maximize_snr_grid(grid, nominal, pi, 0.01, 0, 1)
    elif entry == "sweep":
        capacity_sweep(grid, nominal, [pi[0]], 0.01, 0, 1)
    elif entry == "one_way_snr":
        one_way_snr(grid, nominal, nominal, pi, 0.01, 0, 1)
    elif entry == "probe":
        concavity_probe(grid, nominal, pi, 0, 1)
    elif entry == "allocation":
        allocate_input_variance(model.Phi, pi, {}, transmitters=[0])
    elif entry == "compliance":
        measure_power_compliance(grid, nominal, cfg, pi)
    else:
        bus = replace(grid.buses[0], vsc=replace(grid.buses[0].vsc, pi_budget=pi[0]))
        validate_grid(replace(grid.spec, buses=(bus, *grid.buses[1:])))


@pytest.mark.parametrize(
    "value",
    [-10.0, float("nan"), float("inf"), 1e155],
    ids=["negative", "nan", "inf", "square-overflows"],
)
@pytest.mark.parametrize(
    "entry", ["search", "sweep", "one_way_snr", "probe", "allocation", "compliance", "nameplate"]
)
def test_every_entry_point_checks_the_budget_values_alike(grid, nominal, model, entry, value):
    assert issubclass(InvalidBudget, ConfigError) and issubclass(InvalidBudget, ValueError)
    with pytest.raises(InvalidBudget, match="budget on bus 0 must be finite and nonnegative"):
        _budgets_at(entry, grid, nominal, model, {0: value, 1: 10.0})


@pytest.mark.parametrize("entry", ["search", "one_way_snr", "probe", "compliance"])
def test_every_entry_point_rejects_a_budget_on_a_load_bus(grid, nominal, model, entry):
    with pytest.raises(InvalidBudget, match="budget on bus 2: the bus hosts no converter"):
        _budgets_at(entry, grid, nominal, model, {0: 10.0, 1: 10.0, 2: 10.0})


@given(
    n_extra=st.integers(min_value=0, max_value=5),
    r_lines=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=6, max_size=6),
)
def test_chain_grids_always_validate(n_extra, r_lines):
    # converter head followed by a chain of resistive loads stays connected
    buses = [Bus(0, LoadSpec(), VscSpec(400.0, 0.5))]
    lines = []
    for k in range(n_extra):
        buses.append(Bus(k + 1, LoadSpec(r_cr=30.0)))
        lines.append(LineSpec(k, k + 1, r_lines[k]))
    grid = validate_grid(GridSpec(buses=tuple(buses), lines=tuple(lines)))
    assert grid.n == n_extra + 1
    droop = nominal_droop(grid)
    psi, r_bus = network_matrices(grid, droop)
    assert np.all(r_bus > 0.0)
    assert np.allclose(psi, psi.T)
