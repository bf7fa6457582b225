import json

from powertalk import cli, nominal_droop, solve_steady_state

from perfbench.feeder import LATERALS, SPINE_BUSES, feeder_document
from perfbench.workloads import lattice_lanes


def test_same_seed_gives_byte_identical_document():
    assert feeder_document(1) == feeder_document(1)
    assert feeder_document(1) != feeder_document(2)


def test_document_validates_and_solves():
    for seed in (1, 2, 3):
        grid = cli.validate_grid(cli.parse_config(feeder_document(seed)).grid)
        assert grid.n == SPINE_BUSES + LATERALS
        assert grid.vsc_buses == (0, SPINE_BUSES - 1)
        nominal = nominal_droop(grid)
        state = solve_steady_state(grid, nominal)
        assert state.residual <= 1e-10
        assert lattice_lanes(grid, nominal) == 51 * 51


def test_loads_and_lines_stay_in_their_ranges():
    doc = json.loads(feeder_document(7))
    loads = [bus["load"] for bus in doc["buses"] if "load" in bus]
    assert len(loads) == SPINE_BUSES + LATERALS - 2
    assert all(400.0 <= load["r_cr"] <= 1600.0 and 60.0 <= load["d_cp"] <= 180.0 for load in loads)
    assert all(0.05 <= line["length_km"] <= 0.25 for line in doc["lines"])
    assert len(doc["lines"]) == SPINE_BUSES - 1 + LATERALS
