import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertalk import (
    ParseError,
    SchemaError,
    case_study,
    case_study_document,
    nominal_droop,
    two_source_closed_form,
    validate_grid,
)
from powertalk import cli
from powertalk.cli import RunConfig, SWEEP_COLUMNS, main, parse_config, serialize

CASE_TEXT = json.dumps(case_study_document())
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(CASE_TEXT)
    return str(path)


@pytest.fixture()
def boxed_grid_file(tmp_path):
    # same star with explicit search bounds and nameplate budgets, so the
    # optimizer commands stay fast and --pi becomes optional
    doc = case_study_document()
    doc["buses"][0]["vsc"].update({"r_max": 0.6, "pi": 10.0})
    doc["buses"][1]["vsc"].update({"r_max": 0.7, "pi": 10.0})
    path = tmp_path / "boxed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_config_reads_the_case_document():
    cfg = parse_config(CASE_TEXT)
    assert len(cfg.grid.buses) == 3
    assert cfg.grid.buses[0].vsc.r_nom == 0.39
    assert cfg.grid.lines[0].r_line == pytest.approx(0.1923)
    assert cfg.sim.sigma_z == 0.01 and cfg.sim.slots == 100_000


def test_parse_config_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line 2, column"):
        parse_config('{\n"buses": }')


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("[]", "top level"),
        ('{"buses": [], "lines": [], "extra": 1}', "unknown top-level"),
        ('{"lines": []}', "missing required key 'buses'"),
        ('{"buses": {}, "lines": []}', "'buses' must be an array"),
        ('{"buses": [{"id": 0, "x": 1}], "lines": []}', r"buses\[0\]"),
        ('{"buses": [{}], "lines": []}', "missing required field 'id'"),
        ('{"buses": [{"id": "a"}], "lines": []}', "expected an integer"),
        (
            '{"buses": [{"id": 0, "load": {"r": 5}}], "lines": []}',
            r"buses\[0\].load: unknown fields",
        ),
        (
            '{"buses": [{"id": 0, "vsc": {"x_nom": 400}}], "lines": []}',
            "missing required field 'r_nom'",
        ),
        (
            '{"buses": [{"id": 0, "vsc": {"x_nom": true, "r_nom": 1}}], "lines": []}',
            "expected a number",
        ),
        (
            '{"buses": [], "lines": [{"a": 0, "b": 1, "r": 1, "rho": 1, "length_km": 1}]}',
            "not both",
        ),
        (
            '{"buses": [], "lines": [{"a": 0, "b": 1, "rho": 1}]}',
            "needs both",
        ),
        ('{"buses": [], "lines": [{"b": 1, "r": 1}]}', "missing required field 'a'"),
        ('{"buses": [], "lines": [], "sim": {"sigma": 1}}', "sim: unknown fields"),
        ('{"buses": [], "lines": [], "sim": {"slots": 1.5}}', "expected an integer"),
    ],
)
def test_schema_violations_name_the_offending_path(doc, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_config(doc)


def test_serialize_round_trips_the_case_document():
    cfg = parse_config(CASE_TEXT)
    assert parse_config(serialize(cfg)) == cfg


load_docs = st.fixed_dictionaries(
    {},
    optional={
        "r_cr": st.floats(min_value=1.0, max_value=500.0),
        "i_cc": st.floats(min_value=0.0, max_value=20.0),
        "d_cp": st.floats(min_value=0.0, max_value=5_000.0),
    },
)
vsc_docs = st.fixed_dictionaries(
    {
        "x_nom": st.floats(min_value=100.0, max_value=800.0),
        "r_nom": st.floats(min_value=0.05, max_value=5.0),
    },
    optional={
        "r_max": st.floats(min_value=5.0, max_value=50.0),
        "pi": st.floats(min_value=0.0, max_value=100.0),
    },
)


@settings(max_examples=40)
@given(
    loads=st.lists(load_docs, min_size=1, max_size=4),
    vsc=vsc_docs,
    r_line=st.floats(min_value=0.01, max_value=10.0),
)
def test_serialize_round_trips_random_documents(loads, vsc, r_line):
    buses = [{"id": 0, "vsc": vsc}]
    lines = []
    for k, load in enumerate(loads):
        entry = {"id": k + 1}
        if load:
            entry["load"] = load
        buses.append(entry)
        lines.append({"a": k, "b": k + 1, "r": r_line})
    cfg = parse_config(json.dumps({"buses": buses, "lines": lines}))
    assert parse_config(serialize(cfg)) == cfg


def test_solve_outputs_voltages_matching_the_closed_form(grid_file, capsys):
    assert main(["solve", "--grid", grid_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "bus,v_V,kappa,i_A,p_W"
    assert len(out) == 4
    grid = case_study()
    exact = two_source_closed_form(grid, nominal_droop(grid))
    for bus in range(3):
        fields = out[bus + 1].split(",")
        assert int(fields[0]) == bus
        assert float(fields[1]) == pytest.approx(exact[bus], abs=1e-5)
    assert out[3].endswith(",,")  # load bus: no converter current or power


def test_solve_honors_resistance_overrides(grid_file, capsys):
    assert main(["solve", "--grid", grid_file, "--r", "0.44,0.48"]) == 0
    v_a = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert main(["solve", "--grid", grid_file]) == 0
    v_nom = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert v_a != v_nom


def test_out_file_duplicates_stdout(grid_file, tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    assert main(["solve", "--grid", grid_file, "--out", str(out_path)]) == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_unwritable_out_file_is_a_config_error(grid_file, tmp_path, capsys):
    out_path = tmp_path / "missing" / "table.csv"
    assert main(["solve", "--grid", grid_file, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("bus,v_V")  # the table still reaches stdout
    assert "error: config: cannot write output file" in captured.err
    assert str(out_path) in captured.err


def test_channel_sections_are_labelled(grid_file, capsys):
    assert main(["channel", "--grid", grid_file]) == 0
    out = capsys.readouterr().out
    for section in ("# voltage gains", "# power gains", "# load correction"):
        assert section in out
    gain_row = out.splitlines()[2].split(",")
    assert float(gain_row[1]) == pytest.approx(0.75763077, rel=1e-7)


def test_budget_command_prints_allocation(grid_file, capsys):
    assert main(["budget", "--grid", grid_file, "--pi", "10"]) == 0
    out = capsys.readouterr().out
    assert "# input variance per transmitter" in out
    assert "# budget rows" in out
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    # budget rows carry pi for both converters
    assert any(line.startswith("0,10,0,") for line in rows)


def test_optimize_reports_frozen_optimum(boxed_grid_file, capsys):
    assert main(["optimize", "--grid", boxed_grid_file]) == 0
    out = capsys.readouterr().out
    assert "r_star_0_ohm=0.44" in out
    assert "r_star_1_ohm=0.48" in out
    assert "snr=1.19904669" in out
    assert "snr_nominal=0.908361193" in out


def test_sweep_emits_the_fixed_columns(boxed_grid_file, capsys):
    assert main(["sweep", "--grid", boxed_grid_file, "--pi", "2,10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == ",".join(SWEEP_COLUMNS)
    assert len(out) == 3
    first = out[1].split(",")
    assert float(first[0]) == 2.0
    assert float(first[2]) >= float(first[1])  # optimized capacity dominates


def test_sweep_matches_the_case_study_golden(capsys):
    grid_path = ROOT / "configs" / "case_study.json"
    assert main(["sweep", "--grid", str(grid_path), "--pi", "2,5,10,15,20"]) == 0
    golden = (ROOT / "tests" / "golden" / "capacity_sweep.csv").read_text()
    assert capsys.readouterr().out == golden


def test_simulate_matches_the_seed1_golden(capsys):
    # 1,000,003 slots: 16 chunks, the last one partial
    grid_path = ROOT / "configs" / "case_study.json"
    out = []
    for mode in ("nonlinear", "linearized"):
        argv = ["simulate", "--grid", str(grid_path), "--r", "0.44,0.48", "--pi", "10",
                "--slots", "1000003", "--seed", "1", "--mode", mode]
        assert main(argv) == 0
        out.append(f"# simulate {mode}\n" + capsys.readouterr().out)
    golden = (ROOT / "tests" / "golden" / "simulate_seed1.txt").read_text()
    assert "".join(out) == golden


def test_sweep_requires_budget_points(grid_file, capsys):
    assert main(["sweep", "--grid", grid_file]) == 2
    assert "error: config" in capsys.readouterr().err


def test_simulate_derives_amplitude_from_budgets(grid_file, capsys):
    code = main(
        ["simulate", "--grid", grid_file, "--pi", "10", "--slots", "2000",
         "--mode", "linearized"]
    )
    assert code == 0
    out = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(out["amplitude_V"]) > 0.0
    assert 0.0 <= float(out["ber"]) <= 1.0
    assert out["slots"] == "2000"


def test_simulate_needs_a_signal_level(grid_file, capsys):
    assert main(["simulate", "--grid", grid_file]) == 2
    assert "amplitude" in capsys.readouterr().err


def test_missing_grid_file_is_a_config_error(capsys):
    assert main(["solve", "--grid", "/nonexistent.json"]) == 2
    assert "error: config" in capsys.readouterr().err


def test_malformed_document_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--grid", str(path)]) == 2
    assert "error: config" in capsys.readouterr().err


def test_nonviable_droop_is_a_numeric_error(grid_file, capsys):
    assert main(["solve", "--grid", grid_file, "--r", "3000,3000"]) == 3
    assert "error: numeric" in capsys.readouterr().err


def test_a_diverging_solve_exits_3_at_its_first_sweep_without_warnings(grid_file, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--grid", grid_file, "--r", "1e-300,0.4"]) == 3
    assert capsys.readouterr().err == (
        "error: numeric: gauss_seidel: residual nan A, not finite, after sweep 1\n"
    )


def test_an_infinite_virtual_resistance_exits_2_naming_the_bus(grid_file, capsys):
    assert main(["solve", "--grid", grid_file, "--r", "inf,0.4"]) == 2
    assert "virtual resistance on bus 0 must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_a_subnormal_virtual_resistance_exits_2_without_warnings(grid_file, capsys, command):
    argv = [command, "--grid", grid_file, "--r", "1e-320,0.4"]
    if command == "simulate":
        argv += ["--amplitude", "0.1", "--slots", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "virtual resistance on bus 0 must be positive and finite" in capsys.readouterr().err


def test_exhausted_budget_exits_with_code_4(grid_file, capsys):
    code = main(["budget", "--grid", grid_file, "--r", "0.6,0.39", "--pi", "1"])
    assert code == 4
    assert "error: infeasible-budget" in capsys.readouterr().err


def test_wrong_resistance_count_is_rejected(grid_file, capsys):
    assert main(["solve", "--grid", grid_file, "--r", "0.5"]) == 2
    assert "one value per converter" in capsys.readouterr().err


def test_budgets_fall_back_to_nameplate(boxed_grid_file, capsys):
    assert main(["budget", "--grid", boxed_grid_file]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("0,10,") for line in out.splitlines())


def test_unknown_subcommand_fails_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_per_converter_budget_lists(grid_file, capsys):
    assert main(["budget", "--grid", grid_file, "--pi", "10,20"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("1,20,") for line in out)
    assert main(["budget", "--grid", grid_file, "--pi", "1,2,3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--pi", "10"],
        ["budget", "--pi", "10"],
        ["simulate", "--amplitude", "0.1", "--slots", "10"],
    ],
)
def test_one_converter_grid_has_no_link(tmp_path, capsys, argv):
    doc = {
        "buses": [
            {"id": 0, "vsc": {"x_nom": 400.0, "r_nom": 0.39}},
            {"id": 1, "load": {"r_cr": 50.0}},
        ],
        "lines": [{"a": 0, "b": 1, "r": 0.2}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], "--grid", str(path), *argv[1:]]) == 2
    assert "two converter buses" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--pi", "10", "--tx", "99"],
        ["optimize", "--pi", "10", "--tx", "-1", "--rx", "1"],
        ["budget", "--pi", "10", "--tx", "-1"],
        ["simulate", "--amplitude", "0.1", "--slots", "10", "--tx", "-1", "--rx", "1"],
    ],
)
def test_bus_ids_outside_the_grid_are_config_errors(tmp_path, capsys, argv):
    # the load on bus 0 and converters on buses 1 and 2, so -1 would
    # index the last converter if ids were not range-checked
    doc = {
        "buses": [
            {"id": 0, "load": {"r_cr": 50.0, "d_cp": 2500.0}},
            {"id": 1, "vsc": {"x_nom": 400.0, "r_nom": 0.39}},
            {"id": 2, "vsc": {"x_nom": 400.0, "r_nom": 0.39}},
        ],
        "lines": [{"a": 0, "b": 1, "r": 0.1923}, {"a": 0, "b": 2, "r": 0.641}],
    }
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], "--grid", str(path), *argv[1:]]) == 2
    assert "hosts no converter" in capsys.readouterr().err


def test_linearized_simulate_from_budgets_linearizes_once(grid_file, monkeypatch, capsys):
    calls = []
    original = cli.linearize

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "linearize", counted)
    argv = ["simulate", "--grid", grid_file, "--pi", "10", "--mode", "linearized"]
    assert main([*argv, "--slots", "100"]) == 0
    assert len(calls) == 1


def test_solve_channel_budget_optimize_match_the_case_study_golden(capsys):
    grid_path = str(ROOT / "configs" / "case_study.json")
    out = []
    for argv in (["solve"], ["channel"], ["budget", "--pi", "10"], ["optimize", "--pi", "10"]):
        assert main([argv[0], "--grid", grid_path, *argv[1:]]) == 0
        out.append(f"# {' '.join(argv)}\n" + capsys.readouterr().out)
    golden = (ROOT / "tests" / "golden" / "cli_case_study.txt").read_text()
    assert "".join(out) == golden


# every subcommand's flags as (option, type, default, choices, required)
_GRID = ("--grid", None, None, None, True)
_OUT = ("--out", None, None, None, False)
_R = ("--r", None, None, None, False)
_PI = ("--pi", None, None, None, False)
_SIGMA_Z = ("--sigma-z", float, None, None, False)
_STEP = ("--step", float, 0.005, None, False)
_TX = ("--tx", int, None, None, False)
_RX = ("--rx", int, None, None, False)
CLI_FLAGS = {
    "solve": (_GRID, _OUT, _R),
    "channel": (_GRID, _OUT, _R),
    "budget": (_GRID, _OUT, _R, _PI, _TX, _RX),
    "optimize": (_GRID, _OUT, _PI, _SIGMA_Z, _STEP, _TX, _RX),
    "sweep": (_GRID, _OUT, _PI, _SIGMA_Z, _STEP, _TX, _RX),
    "simulate": (
        _GRID, _OUT, _R, _PI,
        ("--amplitude", float, None, None, False),
        _SIGMA_Z,
        ("--mode", None, "nonlinear", ("nonlinear", "linearized"), False),
        ("--slots", int, None, None, False),
        ("--seed", int, None, None, False),
        _TX, _RX,
    ),
}


def test_every_subcommand_keeps_its_flags():
    sub = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert list(sub.choices) == list(CLI_FLAGS)
    for command, parser in sub.choices.items():
        flags = tuple(
            (
                *action.option_strings,
                action.type,
                action.default,
                None if action.choices is None else tuple(action.choices),
                action.required,
            )
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        )
        assert flags == CLI_FLAGS[command], command


@pytest.mark.parametrize("command", list(CLI_FLAGS))
def test_subcommand_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert "--grid" in capsys.readouterr().out


def test_case_study_grid_document_and_config_file_agree():
    file_cfg = parse_config((ROOT / "configs" / "case_study.json").read_text())
    doc_cfg = parse_config(CASE_TEXT)
    assert file_cfg == doc_cfg
    grids = [case_study(), validate_grid(file_cfg.grid), validate_grid(doc_cfg.grid)]
    for grid in grids[1:]:
        assert grid.spec == grids[0].spec
        assert np.array_equal(grid.g_line, grids[0].g_line)


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["optimize", "--pi", "10", "--sigma-z", "-0.01"], "sigma_z"),
        (["optimize", "--pi", "10", "--sigma-z", "0"], "sigma_z"),
        (["sweep", "--pi", "10", "--sigma-z", "0"], "sigma_z"),
        (["simulate", "--sigma-z", "nan", "--amplitude", "0.04", "--slots", "100"], "sigma_z"),
        (["simulate", "--amplitude", "nan", "--slots", "100"], "amplitude"),
        (["optimize", "--pi", "nan"], "budget on bus 0"),
        (["sweep", "--pi", "2,nan,10"], "budget on bus 0"),
    ],
)
def test_nonfinite_or_out_of_range_settings_are_config_errors(grid_file, capsys, argv, fragment):
    assert main([argv[0], "--grid", grid_file, *argv[1:]]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["budget", "--pi=-10"],
        ["budget", "--pi", "nan"],
        ["simulate", "--pi", "nan", "--slots", "100"],
    ],
    ids=["budget-negative", "budget-nan", "simulate-nan"],
)
def test_invalid_budgets_exit_2_naming_the_budget(grid_file, capsys, argv):
    assert main([argv[0], "--grid", grid_file, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "error: config: budget on bus 0 must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"buses": [{"id": 0, "id": 1}], "lines": %s}'
         % json.dumps(case_study_document()["lines"]), "id"),
        (CASE_TEXT[:-1] + ', "lines": []}', "lines"),
    ],
    ids=["bus-id", "top-level-lines"],
)
def test_a_repeated_key_exits_2_naming_it(tmp_path, capsys, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main(["solve", "--grid", str(path)]) == 2
    assert f"error: config: repeated key '{key}'" in capsys.readouterr().err


def test_an_unexpected_value_error_is_not_a_config_error(grid_file):
    # a fault inside the program (a numpy shape bug, say) keeps its traceback
    script = (
        "import sys\n"
        "from powertalk import cli\n"
        "def fault(*args):\n"
        "    raise ValueError('operands could not be broadcast together')\n"
        "cli.solve_steady_state = fault\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, "solve", "--grid", grid_file],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode not in (0, 2)
    assert "Traceback" in done.stderr and "error: config" not in done.stderr


def test_nonfinite_document_numbers_name_their_path():
    doc = case_study_document()
    doc["sim"]["sigma_z"] = float("nan")
    with pytest.raises(SchemaError, match=r"sim\.sigma_z: expected a finite number"):
        parse_config(json.dumps(doc))


def test_nonpositive_rho_or_length_is_a_schema_error():
    doc = case_study_document()
    doc["lines"][0].update(rho=-0.641, length_km=-0.3)
    with pytest.raises(SchemaError, match=r"lines\[0\]: 'rho' and 'length_km' must be positive"):
        parse_config(json.dumps(doc))
