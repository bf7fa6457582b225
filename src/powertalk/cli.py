"""Command-line pipeline: parse a grid document, run a stage, emit tables.

Subcommands cover every pipeline stage: ``solve`` (steady state),
``channel`` (gain matrices), ``budget`` (variance allocation),
``optimize`` (resistance search), ``sweep`` (budget-capacity table) and
``simulate`` (Monte-Carlo transmission).  Outputs are deterministic
given the seed, print every number with 9 significant digits, and go to
stdout plus the ``--out`` file when given.  Exit codes: 0 ok, 2 config
error, 3 numeric failure, 4 infeasible budget.  Set POWERTALK_LOG to a
level name (debug, info, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .budget import BudgetAllocation, allocate_input_variance, vr_power_investment
from .channel import ChannelModel, linearize
from .comsim import SimConfig, run_transmission
from .errors import ConfigError, InfeasibleBudget, NumericError, ParseError, SchemaError
from .grid import Bus, GridSpec, LineSpec, LoadSpec, ValidatedGrid, VscSpec, validate_grid
# one_way_snr is unused here; perfbench/layers.py wraps it under this module's name
from .optimizer import DEFAULT_STEP, capacity_sweep, maximize_snr_grid, one_way_snr
from .steady_state import DroopState, nominal_droop, solve_steady_state

logger = logging.getLogger(__name__)

_LOAD_FIELDS = {"r_cr", "i_cc", "d_cp"}
_VSC_FIELDS = {"x_nom", "r_nom", "r_max", "pi"}
_SIM_FIELDS = {"sigma_z", "seed", "slots"}

SWEEP_COLUMNS = (
    "pi_W",
    "capacity_nominal_bits",
    "capacity_opt_bits",
    "r_a_star_ohm",
    "r_b_star_ohm",
    "snr_nominal",
    "snr_opt",
)


@dataclass(frozen=True)
class SimDefaults:
    """Simulation parameters carried by the grid document."""

    sigma_z: float = 0.01   # [V]
    seed: int = 0
    slots: int = 100_000


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    sim: SimDefaults


# -- document parsing ---------------------------------------------------------

def parse_config(text: str) -> RunConfig:
    """Parse a JSON grid document into a grid spec plus sim defaults.

    The document carries ``buses`` (id, optional load, optional vsc),
    ``lines`` (endpoints with a direct resistance or rho times length)
    and an optional ``sim`` block.  Field names are checked strictly so
    typos surface as :class:`SchemaError` with the offending path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    unknown = set(doc) - {"buses", "lines", "sim"}
    if unknown:
        raise SchemaError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("buses", "lines"):
        if key not in doc:
            raise SchemaError(f"missing required key '{key}'")
        if not isinstance(doc[key], list):
            raise SchemaError(f"'{key}' must be an array")

    buses = tuple(_parse_bus(entry, i) for i, entry in enumerate(doc["buses"]))
    lines = tuple(_parse_line(entry, i) for i, entry in enumerate(doc["lines"]))
    sim = _parse_sim(doc.get("sim", {}))
    return RunConfig(grid=GridSpec(buses=buses, lines=lines), sim=sim)


def serialize(cfg: RunConfig) -> str:
    """Render a config back to a document that parses to an equal config."""
    doc: Dict[str, Any] = {"buses": [], "lines": []}
    for bus in cfg.grid.buses:
        entry: Dict[str, Any] = {"id": bus.id}
        load = {}
        if bus.load.r_cr is not None:
            load["r_cr"] = bus.load.r_cr
        if bus.load.i_cc != 0.0:
            load["i_cc"] = bus.load.i_cc
        if bus.load.d_cp != 0.0:
            load["d_cp"] = bus.load.d_cp
        if load:
            entry["load"] = load
        if bus.vsc is not None:
            vsc = {"x_nom": bus.vsc.x_nom, "r_nom": bus.vsc.r_nom}
            if bus.vsc.r_max is not None:
                vsc["r_max"] = bus.vsc.r_max
            if bus.vsc.pi_budget is not None:
                vsc["pi"] = bus.vsc.pi_budget
            entry["vsc"] = vsc
        doc["buses"].append(entry)
    for line in cfg.grid.lines:
        doc["lines"].append({"a": line.a, "b": line.b, "r": line.r_line})
    doc["sim"] = {
        "sigma_z": cfg.sim.sigma_z,
        "seed": cfg.sim.seed,
        "slots": cfg.sim.slots,
    }
    return json.dumps(doc, indent=2) + "\n"


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


def _parse_bus(entry: Any, index: int) -> Bus:
    path = f"buses[{index}]"
    if not isinstance(entry, dict):
        raise SchemaError(f"{path}: expected an object")
    unknown = set(entry) - {"id", "load", "vsc"}
    if unknown:
        raise SchemaError(f"{path}: unknown fields {sorted(unknown)}")
    if "id" not in entry:
        raise SchemaError(f"{path}: missing required field 'id'")
    bus_id = _require_int(entry["id"], f"{path}.id")

    load_doc = entry.get("load", {})
    if not isinstance(load_doc, dict):
        raise SchemaError(f"{path}.load: expected an object")
    unknown = set(load_doc) - _LOAD_FIELDS
    if unknown:
        raise SchemaError(f"{path}.load: unknown fields {sorted(unknown)}")
    load = LoadSpec(
        r_cr=_require_number(load_doc["r_cr"], f"{path}.load.r_cr") if "r_cr" in load_doc else None,
        i_cc=_require_number(load_doc.get("i_cc", 0.0), f"{path}.load.i_cc"),
        d_cp=_require_number(load_doc.get("d_cp", 0.0), f"{path}.load.d_cp"),
    )

    vsc = None
    if "vsc" in entry:
        vsc_doc = entry["vsc"]
        if not isinstance(vsc_doc, dict):
            raise SchemaError(f"{path}.vsc: expected an object")
        unknown = set(vsc_doc) - _VSC_FIELDS
        if unknown:
            raise SchemaError(f"{path}.vsc: unknown fields {sorted(unknown)}")
        for field in ("x_nom", "r_nom"):
            if field not in vsc_doc:
                raise SchemaError(f"{path}.vsc: missing required field '{field}'")
        vsc = VscSpec(
            x_nom=_require_number(vsc_doc["x_nom"], f"{path}.vsc.x_nom"),
            r_nom=_require_number(vsc_doc["r_nom"], f"{path}.vsc.r_nom"),
            r_max=_require_number(vsc_doc["r_max"], f"{path}.vsc.r_max")
            if "r_max" in vsc_doc
            else None,
            pi_budget=_require_number(vsc_doc["pi"], f"{path}.vsc.pi")
            if "pi" in vsc_doc
            else None,
        )
    return Bus(id=bus_id, load=load, vsc=vsc)


def _parse_line(entry: Any, index: int) -> LineSpec:
    path = f"lines[{index}]"
    if not isinstance(entry, dict):
        raise SchemaError(f"{path}: expected an object")
    unknown = set(entry) - {"a", "b", "r", "rho", "length_km"}
    if unknown:
        raise SchemaError(f"{path}: unknown fields {sorted(unknown)}")
    for field in ("a", "b"):
        if field not in entry:
            raise SchemaError(f"{path}: missing required field '{field}'")
    a = _require_int(entry["a"], f"{path}.a")
    b = _require_int(entry["b"], f"{path}.b")
    direct = "r" in entry
    derived = "rho" in entry or "length_km" in entry
    if direct and derived:
        raise SchemaError(f"{path}: give either 'r' or 'rho'+'length_km', not both")
    if direct:
        return LineSpec(a=a, b=b, r_line=_require_number(entry["r"], f"{path}.r"))
    if "rho" not in entry or "length_km" not in entry:
        raise SchemaError(f"{path}: needs both 'rho' and 'length_km' (or a direct 'r')")
    return LineSpec.from_length(
        a,
        b,
        rho=_require_number(entry["rho"], f"{path}.rho"),
        length_km=_require_number(entry["length_km"], f"{path}.length_km"),
    )


def _parse_sim(doc: Any) -> SimDefaults:
    if not isinstance(doc, dict):
        raise SchemaError("sim: expected an object")
    unknown = set(doc) - _SIM_FIELDS
    if unknown:
        raise SchemaError(f"sim: unknown fields {sorted(unknown)}")
    defaults = SimDefaults()
    return SimDefaults(
        sigma_z=_require_number(doc.get("sigma_z", defaults.sigma_z), "sim.sigma_z"),
        seed=_require_int(doc.get("seed", defaults.seed), "sim.seed"),
        slots=_require_int(doc.get("slots", defaults.slots), "sim.slots"),
    )


# -- output helpers -----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value + 0.0:.9g}"   # +0.0 folds negative zero


def _emit(text: str, out_path: Optional[str]) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)


# -- argument plumbing --------------------------------------------------------

def _load(args: argparse.Namespace) -> Tuple[ValidatedGrid, RunConfig]:
    try:
        with open(args.grid) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {args.grid!r}: {exc}") from exc
    cfg = parse_config(text)
    return validate_grid(cfg.grid), cfg


def _droop(grid: ValidatedGrid, args: argparse.Namespace) -> DroopState:
    droop = nominal_droop(grid)
    override = getattr(args, "r", None)
    if override is None:
        return droop
    values = _float_list(override, "--r")
    if len(values) != len(grid.vsc_buses):
        raise ConfigError(
            f"--r needs one value per converter bus ({len(grid.vsc_buses)}), got {len(values)}"
        )
    return droop.with_r(dict(zip(grid.vsc_buses, values)))


def _link(grid: ValidatedGrid, args: argparse.Namespace) -> Tuple[int, int]:
    vsc = grid.vsc_buses
    if len(vsc) < 2:
        raise ConfigError(f"a link needs two converter buses, the grid has {len(vsc)}")
    tx = args.tx if args.tx is not None else vsc[0]
    rx = args.rx if args.rx is not None else next(b for b in vsc if b != tx)
    grid.check_link(tx, rx)
    return tx, rx


def _float_list(text: str, flag: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _budgets(grid: ValidatedGrid, args: argparse.Namespace) -> Dict[int, float]:
    vsc = grid.vsc_buses
    if args.pi is not None:
        values = _float_list(args.pi, "--pi")
        if len(values) == 1:
            values = values * len(vsc)
        if len(values) != len(vsc):
            raise ConfigError(
                f"--pi needs 1 or {len(vsc)} values (one per converter bus), got {len(values)}"
            )
        return dict(zip(vsc, values))
    nameplate = {bus: grid.vsc(bus).pi_budget for bus in vsc}
    if any(value is None for value in nameplate.values()):
        raise ConfigError("no --pi given and the grid document sets no per-converter budgets")
    return nameplate


def _sigma_z(cfg: RunConfig, args: argparse.Namespace) -> float:
    return args.sigma_z if args.sigma_z is not None else cfg.sim.sigma_z


def _seed(cfg: RunConfig, args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else cfg.sim.seed


def _allocation(
    grid: ValidatedGrid, droop: DroopState, pi: Mapping[int, float], tx: int
) -> Tuple[ChannelModel, BudgetAllocation]:
    """Channel model at ``droop`` and the input variance its budgets allow ``tx``."""
    model = linearize(grid, droop, solve_steady_state(grid, droop))
    dp = vr_power_investment(grid, nominal_droop(grid), droop)
    return model, allocate_input_variance(model.Phi, pi, dp, transmitters={tx})


# -- subcommands --------------------------------------------------------------

def _cmd_solve(args: argparse.Namespace) -> None:
    grid, _ = _load(args)
    droop = _droop(grid, args)
    state = solve_steady_state(grid, droop)
    lines = ["bus,v_V,kappa,i_A,p_W"]
    for bus in range(grid.n):
        i = _fmt(state.i[bus]) if bus in state.i else ""
        p = _fmt(state.p[bus]) if bus in state.p else ""
        lines.append(f"{bus},{_fmt(state.v[bus])},{_fmt(state.kappa[bus])},{i},{p}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_channel(args: argparse.Namespace) -> None:
    grid, _ = _load(args)
    droop = _droop(grid, args)
    state = solve_steady_state(grid, droop)
    model = linearize(grid, droop, state)
    header = ",".join(f"dx_{bus}" for bus in range(grid.n))
    lines = [f"# voltage gains\nbus,{header}"]
    for bus in range(grid.n):
        lines.append(f"{bus}," + ",".join(_fmt(model.H[bus, m]) for m in range(grid.n)))
    lines.append(f"# power gains\nbus,{header}")
    for bus in range(grid.n):
        lines.append(f"{bus}," + ",".join(_fmt(model.Phi[bus, m]) for m in range(grid.n)))
    lines.append("# load correction\nbus,kappa")
    for bus in range(grid.n):
        lines.append(f"{bus},{_fmt(model.K[bus])}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_budget(args: argparse.Namespace) -> None:
    grid, _ = _load(args)
    droop = _droop(grid, args)
    tx, _ = _link(grid, args)
    pi = _budgets(grid, args)
    _, alloc = _allocation(grid, droop, pi, tx)
    lines = ["# input variance per transmitter\nbus,s_V2"]
    for bus in sorted(alloc.s):
        lines.append(f"{bus},{_fmt(alloc.s[bus])}")
    lines.append("# budget rows\nbus,pi_W,dp_vr_W,slack_W2")
    for bus in sorted(pi):
        lines.append(f"{bus},{_fmt(pi[bus])},{_fmt(alloc.dp_vr[bus])},{_fmt(alloc.slack[bus])}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_optimize(args: argparse.Namespace) -> None:
    grid, cfg = _load(args)
    tx, rx = _link(grid, args)
    pi = _budgets(grid, args)
    nominal = nominal_droop(grid)
    result = maximize_snr_grid(grid, nominal, pi, _sigma_z(cfg, args), tx, rx, step=args.step)
    lines = []
    for bus in sorted(result.r_star):
        lines.append(f"r_star_{bus}_ohm={_fmt(result.r_star[bus])}")
    lines.append(f"snr={_fmt(result.snr)}")
    lines.append(f"snr_nominal={_fmt(result.snr_nominal)}")
    lines.append(f"capacity_bits={_fmt(result.capacity)}")
    for bus in sorted(result.g_values):
        lines.append(f"g_{bus}={_fmt(result.g_values[bus])}")
    lines.append(f"step_ohm={_fmt(result.grid_step)}")
    lines.append(f"evaluations={result.evaluations}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    grid, cfg = _load(args)
    tx, rx = _link(grid, args)
    if args.pi is None:
        raise ConfigError("sweep requires --pi with the list of budget points")
    pi_values = _float_list(args.pi, "--pi")
    rows = capacity_sweep(grid, nominal_droop(grid), pi_values, _sigma_z(cfg, args), tx, rx, step=args.step)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                _fmt(value)
                for value in (
                    row.pi,
                    row.capacity_nominal,
                    row.capacity_opt,
                    row.r_star[tx],
                    row.r_star[rx],
                    row.snr_nominal,
                    row.snr_opt,
                )
            )
        )
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_simulate(args: argparse.Namespace) -> None:
    grid, cfg = _load(args)
    droop = _droop(grid, args)
    tx, rx = _link(grid, args)
    sigma_z = _sigma_z(cfg, args)
    model = None
    if args.amplitude is not None:
        amplitude = args.amplitude
    elif args.pi is not None:
        model, alloc = _allocation(grid, droop, _budgets(grid, args), tx)
        amplitude = math.sqrt(alloc.s[tx])
    else:
        raise ConfigError("simulate needs --amplitude or --pi to set the signal level")
    sim = SimConfig(
        slots=args.slots if args.slots is not None else cfg.sim.slots,
        amplitude=amplitude,
        sigma_z=sigma_z,
        mode=args.mode,
        rng_seed=_seed(cfg, args),
        tx=tx,
        rx=rx,
    )
    if sim.mode == "linearized" and model is None:
        model = linearize(grid, droop, solve_steady_state(grid, droop))
    report = run_transmission(grid, droop, model, sim)
    lines = [
        f"amplitude_V={_fmt(amplitude)}",
        f"ber={_fmt(report.ber)}",
        f"ber_ci95={_fmt(report.ber_ci95)}",
        f"snr_empirical={_fmt(report.snr_empirical)}",
    ]
    for bus in sorted(report.p_dev_mean_sq):
        lines.append(f"p_dev_mean_sq_{bus}_W2={_fmt(report.p_dev_mean_sq[bus])}")
    lines.append(f"slots={report.slots_run}")
    _emit("\n".join(lines) + "\n", args.out)


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertalk",
        description="Droop-controlled DC grids as communication channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, r_flag: bool = True) -> None:
        p.add_argument("--grid", required=True, help="grid document path (JSON)")
        p.add_argument("--out", help="also write the output to this file")
        if r_flag:
            p.add_argument("--r", help="virtual resistances, one per converter bus")

    p = sub.add_parser("solve", help="steady-state voltage table")
    common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("channel", help="linearized gain matrices")
    common(p)
    p.set_defaults(handler=_cmd_channel)

    p = sub.add_parser("budget", help="input-variance allocation under power budgets")
    common(p)
    p.add_argument("--pi", help="budgets in watts: one value or one per converter bus")
    p.add_argument("--tx", type=int, help="transmitter bus id")
    p.add_argument("--rx", type=int, help="receiver bus id")
    p.set_defaults(handler=_cmd_budget)

    p = sub.add_parser("optimize", help="virtual-resistance search for best SNR")
    common(p, r_flag=False)
    p.add_argument("--pi", help="budgets in watts: one value or one per converter bus")
    p.add_argument("--sigma-z", type=float, help="observation noise std dev [V]")
    p.add_argument("--step", type=float, default=DEFAULT_STEP, help="search step [ohm]")
    p.add_argument("--tx", type=int, help="transmitter bus id")
    p.add_argument("--rx", type=int, help="receiver bus id")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("sweep", help="budget sweep of nominal vs optimized capacity")
    common(p, r_flag=False)
    p.add_argument("--pi", help="comma-separated budget points [W]")
    p.add_argument("--sigma-z", type=float, help="observation noise std dev [V]")
    p.add_argument("--step", type=float, default=DEFAULT_STEP, help="search step [ohm]")
    p.add_argument("--tx", type=int, help="transmitter bus id")
    p.add_argument("--rx", type=int, help="receiver bus id")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte-Carlo transmission run")
    common(p)
    p.add_argument("--pi", help="budgets in watts, used to derive the amplitude")
    p.add_argument("--amplitude", type=float, help="antipodal deviation [V]")
    p.add_argument("--sigma-z", type=float, help="observation noise std dev [V]")
    p.add_argument("--mode", choices=("nonlinear", "linearized"), default="nonlinear")
    p.add_argument("--slots", type=int, help="number of transmission slots")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--tx", type=int, help="transmitter bus id")
    p.add_argument("--rx", type=int, help="receiver bus id")
    p.set_defaults(handler=_cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    level = os.environ.get("POWERTALK_LOG")
    logging.basicConfig(
        level=getattr(logging, level.upper(), logging.INFO) if level else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except InfeasibleBudget as exc:
        print(f"error: infeasible-budget: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
