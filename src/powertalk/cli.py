"""Command-line pipeline: parse a grid document, run a stage, emit tables.

Subcommands cover every pipeline stage: ``solve`` (steady state),
``channel`` (gain matrices), ``budget`` (variance allocation),
``optimize`` (resistance search), ``sweep`` (budget-capacity table) and
``simulate`` (Monte-Carlo transmission).  Outputs are deterministic
given the seed, print every number with 9 significant digits, and go to
stdout plus the ``--out`` file when given.  Exit codes: 0 ok, 2 config
error, 3 numeric failure, 4 infeasible budget; any other exception is a
fault and keeps its traceback (exit 1).  Set POWERTALK_LOG to a level
name (debug, info, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .budget import BudgetAllocation, allocate_input_variance, vr_power_investment
from .channel import ChannelModel, linearize
from .comsim import SimConfig, run_transmission
from .errors import ConfigError, InfeasibleBudget, NumericError, ParseError, SchemaError
from .grid import Bus, GridSpec, LineSpec, LoadSpec, ValidatedGrid, VscSpec, validate_grid
# one_way_snr is unused here; perfbench/layers.py wraps it under this module's name
from .optimizer import DEFAULT_STEP, SweepRow, capacity_sweep, maximize_snr_grid, one_way_snr
from .steady_state import DroopState, nominal_droop, solve_steady_state

logger = logging.getLogger(__name__)

SWEEP_COLUMNS = (
    "pi_W", "capacity_nominal_bits", "capacity_opt_bits", "r_a_star_ohm", "r_b_star_ohm",
    "snr_nominal", "snr_opt",
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


# -- document format ----------------------------------------------------------

def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


class _Object(NamedTuple):
    """One object of the grid document and the dataclass it reads into."""

    cls: type
    keys: Dict[str, Tuple[str, Any]]  # document key -> (attribute, _number, _integer or _Object)
    required: Tuple[str, ...] = ()


_LOAD = _Object(
    LoadSpec, {"r_cr": ("r_cr", _number), "i_cc": ("i_cc", _number), "d_cp": ("d_cp", _number)}
)
_VSC = _Object(
    VscSpec,
    {"x_nom": ("x_nom", _number), "r_nom": ("r_nom", _number),
     "r_max": ("r_max", _number), "pi": ("pi_budget", _number)},
    ("x_nom", "r_nom"),
)
_BUS = _Object(
    Bus, {"id": ("id", _integer), "load": ("load", _LOAD), "vsc": ("vsc", _VSC)}, ("id",)
)
# rho and length_km are the arguments of LineSpec.from_length
_LINE = _Object(
    LineSpec,
    {"a": ("a", _integer), "b": ("b", _integer), "r": ("r_line", _number),
     "rho": ("rho", _number), "length_km": ("length_km", _number)},
    ("a", "b"),
)
_SIM = _Object(
    SimDefaults,
    {"sigma_z": ("sigma_z", _number), "seed": ("seed", _integer), "slots": ("slots", _integer)},
)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON grid document into a grid spec plus sim defaults.

    The document carries ``buses`` (id, optional load, optional vsc),
    ``lines`` (endpoints with a direct resistance or rho times length)
    and an optional ``sim`` block.  Field names are checked strictly so
    typos surface as :class:`SchemaError` with the offending path; a
    key repeated within one object is a :class:`SchemaError` too.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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

    buses = tuple(_read(entry, f"buses[{i}]", _BUS) for i, entry in enumerate(doc["buses"]))
    lines = tuple(_parse_line(entry, f"lines[{i}]") for i, entry in enumerate(doc["lines"]))
    sim = _read(doc.get("sim", {}), "sim", _SIM)
    return RunConfig(grid=GridSpec(buses=buses, lines=lines), sim=sim)


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def serialize(cfg: RunConfig) -> str:
    """Render a config back to a document that parses to an equal config.

    Fields equal to their dataclass default are left out, except in the
    ``sim`` block, which is written in full.
    """
    doc = {
        "buses": [_unparse(bus, _BUS) for bus in cfg.grid.buses],
        "lines": [_unparse(line, _LINE) for line in cfg.grid.lines],
        "sim": dataclasses.asdict(cfg.sim),
    }
    return json.dumps(doc, indent=2) + "\n"


def _fields(doc: Any, path: str, obj: _Object) -> Dict[str, Any]:
    """Check one object of the document and read its keys as dataclass attributes."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    unknown = set(doc) - set(obj.keys)
    if unknown:
        raise SchemaError(f"{path}: unknown fields {sorted(unknown)}")
    for key in obj.required:
        if key not in doc:
            raise SchemaError(f"{path}: missing required field '{key}'")
    attrs = {}
    for key, value in doc.items():
        attr, reader = obj.keys[key]
        attrs[attr] = _read(value, f"{path}.{key}", reader)
    return attrs


def _read(value: Any, path: str, reader: Any) -> Any:
    if isinstance(reader, _Object):
        return reader.cls(**_fields(value, path, reader))
    return reader(value, path)


def _unparse(value: Any, obj: _Object) -> Dict[str, Any]:
    """``value`` as a document object, leaving out the fields equal to their default."""
    defaults = {
        f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        for f in dataclasses.fields(value)
    }
    doc = {}
    for key, (attr, reader) in obj.keys.items():
        item = getattr(value, attr, None)
        if attr in defaults and item != defaults[attr]:
            doc[key] = _unparse(item, reader) if isinstance(reader, _Object) else item
    return doc


def _parse_line(entry: Any, path: str) -> LineSpec:
    fields = _fields(entry, path, _LINE)
    if "r_line" in fields:
        if "rho" in fields or "length_km" in fields:
            raise SchemaError(f"{path}: give either 'r' or 'rho'+'length_km', not both")
        return LineSpec(**fields)
    if "rho" not in fields or "length_km" not in fields:
        raise SchemaError(f"{path}: needs both 'rho' and 'length_km' (or a direct 'r')")
    if not (fields["rho"] > 0.0 and fields["length_km"] > 0.0):
        raise SchemaError(
            f"{path}: 'rho' and 'length_km' must be positive, "
            f"got {fields['rho']} and {fields['length_km']}"
        )
    return LineSpec.from_length(**fields)


# -- output helpers -----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value + 0.0:.9g}"   # +0.0 folds negative zero


def _emit(lines: List[str], out_path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out_path!r}: {exc}") from exc


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


def allocation(
    grid: ValidatedGrid, droop: DroopState, pi: Mapping[int, float], tx: int
) -> Tuple[ChannelModel, BudgetAllocation]:
    """Channel model at ``droop`` and the input variance its budgets allow ``tx``."""
    model = linearize(grid, droop, solve_steady_state(grid, droop))
    dp = vr_power_investment(grid, nominal_droop(grid), droop)
    return model, allocate_input_variance(model.Phi, pi, dp, transmitters={tx})


def sweep_table(rows: List[SweepRow], tx: int, rx: int) -> List[str]:
    """The budget-capacity table of a sweep: ``SWEEP_COLUMNS`` and one line per budget point."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        values = (row.pi, row.capacity_nominal, row.capacity_opt, row.r_star[tx], row.r_star[rx],
                  row.snr_nominal, row.snr_opt)
        lines.append(",".join(_fmt(value) for value in values))
    return lines


# -- subcommands --------------------------------------------------------------

def _cmd_solve(args: argparse.Namespace) -> List[str]:
    grid, _ = _load(args)
    droop = _droop(grid, args)
    state = solve_steady_state(grid, droop)
    lines = ["bus,v_V,kappa,i_A,p_W"]
    for bus in range(grid.n):
        i = _fmt(state.i[bus]) if bus in state.i else ""
        p = _fmt(state.p[bus]) if bus in state.p else ""
        lines.append(f"{bus},{_fmt(state.v[bus])},{_fmt(state.kappa[bus])},{i},{p}")
    return lines


def _cmd_channel(args: argparse.Namespace) -> List[str]:
    grid, _ = _load(args)
    droop = _droop(grid, args)
    state = solve_steady_state(grid, droop)
    model = linearize(grid, droop, state)
    header = ",".join(f"dx_{bus}" for bus in range(grid.n))
    lines = []
    for title, gains in (("voltage gains", model.H), ("power gains", model.Phi)):
        lines.append(f"# {title}\nbus,{header}")
        lines += [f"{bus}," + ",".join(_fmt(gain) for gain in gains[bus]) for bus in range(grid.n)]
    lines.append("# load correction\nbus,kappa")
    lines += [f"{bus},{_fmt(kappa)}" for bus, kappa in enumerate(model.K)]
    return lines


def _cmd_budget(args: argparse.Namespace) -> List[str]:
    grid, _ = _load(args)
    droop = _droop(grid, args)
    tx, _ = _link(grid, args)
    pi = _budgets(grid, args)
    _, alloc = allocation(grid, droop, pi, tx)
    lines = ["# input variance per transmitter\nbus,s_V2"]
    lines += [f"{bus},{_fmt(s)}" for bus, s in sorted(alloc.s.items())]
    lines.append("# budget rows\nbus,pi_W,dp_vr_W,slack_W2")
    for bus in sorted(pi):
        lines.append(f"{bus},{_fmt(pi[bus])},{_fmt(alloc.dp_vr[bus])},{_fmt(alloc.slack[bus])}")
    return lines


def _cmd_optimize(args: argparse.Namespace) -> List[str]:
    grid, cfg = _load(args)
    tx, rx = _link(grid, args)
    pi = _budgets(grid, args)
    nominal = nominal_droop(grid)
    result = maximize_snr_grid(grid, nominal, pi, _sigma_z(cfg, args), tx, rx, step=args.step)
    lines = [f"r_star_{bus}_ohm={_fmt(r)}" for bus, r in sorted(result.r_star.items())]
    lines += [f"snr={_fmt(result.snr)}", f"snr_nominal={_fmt(result.snr_nominal)}",
              f"capacity_bits={_fmt(result.capacity)}"]
    lines += [f"g_{bus}={_fmt(g)}" for bus, g in sorted(result.g_values.items())]
    lines += [f"step_ohm={_fmt(result.grid_step)}", f"evaluations={result.evaluations}"]
    return lines


def _cmd_sweep(args: argparse.Namespace) -> List[str]:
    grid, cfg = _load(args)
    tx, rx = _link(grid, args)
    if args.pi is None:
        raise ConfigError("sweep requires --pi with the list of budget points")
    pi_values = _float_list(args.pi, "--pi")
    rows = capacity_sweep(grid, nominal_droop(grid), pi_values, _sigma_z(cfg, args), tx, rx, step=args.step)
    return sweep_table(rows, tx, rx)


def _cmd_simulate(args: argparse.Namespace) -> List[str]:
    grid, cfg = _load(args)
    droop = _droop(grid, args)
    tx, rx = _link(grid, args)
    model = None
    if args.amplitude is not None:
        amplitude = args.amplitude
    elif args.pi is not None:
        model, alloc = allocation(grid, droop, _budgets(grid, args), tx)
        amplitude = math.sqrt(alloc.s[tx])
    else:
        raise ConfigError("simulate needs --amplitude or --pi to set the signal level")
    sim = SimConfig(
        slots=args.slots if args.slots is not None else cfg.sim.slots,
        amplitude=amplitude,
        sigma_z=_sigma_z(cfg, args),
        mode=args.mode,
        rng_seed=args.seed if args.seed is not None else cfg.sim.seed,
        tx=tx,
        rx=rx,
    )
    if sim.mode == "linearized" and model is None:
        model = linearize(grid, droop, solve_steady_state(grid, droop))
    report = run_transmission(grid, droop, model, sim)
    lines = [f"amplitude_V={_fmt(amplitude)}", f"ber={_fmt(report.ber)}",
             f"ber_ci95={_fmt(report.ber_ci95)}", f"snr_empirical={_fmt(report.snr_empirical)}"]
    lines += [
        f"p_dev_mean_sq_{bus}_W2={_fmt(p)}" for bus, p in sorted(report.p_dev_mean_sq.items())
    ]
    lines.append(f"slots={report.slots_run}")
    return lines


# -- entry point --------------------------------------------------------------

# add_argument settings of every flag
_FLAGS: Dict[str, Dict[str, Any]] = {
    "--grid": dict(required=True, help="grid document path (JSON)"),
    "--out": dict(help="also write the output to this file"),
    "--r": dict(help="virtual resistances, one per converter bus"),
    "--pi": dict(help="budgets [W]: one value or one per converter bus; sweep: the budget points"),
    "--amplitude": dict(type=float, help="antipodal deviation [V]"),
    "--sigma-z": dict(type=float, help="observation noise std dev [V]"),
    "--step": dict(type=float, default=DEFAULT_STEP, help="search step [ohm]"),
    "--mode": dict(choices=("nonlinear", "linearized"), default="nonlinear",
                   help="hypothesis means from the solver or from the gain matrix"),
    "--slots": dict(type=int, help="number of transmission slots"),
    "--seed": dict(type=int, help="RNG seed"),
    "--tx": dict(type=int, help="transmitter bus id"),
    "--rx": dict(type=int, help="receiver bus id"),
}

# (name, help, handler, the flags it takes besides --grid and --out)
_COMMANDS = (
    ("solve", "steady-state voltage table", _cmd_solve, "--r"),
    ("channel", "linearized gain matrices", _cmd_channel, "--r"),
    ("budget", "input-variance allocation under power budgets", _cmd_budget, "--r --pi --tx --rx"),
    ("optimize", "virtual-resistance search for best SNR", _cmd_optimize,
     "--pi --sigma-z --step --tx --rx"),
    ("sweep", "budget sweep of nominal vs optimized capacity", _cmd_sweep,
     "--pi --sigma-z --step --tx --rx"),
    ("simulate", "Monte-Carlo transmission run; --pi budgets or --amplitude set the signal",
     _cmd_simulate, "--r --pi --amplitude --sigma-z --mode --slots --seed --tx --rx"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertalk",
        description="Droop-controlled DC grids as communication channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _COMMANDS:
        command = sub.add_parser(name, help=help_text, description=help_text)
        for flag in ("--grid", "--out", *flags.split()):
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(handler=handler)
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
        _emit(args.handler(args), args.out)
    except InfeasibleBudget as exc:
        print(f"error: infeasible-budget: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
