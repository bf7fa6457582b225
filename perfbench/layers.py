"""Per-layer metrics of powertalk, measured from spans.

Spans are recorded by wrapping public functions where the consuming
module binds them (``BINDINGS``); the package is not changed.  Layers
are named by module.  Private helpers such as ``_channel_table`` are not
timed directly: their cost is the self time of the search span that
calls them, so the metric survives their removal.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from collections import defaultdict
from typing import Any, Dict, Iterator, List

import numpy as np

from perfbench.spans import Span, Tracer, ancestors, self_times


def _solve_many(attrs: Dict[str, Any], batch: Any) -> None:
    feasible = batch.feasible
    attrs.update(
        lanes=int(batch.v.shape[0]),
        buses=int(batch.v.shape[1]),
        sweeps=int(batch.sweeps),
        feasible=int(np.count_nonzero(feasible)),
        max_residual=float(np.max(batch.residual[feasible])) if feasible.any() else 0.0,
    )


def _search(attrs: Dict[str, Any], result: Any) -> None:
    attrs["budget_points"] = len(result) if isinstance(result, list) else 1


def _transmission(attrs: Dict[str, Any], report: Any) -> None:
    attrs["slots"] = int(report.slots_run)


# (consuming module, attribute, span name, annotate)
BINDINGS = (
    ("powertalk.cli", "parse_config", "cli.parse_config", None),
    ("powertalk.cli", "validate_grid", "grid.validate_grid", None),
    ("powertalk.cli", "solve_steady_state", "steady_state.solve", None),
    ("powertalk.cli", "linearize", "channel.linearize", None),
    ("powertalk.cli", "vr_power_investment", "budget.vr_power_investment", None),
    ("powertalk.cli", "run_transmission", "comsim.run_transmission", _transmission),
    ("powertalk.cli", "maximize_snr_grid", "optimizer.search", _search),
    ("powertalk.cli", "capacity_sweep", "optimizer.search", _search),
    ("powertalk.cli", "one_way_snr", "optimizer.one_way_snr", None),
    ("powertalk.optimizer", "solve_steady_state_many", "steady_state.solve_many", _solve_many),
    ("powertalk.optimizer", "solve_steady_state", "steady_state.solve", None),
    ("powertalk.optimizer", "linearize", "channel.linearize", None),
    ("powertalk.optimizer", "vr_power_investment", "budget.vr_power_investment", None),
    ("powertalk.optimizer", "one_way_snr", "optimizer.one_way_snr", None),
    ("powertalk.optimizer", "default_r_max", "optimizer.default_r_max", None),
    ("powertalk.budget", "solve_steady_state", "steady_state.solve", None),
    ("powertalk.comsim", "solve_steady_state", "steady_state.solve", None),
    ("perfbench.workloads", "concavity_probe", "optimizer.concavity_probe", None),
    ("perfbench.workloads", "measure_power_compliance", "comsim.measure_power_compliance", None),
)

# (metric, unit, which direction is better)
PER_LAYER = (
    ("steady_state.solve_many.busy_s", "s", "lower"),
    ("steady_state.solve_many.calls", "count", "lower"),
    ("steady_state.solve_many.lanes", "count", "lower"),
    ("steady_state.solve_many.sweeps", "count", "lower"),
    ("steady_state.solve_many.ns_per_lane_bus_sweep", "ns", "lower"),
    ("steady_state.solve_many.feasible_frac", "ratio", "higher"),
    ("steady_state.solve_many.max_residual_a", "A", "lower"),
    ("steady_state.solve.calls", "count", "lower"),
    ("steady_state.solve.busy_s", "s", "lower"),
    ("steady_state.solve.us_per_call", "us", "lower"),
    ("optimizer.search.self_s", "s", "lower"),
    ("optimizer.search.evaluations", "count", "lower"),
    ("optimizer.search.budget_points", "count", "lower"),
    ("optimizer.search.table_bytes_computed", "B", "lower"),
    ("optimizer.default_r_max.calls", "count", "lower"),
    ("optimizer.default_r_max.busy_s", "s", "lower"),
    ("optimizer.concavity_probe.self_s", "s", "lower"),
    ("channel.linearize.calls", "count", "lower"),
    ("channel.linearize.busy_s", "s", "lower"),
    ("budget.vr_power_investment.calls", "count", "lower"),
    ("budget.vr_power_investment.self_s", "s", "lower"),
    ("optimizer.one_way_snr.calls", "count", "lower"),
    ("comsim.run_transmission.busy_s", "s", "lower"),
    ("comsim.run_transmission.slots", "count", "lower"),
    ("comsim.run_transmission.ns_per_slot", "ns", "lower"),
    ("comsim.measure_power_compliance.busy_s", "s", "lower"),
    ("cli.parse_config.busy_s", "s", "lower"),
    ("grid.validate_grid.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans of every binding in ``BINDINGS`` while the block runs."""
    try:
        for module, attr, name, annotate in BINDINGS:
            tracer.wrap(importlib.import_module(module), attr, name, annotate)
        yield tracer
    finally:
        tracer.restore()


def layer_metrics(spans: List[Span], overhead_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric; a layer the run never entered reads 0."""
    own = self_times(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy(name: str) -> float:
        return sum(spans[i].duration for i in by_name[name])

    def self_s(name: str) -> float:
        return sum(own[i] for i in by_name[name])

    def total(name: str, key: str) -> int:
        return sum(spans[i].attrs[key] for i in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    many = [spans[i] for i in by_name["steady_state.solve_many"]]
    lane_bus_sweeps = sum(s.attrs["lanes"] * s.attrs["buses"] * s.attrs["sweeps"] for s in many)

    evaluations = table_bytes = 0
    for index in by_name["optimizer.search"]:
        for j in by_name["steady_state.solve_many"]:
            if index in ancestors(spans, j):
                lanes, buses = spans[j].attrs["lanes"], spans[j].attrs["buses"]
                evaluations += lanes * spans[index].attrs["budget_points"]
                table_bytes += lanes * buses * buses * 8

    return {
        "steady_state.solve_many.busy_s": busy("steady_state.solve_many"),
        "steady_state.solve_many.calls": calls("steady_state.solve_many"),
        "steady_state.solve_many.lanes": total("steady_state.solve_many", "lanes"),
        "steady_state.solve_many.sweeps": total("steady_state.solve_many", "sweeps"),
        "steady_state.solve_many.ns_per_lane_bus_sweep": ratio(
            1e9 * busy("steady_state.solve_many"), lane_bus_sweeps
        ),
        "steady_state.solve_many.feasible_frac": ratio(
            total("steady_state.solve_many", "feasible"), total("steady_state.solve_many", "lanes")
        ),
        "steady_state.solve_many.max_residual_a": max(
            (s.attrs["max_residual"] for s in many), default=0.0
        ),
        "steady_state.solve.calls": calls("steady_state.solve"),
        "steady_state.solve.busy_s": busy("steady_state.solve"),
        "steady_state.solve.us_per_call": ratio(
            1e6 * busy("steady_state.solve"), calls("steady_state.solve")
        ),
        "optimizer.search.self_s": self_s("optimizer.search"),
        "optimizer.search.evaluations": evaluations,
        "optimizer.search.budget_points": total("optimizer.search", "budget_points"),
        "optimizer.search.table_bytes_computed": table_bytes,
        "optimizer.default_r_max.calls": calls("optimizer.default_r_max"),
        "optimizer.default_r_max.busy_s": busy("optimizer.default_r_max"),
        "optimizer.concavity_probe.self_s": self_s("optimizer.concavity_probe"),
        "channel.linearize.calls": calls("channel.linearize"),
        "channel.linearize.busy_s": busy("channel.linearize"),
        "budget.vr_power_investment.calls": calls("budget.vr_power_investment"),
        "budget.vr_power_investment.self_s": self_s("budget.vr_power_investment"),
        "optimizer.one_way_snr.calls": calls("optimizer.one_way_snr"),
        "comsim.run_transmission.busy_s": busy("comsim.run_transmission"),
        "comsim.run_transmission.slots": total("comsim.run_transmission", "slots"),
        "comsim.run_transmission.ns_per_slot": ratio(
            1e9 * busy("comsim.run_transmission"), total("comsim.run_transmission", "slots")
        ),
        "comsim.measure_power_compliance.busy_s": busy("comsim.measure_power_compliance"),
        "cli.parse_config.busy_s": busy("cli.parse_config"),
        "grid.validate_grid.busy_s": busy("grid.validate_grid"),
        "trace.overhead_s": overhead_s,
    }
