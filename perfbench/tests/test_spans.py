import math
from pathlib import Path

from powertalk import cli

from perfbench import layers
from perfbench.spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.1", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.5, parent=0),
        Span("leaf", 7.0, 7.5, parent=0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5 - 0.5, 2.0, 1.0, 1.5, 0.5]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("x", 1.0, 5.0, parent=0),
        Span("y", 3.0, 6.0, parent=0),    # overlaps x by 2
        Span("z", 9.0, 12.0, parent=0),   # overhangs the root's end
    ]
    assert math.isclose(self_times(spans)[0], 10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_restores_bindings():
    tracer = Tracer()

    class Module:
        @staticmethod
        def inner():
            return 2

    original = Module.inner
    tracer.wrap(Module, "inner", "inner", lambda attrs, result: attrs.update(result=result))
    with tracer.span("outer"):
        assert Module.inner() == 2
    tracer.restore()
    assert Module.inner is original
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.attrs == {"result": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_tracing_spans_a_cli_call(capsys):
    original = cli.solve_steady_state
    tracer = Tracer()
    with layers.tracing(tracer):
        assert cli.main(["solve", "--grid", str(ROOT / "configs" / "case_study.json")]) == 0
    assert cli.solve_steady_state is original
    metrics = layers.layer_metrics(tracer.spans, overhead_s=0.0)
    assert metrics["steady_state.solve.calls"] == 1
    assert metrics["steady_state.solve_many.calls"] == 0
    assert metrics["cli.parse_config.busy_s"] > 0.0
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
