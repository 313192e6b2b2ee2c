"""Unit tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import re

import pytest

import calibration
import harness
import inputs
import layers
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- the tail-percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    ("count", "percentile"), [(100, 90.0), (1000, 99.0), (24, 100 * (1 - 10 / 24))]
)
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile):
    assert harness.tail_percentile(count) == pytest.approx(percentile)
    samples = list(range(count))
    value = harness.tail_value(samples)
    assert sum(1 for sample in samples if sample > value) == harness.TAIL_BEYOND


def test_tail_value_ignores_input_order():
    samples = [float(x) for x in range(100)]
    assert harness.tail_value(list(reversed(samples))) == 89.0


@pytest.mark.parametrize("count", [0, 5, 10])
def test_tail_needs_more_than_ten_samples(count):
    with pytest.raises(ValueError):
        harness.tail_value(list(range(count)))


# -- self-time arithmetic ------------------------------------------------------


def _span(span_id, start, end, parent=None):
    return [span_id, f"s{span_id}", start, end, parent, None]


def test_overlapping_children_are_subtracted_once():
    spans_ = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps span 2
        _span(4, 8.0, 12.0, parent=1),  # sticks out of the parent
        _span(5, 1.5, 2.0, parent=2),  # grandchild: only span 2 loses it
    ]
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)


def test_nested_children_count_once():
    assert spans.covered((0.0, 10.0), [(2.0, 8.0), (3.0, 4.0), (5.0, 6.0)]) == 6.0
    assert spans.covered((0.0, 10.0), []) == 0.0
    assert spans.covered((0.0, 1.0), [(2.0, 3.0)]) == 0.0


def test_recorder_links_parents_by_context_and_anchor():
    recorder = spans.SpanRecorder()

    def inner(key):
        return key

    traced_inner = recorder.wrap(inner, "inner", anchor_in=lambda key: key)

    def outer(key):
        recorder.anchor(key)
        return traced_inner(key)

    recorder.wrap(outer, "outer", request=lambda key: f"r-{key}")("k")
    # Outside any span, the anchor is gone: a root span again.
    traced_inner("k")
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[1], []).append(span)
    (outer_span,) = by_name["outer"]
    linked, unlinked = by_name["inner"]
    assert linked[4] == outer_span[0] and linked[5] == "r-k"
    assert unlinked[4] is None
    summary = recorder.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


# -- determinism -------------------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    assert inputs.sweep_items(7, 2) == inputs.sweep_items(7, 2)
    assert inputs.sweep_items(7, 2) != inputs.sweep_items(8, 2)
    cold = [inputs.encode(r) for r in inputs.cold_requests(7)]
    assert cold == [inputs.encode(r) for r in inputs.cold_requests(7)]
    assert cold != [inputs.encode(r) for r in inputs.cold_requests(8)]
    assert len(set(cold)) == len(cold) == 100

    first, again = inputs.hot_inputs(7), inputs.hot_inputs(7)
    lines = [inputs.encode(r) for r in first.warmup + first.timed]
    assert lines == [inputs.encode(r) for r in again.warmup + again.timed]
    schedule = inputs.hot_schedule(7, "low", 300.0, 50, first)
    assert schedule == inputs.hot_schedule(7, "low", 300.0, 50, again)
    assert schedule != inputs.hot_schedule(8, "low", 300.0, 50, first)


def test_sweep_set_is_a_quarter_lock_injected():
    items = inputs.sweep_universe(2)
    assert len(items) == 24 and sum(item.locked for item in items) == 6
    run_set = inputs.sweep_items(7)
    assert len(run_set) == 12 and sum(item.locked for item in run_set) == 3
    assert sorted(i.item_id for i in run_set) == sorted(
        i.item_id for i in inputs.sweep_items(8)
    )


# -- reference speed -----------------------------------------------------------------


def test_scale_uses_the_median_kernel():
    reference = calibration.REFERENCE_S
    assert calibration.scale([reference] * 3) == pytest.approx(1.0)
    assert calibration.scale([reference, 2 * reference, 9 * reference]) == pytest.approx(0.5)


def test_sweep_figure_is_the_median_over_scaled_passes():
    import sweep

    reference = calibration.REFERENCE_S
    passes = [{"a": 1.0, "b": 4.0}, {"a": 3.0, "b": 4.0}, {"a": 2.0}, {}]
    kernels = [[reference], [2 * reference], [reference], []]
    # Scaled: a -> 1.0, 1.5, 2.0; b -> 4.0, 2.0 (the empty pass is skipped).
    assert sweep.at_reference_speed(passes, kernels) == {
        "a": pytest.approx(1.5),
        "b": pytest.approx(3.0),
    }



# -- metric names --------------------------------------------------------------------


def test_catalogue_matches_benchmark_json():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for name in list(harness.END_TO_END) + list(harness.PER_LAYER):
        assert NAME.fullmatch(name) and len(name) <= 64


def test_every_per_layer_metric_is_emitted(capsys):
    metrics = layers.per_layer_metrics({}, layers.Counters(), {})
    assert set(metrics) == set(harness.PER_LAYER)
    harness.emit_result(correct=True, attempted=1, failed=0, metrics=metrics, trace=True)
    document = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert set(document["metrics"]) == set(harness.PER_LAYER)


def test_emit_refuses_a_partial_metric_set():
    with pytest.raises(RuntimeError):
        harness.emit_result(
            correct=True, attempted=1, failed=0, metrics={"setup_s": 1.0}, trace=False
        )
