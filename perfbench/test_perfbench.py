"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from tilecast import dc_solver, harness  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert bench.tail(list(range(1, 40))) is None
    assert bench.tail(list(range(1, 41))) == (75.0, 30)
    assert bench.tail(list(range(1, 101))) == (90.0, 90)
    assert bench.tail(list(range(1, 1001))) == (99.0, 990)
    assert bench.tail([5.0] * 200) is None  # ties: nothing lies beyond


def test_describe_timing_prints_median_tail_and_count():
    line = bench.describe_timing("t", [0.001 * v for v in range(1, 41)])
    assert "p50 20.500 ms" in line and "p75 30.000 ms" in line
    assert line.endswith("n=40")
    short = bench.describe_timing("t", [0.001, 0.002, 0.003])
    assert "p50 2.000 ms" in short and "no tail" in short
    assert short.endswith("n=3")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _span(sid, parent, start, end, name="f", layer="x"):
    return tracing.Span(sid, parent, 0, name, layer, start, end)


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)]) == 5.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_is_span_minus_union_of_children():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 5.0),
             _span(3, 0, 7.0, 8.0), _span(4, 0, 9.5, 11.0),
             _span(5, 1, 1.5, 2.5)]
    st = tracing.self_times(spans)
    # children cover [1, 5], [7, 8] and [9.5, 10] once clipped to the parent
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert st[1] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.0)


def test_wrapped_call_that_raises_closes_its_span():
    def boom():
        raise ValueError("no plan")

    tracer = tracing.Tracer()
    traced = tracer.wrap(boom, "x", count=lambda result: {"n": 1})
    with pytest.raises(ValueError):
        traced()
    (span,) = tracer.spans
    assert span.raised and span.counts == {}
    assert span.duration >= 0.0 and span.cpu >= 0.0


def test_installed_restores_originals_on_error():
    originals = {attr: getattr(mod, attr)
                 for mod, attr, *_ in tracing.tilecast_targets()}
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), tracing.tilecast_targets()):
            assert harness.run_trial is not originals["run_trial"]
            raise RuntimeError
    for mod, attr, *_ in tracing.tilecast_targets():
        assert getattr(mod, attr) is originals[attr]


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def test_scale_uses_the_samples_around_the_span():
    meter = bench.Speedometer()
    meter.at = [1.0, 2.0, 3.0, 4.0]
    meter.cpu = [0.004, 0.008, 0.002, 0.006]
    assert meter.scale(2.5, 2.9) == pytest.approx(2 * 0.004 / (0.008 + 0.002))
    assert meter.scale(2.0, 3.0) == pytest.approx(2 * 0.004 / (0.008 + 0.002))
    assert meter.scale(1.5, 3.5) == pytest.approx(2 * 0.004 / (0.004 + 0.006))
    with pytest.raises(ValueError):
        meter.scale(0.5, 1.5)
    with pytest.raises(ValueError):
        meter.scale(3.5, 4.5)


def test_sampling_brackets_every_trial_and_restores_run_trial(runs):
    _, (_, trials, _, meter), _ = runs
    assert harness.run_trial.__module__ == "tilecast.harness"
    assert meter.at[0] <= trials[0].start and meter.at[-1] >= trials[-1].end
    assert all(bench.scaled_s(s, meter) > 0.0 for s in trials)


# ---------------------------------------------------------------------------
# trial count
# ---------------------------------------------------------------------------

def test_trial_count_depends_on_seconds_only():
    w = bench.WORKLOADS["default-5v"]
    assert bench.trial_config(w, 3, 35).trials == 7
    assert bench.trial_config(w, 4, 35) == replace(
        bench.trial_config(w, 3, 35), base_seed=4)
    assert bench.trial_config(w, 3, 1).trials == 1


# ---------------------------------------------------------------------------
# a traced run on the paired fixture
# ---------------------------------------------------------------------------

SCHEMES = ("proposed-dc", "baseline1-unicast")


@pytest.fixture(scope="module")
def runs():
    cfg = replace(bench.paired_pairs_config(1), schemes=SCHEMES)
    untraced = bench.plan(cfg, "k", tracing.trial_targets())
    traced = bench.plan(cfg, "k", tracing.tilecast_targets())
    return cfg, untraced, traced


@pytest.fixture(scope="module")
def traced(runs):
    return runs[2][2]


def test_spans_nest_through_dc_solve(traced):
    spans = traced
    by_id = {s.sid: s for s in spans}

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s.name

    allocs = [s for s in spans if s.name == "solve_quoted_allocation"]
    inside = [s for s in allocs if "dc_solve" in ancestors(s)]
    assert inside, "no allocator call seen inside dc_solve"
    # the start point's allocator call sits under initial_point
    assert any(list(ancestors(s))[:2] == ["initial_point", "dc_solve"]
               for s in inside)
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start <= s.start <= s.end <= p.end
            assert s.root == p.root


def test_layer_self_times_sum_to_each_trial(traced):
    breakdown = tracing.trial_breakdown(traced)
    assert len(breakdown) == 5 * len(SCHEMES)
    for duration, layers in breakdown:
        assert set(layers) <= set(tracing.LAYERS)
        assert sum(layers.values()) == pytest.approx(duration, rel=1e-12)


def test_layer_metrics_cover_every_name(traced):
    spans = traced
    m = tracing.layer_metrics(spans)
    assert list(m) == list(tracing.LAYER_METRICS)
    layer_ms = ("geometry.ms", "partition.ms", "channel.ms",
                "beamforming.asym_ms", "beamforming.mrt_ms",
                "ofdma_alloc.ms", "dc_solver.self_ms", "harness.self_ms")
    mean_trial_ms = 1e3 * sum(d for d, _ in tracing.trial_breakdown(spans)) \
        / len(tracing.trial_breakdown(spans))
    assert sum(m[k] for k in layer_ms) == pytest.approx(mean_trial_ms,
                                                        rel=1e-9)
    assert m["dc_solver.alloc_ms"] <= m["ofdma_alloc.ms"]
    assert m["ofdma_alloc.calls"] > 1.0
    assert 0.0 < m["beamforming.finite_quote_share"] <= 1.0


def test_gate_accepts_the_runs_and_rejects_changes(runs):
    cfg, (text, trials, _, _), (traced_text, traced_trials, _, _) = runs
    assert bench.count_mismatches(cfg, "k", text, trials) == []
    assert bench.count_mismatches(cfg, "k", text, trials[1:])
    assert bench.traced_mismatches(text, trials, traced_text,
                                   traced_trials) == []
    assert bench.replan_mismatches(cfg, "k", text) == []
    row = bench.trial_rows(text, 0)[0]
    changed = text.replace(row, row[:-1] + str((int(row[-1]) + 1) % 10))
    assert bench.replan_mismatches(cfg, "k", changed)
    assert bench.traced_mismatches(changed, trials, traced_text, traced_trials)
    other = trials[::-1]
    assert bench.traced_mismatches(text, other, traced_text, traced_trials)
    assert harness.run_trial.__module__ == "tilecast.harness"
    assert not hasattr(harness.run_trial, "__wrapped__")
    assert not hasattr(dc_solver.solve_quoted_allocation, "__wrapped__")


def test_metrics_come_from_the_timed_calls(runs):
    cfg, (_, trials, _, meter), _ = runs
    assert all(s.cpu > 0.0 for s in trials)
    m = bench.end_to_end(cfg, trials, meter, setup_s=0.5)
    assert set(m) == {"setup_s", "trials_per_s", "served_share"} | {
        f"{kind}.{scheme}" for kind in ("trial_ms_mean", "power_gmean_w")
        for scheme in SCHEMES}
    assert m["served_share"] == (1.0, "share")
    assert all(value > 0.0 for value, _ in m.values())
