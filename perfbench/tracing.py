"""In-memory span tracing at tilecast's layer boundaries.

A wrapper is installed on the module attribute through which a caller
looks a function up: `harness.run_trial` then calls the traced
`compute_tile_set`, and `dc_solve` calls the traced
`solve_quoted_allocation`, so spans nest the way the calls do. Nothing in
the package itself changes; the originals are restored on exit.

Each span records its name, layer, start, end, the thread CPU time the
call used, parent span and the root span of its call tree (for a trial,
the `run_trial` span), whether the call raised, and counts taken from the
call's arguments and result. Counts are taken after the span's end time,
so they are tracing overhead, not layer time; a call that raised has none.
"""

import math
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    root: int
    name: str
    layer: str
    start: float
    end: float = math.nan
    cpu: float = math.nan
    raised: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; single-threaded, like the pipeline."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, layer, count=None, count_warnings=False):
        """Traced stand-in for fn. count(result, *args, **kwargs) returns a
        dict of counts; count_warnings records how many warnings fn raised
        (they are caught, not shown)."""
        name = fn.__name__

        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            sid = len(self.spans)
            span = Span(sid, parent.sid if parent else None,
                        parent.root if parent else sid, name, layer, 0.0)
            self.spans.append(span)
            self._open.append(span)
            try:
                with (warnings.catch_warnings(record=True) if count_warnings
                      else nullcontext()) as caught:
                    if count_warnings:
                        warnings.simplefilter("always")
                    span.start = time.perf_counter()
                    cpu = time.thread_time()
                    result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.cpu = time.thread_time() - cpu
                span.end = time.perf_counter()
                self._open.pop()
            if count_warnings:
                span.counts["warnings"] = len(caught)
            if count is not None:
                span.counts.update(count(result, *args, **kwargs))
            return result

        traced.__name__ = name
        traced.__wrapped__ = fn
        return traced


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace each (module, attribute, layer, count, count_warnings)
    target with a traced wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, layer, count, count_warnings in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    tracer.wrap(original, layer, count, count_warnings))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Per span id: its duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {s.sid: s.duration - union_length(children[s.sid]) for s in spans}


# ---------------------------------------------------------------------------
# what to trace in tilecast
# ---------------------------------------------------------------------------

def _messages(result, *args, **kwargs):
    return {"messages": len(result)}


def _channel(result, *args, **kwargs):
    return {"bytes": int(result.h.nbytes)}


def _plan(result, *args, **kwargs):
    return {"pairs": int(result.q.size),
            "finite": int(np.isfinite(result.q).sum())}


def _alloc(result, *args, **kwargs):
    return {"iterations": int(result.iterations),
            "gap": float(result.duality_gap),
            "converged": bool(result.converged)}


def _audit(result, *args, **kwargs):
    return {"problems": len(result)}


def _dc(result, *args, **kwargs):
    trace = result.diagnostics["e_trace"]
    return {"inner": int(result.iterations),
            "outer": int(result.diagnostics["outer_iterations"]),
            "e_first": float(trace[0]), "e_last": float(trace[-1])}


def _trial(result, cfg, scheme, trial_index, user_subset=None):
    users = len(cfg.users) if user_subset is None else len(user_subset)
    return {"result": result, "users": users}


def trial_targets():
    """`run_trial` alone, as `run_experiment` looks it up: one span per
    trial, the untraced run's timer."""
    from tilecast import harness
    return [(harness, "run_trial", "harness", _trial, False)]


def tilecast_targets():
    """Every public function the pipeline calls, at each lookup site."""
    from tilecast import dc_solver, harness
    return trial_targets() + [
        (harness, "compute_tile_set", "geometry", None, False),
        (harness, "build_partition", "partition", None, False),
        (harness, "build_messages", "partition", _messages, False),
        (harness, "unicast_messages", "partition", _messages, False),
        (harness, "derive_trial_seed", "channel", None, False),
        (harness, "sample_channel", "channel", _channel, False),
        (harness, "beam_plan_asymptotic", "beamforming", _plan, False),
        (harness, "beam_plan_mrt", "beamforming", _plan, True),
        (harness, "solve_quoted_allocation", "ofdma_alloc", _alloc, False),
        (harness, "complete_allocation", "ofdma_alloc", None, False),
        (harness, "audit_allocation", "ofdma_alloc", _audit, False),
        (harness, "dc_solve", "dc_solver", _dc, False),
        (dc_solver, "initial_point", "dc_solver", None, False),
        (dc_solver, "beam_plan_asymptotic", "beamforming", _plan, False),
        (dc_solver, "beam_plan_mrt", "beamforming", _plan, True),
        (dc_solver, "solve_quoted_allocation", "ofdma_alloc", _alloc, False),
    ]


LAYERS = ("geometry", "partition", "channel", "beamforming", "ofdma_alloc",
          "dc_solver", "harness")

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "geometry.ms": "ms",
    "partition.ms": "ms",
    "partition.messages": "count",
    "channel.ms": "ms",
    "channel.mb_computed": "MB",
    "beamforming.asym_ms": "ms",
    "beamforming.mrt_ms": "ms",
    "beamforming.pairs": "count",
    "beamforming.finite_quote_share": "share",
    "beamforming.mrt_warnings": "count",
    "ofdma_alloc.ms": "ms",
    "ofdma_alloc.calls": "count",
    "ofdma_alloc.dual_iters_mean": "count",
    "ofdma_alloc.gap_mean": "share",
    "ofdma_alloc.converged_share": "share",
    "ofdma_alloc.complete_ms": "ms",
    "ofdma_alloc.audit_ms": "ms",
    "dc_solver.self_ms": "ms",
    "dc_solver.alloc_ms": "ms",
    "dc_solver.beam_ms": "ms",
    "dc_solver.inner_iters_mean": "count",
    "dc_solver.outer_iters_mean": "count",
    "dc_solver.power_drop_db": "dB",
    "harness.self_ms": "ms",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def trial_spans(spans) -> list:
    """The run_trial spans, one per trial, in call order."""
    return [s for s in spans if s.parent is None and s.name == "run_trial"]


def trial_breakdown(spans) -> list:
    """Per run_trial root: (duration, {layer: self time}) in seconds."""
    selft = self_times(spans)
    per_root = defaultdict(lambda: defaultdict(float))
    for s in spans:
        per_root[s.root][s.layer] += selft[s.sid]
    return [(s.duration, dict(per_root[s.sid])) for s in trial_spans(spans)]


def layer_metrics(spans) -> dict:
    """Per-layer numbers over every traced trial.

    Times (`*.ms`, `*_ms`) are self times in ms per trial, averaged over
    all trials of the run, so the seven layers' self times add up to the
    mean trial time. `dc_solver.alloc_ms` and `beam_ms` are the parts of
    ofdma_alloc and beamforming time spent inside `dc_solve`. Counts are
    per trial, `*_mean` per call.
    """
    by_id = {s.sid: s for s in spans}
    roots = {s.sid for s in trial_spans(spans)}
    if not roots:
        raise ValueError("no traced trials")
    live = [s for s in spans if s.root in roots]
    selft = self_times(live)
    n = len(roots)

    def ms(pred):
        return 1e3 * sum(selft[s.sid] for s in live if pred(s)) / n

    def per_trial(key, pred):
        return sum(s.counts.get(key, 0) for s in live if pred(s)) / n

    def in_dc(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "dc_solve":
                return True
        return False

    def named(name):
        return lambda s: s.name == name

    def layer(name):
        return lambda s: s.layer == name

    returned = [s for s in live if not s.raised]
    plans = [s for s in returned if s.layer == "beamforming"]
    allocs = [s for s in returned if s.name == "solve_quoted_allocation"]
    dcs = [s for s in returned if s.name == "dc_solve"]
    pairs = sum(s.counts["pairs"] for s in plans)
    return {
        "geometry.ms": ms(layer("geometry")),
        "partition.ms": ms(layer("partition")),
        "partition.messages": per_trial("messages", layer("partition")),
        "channel.ms": ms(layer("channel")),
        "channel.mb_computed": per_trial("bytes", layer("channel")) / 1e6,
        "beamforming.asym_ms": ms(named("beam_plan_asymptotic")),
        "beamforming.mrt_ms": ms(named("beam_plan_mrt")),
        "beamforming.pairs": pairs / n,
        "beamforming.finite_quote_share":
            sum(s.counts["finite"] for s in plans) / pairs if pairs else 0.0,
        "beamforming.mrt_warnings": per_trial("warnings", layer("beamforming")),
        "ofdma_alloc.ms": ms(layer("ofdma_alloc")),
        "ofdma_alloc.calls":
            sum(s.name == "solve_quoted_allocation" for s in live) / n,
        "ofdma_alloc.dual_iters_mean": _mean(s.counts["iterations"] for s in allocs),
        "ofdma_alloc.gap_mean": _mean(s.counts["gap"] for s in allocs),
        "ofdma_alloc.converged_share": _mean(s.counts["converged"] for s in allocs),
        "ofdma_alloc.complete_ms": ms(named("complete_allocation")),
        "ofdma_alloc.audit_ms": ms(named("audit_allocation")),
        "dc_solver.self_ms": ms(layer("dc_solver")),
        "dc_solver.alloc_ms": ms(lambda s: s.layer == "ofdma_alloc" and in_dc(s)),
        "dc_solver.beam_ms": ms(lambda s: s.layer == "beamforming" and in_dc(s)),
        "dc_solver.inner_iters_mean": _mean(s.counts["inner"] for s in dcs),
        "dc_solver.outer_iters_mean": _mean(s.counts["outer"] for s in dcs),
        "dc_solver.power_drop_db": _mean(
            10.0 * math.log10(s.counts["e_first"] / s.counts["e_last"])
            for s in dcs),
        "harness.self_ms": ms(layer("harness")),
    }
