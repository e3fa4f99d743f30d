"""The package's export list, and the names the benchmark's tracer looks
up in it."""

import importlib.util
import pathlib
import types
from collections import Counter
from dataclasses import replace

import tilecast
from tilecast import SCHEMES, harness
from tilecast.harness import default_config

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_all_matches_public_names():
    # every name in __all__ resolves, and every public name the package
    # binds (submodules aside) is listed: a deleted function left in
    # __all__, or a new import left out of it, fails here
    for name in tilecast.__all__:
        assert hasattr(tilecast, name), name
    public = {name for name, value in vars(tilecast).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(tilecast.__all__) == public | {"__version__"}
    assert len(tilecast.__all__) == len(set(tilecast.__all__))


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_finds_every_name():
    # perfbench/tracing.py wraps pipeline functions by module attribute
    # and reads diagnostics keys of their results: a renamed or dropped
    # name fails here, and not only in a traced benchmark run
    tracing = load_tracing()
    cfg = replace(default_config(), n_sc=16)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.tilecast_targets()):
        for scheme in SCHEMES:
            harness.run_trial(cfg, scheme, 0)
    assert not any(s.raised for s in tracer.spans)
    assert {s.name for s in tracer.spans} >= {"dc_solve", "initial_point",
                                               "solve_quoted_allocation"}
    metrics = tracing.layer_metrics(tracer.spans)
    assert list(metrics) == list(tracing.LAYER_METRICS)


def test_perfbench_tracer_follows_run_experiment():
    # the benchmark times run_experiment's calls through run_trial with
    # the tracer's own signature for it: a call the tracer cannot take
    # fails here, and each (scheme, sweep point) gets one run_trial span
    tracing = load_tracing()
    cfg = replace(default_config(), n_sc=16, trials=1)
    points = harness.sweep_values(cfg, "k")
    for targets in (tracing.trial_targets(), tracing.tilecast_targets()):
        tracer = tracing.Tracer()
        with tracing.installed(tracer, targets):
            harness.run_experiment(cfg, sweep="k")
        assert not any(s.raised for s in tracer.spans)
        trials = tracing.trial_spans(tracer.spans)
        assert Counter((s.counts["result"].scheme, s.counts["users"])
                       for s in trials) == {
            (scheme, k): 1 for scheme in SCHEMES for _, k in points}
    assert list(tracing.layer_metrics(tracer.spans)) == \
        list(tracing.LAYER_METRICS)
