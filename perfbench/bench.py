"""tilecast benchmark: closed-loop planning of whole trials, per workload.

One caller plans trial after trial (a closed loop, one process, BLAS on one
thread): the benchmark calls `harness.run_experiment`, the code behind
`tilecast run` and `tilecast audit`, and times each `run_trial` call it
makes. The seed is the scenario's base seed. Each workload plans a fixed
number of trial indices for a given `--seconds`, so every run and every
commit times the same trials. See perfbench/README.md for the metrics and
why each workload is here.
"""

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from tilecast import harness
from tilecast.geometry import TilingConfig, ViewDirection
from tilecast.harness import ScenarioConfig, UserSpec, default_config

import tracing

DEFAULT_SEED = ScenarioConfig.base_seed
# Held out for checking claims: no run made while the benchmark was tuned
# used it.
HELDOUT_SEED = 8675309

SETUP_REPEATS = 9
# CPU seconds the speed kernel takes at the reference speed (about the
# fastest it ran on a 2-core x86-64 machine); times are scaled to it
KERNEL_REF_S = 0.004
# least wall time between two kernel samples during a run
SAMPLE_EVERY_S = 0.1
OUT_DIR = ".perfbench-out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def paired_pairs_config(trials: int) -> ScenarioConfig:
    """Five viewers in two disjoint clusters on a coarse grid, 16 subcarriers
    (the fixture of the ordering and user-count acceptance criteria)."""
    return replace(
        default_config(),
        tiling=TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        users=[UserSpec(ViewDirection(67.5, 67.5), 3),
               UserSpec(ViewDirection(67.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 2)],
        n_sc=16, m=4, trials=trials)


def scale_config() -> ScenarioConfig:
    """The scale-up point: 32 antennas, 256 subcarriers, 60x30 tiles."""
    cfg = default_config()
    return replace(cfg, m=32, n_sc=256,
                   tiling=replace(cfg.tiling, u_h=60, u_v=30))


@dataclass(frozen=True)
class Workload:
    config: ScenarioConfig
    sweep: Optional[str]
    # seconds one trial index (every scheme and sweep point) took on the
    # seed code, on a 2-core x86-64 machine; it turns --seconds into a
    # fixed trial count, the same on every machine and commit
    index_seconds: float


WORKLOADS = {
    "default-5v": Workload(default_config(), None, 5.0),
    "paired-ksweep": Workload(paired_pairs_config(1), "k", 4.4),
    "scale-32x256": Workload(scale_config(), None, 37.0),
}


def trial_config(workload: Workload, seed: int, seconds: float) -> ScenarioConfig:
    """The workload's config for this seed, with as many trial indices as
    fit in `seconds` at the workload's index time (at least one)."""
    trials = max(1, round(seconds / workload.index_seconds))
    return replace(workload.config, base_seed=seed, trials=trials)


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def speed_kernel() -> float:
    """Fixed work of the planner's kind: small numpy arrays and Python
    arithmetic in a loop. It uses no tilecast code, so a change to the
    program cannot change its time."""
    a = np.linspace(0.0, 1.0, 640).reshape(10, 64)
    x = 0.0
    for _ in range(500):
        b = a * 1.0001 + 0.5
        x += float(b.min(axis=0).sum())
        a = np.maximum(b - 0.5, 0.0)
        x += sum(j * j for j in range(30))
    return x


class Speedometer:
    """Samples the speed kernel's CPU time during a run.

    On a shared host the same trial's CPU time changes by up to 2x within
    a minute, and the kernel's time follows it closely, so a trial's time
    is scaled by KERNEL_REF_S over the kernel time around it.
    """

    def __init__(self):
        self.at = []      # perf_counter when each sample ended
        self.cpu = []     # kernel CPU seconds of each sample

    def sample(self):
        start = time.thread_time()
        speed_kernel()
        self.cpu.append(time.thread_time() - start)
        self.at.append(time.perf_counter())

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the mean of the last sample before `start` and
        the first sample after `end`."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        if before < 0 or after == len(self.at):
            raise ValueError("no speed sample on both sides of the span")
        return 2.0 * KERNEL_REF_S / (self.cpu[before] + self.cpu[after])


@contextmanager
def sampling(meter: Speedometer):
    """Sample the speed before, between (at most every SAMPLE_EVERY_S) and
    after the run_trial calls made in the block, outside their spans."""
    original = harness.run_trial

    def run_trial(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            if meter.due():
                meter.sample()

    meter.sample()
    harness.run_trial = run_trial
    try:
        yield meter
    finally:
        harness.run_trial = original
        meter.sample()


def plan(cfg: ScenarioConfig, sweep, targets):
    """run_experiment under a tracer with `targets` installed: (CSV text,
    run_trial spans in call order, all spans, speed samples)."""
    tracer = tracing.Tracer()
    meter = Speedometer()
    with tracing.installed(tracer, targets), sampling(meter):
        text = harness.run_experiment(cfg, sweep=sweep)
    return text, tracing.trial_spans(tracer.spans), tracer.spans, meter


def scaled_s(span, meter: Speedometer) -> float:
    """The span's CPU time at the reference speed."""
    return span.cpu * meter.scale(span.start, span.end)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def trial_rows(text: str, trial: Optional[int] = None) -> list:
    """Per-trial rows of a run_experiment CSV (summary rows dropped), of one
    trial index when `trial` is given."""
    rows = [line for line in text.splitlines()[1:]
            if line.split(",")[3].isdigit()]
    if trial is not None:
        rows = [line for line in rows if line.split(",")[3] == str(trial)]
    return rows


def count_mismatches(cfg: ScenarioConfig, sweep, text: str, trials) -> list:
    """run_experiment must write one row per run_trial call, one call per
    scheme, sweep point and trial index."""
    want = len(cfg.schemes) * len(harness.sweep_values(cfg, sweep)) * cfg.trials
    if len(trial_rows(text)) == len(trials) == want:
        return []
    return [f"{len(trial_rows(text))} trial rows and {len(trials)} run_trial "
            f"calls, expected {want}"]


def replan_mismatches(cfg: ScenarioConfig, sweep, text: str) -> list:
    """Plan trial index 0 again and compare its rows byte for byte."""
    again = harness.run_experiment(replace(cfg, trials=1), sweep=sweep)
    first, second = trial_rows(text, 0), trial_rows(again, 0)
    if first == second:
        return []
    return [f"trial 0 planned twice differs: {a!r} != {b!r}"
            for a, b in zip(first, second) if a != b] or \
        [f"trial 0 planned twice gave {len(first)} and {len(second)} rows"]


def same_result(a, b) -> bool:
    pa, pb = a.total_power_w, b.total_power_w
    same_power = (math.isnan(pa) and math.isnan(pb)) or pa == pb
    return same_power and a.converged == b.converged \
        and a.iterations == b.iterations


def traced_mismatches(text, trials, traced_text, traced_trials) -> list:
    """A traced run must plan exactly what the untraced run planned."""
    problems = []
    if traced_text != text:
        problems.append("traced and untraced run_experiment CSVs differ")
    if len(traced_trials) != len(trials):
        problems.append(f"{len(traced_trials)} traced trials, "
                        f"{len(trials)} untraced")
    for i, (a, b) in enumerate(zip(trials, traced_trials)):
        ra, rb = a.counts["result"], b.counts["result"]
        if not same_result(ra, rb):
            problems.append(f"trial {i} ({ra.scheme}, index {ra.trial_index}): "
                            f"untraced {ra} != traced {rb}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values):
    """The highest of TAIL_PERCENTILES with at least ten samples above its
    value, as (percentile, value); None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        v = nearest_rank(values, p)
        if sum(x > v for x in values) >= 10:
            return p, v
    return None


def describe_timing(name: str, values) -> str:
    ms = [1e3 * v for v in values]
    line = f"{name}: p50 {statistics.median(ms):.3f} ms"
    t = tail(ms)
    if t is None:
        line += " (no tail percentile: under 10 samples beyond p75)"
    else:
        line += f", p{t[0]:g} {t[1]:.3f} ms"
    return line + f", n={len(ms)}"


def of_scheme(trials, scheme: str) -> list:
    return [s for s in trials if s.counts["result"].scheme == scheme]


def end_to_end(cfg, trials, meter: Speedometer, setup_s: float) -> dict:
    """Times are thread CPU time of the run_trial calls at the reference
    speed, over every trial. Power is the geometric mean in W over each
    scheme's trials that serve every viewer and did not fail: fewer viewers
    (paired-ksweep's k < 5) give plans whose power swings more with the
    channel, and at k = 1 every scheme plans the same."""
    times = [scaled_s(s, meter) for s in trials]
    metrics = {"setup_s": (setup_s, "s"),
               "trials_per_s": (len(trials) / sum(times), "1/s")}
    for scheme in cfg.schemes:
        metrics[f"trial_ms_mean.{scheme}"] = (1e3 * statistics.fmean(
            t for s, t in zip(trials, times)
            if s.counts["result"].scheme == scheme), "ms")
    for scheme in cfg.schemes:
        powers = [s.counts["result"].total_power_w
                  for s in of_scheme(trials, scheme)
                  if s.counts["users"] == len(cfg.users)]
        powers = [p for p in powers if math.isfinite(p)]
        if not powers:
            raise SystemExit(f"every {scheme} trial failed; no power to report")
        metrics[f"power_gmean_w.{scheme}"] = (
            math.exp(statistics.fmean(math.log(p) for p in powers)), "W")
    failed = sum(not math.isfinite(s.counts["result"].total_power_w)
                 for s in trials)
    metrics["served_share"] = (1.0 - failed / len(trials), "share")
    return metrics


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(root: str) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": deps["blas"].get("name"),
                 "version": deps["blas"].get("version"),
                 "config": deps["blas"].get("openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(run_py: str, args) -> float:
    """Median over fresh interpreters of the CPU time one takes to start,
    import numpy and tilecast and build the workload's config, at the
    reference speed (the speed kernel runs before and after each)."""
    meter = Speedometer()
    times = []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        start, before = time.perf_counter(), child_cpu_s()
        subprocess.run(
            [sys.executable, run_py, "--setup-probe", "--workload",
             args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, check=True)
        cpu = child_cpu_s() - before
        end = time.perf_counter()
        meter.sample()
        times.append(cpu * meter.scale(start, end))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Time tilecast planning on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"scenario base seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELDOUT_SEED})")
    ap.add_argument("--seconds", type=int, default=35,
                    help="planned length of the timed run; sets the trial "
                         "count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run giving per-layer metrics")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def write_out(root: str, name: str, payload) -> str:
    path = os.path.join(root, OUT_DIR, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return os.path.relpath(path, root)


def trial_record(span, meter: Speedometer) -> dict:
    r = span.counts["result"]
    return {"scheme": r.scheme, "users": span.counts["users"],
            "trial": r.trial_index, "power_w": r.total_power_w,
            "converged": r.converged, "iterations": r.iterations,
            "wall_ms": 1e3 * span.duration, "cpu_ms": 1e3 * span.cpu,
            "ms": 1e3 * scaled_s(span, meter)}


def run_untraced(args, workload, run_py):
    setup_s = measure_setup(run_py, args)
    cfg = trial_config(workload, args.seed, args.seconds)
    text, trials, _, meter = plan(cfg, workload.sweep, tracing.trial_targets())
    problems = count_mismatches(cfg, workload.sweep, text, trials)
    problems += replan_mismatches(cfg, workload.sweep, text)
    metrics = end_to_end(cfg, trials, meter, setup_s)
    for scheme in cfg.schemes:
        print(describe_timing(f"trial_ms.{scheme}",
                              [scaled_s(s, meter)
                               for s in of_scheme(trials, scheme)]))
    return cfg, trials, meter, metrics, problems, {}


def run_traced(args, workload):
    """run_experiment untraced, then traced, each on half of --seconds'
    trials; both must plan the same, and the difference in time is the
    tracing overhead."""
    cfg = trial_config(workload, args.seed, args.seconds / 2.0)
    text, trials, _, meter = plan(cfg, workload.sweep,
                                  tracing.trial_targets())
    traced_text, traced_trials, spans, traced_meter = plan(
        cfg, workload.sweep, tracing.tilecast_targets())
    problems = count_mismatches(cfg, workload.sweep, text, trials)
    problems += traced_mismatches(text, trials, traced_text, traced_trials)
    for duration, layers in tracing.trial_breakdown(spans):
        if abs(sum(layers.values()) - duration) > 1e-9 * max(duration, 1.0):
            problems.append("layer self times do not add up to a trial")
    layer = tracing.layer_metrics(spans)
    metrics = {k: (v, tracing.LAYER_METRICS[k]) for k, v in layer.items()}
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(scaled_s(s, traced_meter) for s in traced_trials)
                 / sum(scaled_s(s, meter) for s in trials) - 1.0), "%")
    dump = [{"sid": s.sid, "parent": s.parent, "root": s.root,
             "name": s.name, "layer": s.layer, "start": s.start,
             "end": s.end, "cpu": s.cpu,
             "counts": {k: v for k, v in s.counts.items() if k != "result"}}
            for s in spans]
    return cfg, traced_trials, traced_meter, metrics, problems, {"spans": dump}


def main(argv, root: str, run_py: str) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        trial_config(workload, args.seed, args.seconds)
        return 0

    env = environment(root)
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        cfg, trials, meter, metrics, problems, extra = run_traced(args, workload)
    else:
        cfg, trials, meter, metrics, problems, extra = run_untraced(
            args, workload, run_py)

    failed = sum(not math.isfinite(s.counts["result"].total_power_w)
                 for s in trials)
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{cfg.trials} trial indices, {len(trials)} trials, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"MISMATCH: {p}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": named, "problems": problems,
              "trials": [trial_record(s, meter) for s in trials]}
    print("wrote " + write_out(root, tag + ".json", record))
    if extra:
        print("wrote " + write_out(root, tag + "-spans.json", extra))
    print(json.dumps({"correct": not problems, "attempted": len(trials),
                      "failed": failed, "metrics": named}))
    return 1 if problems else 0
