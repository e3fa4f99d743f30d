"""Command-line front end: run experiments, cross-check the solver,
re-verify a results file."""

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .harness import SWEEPS, config_from_dict, default_config, run_experiment
from .ofdma_alloc import (InfeasibleAllocationError, brute_force_allocation,
                          solve_quoted_allocation)


def _fail(message):
    """Stop on bad input the way argparse stops on a bad option:
    `tilecast: error: ...` on stderr and exit status 2."""
    print(f"tilecast: error: {message}", file=sys.stderr)
    raise SystemExit(2)


@contextmanager
def _bad_input():
    """End the command through `_fail` on an `OSError` or `ValueError`:
    a file that cannot be read or written, a config that `ScenarioConfig`
    rejects, or what `run_experiment` checks before its first trial."""
    try:
        yield
    except (OSError, ValueError) as exc:
        _fail(exc)


def _load_config(args):
    """The config file (or the default config) with the command line's
    overrides; an unreadable file or a config `ScenarioConfig` rejects
    ends the command through `_fail`."""
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.scheme:
        overrides["schemes"] = tuple(args.scheme)
    with _bad_input():
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = config_from_dict(json.load(fh))
        else:
            cfg = default_config()
        return replace(cfg, **overrides)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    with _bad_input():
        text = run_experiment(cfg, sweep=args.sweep, out_path=args.out)
    n_rows = text.count("\n") - 1
    print(f"wrote {args.out}: {n_rows} rows "
          f"({len(cfg.schemes)} schemes, {cfg.trials} trials)")
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r["trial"].isdigit()]
    failed = sum(r["total_power_w"] == "nan" for r in rows)
    unconverged = sum(r["converged"] == "0" and r["total_power_w"] != "nan"
                      for r in rows)
    print(f"trials: {len(rows)}, failed (nan power): {failed}, "
          f"not converged (of the rest): {unconverged}")
    return 0


# instance shapes just past ofdma_alloc.ENUMERATE_MAX (243-1,024
# assignments), so the allocator runs its dual and local search, yet
# small enough for the brute force
ORACLE_SHAPES = ((3, 5), (3, 6), (4, 5))


def _cmd_oracle_check(args) -> int:
    """Random instances: the allocator vs the bisection brute force.

    Every third instance marks 30 % of its quotes unusable. Prints every
    plan more than 1e-3 above the optimum and every optimal plan that
    reports converged=False. Fails on a miss that reports converged=True,
    and when only one of the two finds the instance infeasible.
    """
    seed = args.seed if args.seed is not None else 7
    trials = args.trials if args.trials is not None else 25
    if seed < 0:
        _fail("seed must be >= 0")
    if trials < 1:
        _fail("trials must be >= 1")
    rng = np.random.default_rng(seed)
    bw = 39e3
    worst = 0.0
    failures = 0
    for i in range(trials):
        n_msg, n_sc = ORACLE_SHAPES[int(rng.integers(len(ORACLE_SHAPES)))]
        quotes = 10.0 ** rng.uniform(-10.0, -8.0, size=(n_msg, n_sc))
        if i % 3 == 2:
            quotes[rng.random(quotes.shape) < 0.3] = np.inf
        demands = bw * rng.uniform(0.5, 4.0, size=n_msg)
        plans = []
        for solver in (solve_quoted_allocation, brute_force_allocation):
            try:
                plans.append(solver(demands, quotes, bw))
            except InfeasibleAllocationError:
                plans.append(None)
        got, want = plans
        name = f"instance {i} ({n_msg}x{n_sc})"
        if got is None or want is None:
            if got is not want:
                who = "allocator" if got is None else "brute force"
                print(f"{name}: only the {who} finds it infeasible")
                failures += 1
            continue
        gap = (got.power_sum - want.power_sum) / want.power_sum
        worst = max(worst, gap)
        if gap > 1e-3:
            print(f"{name}: gap {gap:.3e} exceeds 1e-3, "
                  f"converged={got.converged}")
            failures += got.converged
        elif not got.converged:
            print(f"{name}: optimal (gap {gap:.3e}) but converged=False")
    print(f"{trials} instances checked; worst relative gap {worst:.3e}; "
          f"{failures} failures")
    return 1 if failures else 0


def _cmd_audit(args) -> int:
    """Regenerate the experiment for the given config and compare bytes."""
    cfg = _load_config(args)
    with _bad_input():
        with open(args.out, "r", encoding="utf-8", newline="") as fh:
            recorded = fh.read()
        regenerated = run_experiment(cfg, sweep=args.sweep, out_path=None)
    if recorded == regenerated:
        print(f"{args.out}: verified, regeneration is byte-identical")
        return 0
    rec_lines = recorded.splitlines()
    new_lines = regenerated.splitlines()
    for i, (a, b) in enumerate(zip(rec_lines, new_lines)):
        if a != b:
            print(f"{args.out}: first mismatch at line {i + 1}")
            print(f"  recorded:    {a}")
            print(f"  regenerated: {b}")
            return 1
    print(f"{args.out}: length mismatch "
          f"({len(rec_lines)} vs {len(new_lines)} lines)")
    return 1


def _add_seed_trials(p):
    p.add_argument("--seed", type=int, help="override base_seed")
    p.add_argument("--trials", type=int, help="override trial count")


def _add_common(p):
    _add_seed_trials(p)
    p.add_argument("--config", help="JSON config mirroring ScenarioConfig")
    p.add_argument("--out", default="results.csv", help="CSV path")
    p.add_argument("--scheme", action="append",
                   help="restrict to a scheme (repeatable)")
    p.add_argument("--sweep", choices=SWEEPS,
                   help="sweep user count, antennas, or concentration "
                        "(none: the base config only)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tilecast",
        description="Minimum-power transmission planning for multicast "
                    "streaming of tiled panoramic video.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte-Carlo experiment")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="cross-validate the allocator against brute force")
    _add_seed_trials(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_audit = sub.add_parser(
        "audit", help="re-verify a results file by regeneration")
    _add_common(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
