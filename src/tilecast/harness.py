"""Monte-Carlo experiments: scenarios, scheme dispatch, CSV emission.

A scenario fixes the tiling, the quality ladder, five (or fewer) viewers
with target quality levels, and the link parameters. Each trial draws one
channel realization; every scheme sees the identical realization for a
given trial index, so scheme comparisons are paired. Sweeps vary the user
count, the antenna count, or the concentration shift of the viewing
directions. `run_experiment` builds each tile set and message list once
per run, and plans one trial index at a time inside one `scope.trial_scope`,
so the index's channel, audience channels and repeated allocation problems
are computed once for all its trials.

Schemes:
  proposed-asymptotic  large-antenna beams + quoted allocation
  proposed-dc          max-min-fair beams + quoted allocation
  baseline1-unicast    per-user MRT, every tile sent per user
  baseline2-multicast  audience MRT (principal direction), shared tiles
"""

import csv
import io
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from .beamforming import beam_plan_asymptotic, beam_plan_mrt
from .channel import ChannelState, derive_trial_seed, sample_channel
from .dc_solver import dc_solve
from .geometry import (TilingConfig, ViewDirection, _as_float, _as_int,
                       _check_direction, _set_fields, compute_tile_set)
from .ofdma_alloc import (InfeasibleAllocationError, audit_allocation,
                          complete_allocation, solve_quoted_allocation)
from .partition import QualityLadder, build_messages, build_partition, \
    unicast_messages
from .scope import run_scope, shared, shared_by_run, trial_scope

SCHEMES = ("proposed-asymptotic", "proposed-dc",
           "baseline1-unicast", "baseline2-multicast")

CSV_HEADER = ("scheme,sweep_param,sweep_value,trial,seed,"
              "total_power_w,converged,unique_argmax,iterations")

# the sweeps `run_experiment` takes; "none" (or None) plans the base config
SWEEPS = ("none", "k", "m", "delta")
SWEEP_M_VALUES = (2, 4, 8, 16, 32)
# the config field each sweep varies; the k sweep varies the user subset
_SWEEP_FIELDS = {"m": "m", "delta": "delta_deg"}


@dataclass(frozen=True)
class UserSpec:
    """One viewer: where they look and which quality level they need."""

    direction: ViewDirection
    quality: int

    def __post_init__(self):
        d = ViewDirection(*self.direction)
        object.__setattr__(self, "direction", ViewDirection(
            _as_float("yaw_deg", d.yaw_deg),
            _as_float("pitch_deg", d.pitch_deg)))
        _set_fields(self, _as_int, "quality")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, or one point of a sweep: an immutable, hashable value
    that checks every field when it is built. Integer fields take
    integral floats and real fields finite ints or floats; `users` becomes
    a tuple, and `beta` a float or a tuple of floats."""

    tiling: TilingConfig
    ladder: QualityLadder
    users: tuple
    m: int = 4
    n_sc: int = 64
    bandwidth_hz: float = 39e3
    noise_w: float = 1e-9
    beta: float | tuple = 1.0  # a tuple holds one value per user
    delta_deg: float = 0.0
    trials: int = 100
    base_seed: int = 20240811
    schemes: tuple = SCHEMES

    def __post_init__(self):
        _set_fields(self, _as_int, "m", "n_sc", "trials", "base_seed")
        _set_fields(self, _as_float, "bandwidth_hz", "noise_w", "delta_deg")
        beta = self.beta
        object.__setattr__(self, "beta",
                           tuple(_as_float("beta", b) for b in beta)
                           if np.ndim(beta) else _as_float("beta", beta))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme: {s!r}")
            if s in self.schemes[:i]:
                raise ValueError(f"repeated scheme: {s!r}")
        if not self.users:
            raise ValueError("at least one user required")
        for u in self.users:
            _check_direction(u.direction)
            if not 1 <= u.quality <= self.ladder.levels:
                raise ValueError(f"quality {u.quality} outside ladder")
        if self.m < 1 or self.n_sc < 1:
            raise ValueError("m and n_sc must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        for name in ("bandwidth_hz", "noise_w", "beta"):
            if not np.all(np.asarray(getattr(self, name)) > 0):
                raise ValueError(f"{name} must be positive")
        try:
            np.broadcast_to(self.beta, len(self.users))
        except ValueError:
            raise ValueError("beta needs one value or one per user") from None
        if self.delta_deg < 0:
            raise ValueError("delta_deg must be >= 0")
        if self.delta_deg > 0 and len(self.users) != 5:
            raise ValueError("delta_deg > 0 needs exactly 5 users "
                             "(the concentration shift is defined for five)")


@dataclass(frozen=True)
class TrialResult:
    scheme: str
    trial_index: int
    seed: int
    total_power_w: float
    converged: bool
    unique_argmax: bool
    iterations: int

    def __post_init__(self):
        p = self.total_power_w
        if not (math.isnan(p) or p >= 0):
            raise ValueError("power must be nonnegative")


def default_config() -> ScenarioConfig:
    """Five synthetic viewers on the reference link parameters.

    Quality ladder: geometric placeholder rates (bits/s per tile); real
    deployments would substitute measured encoding rates per level.
    """
    ladder = QualityLadder(tuple(40000.0 * 1.4 ** i for i in range(5)))
    users = (
        UserSpec(ViewDirection(110.0, 90.0), 2),
        UserSpec(ViewDirection(110.0, 90.0), 2),
        UserSpec(ViewDirection(170.0, 90.0), 3),
        UserSpec(ViewDirection(230.0, 90.0), 3),
        UserSpec(ViewDirection(230.0, 90.0), 4),
    )
    return ScenarioConfig(
        tiling=TilingConfig(u_h=30, u_v=15, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        ladder=ladder,
        users=users,
    )


def _check_keys(raw, what, keys, required=()):
    """Reject a config level that is not an object, or has a key outside
    `keys` or lacks one of `required`."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, not {raw!r}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(required) - set(raw)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a config from parsed JSON. The reader checks only its shape:
    an unknown key anywhere, a user or tiling that lacks a key, and a
    `ladder`, `users` or `schemes` that is no array are errors. The config
    types check every value; absent keys keep `default_config()`'s."""
    _check_keys(raw, "config", [f.name for f in fields(ScenarioConfig)])
    for key in ("ladder", "users", "schemes"):
        if type(raw.get(key, [])) is not list:
            raise ValueError(f"{key} has the wrong type: {raw[key]!r}")
    kwargs = dict(raw)
    if "tiling" in raw:
        keys = [f.name for f in fields(TilingConfig)]
        required = [f.name for f in fields(TilingConfig)
                    if f.default is MISSING]
        _check_keys(raw["tiling"], "tiling", keys, required)
        kwargs["tiling"] = TilingConfig(**raw["tiling"])
    if "ladder" in raw:
        kwargs["ladder"] = QualityLadder(raw["ladder"])
    if "users" in raw:
        keys = (*ViewDirection._fields, "quality")
        for u in raw["users"]:
            _check_keys(u, "user", keys, keys)
        kwargs["users"] = [UserSpec((u["yaw_deg"], u["pitch_deg"]),
                                    u["quality"]) for u in raw["users"]]
    return replace(default_config(), **kwargs)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """The JSON form of `cfg`, which `config_from_dict` reads back."""
    raw = {f.name: getattr(cfg, f.name) for f in fields(ScenarioConfig)}
    raw.update(
        tiling=asdict(cfg.tiling),
        ladder=list(cfg.ladder.rates),
        users=[{**u.direction._asdict(), "quality": u.quality}
               for u in cfg.users],
        beta=list(cfg.beta) if isinstance(cfg.beta, tuple) else cfg.beta,
        schemes=list(cfg.schemes))
    return raw


def shift_directions(base, delta_deg: float):
    """Concentrate five viewing directions: the first two yaw up by delta,
    the middle one stays, the last two yaw down; pitches unchanged."""
    base = list(base)
    if len(base) != 5:
        raise ValueError("direction shift is defined for exactly 5 directions")
    signs = (1.0, 1.0, 0.0, -1.0, -1.0)
    return [ViewDirection((d.yaw_deg + s * delta_deg) % 360.0, d.pitch_deg)
            for d, s in zip(base, signs)]


def _read_only(ch: ChannelState) -> ChannelState:
    """`ch` with its arrays locked: every trial of an index reads it."""
    ch.h.flags.writeable = False
    ch.beta.flags.writeable = False
    return ch


def _messages(cfg: ScenarioConfig, viewers: tuple, unicast: bool) -> list:
    """The messages for `viewers`, (user number, direction, quality)
    triples: one per user (unicast) or per distinct audience, per run."""
    def build():
        tile_sets = {k: shared_by_run(("tiles", d, cfg.tiling),
                                      partial(compute_tile_set, d, cfg.tiling))
                     for k, d, _ in viewers}
        qualities = {k: q for k, _, q in viewers}
        if unicast:
            return unicast_messages(tile_sets, qualities, cfg.ladder)
        return build_messages(build_partition(tile_sets), qualities,
                              cfg.ladder)

    return shared_by_run(
        ("messages", unicast, viewers, cfg.tiling, cfg.ladder), build)


def _failed(scheme, trial_index, seed) -> TrialResult:
    return TrialResult(scheme=scheme, trial_index=trial_index, seed=seed,
                       total_power_w=float("nan"), converged=False,
                       unique_argmax=False, iterations=0)


def run_trial(cfg: ScenarioConfig, scheme: str, trial_index: int,
              user_subset=None) -> TrialResult:
    """One channel realization, one scheme, one full plan.

    The channel is always drawn for the configured user population so that
    subsets (the user-count sweep) stay paired with the full scenario; the
    plan only sees the subset's users, which keep their configured numbers
    (user j + 1 is channel row j). What earlier trials computed is reused:
    tile sets and messages within a `run_scope`, and the channel, audience
    channels and allocation problems within a `trial_scope`.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    seed = derive_trial_seed(cfg.base_seed, trial_index)
    n_total = len(cfg.users)
    subset = sorted(user_subset) if user_subset is not None else range(n_total)

    dirs = [u.direction for u in cfg.users]
    if cfg.delta_deg > 0:
        dirs = shift_directions(dirs, cfg.delta_deg)

    ch = shared(
        ("channel", seed, cfg.m, cfg.n_sc, n_total, cfg.beta, cfg.noise_w,
         cfg.bandwidth_hz),
        lambda: _read_only(sample_channel(
            seed, cfg.m, cfg.n_sc, n_total, beta=cfg.beta,
            noise_w=cfg.noise_w, bandwidth_hz=cfg.bandwidth_hz)))
    viewers = tuple((j + 1, dirs[j], cfg.users[j].quality) for j in subset)

    try:
        messages = _messages(cfg, viewers, scheme == "baseline1-unicast")
        if scheme == "proposed-dc":
            alloc = dc_solve(ch, messages)
        else:
            if scheme == "proposed-asymptotic":
                plan = beam_plan_asymptotic(ch, messages)
            else:
                plan = beam_plan_mrt(ch, messages)
            alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
            alloc = complete_allocation(alloc, plan)
    except InfeasibleAllocationError:
        return _failed(scheme, trial_index, seed)

    problems = audit_allocation(alloc, ch, messages)
    if problems:
        return _failed(scheme, trial_index, seed)
    return TrialResult(scheme=scheme, trial_index=trial_index, seed=seed,
                       total_power_w=alloc.power_sum,
                       converged=alloc.converged,
                       unique_argmax=alloc.unique_argmax,
                       iterations=alloc.iterations)


def sweep_values(cfg: ScenarioConfig, sweep: Optional[str]) -> list:
    if sweep is not None and sweep not in SWEEPS:
        raise ValueError(f"unknown sweep: {sweep!r}")
    if sweep == "k":
        return [("k", k) for k in range(1, len(cfg.users) + 1)]
    if sweep == "m":
        return [("m", m) for m in SWEEP_M_VALUES]
    if sweep == "delta":
        step = cfg.tiling.tile_width_deg
        return [("delta", i * step) for i in range(6)]
    return [("none", 0)]


def _trial_subsets(cfg: ScenarioConfig, trial_index: int) -> dict:
    """Each user count k's subset at one trial index: the first k entries
    of the index's permutation, so subsets nest as k grows; the
    permutation's random stream is not the channel's."""
    rng = np.random.default_rng(
        (derive_trial_seed(cfg.base_seed, trial_index), 1))
    perm = rng.permutation(len(cfg.users))
    return {k: sorted(int(i) for i in perm[:k])
            for k in range(1, len(cfg.users) + 1)}


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:g}"


def run_experiment(cfg: ScenarioConfig, sweep: Optional[str] = None,
                   out_path: Optional[str] = None) -> str:
    """Full sweep; returns the CSV text and optionally writes it.

    Data rows come in deterministic order (scheme, sweep point, trial);
    each block ends with mean and standard-error summary rows. Failed
    trials carry nan power and stay in the file; averages skip nan.
    Trials are planned in one `run_scope`, index by index, each index's
    (scheme, sweep point) trials in one `trial_scope`.

    Every sweep point's config (which `ScenarioConfig` checks) is built,
    and `out_path` is opened, before the first trial.
    """
    points = [(param, value,
               replace(cfg, **{_SWEEP_FIELDS[param]: value})
               if param in _SWEEP_FIELDS else cfg)
              for param, value in sweep_values(cfg, sweep)]
    if out_path:
        open(out_path, "a", encoding="utf-8").close()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(CSV_HEADER + "\n")

    planned = {(scheme, i): [] for scheme in cfg.schemes
               for i in range(len(points))}
    with run_scope():
        for t in range(cfg.trials):
            subsets = _trial_subsets(cfg, t) if sweep == "k" else None
            with trial_scope():
                for scheme in cfg.schemes:
                    for i, (param, value, cfg_pt) in enumerate(points):
                        subset = subsets[value] if param == "k" else None
                        planned[scheme, i].append(
                            run_trial(cfg_pt, scheme, t, user_subset=subset))

    for scheme in cfg.schemes:
        for i, (param, value, _) in enumerate(points):
            results = planned[scheme, i]
            for r in results:
                writer.writerow([
                    r.scheme, param, _fmt_value(value), r.trial_index, r.seed,
                    f"{r.total_power_w:.10e}", int(r.converged),
                    int(r.unique_argmax), r.iterations])
            powers = np.array([r.total_power_w for r in results
                               if math.isfinite(r.total_power_w)])
            if powers.size:
                mean = powers.mean()
                err = powers.std(ddof=1) / math.sqrt(powers.size) \
                    if powers.size > 1 else 0.0
            else:
                mean = err = float("nan")
            conv = np.mean([r.converged for r in results])
            uniq = np.mean([r.unique_argmax for r in results])
            iters = np.mean([r.iterations for r in results])
            writer.writerow([scheme, param, _fmt_value(value), "mean", "",
                             f"{mean:.10e}", f"{conv:g}", f"{uniq:g}",
                             f"{iters:g}"])
            writer.writerow([scheme, param, _fmt_value(value), "stderr", "",
                             f"{err:.10e}", "", "", ""])

    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
