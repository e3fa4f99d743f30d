"""Monte-Carlo experiments: scenarios, scheme dispatch, CSV emission.

A scenario fixes the tiling, the quality ladder, five (or fewer) viewers
with target quality levels, and the link parameters. Each trial draws one
channel realization; every scheme sees the identical realization for a
given trial index, so scheme comparisons are paired. Sweeps vary the user
count, the antenna count, or the concentration shift of the viewing
directions. `run_experiment` plans one trial index at a time, inside one
`scope.trial_scope`, so the index's channel, tile sets, messages and
repeated allocation problems are computed once for all its trials.

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
from typing import Optional

import numpy as np

from .beamforming import beam_plan_asymptotic, beam_plan_mrt
from .channel import ChannelState, derive_trial_seed, sample_channel
from .dc_solver import dc_solve
from .geometry import (TilingConfig, ViewDirection, _as_int, _check_direction,
                       _set_ints, compute_tile_set)
from .ofdma_alloc import (InfeasibleAllocationError, audit_allocation,
                          complete_allocation, solve_quoted_allocation)
from .partition import QualityLadder, build_messages, build_partition, \
    unicast_messages
from .scope import shared, trial_scope

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
        if not isinstance(self.direction, ViewDirection):
            object.__setattr__(self, "direction",
                               ViewDirection(*self.direction))
        _set_ints(self, "quality")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, or one point of a sweep: an immutable, hashable value
    that checks every field when it is built. Integer fields take integral floats; `users`
    becomes a tuple, and `beta` a float or a tuple of floats."""

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
        _set_ints(self, "m", "n_sc", "trials", "base_seed")
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta",
                           tuple(beta.tolist()) if beta.ndim else float(beta))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme: {s!r}")
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
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value) & (value > 0)):
                raise ValueError(f"{name} must be finite and positive")
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


def _types(cls) -> dict:
    return {f.name: f.type for f in fields(cls)}


# a user's JSON keys: its direction's, then its quality
_USER_TYPES = {**ViewDirection.__annotations__, "quality": int}


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


def _json(key, value, *types):
    """`value`, if the JSON reader gave it one of `types` (a bool is no
    number, a string no array); else a ValueError that names its key."""
    if type(value) not in types:
        raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
    return value


def _number(key, value) -> float:
    return float(_json(key, value, int, float))


# how an int or float field reads its JSON value: the integer rule, named
# by its key, or a JSON number
_SCALARS = {int: lambda key, value: _as_int(f"config key {key!r}", value),
            float: _number}


def _read(raw, what, types, required=()):
    """The JSON object `raw` as field values, its keys checked against
    `types` (field name -> type) and `required`: an int or float field
    read by `_SCALARS`, any other as it is."""
    _check_keys(raw, what, types, required)
    return {key: _SCALARS[types[key]](key, value)
            if types[key] in _SCALARS else value
            for key, value in raw.items()}


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a config from parsed JSON: unknown keys anywhere, missing
    user or tiling keys and values of the wrong JSON type are errors, and
    the config types check the rest; absent keys keep `default_config()`'s."""
    kwargs = _read(raw, "config", _types(ScenarioConfig))
    if "tiling" in kwargs:
        required = [f.name for f in fields(TilingConfig)
                    if f.default is MISSING]
        kwargs["tiling"] = TilingConfig(**_read(
            kwargs["tiling"], "tiling", _types(TilingConfig), required))
    if "ladder" in kwargs:
        rates = _json("ladder", kwargs["ladder"], list)
        kwargs["ladder"] = QualityLadder([_number("ladder", r) for r in rates])
    if "users" in kwargs:
        users = [_read(u, "user", _USER_TYPES, _USER_TYPES)
                 for u in _json("users", kwargs["users"], list)]
        kwargs["users"] = [
            UserSpec(ViewDirection(u["yaw_deg"], u["pitch_deg"]), u["quality"])
            for u in users]
    if "beta" in kwargs:
        beta = kwargs["beta"]
        kwargs["beta"] = ([_number("beta", b) for b in beta]
                          if type(beta) is list else _number("beta", beta))
    if "schemes" in kwargs:
        _json("schemes", kwargs["schemes"], list)
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


def _restrict_channel(ch: ChannelState, subset) -> ChannelState:
    idx = list(subset)
    return ChannelState(m=ch.m, n_sc=ch.n_sc, k_users=len(idx),
                        bandwidth_hz=ch.bandwidth_hz, noise_w=ch.noise_w,
                        beta=ch.beta[idx], h=ch.h[:, idx, :])


def _read_only(ch: ChannelState) -> ChannelState:
    """`ch` with its arrays locked: every trial of an index reads it."""
    ch.h.flags.writeable = False
    ch.beta.flags.writeable = False
    return ch


def _tile_set(direction: ViewDirection, tiling: TilingConfig) -> set:
    return shared(("tiles", direction, tiling),
                  lambda: compute_tile_set(direction, tiling))


def _messages(cfg: ScenarioConfig, viewers: tuple, unicast: bool) -> list:
    """The messages for `viewers`, (direction, quality) pairs renumbered
    from 1: one per user (unicast) or per distinct audience."""
    def build():
        tile_sets = {k: _tile_set(d, cfg.tiling)
                     for k, (d, _) in enumerate(viewers, start=1)}
        qualities = {k: q for k, (_, q) in enumerate(viewers, start=1)}
        if unicast:
            return unicast_messages(tile_sets, qualities, cfg.ladder)
        return build_messages(build_partition(tile_sets), qualities,
                              cfg.ladder)

    return shared(("messages", unicast, viewers, cfg.tiling, cfg.ladder),
                  build)


def _failed(scheme, trial_index, seed) -> TrialResult:
    return TrialResult(scheme=scheme, trial_index=trial_index, seed=seed,
                       total_power_w=float("nan"), converged=False,
                       unique_argmax=False, iterations=0)


def run_trial(cfg: ScenarioConfig, scheme: str, trial_index: int,
              user_subset=None) -> TrialResult:
    """One channel realization, one scheme, one full plan.

    The channel is always drawn for the configured user population so that
    subsets (the user-count sweep) stay paired with the full scenario; the
    plan itself only sees the restricted users, renumbered from 1. Inside
    a `trial_scope`, the channel, tile sets, messages and allocation
    problems it has in common with the scope's earlier trials are not
    computed again.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    seed = derive_trial_seed(cfg.base_seed, trial_index)
    n_total = len(cfg.users)
    subset = sorted(user_subset) if user_subset is not None else list(range(n_total))

    dirs = [u.direction for u in cfg.users]
    if cfg.delta_deg > 0:
        dirs = shift_directions(dirs, cfg.delta_deg)

    ch_full = shared(
        ("channel", seed, cfg.m, cfg.n_sc, n_total, cfg.beta, cfg.noise_w,
         cfg.bandwidth_hz),
        lambda: _read_only(sample_channel(
            seed, cfg.m, cfg.n_sc, n_total, beta=cfg.beta,
            noise_w=cfg.noise_w, bandwidth_hz=cfg.bandwidth_hz)))
    ch = _restrict_channel(ch_full, subset) if len(subset) < n_total else ch_full
    viewers = tuple((dirs[j], cfg.users[j].quality) for j in subset)

    try:
        messages = _messages(cfg, viewers, scheme == "baseline1-unicast")
        if scheme == "proposed-dc":
            alloc = dc_solve(ch, messages)
        else:
            if scheme == "proposed-asymptotic":
                plan = beam_plan_asymptotic(ch, messages)
            else:
                plan = beam_plan_mrt(ch, messages)
            alloc = solve_quoted_allocation(messages, plan.q, cfg.bandwidth_hz)
            alloc = complete_allocation(alloc, plan)
    except InfeasibleAllocationError:
        return _failed(scheme, trial_index, seed)

    problems = audit_allocation(alloc, ch, messages)
    if problems:
        return _failed(scheme, trial_index, seed)
    return TrialResult(scheme=scheme, trial_index=trial_index, seed=seed,
                       total_power_w=alloc.total_power_w,
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
    of the index's permutation, so subsets nest as k grows."""
    rng = np.random.default_rng(derive_trial_seed(cfg.base_seed, trial_index))
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
    Trials are planned index by index, each index's (scheme, sweep
    point) trials in one `trial_scope`.

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
