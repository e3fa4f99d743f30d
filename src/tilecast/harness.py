"""Monte-Carlo experiments: scenarios, scheme dispatch, CSV emission.

A scenario fixes the tiling, the quality ladder, five (or fewer) viewers
with target quality levels, and the link parameters. Each trial draws one
channel realization; every scheme sees the identical realization for a
given trial index, so scheme comparisons are paired. Sweeps vary the user
count, the antenna count, or the concentration shift of the viewing
directions.

Schemes:
  proposed-asymptotic  large-antenna beams + quoted allocation
  proposed-dc          max-min-fair beams + quoted allocation
  baseline1-unicast    per-user MRT, every tile sent per user
  baseline2-multicast  audience MRT (principal direction), shared tiles
"""

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .beamforming import beam_plan_asymptotic, beam_plan_mrt
from .channel import ChannelState, derive_trial_seed, sample_channel
from .dc_solver import dc_solve
from .geometry import TilingConfig, ViewDirection, compute_tile_set
from .ofdma_alloc import (InfeasibleAllocationError, audit_allocation,
                          complete_allocation, solve_quoted_allocation)
from .partition import QualityLadder, build_messages, build_partition, \
    unicast_messages

SCHEMES = ("proposed-asymptotic", "proposed-dc",
           "baseline1-unicast", "baseline2-multicast")

CSV_HEADER = ("scheme,sweep_param,sweep_value,trial,seed,"
              "total_power_w,converged,unique_argmax,iterations")

SWEEP_M_VALUES = (2, 4, 8, 16, 32)


@dataclass(frozen=True)
class UserSpec:
    """One viewer: where they look and which quality level they need."""

    direction: ViewDirection
    quality: int

    def __post_init__(self):
        if not isinstance(self.direction, ViewDirection):
            object.__setattr__(self, "direction",
                               ViewDirection(*self.direction))


@dataclass
class ScenarioConfig:
    tiling: TilingConfig
    ladder: QualityLadder
    users: list
    m: int = 4
    n_sc: int = 64
    bandwidth_hz: float = 39e3
    noise_w: float = 1e-9
    beta: float = 1.0
    delta_deg: float = 0.0
    trials: int = 100
    base_seed: int = 20240811
    schemes: tuple = SCHEMES

    def __post_init__(self):
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
    users = [
        UserSpec(ViewDirection(110.0, 90.0), 2),
        UserSpec(ViewDirection(110.0, 90.0), 2),
        UserSpec(ViewDirection(170.0, 90.0), 3),
        UserSpec(ViewDirection(230.0, 90.0), 3),
        UserSpec(ViewDirection(230.0, 90.0), 4),
    ]
    return ScenarioConfig(
        tiling=TilingConfig(u_h=30, u_v=15, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        ladder=ladder,
        users=users,
    )


_CONFIG_KEYS = {"tiling", "ladder", "users", "m", "n_sc", "bandwidth_hz",
                "noise_w", "beta", "delta_deg", "trials", "base_seed",
                "schemes"}
_TILING_KEYS = {"u_h", "u_v", "fov_h_deg", "fov_v_deg", "margin_deg"}
_USER_KEYS = {"yaw_deg", "pitch_deg", "quality"}


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a config from parsed JSON; unknown keys anywhere are errors."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    base = default_config()
    kwargs = {}
    if "tiling" in raw:
        t = dict(raw["tiling"])
        bad = set(t) - _TILING_KEYS
        if bad:
            raise ValueError(f"unknown tiling keys: {sorted(bad)}")
        kwargs["tiling"] = TilingConfig(**t)
    if "ladder" in raw:
        kwargs["ladder"] = QualityLadder(tuple(float(r) for r in raw["ladder"]))
    if "users" in raw:
        users = []
        for u in raw["users"]:
            bad = set(u) - _USER_KEYS
            if bad:
                raise ValueError(f"unknown user keys: {sorted(bad)}")
            users.append(UserSpec(
                ViewDirection(float(u["yaw_deg"]), float(u["pitch_deg"])),
                int(u["quality"])))
        kwargs["users"] = users
    for key in ("m", "n_sc", "trials", "base_seed"):
        if key in raw:
            kwargs[key] = int(raw[key])
    for key in ("bandwidth_hz", "noise_w", "beta", "delta_deg"):
        if key in raw:
            kwargs[key] = float(raw[key])
    if "schemes" in raw:
        kwargs["schemes"] = tuple(raw["schemes"])
    return replace(base, **kwargs)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    t = cfg.tiling
    return {
        "tiling": {"u_h": t.u_h, "u_v": t.u_v, "fov_h_deg": t.fov_h_deg,
                   "fov_v_deg": t.fov_v_deg, "margin_deg": t.margin_deg},
        "ladder": list(cfg.ladder.rates),
        "users": [{"yaw_deg": u.direction.yaw_deg,
                   "pitch_deg": u.direction.pitch_deg,
                   "quality": u.quality} for u in cfg.users],
        "m": cfg.m, "n_sc": cfg.n_sc, "bandwidth_hz": cfg.bandwidth_hz,
        "noise_w": cfg.noise_w, "beta": cfg.beta,
        "delta_deg": cfg.delta_deg, "trials": cfg.trials,
        "base_seed": cfg.base_seed, "schemes": list(cfg.schemes),
    }


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


def _failed(scheme, trial_index, seed) -> TrialResult:
    return TrialResult(scheme=scheme, trial_index=trial_index, seed=seed,
                       total_power_w=float("nan"), converged=False,
                       unique_argmax=False, iterations=0)


def run_trial(cfg: ScenarioConfig, scheme: str, trial_index: int,
              user_subset=None) -> TrialResult:
    """One channel realization, one scheme, one full plan.

    The channel is always drawn for the configured user population so that
    subsets (the user-count sweep) stay paired with the full scenario; the
    plan itself only sees the restricted users, renumbered from 1.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    seed = derive_trial_seed(cfg.base_seed, trial_index)
    n_total = len(cfg.users)
    subset = sorted(user_subset) if user_subset is not None else list(range(n_total))

    dirs = [u.direction for u in cfg.users]
    if cfg.delta_deg > 0:
        dirs = shift_directions(dirs, cfg.delta_deg)

    ch_full = sample_channel(seed, cfg.m, cfg.n_sc, n_total, beta=cfg.beta,
                             noise_w=cfg.noise_w, bandwidth_hz=cfg.bandwidth_hz)
    ch = _restrict_channel(ch_full, subset) if len(subset) < n_total else ch_full

    tile_sets = {}
    qualities = {}
    for new_id, j in enumerate(subset, start=1):
        tile_sets[new_id] = compute_tile_set(dirs[j], cfg.tiling)
        qualities[new_id] = cfg.users[j].quality

    try:
        if scheme == "baseline1-unicast":
            messages = unicast_messages(tile_sets, qualities, cfg.ladder)
        else:
            part = build_partition(tile_sets)
            messages = build_messages(part, qualities, cfg.ladder)

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
    if sweep in (None, "none"):
        return [("none", 0)]
    if sweep == "k":
        return [("k", k) for k in range(1, len(cfg.users) + 1)]
    if sweep == "m":
        return [("m", m) for m in SWEEP_M_VALUES]
    if sweep == "delta":
        step = cfg.tiling.tile_width_deg
        return [("delta", i * step) for i in range(6)]
    raise ValueError(f"unknown sweep: {sweep!r}")


def _subset_for_trial(cfg: ScenarioConfig, trial_index: int, k: int) -> list:
    """First k entries of a per-trial permutation: subsets nest as k grows."""
    rng = np.random.default_rng(derive_trial_seed(cfg.base_seed, trial_index))
    perm = rng.permutation(len(cfg.users))
    return sorted(int(i) for i in perm[:k])


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:g}"


def run_experiment(cfg: ScenarioConfig, sweep: Optional[str] = None,
                   out_path: Optional[str] = None, strict: bool = False) -> str:
    """Full sweep; returns the CSV text and optionally writes it.

    Data rows come in deterministic order (scheme, sweep point, trial);
    each block ends with mean and standard-error summary rows. Failed
    trials carry nan power and stay in the file; averages skip nan, and
    strict=True additionally drops non-converged trials from averages.
    """
    if sweep == "delta" and len(cfg.users) != 5:
        raise ValueError("the delta sweep needs exactly 5 users "
                         "(the concentration shift is defined for five)")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(CSV_HEADER + "\n")

    for scheme in cfg.schemes:
        for param, value in sweep_values(cfg, sweep):
            if param == "m":
                cfg_pt = replace(cfg, m=int(value))
            elif param == "delta":
                cfg_pt = replace(cfg, delta_deg=float(value))
            else:
                cfg_pt = cfg
            results = []
            for t in range(cfg.trials):
                subset = _subset_for_trial(cfg, t, value) if param == "k" else None
                results.append(run_trial(cfg_pt, scheme, t, user_subset=subset))
            for r in results:
                writer.writerow([
                    r.scheme, param, _fmt_value(value), r.trial_index, r.seed,
                    f"{r.total_power_w:.10e}", int(r.converged),
                    int(r.unique_argmax), r.iterations])
            kept = [r for r in results
                    if math.isfinite(r.total_power_w)
                    and (r.converged or not strict)]
            powers = np.array([r.total_power_w for r in kept])
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
