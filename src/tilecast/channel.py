"""Seeded synthesis of the downlink channel state.

Small-scale fading is i.i.d. circularly-symmetric complex Gaussian with unit
variance per entry, drawn per (subcarrier, user, antenna). Determinism
contract ("channel sampler v1", stable across releases): uniforms come from
numpy's PCG64 bit generator seeded with the given integer, and the Gaussian
transform is the classic Box-Muller map

    z0 = sqrt(-2 ln(1-u1)) * cos(2 pi u2)
    z1 = sqrt(-2 ln(1-u1)) * sin(2 pi u2)

applied to consecutive uniform pairs (1-u1 keeps the log finite). A complex
entry is (z0 + i z1)/sqrt(2), giving variance 1/2 per real part.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _as_int
from .scope import shared


@dataclass(eq=False)
class ChannelState:
    """Channel realization plus the link parameters the solvers need;
    hashed by identity, so a trial scope can key shared work by it."""

    m: int                 # antennas at the transmitter
    n_sc: int              # subcarriers
    k_users: int
    bandwidth_hz: float    # per-subcarrier bandwidth
    noise_w: float         # noise power per subcarrier
    beta: np.ndarray       # per-user large-scale gain, shape (k_users,)
    h: np.ndarray          # complex, shape (n_sc, k_users, m)

    def __post_init__(self):
        if min(self.m, self.n_sc, self.k_users) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.noise_w <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("noise and bandwidth must be positive")
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (self.k_users,) or np.any(self.beta <= 0):
            raise ValueError("beta must be positive with one entry per user")
        if self.h.shape != (self.n_sc, self.k_users, self.m):
            raise ValueError("h shape must be (n_sc, k_users, m)")


def _box_muller(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` standard normals from consecutive uniform pairs."""
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z[:count]


def sample_channel(seed: int, m: int, n_sc: int, k_users: int,
                   beta=1.0, noise_w: float = 1e-9,
                   bandwidth_hz: float = 39e3) -> ChannelState:
    """Draw one channel realization, deterministic in `seed`.

    beta may be a scalar (applied to all users) or a length-k_users sequence.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = n_sc * k_users * m
    re = _box_muller(rng, n)
    im = _box_muller(rng, n)
    h = ((re + 1j * im) / np.sqrt(2.0)).reshape(n_sc, k_users, m)
    beta_arr = np.broadcast_to(np.asarray(beta, dtype=float), (k_users,)).copy()
    return ChannelState(m=m, n_sc=n_sc, k_users=k_users,
                        bandwidth_hz=float(bandwidth_hz),
                        noise_w=float(noise_w), beta=beta_arr, h=h)


def _audience(ch: ChannelState, messages):
    """Each message's audience channels, padded to the largest audience.

    User ids in messages are 1-based (channel row = id - 1). Returns h of
    shape (n_msg, n_sc, a_max, m), zero off the mask; beta of shape
    (n_msg, a_max), one off the mask; and the (n_msg, a_max) mask of real
    audience slots, all three read-only. Inside a trial scope the arrays
    are gathered once per channel and message list, and every beam plan
    and audit of that list reads them.
    """
    messages = tuple(messages)

    def gather():
        sizes = np.array([len(msg.audience) for msg in messages], dtype=int)
        mask = np.arange(sizes.max(initial=0))[None, :] < sizes[:, None]
        idx = np.zeros(mask.shape, dtype=int)
        idx[mask] = [k - 1 for msg in messages for k in msg.audience]
        h = np.transpose(ch.h[:, idx, :], (1, 0, 2, 3)) * mask[:, None, :, None]
        beta = np.where(mask, ch.beta[idx], 1.0)
        for array in (h, beta, mask):
            array.setflags(write=False)
        return h, beta, mask

    return shared(("audience", ch, messages), gather)


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Stable injective per-trial seed: (base_seed << 32) + trial_index.

    Injective for 0 <= trial_index < 2**32 at any base seed; distinct base
    seeds give disjoint seed ranges.
    """
    base_seed = _as_int("base_seed", base_seed)
    trial_index = _as_int("trial_index", trial_index)
    if trial_index < 0 or trial_index >= 2 ** 32:
        raise ValueError("trial_index must be in [0, 2**32)")
    if base_seed < 0:
        raise ValueError("base_seed must be nonnegative")
    return (base_seed << 32) + trial_index
