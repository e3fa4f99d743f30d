"""Beam directions and power quotes per (message, subcarrier).

Three ways to point a beam at a message's audience:

* large-antenna closed form: normalized sum of the audience's channels,
  weighted by 1/sqrt(large-scale gain) -- asymptotically optimal;
* unicast MRT: align with the single user's channel;
* multicast MRT: principal eigenvector of the gain-weighted channel
  covariance (power iteration).

A quote q for a direction w is the power price of rate on that beam: sending
power p (in the per-antenna-normalized convention used throughout) gives
every audience member at least B*log2(1 + p/q), with equality for the
bottleneck user. Smaller quotes are better.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class DegenerateChannelError(ValueError):
    """Audience channels cancel; no beam direction exists."""


class InfeasibleDirectionError(ValueError):
    """Some audience channel is orthogonal to the beam; quote is infinite."""


@dataclass
class BeamPlan:
    """Per-(message, subcarrier) unit directions and quotes.

    w has shape (n_messages, n_sc, m); q has shape (n_messages, n_sc) and
    may contain inf where a direction cannot serve its audience.
    """

    w: np.ndarray
    q: np.ndarray


def _audience_matrix(h_aud, beta):
    h = np.asarray(h_aud, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] < 1:
        raise ValueError("audience channels must have shape (audience, m)")
    b = np.broadcast_to(np.asarray(beta, dtype=float), (h.shape[0],))
    if np.any(b <= 0):
        raise ValueError("large-scale gains must be positive")
    return h, b


def asymptotic_beam(h_aud, beta, noise_w: float):
    """Large-antenna beam and quote for one audience on one subcarrier.

    Parameters
    ----------
    h_aud : (a, m) complex
        Channel vectors of the audience users.
    beta : scalar or (a,)
        Large-scale gains.
    noise_w : float
        Noise power.

    Returns
    -------
    (w, q) : unit direction (m,) and quote q = m*noise / min_k beta_k|h_k^H w|^2.
    """
    h, b = _audience_matrix(h_aud, beta)
    m = h.shape[1]
    agg = (h / np.sqrt(b)[:, None]).sum(axis=0)
    nrm = np.linalg.norm(agg)
    if nrm == 0.0:
        raise DegenerateChannelError("audience channels sum to zero")
    w = agg / nrm
    gains = b * np.abs(h.conj() @ w) ** 2
    gmin = gains.min()
    if gmin == 0.0:
        raise InfeasibleDirectionError("audience channel orthogonal to beam")
    return w, m * noise_w / gmin


def mrt_unicast(h) -> np.ndarray:
    """Unit beam along a single user's channel."""
    h = np.asarray(h, dtype=np.complex128)
    nrm = np.linalg.norm(h)
    if nrm == 0.0:
        raise DegenerateChannelError("zero channel")
    return h / nrm


def mrt_multicast(h_aud, beta) -> np.ndarray:
    """Multicast MRT beam for an audience: the unit principal eigenvector
    of sum_k beta_k h_k h_k^H by power iteration, started from the
    largest-norm audience channel, stopped at relative eigenvalue change
    <= 1e-10 (or, with a warning, after 20,000 steps).
    """
    h, b = _audience_matrix(h_aud, beta)
    if h.shape[0] == 1:
        return mrt_unicast(h[0])

    norms = np.linalg.norm(h, axis=1)
    if norms.max() == 0.0:
        raise DegenerateChannelError("all audience channels zero")
    v = h[int(np.argmax(norms))].copy()
    v /= np.linalg.norm(v)

    # A v = sum_k beta_k h_k (h_k^H v), never forming the m x m matrix
    lam_prev = 0.0
    for _ in range(20000):
        av = (b * (h.conj() @ v)) @ h
        lam = float(np.real(np.vdot(v, av)))
        nrm = np.linalg.norm(av)
        if nrm == 0.0:
            raise DegenerateChannelError("channel covariance annihilates start vector")
        v = av / nrm
        if abs(lam - lam_prev) <= 1e-10 * abs(lam):
            return v
        lam_prev = lam
    warnings.warn("power iteration did not reach the eigenvalue tolerance")
    return v


def quote_for(w, h_aud, beta, noise_w: float) -> float:
    """Quote of an arbitrary unit direction for an audience."""
    h, b = _audience_matrix(h_aud, beta)
    w = np.asarray(w, dtype=np.complex128)
    gmin = (b * np.abs(h.conj() @ w) ** 2).min()
    if gmin == 0.0:
        raise InfeasibleDirectionError("audience channel orthogonal to beam")
    return h.shape[1] * noise_w / gmin


# ---------------------------------------------------------------------------
# plan builders (user ids in messages are 1-based; channel row = id - 1)
# ---------------------------------------------------------------------------

def beam_plan_asymptotic(ch, messages) -> BeamPlan:
    """Large-antenna beams and quotes for every (message, subcarrier)."""
    n_msg = len(messages)
    w = np.zeros((n_msg, ch.n_sc, ch.m), dtype=np.complex128)
    q = np.full((n_msg, ch.n_sc), np.inf)
    for i, msg in enumerate(messages):
        idx = [k - 1 for k in msg.audience]
        h = ch.h[:, idx, :]                                   # (n_sc, a, m)
        b = ch.beta[idx]
        agg = (h / np.sqrt(b)[None, :, None]).sum(axis=1)     # (n_sc, m)
        nrm = np.linalg.norm(agg, axis=1)
        ok = nrm > 0.0
        w[i, ok] = agg[ok] / nrm[ok, None]
        gains = b[None, :] * np.abs(np.einsum("nam,nm->na", h.conj(), w[i])) ** 2
        gmin = gains.min(axis=1)
        pos = ok & (gmin > 0.0)
        q[i, pos] = ch.m * ch.noise_w / gmin[pos]
    return BeamPlan(w=w, q=q)


def beam_plan_mrt(ch, messages) -> BeamPlan:
    """MRT beams: unicast MRT for single audiences, multicast MRT otherwise."""
    n_msg = len(messages)
    w = np.zeros((n_msg, ch.n_sc, ch.m), dtype=np.complex128)
    q = np.full((n_msg, ch.n_sc), np.inf)
    for i, msg in enumerate(messages):
        idx = [k - 1 for k in msg.audience]
        b = ch.beta[idx]
        for n in range(ch.n_sc):
            h = ch.h[n, idx, :]
            try:
                if len(msg.audience) == 1:
                    direction = mrt_unicast(h[0])
                else:
                    direction = mrt_multicast(h, b)
                w[i, n] = direction
                q[i, n] = quote_for(direction, h, b, ch.noise_w)
            except (DegenerateChannelError, InfeasibleDirectionError):
                pass  # leave q at inf; the allocator routes around it
    return BeamPlan(w=w, q=q)
