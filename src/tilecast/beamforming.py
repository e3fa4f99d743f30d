"""Beam directions and power quotes per (message, subcarrier).

Three ways to point a beam at a message's audience:

* large-antenna closed form: normalized sum of the audience's channels,
  weighted by 1/sqrt(large-scale gain) -- asymptotically optimal;
* unicast MRT: align with the single user's channel;
* multicast MRT: principal eigenvector of the gain-weighted channel
  covariance, by batched `eigh` over every (message, subcarrier).

Both plans read every audience from one padded tensor
(`channel._audience`) and share one quote rule.

A quote q for a direction w is the power price of rate on that beam: sending
power p (in the per-antenna-normalized convention used throughout) gives
every audience member at least B*log2(1 + p/q), with equality for the
bottleneck user. Smaller quotes are better.
"""

from dataclasses import dataclass

import numpy as np

from .channel import _audience


class InfeasibleDirectionError(ValueError):
    """No beam direction serves some message: every quote it can use is
    infinite. The plans mark such pairs inf."""


@dataclass
class BeamPlan:
    """Per-(message, subcarrier) unit directions and quotes.

    w has shape (n_messages, n_sc, m); q has shape (n_messages, n_sc) and
    may contain inf where a direction cannot serve its audience.
    """

    w: np.ndarray
    q: np.ndarray


# ---------------------------------------------------------------------------
# plan builders
# ---------------------------------------------------------------------------

def _quotes(ch, h, beta, mask, w) -> np.ndarray:
    """Quote of each (message, subcarrier) direction for its audience:
    m*noise / min over audience users of beta|h^H w|^2, inf where that
    minimum is 0. h, beta and mask come from `channel._audience`."""
    gains = beta[:, None, :] * np.abs(np.einsum("inam,inm->ina", h.conj(), w)) ** 2
    gmin = np.where(mask[:, None, :], gains, np.inf).min(axis=2)
    q = np.full(gmin.shape, np.inf)
    pos = gmin > 0.0
    q[pos] = ch.m * ch.noise_w / gmin[pos]
    return q


def beam_plan_asymptotic(ch, messages) -> BeamPlan:
    """Large-antenna beams and quotes for every (message, subcarrier)."""
    h, beta, mask = _audience(ch, messages)
    agg = (h / np.sqrt(beta)[:, None, :, None]).sum(axis=2)  # (n_msg, n_sc, m)
    nrm = np.linalg.norm(agg, axis=2)
    ok = nrm > 0.0
    w = np.zeros_like(agg)
    w[ok] = agg[ok] / nrm[ok, None]
    return BeamPlan(w=w, q=_quotes(ch, h, beta, mask, w))


def beam_plan_mrt(ch, messages) -> BeamPlan:
    """MRT beams: the unit channel direction for single-user audiences, the
    principal eigenvector of the audience's gain-weighted channel
    covariance otherwise."""
    h, beta, mask = _audience(ch, messages)
    cov = np.einsum("ia,inak,inal->inkl", beta, h, h.conj())
    w = np.linalg.eigh(cov)[1][..., -1].copy()            # (n_msg, n_sc, m)
    single = mask.sum(axis=1) == 1
    nrm = np.linalg.norm(h[single, :, 0], axis=2, keepdims=True)
    w[single] = np.divide(h[single, :, 0], nrm, out=w[single], where=nrm > 0.0)
    return BeamPlan(w=w, q=_quotes(ch, h, beta, mask, w))
