"""Beam directions and power quotes per (message, subcarrier).

Three ways to point a beam at a message's audience:

* large-antenna closed form: normalized sum of the audience's channels,
  weighted by 1/sqrt(large-scale gain) -- asymptotically optimal;
* unicast MRT: align with the single user's channel;
* multicast MRT: principal eigenvector of the gain-weighted channel
  covariance. For two users it is the closed form of the 2x2 Gram
  matrix's top eigenvector; batched `eigh` runs only on the pairs whose
  audience has three or more users.

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


def _principal_of_two(h2, beta2):
    """Principal eigenvector, not normalized, of beta1 h1 h1^H +
    beta2 h2 h2^H for every (pair, subcarrier): h2 has shape
    (n, n_sc, 2, m), beta2 (n, 2).

    With ht_i = sqrt(beta_i) h_i and G their 2x2 Gram matrix, the beam is
    v1 ht1 + v2 ht2 for G's top eigenvector v. With s = (g11 - g22)/2 and
    r = sqrt(s^2 + |g12|^2), v = (s + r, conj(g12)) when s >= 0, else
    (g12, r - s), so no entry is a difference of near-equal terms. Where
    G is a multiple of the identity every direction in the span is
    principal, and ht1 is taken. Zero where both channels are zero.
    """
    ht = h2 * np.sqrt(beta2)[:, None, :, None]
    a, b = ht[:, :, 0], ht[:, :, 1]
    g11 = (a.real ** 2 + a.imag ** 2).sum(axis=2)
    g22 = (b.real ** 2 + b.imag ** 2).sum(axis=2)
    g12 = np.einsum("inm,inm->in", a.conj(), b)
    s = 0.5 * (g11 - g22)
    r = np.sqrt(s * s + (g12.real ** 2 + g12.imag ** 2))
    up = s >= 0.0
    v1 = np.where(up, s + r, g12)
    v2 = np.where(up, g12.conj(), r - s)
    flat = r == 0.0
    v1[flat], v2[flat] = 1.0, 0.0
    return v1[..., None] * a + v2[..., None] * b


def beam_plan_mrt(ch, messages) -> BeamPlan:
    """MRT beams: the unit channel direction for single-user audiences, the
    principal eigenvector of the audience's gain-weighted channel
    covariance otherwise (closed form for two users, `eigh` for more). A
    pair whose audience channels are all zero gets the last unit vector,
    the eigenvector `eigh` gives a zero covariance, and quote inf."""
    h, beta, mask = _audience(ch, messages)
    size = mask.sum(axis=1)
    w = np.zeros(h.shape[:2] + h.shape[3:], dtype=complex)  # (n_msg, n_sc, m)
    w[..., -1] = 1.0
    big = size >= 3
    if big.any():
        cov = np.einsum("ia,inak,inal->inkl", beta[big], h[big], h[big].conj())
        w[big] = np.linalg.eigh(cov)[1][..., -1]
    two = size == 2
    if two.any():
        x = _principal_of_two(h[two][:, :, :2], beta[two, :2])
        nrm = np.linalg.norm(x, axis=2, keepdims=True)
        w[two] = np.divide(x, nrm, out=w[two], where=nrm > 0.0)
    single = size == 1
    nrm = np.linalg.norm(h[single, :, 0], axis=2, keepdims=True)
    w[single] = np.divide(h[single, :, 0], nrm, out=w[single], where=nrm > 0.0)
    return BeamPlan(w=w, q=_quotes(ch, h, beta, mask, w))
