"""Beam directions and power quotes per (message, subcarrier).

Three ways to point a beam at a message's audience:

* large-antenna closed form: normalized sum of the audience's channels,
  weighted by 1/sqrt(large-scale gain) -- asymptotically optimal;
* unicast MRT: align with the single user's channel;
* multicast MRT: principal eigenvector of the gain-weighted channel
  covariance. For two users it is the closed form of the 2x2 Gram
  matrix's top eigenvector; batched `eigh` runs only on the pairs whose
  audience has three or more users;
* max-min fair: the beam that maximizes the audience's smallest gain
  (Sidiropoulos, Davidson & Luo, IEEE TSP 2006). One user takes MRT and
  two users a closed form; larger audiences run a convex-concave
  procedure (Lipp & Boyd 2016) from the better MRT or large-antenna beam.

Every plan reads the audiences from one padded tensor
(`channel._audience`) and shares one quote rule.

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
    sweeps: int = 0        # CCP sweeps that built the plan
    capped: bool = False   # whether the CCP stopped at its sweep cap


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


# ---------------------------------------------------------------------------
# max-min fair beams
# ---------------------------------------------------------------------------

CCP_TOL = 1e-6         # relative bottleneck-gain rise that ends a pair's CCP
CCP_MAX_SWEEPS = 300   # CCP sweeps per plan


def _better(plan_a: BeamPlan, plan_b: BeamPlan) -> BeamPlan:
    """Per pair, the plan with the smaller quote (plan_a on ties)."""
    take_b = plan_b.q < plan_a.q
    return BeamPlan(w=np.where(take_b[..., None], plan_b.w, plan_a.w),
                    q=np.minimum(plan_a.q, plan_b.q))


def _maxmin_of_two(ht):
    """Max-min beam, not normalized, of every two-user pair: ht has shape
    (n, n_sc, 2, m) and holds sqrt(beta) h.

    With a = |ht1|^2, b = |ht2|^2, c = ht1^H ht2 and rho = |c|, the beam
    (b - rho) ht1 + (conj(c)/rho)(a - rho) ht2 gives both users the gain
    (ab - rho^2)/(a + b - 2 rho) when rho < min(a, b) (phase 1 when
    rho = 0). Otherwise the weaker user's MRT serves the other at least
    as well, and that is the beam.
    """
    h1, h2 = ht[:, :, 0], ht[:, :, 1]
    a = (h1.real ** 2 + h1.imag ** 2).sum(axis=2)
    b = (h2.real ** 2 + h2.imag ** 2).sum(axis=2)
    c = np.einsum("inm,inm->in", h1.conj(), h2)
    rho = np.abs(c)
    phase = np.where(rho > 0.0, c.conj() / np.where(rho > 0.0, rho, 1.0), 1.0)
    equal = rho < np.minimum(a, b)
    x1 = np.where(equal, b - rho, a <= b)
    x2 = np.where(equal, phase * (a - rho), a > b)
    return x1[..., None] * h1 + x2[..., None] * h2


def _bottleneck(ht, mask, w):
    """Smallest |ht_k^H w|^2 over each pair's audience: ht (p, a, m), mask
    (p, a), w (p, m)."""
    g = np.abs(np.einsum("pam,pm->pa", ht.conj(), w)) ** 2
    return np.where(mask, g, np.inf).min(axis=1)


def _price_step(gram, rhs, on):
    """Prices of one CCP step: per pair, the y >= 0 that minimizes
    y^T G y / 2 - rhs^T y, by Lawson and Hanson's active-set method for
    nonnegative least squares, in its normal equations.

    gram (p, a, a) must be E^T E and rhs E^T f for some E and f, so a slot
    in the span of the active ones never has a positive gradient and each
    active system stays regular. Slots off `on` keep price 0.
    """
    a = rhs.shape[1]
    y = np.zeros(rhs.shape)
    act = np.zeros(rhs.shape, dtype=bool)
    clean = np.ones(rhs.shape[0], dtype=bool)   # y solves its active set
    tol = 1e-10 * np.abs(rhs).max(axis=1, keepdims=True)
    for _ in range(4 * a + 4):
        grad = rhs - np.einsum("pab,pb->pa", gram, y)
        cand = np.where(on & ~act & (grad > tol), grad, -np.inf)
        grow = clean & (cand.max(axis=1) > -np.inf)
        if not (grow.any() or not clean.all()):
            break
        act[grow, cand[grow].argmax(axis=1)] = True
        lhs = np.where(act[:, :, None] & act[:, None, :], gram, np.eye(a))
        s = np.linalg.solve(lhs, np.where(act, rhs, 0.0)[..., None])[..., 0]
        # a row with a nonpositive price steps back to the boundary and
        # frees the price that reaches zero first
        bad = act & (s <= 0.0)
        den = np.where(bad & (y > s), y - s, 1.0)
        ratio = np.where(bad, y / den, np.inf)
        clean = ~bad.any(axis=1)
        y += np.where(clean, 1.0, ratio.min(axis=1))[:, None] * (s - y)
        y[~clean, ratio[~clean].argmin(axis=1)] = 0.0
        act &= y > 0.0
        y[~act] = 0.0
    return y


def _ccp_step(ht, mask, x):
    """One CCP step for many pairs: ht (p, a, m) holds sqrt(beta) h, zero
    off the audience mask (p, a), and x (p, m) gives every audience user
    a gain |ht_k^H x|^2 of at least 1.

    Each user's gain is linearized at x: with g_k = ht_k^H x and
    u_k = g_k ht_k, the constraint 2 Re{u_k^H v} >= b_k = 1 + |g_k|^2
    implies |ht_k^H v|^2 >= 1 and holds at x. Returns the least-norm v
    that meets all of them. That is a least-distance problem: with
    E = [2 u_1 ... 2 u_a; b^T] over the reals and y the `_price_step`
    solution for E^T E and E^T e_last, v = 2 sum_k y_k u_k / (1 - b^T y)
    (Lawson & Hanson, Solving Least Squares Problems, ch. 23).
    """
    g = np.einsum("pam,pm->pa", ht.conj(), x)
    u = g[:, :, None] * ht
    b = np.where(mask, 1.0 + np.abs(g) ** 2, 0.0)
    gram = (4.0 * np.einsum("pam,pbm->pab", u.conj(), u).real
            + b[:, :, None] * b[:, None, :])
    y = _price_step(gram, b, mask)
    return (2.0 * np.einsum("pa,pam->pm", y, u)
            / (1.0 - (b * y).sum(axis=1))[:, None])


def _ccp(ht, mask, w, max_sweeps):
    """Convex-concave procedure on the max-min beams of many pairs: ht
    (p, a, m) holds sqrt(beta) h, zero off the audience mask (p, a); w
    (p, m) are unit start beams. Pairs whose start misses a user are left
    as they are.

    A sweep scales each beam so its weakest user has gain 1 and takes
    `_ccp_step` from there. The step has no larger norm, so its unit
    beam's bottleneck gain is at least as high. A pair keeps a step only
    when it raises that gain, and stops once a sweep raises it by less
    than CCP_TOL relative. Returns (unit beams, sweeps run, whether some
    pair was still rising after max_sweeps).
    """
    w = w.copy()
    gain = _bottleneck(ht, mask, w)
    live = np.flatnonzero(gain > 0.0)
    sweeps = 0
    while live.size and sweeps < max_sweeps:
        sweeps += 1
        h, on = ht[live], mask[live]
        v = _ccp_step(h, on, w[live] / np.sqrt(gain[live])[:, None])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        new = _bottleneck(h, on, v)
        up = new > gain[live]
        w[live[up]] = v[up]
        rising = new > gain[live] * (1.0 + CCP_TOL)
        gain[live[up]] = new[up]
        live = live[rising]
    return w, sweeps, bool(live.size)


def beam_plan_maxmin(ch, messages) -> BeamPlan:
    """Max-min-fair beams and quotes for every (message, subcarrier).

    A single user takes MRT, bit for bit as `beam_plan_mrt`, and two users
    the closed form of `_maxmin_of_two`; both are exact. Larger audiences
    run `_ccp` from the better of the MRT and asymptotic plans, pair by
    pair, and keep that start where the CCP does not quote below it. A
    pair whose audience has a zero channel quotes inf, and every pair gets
    a unit beam (the last unit vector where nothing better exists).
    `sweeps` and `capped` report the CCP.
    """
    h, beta, mask = _audience(ch, messages)
    size = mask.sum(axis=1)
    w = np.zeros(h.shape[:2] + h.shape[3:], dtype=complex)  # (n_msg, n_sc, m)
    w[..., -1] = 1.0
    single = size == 1
    nrm = np.linalg.norm(h[single, :, 0], axis=2, keepdims=True)
    w[single] = np.divide(h[single, :, 0], nrm, out=w[single], where=nrm > 0.0)
    two = size == 2
    if two.any():
        x = _maxmin_of_two(h[two][:, :, :2]
                           * np.sqrt(beta[two, :2])[:, None, :, None])
        nrm = np.linalg.norm(x, axis=2, keepdims=True)
        w[two] = np.divide(x, nrm, out=w[two], where=nrm > 0.0)
    big = size >= 3
    if not big.any():
        return BeamPlan(w=w, q=_quotes(ch, h, beta, mask, w))

    start = _better(beam_plan_mrt(ch, messages),
                    beam_plan_asymptotic(ch, messages))
    # CCP on the pairs whose start reaches every user
    reach = big[:, None] & np.isfinite(start.q)
    msg_of = np.nonzero(reach)[0]
    ht = h[reach] * np.sqrt(beta[msg_of])[:, :, None]
    w[reach], sweeps, capped = _ccp(ht, mask[msg_of], start.w[reach],
                                    CCP_MAX_SWEEPS)
    q = _quotes(ch, h, beta, mask, w)
    keep = big[:, None] & (start.q < q)
    w[keep], q[keep] = start.w[keep], start.q[keep]
    return BeamPlan(w=w, q=q, sweeps=sweeps, capped=capped)
