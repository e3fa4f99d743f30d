"""General-case planner: successive convexification with dual recovery.

The joint beam/assignment/rate problem has a difference-of-convex structure:
the rate constraint bounds an exponential of the rate by a convex quadratic
of the combined beam variable (beam direction scaled by the square root of
its power). Linearizing that quadratic at the current point gives a convex
inner problem whose KKT conditions have closed forms; a projected
subgradient on the multipliers drives assignment, rates, and beams jointly.
Each pass is followed by an exact water-fill polish along the recovered beam
directions, which both repairs feasibility and keeps the objective from
increasing across outer iterations.

Internally everything runs in scaled units: channels are premultiplied by
sqrt(beta * p0 / (m * noise)) for a reference power p0, and rates are in
multiples of the subcarrier bandwidth, so multipliers stay O(1) regardless
of physical scales. The public rule functions work in original units.
"""

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import (InfeasibleDirectionError, beam_plan_asymptotic,
                          beam_plan_mrt)
from .ofdma_alloc import (Allocation, InfeasibleAllocationError,
                          solve_quoted_allocation, _waterfill_exact)

LN2 = math.log(2.0)
EXP_CAP = 500.0  # clamp on base-2 exponents; 2**500 stays finite


@dataclass
class DcState:
    """Iterate of the outer loop.

    scaled_beams combines direction and power: the squared norm of each
    (message, subcarrier) entry is that pair's power in the quote
    convention (physical watts are norm^2 / m). assign_frac is the relaxed
    assignment (binary after recovery), rate the per-pair rates in bits/s.
    """

    scaled_beams: np.ndarray
    assign_frac: np.ndarray
    rate: np.ndarray
    outer_iter: int = 0
    total_power_w: float = 0.0

    def __post_init__(self):
        self.scaled_beams = np.asarray(self.scaled_beams, dtype=np.complex128)
        self.assign_frac = np.asarray(self.assign_frac, dtype=float)
        self.rate = np.asarray(self.rate, dtype=float)
        n_msg, n_sc, _ = self.scaled_beams.shape
        if self.assign_frac.shape != (n_msg, n_sc) or self.rate.shape != (n_msg, n_sc):
            raise ValueError("field shapes disagree")
        if np.any(self.assign_frac < -1e-12) or np.any(self.rate < -1e-12):
            raise ValueError("assignment and rates must be nonnegative")
        col = self.assign_frac.sum(axis=0)
        if np.any(np.abs(col - 1.0) > 1e-9):
            raise ValueError("assignment must sum to 1 per subcarrier")


@dataclass
class DcDuals:
    """Multipliers: demand_price per message, user_price per
    (message, subcarrier, audience slot)."""

    demand_price: np.ndarray
    user_price: np.ndarray

    def __post_init__(self):
        self.demand_price = np.asarray(self.demand_price, dtype=float)
        self.user_price = np.asarray(self.user_price, dtype=float)
        if np.any(self.demand_price < 0) or np.any(self.user_price < 0):
            raise ValueError("multipliers must be nonnegative")


def pair_score(demand_price: float, price_sum: float, bandwidth: float) -> float:
    """Dual value of granting a subcarrier to a message.

    price_sum plays the role of an effective quote under the linearized
    constraint; the score is the priced rate minus a power proxy.
    Sentinels: price_sum = 0 scores -inf for a positive demand price
    (unbounded rate) and 0 otherwise; a zero demand price scores price_sum.
    """
    if demand_price < 0 or price_sum < 0:
        raise ValueError("prices must be nonnegative")
    if price_sum == 0.0:
        return -math.inf if demand_price > 0 else 0.0
    if demand_price == 0.0:
        return price_sum
    return (demand_price * math.log2(demand_price / (LN2 * price_sum))
            - demand_price * bandwidth / LN2 + price_sum)


def pick_assignment(scores) -> tuple:
    """Argmax with lexicographic ties; returns (index, unique flag)."""
    scores = np.asarray(scores, dtype=float)
    if not np.any(scores > -math.inf):
        raise ValueError("no assignable message on this subcarrier")
    idx = int(np.argmax(scores))
    top = scores[idx]
    rest = np.delete(scores, idx)
    unique = True
    if rest.size:
        unique = bool(top - rest.max() > 1e-12 * (abs(top) + 1.0))
    return idx, unique


def priced_rate(demand_price: float, price_sum: float, assigned: float,
                bandwidth: float) -> float:
    """Optimal rate of an assigned pair at the given prices."""
    if assigned not in (0, 1, 0.0, 1.0):
        raise ValueError("assignment must be binary")
    if not assigned or demand_price == 0.0:
        return 0.0
    if price_sum == 0.0:
        return math.inf
    return assigned * bandwidth * max(0.0, math.log2(demand_price / (LN2 * price_sum)))


def feasible_beam(user_prices, h_aud, beta, w_prev, assigned, rate_bits,
                  noise_w: float, bandwidth: float) -> np.ndarray:
    """Scaled beam for one pair: the stationarity direction, stretched just
    enough that the linearized rate constraint holds for every audience user.

    Direction: sum over users of price * beta * (h^H w_prev) * h. The
    stretch is the max over users of
    [mu*(2^(c/(B*mu)) - 1) + beta*|h^H w_prev|^2/(m*noise)] /
    [2*beta*Re{(h^H w_prev)^* (h^H d)}/(m*noise)].
    """
    h_aud = np.asarray(h_aud, dtype=np.complex128)
    w_prev = np.asarray(w_prev, dtype=np.complex128)
    if h_aud.ndim != 2 or h_aud.shape[1] != w_prev.shape[0]:
        raise ValueError("channel and beam dimensions disagree")
    prices = np.asarray(user_prices, dtype=float)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (h_aud.shape[0],))
    m = w_prev.shape[0]
    if not assigned:
        return np.zeros(m, dtype=np.complex128)
    hw = h_aud.conj() @ w_prev
    d = (prices * beta * hw) @ h_aud
    if not np.any(np.abs(d) > 0):
        return np.zeros(m, dtype=np.complex128)
    hd = h_aud.conj() @ d
    scale = m * noise_w
    num = (2.0 ** min(rate_bits / bandwidth, EXP_CAP) - 1.0) + beta * np.abs(hw) ** 2 / scale
    den = 2.0 * beta * (hw.conj() * hd).real / scale
    alpha = 0.0
    for nk, dk in zip(num, den):
        if nk <= 0.0:
            continue
        if dk <= 0.0:
            raise InfeasibleDirectionError(
                "linearized constraint cannot be met along this direction")
        alpha = max(alpha, nk / dk)
    return alpha * d


def price_step(duals: DcDuals, rate_violation, demand_residual,
               delta: float) -> DcDuals:
    """Projected subgradient update: raise prices on violated constraints."""
    if delta <= 0:
        raise ValueError("step must be positive")
    lam = np.maximum(0.0, duals.user_price + delta * np.asarray(rate_violation))
    gam = np.maximum(0.0, duals.demand_price + delta * np.asarray(demand_residual))
    return DcDuals(demand_price=gam, user_price=lam)


class _Workspace:
    """Padded per-instance tensors in scaled units."""

    def __init__(self, ch, messages, bandwidth=None):
        self.ch = ch
        self.messages = list(messages)
        self.bw = float(bandwidth if bandwidth is not None else ch.bandwidth_hz)
        self.n_msg = len(self.messages)
        self.n_sc = ch.n_sc
        self.m = ch.m
        aud = [[k - 1 for k in msg.audience] for msg in self.messages]
        self.a_max = max(len(a) for a in aud)
        self.mask = np.zeros((self.n_msg, self.a_max), dtype=bool)
        idx = np.zeros((self.n_msg, self.a_max), dtype=int)
        for i, a in enumerate(aud):
            self.mask[i, :len(a)] = True
            idx[i, :len(a)] = a

        gains = ch.beta[None, :] * (np.abs(ch.h) ** 2).sum(axis=2)  # (n_sc, k)
        self.p0 = ch.m * ch.noise_w / float(np.median(gains))
        scale = np.sqrt(ch.beta[None, :, None] * self.p0 / (ch.m * ch.noise_w))
        h_scaled = ch.h * scale  # (n_sc, k, m)
        self.hhat = np.transpose(h_scaled[:, idx, :], (1, 0, 2, 3)).copy()
        self.hhat *= self.mask[:, None, :, None]
        self.demands = np.array([msg.demand_bits_per_s for msg in self.messages],
                                dtype=float)
        self.dn = self.demands / self.bw
        self.cols = np.arange(self.n_sc)

    def scale_in(self, w):
        return np.asarray(w, dtype=np.complex128) / math.sqrt(self.p0)

    def scale_out(self, w):
        return w * math.sqrt(self.p0)


def _init_duals(ws: _Workspace, w_int: np.ndarray, assigned: np.ndarray,
                c_int: np.ndarray) -> DcDuals:
    """Seed multipliers from the stationarity relation at the start point.

    A uniform per-audience price reproducing the start beam satisfies
    price * sum_k |h^H w|^2 = |w|^2; the demand price inverts the rate rule
    at the most loaded assigned subcarrier.
    """
    hw = np.einsum("inkm,inm->ink", ws.hhat.conj(), w_int)
    gsq = np.abs(hw) ** 2 * ws.mask[:, None, :]
    norms = np.einsum("inm,inm->in", w_int.conj(), w_int).real
    denom = gsq.sum(axis=2)
    lam_pair = np.divide(norms, denom, out=np.zeros_like(norms), where=denom > 0)
    live = lam_pair[lam_pair > 0]
    fill = float(np.median(live)) if live.size else 1.0
    lam_pair = np.where(lam_pair > 0, lam_pair, fill)
    lam = np.where(ws.mask[:, None, :], lam_pair[:, :, None], 0.0)

    price_sum = lam.sum(axis=2)
    gam = np.zeros(ws.n_msg)
    for mi in range(ws.n_msg):
        on = (assigned == mi) & (c_int[mi] > 0)
        if on.any():
            gam[mi] = LN2 * float(
                np.max(price_sum[mi, on] * 2.0 ** np.minimum(c_int[mi, on], EXP_CAP)))
        else:
            gam[mi] = LN2 * fill
    return DcDuals(demand_price=gam, user_price=lam)


def _inner(ws: _Workspace, w_int: np.ndarray, assigned0: np.ndarray,
           c_prev: np.ndarray, duals: DcDuals, max_iter: int, tol: float):
    """Dual loop over the convex approximation at linearization point w_int.

    Tracks the best feasible candidate; the start point itself is the first
    candidate, so the result never regresses past the linearization point.
    Pairs the start point spends no power on are frozen out (the linearized
    gain there is identically zero), so columns keep their incumbent
    message unless another live message outbids it.
    """
    mask_all = ws.mask[:, None, :]
    hw = np.einsum("inkm,inm->ink", ws.hhat.conj(), w_int)
    gsq = np.abs(hw) ** 2 * mask_all
    live = gsq.sum(axis=2) > 0.0

    lam = duals.user_price.copy()
    gam = duals.demand_price.copy()
    e_prev = float((np.abs(w_int) ** 2).sum())
    best = {"assigned": assigned0.copy(), "c": c_prev.copy(), "w": w_int.copy(),
            "energy": e_prev, "unique": True}
    step0 = 1.0 / max(ws.dn.max(), 1.0)
    window = []
    iters = max_iter

    for i in range(max_iter):
        price_sum = (lam * mask_all).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.log2(gam[:, None] / (LN2 * np.maximum(price_sum, 1e-300)))
            scores = np.where(
                gam[:, None] > 0,
                gam[:, None] * log_term - gam[:, None] / LN2 + price_sum,
                price_sum)
        scores = np.where((price_sum <= 0) & (gam[:, None] > 0), -np.inf, scores)
        scores = np.where(live, scores, -np.inf)

        assigned = assigned0.copy()
        free = np.any(scores > -np.inf, axis=0)
        if free.any():
            assigned[free] = np.argmax(scores[:, free], axis=0)
        if ws.n_msg > 1 and free.any():
            part = np.sort(scores[:, free], axis=0)
            with np.errstate(invalid="ignore"):
                gapped = part[-1] - part[-2] > 1e-12 * (np.abs(part[-1]) + 1.0)
            unique = bool(np.all(gapped | ~np.isfinite(part[-2])))
        else:
            unique = True

        sel = np.zeros((ws.n_msg, ws.n_sc), dtype=bool)
        sel[assigned, ws.cols] = True
        sel &= live
        c = np.where(sel & (gam[:, None] > 0),
                     np.clip(log_term, 0.0, EXP_CAP), 0.0)

        # candidate recovery: exact-demand rates, then minimal beam stretch
        tot = c.sum(axis=1)
        counts = sel.sum(axis=1)
        c_rep = np.zeros_like(c)
        ok = bool(np.all(counts > 0))
        if ok:
            for mi in range(ws.n_msg):
                if tot[mi] > 0:
                    c_rep[mi] = c[mi] * (ws.dn[mi] / tot[mi])
                else:
                    c_rep[mi, sel[mi]] = ws.dn[mi] / counts[mi]
            if np.any(c_rep > EXP_CAP):
                ok = False

        mask_sel = ws.mask[assigned]                      # (n_sc, a_max)
        lam_sel = lam[assigned, ws.cols] * mask_sel
        hw_sel = hw[assigned, ws.cols]
        hhat_sel = ws.hhat[assigned, ws.cols]
        gsq_sel = gsq[assigned, ws.cols]
        dvec = np.einsum("nk,nkm->nm", lam_sel * hw_sel, hhat_sel)
        hd_sel = np.einsum("nkm,nm->nk", hhat_sel.conj(), dvec)
        den = 2.0 * (hw_sel.conj() * hd_sel).real

        if ok:
            c_sel = c_rep[assigned, ws.cols]
            num = (2.0 ** c_sel[:, None] - 1.0) + gsq_sel
            num *= mask_sel
            need = num > 1e-300
            if np.any(need & (den <= 0.0)):
                ok = False
            else:
                with np.errstate(invalid="ignore"):
                    ratios = np.where(need, num / np.where(den > 0, den, 1.0), 0.0)
                alpha = ratios.max(axis=1)
                w_cand = alpha[:, None] * dvec
                energy = float((np.abs(w_cand) ** 2).sum())
                if energy < best["energy"] * (1.0 - 1e-15):
                    w_full = np.zeros_like(w_int)
                    w_full[assigned, ws.cols] = w_cand
                    best = {"assigned": assigned.copy(), "c": c_rep.copy(),
                            "w": w_full, "energy": energy, "unique": unique}

        window.append(best["energy"])
        if len(window) > 20:
            window.pop(0)
            if window[0] - window[-1] <= tol * max(window[-1], 1e-300):
                iters = i + 1
                break

        # price updates: rate-constraint residuals are evaluated at the
        # dual-stationary beam (the unstretched direction)
        lin = 2.0 * (hw_sel.conj() * hd_sel).real - gsq_sel
        c_dual_sel = c[assigned, ws.cols]
        viol_sel = (2.0 ** c_dual_sel[:, None] - 1.0) - lin
        live_sel = live[assigned, ws.cols]
        viol = np.zeros((ws.n_msg, ws.n_sc, ws.a_max))
        viol[assigned, ws.cols] = np.where(
            mask_sel & live_sel[:, None], viol_sel, 0.0)
        resid = ws.dn - c.sum(axis=1)

        delta = step0 / (1.0 + i / 50.0)
        lam = np.maximum(0.0, lam + delta * viol)
        gam = np.maximum(0.0, gam + delta * resid)

    return best, DcDuals(demand_price=gam, user_price=lam), iters


def _polish(ws: _Workspace, assigned: np.ndarray, w_int: np.ndarray,
            fallback: np.ndarray):
    """Exact water-fill along the candidate's beam directions.

    Keeps each pair's direction (falling back to the start direction on
    zero-power pairs), requotes it, and re-splits every message's demand in
    closed form. Returns None when some message has no usable subcarrier.
    """
    w_cols = w_int[assigned, ws.cols]
    norms = np.linalg.norm(w_cols, axis=1)
    use_fb = norms <= 1e-150
    dirs = np.where(use_fb[:, None], fallback[assigned, ws.cols],
                    w_cols / np.where(use_fb, 1.0, norms)[:, None])

    hhat_sel = ws.hhat[assigned, ws.cols]
    g = np.abs(np.einsum("nkm,nm->nk", hhat_sel.conj(), dirs)) ** 2
    g = np.where(ws.mask[assigned], g, np.inf)
    gmin = g.min(axis=1)
    with np.errstate(divide="ignore"):
        q_cols = np.where(gmin > 0, 1.0 / np.maximum(gmin, 1e-300), np.inf)

    quotes = np.full((ws.n_msg, ws.n_sc), np.inf)
    quotes[assigned, ws.cols] = q_cols
    power = np.zeros((ws.n_msg, ws.n_sc))
    rate = np.zeros((ws.n_msg, ws.n_sc))
    for mi in range(ws.n_msg):
        cols = np.flatnonzero(assigned == mi)
        wf = _waterfill_exact(quotes[mi], cols, ws.dn[mi], 1.0)
        if wf is None:
            return None
        power[mi], rate[mi] = wf
    w_next = np.zeros_like(w_int)
    w_next[assigned, ws.cols] = np.sqrt(power[assigned, ws.cols])[:, None] * dirs
    return {"power": power, "rate": rate, "w": w_next, "dirs": dirs,
            "q_cols": q_cols, "energy": float(power.sum())}


def _polish_realloc(ws: _Workspace, assigned: np.ndarray, w_int: np.ndarray,
                    menu_dirs: np.ndarray, menu_q: np.ndarray):
    """Polish that may also move subcarriers between messages.

    First the plain directional water-fill on the incumbent assignment.
    Then the full allocator is re-run against the elementwise best quotes
    (refined directions where available, precomputed closed-form beams
    elsewhere); its plan replaces the incumbent only when cheaper, so the
    outer power trace stays non-increasing.
    """
    pol = _polish(ws, assigned, w_int, menu_dirs)
    if pol is None:
        return None, assigned

    dirs_full = menu_dirs.copy()
    q_full = menu_q.copy()
    better = pol["q_cols"] < q_full[assigned, ws.cols]
    rows, cols = assigned[better], ws.cols[better]
    q_full[rows, cols] = pol["q_cols"][better]
    dirs_full[rows, cols] = pol["dirs"][better]

    try:
        alloc = solve_quoted_allocation(ws.dn, q_full, 1.0,
                                        max_iter=1500, tol=1e-3)
    except InfeasibleAllocationError:
        return pol, assigned
    if alloc.power_sum >= pol["energy"] * (1.0 - 1e-12):
        return pol, assigned

    new_assigned = np.argmax(alloc.assign, axis=0)
    sel_dirs = dirs_full[new_assigned, ws.cols]
    w_next = np.zeros_like(w_int)
    w_next[new_assigned, ws.cols] = (
        np.sqrt(alloc.power[new_assigned, ws.cols])[:, None] * sel_dirs)
    out = {"power": alloc.power, "rate": alloc.rate, "w": w_next,
           "dirs": sel_dirs, "q_cols": q_full[new_assigned, ws.cols],
           "energy": float(alloc.power_sum)}
    return out, new_assigned


def initial_point(ch, messages, mode: str = "asymptotic", seed: int = 0, *,
                  _plan=None) -> DcState:
    """Feasible start: the large-antenna solution, or a random one.

    The random mode spreads every message over all subcarriers with equal
    relaxed assignment and doubles power until demands are met; it exists
    for robustness testing, not for quality. dc_solve hands in the
    asymptotic plan it already built as _plan, so one solve builds it once.
    """
    if mode == "asymptotic":
        plan = beam_plan_asymptotic(ch, messages) if _plan is None else _plan
        alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
        w = np.sqrt(alloc.power)[:, :, None] * plan.w
        return DcState(scaled_beams=w, assign_frac=alloc.assign.astype(float),
                       rate=alloc.rate.copy(), outer_iter=0,
                       total_power_w=alloc.power_sum / ch.m)
    if mode != "random":
        raise ValueError(f"unknown start mode: {mode!r}")

    rng = np.random.default_rng(seed)
    n_msg, n_sc, m = len(messages), ch.n_sc, ch.m
    dirs = rng.standard_normal((n_msg, n_sc, m)) + 1j * rng.standard_normal(
        (n_msg, n_sc, m))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    mu = np.full((n_msg, n_sc), 1.0 / n_msg)
    w = np.zeros((n_msg, n_sc, m), dtype=np.complex128)
    rate = np.zeros((n_msg, n_sc))
    for mi, msg in enumerate(messages):
        idx = [k - 1 for k in msg.audience]
        proj = np.einsum("nam,nm->na", ch.h[:, idx, :].conj(), dirs[mi])
        gains = ch.beta[idx][None, :] * np.abs(proj) ** 2
        gmin = gains.min(axis=1)
        frac = mu[mi]
        p = 1e-3
        r = np.zeros(n_sc)
        for _ in range(400):
            r = frac * ch.bandwidth_hz * np.log2(
                1.0 + gmin * p / (frac * ch.m * ch.noise_w))
            if r.sum() >= msg.demand_bits_per_s:
                break
            p *= 2.0
        rate[mi] = r
        w[mi] = math.sqrt(p) * dirs[mi]
    return DcState(scaled_beams=w, assign_frac=mu, rate=rate, outer_iter=0,
                   total_power_w=float((np.abs(w) ** 2).sum()) / ch.m)


def solve_convex_approx(w_prev, ch, messages, bandwidth=None,
                        max_iter: int = 5000, tol: float = 1e-6,
                        duals: DcDuals = None):
    """One convexified solve at linearization point w_prev (a DcState).

    Returns (state, duals, info): the best feasible point of the
    approximation, warm-startable multipliers, and iteration metadata.
    """
    if not isinstance(w_prev, DcState):
        raise TypeError("linearization point must be a DcState")
    ws = _Workspace(ch, messages, bandwidth)
    w_int = ws.scale_in(w_prev.scaled_beams)
    tiebreak = 1e-12 * np.abs(w_prev.scaled_beams).sum(axis=2)
    assigned0 = np.argmax(w_prev.assign_frac + tiebreak, axis=0)
    c_prev = w_prev.rate / ws.bw
    if duals is None:
        duals = _init_duals(ws, w_int, assigned0, c_prev)
    best, duals_out, iters = _inner(ws, w_int, assigned0, c_prev, duals,
                                    max_iter, tol)
    assign = np.zeros((ws.n_msg, ws.n_sc))
    assign[best["assigned"], ws.cols] = 1.0
    state = DcState(
        scaled_beams=ws.scale_out(best["w"]),
        assign_frac=assign,
        rate=best["c"] * ws.bw,
        outer_iter=w_prev.outer_iter + 1,
        total_power_w=best["energy"] * ws.p0 / ws.m)
    info = {"iterations": iters, "unique_argmax": best["unique"],
            "converged": iters < max_iter}
    return state, duals_out, info


def dc_solve(ch, messages, bandwidth=None, outer_max: int = 100,
             tol: float = 1e-4, inner_max: int = 5000, inner_tol: float = 1e-6,
             mode: str = "asymptotic", seed: int = 0) -> Allocation:
    """Full plan for the general case: iterate convexified solves until the
    total power stabilizes, polishing every pass with an exact water-fill.

    The returned allocation has binary assignment, per-pair powers in the
    quote convention, demand-exact rates, and one unit beam per subcarrier.
    Diagnostics carry the outer power trace in watts (non-increasing).
    """
    messages = list(messages)
    ws = _Workspace(ch, messages, bandwidth)
    plan = beam_plan_asymptotic(ch, messages)
    state = initial_point(ch, messages, mode=mode, seed=seed, _plan=plan)

    # direction menu: per pair, the better of the large-antenna closed form
    # and the covariance eigenbeam; gives every pair a usable direction and
    # lets the polish move subcarriers, not just reshape beams
    plan_mrt = beam_plan_mrt(ch, messages)
    take_mrt = plan_mrt.q < plan.q
    menu_dirs = np.where(take_mrt[:, :, None], plan_mrt.w, plan.w)
    menu_q = np.minimum(plan.q, plan_mrt.q) / ws.p0

    w_int = ws.scale_in(state.scaled_beams)
    tiebreak = 1e-12 * np.abs(state.scaled_beams).sum(axis=2)
    assigned = np.argmax(state.assign_frac + tiebreak, axis=0)

    # polish the start so the trace begins at an exactly-feasible point
    pol, assigned = _polish_realloc(ws, assigned, w_int, menu_dirs, menu_q)
    if pol is None:
        raise InfeasibleDirectionError("start point leaves a message unserved")
    w_int, c_int = pol["w"], pol["rate"]
    best_pol = pol
    energy = pol["energy"]
    e_trace = [energy * ws.p0 / ws.m]
    duals = _init_duals(ws, w_int, assigned, c_int)

    total_inner = 0
    converged = False
    unique = True
    inner_ok = True
    for _ in range(outer_max):
        cand, duals, iters = _inner(ws, w_int, assigned, c_int, duals,
                                    inner_max, inner_tol)
        total_inner += iters
        unique = unique and cand["unique"]
        inner_ok = inner_ok and (iters < inner_max)
        pol, pol_assigned = _polish_realloc(ws, cand["assigned"], cand["w"],
                                            menu_dirs, menu_q)
        if pol is None:
            break
        if pol["energy"] > energy * (1.0 + 1e-12):
            break  # majorization safeguard: never accept an increase
        w_int, c_int = pol["w"], pol["rate"]
        if not np.array_equal(pol_assigned, assigned):
            assigned = pol_assigned
            duals = _init_duals(ws, w_int, assigned, c_int)
        best_pol = pol
        e_prev, energy = energy, pol["energy"]
        e_trace.append(energy * ws.p0 / ws.m)
        if abs(e_prev - energy) <= tol * max(energy, 1e-300):
            converged = True
            break

    power = best_pol["power"] * ws.p0
    rate = best_pol["rate"] * ws.bw
    assign = np.zeros((ws.n_msg, ws.n_sc), dtype=int)
    assign[assigned, ws.cols] = 1
    return Allocation(
        assign=assign, power=power, rate=rate,
        power_sum=float(power.sum()),
        beams=best_pol["dirs"].copy(),
        total_power_w=float(power.sum()) / ws.m,
        converged=bool(converged and inner_ok),
        unique_argmax=unique,
        iterations=total_inner,
        duality_gap=float("nan"),
        dual_bound=float("nan"),
        diagnostics={"e_trace": e_trace,
                     "outer_iterations": len(e_trace) - 1,
                     "start_mode": mode},
    )
