"""General-case planner: successive convexification with dual recovery.

The joint beam/assignment/rate problem has a difference-of-convex structure:
the rate constraint bounds an exponential of the rate by a convex quadratic
of the combined beam variable (beam direction scaled by the square root of
its power). Linearizing that quadratic at the current point gives a convex
inner problem whose KKT conditions have closed forms; a projected
subgradient on the multipliers drives assignment, rates, and beams jointly.
The start is one quoted allocation on the direction menu (per pair, the
cheaper of the large-antenna and eigenbeam quotes). After each pass a
local search re-assigns subcarriers against the cheaper of the recovered
and the menu quotes, and an exact water-fill splits the power; this
repairs feasibility and keeps the objective from increasing across passes.

The inner loop's rules each have one implementation, an array function
over all (message, subcarrier) pairs at once: `_scores` (dual value of a
grant, with its sentinels), `_pick` (column argmax and tie flag),
`_priced_rate`, `_direction` and `_stretch` (stationarity beam and its
minimal feasible stretch) and `_price_step`.

Internally everything runs in scaled units: channels are premultiplied by
sqrt(beta * p0 / (m * noise)) for a reference power p0, and rates are in
multiples of the subcarrier bandwidth, so multipliers stay O(1) regardless
of physical scales.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .beamforming import beam_plan_asymptotic, beam_plan_mrt
from .channel import _audience
from .ofdma_alloc import (Allocation, solve_quoted_allocation, _local_search,
                          _waterfill_sets)

LN2 = math.log(2.0)
EXP_CAP = 500.0  # clamp on base-2 exponents; 2**500 stays finite
OUTER_MAX = 100  # convexified solves per plan
OUTER_TOL = 1e-4  # relative power change that ends the outer loop
INNER_MAX = 5000  # dual iterations per convexified solve
INNER_TOL = 1e-3  # relative drop over 20 inner iterations that ends it


@dataclass
class DcState:
    """Iterate of the outer loop.

    scaled_beams combines direction and power: the squared norm of each
    (message, subcarrier) entry is that pair's power in the quote
    convention (physical watts are norm^2 / m). assign_frac is the relaxed
    assignment (binary after recovery), rate the per-pair rates in bits/s.
    diagnostics holds those of the allocation the state came from.
    """

    scaled_beams: np.ndarray
    assign_frac: np.ndarray
    rate: np.ndarray
    total_power_w: float = 0.0
    diagnostics: dict = field(default_factory=dict)

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


class _Workspace:
    """Padded per-instance tensors in scaled units."""

    def __init__(self, ch, messages):
        self.bw = float(ch.bandwidth_hz)
        self.n_msg = len(messages)
        self.n_sc = ch.n_sc
        self.m = ch.m
        self.msgs = np.arange(self.n_msg)
        h, beta, self.mask = _audience(ch, messages)
        self.a_max = self.mask.shape[1]

        gains = ch.beta[None, :] * (np.abs(ch.h) ** 2).sum(axis=2)  # (n_sc, k)
        self.p0 = ch.m * ch.noise_w / float(np.median(gains))
        self.hhat = h * np.sqrt(beta * self.p0 / (ch.m * ch.noise_w))[:, None, :, None]
        self.dn = np.array([msg.demand_bits_per_s for msg in messages],
                           dtype=float) / self.bw
        self.cols = np.arange(self.n_sc)


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

    on = (assigned == ws.msgs[:, None]) & (c_int > 0)
    top = np.where(on, lam.sum(axis=2) * 2.0 ** np.minimum(c_int, EXP_CAP),
                   -np.inf).max(axis=1)
    gam = LN2 * np.where(on.any(axis=1), top, fill)
    return DcDuals(demand_price=gam, user_price=lam)


def _scores(gam: np.ndarray, price_sum: np.ndarray, live: np.ndarray):
    """Dual value of granting each subcarrier to each message.

    price_sum (n_msg, n_sc) plays the role of an effective quote under the
    linearized constraint; the score is the priced rate minus a power proxy,
    gam*log2(gam/(ln2*price_sum)) - gam/ln2 + price_sum. Sentinels: a pair
    that is not live, or has price_sum = 0 and a positive demand price,
    scores -inf; a zero demand price scores price_sum. Returns the scores
    and the log term, which `_priced_rate` reuses.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.log2(gam[:, None] / (LN2 * np.maximum(price_sum, 1e-300)))
        scores = np.where(
            gam[:, None] > 0,
            gam[:, None] * log_term - gam[:, None] / LN2 + price_sum,
            price_sum)
    scores = np.where((price_sum <= 0) & (gam[:, None] > 0), -np.inf, scores)
    scores = np.where(live, scores, -np.inf)
    return scores, log_term


def _pick(scores: np.ndarray, incumbent: np.ndarray):
    """Per subcarrier, the best-scoring message (the first on ties); a
    column where every message scores -inf keeps its incumbent. The flag
    is False when some column's top two scores are within 1e-12 relative."""
    assigned = incumbent.copy()
    free = np.any(scores > -np.inf, axis=0)
    if free.any():
        assigned[free] = np.argmax(scores[:, free], axis=0)
    if scores.shape[0] > 1 and free.any():
        part = np.sort(scores[:, free], axis=0)
        with np.errstate(invalid="ignore"):
            gapped = part[-1] - part[-2] > 1e-12 * (np.abs(part[-1]) + 1.0)
        return assigned, bool(np.all(gapped | ~np.isfinite(part[-2])))
    return assigned, True


def _priced_rate(log_term: np.ndarray, sel: np.ndarray,
                 gam: np.ndarray) -> np.ndarray:
    """Optimal rate (in multiples of B) of each selected pair at the given
    prices: the log term floored at 0 and capped at EXP_CAP, which is also
    the rate of price_sum = 0; zero off the selection and for a zero
    demand price."""
    return np.where(sel & (gam[:, None] > 0),
                    np.clip(log_term, 0.0, EXP_CAP), 0.0)


def _direction(lam_sel: np.ndarray, hw_sel: np.ndarray, hhat_sel: np.ndarray):
    """Stationarity direction of each subcarrier's pair and the linearized
    gain it gives each audience user.

    Direction: d = sum_k lam_k (h_k^H w_prev) h_k over the audience, from
    the prices lam_sel (n_sc, a), the gains h_k^H w_prev in hw_sel and the
    channels hhat_sel (n_sc, a, m). Gain: 2 Re{(h_k^H w_prev)^* (h_k^H d)}.
    """
    dvec = np.einsum("nk,nkm->nm", lam_sel * hw_sel, hhat_sel)
    hd_sel = np.einsum("nkm,nm->nk", hhat_sel.conj(), dvec)
    return dvec, 2.0 * (hw_sel.conj() * hd_sel).real


def _stretch(c_sel: np.ndarray, gsq_sel: np.ndarray, den: np.ndarray,
             mask_sel: np.ndarray):
    """Least stretch of each direction that meets every audience user's
    linearized rate constraint: the max over users of
    [(2^c - 1) + |h^H w_prev|^2] / den, den being the `_direction` gain.
    Users off mask_sel, and users with nothing to cover, impose nothing.
    None when a user with something to cover has den <= 0: no stretch of
    that direction reaches them.
    """
    num = (2.0 ** c_sel[:, None] - 1.0) + gsq_sel
    num *= mask_sel
    need = num > 1e-300
    if np.any(need & (den <= 0.0)):
        return None
    with np.errstate(invalid="ignore"):
        ratios = np.where(need, num / np.where(den > 0, den, 1.0), 0.0)
    return ratios.max(axis=1)


def _price_step(lam: np.ndarray, gam: np.ndarray, viol: np.ndarray,
                resid: np.ndarray, delta: float):
    """Projected subgradient step: raise the prices of violated
    constraints, lower the others, never below zero."""
    return (np.maximum(0.0, lam + delta * viol),
            np.maximum(0.0, gam + delta * resid))


def _inner(ws: _Workspace, w_int: np.ndarray, assigned0: np.ndarray,
           c_prev: np.ndarray, duals: DcDuals):
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
    iters = INNER_MAX

    for i in range(INNER_MAX):
        price_sum = (lam * mask_all).sum(axis=2)
        scores, log_term = _scores(gam, price_sum, live)
        assigned, unique = _pick(scores, assigned0)

        sel = (assigned == ws.msgs[:, None]) & live
        c = _priced_rate(log_term, sel, gam)

        # candidate recovery: exact-demand rates (scaled up, or spread
        # evenly where the priced rates are all zero), then minimal stretch
        tot = c.sum(axis=1)
        counts = sel.sum(axis=1)
        ok = bool(np.all(counts > 0))
        if ok:
            with np.errstate(divide="ignore", invalid="ignore"):
                c_rep = np.where(tot[:, None] > 0, c * (ws.dn / tot)[:, None],
                                 np.where(sel, (ws.dn / counts)[:, None], 0.0))
            ok = not np.any(c_rep > EXP_CAP)

        mask_sel = ws.mask[assigned]                      # (n_sc, a_max)
        hw_sel = hw[assigned, ws.cols]
        gsq_sel = gsq[assigned, ws.cols]
        dvec, den = _direction(lam[assigned, ws.cols] * mask_sel, hw_sel,
                               ws.hhat[assigned, ws.cols])

        alpha = (_stretch(c_rep[assigned, ws.cols], gsq_sel, den, mask_sel)
                 if ok else None)
        if alpha is not None:
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
            if window[0] - window[-1] <= INNER_TOL * max(window[-1], 1e-300):
                iters = i + 1
                break

        # price updates: rate-constraint residuals are evaluated at the
        # dual-stationary beam (the unstretched direction)
        viol_sel = (2.0 ** c[assigned, ws.cols][:, None] - 1.0) - (den - gsq_sel)
        live_sel = live[assigned, ws.cols]
        viol = np.zeros((ws.n_msg, ws.n_sc, ws.a_max))
        viol[assigned, ws.cols] = np.where(
            mask_sel & live_sel[:, None], viol_sel, 0.0)
        resid = ws.dn - c.sum(axis=1)
        lam, gam = _price_step(lam, gam, viol, resid, step0 / (1.0 + i / 50.0))

    return best, DcDuals(demand_price=gam, user_price=lam), iters


def _fill(ws: _Workspace, quotes: np.ndarray, assigned: np.ndarray,
          dirs: np.ndarray):
    """Exact water-fill of every message's demand over its subcarriers at
    `quotes`, with beams along `dirs` (one per subcarrier). Returns None
    when some message has no usable subcarrier."""
    power, rate, ok = _waterfill_sets(
        quotes, ws.dn, np.argsort(quotes, axis=1, kind="stable"), ws.msgs,
        assigned == ws.msgs[:, None])
    if not ok.all():
        return None
    w = np.zeros((ws.n_msg, ws.n_sc, ws.m), dtype=np.complex128)
    w[assigned, ws.cols] = np.sqrt(power[assigned, ws.cols])[:, None] * dirs
    return {"power": power, "rate": rate, "w": w, "dirs": dirs,
            "energy": float(power.sum())}


def _polish(ws: _Workspace, assigned: np.ndarray, w_int: np.ndarray,
            menu_dirs: np.ndarray, menu_q: np.ndarray):
    """Exact water-fill along a pass's beam directions, after a local
    search re-assigns subcarriers.

    Each candidate pair keeps its direction (the menu's on zero-power
    pairs), requoted by its weakest audience user; every pair takes the
    cheaper of that quote and its menu quote. The search starts from the
    candidate's assignment and only descends, so the plan never costs
    more than the candidate's own water-fill. Returns (plan or None,
    assignment, search passes, search moves).
    """
    w_cols = w_int[assigned, ws.cols]
    norms = np.linalg.norm(w_cols, axis=1)
    use_fb = norms <= 1e-150
    dirs = np.where(use_fb[:, None], menu_dirs[assigned, ws.cols],
                    w_cols / np.where(use_fb, 1.0, norms)[:, None])

    hhat_sel = ws.hhat[assigned, ws.cols]
    g = np.abs(np.einsum("nkm,nm->nk", hhat_sel.conj(), dirs)) ** 2
    g = np.where(ws.mask[assigned], g, np.inf)
    gmin = g.min(axis=1)
    with np.errstate(divide="ignore"):
        q_cols = np.where(gmin > 0, 1.0 / np.maximum(gmin, 1e-300), np.inf)

    q_full, dirs_full = menu_q.copy(), menu_dirs.copy()
    better = q_cols < q_full[assigned, ws.cols]
    at = assigned[better], ws.cols[better]
    q_full[at] = q_cols[better]
    dirs_full[at] = dirs[better]

    assigned, passes, moves = _local_search(assigned, q_full, ws.dn)
    plan = _fill(ws, q_full, assigned, dirs_full[assigned, ws.cols])
    return plan, assigned, passes, moves


def _direction_menu(ch, messages):
    """Per pair, the better of the large-antenna closed form and the
    covariance eigenbeam: (unit directions, quotes). Lets the passes move
    subcarriers, not just reshape beams."""
    plan = beam_plan_asymptotic(ch, messages)
    plan_mrt = beam_plan_mrt(ch, messages)
    take_mrt = plan_mrt.q < plan.q
    return (np.where(take_mrt[:, :, None], plan_mrt.w, plan.w),
            np.minimum(plan.q, plan_mrt.q))


def initial_point(ch, messages, *, _menu=None) -> DcState:
    """Feasible start: the quoted allocation on the direction menu. dc_solve
    hands in the menu it already built as _menu, so one solve builds it
    once. The state's diagnostics are the allocation's, with its duality
    gap.
    """
    dirs, q = _direction_menu(ch, messages) if _menu is None else _menu
    alloc = solve_quoted_allocation(messages, q, ch.bandwidth_hz)
    w = np.sqrt(alloc.power)[:, :, None] * dirs
    return DcState(scaled_beams=w, assign_frac=alloc.assign.astype(float),
                   rate=alloc.rate.copy(), total_power_w=alloc.power_sum / ch.m,
                   diagnostics={**alloc.diagnostics,
                                "duality_gap": alloc.duality_gap})


def dc_solve(ch, messages) -> Allocation:
    """Full plan for the general case: one quoted allocation on the
    direction menu, then convexified passes until the total power
    stabilizes, each polished by an exact water-fill and re-assigned by
    local search.

    The returned allocation has binary assignment, per-pair powers in the
    quote convention, demand-exact rates, and one unit beam per subcarrier.
    Diagnostics carry the outer power trace in watts (non-increasing), the
    start allocation's diagnostics and each pass's local-search moves.
    """
    messages = list(messages)
    ws = _Workspace(ch, messages)
    menu = _direction_menu(ch, messages)
    state = initial_point(ch, messages, _menu=menu)
    menu_dirs, menu_q = menu[0], menu[1] / ws.p0

    assigned = np.argmax(state.assign_frac, axis=0)
    # water-fill the start in scaled units, so the trace begins at an
    # exactly-feasible point
    pol = _fill(ws, menu_q, assigned, menu_dirs[assigned, ws.cols])
    w_int, c_int = pol["w"], pol["rate"]
    best_pol = pol
    energy = pol["energy"]
    e_trace = [energy * ws.p0 / ws.m]
    duals = _init_duals(ws, w_int, assigned, c_int)

    total_inner = 0
    converged = False
    unique = True
    inner_ok = True
    capped = state.diagnostics["local_search_capped"]
    pass_moves = []
    for _ in range(OUTER_MAX):
        cand, duals, iters = _inner(ws, w_int, assigned, c_int, duals)
        total_inner += iters
        unique = unique and cand["unique"]
        inner_ok = inner_ok and (iters < INNER_MAX)
        pol, pol_assigned, passes, moves = _polish(
            ws, cand["assigned"], cand["w"], menu_dirs, menu_q)
        pass_moves.append(moves)
        capped = capped or 0 < passes == moves
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
        if abs(e_prev - energy) <= OUTER_TOL * max(energy, 1e-300):
            converged = True
            break

    power = best_pol["power"] * ws.p0
    rate = best_pol["rate"] * ws.bw
    assign = (assigned == ws.msgs[:, None]).astype(int)
    return Allocation(
        assign=assign, power=power, rate=rate,
        power_sum=float(power.sum()),
        beams=best_pol["dirs"].copy(),
        total_power_w=float(power.sum()) / ws.m,
        converged=bool(converged and inner_ok and not capped),
        unique_argmax=unique,
        iterations=total_inner,
        duality_gap=float("nan"),
        dual_bound=float("nan"),
        diagnostics={"e_trace": e_trace,
                     "outer_iterations": len(e_trace) - 1,
                     "start_allocation": state.diagnostics,
                     "pass_moves": pass_moves},
    )
