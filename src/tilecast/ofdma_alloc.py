"""Subcarrier assignment and power allocation against fixed power quotes.

Given a per-(message, subcarrier) quote matrix, pick one message per
subcarrier and split power so every message's rate demand is met at minimum
total power. Solved by dual decomposition: a projected-subgradient ascent on
per-message multipliers, where each subcarrier goes to the message with the
best marginal gain and powers follow the water-filling rule. Every candidate
assignment is repaired to exact demand feasibility by a closed-form
water-fill, and the best feasible candidate is kept; the dual value gives a
lower bound certifying the duality gap. The ascent revisits the same argmax
assignment many times; only its first visit takes the primal step, since a
repeat yields the same repaired candidate and total, which cannot beat the
incumbent twice. The dual value and multiplier update run every iteration.

A brute-force oracle enumerates all assignments (bisection water-fill per
message) for small instances.

Power convention: quotes already contain the antenna count and noise factor,
so a stored per-pair power p gives rate B*log2(1 + p/q); the physical
transmit power of a pair is p divided by the antenna count, applied when the
beam plan is attached.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)


class InfeasibleAllocationError(ValueError):
    """No assignment can meet the demands (structurally infeasible)."""


class NonConvergenceError(RuntimeError):
    """Solver stopped above its gap tolerance; carries the best allocation."""

    def __init__(self, message, allocation=None):
        super().__init__(message)
        self.allocation = allocation


@dataclass
class Allocation:
    """A complete or partial transmission plan.

    assign/power/rate have shape (n_messages, n_sc). power follows the
    quote convention (physical watts are power/m). beams is filled by
    complete_allocation; total_power_w = power_sum / m afterwards.
    """

    assign: np.ndarray
    power: np.ndarray
    rate: np.ndarray
    power_sum: float
    beams: np.ndarray = None
    total_power_w: float = None
    converged: bool = True
    unique_argmax: bool = True
    iterations: int = 0
    duality_gap: float = 0.0
    dual_bound: float = 0.0
    gamma: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)


def _demands(messages) -> np.ndarray:
    out = []
    for msg in messages:
        d = getattr(msg, "demand_bits_per_s", msg)
        out.append(float(d))
    d = np.asarray(out, dtype=float)
    if np.any(d <= 0):
        raise ValueError("demands must be positive")
    return d


def waterfill_power(gamma: float, q: float, bandwidth: float) -> float:
    """Power of one subcarrier at multiplier gamma: max(0, gamma*B/ln2 - q)."""
    if q <= 0:
        raise ValueError("quote must be positive")
    return max(0.0, gamma * bandwidth / LN2 - q)


def assignment_gain(gamma: float, q: float, bandwidth: float) -> float:
    """Dual improvement of granting the subcarrier: gamma*B*log2(1+p/q) - p."""
    if q <= 0:
        raise ValueError("quote must be positive")
    p = waterfill_power(gamma, q, bandwidth)
    if p == 0.0 or not math.isfinite(q):
        return 0.0
    return gamma * bandwidth * math.log2(1.0 + p / q) - p


def _waterfill_exact(quotes: np.ndarray, idx: np.ndarray, demand: float,
                     bandwidth: float):
    """Split `demand` over the subcarriers `idx` at minimum power.

    Closed-form water level over the active set (cheapest quotes first).
    Returns (power, rate) as full-width arrays, or None when idx has no
    finite quote. Demand is met exactly.
    """
    n = quotes.shape[0]
    power = np.zeros(n)
    rate = np.zeros(n)
    finite = idx[np.isfinite(quotes[idx])]
    if finite.size == 0:
        return None
    if demand <= 0.0:
        return power, rate
    order = finite[np.argsort(quotes[finite], kind="stable")]
    logs = np.log2(quotes[order])
    # candidate log2 water level with the j cheapest quotes active; the
    # level must sit above quote j and not above quote j+1
    cands = (demand / bandwidth + np.cumsum(logs)) / np.arange(1, order.size + 1)
    fits = cands > logs - 1e-15
    fits[:-1] &= cands[:-1] <= logs[1:] + 1e-15
    hits = np.flatnonzero(fits)
    j_count = hits[0] + 1 if hits.size else order.size  # fallback: all active
    log2w = cands[j_count - 1]
    active = order[:j_count]
    level = 2.0 ** min(log2w, 1000.0)
    rate[active] = bandwidth * (log2w - np.log2(quotes[active]))
    power[active] = np.maximum(0.0, level - quotes[active])
    return power, rate


def _assignment_ties(gain: np.ndarray) -> bool:
    """True when every subcarrier has a strict argmax over messages."""
    if gain.shape[0] < 2:
        return True
    part = np.sort(gain, axis=0)
    top, second = part[-1, :], part[-2, :]
    return bool(np.all(top - second > 1e-12 * (np.abs(top) + 1e-300)))


def _repair_starvation(assigned: np.ndarray, qn: np.ndarray):
    """Give every message at least one subcarrier.

    Starved messages steal their cheapest usable subcarrier from owners
    that keep at least one. Returns None when no steal is possible.
    """
    counts = np.bincount(assigned, minlength=qn.shape[0])
    for mi in np.flatnonzero(counts == 0):
        # sequential over messages: each steal changes the owners' counts
        usable = np.where(counts[assigned] > 1, qn[mi], math.inf)
        best_n = int(np.argmin(usable))  # first minimum, as a left-to-right scan
        if usable[best_n] == math.inf:
            return None
        counts[assigned[best_n]] -= 1
        counts[mi] += 1
        assigned[best_n] = mi
    return assigned


def _greedy_assignment(qn: np.ndarray):
    """Deterministic seed: each message takes its cheapest free subcarrier,
    leftovers go to whoever quotes them lowest."""
    n_msg, n_sc = qn.shape
    assigned = np.full(n_sc, -1, dtype=int)
    for mi in range(n_msg):
        free = np.flatnonzero(assigned < 0)
        usable = free[np.isfinite(qn[mi, free])]
        if usable.size == 0:
            return None
        assigned[usable[np.argmin(qn[mi, usable])]] = mi
    for n in np.flatnonzero(assigned < 0):
        assigned[n] = int(np.argmin(qn[:, n]))
    return assigned


def _local_search(assigned: np.ndarray, qn: np.ndarray, dn: np.ndarray,
                  max_passes: int = 60):
    """Best-improvement descent over the assignment.

    Neighborhood: move one subcarrier to another message, and (on smaller
    instances) swap the owners of two subcarriers, which single moves
    cannot reach when every message holds exactly one. Deterministic;
    exact per-message water-fill totals are memoized.
    """
    n_msg, n_sc = qn.shape
    if n_msg == 1:
        return assigned
    assigned = assigned.copy()
    memo = {}

    def total_for(mi, cols):
        key = (mi, cols)
        val = memo.get(key)
        if val is None:
            wf = _waterfill_exact(qn[mi], np.asarray(cols, dtype=int), dn[mi], 1.0)
            val = math.inf if wf is None else float(wf[0].sum())
            memo[key] = val
        return val

    cols_of = [tuple(int(n) for n in np.flatnonzero(assigned == mi))
               for mi in range(n_msg)]
    totals = [total_for(mi, cols_of[mi]) for mi in range(n_msg)]
    do_swaps = n_sc <= 16
    do_cycles = n_sc <= 12 and n_msg >= 3

    def apply(owner_to_cols):
        for mi, cols in owner_to_cols.items():
            cols_of[mi] = tuple(sorted(cols))
            totals[mi] = total_for(mi, cols_of[mi])
            for n in cols_of[mi]:
                assigned[n] = mi

    for _ in range(max_passes):
        thresh = 1e-12 * sum(totals)
        best_gain, best_move = thresh, None
        for n in range(n_sc):
            a = assigned[n]
            if len(cols_of[a]) <= 1:
                continue
            a_new = tuple(c for c in cols_of[a] if c != n)
            freed = totals[a] - total_for(a, a_new)
            for b in range(n_msg):
                if b == a or not np.isfinite(qn[b, n]):
                    continue
                b_new = tuple(sorted(cols_of[b] + (n,)))
                gain = freed - (total_for(b, b_new) - totals[b])
                if gain > best_gain:
                    best_gain = gain
                    best_move = {a: a_new, b: b_new}
        if do_swaps:
            for n1 in range(n_sc):
                a = assigned[n1]
                for n2 in range(n1 + 1, n_sc):
                    b = assigned[n2]
                    if a == b or not np.isfinite(qn[b, n1]) \
                            or not np.isfinite(qn[a, n2]):
                        continue
                    a_new = tuple(sorted(c for c in cols_of[a] if c != n1) + [n2])
                    b_new = tuple(sorted(c for c in cols_of[b] if c != n2) + [n1])
                    gain = (totals[a] - total_for(a, a_new)
                            + totals[b] - total_for(b, b_new))
                    if gain > best_gain:
                        best_gain = gain
                        best_move = {a: a_new, b: b_new}
        if do_cycles:
            # rotate owners around column triples; reaches optima that
            # strictly-improving moves and pair swaps cannot
            for n1, n2, n3 in itertools.combinations(range(n_sc), 3):
                owners = (assigned[n1], assigned[n2], assigned[n3])
                if len(set(owners)) < 3:
                    continue
                o1, o2, o3 = owners
                for recv in (((o2, n1), (o3, n2), (o1, n3)),
                             ((o3, n1), (o1, n2), (o2, n3))):
                    drop = {o1: n1, o2: n2, o3: n3}
                    add = {mi: n for mi, n in recv}
                    if any(not np.isfinite(qn[mi, n]) for mi, n in add.items()):
                        continue
                    move = {}
                    gain = 0.0
                    for mi in owners:
                        new_cols = tuple(sorted(
                            [c for c in cols_of[mi] if c != drop[mi]]
                            + [add[mi]]))
                        move[mi] = new_cols
                        gain += totals[mi] - total_for(mi, new_cols)
                    if gain > best_gain:
                        best_gain, best_move = gain, move
        if best_move is None:
            break
        apply(best_move)
    return assigned


def solve_quoted_allocation(messages, quotes, bandwidth: float,
                            max_iter: int = 5000, tol: float = 1e-3,
                            step0: float = None, tau: float = 50.0,
                            strict: bool = False) -> Allocation:
    """Minimum-power assignment and power split against a quote matrix.

    Parameters
    ----------
    messages : sequence
        Items with .demand_bits_per_s (or plain demands in bits/s).
    quotes : (n_messages, n_sc) array
        Power quotes; inf marks unusable pairs. Every message needs at
        least one finite quote.
    bandwidth : float
        Per-subcarrier bandwidth in Hz.
    tol : float
        Relative duality-gap target; the converged flag reports it.
    strict : bool
        Raise NonConvergenceError (carrying the best allocation) instead of
        returning with converged=False.
    """
    demands = _demands(messages)
    quotes = np.asarray(quotes, dtype=float)
    n_msg, n_sc = quotes.shape
    if n_msg != demands.shape[0]:
        raise ValueError("quote rows must match messages")
    if np.any(np.nan_to_num(quotes, nan=-1.0, posinf=1.0) <= 0):
        raise ValueError("quotes must be positive")
    finite_any = np.isfinite(quotes).any(axis=1)
    if not finite_any.all():
        raise InfeasibleAllocationError(
            f"message {int(np.argmin(finite_any))} has no usable subcarrier")
    if n_msg > n_sc:
        raise InfeasibleAllocationError(
            f"{n_msg} messages cannot each get one of {n_sc} subcarriers")

    # internal units: quotes in multiples of a reference quote, rates in
    # multiples of B; keeps multipliers O(1) regardless of physical scales
    q_ref = float(np.median(quotes[np.isfinite(quotes)]))
    qn = quotes / q_ref
    dn = demands / bandwidth

    qmin = np.nanmin(np.where(np.isfinite(qn), qn, np.nan), axis=1)
    gamma = LN2 * qmin * 2.0 ** np.minimum(dn / n_sc, 500.0)
    if step0 is None:
        # keep one update around a tenth of the multiplier scale
        step0 = 0.1 * float(np.mean(gamma)) / max(float(dn.max()), 1e-12)

    best_power = math.inf
    best = None
    best_dual = -math.inf
    window = []
    iterations = max_iter
    cache = {}
    seen = set()

    def consider(assigned_arr, gain, gamma_snap):
        nonlocal best_power, best
        key = assigned_arr.tobytes()
        hit = cache.get(key)
        if hit is None:
            total = 0.0
            cand = []
            for mi in range(n_msg):
                idx = np.flatnonzero(assigned_arr == mi)
                wf = _waterfill_exact(qn[mi], idx, dn[mi], 1.0)
                if wf is None:
                    cache[key] = (math.inf, None)
                    return
                cand.append(wf)
                total += wf[0].sum()
            cache[key] = hit = (total, cand)
        total, cand = hit
        if cand is not None and total < best_power * (1.0 - 1e-15):
            best_power = total
            # the tie check is only needed for the incumbent
            unique = True if gain is None else _assignment_ties(gain)
            best = (assigned_arr.copy(), cand, unique, gamma_snap.copy())

    seed = _greedy_assignment(qn)
    if seed is not None:
        consider(seed, None, gamma)

    active_gain = np.zeros((n_msg, n_sc))
    msg_ids = np.arange(n_msg)[:, None]
    with np.errstate(invalid="ignore"):
        for i in range(max_iter):
            water = gamma[:, None] / LN2
            p_star = np.maximum(0.0, water - qn)
            log_ratio = np.log2(np.where(p_star > 0, water / qn, 1.0))
            np.multiply(gamma[:, None], log_ratio, out=active_gain)
            gain = active_gain - p_star
            assigned = np.argmax(gain, axis=0)

            # primal candidate: the argmax assignment, starvation-repaired,
            # on its first visit only (a repeat gives the same candidate,
            # which cannot beat the incumbent again); the dual update below
            # still uses the unrepaired argmax on every iteration
            key = assigned.tobytes()
            if key not in seen:
                seen.add(key)
                repaired = assigned
                if np.bincount(assigned, minlength=n_msg).min() == 0:
                    repaired = _repair_starvation(assigned.copy(), qn)
                if repaired is not None:
                    consider(repaired, gain, gamma)

            # dual value and subgradient on the demand residuals
            sel = assigned == msg_ids
            rates = np.where(sel, log_ratio, 0.0)
            dual_val = float(gamma @ dn - np.where(sel, gain, 0.0).sum())
            best_dual = max(best_dual, dual_val)

            window.append(dual_val)
            if len(window) > 21:
                window.pop(0)
                lo, hi = min(window), max(window)
                if hi - lo <= 1e-6 * max(abs(hi), 1e-300):
                    iterations = i + 1
                    break

            resid = dn - rates.sum(axis=1)
            delta = step0 / (1.0 + i / tau)
            gamma = np.maximum(0.0, gamma + delta * resid)

    if best is None:
        raise InfeasibleAllocationError("no feasible assignment found")

    assigned, cand, unique, gamma_best = best
    polished = _local_search(assigned, qn, dn)
    if not np.array_equal(polished, assigned):
        cand2, total2 = [], 0.0
        for mi in range(n_msg):
            wf = _waterfill_exact(qn[mi], np.flatnonzero(polished == mi),
                                  dn[mi], 1.0)
            cand2.append(wf)
            total2 += wf[0].sum()
        if total2 < best_power:
            assigned, cand, best_power = polished, cand2, total2

    assign = np.zeros((n_msg, n_sc), dtype=int)
    power = np.zeros((n_msg, n_sc))
    rate = np.zeros((n_msg, n_sc))
    for mi in range(n_msg):
        assign[mi, assigned == mi] = 1
        power[mi] = cand[mi][0] * q_ref
        rate[mi] = cand[mi][1] * bandwidth

    gap = max(0.0, (best_power - best_dual) / max(best_power, 1e-300))
    alloc = Allocation(
        assign=assign, power=power, rate=rate,
        power_sum=float(power.sum()),
        converged=bool(gap <= tol),
        unique_argmax=unique,
        iterations=iterations,
        duality_gap=float(gap),
        dual_bound=float(best_dual * q_ref),
        gamma=gamma_best * q_ref / bandwidth,
    )
    if strict and not alloc.converged:
        raise NonConvergenceError(
            f"duality gap {gap:.3e} above tol {tol:.1e}", allocation=alloc)
    return alloc


def _bisect_waterfill(quotes: np.ndarray, demand: float, bandwidth: float):
    """Oracle water-fill: bisection on the water level until rate == demand."""
    q = quotes[np.isfinite(quotes)]
    if q.size == 0:
        return None
    if demand <= 0.0:
        return 0.0, np.zeros_like(quotes)
    qmin = q.min()
    lo = qmin
    hi = qmin * 2.0 ** min(demand / bandwidth, 1000.0)

    def rate_at(level):
        act = q[q < level]
        if act.size == 0:
            return 0.0
        return bandwidth * np.log2(level / act).sum()

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) < demand:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    level = hi
    power = np.where(np.isfinite(quotes), np.maximum(0.0, level - quotes), 0.0)
    return float(power.sum()), power


def brute_force_allocation(messages, quotes, bandwidth: float) -> Allocation:
    """Global optimum by enumerating every subcarrier-to-message map.

    For each assignment, each message's demand is met exactly by bisection
    on its water level. Limited to n_messages**n_sc <= 1e5.
    """
    demands = _demands(messages)
    quotes = np.asarray(quotes, dtype=float)
    n_msg, n_sc = quotes.shape
    if n_msg ** n_sc > 10 ** 5:
        raise ValueError(f"instance too large: {n_msg}^{n_sc} assignments")

    best_total = math.inf
    best_map = None
    best_powers = None
    second = math.inf
    tried = 0
    for attempt in itertools.product(range(n_msg), repeat=n_sc):
        tried += 1
        amap = np.asarray(attempt)
        total = 0.0
        powers = []
        feasible = True
        for mi in range(n_msg):
            cols = np.flatnonzero(amap == mi)
            if cols.size == 0:
                feasible = False
                break
            wf = _bisect_waterfill(quotes[mi, cols], demands[mi], bandwidth)
            if wf is None:
                feasible = False
                break
            total += wf[0]
            powers.append((cols, wf[1]))
        if not feasible:
            continue
        if total < best_total * (1.0 - 1e-15):
            second = best_total
            best_total = total
            best_map = amap
            best_powers = powers
        elif total < second:
            second = total

    if best_map is None:
        raise InfeasibleAllocationError("every assignment starves some message")

    assign = np.zeros((n_msg, n_sc), dtype=int)
    power = np.zeros((n_msg, n_sc))
    rate = np.zeros((n_msg, n_sc))
    for mi, (cols, pw) in enumerate(best_powers):
        assign[mi, cols] = 1
        power[mi, cols] = pw
        pos = pw > 0
        rate[mi, cols[pos]] = bandwidth * np.log2(1.0 + pw[pos] / quotes[mi, cols[pos]])
    unique = not (math.isfinite(second) and second - best_total <= 1e-12 * best_total)
    return Allocation(assign=assign, power=power, rate=rate,
                      power_sum=float(best_total), iterations=tried,
                      unique_argmax=unique, duality_gap=0.0,
                      dual_bound=float(best_total))


def complete_allocation(alloc: Allocation, plan) -> Allocation:
    """Attach per-subcarrier beams and the physical total power.

    The subcarrier's beam is the assigned message's direction; physical
    total power divides the stored power sum by the antenna count.
    """
    n_msg, n_sc = alloc.assign.shape
    m = plan.w.shape[2]
    beams = np.zeros((n_sc, m), dtype=np.complex128)
    for n in range(n_sc):
        mi = int(np.argmax(alloc.assign[:, n]))
        w = plan.w[mi, n]
        nrm = np.linalg.norm(w)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"missing or non-unit beam for message {mi}, subcarrier {n}")
        beams[n] = w
    alloc.beams = beams
    alloc.total_power_w = alloc.power_sum / m
    return alloc


def audit_allocation(alloc: Allocation, ch, messages, rel: float = 1e-6) -> list:
    """Check a finished plan against every model constraint.

    Returns a list of violation descriptions; empty means the plan is valid.
    """
    problems = []
    assign, power, rate = alloc.assign, alloc.power, alloc.rate
    if not np.all((assign == 0) | (assign == 1)):
        problems.append("assignment not binary")
    if not np.all(assign.sum(axis=0) == 1):
        problems.append("some subcarrier not assigned exactly once")
    if np.any(power < 0) or not np.all(np.isfinite(power)):
        problems.append("negative or non-finite power")
    if np.any(rate < 0):
        problems.append("negative rate")
    if np.any((assign == 0) & (power > 0)):
        problems.append("power on unassigned pair")

    if alloc.beams is not None:
        norms = np.linalg.norm(alloc.beams, axis=1)
        if np.any(np.abs(norms - 1.0) > rel):
            problems.append("non-unit beam")
        for mi, msg in enumerate(messages):
            idx = [k - 1 for k in msg.audience]
            cols = np.flatnonzero(alloc.assign[mi] == 1)
            for n in cols:
                if rate[mi, n] <= 0:
                    continue
                g = ch.beta[idx] * np.abs(ch.h[n, idx, :].conj() @ alloc.beams[n]) ** 2
                snr = power[mi, n] * g / (ch.m * ch.noise_w)
                user_rates = ch.bandwidth_hz * np.log2(1.0 + snr)
                if np.any(user_rates < rate[mi, n] * (1.0 - rel)):
                    problems.append(f"user rate below message rate at ({mi}, {n})")

    demands = _demands(messages)
    short = rate.sum(axis=1) < demands * (1.0 - rel)
    if np.any(short):
        problems.append(f"demand not met for messages {np.flatnonzero(short).tolist()}")
    return problems
