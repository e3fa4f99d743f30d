"""General-case planner: max-min-fair beams, then one quoted allocation.

With one message per subcarrier, a (message, subcarrier) pair's power
quote depends only on its beam's bottleneck gain, min_k beta_k|h_k^H w|^2,
and not on the assignment, the power or the rate. So the joint
beam/assignment/power problem splits exactly into two steps: per pair the
max-min-fair multicast beam (`beamforming.beam_plan_maxmin`), then the
quoted allocation (`ofdma_alloc.solve_quoted_allocation`).

One- and two-user beams have closed forms. Larger audiences run a
convex-concave procedure (CCP), a difference-of-convex method, from the
better of the large-antenna and eigenbeam quotes. Their start is
allocated first; the CCP's lower quotes are then re-assigned by one local
search from that assignment, and an exact water-fill splits the power, so
the plan never costs more than its start.
"""

import numpy as np

from .beamforming import (BeamPlan, _better, beam_plan_asymptotic,
                          beam_plan_maxmin, beam_plan_mrt)
from .ofdma_alloc import (Allocation, _demands, _local_search,
                          _waterfill_sets, complete_allocation,
                          solve_quoted_allocation)


def _pick(scores: np.ndarray, incumbent: np.ndarray):
    """Per subcarrier, the best-scoring message (the first on ties); a
    column where every message scores -inf keeps its incumbent. The flag
    is False when some column's top two scores are within 1e-12 relative.
    Unused by the planner; to be deleted together with its tests."""
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


def initial_point(ch, messages, plan: BeamPlan) -> Allocation:
    """The quoted allocation on `plan`, with its beams attached: the
    planner's one dual solve."""
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    return complete_allocation(alloc, plan)


def _reassign(ch, messages, assigned, quotes):
    """One local search on `quotes` from the assignment `assigned`, then
    the exact water-fill of its result. Returns the binary assignment, the
    power and rate arrays, and whether the search stopped at its cap."""
    q_ref = float(np.median(quotes[np.isfinite(quotes)]))
    qn = quotes / q_ref
    dn = _demands(messages) / ch.bandwidth_hz
    msgs = np.arange(len(messages))
    assigned, passes, moves = _local_search(assigned, qn, dn)
    sets = assigned == msgs[:, None]
    power, rate, _ = _waterfill_sets(
        qn, dn, np.argsort(qn, axis=1, kind="stable"), msgs, sets)
    return (sets.astype(int), power * q_ref, rate * ch.bandwidth_hz,
            0 < passes == moves)


def dc_solve(ch, messages) -> Allocation:
    """Full plan for the general case: max-min-fair beams and one quoted
    allocation.

    When no audience has three or more users every beam is exact, and the
    plan is the allocation on `beam_plan_maxmin`'s quotes. Otherwise the
    allocation runs on the start (the larger audiences on the better of
    the asymptotic and MRT beams), and after the CCP a local search from
    its assignment re-assigns subcarriers against the final quotes; the
    result is kept unless it costs more.

    `iterations`, `unique_argmax`, `duality_gap` and `dual_bound` are the
    allocation's. `converged` says that its gap is within `GAP_TOL` and
    that neither a local search nor the CCP stopped at its cap.
    Diagnostics carry the power trace in watts (the start, then the
    re-assigned plan if the CCP ran), the number of CCP sweeps as
    `outer_iterations`, and the allocation's own diagnostics.
    """
    messages = list(messages)
    menu = None
    if any(len(msg.audience) >= 3 for msg in messages):
        menu = _better(beam_plan_mrt(ch, messages),
                       beam_plan_asymptotic(ch, messages))
    plan = beam_plan_maxmin(ch, messages, start=menu)
    start = plan
    if plan.sweeps:
        big = np.array([len(msg.audience) >= 3 for msg in messages])[:, None]
        start = BeamPlan(w=np.where(big[..., None], menu.w, plan.w),
                         q=np.where(big, menu.q, plan.q))
    alloc = initial_point(ch, messages, start)
    e_trace = [alloc.total_power_w]
    converged = alloc.converged and not plan.capped
    if plan.sweeps:
        assign, power, rate, search_capped = _reassign(
            ch, messages, np.argmax(alloc.assign, axis=0), plan.q)
        converged = converged and not search_capped
        if power.sum() <= alloc.power_sum:
            alloc.assign, alloc.power, alloc.rate = assign, power, rate
            alloc.power_sum = float(power.sum())
            complete_allocation(alloc, plan)
            e_trace.append(alloc.total_power_w)
    alloc.converged = converged
    alloc.diagnostics = {**alloc.diagnostics, "e_trace": e_trace,
                         "outer_iterations": plan.sweeps}
    return alloc
