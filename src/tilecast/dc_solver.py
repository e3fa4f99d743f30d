"""General-case planner: max-min-fair beams, then one quoted allocation.

With one message per subcarrier, a (message, subcarrier) pair's power
quote depends only on its beam's bottleneck gain, min_k beta_k|h_k^H w|^2,
and not on the assignment, the power or the rate. So the joint
beam/assignment/power problem splits exactly into two steps: per pair the
max-min-fair multicast beam (`beamforming.beam_plan_maxmin`), then the
quoted allocation (`ofdma_alloc.solve_quoted_allocation`).

One- and two-user beams have closed forms. Larger audiences run a
convex-concave procedure (CCP), a difference-of-convex method, from the
better of the large-antenna and eigenbeam quotes, and no pair quotes
above that start. The allocation then runs once, on the final quotes,
for every audience size.
"""

from .beamforming import (BeamPlan, _better, beam_plan_asymptotic,
                          beam_plan_maxmin, beam_plan_mrt)
from .ofdma_alloc import (Allocation, complete_allocation,
                          solve_quoted_allocation)


def initial_point(ch, messages, plan: BeamPlan) -> Allocation:
    """The quoted allocation on `plan`, with its beams attached: the
    planner's one dual solve."""
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    return complete_allocation(alloc, plan)


def dc_solve(ch, messages) -> Allocation:
    """Full plan for the general case: max-min-fair beams and one quoted
    allocation.

    When some audience has three or more users, the CCP starts from the
    better of the MRT and asymptotic beams; either way the plan is the
    allocation on `beam_plan_maxmin`'s quotes. Its pairs quote no higher
    than that start, but the allocation's search is a heuristic, so a
    plan on the start's quotes may still cost less.

    `iterations`, `unique_argmax`, `duality_gap` and `dual_bound` are the
    allocation's. `converged` says that its gap is within `GAP_TOL` and
    that neither its local search nor the CCP stopped at its cap.
    Diagnostics carry the plan's total power in watts as the one entry of
    `e_trace`, the number of CCP sweeps as `outer_iterations`, and the
    allocation's own diagnostics.
    """
    messages = list(messages)
    start = None
    if any(len(msg.audience) >= 3 for msg in messages):
        start = _better(beam_plan_mrt(ch, messages),
                        beam_plan_asymptotic(ch, messages))
    plan = beam_plan_maxmin(ch, messages, start=start)
    alloc = initial_point(ch, messages, plan)
    alloc.converged &= not plan.capped
    alloc.diagnostics = {**alloc.diagnostics,
                         "e_trace": [alloc.total_power_w],
                         "outer_iterations": plan.sweeps}
    return alloc
