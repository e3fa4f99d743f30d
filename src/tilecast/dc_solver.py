"""General-case planner: joins the max-min-fair beam plan to one quoted
allocation.

With one message per subcarrier, a (message, subcarrier) pair's power
quote depends only on its beam's bottleneck gain, min_k beta_k|h_k^H w|^2,
and not on the assignment, the power or the rate. So the joint
beam/assignment/power problem splits exactly into two steps: per pair the
max-min-fair multicast beam (`beamforming.beam_plan_maxmin`), then the
quoted allocation (`ofdma_alloc.solve_quoted_allocation`), run once.

The module adds nothing else, and stays only for the names the
benchmark's tracer wraps until ROADMAP item 6 folds it into `run_trial`.
"""

from dataclasses import replace

from .beamforming import BeamPlan, beam_plan_maxmin
# unused here; bound for the benchmark's tracer until ROADMAP item 6
from .beamforming import beam_plan_asymptotic, beam_plan_mrt  # noqa: F401
from .ofdma_alloc import (Allocation, complete_allocation,
                          solve_quoted_allocation)


def initial_point(ch, messages, plan: BeamPlan) -> Allocation:
    """The quoted allocation on `plan`, with its beams attached: the
    planner's one dual solve."""
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    return complete_allocation(alloc, plan)


def dc_solve(ch, messages) -> Allocation:
    """Full plan for the general case: the allocation on
    `beam_plan_maxmin`'s quotes.

    Where the CCP runs, its pairs quote no higher than its start, but the
    allocation's search is a heuristic, so a plan on the start's quotes
    may still cost less.

    `iterations`, `unique_argmax`, `duality_gap` and `dual_bound` are the
    allocation's. `converged` says that its gap is within `GAP_TOL` and
    that neither its local search nor the CCP stopped at its cap.
    Diagnostics carry the plan's total power in watts as the one entry of
    `e_trace`, the number of CCP sweeps as `outer_iterations`, and the
    allocation's own diagnostics; the allocation itself is left as it is.
    """
    messages = list(messages)   # read by the beam plan and the allocation
    plan = beam_plan_maxmin(ch, messages)
    alloc = initial_point(ch, messages, plan)
    return replace(alloc, converged=alloc.converged and not plan.capped,
                   diagnostics={**alloc.diagnostics,
                                "e_trace": [alloc.total_power_w],
                                "outer_iterations": plan.sweeps})
