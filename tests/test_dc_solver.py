"""The convex-concave procedure (CCP) of the max-min beams, and the
planner built on them.

`_price_step`, the Lawson-Hanson solve inside each CCP step, is checked on
hand cases and, under hypothesis, against an enumeration of its active
sets. `_ccp_step` is checked against the linearized constraints its beam
must meet and, under hypothesis, against a scalar least-norm reference.
The CCP is checked for its monotonicity and its fixed point, and
`dc_solve` for its start, its trace, its flags and its audit. The CCP
runs in units that fold sqrt(beta) into the channels, so the references
take the channels as they are.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tilecast import (InfeasibleAllocationError, Message, TilingConfig,
                      ViewDirection, audit_allocation, beam_plan_maxmin,
                      build_messages, build_partition, compute_tile_set,
                      dc_solve, sample_channel, solve_quoted_allocation)
from tilecast import beamforming, dc_solver, ofdma_alloc
from tilecast.beamforming import (CCP_MAX_SWEEPS, CCP_TOL, _bottleneck,
                                  _ccp, _ccp_step, _price_step,
                                  beam_plan_asymptotic, beam_plan_mrt)
from tilecast.channel import _audience
from tilecast.dc_solver import initial_point
from tilecast.harness import (UserSpec, _trial_subsets, default_config,
                              run_trial)
from tilecast.ofdma_alloc import GAP_TOL

B = 39e3


def _msg(audience, demand):
    return Message(level=1, audience=audience, tile_count=1,
                   demand_bits_per_s=demand)


def crandn(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def three_user_instance():
    """A unicast, a two-user and a three-user message on 3 users x 6
    subcarriers: the three-user pairs run the CCP."""
    ch = sample_channel(47, m=4, n_sc=6, k_users=3)
    messages = [_msg((1,), 1.5 * B),
                _msg((2, 3), 2.0 * B),
                _msg((1, 2, 3), 1.0 * B)]
    return ch, messages


def ccp_pairs(ch, messages):
    """The CCP's inputs for every pair of the three-or-more-user
    messages: channels with sqrt(beta) folded in, masks and the start
    beams (the better of the MRT and asymptotic plans)."""
    h, beta, mask = _audience(ch, messages)
    big = mask.sum(axis=1) >= 3
    start = beamforming._ccp_start(ch, messages)
    ht = (h * np.sqrt(beta)[:, None, :, None])[big]
    n_sc = ch.n_sc
    return (ht.reshape((-1,) + ht.shape[2:]),
            np.repeat(mask[big], n_sc, axis=0),
            start.w[big].reshape(-1, ch.m))


# ---------------------------------------------------------------------------
# prices of one step
# ---------------------------------------------------------------------------

def prices(gram, rhs, on=None):
    gram = np.asarray(gram, dtype=float)[None]
    rhs = np.asarray(rhs, dtype=float)[None]
    on = np.ones(rhs.shape, dtype=bool) if on is None else np.array([on])
    return _price_step(gram, rhs, on)[0]


def test_price_step_hand_case():
    # orthogonal slots decouple: y_k = rhs_k / G_kk; slot 2 is off the
    # audience and keeps price 0
    y = prices([[1.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
               [2.0, 2.0, 0.0], [True, True, False])
    assert y.tolist() == [2.0, 0.5, 0.0]


def test_price_step_projects_to_zero():
    # E = [[1, 1], [0, 1]] and f = (1, 0): slot 0 alone leaves a residual
    # on which slot 1's gradient is negative, so slot 1 is priced at 0
    e = np.array([[1.0, 1.0], [0.0, 1.0]])
    y = prices(e.T @ e, e.T @ np.array([1.0, 0.0]))
    assert y[1] == 0.0
    assert y[0] == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_price_step_zero_residuals_unchanged():
    # a single user linearized at its own scaled MRT beam: the step's
    # constraint binds there already, so the step returns that beam
    rng = np.random.default_rng(4)
    h = crandn(rng, 1, 1, 5)
    x = h[:, 0] / np.linalg.norm(h) ** 2
    v = _ccp_step(h, np.ones((1, 1), dtype=bool), x)
    np.testing.assert_allclose(v, x, rtol=1e-12, atol=0.0)


def price_reference(gram, rhs):
    """Scalar reference of `_price_step` on one pair: every active set is
    tried and the first whose solution meets the KKT conditions is kept;
    all zero when none does."""
    a = rhs.size
    scale = np.abs(gram).max() + np.abs(rhs).max()
    for k in range(1, a + 1):
        for act in itertools.combinations(range(a), k):
            idx = list(act)
            sub = gram[np.ix_(idx, idx)]
            if np.linalg.cond(sub) > 1e10:
                continue
            s = np.linalg.solve(sub, rhs[idx])
            if np.any(s <= 0.0):
                continue
            y = np.zeros(a)
            y[idx] = s
            if np.all(gram @ y >= rhs - 1e-9 * scale * (1.0 + y.sum())):
                return y
    return np.zeros(a)


COMPONENT = st.one_of(st.just(0.0), st.floats(1e-2, 2.0), st.floats(-2.0, -1e-2))


@st.composite
def least_squares(draw):
    """Normal equations E^T E, E^T f of small least-squares problems,
    with slots off the mask zeroed as the CCP stores them."""
    rows = draw(st.integers(1, 4))
    a = draw(st.integers(1, 4))
    e = np.array(draw(st.lists(COMPONENT, min_size=rows * a,
                               max_size=rows * a))).reshape(rows, a)
    f = np.array(draw(st.lists(COMPONENT, min_size=rows, max_size=rows)))
    on = np.array(draw(st.lists(st.booleans(), min_size=a, max_size=a)))
    e = e * on
    return e.T @ e, e.T @ f, on


@given(problem=least_squares())
# slot 1 is a copy of slot 0, and slot 2 is off the mask
@example(problem=(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                  np.array([1.0, 1.0, 0.0]), np.array([True, True, False])))
@settings(max_examples=300, deadline=None)
def test_price_step_matches_reference(problem):
    # tolerance: both sides solve the same small systems in another
    # order, so the objectives agree to 1e-9 of their scale
    gram, rhs, on = problem
    got = prices(gram, rhs, on)
    want = price_reference(gram, rhs)
    assert np.all(got >= 0.0) and np.all(got[~on] == 0.0)

    def objective(y):
        return 0.5 * y @ gram @ y - rhs @ y

    scale = 1.0 + np.abs(gram).max() * (1.0 + want.sum()) ** 2 \
        + np.abs(rhs).max() * (1.0 + want.sum())
    assert objective(got) <= objective(want) + 1e-9 * scale


# ---------------------------------------------------------------------------
# the step's beam
# ---------------------------------------------------------------------------

def step_of(h, x):
    """`_ccp_step` for one pair whose audience is every row of h."""
    h = np.asarray(h, dtype=complex)
    return _ccp_step(h[None], np.ones((1, h.shape[0]), dtype=bool),
                     np.asarray(x, dtype=complex)[None])[0]


def lin_slack(h, x, v):
    """Slack of each user's linearized constraint at x; >= 0 is met."""
    g = h.conj() @ x
    return 2.0 * (g.conj() * (h.conj() @ v)).real - (1.0 + np.abs(g) ** 2)


def scaled(h, w):
    """w scaled so its weakest user of h has gain 1."""
    return w / np.sqrt((np.abs(h.conj() @ w) ** 2).min())


def test_plan_powers_only_assigned_pairs_on_unit_beams():
    # the plan spends power only where it assigns, and every subcarrier
    # carries the unit beam of the message it is assigned to
    ch, messages = three_user_instance()
    alloc = dc_solve(ch, messages)
    assert np.all(alloc.power[alloc.assign == 0] == 0.0)
    np.testing.assert_allclose(np.linalg.norm(alloc.beams, axis=1), 1.0,
                               rtol=0.0, atol=1e-12)


def test_ccp_leaves_a_start_that_misses_a_user():
    # a start that misses a user cannot be scaled to gain 1: the CCP
    # leaves that pair alone, and runs the other as usual
    rng = np.random.default_rng(8)
    ht = crandn(rng, 2, 3, 4)
    ht[0, 1] = [1.0, 0.0, 0.0, 0.0]
    w = np.array([[0.0, 1.0, 0.0, 0.0], ht[1].sum(axis=0)])
    w[1] /= np.linalg.norm(w[1])
    out, sweeps, capped = _ccp(ht, np.ones((2, 3), dtype=bool), w, 50)
    assert np.array_equal(out[0], w[0])
    assert sweeps >= 1 and not capped
    assert (_bottleneck(ht[1:], np.ones((1, 3), dtype=bool), out[1:])[0]
            > _bottleneck(ht[1:], np.ones((1, 3), dtype=bool), w[1:])[0])


def test_ccp_step_single_user_along_its_channel():
    rng = np.random.default_rng(5)
    h = 1.6 * crandn(rng, 1, 3)
    x = scaled(h, crandn(rng, 3))
    v = step_of(h, x)
    # the step points along the user's own channel
    cos = abs(np.vdot(v, h[0])) / (np.linalg.norm(v) * np.linalg.norm(h[0]))
    assert cos == pytest.approx(1.0, abs=1e-12)
    # and puts the user exactly on its linearized constraint
    assert lin_slack(h, x, v)[0] == pytest.approx(0.0, abs=1e-12)


def test_ccp_step_slack_user_still_covers_its_offset():
    # user 1 is slack at the step (price 0), yet its constraint, which
    # carries the offset |g|^2 = 4 of its gain at x, still holds
    h = np.array([[1.0, 0.0], [2.0, 0.2]], dtype=complex)
    x = scaled(h, np.array([1.0, 0.0], dtype=complex))
    v = step_of(h, x)
    slack = lin_slack(h, x, v)
    assert slack[0] == pytest.approx(0.0, abs=1e-12)
    assert slack[1] > 0.0
    assert np.all(np.abs(h.conj() @ v) ** 2 >= 1.0 - 1e-12)


def test_ccp_step_meets_every_constraint_binding_one():
    rng = np.random.default_rng(7)
    a, m = 3, 5
    h = crandn(rng, a, m) * np.sqrt(rng.uniform(0.5, 2.0, size=a))[:, None]
    x = scaled(h, crandn(rng, m))
    v = step_of(h, x)
    slack = lin_slack(h, x, v)
    scale = 1.0 + (np.abs(h.conj() @ x) ** 2).max()
    assert np.all(slack >= -1e-9 * scale)
    assert slack.min() == pytest.approx(0.0, abs=1e-9 * scale)
    # the linearized constraints imply the true ones, at no larger norm
    assert np.all(np.abs(h.conj() @ v) ** 2 >= 1.0 - 1e-9)
    assert np.linalg.norm(v) <= np.linalg.norm(x) * (1 + 1e-12)


def test_plan_with_an_unreachable_user_raises():
    # user 3 gets nothing on any subcarrier: the three-user message quotes
    # inf everywhere, keeps a unit beam, and no plan can serve it
    ch, messages = three_user_instance()
    ch.h[:, 2] = 0.0
    plan = beam_plan_maxmin(ch, messages)
    assert np.isinf(plan.q[1:]).all() and np.isfinite(plan.q[0]).all()
    np.testing.assert_allclose(np.linalg.norm(plan.w, axis=2), 1.0,
                               rtol=0.0, atol=1e-12)
    with pytest.raises(InfeasibleAllocationError):
        dc_solve(ch, messages)


def step_reference(h, x):
    """Scalar reference of `_ccp_step`: the least-norm v with
    2 Re{u_k^H v} >= 1 + |g_k|^2, u_k = g_k h_k, g_k = h_k^H x, found by
    trying every set of binding users; None if no set meets the KKT
    conditions."""
    g = h.conj() @ x
    u = g[:, None] * h
    b = 1.0 + np.abs(g) ** 2
    a = b.size
    for k in range(1, a + 1):
        for act in itertools.combinations(range(a), k):
            idx = list(act)
            gram = 2.0 * (u[idx].conj() @ u[idx].T).real
            if np.linalg.cond(gram) > 1e10:
                continue
            mu = np.linalg.solve(gram, b[idx])
            if np.any(mu < 0.0):
                continue
            v = mu @ u[idx]
            if np.all(lin_slack(h, x, v) >= -1e-9 * b.max()):
                return v
    return None


@st.composite
def step_pairs(draw):
    """Pairs of one batch: padded audiences (zero channels off the mask,
    as the CCP stores them) and start beams."""
    p = draw(st.integers(1, 3))
    a_max = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, 3, 4]))
    size = p * a_max * m
    re = np.array(draw(st.lists(COMPONENT, min_size=size, max_size=size)))
    im = np.array(draw(st.lists(COMPONENT, min_size=size, max_size=size)))
    h = (re + 1j * im).reshape(p, a_max, m)
    re = np.array(draw(st.lists(COMPONENT, min_size=p * m, max_size=p * m)))
    im = np.array(draw(st.lists(COMPONENT, min_size=p * m, max_size=p * m)))
    w = (re + 1j * im).reshape(p, m)
    counts = draw(st.lists(st.integers(1, a_max), min_size=p, max_size=p))
    mask = np.arange(a_max)[None, :] < np.array(counts)[:, None]
    return h * mask[:, :, None], mask, w


@given(pairs=step_pairs())
# three users in one antenna: every linearized constraint is parallel
@example(pairs=(np.array([[[1.0], [0.5j], [-2.0]]], dtype=complex),
                np.ones((1, 3), dtype=bool), np.array([[1.0]], dtype=complex)))
@settings(max_examples=300, deadline=None)
def test_ccp_step_matches_scalar_reference(pairs):
    # each start is stretched so its weakest user has gain 1, then one
    # batched step is compared with the scalar reference pair by pair.
    # tolerance: the two solve different systems, so beams agree to
    # 1e-6 of their norm; draws whose weakest gain is under 1e-3 of the
    # strongest, or whose binding systems are ill-conditioned, are skipped
    h, mask, w = pairs
    gains = np.where(mask, np.abs(np.einsum("pam,pm->pa", h.conj(), w)) ** 2,
                     np.inf)
    top = np.where(mask, gains, 0.0).max(axis=1)
    assume(np.all(gains.min(axis=1) > 1e-3 * top))
    x = w / np.sqrt(gains.min(axis=1))[:, None]
    got = _ccp_step(h, mask, x)
    for i in range(h.shape[0]):
        on = mask[i]
        want = step_reference(h[i, on], x[i])
        assume(want is not None)
        np.testing.assert_allclose(got[i], want, rtol=0.0,
                                   atol=1e-6 * np.linalg.norm(want))


# ---------------------------------------------------------------------------
# the whole procedure
# ---------------------------------------------------------------------------

def test_ccp_single_user_reaches_mrt_in_one_sweep():
    # one sweep takes a single user to its MRT gain from any start, and a
    # single-user plan is the water-fill of the MRT quotes
    rng = np.random.default_rng(45)
    ht = crandn(rng, 6, 1, 3)
    w = crandn(rng, 6, 3)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    out, _, _ = _ccp(ht, np.ones((6, 1), dtype=bool), w, 1)
    gain = _bottleneck(ht, np.ones((6, 1), dtype=bool), out)
    np.testing.assert_allclose(gain, (np.abs(ht[:, 0]) ** 2).sum(axis=1),
                               rtol=1e-12)

    ch = sample_channel(45, m=3, n_sc=4, k_users=1)
    messages = [_msg((1,), 2.0 * B)]
    ref = solve_quoted_allocation(messages, beam_plan_mrt(ch, messages).q,
                                  ch.bandwidth_hz)
    assert dc_solve(ch, messages).power_sum == ref.power_sum


def test_ccp_ends_at_a_fixed_point():
    # run to its end, the CCP sits at a fixed point: one more sweep
    # raises no pair's bottleneck gain by CCP_TOL
    ch, messages = three_user_instance()
    ht, mask, w = ccp_pairs(ch, messages)
    out, sweeps, capped = _ccp(ht, mask, w, CCP_MAX_SWEEPS)
    assert sweeps >= 2 and not capped
    again, _, _ = _ccp(ht, mask, out, 1)
    before = _bottleneck(ht, mask, out)
    assert np.all(_bottleneck(ht, mask, again) <= before * (1 + CCP_TOL))


def test_ccp_gains_never_fall_sweep_by_sweep():
    ch, messages = three_user_instance()
    ht, mask, w = ccp_pairs(ch, messages)
    prev = _bottleneck(ht, mask, w)
    for cap in range(1, 8):
        out, sweeps, _ = _ccp(ht, mask, w, cap)
        gain = _bottleneck(ht, mask, out)
        assert np.all(gain >= prev), cap
        prev = gain
    # and the plan's three-user quotes end no higher than the start's
    plan = beam_plan_maxmin(ch, messages)
    start = np.minimum(beam_plan_mrt(ch, messages).q,
                       beam_plan_asymptotic(ch, messages).q)
    assert np.all(plan.q[2] <= start[2])
    assert np.all(plan.q[2] < start[2] * (1 - 1e-3))


# ---------------------------------------------------------------------------
# start point
# ---------------------------------------------------------------------------

def test_initial_point_energy_matches_quoted_solution():
    ch = sample_channel(41, m=4, n_sc=6, k_users=2)
    messages = [_msg((1,), 1.5 * B), _msg((1, 2), 2.0 * B)]
    plan = beam_plan_maxmin(ch, messages)
    start = initial_point(ch, messages, plan)
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    assert start.power_sum == alloc.power_sum
    np.testing.assert_array_equal(start.assign, alloc.assign)
    assigned = np.argmax(alloc.assign, axis=0)
    np.testing.assert_array_equal(start.beams,
                                  plan.w[assigned, np.arange(ch.n_sc)])


def test_initial_point_single_user_beams_are_mrt():
    ch = sample_channel(42, m=3, n_sc=4, k_users=1)
    messages = [_msg((1,), 2.5 * B)]
    start = initial_point(ch, messages, beam_plan_maxmin(ch, messages))
    np.testing.assert_array_equal(start.beams,
                                  beam_plan_mrt(ch, messages).w[0])


# ---------------------------------------------------------------------------
# full planner
# ---------------------------------------------------------------------------

def test_dc_solve_small_instance():
    ch, messages = three_user_instance()
    alloc = dc_solve(ch, messages)
    trace = alloc.diagnostics["e_trace"]
    assert trace == [alloc.power_sum]
    assert set(np.unique(alloc.assign)) <= {0, 1}
    assert audit_allocation(alloc, ch, messages) == []
    # converged: the allocation's gap is within GAP_TOL and no search and
    # no CCP stopped at its cap
    plan = beam_plan_maxmin(ch, messages)
    assert alloc.converged == (alloc.duality_gap <= GAP_TOL
                               and not plan.capped
                               and not alloc.diagnostics["local_search_capped"])


def test_dc_solve_never_worse_than_start():
    # on this instance the plan costs less than the allocation on the
    # better of the MRT and asymptotic quotes, the CCP's start
    ch, messages = three_user_instance()
    alloc = dc_solve(ch, messages)
    menu = beamforming._ccp_start(ch, messages)
    start = initial_point(ch, messages, menu)
    assert alloc.diagnostics["e_trace"][0] <= start.power_sum
    assert alloc.power_sum <= alloc.diagnostics["e_trace"][0]
    assert alloc.power_sum < start.power_sum * (1 - 1e-3)


def test_dc_solve_one_message_passes_end_before_the_cap():
    # paired k-sweep point k = 2 of base seed 4, trial 6: two viewers of one
    # cluster share one message. The convexified passes that planned it
    # before took 12,146 steps; the max-min plan is one closed form and
    # one allocation, and must give a finite power.
    cfg = replace(
        default_config(),
        tiling=TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        users=[UserSpec(ViewDirection(67.5, 67.5), 3),
               UserSpec(ViewDirection(67.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 2)],
        n_sc=16, m=4, base_seed=4)
    result = run_trial(cfg, "proposed-dc", 6,
                       user_subset=_trial_subsets(cfg, 6)[2])
    assert math.isfinite(result.total_power_w)
    assert result.total_power_w > 0.0


def test_dc_solve_makes_one_allocator_solve(monkeypatch):
    # the allocation on the plan is the only dual solve, and the only
    # place a local search runs
    calls, inside, searches = [], [], []
    solve = dc_solver.solve_quoted_allocation
    search = ofdma_alloc._local_search

    def counted(*args, **kwargs):
        calls.append(1)
        inside.append(1)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    def seen(*args, **kwargs):
        searches.append(bool(inside))
        return search(*args, **kwargs)

    monkeypatch.setattr(dc_solver, "solve_quoted_allocation", counted)
    monkeypatch.setattr(ofdma_alloc, "_local_search", seen)
    cfg = default_config()
    for t in range(4):
        calls.clear()
        dc = run_trial(cfg, "proposed-dc", t)
        assert len(calls) == 1, t
        asym = run_trial(cfg, "proposed-asymptotic", t)
        assert dc.total_power_w <= asym.total_power_w * (1 + 1e-9), t
    ch, messages = three_user_instance()
    calls.clear()
    searches.clear()
    dc_solve(ch, messages)
    assert len(calls) == 1
    assert searches == [True]


def test_dc_solve_diagnostics():
    ch, messages = three_user_instance()
    alloc = dc_solve(ch, messages)
    diag = alloc.diagnostics
    assert diag["start"] == "dual"
    assert alloc.iterations > 0
    assert diag["dual_evaluations"] >= alloc.iterations
    assert diag["local_search_passes"] == diag["local_search_moves"] + 1
    assert diag["outer_iterations"] == beam_plan_maxmin(ch, messages).sweeps
    assert diag["outer_iterations"] >= 1
    # no audience of three: no CCP sweep, and the trace is the allocation
    two = dc_solve(ch, messages[:2])
    assert two.diagnostics["outer_iterations"] == 0
    assert two.diagnostics["e_trace"] == [two.power_sum]


def test_capped_pass_search_is_not_converged(monkeypatch):
    # 2 messages x 6 subcarriers: the dual's gap (6e-4) is within GAP_TOL
    # and the search ends in one pass below its cap, so only the CCP's cap
    # can clear `converged`
    ch = sample_channel(47, m=4, n_sc=6, k_users=3)
    messages = [_msg((1,), 1.5 * B),
                _msg((1, 2, 3), 2.0 * B)]
    assert dc_solve(ch, messages).converged
    monkeypatch.setattr(beamforming, "CCP_MAX_SWEEPS", 1)
    assert beam_plan_maxmin(ch, messages).capped
    assert not dc_solve(ch, messages).converged


def test_dc_solve_inf_masked_menu_without_warnings():
    # user 2 gets nothing on subcarriers 0-2, so every message it watches
    # quotes inf there, the three-user CCP skips those pairs, and the
    # allocation runs over inf quotes
    ch = sample_channel(50, m=4, n_sc=8, k_users=3)
    ch.h[:3, 1] = 0.0
    messages = [_msg((1,), 1.5 * B),
                _msg((2, 3), 2.0 * B),
                _msg((1, 2, 3), 1.0 * B)]
    menu_q = np.minimum(beam_plan_asymptotic(ch, messages).q,
                        beam_plan_mrt(ch, messages).q)
    assert np.isinf(menu_q[1:, :3]).all() and np.isfinite(menu_q[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = dc_solve(ch, messages)
    assert alloc.diagnostics["outer_iterations"] >= 1
    assert np.all(alloc.assign[1:, :3] == 0)
    assert audit_allocation(alloc, ch, messages) == []


def test_dc_solve_single_user_matches_asymptotic():
    ch = sample_channel(49, m=4, n_sc=6, k_users=1)
    messages = [_msg((1,), 3.0 * B)]
    alloc = dc_solve(ch, messages)
    plan = beam_plan_asymptotic(ch, messages)
    ref = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    assert alloc.power_sum <= ref.power_sum * (1 + 1e-9)
    assert alloc.power_sum >= ref.power_sum * 0.98
    assert audit_allocation(alloc, ch, messages) == []


# ---------------------------------------------------------------------------
# power unit
# ---------------------------------------------------------------------------

def test_plan_power_and_bound_are_the_reported_watts():
    # default_config() trial 0: the plan's power_sum is the power run_trial
    # reports, bit for bit, and its dual bound lies at or below it
    cfg = default_config()
    result = run_trial(cfg, "proposed-dc", 0)
    ch = sample_channel(result.seed, cfg.m, cfg.n_sc, len(cfg.users),
                        beta=cfg.beta, noise_w=cfg.noise_w,
                        bandwidth_hz=cfg.bandwidth_hz)
    users = dict(enumerate(cfg.users, start=1))
    tile_sets = {k: compute_tile_set(u.direction, cfg.tiling)
                 for k, u in users.items()}
    messages = build_messages(build_partition(tile_sets),
                              {k: u.quality for k, u in users.items()},
                              cfg.ladder)
    alloc = dc_solve(ch, messages)
    assert alloc.power_sum == result.total_power_w
    assert 0.0 < alloc.dual_bound <= result.total_power_w


def test_single_pair_power_is_noise_over_gain_times_snr():
    # one user on one subcarrier at m = 3: the plan sends exactly the SNR
    # 2^(d/B) - 1 over the user's matched gain beta |h|^2, in watts
    ch = sample_channel(43, m=3, n_sc=1, k_users=1)
    demand = 2.5 * ch.bandwidth_hz
    messages = [_msg((1,), demand)]
    alloc = dc_solve(ch, messages)
    h = ch.h[0, 0]
    gain = ch.beta[0] * np.vdot(h, h).real
    snr = 2.0 ** (demand / ch.bandwidth_hz) - 1.0
    assert alloc.power_sum == pytest.approx(ch.noise_w / gain * snr,
                                            rel=1e-12, abs=0.0)
    assert audit_allocation(alloc, ch, messages) == []
