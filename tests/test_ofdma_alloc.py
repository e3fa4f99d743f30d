"""Subcarrier assignment and water-filled power against exhaustive oracles."""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecast import (InfeasibleAllocationError, Message, NonConvergenceError,
                      assignment_gain, audit_allocation, beam_plan_asymptotic,
                      brute_force_allocation, complete_allocation,
                      sample_channel, solve_quoted_allocation, waterfill_power)
from tilecast.ofdma_alloc import (LN2, _bisect_waterfill, _repair_starvation,
                                  _waterfill_exact)

B = 39e3


# ---------------------------------------------------------------------------
# scalar pieces
# ---------------------------------------------------------------------------

def test_waterfill_power_zero_multiplier():
    assert waterfill_power(0.0, 1e-9, B) == 0.0


def test_waterfill_power_level_at_quote():
    q = 2e-9
    assert waterfill_power(LN2 * q / B, q, B) == 0.0


def test_waterfill_power_level_at_twice_quote():
    q = 2e-9
    assert waterfill_power(2.0 * LN2 * q / B, q, B) == pytest.approx(q, rel=1e-12)


def test_waterfill_power_rejects_bad_quote():
    with pytest.raises(ValueError):
        waterfill_power(1.0, 0.0, B)
    with pytest.raises(ValueError):
        waterfill_power(1.0, -1e-9, B)


def test_assignment_gain_cases():
    q = 1.5e-9
    assert assignment_gain(0.0, q, B) == 0.0
    assert assignment_gain(LN2 * q / B, q, B) == 0.0       # water level at quote
    gamma = 2.0 * LN2 * q / B                              # power exactly q
    assert assignment_gain(gamma, q, B) == pytest.approx(gamma * B - q, rel=1e-12)
    assert assignment_gain(1.0, float("inf"), B) == 0.0


# ---------------------------------------------------------------------------
# water-fill cross-oracle
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2 ** 16), d_over_b=st.floats(0.05, 6.0),
       n=st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_waterfill_exact_matches_bisection(seed, d_over_b, n):
    rng = np.random.default_rng(seed)
    quotes = 10.0 ** rng.uniform(-10, -8, size=n)
    demand = d_over_b * B
    power, rate = _waterfill_exact(quotes, np.arange(n), demand, B)
    total_oracle, p_oracle = _bisect_waterfill(quotes, demand, B)
    assert rate.sum() == pytest.approx(demand, rel=1e-9)
    assert power.sum() == pytest.approx(total_oracle, rel=1e-6)
    np.testing.assert_allclose(power, p_oracle, rtol=1e-5,
                               atol=1e-9 * total_oracle + 1e-18)


def test_waterfill_exact_skips_infinite_quotes():
    quotes = np.array([1e-9, np.inf, 2e-9])
    power, rate = _waterfill_exact(quotes, np.arange(3), 2.0 * B, B)
    assert power[1] == rate[1] == 0.0
    assert rate.sum() == pytest.approx(2.0 * B, rel=1e-9)
    assert _waterfill_exact(np.array([np.inf]), np.arange(1), B, B) is None


# ---------------------------------------------------------------------------
# vectorized kernels against their scalar reference loops
# ---------------------------------------------------------------------------

def waterfill_reference(quotes, idx, demand, bandwidth):
    """Scalar water-level search: the first j whose level fits between the
    j-th and (j+1)-th cheapest quote, else all finite quotes active."""
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
    prefix = np.cumsum(logs)
    j_count = order.size
    log2w = (demand / bandwidth + prefix[-1]) / j_count
    for j in range(1, order.size + 1):
        cand = (demand / bandwidth + prefix[j - 1]) / j
        if cand > logs[j - 1] - 1e-15 and (j == order.size
                                          or cand <= logs[j] + 1e-15):
            log2w = cand
            j_count = j
            break
    active = order[:j_count]
    level = 2.0 ** min(log2w, 1000.0)
    rate[active] = bandwidth * (log2w - np.log2(quotes[active]))
    power[active] = np.maximum(0.0, level - quotes[active])
    return power, rate


def repair_reference(assigned, qn):
    """Scalar starvation repair: each starved message, in index order, takes
    the first cheapest finite-quote column whose owner keeps one."""
    n_msg, n_sc = qn.shape
    counts = np.bincount(assigned, minlength=n_msg)
    for mi in np.flatnonzero(counts == 0):
        best_n, best_q = -1, math.inf
        for n in range(n_sc):
            if counts[assigned[n]] > 1 and qn[mi, n] < best_q:
                best_q, best_n = qn[mi, n], n
        if best_n < 0:
            return None
        counts[assigned[best_n]] -= 1
        counts[mi] += 1
        assigned[best_n] = mi
    return assigned


# a few repeated values make tied quotes common; inf marks unusable pairs
QUOTE_VALUES = st.sampled_from([0.5, 1.0, 2.0, 3.0, math.inf])


@st.composite
def waterfill_instances(draw):
    n = draw(st.integers(1, 8))
    quotes = np.array(draw(st.lists(
        st.one_of(QUOTE_VALUES, st.floats(1e-3, 1e3)), min_size=n, max_size=n)))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=n, unique=True)))
    bandwidth = draw(st.sampled_from([1.0, B]))
    # demands far below one ulp of the log level probe the 1e-15 windows
    demand = draw(st.one_of(st.just(0.0), st.floats(1e-18, 1e-12),
                            st.floats(1e-6, 40.0))) * bandwidth
    return quotes, idx, demand, bandwidth


def assert_same_waterfill(quotes, idx, demand, bandwidth):
    got = _waterfill_exact(quotes, idx, demand, bandwidth)
    want = waterfill_reference(quotes, idx, demand, bandwidth)
    if want is None:
        assert got is None
        return None
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


@given(inst=waterfill_instances())
@example(inst=(np.full(4, 2.0), np.arange(4), 3.0, 1.0))          # equal quotes
@example(inst=(np.full(3, 2.0), np.arange(3), 1e-17, 1.0))        # level on a quote
@example(inst=(np.array([1.5]), np.array([0]), 2.0 * B, B))       # one column
@example(inst=(np.array([np.inf, 1.0]), np.array([0]), 1.0, 1.0))  # no finite
@settings(max_examples=300, deadline=None)
def test_waterfill_exact_matches_scalar_level_search(inst):
    assert_same_waterfill(*inst)


def test_waterfill_exact_all_active_fallback():
    # huge quotes and a demand below their log spacing: no level passes the
    # 1e-15 window, so both searches fall back to all columns active
    quotes = np.array([2.0 ** 100, 2.0 ** 101, 2.0 ** 102])
    _, rate = assert_same_waterfill(quotes, np.arange(3), 1e-300, 1.0)
    assert rate[-1] != 0.0  # the dearest column is active too


@st.composite
def starvation_instances(draw):
    n_msg = draw(st.integers(1, 5))
    n_sc = draw(st.integers(n_msg, 9))
    qn = np.array(draw(st.lists(QUOTE_VALUES, min_size=n_msg * n_sc,
                                max_size=n_msg * n_sc))).reshape(n_msg, n_sc)
    assigned = np.array(draw(st.lists(st.integers(0, n_msg - 1),
                                      min_size=n_sc, max_size=n_sc)))
    return assigned, qn


@given(inst=starvation_instances())
# two starved messages; message 1 breaks a tie on columns 1 and 2
@example(inst=(np.zeros(4, dtype=int),
               np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 3.0],
                         [1.0, 1.0, 2.0, 2.0]])))
# no owner can give a column away: no steal possible
@example(inst=(np.array([0, 1]), np.ones((3, 2))))
# the starved message quotes inf everywhere: no steal possible
@example(inst=(np.zeros(3, dtype=int),
               np.array([[1.0, 1.0, 1.0], [math.inf] * 3])))
@settings(max_examples=300, deadline=None)
def test_repair_starvation_matches_scalar_loop(inst):
    assigned, qn = inst
    got = _repair_starvation(assigned.copy(), qn)
    want = repair_reference(assigned.copy(), qn)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# solver closed-form cases
# ---------------------------------------------------------------------------

def test_one_message_one_subcarrier():
    q, d = 1e-9, 2.0 * B
    alloc = solve_quoted_allocation([d], np.array([[q]]), B)
    assert alloc.assign[0, 0] == 1
    assert alloc.power[0, 0] == pytest.approx(q * (2 ** (d / B) - 1), rel=1e-9)
    assert alloc.rate[0, 0] == pytest.approx(d, rel=1e-9)
    assert alloc.converged


def test_one_message_two_equal_quotes_splits_evenly():
    q, d = 1e-9, 3.0 * B
    alloc = solve_quoted_allocation([d], np.full((1, 2), q), B)
    per = q * (2 ** (d / (2 * B)) - 1)
    np.testing.assert_allclose(alloc.power[0], [per, per], rtol=1e-9)


def test_rate_identity_on_assigned_pairs():
    rng = np.random.default_rng(42)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(3, 6))
    demands = B * rng.uniform(0.5, 2.5, size=3)
    alloc = solve_quoted_allocation(demands, quotes, B)
    mask = (alloc.assign == 1) & (alloc.power > 0)
    np.testing.assert_allclose(
        alloc.rate[mask],
        B * np.log2(1.0 + alloc.power[mask] / quotes[mask]), rtol=1e-9)
    assert np.all(alloc.rate[alloc.assign == 0] == 0)
    assert np.all(alloc.power[alloc.assign == 0] == 0)


# ---------------------------------------------------------------------------
# solver vs exhaustive oracle
# ---------------------------------------------------------------------------

def test_matches_brute_force_twenty_seeds():
    rng = np.random.default_rng(100)
    for _ in range(20):
        quotes = 10.0 ** rng.uniform(-10, -8, size=(2, 4))
        demands = B * rng.uniform(0.5, 4.0, size=2)
        fast = solve_quoted_allocation(demands, quotes, B)
        slow = brute_force_allocation(demands, quotes, B)
        assert fast.power_sum <= slow.power_sum * (1 + 1e-3)
        assert fast.power_sum >= slow.power_sum * (1 - 1e-9)
        assert fast.dual_bound <= fast.power_sum * (1 + 1e-9)


def test_brute_force_single_message_closed_form():
    q, d = 2e-9, 1.5 * B
    alloc = brute_force_allocation([d], np.array([[q]]), B)
    assert alloc.power_sum == pytest.approx(q * (2 ** (d / B) - 1), rel=1e-9)


def test_brute_force_demand_monotone():
    rng = np.random.default_rng(11)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(2, 3))
    base = B * np.array([1.0, 1.5])
    lo = brute_force_allocation(base, quotes, B).power_sum
    hi = brute_force_allocation(base * [1.0, 1.4], quotes, B).power_sum
    assert hi >= lo


def test_brute_force_tie_not_unique():
    alloc = brute_force_allocation([B, B], np.full((2, 2), 1e-9), B)
    assert not alloc.unique_argmax


def test_brute_force_generic_unique():
    rng = np.random.default_rng(12)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(2, 3))
    alloc = brute_force_allocation(B * np.array([1.0, 2.0]), quotes, B)
    assert alloc.unique_argmax


def test_brute_force_size_limit():
    with pytest.raises(ValueError, match="too large"):
        brute_force_allocation([B] * 4, np.full((4, 10), 1e-9), B)


# ---------------------------------------------------------------------------
# feasibility properties and failure modes
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_solver_output_feasible(seed):
    rng = np.random.default_rng(seed)
    n_msg = int(rng.integers(1, 4))
    n_sc = int(rng.integers(n_msg, 7))
    quotes = 10.0 ** rng.uniform(-10, -8, size=(n_msg, n_sc))
    demands = B * rng.uniform(0.2, 3.0, size=n_msg)
    alloc = solve_quoted_allocation(demands, quotes, B)
    assert set(np.unique(alloc.assign)) <= {0, 1}
    np.testing.assert_array_equal(alloc.assign.sum(axis=0), np.ones(n_sc))
    assert np.all(alloc.power >= 0)
    assert np.all(alloc.rate.sum(axis=1) >= demands * (1 - 1e-6))
    assert alloc.dual_bound <= alloc.power_sum * (1 + 1e-9)
    assert alloc.power_sum == pytest.approx(alloc.power.sum(), rel=1e-12)


def test_more_messages_than_subcarriers():
    with pytest.raises(InfeasibleAllocationError):
        solve_quoted_allocation([B, B, B], np.full((3, 2), 1e-9), B)


def test_message_with_no_usable_subcarrier():
    quotes = np.array([[1e-9, 1e-9], [np.inf, np.inf]])
    with pytest.raises(InfeasibleAllocationError):
        solve_quoted_allocation([B, B], quotes, B)
    with pytest.raises(InfeasibleAllocationError):
        brute_force_allocation([B, B], quotes, B)


def test_nonpositive_quote_rejected():
    with pytest.raises(ValueError):
        solve_quoted_allocation([B], np.array([[0.0, 1e-9]]), B)


def test_nonpositive_demand_rejected():
    with pytest.raises(ValueError):
        solve_quoted_allocation([0.0], np.array([[1e-9]]), B)


def test_strict_mode_carries_best_feasible():
    rng = np.random.default_rng(7)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(3, 6))
    demands = B * rng.uniform(1.0, 3.0, size=3)
    with pytest.raises(NonConvergenceError) as exc_info:
        solve_quoted_allocation(demands, quotes, B, max_iter=1, strict=True)
    carried = exc_info.value.allocation
    assert carried is not None
    assert not carried.converged
    assert np.all(carried.rate.sum(axis=1) >= demands * (1 - 1e-6))
    # non-strict call on the same instance returns instead of raising
    loose = solve_quoted_allocation(demands, quotes, B, max_iter=1)
    assert not loose.converged
    assert loose.power_sum == pytest.approx(carried.power_sum, rel=1e-12)


def test_message_objects_accepted():
    msgs = [Message(subset=(1,), level=1, audience=(1,), tile_count=3,
                    demand_bits_per_s=1.2 * B)]
    alloc = solve_quoted_allocation(msgs, np.array([[1e-9, 2e-9]]), B)
    assert alloc.rate.sum() == pytest.approx(1.2 * B, rel=1e-6)


# ---------------------------------------------------------------------------
# completion and audit
# ---------------------------------------------------------------------------

def _two_messages(ch):
    return [
        Message(subset=(1,), level=1, audience=(1,), tile_count=2,
                demand_bits_per_s=1.5 * ch.bandwidth_hz),
        Message(subset=(1, 2), level=2, audience=(2,), tile_count=1,
                demand_bits_per_s=0.8 * ch.bandwidth_hz),
    ]


def test_complete_allocation_and_audit_clean():
    ch = sample_channel(31, m=4, n_sc=6, k_users=2)
    messages = _two_messages(ch)
    plan = beam_plan_asymptotic(ch, messages)
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    done = complete_allocation(alloc, plan)
    assert done.beams.shape == (ch.n_sc, ch.m)
    norms = np.linalg.norm(done.beams, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    assert done.total_power_w == pytest.approx(done.power_sum / ch.m, rel=1e-12)
    assert audit_allocation(done, ch, messages) == []


def test_complete_allocation_rejects_unnormalized_beam():
    ch = sample_channel(32, m=3, n_sc=4, k_users=2)
    messages = _two_messages(ch)
    plan = beam_plan_asymptotic(ch, messages)
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    bad = types.SimpleNamespace(w=plan.w * 2.0, q=plan.q)
    with pytest.raises(ValueError):
        complete_allocation(alloc, bad)


def test_audit_flags_tampering():
    ch = sample_channel(33, m=4, n_sc=6, k_users=2)
    messages = _two_messages(ch)
    plan = beam_plan_asymptotic(ch, messages)

    def fresh():
        alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
        return complete_allocation(alloc, plan)

    assert audit_allocation(fresh(), ch, messages) == []

    halved = fresh()
    halved.power = halved.power * 0.5       # claimed rates now unreachable
    assert audit_allocation(halved, ch, messages)

    doubled = fresh()
    doubled.assign = doubled.assign.copy()
    doubled.assign[:, 0] = 1                # subcarrier 0 assigned twice
    assert audit_allocation(doubled, ch, messages)
