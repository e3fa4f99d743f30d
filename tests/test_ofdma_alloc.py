"""Subcarrier assignment and water-filled power against exhaustive oracles."""

import itertools
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilecast import (InfeasibleAllocationError, Message, audit_allocation,
                      beam_plan_asymptotic, beam_plan_mrt,
                      brute_force_allocation, complete_allocation,
                      derive_trial_seed, sample_channel,
                      solve_quoted_allocation)
from tilecast import harness, ofdma_alloc
from tilecast.ofdma_alloc import (EPS, GAP_TOL, LN2,
                                  PASSES_PER_SUBCARRIER, PLANNING_TEMPERATURES,
                                  _bisect_waterfill, _demands,
                                  _dual_derivatives, _dual_tau_slope,
                                  _dual_value, _gains,
                                  _flip_closed_form, _flip_columns,
                                  _local_search, _median, _repair_starvation,
                                  _waterfill_sets)

B = 39e3


# ---------------------------------------------------------------------------
# pair gains at a multiplier, against the scalar formulas
# ---------------------------------------------------------------------------

def waterfill_power(gamma: float, q: float, bandwidth: float) -> float:
    """Scalar reference: power of one subcarrier at multiplier gamma (per
    bit/s), max(0, gamma*B/ln2 - q)."""
    return max(0.0, gamma * bandwidth / LN2 - q)


def assignment_gain(gamma: float, q: float, bandwidth: float) -> float:
    """Scalar reference: dual improvement of granting the subcarrier,
    gamma*B*log2(1+p/q) - p at the water-filling power p."""
    p = waterfill_power(gamma, q, bandwidth)
    if p == 0.0 or not math.isfinite(q):
        return 0.0
    return gamma * bandwidth * math.log2(1.0 + p / q) - p


def pair_gain(gamma, q, bandwidth):
    """`_gains` on one pair in original units: (power, rate, gain), with
    gamma per bit/s and the rate in bits/s."""
    gamma_b = gamma * bandwidth
    with np.errstate(divide="ignore"):          # log2 of a zero multiplier
        gain, rate, _ = _gains(np.array([gamma_b]), np.array([[q]]),
                               np.log2([[q]]))
    power = gamma_b / LN2 - q if rate[0, 0] > 0 else 0.0
    return power, float(rate[0, 0]) * bandwidth, float(gain[0, 0])


def test_waterfill_power_zero_multiplier():
    assert pair_gain(0.0, 1e-9, B) == (0.0, 0.0, 0.0)


def test_waterfill_power_level_at_quote():
    q = 2e-9
    assert pair_gain(LN2 * q / B, q, B) == (0.0, 0.0, 0.0)


def test_waterfill_power_level_at_twice_quote():
    q = 2e-9
    power, rate, _ = pair_gain(2.0 * LN2 * q / B, q, B)
    assert power == pytest.approx(q, rel=1e-12, abs=0.0)
    assert rate == pytest.approx(B, rel=1e-12, abs=0.0)


def test_assignment_gain_cases():
    q = 1.5e-9
    assert pair_gain(0.0, q, B)[2] == 0.0
    assert pair_gain(LN2 * q / B, q, B)[2] == 0.0          # water level at quote
    gamma = 2.0 * LN2 * q / B                              # power exactly q
    assert pair_gain(gamma, q, B)[2] == pytest.approx(gamma * B - q,
                                                      rel=1e-12, abs=0.0)
    assert pair_gain(1.0, math.inf, B) == (0.0, 0.0, 0.0)
    # the batched gains match the scalar formulas pair by pair
    rng = np.random.default_rng(3)
    for gamma, q in zip(10.0 ** rng.uniform(-16, -12, 50),
                        10.0 ** rng.uniform(-10, -8, 50)):
        power, rate, gain = pair_gain(gamma, q, B)
        p_ref = waterfill_power(gamma, q, B)
        assert power == pytest.approx(p_ref, rel=1e-9, abs=1e-24)
        assert rate == pytest.approx(B * math.log2(1.0 + p_ref / q),
                                     rel=1e-9, abs=1e-9)
        assert gain == pytest.approx(assignment_gain(gamma, q, B),
                                     rel=1e-9, abs=1e-24)


# ---------------------------------------------------------------------------
# water-fill cross-oracle
# ---------------------------------------------------------------------------

def waterfill_one(quotes, idx, demand, bandwidth):
    """`_waterfill_sets` on one row, the columns idx of quotes, in original
    units: (power, rate) full-width rows, or None when idx has no finite
    quote."""
    sets = np.zeros((1, quotes.size), dtype=bool)
    sets[0, idx] = True
    power, rate, total, _ = _waterfill_sets(quotes[None, :],
                                            np.array([demand / bandwidth]),
                                            np.zeros(1, dtype=int), sets)
    if total[0] == math.inf:
        assert not power.any() and not rate.any()
        return None
    return power[0], rate[0] * bandwidth


@given(seed=st.integers(0, 2 ** 16), d_over_b=st.floats(0.05, 6.0),
       n=st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_waterfill_exact_matches_bisection(seed, d_over_b, n):
    rng = np.random.default_rng(seed)
    quotes = 10.0 ** rng.uniform(-10, -8, size=n)
    demand = d_over_b * B
    power, rate = waterfill_one(quotes, np.arange(n), demand, B)
    total_oracle, p_oracle = _bisect_waterfill(quotes, demand, B)
    assert rate.sum() == pytest.approx(demand, rel=1e-9, abs=0.0)
    assert power.sum() == pytest.approx(total_oracle, rel=1e-6, abs=0.0)
    np.testing.assert_allclose(power, p_oracle, rtol=1e-5,
                               atol=1e-9 * total_oracle + 1e-18)


def test_waterfill_exact_skips_infinite_quotes():
    quotes = np.array([1e-9, np.inf, 2e-9])
    power, rate = waterfill_one(quotes, np.arange(3), 2.0 * B, B)
    assert power[1] == rate[1] == 0.0
    assert rate.sum() == pytest.approx(2.0 * B, rel=1e-9, abs=0.0)
    assert waterfill_one(np.array([np.inf]), np.arange(1), B, B) is None


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
    """Scalar starvation repair: each message with no finite-quote column,
    in index order, takes the first cheapest finite-quote column whose
    owner cannot use it or keeps another it can use."""
    n_msg, n_sc = qn.shape

    def usable_held(mi):
        return sum(assigned[n] == mi and math.isfinite(qn[mi, n])
                   for n in range(n_sc))

    for mi in range(n_msg):
        if usable_held(mi) > 0:
            continue
        best_n, best_q = -1, math.inf
        for n in range(n_sc):
            owner = assigned[n]
            spare = not math.isfinite(qn[owner, n]) or usable_held(owner) > 1
            if spare and qn[mi, n] < best_q:
                best_q, best_n = qn[mi, n], n
        if best_n < 0:
            return None
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
    # demands far below one ulp of the log level probe the 1e-15 windows;
    # every caller passes a positive demand
    demand = draw(st.one_of(st.floats(1e-18, 1e-12),
                            st.floats(1e-6, 40.0))) * bandwidth
    return quotes, idx, demand, bandwidth


def assert_same_waterfill(quotes, idx, demand, bandwidth):
    # a column set has no order of its own: equal quotes fill in column
    # order, which is the reference's rule for a sorted idx
    idx = np.sort(idx)
    got = waterfill_one(quotes, idx, demand, bandwidth)
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
# message 0 holds a column but cannot use it: starved all the same, and it
# takes column 1 from message 1, which keeps column 2
@example(inst=(np.array([0, 1, 1]),
               np.array([[math.inf, 2.0, 3.0], [1.0, 1.0, 1.0]])))
@settings(max_examples=300, deadline=None)
def test_repair_starvation_matches_scalar_loop(inst):
    # wherever the scalar loop of direct steals succeeds the repair is that
    # loop; past it, the repair fails only when no assignment gives every
    # message a usable column (Hall's condition over message subsets)
    assigned, qn = inst
    got = _repair_starvation(assigned.copy(), qn)
    want = repair_reference(assigned.copy(), qn)
    if want is not None:
        assert np.array_equal(got, want)
        return
    usable = np.isfinite(qn)
    n_msg = qn.shape[0]
    feasible = all(usable[list(sub)].any(axis=0).sum() >= len(sub)
                   for r in range(1, n_msg + 1)
                   for sub in itertools.combinations(range(n_msg), r))
    assert (got is not None) == feasible
    if got is not None:
        held = usable[got, np.arange(got.size)]
        assert np.all(np.bincount(got[held], minlength=n_msg) > 0)


def test_repair_follows_an_augmenting_path():
    # message 0's one usable column is message 1's only usable one, so no
    # steal serves it: message 1 moves on to column 1, which 2 can spare
    qn = np.array([[1.0, math.inf, math.inf], [1.0, 1.0, math.inf],
                   [math.inf, 1.0, 1.0]])
    assert repair_reference(np.array([1, 2, 2]), qn) is None
    assert _repair_starvation(np.array([1, 2, 2]), qn).tolist() == [0, 1, 2]
    # message 0 can use only column 2, which message 1 holds alone:
    # message 1 moves on to its cheapest spare column, 1, not column 0
    qn = np.array([[math.inf, math.inf, 3.0], [3.0, 2.0, 4.0]])
    assert repair_reference(np.array([0, 0, 1]), qn) is None
    assert _repair_starvation(np.array([0, 0, 1]), qn).tolist() == [0, 1, 0]


# ---------------------------------------------------------------------------
# batched local search against the scalar neighbourhood scan
# ---------------------------------------------------------------------------

def set_total_reference(qn, dn, mi, cols):
    """Exact water-fill total of one message's column set, inf if none."""
    wf = waterfill_reference(qn[mi], np.asarray(cols, dtype=int), dn[mi], 1.0)
    return math.inf if wf is None else float(wf[0].sum())


def local_search_reference(assigned, qn, dn):
    """Scalar best-improvement descent: every move, swap and rotation is
    scored one at a time from memoized per-set totals; the first strictly
    best step in scan order wins, for at most PASSES_PER_SUBCARRIER * n_sc
    passes. Returns (assigned, passes, moves)."""
    n_msg, n_sc = qn.shape
    max_passes = PASSES_PER_SUBCARRIER * n_sc
    assigned = assigned.copy()
    memo = {}

    def total_for(mi, cols):
        key = (mi, cols)
        if key not in memo:
            memo[key] = set_total_reference(qn, dn, mi, cols)
        return memo[key]

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

    passes = moves = 0
    for _ in range(max_passes):
        passes += 1
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
                        gain = gain + totals[mi] - total_for(mi, new_cols)
                    if gain > best_gain:
                        best_gain, best_move = gain, move
        if best_move is None:
            break
        apply(best_move)
        moves += 1
    return assigned, passes, moves


# moves only (n_sc > 16), swaps (n_sc <= 16), rotations too (n_sc <= 12,
# at least three messages); at high SNR every quote of a set is active,
# so the move-only search reads closed-form totals
REGIMES = {"moves": ((2, 4), (17, 22)), "swaps": ((2, 4), (13, 16)),
           "cycles": ((3, 5), (5, 12)), "high-snr": ((2, 4), (17, 22))}


@st.composite
def local_search_instances(draw):
    regime = draw(st.sampled_from(sorted(REGIMES)))
    (m_lo, m_hi), (s_lo, s_hi) = REGIMES[regime]
    n_msg = draw(st.integers(m_lo, m_hi))
    n_sc = draw(st.integers(max(s_lo, n_msg), s_hi))
    if regime == "high-snr":
        quotes, demands = st.floats(0.5, 2.0), st.floats(20.0, 300.0)
    else:
        quotes = st.one_of(QUOTE_VALUES, st.floats(0.05, 20.0))
        demands = st.one_of(st.sampled_from([0.5, 1.0, 3.0]),
                            st.floats(1e-6, 8.0))
    qn = np.array(draw(st.lists(quotes, min_size=n_msg * n_sc,
                                max_size=n_msg * n_sc))).reshape(n_msg, n_sc)
    dn = np.array(draw(st.lists(demands, min_size=n_msg, max_size=n_msg)))
    if regime == "high-snr" and draw(st.booleans()):
        # twin messages: identical quote rows and demands
        qn[1], dn[1] = qn[0], dn[0]
    # a feasible start, as the allocator hands over: every message holds
    # at least one column with a finite quote
    assigned = np.array(draw(st.lists(st.integers(0, n_msg - 1),
                                      min_size=n_sc, max_size=n_sc)))
    own = np.array(draw(st.permutations(range(n_sc))))[:n_msg]
    msgs = np.arange(n_msg)
    assigned[own] = msgs
    qn[msgs, own] = np.where(np.isfinite(qn[msgs, own]), qn[msgs, own], 1.0)
    return assigned, qn, dn


def tied_instance(n_msg, n_sc):
    """Equal quotes and demands everywhere: every gain ties."""
    assigned = np.arange(n_sc) % n_msg
    return assigned, np.full((n_msg, n_sc), 2.0), np.full(n_msg, 1.0)


def starved_instance():
    """Message 2 starts on one column with a demand of 150 bits per hertz:
    its total is about 2^150, so every column offered to it ties at the
    closed form's precision."""
    rng = np.random.default_rng(5)
    assigned = np.arange(20) % 2
    assigned[7] = 2
    return assigned, rng.uniform(0.5, 2.0, (3, 20)), np.array([30.0, 40.0,
                                                                150.0])


def near_twin_instance():
    """Quotes equal along each row to within a few ulps, and messages 0
    and 1 twins to within two more: moves of different columns, or to
    either twin, gain the same to within the closed form's error, so the
    exact first maximum is decided by the last bits."""
    rng = np.random.default_rng(48)
    eps = np.finfo(float).eps
    qn = (rng.uniform(0.5, 2.0, 3)[:, None]
          * (1.0 + 4 * eps * rng.integers(-3, 4, (3, 17))))
    qn[1] = qn[0] * (1.0 + 2 * eps)
    dn = rng.uniform(20.0, 300.0, 3)
    dn[1] = dn[0]
    return np.arange(17) % 3, qn, dn


def headline_instance(seed, twins=False, masked=False):
    """10 messages x 64 subcarriers at high SNR, as on the headline
    scenario, with twin messages 0 and 1 or 30 % inf quotes on request.
    The start is a dual argmax, repaired: multipliers at each message's
    water level over a demand-weighted share of the columns, at its
    finite quotes' geometric mean."""
    rng = np.random.default_rng(seed)
    qn = 10.0 ** rng.uniform(-0.7, 0.7, (10, 64))
    dn = rng.uniform(30.0, 160.0, 10)
    if twins:
        qn[1], dn[1] = qn[0], dn[0]
    if masked:
        qn[rng.random(qn.shape) < 0.3] = math.inf
    share = 64 * dn / dn.sum()
    logq = np.array([np.log2(row[np.isfinite(row)]).mean() for row in qn])
    gamma = LN2 * 2.0 ** (dn / share + logq)
    start = _repair_starvation(
        np.argmax(_gains(gamma, qn, np.log2(qn))[0], axis=0), qn)
    return start, qn, dn


@given(inst=local_search_instances())
@example(inst=tied_instance(3, 20))
@example(inst=tied_instance(3, 14))
@example(inst=tied_instance(4, 9))
@example(inst=starved_instance())
@example(inst=near_twin_instance())
@example(inst=headline_instance(0))
@example(inst=headline_instance(3, twins=True))
@example(inst=headline_instance(5, masked=True))
# one message: a pass finds no move
@example(inst=(np.zeros(3, dtype=int), np.array([[1.0, 2.0, math.inf]]),
               np.array([1.0])))
# messages 0 and 1 each hold one column, quoted at 5.0: only a swap or a
# rotation can take it from them
@example(inst=(np.array([0, 1, 2, 2, 2]),
               np.array([[5.0, 1.0, 1.0, 1.0, 3.0], [1.0, 5.0, 1.0, 2.0, 1.0],
                         [1.0, 1.0, 5.0, 1.0, 1.0]]),
               np.array([2.0, 2.0, 0.5])))
# every message holds one column, and each single-column total is its
# quote: swapping columns 0 and 1 and rotating 0 -> 2 -> 1 -> 0 both gain
# exactly 6, so the swap, the earlier kind, is taken
@example(inst=(np.arange(3), np.array([[4.0, 1.0, 4.0], [1.0, 4.0, 4.0],
                                       [4.0, 1.0, 4.0]]), np.ones(3)))
# the rotation 0 -> 2 -> 1 -> 0 gains 9, more than any move or swap
@example(inst=(np.array([0, 1, 2, 2]),
               np.array([[4.0, 4.0, 1.0, 4.0], [1.0, 4.0, 4.0, 4.0],
                         [4.0, 1.0, 4.0, 4.0]]), np.ones(3)))
@settings(max_examples=300, deadline=None)
def test_local_search_matches_scalar_scan(inst):
    assigned, qn, dn = inst
    got, passes, moves, _ = _local_search(assigned.copy(), qn, dn)
    want = local_search_reference(assigned.copy(), qn, dn)
    assert np.array_equal(got, want[0])
    assert (passes, moves) == want[1:]


@st.composite
def set_batches(draw):
    n_msg = draw(st.integers(1, 4))
    n_sc = draw(st.integers(1, 20))
    qn = np.array(draw(st.lists(
        st.one_of(QUOTE_VALUES, st.floats(1e-3, 1e3)),
        min_size=n_msg * n_sc, max_size=n_msg * n_sc))).reshape(n_msg, n_sc)
    # demands far below one ulp of the log level probe the 1e-15 windows
    dn = np.array(draw(st.lists(st.one_of(st.floats(1e-18, 1e-12),
                                          st.floats(1e-6, 40.0)),
                                min_size=n_msg, max_size=n_msg)))
    n_rows = draw(st.integers(1, 12))
    owner = np.array(draw(st.lists(st.integers(0, n_msg - 1),
                                   min_size=n_rows, max_size=n_rows)))
    sets = np.array(draw(st.lists(st.booleans(), min_size=n_rows * n_sc,
                                  max_size=n_rows * n_sc))).reshape(n_rows, n_sc)
    return qn, dn, owner, sets


@given(batch=set_batches())
@example(batch=(np.full((1, 4), 2.0), np.array([1e-17]), np.zeros(2, dtype=int),
                np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=bool)))
@settings(max_examples=300, deadline=None)
def test_waterfill_sets_match_scalar_waterfill_bitwise(batch):
    qn, dn, owner, sets = batch
    power, rate, got, _ = _waterfill_sets(qn, dn, owner, sets)
    want = np.array([set_total_reference(qn, dn, mi, np.flatnonzero(row))
                     for mi, row in zip(owner, sets)])
    assert got.tobytes() == want.tobytes()
    # and every row of the batch is the scalar water-fill of its set
    for r, (mi, row) in enumerate(zip(owner, sets)):
        wf = waterfill_reference(qn[mi], np.flatnonzero(row), dn[mi], 1.0)
        if wf is not None:
            assert power[r].tobytes() == wf[0].tobytes()
            assert rate[r].tobytes() == wf[1].tobytes()


@given(batch=set_batches())
# two tied quotes at a demand inside the level's 1e-15 windows: whether
# one or both are active must not depend on how wide the batch is
@example(batch=(np.full((1, 20), 2.0), np.array([5e-15]),
                np.zeros(1, dtype=int), np.arange(20)[None, :] < 2))
@settings(max_examples=200, deadline=None)
def test_waterfill_sets_rows_do_not_depend_on_the_batch(batch):
    # the batch is packed only as wide as its largest set: each row fills
    # to the same bits alone and beside every message's full and empty set
    qn, dn, owner, sets = batch
    n_msg, n_sc = qn.shape
    owners = np.concatenate((owner, np.arange(n_msg), np.arange(n_msg)))
    wide = np.concatenate((sets, np.ones((n_msg, n_sc), dtype=bool),
                           np.zeros((n_msg, n_sc), dtype=bool)))
    together = _waterfill_sets(qn, dn, owners, wide)
    assert np.all(together[2][-n_msg:] == math.inf)
    for r in range(owner.size):
        # power and rate rows, total and water level alike
        alone = _waterfill_sets(qn, dn, owner[r:r + 1], sets[r:r + 1])
        for one, batched in zip(alone, together):
            assert one[0].tobytes() == batched[r].tobytes()


@st.composite
def closed_form_instances(draw):
    # move-only table rows of every message; quotes from a tight high-SNR
    # band to a wide one, inf among them, and demands from 1e-6 to 1e3
    n_msg = draw(st.integers(1, 4))
    n_sc = draw(st.integers(1, 24))
    qn = np.array(draw(st.lists(
        st.one_of(QUOTE_VALUES, st.floats(0.5, 2.0), st.floats(1e-3, 1e3)),
        min_size=n_msg * n_sc, max_size=n_msg * n_sc))).reshape(n_msg, n_sc)
    dn = np.array(draw(st.lists(st.one_of(st.floats(1e-6, 1.0),
                                          st.floats(1.0, 1e3)),
                                min_size=n_msg, max_size=n_msg)))
    assigned = np.array(draw(st.lists(st.integers(0, n_msg - 1),
                                      min_size=n_sc, max_size=n_sc)))
    return qn, dn, assigned


@given(inst=closed_form_instances())
# sets of one and two columns, at high and at tiny demand
@example(inst=(np.array([[1.5, 0.7, 1.1], [0.9, 1.3, 2.0]]),
               np.array([200.0, 1e-6]), np.array([0, 1, 1])))
@example(inst=(np.array([[1.5, 0.7, math.inf, 1.1], [0.9, 1.3, 2.0, 0.6]]),
               np.array([1e-6, 900.0]), np.array([0, 0, 1, 1])))
# dropping the larger quote cancels most of the set's quote sum
@example(inst=(np.array([[1.0, 0.001]]), np.array([0.25]), np.array([0, 0])))
@settings(max_examples=300, deadline=None)
def test_flip_closed_form_within_its_bound(inst):
    qn, dn, assigned = inst
    n_msg, n_sc = qn.shape
    msgs = np.arange(n_msg)
    total, err, closed = _flip_closed_form(_flip_columns(qn), dn, assigned,
                                           msgs)
    # per message, its own set, then its flip at each column
    member = assigned == msgs[:, None]
    flips = np.vstack([np.zeros(n_sc, dtype=bool), np.eye(n_sc, dtype=bool)])
    sets = (member[:, None, :] ^ flips).reshape(-1, n_sc)
    exact = _waterfill_sets(qn, dn, np.repeat(msgs, n_sc + 1),
                            sets)[2].reshape(total.shape)
    assert np.array_equal(np.isinf(total[closed]), np.isinf(exact[closed]))
    assert np.all(err[np.isinf(exact) & closed] == 0)
    fin = closed & np.isfinite(exact)
    assert np.all(np.abs(total[fin] - exact[fin]) <= err[fin])


@given(values=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                 st.floats(1e-300, 1e300)),
                       min_size=1, max_size=40))
@example(values=[2.0, 1.0])
@settings(max_examples=300, deadline=None)
def test_median_matches_numpy_bitwise(values):
    # the allocator's reference quote, from its finite quotes
    values = np.array(values)
    assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()


def test_local_search_counts_passes_and_moves():
    # message 1 starts on a column it quotes at 100; one swap fixes both
    qn = np.array([[1.0, 1.0, 100.0], [100.0, 100.0, 1.0]])
    assigned, passes, moves, _ = _local_search(np.array([0, 1, 0]), qn,
                                               np.array([1.0, 1.0]))
    assert assigned.tolist() == [0, 0, 1]
    assert (passes, moves) == (2, 1)
    # one message: one pass that finds no move
    assert _local_search(np.zeros(3, dtype=int), qn[:1],
                         np.ones(1))[1:] == (1, 0, 0)


def test_inf_masked_instance_plans_without_warnings():
    # column 3 is usable by no message, so whoever holds it gains nothing
    # from it; the repaired start gives every message a usable column, so
    # no total is inf and no gain inf - inf
    inf = math.inf
    qn = np.array([[1.987, inf, 1.301, inf, 0.03, 0.434],
                   [inf, 0.115, 0.058, inf, 1.09, inf],
                   [0.228, 2.182, inf, inf, 0.518, inf]])
    dn = np.array([1.7, 0.85, 0.98])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = solve_quoted_allocation(dn, qn, 1.0)
    # the assignment the allocator gave when the search still warned
    assert np.argmax(alloc.assign, axis=0).tolist() == [2, 0, 1, 0, 0, 0]


def test_local_search_runs_to_a_local_optimum_past_sixty_moves():
    # message 1 needs nearly every column but starts with one; with swaps
    # off (70 columns) each pass moves a single column
    qn = np.ones((2, 70))
    dn = np.array([0.5, 30.0])
    start = np.zeros(70, dtype=int)
    start[0] = 1
    assigned, passes, moves, _ = _local_search(start, qn, dn)
    assert moves > 60 and passes == moves + 1
    # no move improves on the result
    assert local_search_reference(assigned, qn, dn)[1:] == (1, 0)
    # a bound below the moves needed stops the search while it improves
    assert _local_search(start, qn, dn, max_passes=60)[1:3] == (60, 60)


def test_solver_reports_search_counts():
    rng = np.random.default_rng(12)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(3, 8))
    demands = B * rng.uniform(0.5, 3.0, size=3)
    alloc = solve_quoted_allocation(demands, quotes, B)
    diag = alloc.diagnostics
    assert diag["start"] == "dual"
    assert alloc.iterations > 0
    # one value per level start (the predictor point, else the last
    # point) and per trial step, each step tried once at least; 19 values
    # in 8 steps when the planning levels' plan is uncertifiable, 21 in 8
    # annealing every call to the 1e-5 floor, 26 in 10 with Newton steps on
    # the Hessian in log gamma (eigenvalues flipped negative), 32 in 14 from
    # a fair-share start down to a 1e-6 floor solved to 1e-6, 37 when each
    # level also valued its warm start, 60 in 21 without the predictor, 94
    # with 1e-6 at every level and plain halving
    assert diag["dual_stop"] == "uncertifiable"
    assert (diag["dual_evaluations"]
            >= alloc.iterations + len(PLANNING_TEMPERATURES))
    assert diag["dual_evaluations"] == 19
    assert 1 <= diag["dual_predictions"] <= len(PLANNING_TEMPERATURES) - 1
    # one search, ending on a pass that finds nothing better
    assert diag["local_search_passes"] == diag["local_search_moves"] + 1
    assert not diag["local_search_capped"]
    assert diag["dual_temperature"] > 0
    # 8 subcarriers: the search swaps on exact tables, which decide every
    # pass from the start, not after bounds that could not
    assert diag["local_search_exact_passes"] == 0
    # two messages go through the dual and the search at any size; at
    # 2 x 6 the repaired argmax is already a local optimum, certified at
    # the last planning level (4 steps in 8 values; 5 in 11 annealing to
    # the floor, 10 with steps in log gamma)
    small = solve_quoted_allocation(demands[:2], quotes[:2, :6], B)
    diag = small.diagnostics
    assert diag["start"] == "dual"
    assert diag["dual_stop"] == "certified"
    assert small.iterations == 4
    assert diag["dual_evaluations"] == 8
    assert diag["local_search_passes"] == 1
    assert diag["local_search_moves"] == 0
    # moves only, on closed-form totals: equal quotes in a row tie every
    # column, so the bounds cannot decide some pass and exact tables do
    tied = solve_quoted_allocation(demands, np.repeat(quotes[:, :1], 20, 1), B)
    diag = tied.diagnostics
    assert 0 < diag["local_search_exact_passes"] <= diag["local_search_passes"]
    # one message: no dual, no search
    single = solve_quoted_allocation([B], quotes[:1], B)
    assert single.iterations == 0
    assert single.diagnostics == {"dual_evaluations": 0,
                                  "dual_predictions": 0,
                                  "start": "one-message",
                                  "local_search_passes": 0,
                                  "local_search_moves": 0,
                                  "local_search_exact_passes": 0,
                                  "local_search_capped": False}


def test_dual_stop_names_each_rule(monkeypatch):
    # the last planning level's plan is certified, cannot be, or is left
    # open, so that the certificate levels anneal on to the floor; at
    # 5 x 10 the floor's repaired argmax differs from the planning one's,
    # so it is searched too, and the cheaper plan is kept
    def solve(shape, seed):
        rng = np.random.default_rng(seed)
        quotes = 10.0 ** rng.uniform(-10, -8, size=shape)
        demands = B * rng.uniform(0.5, 3.0, size=shape[0])
        return solve_quoted_allocation(demands, quotes, B)

    certified, uncertifiable = solve((2, 4), 1), solve((2, 4), 0)
    floor = solve((5, 10), 758)
    assert [a.diagnostics["dual_stop"] for a in
            (certified, uncertifiable, floor)] == [
                "certified", "uncertifiable", "floor"]
    assert certified.converged and not uncertifiable.converged
    # the same call stopped at the last planning level, whatever the rule
    dual = ofdma_alloc._dual_solve
    monkeypatch.setattr(
        ofdma_alloc, "_dual_solve",
        lambda qn, dn, stop: dual(qn, dn, lambda *read: stop(*read) or "cut"))
    planned = solve((5, 10), 758)
    assert planned.diagnostics["dual_stop"] == "cut"
    assert (floor.diagnostics["dual_temperature"]
            == pytest.approx(1e-2 * planned.diagnostics["dual_temperature"],
                             rel=1e-12, abs=0.0))
    assert floor.diagnostics["dual_evaluations"] > (
        planned.diagnostics["dual_evaluations"])
    assert floor.diagnostics["local_search_passes"] > (
        planned.diagnostics["local_search_passes"])
    assert floor.power_sum <= planned.power_sum
    assert floor.dual_bound >= planned.dual_bound


def test_capped_local_search_is_not_converged(monkeypatch):
    # equal quotes and demands: the argmax start gives every column to
    # message 0, the repair hands one to message 1, and the search moves
    # three more to reach the even split, whose gap is zero
    quotes = np.full((2, 8), 1e-9)
    demands = [2.0 * B, 2.0 * B]
    free = solve_quoted_allocation(demands, quotes, B)
    assert free.converged and free.diagnostics["local_search_moves"] == 3
    assert free.assign.sum(axis=1).tolist() == [4, 4]
    search = ofdma_alloc._local_search
    monkeypatch.setattr(ofdma_alloc, "_local_search",
                        lambda a, qn, dn: search(a, qn, dn, max_passes=1))
    capped = solve_quoted_allocation(demands, quotes, B)
    assert capped.diagnostics["local_search_capped"]
    assert not capped.converged


def test_augmenting_repair_when_no_steal_serves():
    # 3 x 5 with inf quotes: no direct steal from the argmax assignment at
    # the final multipliers serves every message, so the repair follows an
    # augmenting path, and the search improves on the repaired start
    rng = np.random.default_rng(1084)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(3, 5))
    quotes[rng.random((3, 5)) < 0.5] = np.inf
    demands = B * rng.uniform(0.5, 4.0, size=3)
    qn = quotes / float(np.median(quotes[np.isfinite(quotes)]))
    gamma = ofdma_alloc._dual_solve(qn, demands / B)[0]
    rounded = np.argmax(_gains(gamma, qn, np.log2(qn))[0], axis=0)
    assert repair_reference(rounded.copy(), qn) is None
    assert _repair_starvation(rounded, qn) is not None
    alloc = solve_quoted_allocation(demands, quotes, B)
    assert alloc.diagnostics["start"] == "dual"
    assert alloc.diagnostics["local_search_moves"] > 0
    np.testing.assert_array_equal(alloc.assign.sum(axis=0), np.ones(5))
    assert np.all(alloc.power[~np.isfinite(quotes)] == 0)
    assert np.all(alloc.rate.sum(axis=1) >= demands * (1 - 1e-6))
    best = brute_force_allocation(demands, quotes, B).power_sum
    assert (alloc.power_sum <= best * (1 + GAP_TOL)) or not alloc.converged


def test_searched_plans_reach_the_oracle_or_say_not():
    # the seeds include misses at (4, 5) and (5, 5)
    misses = 0
    for shape, seeds in (((3, 5), range(4)), ((4, 5), range(12, 16)),
                         ((5, 5), range(42, 46))):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            quotes = 10.0 ** rng.uniform(-10, -8, size=shape)
            demands = B * rng.uniform(0.5, 4.0, size=shape[0])
            alloc = solve_quoted_allocation(demands, quotes, B)
            best = brute_force_allocation(demands, quotes, B).power_sum
            assert alloc.power_sum >= best * (1 - 1e-9)
            if alloc.power_sum > best * (1 + 1e-3):
                misses += 1
                assert not alloc.converged
    assert misses >= 2


def count_oracle(q, dn, n_sc):
    """Least total power when every quote of message m is q[m]: only the
    subcarrier counts matter, and n q (2^(d/n) - 1) is convex in n, so
    marginal greedy over the counts is exact (Ibaraki & Katoh, Resource
    Allocation Problems, 1988)."""
    counts = np.ones(q.size)

    def cost(n):
        return n * q * (2.0 ** (dn / n) - 1.0)

    for _ in range(n_sc - q.size):
        counts[np.argmax(cost(counts) - cost(counts + 1))] += 1
    return float(cost(counts).sum())


def test_row_constant_headline_size_reaches_count_oracle():
    # 10 x 64, the headline size, past every exhaustive oracle; every move
    # ties with the same move of another column, so exact tables decide
    # the search's passes. Power only: such optimal plans can report
    # converged=False, their gap being the counts' integrality
    rng = np.random.default_rng(0)
    q = 10.0 ** rng.uniform(-10, -8, size=10)
    demands = B * rng.uniform(5.0, 40.0, size=10)
    alloc = solve_quoted_allocation(demands, np.repeat(q[:, None], 64, 1), B)
    assert alloc.diagnostics["local_search_exact_passes"] > 0
    assert alloc.power_sum == pytest.approx(count_oracle(q, demands / B, 64),
                                            rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# solver closed-form cases
# ---------------------------------------------------------------------------

def test_one_message_one_subcarrier():
    q, d = 1e-9, 2.0 * B
    alloc = solve_quoted_allocation([d], np.array([[q]]), B)
    assert alloc.assign[0, 0] == 1
    assert alloc.power[0, 0] == pytest.approx(q * (2 ** (d / B) - 1),
                                              rel=1e-9, abs=0.0)
    assert alloc.rate[0, 0] == pytest.approx(d, rel=1e-9, abs=0.0)
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


def test_small_instances_solved_exactly():
    # one message holds every subcarrier, so its water-fill over all of
    # them is the optimum, and the plan is its own bound
    rng = np.random.default_rng(7)
    for n_sc in (1, 2, 3, 5, 8, 16, 16, 64):
        quotes = 10.0 ** rng.uniform(-10.0, -8.0, size=(1, n_sc))
        if n_sc > 1 and rng.random() < 0.5:
            quotes[0, rng.permutation(n_sc)[:n_sc // 2]] = np.inf
        demands = B * rng.uniform(0.5, 40.0, size=1)
        got = solve_quoted_allocation(demands, quotes, B)
        want = brute_force_allocation(demands, quotes, B)
        assert got.power_sum == pytest.approx(want.power_sum, rel=1e-9,
                                              abs=0.0)
        np.testing.assert_array_equal(got.assign, want.assign)
        assert got.diagnostics["start"] == "one-message"
        assert got.duality_gap == 0.0 and got.converged
        assert got.dual_bound == got.power_sum
        assert got.iterations == 0 and got.unique_argmax


def test_small_multi_message_plans_reach_the_oracle_or_say_not():
    # two or more messages take the dual, the repair and the search at
    # every size, 2 x 2 included; every third instance has 30 % of its
    # quotes unusable. The extra seeds are the misses above 1e-3 among
    # seeds 0-399 of these shapes
    misses = infeasible = 0
    extra = {(2, 3): [220], (3, 4): [106, 113, 304]}
    for shape in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)):
        for seed in list(range(15)) + extra.get(shape, []):
            rng = np.random.default_rng(seed)
            quotes = 10.0 ** rng.uniform(-10.0, -8.0, size=shape)
            if seed % 3 == 2:
                quotes[rng.random(shape) < 0.3] = np.inf
            demands = B * rng.uniform(0.5, 4.0, size=shape[0])
            plans = []
            for solver in (solve_quoted_allocation, brute_force_allocation):
                try:
                    plans.append(solver(demands, quotes, B))
                except InfeasibleAllocationError:
                    plans.append(None)
            got, want = plans
            # both find the instance infeasible, or neither does
            assert (got is None) == (want is None), (shape, seed)
            if got is None:
                infeasible += 1
                continue
            assert got.diagnostics["start"] == "dual"
            assert got.power_sum >= want.power_sum * (1 - 1e-9)
            if got.power_sum > want.power_sum * (1 + 1e-3):
                misses += 1
                assert not got.converged, (shape, seed)
    # the sample exercises both rules: it holds infeasible instances and
    # misses (the four extra seeds)
    assert infeasible > 0 and misses > 0


def exact_dual_reference(gamma, quotes, demands, bandwidth):
    """The Lagrangian dual at multipliers gamma (per bit/s), scored pair by
    pair with the scalar assignment_gain: gamma.d - sum_n max_m gain."""
    n_msg, n_sc = quotes.shape
    best = [max(0.0, max(assignment_gain(gamma[mi], quotes[mi, n], bandwidth)
                         for mi in range(n_msg))) for n in range(n_sc)]
    return float(gamma @ demands) - math.fsum(best)


@given(seed=st.integers(0, 2 ** 16),
       shape=st.sampled_from([(2, 7), (2, 8), (3, 5), (3, 6)]))
@settings(max_examples=30, deadline=None)
def test_dual_bound_valid_and_stationary(seed, shape):
    rng = np.random.default_rng(seed)
    n_msg, n_sc = shape
    quotes = 10.0 ** rng.uniform(-10, -8, size=shape)
    demands = B * rng.uniform(0.5, 4.0, size=n_msg)
    alloc = solve_quoted_allocation(demands, quotes, B)
    optimum = brute_force_allocation(demands, quotes, B).power_sum
    assert alloc.dual_bound <= optimum * (1 + 1e-9)
    gamma = alloc.gamma
    dual = exact_dual_reference(gamma, quotes, demands, B)
    assert dual == pytest.approx(alloc.dual_bound, rel=1e-9, abs=0.0)
    # the returned multipliers maximize the dual smoothed at temperature
    # tau, which sits at most n_sc * tau * ln(n_msg) below the exact dual;
    # so no multiplier moved alone raises the exact dual by more than that,
    # plus the rise the Newton stop leaves and float rounding
    tau = alloc.diagnostics["dual_temperature"]
    slack = (n_sc * tau * (math.log(n_msg) + ofdma_alloc.DUAL_TOL)
             + 1e-12 * float(gamma @ demands))
    for mi in range(n_msg):
        for factor in (1 - 1e-3, 1 + 1e-3):
            moved = gamma.copy()
            moved[mi] *= factor
            assert (exact_dual_reference(moved, quotes, demands, B)
                    <= dual + slack)


def test_tau_slope_matches_central_difference():
    # the predictor's d grad/d tau against a central difference in tau of
    # the gradient. The difference carries some EPS |gamma d| / h of
    # rounding, more where exp((g - top) / tau) amplifies it at low tau,
    # so 100 times that is allowed; a slope below 1e-6 |gamma d| / tau is
    # lost in it, and enough slopes must stand above that
    informative = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n_msg, n_sc = int(rng.integers(2, 8)), int(rng.integers(8, 41))
        qn = 10.0 ** rng.uniform(-1, 1, size=(n_msg, n_sc))
        dn = rng.uniform(0.5, 4.0, size=n_msg)
        gamma = np.exp(np.log(LN2 * qn.min(axis=1)) + LN2 * dn * n_msg / n_sc
                       + np.abs(rng.normal(0.0, 0.5, n_msg)))
        gains = _gains(gamma, qn, np.log2(qn))
        tau = float(gains[0].max(axis=0).mean()) * 10.0 ** rng.uniform(-6, -1)
        h = 1e-4 * tau

        def parts(t):
            return _dual_value(gamma, gains, dn, t)[1]

        diff = (_dual_derivatives(dn, tau + h, parts(tau + h))[0]
                - _dual_derivatives(dn, tau - h, parts(tau - h))[0]) / (2.0 * h)
        slope = _dual_tau_slope(tau, parts(tau))
        size = gamma * dn
        assert np.all(np.abs(diff - slope)
                      <= 1e-5 * np.abs(slope) + 100.0 * EPS * size / h)
        informative += int((np.abs(slope) >= 1e-6 * size / tau).sum())
    assert informative >= 50


def test_curvature_is_the_scaled_gamma_hessian():
    # the Newton steps' curvature A against a central difference in gamma
    # of the gradient in gamma, grad / gamma: A = -diag(gamma) J
    # diag(gamma), and A is symmetric positive semidefinite. Every third
    # instance has 30 % of its quotes unusable. With h = 1e-6 gamma_j the
    # difference carries about 1e6 EPS gamma d of rounding per entry (3e-9
    # of the larger of |A| and gamma d at worst here), so 1e-6 is allowed
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n_msg, n_sc = int(rng.integers(2, 7)), int(rng.integers(4, 17))
        qn = 10.0 ** rng.uniform(-1, 1, size=(n_msg, n_sc))
        if seed % 3 == 0:
            unusable = rng.random((n_msg, n_sc)) < 0.3
            unusable[np.arange(n_msg), rng.integers(0, n_sc, n_msg)] = False
            qn[unusable] = math.inf
        dn = rng.uniform(0.5, 4.0, size=n_msg)
        log2q = np.log2(qn)
        gamma = np.exp(np.log(LN2 * qn.min(axis=1)) + LN2 * dn * n_msg / n_sc
                       + np.abs(rng.normal(0.0, 0.5, n_msg)))
        tau = (float(_gains(gamma, qn, log2q)[0].max(axis=0).mean())
               * 10.0 ** rng.uniform(-3, -1))

        def derivatives(g):
            parts = _dual_value(g, _gains(g, qn, log2q), dn, tau)[1]
            return _dual_derivatives(dn, tau, parts)

        curv = derivatives(gamma)[1]
        jac = np.empty((n_msg, n_msg))
        for j in range(n_msg):
            h = 1e-6 * gamma[j]
            up, down = gamma.copy(), gamma.copy()
            up[j] += h
            down[j] -= h
            jac[:, j] = (derivatives(up)[0] / up
                         - derivatives(down)[0] / down) / (2.0 * h)
        scale = max(np.abs(curv).max(), float(gamma @ dn))
        np.testing.assert_allclose(curv, -gamma[:, None] * jac * gamma,
                                   rtol=0.0, atol=1e-6 * scale)
        np.testing.assert_allclose(curv, curv.T, rtol=0.0,
                                   atol=1e-12 * np.abs(curv).max())
        assert np.linalg.eigvalsh(curv).min() >= -1e-12 * np.abs(curv).max()


def test_brute_force_single_message_closed_form():
    q, d = 2e-9, 1.5 * B
    alloc = brute_force_allocation([d], np.array([[q]]), B)
    assert alloc.power_sum == pytest.approx(q * (2 ** (d / B) - 1), rel=1e-9,
                                            abs=0.0)


def test_bisect_waterfill_large_demands():
    # 25 unit quotes share the demand evenly: each carries d/25 bits per
    # hertz at level 2^(d/25), far below the search's top level 2^(d/B)
    for d_over_b in (250.0, 300.0, 371.0):
        total, power = _bisect_waterfill(np.ones(25), d_over_b * B, B)
        want = 25.0 * 2.0 ** (d_over_b / 25.0) - 25.0
        assert total == pytest.approx(want, rel=1e-12, abs=0.0), d_over_b
        np.testing.assert_allclose(power, want / 25.0, rtol=1e-12)


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
    assert alloc.power_sum == pytest.approx(alloc.power.sum(), rel=1e-12,
                                            abs=0.0)


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
    # zero, negative, NaN and -inf quotes are refused, in both the
    # allocator and the oracle; +inf marks an unusable pair
    for solver in (solve_quoted_allocation, brute_force_allocation):
        for bad in (0.0, -1e-9, math.nan, -math.inf):
            with pytest.raises(ValueError, match="quotes must be positive"):
                solver([B], np.array([[bad, 1e-9]]), B)
        alloc = solver([B], np.array([[math.inf, 1e-9]]), B)
        assert alloc.power[0, 0] == 0.0 and alloc.power[0, 1] > 0.0


def test_quote_rows_must_match_messages():
    # one quote row per message, in both the allocator and the oracle: two
    # rows against one demand or three
    for solver in (solve_quoted_allocation, brute_force_allocation):
        for demands in ([B], [B, B, B]):
            with pytest.raises(ValueError,
                               match="quote rows must match messages"):
                solver(demands, np.full((2, 4), 1e-9), B)


def test_nonpositive_demand_rejected():
    # a demand or a bandwidth that is not finite and positive, in both the
    # allocator and the oracle: unchecked, a negative bandwidth plans 0 W
    # for a claimed rate, and a NaN demand plans NaN power
    quotes = np.array([[1e-9, 2e-9], [2e-9, 1e-9]])
    for demands, bandwidth in (([0.0], B), ([-B], B), ([math.nan], B),
                               ([math.inf], B), ([B, math.nan], B),
                               ([B], -1.0), ([B], 0.0), ([B], math.nan),
                               ([B], math.inf)):
        for solver in (solve_quoted_allocation, brute_force_allocation):
            with pytest.raises(ValueError, match="finite and positive"):
                solver(demands, quotes[:len(demands)], bandwidth)


def test_gap_above_tol_still_returns_best_feasible():
    rng = np.random.default_rng(7)
    quotes = 10.0 ** rng.uniform(-10, -8, size=(3, 6))
    demands = B * rng.uniform(1.0, 3.0, size=3)
    # this instance's integrality gap keeps the honest duality gap above
    # GAP_TOL
    alloc = solve_quoted_allocation(demands, quotes, B)
    assert not alloc.converged
    assert alloc.duality_gap > GAP_TOL
    assert np.all(alloc.rate.sum(axis=1) >= demands * (1 - 1e-6))
    # it is the best feasible plan nonetheless
    best = brute_force_allocation(demands, quotes, B).power_sum
    assert alloc.power_sum == pytest.approx(best, rel=1e-9, abs=0.0)


def test_dual_bound_never_below_zero(monkeypatch):
    # at delta = 48 deg, trial 0 of the default scenario has an exact dual
    # at the floor multipliers far below the trivial bound 0
    solved = []

    def solve(*args, **kwargs):
        solved.append(solve_quoted_allocation(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(harness, "solve_quoted_allocation", solve)
    cfg = replace(harness.default_config(), delta_deg=48.0)
    for scheme in ("proposed-asymptotic", "baseline2-multicast"):
        harness.run_trial(cfg, scheme, 0)
    assert len(solved) == 2
    for alloc in solved:
        assert alloc.diagnostics["start"] == "dual"
        assert 0.0 <= alloc.dual_bound <= alloc.power_sum
        assert alloc.duality_gap <= 1.0


def test_diverged_dual_raises_infeasible():
    # 16 messages on 16 subcarriers, 520 bits per hertz each: the
    # multipliers pass floating point before the dual converges, which
    # used to raise LinAlgError from the eigendecomposition
    quotes = 10.0 ** np.random.default_rng(0).uniform(-0.5, 0.5, (16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleAllocationError, match="dual diverged"):
            solve_quoted_allocation(np.full(16, 520.0 * B), quotes, B)


def test_level_past_the_cap_raises_infeasible():
    # 5,000 bits per hertz per message on 4 x 16 quotes: each message's
    # water level passes the water-fill's 2^1000 cap, which used to cut
    # its power to a fifth of the rate the plan claimed
    quotes = 10.0 ** np.random.default_rng(0).uniform(-0.5, 0.5, (4, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleAllocationError, match="2\\^1000"):
            solve_quoted_allocation(np.full(4, 5000.0 * B), quotes, B)


def test_message_objects_accepted():
    msgs = [Message(level=1, audience=(1,), tile_count=3,
                    demand_bits_per_s=1.2 * B)]
    alloc = solve_quoted_allocation(msgs, np.array([[1e-9, 2e-9]]), B)
    assert alloc.rate.sum() == pytest.approx(1.2 * B, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------------------
# completion and audit
# ---------------------------------------------------------------------------

def _two_messages(ch):
    return [
        Message(level=1, audience=(1,), tile_count=2,
                demand_bits_per_s=1.5 * ch.bandwidth_hz),
        Message(level=2, audience=(2,), tile_count=1,
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
    assert done.power_sum == alloc.power_sum
    assert audit_allocation(done, ch, messages) == []


def test_audit_rejects_unnormalized_beam():
    # completion attaches the beams as they are; the audit names the
    # first one off unit norm by its (message, subcarrier)
    ch = sample_channel(32, m=3, n_sc=4, k_users=2)
    messages = _two_messages(ch)
    plan = beam_plan_asymptotic(ch, messages)
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    bad = complete_allocation(
        alloc, types.SimpleNamespace(w=plan.w * 2.0, q=plan.q))
    assert np.array_equal(bad.beams, 2.0 * complete_allocation(
        alloc, plan).beams)
    owner = np.argmax(alloc.assign, axis=0)
    assert audit_allocation(bad, ch, messages) == [
        f"non-unit beam at ({owner[0]}, 0)"]


def test_audit_flags_tampering():
    ch = sample_channel(33, m=4, n_sc=6, k_users=2)
    messages = _two_messages(ch)
    plan = beam_plan_asymptotic(ch, messages)

    def fresh():
        alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
        return complete_allocation(alloc, plan)

    assert audit_allocation(fresh(), ch, messages) == []

    alloc = fresh()
    halved = replace(alloc, power=alloc.power * 0.5)  # rates unreachable
    assert audit_allocation(halved, ch, messages)

    assign = alloc.assign.copy()
    assign[:, 0] = 1                        # subcarrier 0 assigned twice
    assert audit_allocation(replace(alloc, assign=assign), ch, messages)

    # doubled beams only raise the users' rates
    doubled = replace(alloc, beams=alloc.beams * 2.0)
    owner = np.argmax(alloc.assign, axis=0)
    assert audit_allocation(doubled, ch, messages) == [
        f"non-unit beam at ({owner[0]}, 0)"]

    # lower claimed rates stay within the users' reach but fall short of
    # the demands: of both messages, then of the second alone
    rate = alloc.rate * 0.5
    assert audit_allocation(replace(alloc, rate=rate), ch, messages) == [
        "demand not met for messages [0, 1]"]
    rate = alloc.rate.copy()
    rate[1] *= 0.5
    assert audit_allocation(replace(alloc, rate=rate), ch, messages) == [
        "demand not met for messages [1]"]


def test_audit_names_first_bad_subcarrier():
    # a missing (zero) beam at subcarrier 4 and a long one at 2: the audit
    # names subcarrier 2 and its message, and a NaN beam counts as bad
    ch = sample_channel(34, m=3, n_sc=6, k_users=2)
    messages = _two_messages(ch)
    plan = beam_plan_asymptotic(ch, messages)
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    owner = np.argmax(alloc.assign, axis=0)
    w = plan.w.copy()
    w[owner[4], 4] = 0.0
    w[owner[2], 2] *= 1.5
    bad = complete_allocation(alloc, types.SimpleNamespace(w=w, q=plan.q))
    assert audit_allocation(bad, ch, messages)[0] == \
        f"non-unit beam at ({owner[2]}, 2)"
    w[owner[1], 1] = math.nan
    bad = complete_allocation(alloc, types.SimpleNamespace(w=w, q=plan.q))
    assert audit_allocation(bad, ch, messages)[0] == \
        f"non-unit beam at ({owner[1]}, 1)"


def audit_reference(alloc, ch, messages, rel=1e-6):
    """The audit with its user-rate check as a loop over assigned pairs and
    their audience lists: the reference of the gathered check."""
    problems = []
    assign, power, rate = alloc.assign, alloc.power, alloc.rate
    if not np.all((assign == 0) | (assign == 1)):
        problems.append("assignment not binary")
    if not np.all(assign.sum(axis=0) == 1):
        problems.append("some subcarrier not assigned exactly once")
    if np.any(power < 0) or not np.all(np.isfinite(power)):
        problems.append("negative or non-finite power")
    if np.any(rate < 0) or not np.all(np.isfinite(rate)):
        problems.append("negative or non-finite rate")
    if np.any((assign == 0) & (power > 0)):
        problems.append("power on unassigned pair")
    if np.any((assign == 0) & (rate > 0)):
        problems.append("rate on unassigned pair")

    if alloc.beams is None:
        if np.any(rate > 0):
            problems.append("positive rate but no beams")
    else:
        for n, beam in enumerate(alloc.beams):
            if not abs(np.linalg.norm(beam) - 1.0) <= rel:
                owner = int(np.argmax(assign[:, n]))
                problems.append(f"non-unit beam at ({owner}, {n})")
                break
        for mi, msg in enumerate(messages):
            idx = [k - 1 for k in msg.audience]
            cols = np.flatnonzero(alloc.assign[mi] == 1)
            for n in cols:
                if rate[mi, n] <= 0:
                    continue
                g = ch.beta[idx] * np.abs(ch.h[n, idx, :].conj() @ alloc.beams[n]) ** 2
                snr = power[mi, n] * g / ch.noise_w
                user_rates = ch.bandwidth_hz * np.log2(1.0 + snr)
                if np.any(user_rates < rate[mi, n] * (1.0 - rel)):
                    problems.append(f"user rate below message rate at ({mi}, {n})")

    short = rate.sum(axis=1) < _demands(messages) * (1.0 - rel)
    if np.any(short):
        problems.append(f"demand not met for messages {np.flatnonzero(short).tolist()}")
    return problems


def test_audit_matches_loop_reference():
    # mixed audiences (so the gather pads), clean, uncompleted (rates no
    # beam backs) and tampered plans from both beam plans: the same
    # problems in the same order
    rng = np.random.default_rng(35)
    for seed in range(4):
        ch = sample_channel(35 + seed, m=4, n_sc=8, k_users=3,
                            beta=[1.0, 0.4, 2.5])
        messages = [
            Message(level=1, audience=(1, 2, 3),
                    tile_count=1, demand_bits_per_s=1.1 * B),
            Message(level=2, audience=(2,), tile_count=1,
                    demand_bits_per_s=0.7 * B),
            Message(level=1, audience=(1, 3), tile_count=1,
                    demand_bits_per_s=1.6 * B),
        ]
        for builder in (beam_plan_asymptotic, beam_plan_mrt):
            plan = builder(ch, messages)
            bare = solve_quoted_allocation(messages, plan.q, B)
            clean = complete_allocation(bare, plan)
            doubled = clean.assign.copy()
            doubled[:, 0] = 1
            rotated = clean.beams.copy()
            rotated[[1, 4, 6]] *= np.exp(2j * np.pi * rng.random((3, ch.m)))
            nan_rate = clean.rate.copy()
            nan_rate[0, 5] = math.nan
            assert audit_allocation(clean, ch, messages) == []
            for alloc in (clean, bare, replace(clean, power=clean.power * 0.5),
                          replace(clean, assign=doubled),
                          replace(clean, beams=rotated),
                          replace(clean, beams=clean.beams * 1.5),
                          replace(clean, rate=nan_rate)):
                got = audit_allocation(alloc, ch, messages)
                assert got == audit_reference(alloc, ch, messages)
                assert (alloc is clean) or got
    # default_config() trial 0's MRT plan, with message 0's whole rate
    # moved onto a column another message holds and its own power zeroed:
    # every demand is met and no held pair claims more than its SNR gives,
    # so only the rate on a pair the plan does not hold gives it away
    cfg = harness.default_config()
    ch = sample_channel(derive_trial_seed(cfg.base_seed, 0), cfg.m, cfg.n_sc,
                        len(cfg.users), beta=cfg.beta, noise_w=cfg.noise_w,
                        bandwidth_hz=cfg.bandwidth_hz)
    messages = harness._messages(
        cfg, tuple((k, u.direction, u.quality)
                   for k, u in enumerate(cfg.users, start=1)), False)
    plan = beam_plan_mrt(ch, messages)
    clean = complete_allocation(
        solve_quoted_allocation(messages, plan.q, B), plan)
    held = clean.assign[0] == 1
    rate, power = clean.rate.copy(), clean.power.copy()
    rate[0, np.flatnonzero(clean.assign[1])[0]] = rate[0].sum()
    rate[0, held] = power[0, held] = 0.0
    moved = replace(clean, rate=rate, power=power)
    assert power.sum() < clean.power.sum()
    got = audit_allocation(moved, ch, messages)
    assert got == audit_reference(moved, ch, messages)
    assert got == ["rate on unassigned pair"]
