"""Rules and outer loop of the successive-convexification planner.

The inner loop's rules are array functions over every (message,
subcarrier) pair at once. Each is checked on hand cases and, under
hypothesis, against the scalar formula kept here as its reference. The
rules run in the planner's scaled units: rates in multiples of the
bandwidth, and channels that already carry sqrt(beta / (m * noise)), so
the references are called with unit bandwidth, unit beta and m * noise = 1.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tilecast import (Message, TilingConfig, ViewDirection, audit_allocation,
                      dc_solve, sample_channel, solve_quoted_allocation)
from tilecast import dc_solver
from tilecast.beamforming import beam_plan_asymptotic, beam_plan_mrt
from tilecast.dc_solver import (EXP_CAP, INNER_MAX, DcDuals, DcState,
                                _direction, _init_duals, _inner, _pick,
                                _price_step, _priced_rate, _scores, _stretch,
                                _Workspace, initial_point)
from tilecast.harness import (UserSpec, _subset_for_trial, default_config,
                              run_trial)

LN2 = math.log(2.0)
B = 39e3


def _msg(subset, audience, demand):
    return Message(subset=subset, level=1, audience=audience, tile_count=1,
                   demand_bits_per_s=demand)


# ---------------------------------------------------------------------------
# scalar reference formulas, one pair at a time, in original units
# ---------------------------------------------------------------------------

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


class NoFeasibleStep(ValueError):
    """The reference's linearized constraint cannot be met along its
    direction."""


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
            raise NoFeasibleStep(
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


# ---------------------------------------------------------------------------
# scoring and assignment rules
# ---------------------------------------------------------------------------

def scores_of(gam, price_sum, live=None):
    price_sum = np.asarray(price_sum, dtype=float)
    if live is None:
        live = np.ones(price_sum.shape, dtype=bool)
    return _scores(np.asarray(gam, dtype=float), price_sum, live)


def test_pair_score_zero_demand_price():
    assert scores_of([0.0], [[3.25]])[0][0, 0] == 3.25


def test_pair_score_log_term_vanishes():
    lam_sum = 0.7
    gamma = LN2 * lam_sum
    scores, log_term = scores_of([gamma], [[lam_sum]])
    assert log_term[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert scores[0, 0] == pytest.approx(-gamma / LN2 + lam_sum, abs=1e-12)


def test_pair_score_zero_price_sum():
    scores, _ = scores_of([1.0, 0.0], [[0.0], [0.0]])
    assert scores[0, 0] == -math.inf
    assert scores[1, 0] == 0.0
    # a pair the linearization point spends no power on is blocked
    blocked, _ = scores_of([0.0], [[3.25]], live=np.array([[False]]))
    assert blocked[0, 0] == -math.inf


def pick_column(scores, incumbent=0):
    assigned, unique = _pick(np.asarray(scores, dtype=float)[:, None],
                             np.array([incumbent]))
    return int(assigned[0]), unique


def test_pick_unique_max():
    assert pick_column([1.0, 3.0, 2.0]) == (1, True)


def test_pick_tie_prefers_smaller_id():
    idx, unique = pick_column([5.0, 5.0, 1.0])
    assert idx == 0
    assert not unique


def test_pick_all_blocked():
    # no message can take the column: it keeps its incumbent
    assert pick_column([-math.inf, -math.inf], incumbent=1) == (1, True)


def test_pick_matches_independent_scan():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(5, 100))
    assigned, unique = _pick(scores, np.zeros(100, dtype=int))
    np.testing.assert_array_equal(assigned, np.argmax(scores, axis=0))
    assert unique


def rate_of(gam, price_sum, sel=True):
    gam = np.array([gam])
    _, log_term = _scores(gam, np.array([[price_sum]]), np.ones((1, 1), dtype=bool))
    return _priced_rate(log_term, np.array([[sel]]), gam)[0, 0]


def test_priced_rate_cases():
    lam_sum = 0.5
    gamma = 2.0 * LN2 * lam_sum           # price ratio 2, log2 gives 1
    assert rate_of(gamma, lam_sum) == pytest.approx(1.0)
    assert rate_of(gamma, lam_sum, sel=False) == 0.0
    assert rate_of(0.5 * LN2 * lam_sum, lam_sum) == 0.0
    assert rate_of(1.0, 0.0) == EXP_CAP   # unbounded rate, capped
    assert rate_of(0.0, 0.7) == 0.0


# demand prices and price sums: zero is the sentinel, the rest stays well
# inside the range where the array rule's 1e-300 floor is never reached
PRICES = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]),
                   st.floats(1e-3, 1e3))


@st.composite
def price_grids(draw):
    n_msg = draw(st.integers(1, 4))
    n_sc = draw(st.integers(1, 5))
    gam = np.array(draw(st.lists(PRICES, min_size=n_msg, max_size=n_msg)))
    size = n_msg * n_sc
    price_sum = np.array(draw(st.lists(PRICES, min_size=size, max_size=size)))
    flags = np.array(draw(st.lists(st.booleans(), min_size=2 * size,
                                   max_size=2 * size)))
    return (gam, price_sum.reshape(n_msg, n_sc),
            flags[:size].reshape(n_msg, n_sc), flags[size:].reshape(n_msg, n_sc))


SENTINEL_GRID = (np.array([0.0, 2.0, 1.0]),                # zero demand price
                 np.array([[0.0, 1.0], [0.0, 3.0], [0.5, 0.0]]),
                 np.array([[True, False], [True, False], [True, False]]),
                 np.array([[True, True], [True, False], [False, True]]))


@given(grid=price_grids())
@example(grid=SENTINEL_GRID)
@settings(max_examples=300, deadline=None)
def test_scores_match_pair_score(grid):
    # tolerance: np.log2 and math.log2 may differ in the last place, and
    # the three terms may cancel, so the bound scales with the terms
    gam, price_sum, live, _ = grid
    scores, _ = _scores(gam, price_sum, live)
    for (mi, n), got in np.ndenumerate(scores):
        g, ps = gam[mi], price_sum[mi, n]
        if not live[mi, n]:
            assert got == -math.inf
            continue
        want = pair_score(g, ps, 1.0)
        if g == 0.0 or ps == 0.0:
            assert got == want
            continue
        terms = abs(g * math.log2(g / (LN2 * ps))) + g / LN2 + ps
        assert abs(got - want) <= 1e-13 * terms


@given(grid=price_grids())
@example(grid=SENTINEL_GRID)
@settings(max_examples=300, deadline=None)
def test_priced_rate_matches_reference(grid):
    # tolerance: the same last-place log2 difference; price_sum = 0 gives
    # the reference's unbounded rate, which the array rule caps at EXP_CAP
    gam, price_sum, live, sel = grid
    _, log_term = _scores(gam, price_sum, live)
    got = _priced_rate(log_term, sel, gam)
    for (mi, n), r in np.ndenumerate(got):
        want = min(priced_rate(gam[mi], price_sum[mi, n], int(sel[mi, n]), 1.0),
                   EXP_CAP)
        assert abs(r - want) <= 1e-13 * max(1.0, want)


SCORES = st.one_of(st.just(-math.inf), st.sampled_from([0.0, 1.0, 2.5]),
                   st.floats(-1e3, 1e3))


@st.composite
def score_grids(draw):
    n_msg = draw(st.integers(1, 4))
    n_sc = draw(st.integers(1, 6))
    scores = np.array(draw(st.lists(SCORES, min_size=n_msg * n_sc,
                                    max_size=n_msg * n_sc)))
    incumbent = np.array(draw(st.lists(st.integers(0, n_msg - 1),
                                       min_size=n_sc, max_size=n_sc)))
    return scores.reshape(n_msg, n_sc), incumbent


@given(grid=score_grids())
# column 1 is blocked for every message; column 0 ties
@example(grid=(np.array([[2.0, -math.inf], [2.0, -math.inf]]), np.array([0, 1])))
# a gap of 1e-10 is no tie: the flag's threshold is 1e-12 relative
@example(grid=(np.array([[1.0], [1.0 + 1e-10]]), np.array([0])))
@settings(max_examples=300, deadline=None)
def test_pick_matches_pick_assignment(grid):
    scores, incumbent = grid
    assigned, unique = _pick(scores, incumbent)
    flags = []
    for n in range(scores.shape[1]):
        try:
            idx, flag = pick_assignment(scores[:, n])
        except ValueError:
            assert assigned[n] == incumbent[n]   # all blocked: incumbent stays
            continue
        assert assigned[n] == idx
        flags.append(flag)
    assert unique == all(flags)


@st.composite
def price_updates(draw):
    n_msg = draw(st.integers(1, 3))
    size = n_msg * draw(st.integers(1, 3)) * draw(st.integers(1, 3))
    moves = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    lam = draw(st.lists(PRICES, min_size=size, max_size=size))
    gam = draw(st.lists(PRICES, min_size=n_msg, max_size=n_msg))
    viol = draw(st.lists(moves, min_size=size, max_size=size))
    resid = draw(st.lists(moves, min_size=n_msg, max_size=n_msg))
    delta = draw(st.floats(1e-6, 2.0))
    return tuple(np.array(v) for v in (lam, gam, viol, resid)) + (delta,)


@given(update=price_updates())
@settings(max_examples=200, deadline=None)
def test_price_step_matches_reference(update):
    lam, gam, viol, resid, delta = update
    got_lam, got_gam = _price_step(lam, gam, viol, resid, delta)
    want = price_step(DcDuals(demand_price=gam, user_price=lam), viol, resid,
                      delta)
    assert got_lam.tobytes() == want.user_price.tobytes()
    assert got_gam.tobytes() == want.demand_price.tobytes()


# ---------------------------------------------------------------------------
# beam restoration
# ---------------------------------------------------------------------------

def array_beam(prices, h, w_prev, c):
    """One subcarrier's beam through `_direction` and `_stretch`, in scaled
    units; None when no stretch of the direction reaches every user."""
    h = np.asarray(h, dtype=complex)
    hw = h.conj() @ w_prev
    dvec, den = _direction(np.asarray(prices, dtype=float)[None, :],
                           hw[None, :], h[None])
    alpha = _stretch(np.array([c]), (np.abs(hw) ** 2)[None, :], den,
                     np.ones((1, h.shape[0]), dtype=bool))
    return None if alpha is None else alpha[0] * dvec[0]


def _lin_slack(h, w_prev, w, c):
    """Slack of the linearized per-user rate constraint; >= 0 is feasible."""
    hw = h.conj() @ w_prev
    hv = h.conj() @ w
    return 2.0 * (hw.conj() * hv).real - ((2.0 ** c - 1.0) + np.abs(hw) ** 2)


def convex_start(ch, messages):
    """Workspace, scaled beams, assignment, rates and seeded multipliers
    at the initial point, ready for one convexified solve."""
    state = initial_point(ch, messages)
    ws = _Workspace(ch, messages)
    w_int = state.scaled_beams / math.sqrt(ws.p0)
    tiebreak = 1e-12 * np.abs(state.scaled_beams).sum(axis=2)
    assigned = np.argmax(state.assign_frac + tiebreak, axis=0)
    c = state.rate / ws.bw
    return ws, w_int, assigned, c, _init_duals(ws, w_int, assigned, c)


def test_feasible_beam_unassigned_is_zero():
    ch = sample_channel(47, m=4, n_sc=6, k_users=3)
    messages = [_msg((1,), (1,), 1.5 * B), _msg((2, 3), (2, 3), 2.0 * B),
                _msg((1, 2, 3), (2,), 1.0 * B)]
    ws, w_int, assigned, c, duals = convex_start(ch, messages)
    best, _, _ = _inner(ws, w_int, assigned, c, duals)
    off = np.ones((ws.n_msg, ws.n_sc), dtype=bool)
    off[best["assigned"], ws.cols] = False
    assert np.all(best["w"][off] == 0)


def test_feasible_beam_orthogonal_linearization_point():
    h = np.array([[1.0, 0.0]], dtype=complex)
    w_prev = np.array([0.0, 1.0], dtype=complex)
    # the direction vanishes: a positive rate cannot be covered, zero can
    assert array_beam([1.0], h, w_prev, 2.0) is None
    assert np.all(array_beam([1.0], h, w_prev, 0.0) == 0)


def test_feasible_beam_single_user_algebra():
    rng = np.random.default_rng(5)
    h0 = 1.6 * (rng.normal(size=3) + 1j * rng.normal(size=3)) / np.sqrt(2)
    h = h0[None, :]
    c = 1.7
    w_prev = h0 / np.linalg.norm(h0)
    w = array_beam([1.0], h, w_prev, c)
    # direction is the user's own channel
    cos = abs(np.vdot(w, h0)) / (np.linalg.norm(w) * np.linalg.norm(h0))
    assert cos == pytest.approx(1.0, abs=1e-12)
    # and the stretch puts the single user exactly on the constraint
    slack = _lin_slack(h, w_prev, w, c)
    assert slack[0] == pytest.approx(0.0, abs=1e-9 * (2.0 ** c))


def test_feasible_beam_zero_rate_still_covers_offset():
    rng = np.random.default_rng(6)
    h0 = (rng.normal(size=4) + 1j * rng.normal(size=4)) / np.sqrt(2)
    h = h0[None, :]
    w_prev = h0 / np.linalg.norm(h0)
    w = array_beam([2.0], h, w_prev, 0.0)
    slack = _lin_slack(h, w_prev, w, 0.0)
    assert slack[0] == pytest.approx(0.0, abs=1e-12)


def test_feasible_beam_multiuser_feasible_with_equality_at_binding_user():
    rng = np.random.default_rng(7)
    a, m = 3, 5
    h = (rng.normal(size=(a, m)) + 1j * rng.normal(size=(a, m))) / np.sqrt(2)
    h *= np.sqrt(rng.uniform(0.5, 2.0, size=a))[:, None]
    prices = rng.uniform(0.1, 1.0, size=a)
    w_prev = (rng.normal(size=m) + 1j * rng.normal(size=m))
    w_prev /= np.linalg.norm(w_prev)
    c = 1.2
    w = array_beam(prices, h, w_prev, c)
    slack = _lin_slack(h, w_prev, w, c)
    scale = np.abs(slack).max() + 2.0 ** c
    assert np.all(slack >= -1e-9 * scale)
    assert slack.min() == pytest.approx(0.0, abs=1e-9 * scale)


def test_feasible_beam_unreachable_user_raises():
    h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    w_prev = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    # all price weight on user 2: direction misses user 1 entirely
    assert array_beam([0.0, 1.0], h, w_prev, 1.5) is None


COMPONENT = st.one_of(st.just(0.0), st.floats(1e-2, 2.0), st.floats(-2.0, -1e-2))


@st.composite
def beam_columns(draw):
    """Subcarriers of one selection: padded audiences (zero channels and
    prices off the mask, as the workspace stores them), prices, rates."""
    n_sc = draw(st.integers(1, 3))
    a_max = draw(st.integers(1, 3))
    m = draw(st.sampled_from([1, 2, 4]))   # m * (1 / m) == 1 exactly
    size = n_sc * a_max * m
    re = np.array(draw(st.lists(COMPONENT, min_size=size, max_size=size)))
    im = np.array(draw(st.lists(COMPONENT, min_size=size, max_size=size)))
    h = (re + 1j * im).reshape(n_sc, a_max, m)
    re = np.array(draw(st.lists(COMPONENT, min_size=m, max_size=m)))
    im = np.array(draw(st.lists(COMPONENT, min_size=m, max_size=m)))
    w_prev = re + 1j * im
    counts = draw(st.lists(st.integers(1, a_max), min_size=n_sc, max_size=n_sc))
    mask = np.arange(a_max)[None, :] < np.array(counts)[:, None]
    prices = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-2, 5.0)),
                                    min_size=n_sc * a_max,
                                    max_size=n_sc * a_max))).reshape(n_sc, a_max)
    c = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 6.0)),
                               min_size=n_sc, max_size=n_sc)))
    return h * mask[:, :, None], w_prev, prices * mask, mask, c


@given(cols=beam_columns())
# all prices zero on subcarrier 0 (no direction), user 2 unreachable on 1
@example(cols=(np.array([[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]],
                        dtype=complex),
               np.array([1.0, 0.0], dtype=complex),
               np.array([[0.0, 0.0], [1.0, 0.0]]),
               np.ones((2, 2), dtype=bool), np.array([1.0, 1.0])))
@settings(max_examples=300, deadline=None)
def test_stretch_matches_feasible_beam(cols):
    # tolerance: einsum and matmul sum in different orders, so the beams
    # agree to rtol 1e-8; draws where a user with something to cover has
    # a linearized gain within 1e-4 of its scale 2|h^H w_prev||h||d| are
    # skipped, as rounding alone sets that gain's sign
    h, w_prev, prices, mask, c = cols
    hw = np.einsum("nkm,m->nk", h.conj(), w_prev)
    gsq = np.abs(hw) ** 2
    dvec, den = _direction(prices, hw, h)
    alpha = _stretch(c, gsq, den, mask)
    per_col = [_stretch(c[n:n + 1], gsq[n:n + 1], den[n:n + 1], mask[n:n + 1])
               for n in range(c.size)]
    # one unreachable subcarrier sinks the whole selection
    assert (alpha is None) == any(a is None for a in per_col)
    for n, a in enumerate(per_col):
        on = mask[n]
        need = ((2.0 ** c[n] - 1.0) + gsq[n]) * on > 0.0
        if not np.any(dvec[n]):
            # no direction: the reference returns a zero beam, the array
            # rule a zero beam only when no user needs covering
            assert (a is None) == bool(np.any(need))
            if a is not None:
                assert np.all(a[0] * dvec[n] == 0)
            continue
        scale = (2.0 * np.abs(hw[n]) * np.linalg.norm(h[n], axis=1)
                 * np.linalg.norm(dvec[n]))
        assume(not np.any(need & (scale > 0) & (np.abs(den[n]) <= 1e-4 * scale)))
        try:
            want = feasible_beam(prices[n, on], h[n, on], 1.0, w_prev, 1, c[n],
                                 1.0 / w_prev.size, 1.0)
        except NoFeasibleStep:
            want = None
        assert (a is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(a[0] * dvec[n], want, rtol=1e-8,
                                       atol=1e-12 * np.linalg.norm(want))


# ---------------------------------------------------------------------------
# price updates and state containers
# ---------------------------------------------------------------------------

def test_price_step_zero_residuals_unchanged():
    lam, gam = _price_step(np.array([0.5]), np.array([1.0, 2.0]),
                           np.array([0.0]), np.array([0.0, 0.0]), 0.1)
    assert lam.tolist() == [0.5]
    assert gam.tolist() == [1.0, 2.0]


def test_price_step_projects_to_zero():
    lam, gam = _price_step(np.array([0.0]), np.array([0.1]),
                           np.array([-5.0]), np.array([-5.0]), 1.0)
    assert gam[0] == 0.0
    assert lam[0] == 0.0


def test_price_step_hand_case():
    lam, gam = _price_step(np.array([2.0]), np.array([1.0]),
                           np.array([0.25]), np.array([-0.5]), 2.0)
    assert lam[0] == pytest.approx(2.5)
    assert gam[0] == 0.0


def test_state_validation():
    w = np.zeros((2, 3, 4), dtype=complex)
    mu = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
    rate = np.zeros((2, 3))
    DcState(scaled_beams=w, assign_frac=mu, rate=rate)
    with pytest.raises(ValueError):
        DcState(scaled_beams=w, assign_frac=0.5 * mu, rate=rate)
    with pytest.raises(ValueError):
        DcState(scaled_beams=w, assign_frac=mu, rate=rate - 1.0)
    with pytest.raises(ValueError):
        DcDuals(demand_price=np.array([-1.0]), user_price=np.array([0.0]))


# ---------------------------------------------------------------------------
# start point
# ---------------------------------------------------------------------------

def test_initial_point_energy_matches_quoted_solution():
    ch = sample_channel(41, m=4, n_sc=6, k_users=2)
    messages = [_msg((1,), (1,), 1.5 * B), _msg((1, 2), (1, 2), 2.0 * B)]
    state = initial_point(ch, messages)
    # the start is the allocation on the direction menu: per pair, the
    # cheaper of the asymptotic and MRT quotes
    menu_q = np.minimum(beam_plan_asymptotic(ch, messages).q,
                        beam_plan_mrt(ch, messages).q)
    alloc = solve_quoted_allocation(messages, menu_q, ch.bandwidth_hz)
    assert state.total_power_w == pytest.approx(alloc.power_sum / ch.m,
                                                rel=1e-12)
    np.testing.assert_array_equal(state.assign_frac.sum(axis=0),
                                  np.ones(ch.n_sc))


def test_initial_point_single_user_beams_are_mrt():
    ch = sample_channel(42, m=3, n_sc=4, k_users=1)
    messages = [_msg((1,), (1,), 2.5 * B)]
    state = initial_point(ch, messages)
    for n in range(ch.n_sc):
        v = state.scaled_beams[0, n]
        p = np.linalg.norm(v) ** 2
        if p == 0:
            continue
        hn = ch.h[n, 0]
        cos = abs(np.vdot(v, hn)) / (np.linalg.norm(v) * np.linalg.norm(hn))
        assert cos == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# one convexified solve
# ---------------------------------------------------------------------------

def test_convex_approx_single_user_near_waterfill():
    ch = sample_channel(45, m=3, n_sc=4, k_users=1)
    messages = [_msg((1,), (1,), 2.0 * B)]
    ws, w_int, assigned, c, duals = convex_start(ch, messages)
    best, _, iters = _inner(ws, w_int, assigned, c, duals)
    plan = beam_plan_asymptotic(ch, messages)    # single user: MRT quotes
    ref = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    assert best["energy"] * ws.p0 / ws.m <= (ref.power_sum / ch.m) * (1 + 1e-3)
    np.testing.assert_array_equal(best["assigned"], np.zeros(ch.n_sc))
    assert iters >= 1


def test_convex_approx_fixed_point():
    ch = sample_channel(46, m=3, n_sc=4, k_users=2)
    messages = [_msg((1,), (1,), 1.2 * B), _msg((1, 2), (1, 2), 1.5 * B)]
    ws, w, assigned, c, duals = convex_start(ch, messages)
    prev = float((np.abs(w) ** 2).sum())
    for _ in range(40):
        best, duals, _ = _inner(ws, w, assigned, c, duals)
        w, assigned, c = best["w"], best["assigned"], best["c"]
        if abs(prev - best["energy"]) <= 1e-8 * prev:
            break
        prev = best["energy"]
    again, _, _ = _inner(ws, w, assigned, c, duals)
    assert again["energy"] == pytest.approx(best["energy"], rel=5e-4)


# ---------------------------------------------------------------------------
# full outer loop
# ---------------------------------------------------------------------------

def test_dc_solve_small_instance():
    ch = sample_channel(47, m=4, n_sc=6, k_users=3)
    messages = [_msg((1,), (1,), 1.5 * B),
                _msg((2, 3), (2, 3), 2.0 * B),
                _msg((1, 2, 3), (2,), 1.0 * B)]
    alloc = dc_solve(ch, messages)
    trace = alloc.diagnostics["e_trace"]
    assert len(trace) >= 1
    for a, b in zip(trace, trace[1:]):
        assert b <= a * (1 + 1e-8)
    assert set(np.unique(alloc.assign)) <= {0, 1}
    assert audit_allocation(alloc, ch, messages) == []
    assert alloc.total_power_w == pytest.approx(trace[-1], rel=1e-9)
    assert alloc.converged


def test_dc_solve_never_worse_than_start():
    ch = sample_channel(48, m=4, n_sc=5, k_users=2)
    messages = [_msg((1,), (1,), 1.0 * B), _msg((1, 2), (1, 2), 2.0 * B)]
    start = initial_point(ch, messages)
    alloc = dc_solve(ch, messages)
    assert alloc.total_power_w <= start.total_power_w * (1 + 1e-9)


def test_dc_solve_one_message_passes_end_before_the_cap():
    # paired k-sweep point k = 2 of base seed 4, trial 6: two viewers of one
    # cluster share one message. When a pass ran until 20 steps gained
    # under 1e-6, the first pass hit INNER_MAX and the solve took 12,146
    # steps for its last fraction of a per cent.
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
                       user_subset=_subset_for_trial(cfg, 6, 2))
    assert math.isfinite(result.total_power_w)
    assert result.converged
    assert result.iterations < INNER_MAX


def test_dc_solve_makes_one_allocator_solve(monkeypatch):
    # the start is the only dual solve; passes re-assign by local search
    calls = []
    solve = dc_solver.solve_quoted_allocation

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dc_solver, "solve_quoted_allocation", counted)
    cfg = default_config()
    for t in range(4):
        calls.clear()
        dc = run_trial(cfg, "proposed-dc", t)
        assert len(calls) == 1, t
        asym = run_trial(cfg, "proposed-asymptotic", t)
        assert dc.total_power_w <= asym.total_power_w * (1 + 1e-9), t


def test_dc_solve_diagnostics():
    ch = sample_channel(47, m=4, n_sc=6, k_users=3)
    messages = [_msg((1,), (1,), 1.5 * B),
                _msg((2, 3), (2, 3), 2.0 * B),
                _msg((1, 2, 3), (2,), 1.0 * B)]
    diag = dc_solve(ch, messages).diagnostics
    start = diag["start_allocation"]
    assert start["start"] == "dual"
    assert start["dual_steps"] > 0
    assert start["dual_evaluations"] >= start["dual_steps"]
    assert start["duality_gap"] >= 0.0
    assert start["local_search_passes"] == start["local_search_moves"] + 1
    # one search per pass; accepted passes add to the trace
    assert len(diag["pass_moves"]) >= diag["outer_iterations"] >= 1
    assert all(moves >= 0 for moves in diag["pass_moves"])


def test_capped_pass_search_is_not_converged(monkeypatch):
    ch = sample_channel(47, m=4, n_sc=6, k_users=3)
    messages = [_msg((1,), (1,), 1.5 * B),
                _msg((2, 3), (2, 3), 2.0 * B),
                _msg((1, 2, 3), (2,), 1.0 * B)]
    assert dc_solve(ch, messages).converged
    search = dc_solver._local_search

    def capped(assigned, qn, dn):
        # one pass that moved: the report of a search stopped by its cap
        return search(assigned, qn, dn)[0], 1, 1

    monkeypatch.setattr(dc_solver, "_local_search", capped)
    assert not dc_solve(ch, messages).converged


def test_dc_solve_inf_masked_menu_without_warnings():
    # user 2 gets nothing on subcarriers 0-2, so every message it watches
    # quotes inf there under both plans, and the passes search over those
    # inf quotes
    ch = sample_channel(50, m=4, n_sc=8, k_users=3)
    ch.h[:3, 1] = 0.0
    messages = [_msg((1,), (1,), 1.5 * B),
                _msg((2, 3), (2, 3), 2.0 * B),
                _msg((1, 2, 3), (2,), 1.0 * B)]
    menu_q = np.minimum(beam_plan_asymptotic(ch, messages).q,
                        beam_plan_mrt(ch, messages).q)
    assert np.isinf(menu_q[1:, :3]).all() and np.isfinite(menu_q[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = dc_solve(ch, messages)
    assert np.all(alloc.assign[1:, :3] == 0)
    assert audit_allocation(alloc, ch, messages) == []


def test_dc_solve_single_user_matches_asymptotic():
    ch = sample_channel(49, m=4, n_sc=6, k_users=1)
    messages = [_msg((1,), (1,), 3.0 * B)]
    alloc = dc_solve(ch, messages)
    plan = beam_plan_asymptotic(ch, messages)
    ref = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    ref_w = ref.power_sum / ch.m
    assert alloc.total_power_w <= ref_w * (1 + 1e-9)
    assert alloc.total_power_w >= ref_w * 0.98
    assert audit_allocation(alloc, ch, messages) == []
