"""Beam directions and quotes.

Oracles used here: the per-message large-antenna formula the plan was
computed with before every audience shared one padded tensor, kept below
as the bit-for-bit reference of `beam_plan_asymptotic`; a
dense-eigendecomposition reference for the multicast MRT direction; and a
10^4-point random direction search that the large-antenna closed form has
to beat up to 5%; and a dense grid of unit directions at m = 2 that the
two-user max-min closed form has to match. The hand cases call the plan
builders on one-subcarrier channels whose users are the audience.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecast import (InfeasibleAllocationError, Message,
                      beam_plan_asymptotic, beam_plan_maxmin, beam_plan_mrt,
                      build_messages, build_partition, compute_tile_set,
                      default_config, derive_trial_seed, run_trial,
                      sample_channel)
from tilecast import harness
from tilecast.channel import ChannelState


def crandn(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def align(a, b):
    """|<a, b>| for unit vectors: 1 when parallel up to phase."""
    return abs(np.vdot(a, b))


def _msg(audience):
    return Message(level=1, audience=audience, tile_count=1,
                   demand_bits_per_s=1e5)


def one_subcarrier(builder, h_aud, beta=1.0, noise_w=1e-9):
    """(w, q) of `builder` for one message whose audience is every row of
    h_aud, on a one-subcarrier channel with just those users."""
    h = np.asarray(h_aud, dtype=complex)
    a = len(h)
    ch = ChannelState(h=h[None], beta=np.broadcast_to(beta, (a,)),
                      noise_w=noise_w, bandwidth_hz=39e3)
    users = tuple(range(1, a + 1))
    plan = builder(ch, [_msg(users)])
    return plan.w[0, 0], plan.q[0, 0]


def asymptotic_beam(h_aud, beta, noise_w):
    """Reference: large-antenna beams and quotes of one audience on every
    subcarrier, from h_aud (n_sc, a, m) and beta (a,). w is zero where the
    weighted channel sum vanishes; q is inf there and wherever some member's
    gain on w is zero."""
    agg = (h_aud / np.sqrt(beta)[None, :, None]).sum(axis=1)
    nrm = np.linalg.norm(agg, axis=1)
    ok = nrm > 0.0
    w = np.zeros_like(agg)
    w[ok] = agg[ok] / nrm[ok, None]
    gains = beta[None, :] * np.abs(np.einsum("nam,nm->na", h_aud.conj(), w)) ** 2
    gmin = gains.min(axis=1)
    q = np.full(gmin.shape, np.inf)
    pos = ok & (gmin > 0.0)
    q[pos] = noise_w / gmin[pos]
    return w, q


# ---------------------------------------------------------------------------
# large-antenna closed form
# ---------------------------------------------------------------------------

def test_single_user_is_mrt():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        h = crandn(rng, 1, m)
        beta = float(rng.uniform(0.2, 5.0))
        noise = float(rng.uniform(1e-10, 1e-8))
        w, q = one_subcarrier(beam_plan_asymptotic, h, beta, noise)
        assert align(w, h[0] / np.linalg.norm(h[0])) >= 1 - 1e-12
        expected = noise / (beta * np.linalg.norm(h[0]) ** 2)
        assert q == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_two_orthogonal_users_hand_case():
    h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    w, q = one_subcarrier(beam_plan_asymptotic, h, 1.0, 1.0)
    np.testing.assert_allclose(w, np.array([1.0, 1.0]) / np.sqrt(2))
    assert q == pytest.approx(2.0, rel=1e-12, abs=0.0)


def test_orthogonal_channels_equalize_weighted_gains():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = 8
        a = int(rng.integers(2, 5))
        basis, _ = np.linalg.qr(crandn(rng, m, m))
        scale = float(rng.uniform(0.5, 3.0))
        h = basis[:, :a].T * scale          # orthogonal, equal norms
        beta = rng.uniform(0.2, 4.0, size=a)
        w, q = one_subcarrier(beam_plan_asymptotic, h, beta)
        gains = beta * np.abs(h.conj() @ w) ** 2
        assert gains.max() - gains.min() <= 1e-9 * gains.max()


def test_quote_self_consistency():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 10))
        a = int(rng.integers(1, 4))
        h = crandn(rng, a, m)
        beta = rng.uniform(0.3, 3.0, size=a)
        noise = 10.0 ** rng.uniform(-10, -8)
        w, q = one_subcarrier(beam_plan_asymptotic, h, beta, noise)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        # bottleneck user sits exactly at the quote
        gmin = (beta * np.abs(h.conj() @ w) ** 2).min()
        assert noise / gmin == pytest.approx(q, rel=1e-12, abs=0.0)
        assert gmin * q / noise == pytest.approx(1.0, abs=1e-9)


def test_cancelling_channels_degenerate():
    h = np.array([[1.0, 2.0], [-1.0, -2.0]], dtype=complex)
    w, q = one_subcarrier(beam_plan_asymptotic, h)
    assert np.all(w == 0) and q == np.inf


def test_orthogonal_member_infeasible():
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], dtype=complex)
    w, q = one_subcarrier(beam_plan_asymptotic, h)
    np.testing.assert_allclose(w, [1.0, 0.0])
    assert q == np.inf


def test_beats_random_direction_search():
    # closed form within 5% of the best of 10^4 random unit directions
    rng = np.random.default_rng(4)
    m, noise = 64, 1e-9
    for _ in range(3):
        h = crandn(rng, 2, m)
        beta = rng.uniform(0.5, 2.0, size=2)
        _, q = one_subcarrier(beam_plan_asymptotic, h, beta, noise)
        dirs = crandn(rng, 10000, m)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gains = beta[None, :] * np.abs(dirs.conj() @ h.T) ** 2
        best = (noise / gains.min(axis=1)).min()
        assert q <= 1.05 * best


# ---------------------------------------------------------------------------
# MRT directions
# ---------------------------------------------------------------------------

def test_mrt_unicast_basics():
    w, _ = one_subcarrier(beam_plan_mrt, [[2.0, 0.0]])
    np.testing.assert_allclose(w, [1.0, 0.0])
    rng = np.random.default_rng(5)
    h = crandn(rng, 6)
    w, _ = one_subcarrier(beam_plan_mrt, [h])
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    ip = np.vdot(h, w)
    assert ip.real > 0 and abs(ip.imag) <= 1e-12 * ip.real
    w, q = one_subcarrier(beam_plan_mrt, [[0.0, 0.0]])
    assert q == np.inf and np.linalg.norm(w) == pytest.approx(1.0)


def test_mrt_multicast_single_user():
    # single-user audiences keep the closed form h/|h| (real, positive
    # h^H w), also next to multi-user audiences in one plan
    ch = sample_channel(6, m=5, n_sc=3, k_users=3)
    plan = beam_plan_mrt(ch, [_msg((1, 2)), _msg((3,)), _msg((1,))])
    for i, k in ((1, 2), (2, 0)):
        for n in range(ch.n_sc):
            h = ch.h[n, k]
            ip = np.vdot(h, plan.w[i, n])
            assert ip.real == pytest.approx(np.linalg.norm(h), rel=1e-12,
                                            abs=0.0)
            assert abs(ip.imag) <= 1e-12 * ip.real


def test_mrt_multicast_identical_channels():
    rng = np.random.default_rng(7)
    h0 = crandn(rng, 5)
    w, _ = one_subcarrier(beam_plan_mrt, np.stack([h0, h0]))
    assert align(w, h0 / np.linalg.norm(h0)) >= 1 - 1e-10


def test_mrt_multicast_orthogonal_dominance():
    # stronger of two orthogonal users owns the principal direction
    h = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    w, _ = one_subcarrier(beam_plan_mrt, h)
    assert align(w, np.array([1.0, 0.0, 0.0])) >= 1 - 1e-10


def test_mrt_multicast_matches_dense_eigensolver():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        a = int(rng.integers(2, 5))
        h = crandn(rng, a, m)
        beta = rng.uniform(0.3, 3.0, size=a)
        w, _ = one_subcarrier(beam_plan_mrt, h, beta)
        cov = (beta[:, None, None] *
               (h[:, :, None] * h[:, None, :].conj())).sum(axis=0)
        lam_max = np.linalg.eigvalsh(cov)[-1]
        rayleigh = float(np.real(np.vdot(w, cov @ w)))
        assert rayleigh >= (1 - 1e-8) * lam_max


def dense_principal(h, beta, noise_w):
    """Reference: the top eigenvector of the audience's gain-weighted
    covariance by a dense `eigh`, its eigenvalue, and its quote."""
    cov = (beta[:, None, None] * (h[:, :, None] * h[:, None, :].conj())).sum(0)
    lam, vec = np.linalg.eigh(cov)
    gmin = (beta * np.abs(h.conj() @ vec[:, -1]) ** 2).min()
    q = noise_w / gmin if gmin > 0.0 else np.inf
    return vec[:, -1], lam[-1], q, cov


def test_mrt_two_users_match_dense_eigh():
    # the 2-user closed form against a dense eigendecomposition, on
    # orthogonal, parallel, unequal-gain, one-zero and both-zero channels
    rng = np.random.default_rng(11)
    m, noise = 4, 1e-9
    h1 = crandn(rng, m)
    cases = [
        (np.stack([np.r_[h1[:2], 0, 0], np.r_[0, 0, h1[2:]]]),
         [1.0, 1.0]),                                      # orthogonal
        (np.stack([h1, (0.3 - 1.2j) * h1]), [1.0, 1.0]),    # parallel
        (crandn(rng, 2, m), [0.2, 5.0]),                    # unequal beta
        (np.stack([h1, np.zeros(m)]), [1.0, 2.0]),          # one zero
        (np.stack([np.zeros(m), h1]), [1.0, 2.0]),
        (np.zeros((2, m)), [1.0, 1.0]),                     # both zero
    ] + [(crandn(rng, 2, m), rng.uniform(0.3, 3.0, size=2)) for _ in range(20)]
    for h, beta in cases:
        h, beta = np.asarray(h, dtype=complex), np.asarray(beta)
        w, q = one_subcarrier(beam_plan_mrt, h, beta, noise)
        w_ref, lam_max, q_ref, cov = dense_principal(h, beta, noise)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert np.vdot(w, cov @ w).real >= (1 - 1e-12) * lam_max
        if np.isinf(q_ref):
            assert q == np.inf
        else:
            assert q == pytest.approx(q_ref, rel=1e-12, abs=0.0)
        if not h.any():
            assert np.array_equal(w, w_ref)                 # e_{m-1}


def count_eigh(monkeypatch):
    """Record the number of matrices of every `np.linalg.eigh` call."""
    counts = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return counts


def test_mrt_default_trial_runs_no_eigh(monkeypatch):
    # default_config() trial 0: every unicast and multicast audience has
    # one or two users, so its MRT plans need no eigendecomposition
    counts = count_eigh(monkeypatch)
    sizes = []

    def stop(messages, quotes, bandwidth):
        sizes.extend(len(msg.audience) for msg in messages)
        raise InfeasibleAllocationError("stop after the beam plan")

    monkeypatch.setattr(harness, "solve_quoted_allocation", stop)
    for scheme in ("baseline1-unicast", "baseline2-multicast"):
        run_trial(default_config(), scheme, 0)
    assert sorted(set(sizes)) == [1, 2]
    assert counts == []


def test_mrt_eigh_only_for_three_or_more_users(monkeypatch):
    counts = count_eigh(monkeypatch)
    ch = sample_channel(6, m=4, n_sc=3, k_users=5)
    audiences = [(1,), (1, 2), (1, 2, 3), (2, 3, 4, 5), (4, 5)]
    beam_plan_mrt(ch, [_msg(aud) for aud in audiences])
    assert counts == [2 * ch.n_sc]


def test_quote_for_single_user_mrt():
    rng = np.random.default_rng(10)
    m = 7
    h = crandn(rng, 1, m)
    beta, noise = 1.7, 2e-9
    _, q = one_subcarrier(beam_plan_mrt, h, beta, noise)
    assert q == pytest.approx(noise / (beta * np.linalg.norm(h[0]) ** 2),
                              rel=1e-12, abs=0.0)


def test_quote_for_orthogonal_direction():
    # the weaker user is orthogonal to the principal direction
    h = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
    w, q = one_subcarrier(beam_plan_mrt, h)
    assert align(w, np.array([1.0, 0.0])) >= 1 - 1e-12
    assert q == np.inf


# ---------------------------------------------------------------------------
# plan builders
# ---------------------------------------------------------------------------

@st.composite
def padded_instances(draw):
    """A channel and a message list whose audiences differ in size, so the
    plan pads them: 1-5 users, m 1-16, 1-4 subcarriers; optionally two
    users share one channel, are orthogonal, or cancel, or one channel is
    zero."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 16))
    n_sc = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    beta = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    ch = sample_channel(seed, m=m, n_sc=n_sc, k_users=k, beta=beta)
    if k > 1:
        shape = draw(st.sampled_from(
            ["iid", "identical", "cancel", "orthogonal", "zero"]))
        if shape in ("identical", "cancel"):
            ch.beta[1] = ch.beta[0]
            ch.h[:, 1] = ch.h[:, 0] if shape == "identical" else -ch.h[:, 0]
        elif shape == "orthogonal" and m > 1:
            ch.h[:, :2, 2:] = 0.0
            ch.h[:, 0, 1] = ch.h[:, 1, 0] = 0.0
        elif shape == "zero":
            ch.h[:, 1] = 0.0
    audiences = draw(st.lists(
        st.sets(st.integers(1, k), min_size=1).map(lambda s: tuple(sorted(s))),
        min_size=1, max_size=6))
    return ch, [_msg(aud) for aud in audiences]


@settings(max_examples=300, deadline=None)
@given(padded_instances())
def test_plan_asymptotic_matches_pointwise(instance):
    ch, messages = instance
    plan = beam_plan_asymptotic(ch, messages)
    assert plan.w.shape == (len(messages), ch.n_sc, ch.m)
    for i, msg in enumerate(messages):
        idx = [k - 1 for k in msg.audience]
        w, q = asymptotic_beam(ch.h[:, idx, :], ch.beta[idx], ch.noise_w)
        assert np.array_equal(plan.w[i], w)
        assert np.array_equal(plan.q[i], q)


@settings(max_examples=300, deadline=None)
@given(padded_instances())
def test_plan_mrt_matches_pointwise(instance):
    # against a dense eigendecomposition of each pair's covariance
    ch, messages = instance
    plan = beam_plan_mrt(ch, messages)
    assert plan.w.shape == (len(messages), ch.n_sc, ch.m)
    for i, msg in enumerate(messages):
        idx = [k - 1 for k in msg.audience]
        beta = ch.beta[idx]
        for n in range(ch.n_sc):
            h, w = ch.h[n, idx], plan.w[i, n]
            cov = (beta[:, None, None] *
                   (h[:, :, None] * h[:, None, :].conj())).sum(axis=0)
            lam_max = np.linalg.eigvalsh(cov)[-1]
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            assert np.vdot(w, cov @ w).real >= (1 - 1e-12) * lam_max
            gmin = (beta * np.abs(h.conj() @ w) ** 2).min()
            if gmin == 0.0:
                assert plan.q[i, n] == np.inf
            else:
                assert plan.q[i, n] == pytest.approx(ch.noise_w / gmin,
                                                     rel=1e-12, abs=0.0)


def test_plan_marks_degenerate_slots_infinite():
    h = np.zeros((1, 2, 2), dtype=complex)
    h[0, 0] = [1.0, 2.0]
    h[0, 1] = [-1.0, -2.0]    # cancels the first user exactly
    ch = ChannelState(h=h, beta=np.array([1.0, 1.0]), noise_w=1e-9,
                      bandwidth_hz=39e3)
    msg = _msg((1, 2))
    plan = beam_plan_asymptotic(ch, [msg])
    assert np.isinf(plan.q[0, 0])
    assert np.all(plan.w[0, 0] == 0)
    plan2 = beam_plan_mrt(ch, [msg])
    # principal direction exists but leaves one user orthogonal? it does not
    # here: both users share a line, so MRT serves both
    assert np.isfinite(plan2.q[0, 0])


# ---------------------------------------------------------------------------
# max-min fair beams
# ---------------------------------------------------------------------------

def unit_grid(steps_t=181, steps_phi=361):
    """Unit vectors (cos t, e^{i phi} sin t) of C^2 on a dense grid: every
    direction up to a common phase."""
    t, phi = np.meshgrid(np.linspace(0.0, np.pi / 2, steps_t),
                         np.linspace(0.0, 2 * np.pi, steps_phi), indexing="ij")
    return np.stack([np.cos(t), np.exp(1j * phi) * np.sin(t)],
                    axis=-1).reshape(-1, 2)


def test_maxmin_two_users_match_dense_grid():
    # no grid direction serves the weaker of two users better than the
    # closed form, and the closed form's gain is (ab - rho^2)/(a + b - 2 rho)
    # whenever it equalizes the two
    rng = np.random.default_rng(21)
    grid = unit_grid()
    for _ in range(40):
        h = crandn(rng, 2, 2)
        beta = rng.uniform(0.2, 3.0, size=2)
        w, q = one_subcarrier(beam_plan_maxmin, h, beta, 0.5)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        gmin = (beta * np.abs(h.conj() @ w) ** 2).min()
        assert q == pytest.approx(0.5 / gmin, rel=1e-12, abs=0.0)
        best = (beta * np.abs(grid @ h.conj().T) ** 2).min(axis=1).max()
        assert gmin >= best * (1 - 1e-12)
        ht = np.sqrt(beta)[:, None] * h
        a, b = (np.abs(ht) ** 2).sum(axis=1)
        rho = abs(np.vdot(ht[0], ht[1]))
        if rho < min(a, b):
            assert gmin == pytest.approx((a * b - rho ** 2) / (a + b - 2 * rho),
                                         rel=1e-12, abs=0.0)


def test_maxmin_two_user_hand_cases():
    # orthogonal: equal gains ab/(a + b); parallel, or one user covering
    # the other: the weaker user's MRT; a zero channel quotes inf
    h = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    w, q = one_subcarrier(beam_plan_maxmin, h, 1.0, 0.5)
    assert q == pytest.approx(0.5 * (1.0 + 4.0) / 4.0, rel=1e-12, abs=0.0)
    h = np.array([[1.0, 1.0j], [2.0, 2.0j]], dtype=complex)
    w, q = one_subcarrier(beam_plan_maxmin, h, 1.0, 0.5)
    assert align(w, h[0] / np.linalg.norm(h[0])) == pytest.approx(1.0, abs=1e-12)
    assert q == pytest.approx(0.25, rel=1e-12, abs=0.0)
    h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    w, q = one_subcarrier(beam_plan_maxmin, h, 1.0, 0.5)
    assert q == np.inf and abs(np.linalg.norm(w) - 1.0) <= 1e-12


def default_trial(t):
    """Channel and multicast messages of default_config() trial t."""
    cfg = default_config()
    ch = sample_channel(derive_trial_seed(cfg.base_seed, t), cfg.m, cfg.n_sc,
                        len(cfg.users), beta=cfg.beta, noise_w=cfg.noise_w,
                        bandwidth_hz=cfg.bandwidth_hz)
    tile_sets = {k: compute_tile_set(u.direction, cfg.tiling)
                 for k, u in enumerate(cfg.users, start=1)}
    qualities = {k: u.quality for k, u in enumerate(cfg.users, start=1)}
    return ch, build_messages(build_partition(tile_sets), qualities,
                              cfg.ladder)


def test_maxmin_quotes_below_both_menu_plans_on_default_trials():
    for t in range(4):
        ch, messages = default_trial(t)
        two = np.array([len(msg.audience) == 2 for msg in messages])
        assert two.any()
        q = beam_plan_maxmin(ch, messages).q[two]
        menu = np.minimum(beam_plan_asymptotic(ch, messages).q,
                          beam_plan_mrt(ch, messages).q)[two]
        assert np.all(q <= menu * (1 + 1e-12)), t


def test_maxmin_single_user_is_mrt_bitwise():
    ch = sample_channel(6, m=4, n_sc=3, k_users=5)
    audiences = [(1,), (1, 2), (1, 2, 3), (4,), (2, 3, 4, 5)]
    messages = [_msg(aud) for aud in audiences]
    plan, mrt = beam_plan_maxmin(ch, messages), beam_plan_mrt(ch, messages)
    for i in (0, 3):
        assert plan.w[i].tobytes() == mrt.w[i].tobytes()
        assert plan.q[i].tobytes() == mrt.q[i].tobytes()


@pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.1)])
def test_asymptotic_beam_approaches_maxmin_as_antennas_grow(beta):
    # the paper calls the large-antenna beam asymptotically optimal: on
    # i.i.d. Rayleigh two-user pairs its quote never beats the max-min
    # quote, and the median ratio of the two rises towards 1 with m
    rng = np.random.default_rng(256)
    medians = []
    for m in (16, 64, 256):
        n = 400
        ch = ChannelState(h=crandn(rng, n, 2, m), beta=np.array(beta),
                          noise_w=1e-9, bandwidth_hz=39e3)
        messages = [_msg((1, 2))]
        ratio = (beam_plan_maxmin(ch, messages).q
                 / beam_plan_asymptotic(ch, messages).q)
        assert np.all(ratio <= 1 + 1e-12), m
        medians.append(float(np.median(ratio)))
    assert medians[0] < medians[1] < medians[2], medians
