"""Channel sampler: determinism contract, distribution, seed derivation."""

import numpy as np
import pytest

from tilecast import ChannelState, Message, derive_trial_seed, sample_channel
from tilecast.channel import _audience
from tilecast.scope import trial_scope


def reference_channel(seed, m, n_sc, k):
    """Recompute the documented sampler from raw PCG64 uniforms.

    Same convention, different code path (log(1-u) instead of log1p(-u)),
    so agreement is a check of the contract rather than of the code against
    itself.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = n_sc * k * m

    def normals(count):
        pairs = (count + 1) // 2
        u1 = rng.random(pairs)
        u2 = rng.random(pairs)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(2.0 * np.pi * u2)
        z[1::2] = r * np.sin(2.0 * np.pi * u2)
        return z[:count]

    re = normals(n)
    im = normals(n)
    return ((re + 1j * im) / np.sqrt(2.0)).reshape(n_sc, k, m)


def test_same_seed_same_bytes():
    a = sample_channel(77, m=3, n_sc=5, k_users=2)
    b = sample_channel(77, m=3, n_sc=5, k_users=2)
    assert a.h.tobytes() == b.h.tobytes()
    assert np.array_equal(a.beta, b.beta)


def test_different_seeds_differ():
    a = sample_channel(1, m=2, n_sc=4, k_users=2)
    b = sample_channel(2, m=2, n_sc=4, k_users=2)
    assert not np.array_equal(a.h, b.h)


def test_matches_documented_transform():
    for seed, m, n_sc, k in ((3, 4, 6, 3), (12345, 2, 7, 5), (0, 1, 1, 1)):
        ch = sample_channel(seed, m=m, n_sc=n_sc, k_users=k)
        ref = reference_channel(seed, m, n_sc, k)
        np.testing.assert_allclose(ch.h, ref, rtol=1e-12, atol=1e-14)


def test_odd_entry_count():
    # n_sc*k*m odd exercises the tail trim of the pair transform
    ch = sample_channel(5, m=3, n_sc=3, k_users=1)
    assert ch.h.shape == (3, 1, 3)
    np.testing.assert_allclose(ch.h, reference_channel(5, 3, 3, 1), rtol=1e-12)


def test_entry_second_moment():
    ch = sample_channel(11, m=5, n_sc=200, k_users=100)
    power = np.abs(ch.h) ** 2
    assert power.mean() == pytest.approx(1.0, abs=0.02)
    # real and imaginary parts carry half the variance each
    assert ch.h.real.var() == pytest.approx(0.5, rel=0.02, abs=0.0)
    assert ch.h.imag.var() == pytest.approx(0.5, rel=0.02, abs=0.0)


def test_vector_norm_moment():
    m = 6
    ch = sample_channel(13, m=m, n_sc=100, k_users=100)
    norms2 = np.sum(np.abs(ch.h) ** 2, axis=2)   # 1e4 vectors
    sigma = np.sqrt(m / norms2.size)
    assert abs(norms2.mean() - m) <= 3 * sigma


def test_adjacent_entries_uncorrelated():
    ch = sample_channel(17, m=4, n_sc=100, k_users=50)
    x = ch.h.real.ravel()
    rho = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(rho) < 0.02
    xy = np.corrcoef(ch.h.real.ravel(), ch.h.imag.ravel())[0, 1]
    assert abs(xy) < 0.02


def test_beta_broadcast():
    ch = sample_channel(19, m=2, n_sc=3, k_users=4, beta=2.5)
    np.testing.assert_array_equal(ch.beta, [2.5] * 4)
    ch2 = sample_channel(19, m=2, n_sc=3, k_users=4, beta=[1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ch2.beta, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ch.h, ch2.h)


def test_beta_validation():
    with pytest.raises(ValueError):
        sample_channel(19, m=2, n_sc=3, k_users=4, beta=[1.0, 2.0])
    with pytest.raises(ValueError):
        sample_channel(19, m=2, n_sc=3, k_users=4, beta=-1.0)


def test_state_validation():
    ch = sample_channel(1, m=2, n_sc=3, k_users=2)
    # the dimensions are h's
    assert (ch.n_sc, ch.k_users, ch.m) == ch.h.shape == (3, 2, 2)
    ok = ChannelState(h=ch.h[:, :1], beta=[0.5], noise_w=1e-9,
                      bandwidth_hz=1e3)
    assert (ok.n_sc, ok.k_users, ok.m) == (3, 1, 2)
    for h, beta in ((ch.h[:, :, :0], ch.beta),     # no antenna
                    (ch.h[0], ch.beta),            # not 3-D
                    (ch.h[:, :1], ch.beta),        # one user, two gains
                    (ch.h, ch.beta[:1]),           # two users, one gain
                    (ch.h, -ch.beta)):
        with pytest.raises(ValueError):
            ChannelState(h=h, beta=beta, noise_w=1e-9, bandwidth_hz=1e3)
    with pytest.raises(ValueError):
        ChannelState(h=ch.h, beta=ch.beta, noise_w=0.0, bandwidth_hz=1e3)


def test_trial_seed_deterministic_and_distinct():
    assert derive_trial_seed(9, 0) == derive_trial_seed(9, 0)
    assert derive_trial_seed(9, 0) != derive_trial_seed(9, 1)


def test_trial_seed_injective_probe():
    seen = set()
    for base in (1, 2, 54321):
        for t in range(1000):
            seen.add(derive_trial_seed(base, t))
    assert len(seen) == 3000


def test_trial_seed_distinct_streams():
    a = sample_channel(derive_trial_seed(1, 0), m=2, n_sc=2, k_users=2)
    b = sample_channel(derive_trial_seed(2, 0), m=2, n_sc=2, k_users=2)
    assert not np.array_equal(a.h, b.h)


def test_trial_seed_range_checks():
    with pytest.raises(ValueError):
        derive_trial_seed(1, -1)
    with pytest.raises(ValueError):
        derive_trial_seed(1, 2 ** 32)
    with pytest.raises(ValueError):
        derive_trial_seed(-1, 0)


def test_audience_gather_pads():
    ch = sample_channel(5, m=3, n_sc=4, k_users=4, beta=[1.0, 2.0, 3.0, 4.0])
    audiences = [(2,), (1, 3, 4), (1, 4)]
    messages = [Message(level=1, audience=a,
                        tile_count=1, demand_bits_per_s=1.0)
                for a in audiences]
    h, beta, mask = _audience(ch, messages)
    assert h.shape == (3, 4, 3, 3) and beta.shape == mask.shape == (3, 3)
    np.testing.assert_array_equal(mask.sum(axis=1), [1, 3, 2])
    for i, aud in enumerate(audiences):
        a = len(aud)
        idx = [k - 1 for k in aud]
        np.testing.assert_array_equal(h[i, :, :a], ch.h[:, idx])
        np.testing.assert_array_equal(beta[i, :a], ch.beta[idx])
        assert np.all(h[i, :, a:] == 0) and np.all(beta[i, a:] == 1.0)
        assert mask[i, :a].all() and not mask[i, a:].any()


def test_audience_gathered_once_per_scope():
    # inside a trial scope one channel and one message list gather once,
    # whatever sequence carries the list; outside, every call gathers
    ch = sample_channel(6, m=2, n_sc=3, k_users=3)
    msgs = tuple(Message(level=1, audience=a,
                         tile_count=1, demand_bits_per_s=1.0)
                 for a in [(1, 3), (2,)])
    with trial_scope():
        first = _audience(ch, msgs)
        again = _audience(ch, list(msgs))
        assert all(a is b for a, b in zip(first, again))
    for array in first:
        with pytest.raises(ValueError):
            array.flat[0] = 0
    outside = _audience(ch, msgs)
    assert not any(a is b for a, b in zip(outside, _audience(ch, msgs)))
    for a, b in zip(first, outside):
        np.testing.assert_array_equal(a, b)
