"""Experiment harness: configs, sweeps, pairing, CSV contract, CLI."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import tilecast
from tilecast import (CSV_HEADER, SCHEMES, Message, QualityLadder,
                      ScenarioConfig, TilingConfig, ViewDirection,
                      beam_plan_asymptotic, complete_allocation,
                      config_from_dict, config_to_dict, default_config,
                      derive_trial_seed, run_experiment, run_trial,
                      sample_channel, solve_quoted_allocation, sweep_values)
from tilecast import cli, harness, ofdma_alloc, scope
from tilecast.cli import main as cli_main
from tilecast.harness import (SWEEP_M_VALUES, UserSpec, _trial_subsets,
                              shift_directions)


def tiny_config(**over):
    cfg = replace(
        default_config(),
        tiling=TilingConfig(u_h=6, u_v=3, fov_h_deg=90.0, fov_v_deg=90.0,
                            margin_deg=0.0),
        ladder=QualityLadder((40000.0, 56000.0)),
        users=[UserSpec(ViewDirection(100.0, 90.0), 1),
               UserSpec(ViewDirection(140.0, 90.0), 2)],
        n_sc=8, m=2, trials=2,
        schemes=("proposed-asymptotic", "baseline1-unicast"),
    )
    return replace(cfg, **over)


def three_viewer_config(**over):
    cfg = replace(
        default_config(),
        tiling=TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                            margin_deg=15.0),
        users=[UserSpec(ViewDirection(110.0, 90.0), 2),
               UserSpec(ViewDirection(170.0, 90.0), 2),
               UserSpec(ViewDirection(230.0, 90.0), 3)],
        n_sc=8, m=4, trials=3,
    )
    return replace(cfg, **over)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_userspec_coerces_tuples():
    u = UserSpec((110.0, 90.0), 2)
    assert isinstance(u.direction, ViewDirection)
    assert u.direction.yaw_deg == 110.0


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(schemes=())
    with pytest.raises(ValueError):
        tiny_config(schemes=("baseline3-psycho",))
    with pytest.raises(ValueError):
        tiny_config(users=[])
    with pytest.raises(ValueError):
        tiny_config(users=[UserSpec((0.0, 90.0), 7)])
    with pytest.raises(ValueError):
        tiny_config(delta_deg=-1.0)


@pytest.mark.parametrize("field, value", [
    ("m", 0), ("m", -2), ("n_sc", 0), ("bandwidth_hz", 0.0),
    ("bandwidth_hz", math.nan), ("noise_w", 0.0), ("noise_w", -1e-9),
    ("beta", 0.0), ("beta", -1.0), ("base_seed", -1)])
def test_config_rejects_link_parameters_that_crash_a_trial(field, value):
    # each of these was accepted once and crashed the first trial
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: value})
    # a sweep re-checks every point it builds, and each m point passes
    for m in SWEEP_M_VALUES:
        assert replace(tiny_config(), m=m).m == m


@pytest.mark.parametrize("over, message", [
    ({"users": [UserSpec((400.0, 90.0), 1)]}, r"yaw_deg 400.0 outside"),
    ({"users": [UserSpec((10.0, 180.5), 1)]}, r"pitch_deg 180.5 outside"),
    ({"users": [UserSpec((10.0, -1.0), 1)]}, r"pitch_deg -1.0 outside"),
    ({"beta": (1.0, 2.0)}, r"beta needs one value or one per user"),
], ids=["yaw-400", "pitch-180.5", "pitch-minus-1", "beta-two-of-five"])
def test_config_rejects_users_and_beta_that_crash_a_trial(over, message):
    # each of these passed the config's checks once, then crashed the
    # first trial (geometry's direction check, the channel's beta
    # broadcast); the rules that failed there now reject the config
    with pytest.raises(ValueError, match=message):
        replace(default_config(), **over)
    # one value per user, or one value for all, runs
    for beta in ((1.0, 0.5), (0.5,), 0.5):
        assert run_trial(tiny_config(beta=beta), "baseline1-unicast",
                         0).total_power_w > 0


def test_config_rejects_shift_without_five_users():
    with pytest.raises(ValueError, match="5 users"):
        three_viewer_config(delta_deg=12.0)
    assert three_viewer_config(delta_deg=0.0).delta_deg == 0.0


def test_delta_sweep_rejected_before_first_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="5 users"):
        run_experiment(three_viewer_config(), sweep="delta")
    assert calls == []


def test_config_dict_round_trip():
    # a per-user beta goes through JSON as a list and comes back a tuple;
    # a list of users or of betas builds the config a tuple builds
    users = [UserSpec(ViewDirection(100.0, 90.0), 1),
             UserSpec(ViewDirection(140.0, 90.0), 2)]
    for over in ({"beta": 1.0}, {"beta": (1.0, 0.25)}, {"beta": [1.0, 0.25]},
                 {"users": users}):
        cfg = tiny_config(**over)
        raw = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(raw) == cfg
    assert tiny_config(beta=[1.0, 0.25]) == tiny_config(beta=(1.0, 0.25))
    assert tiny_config(users=users) == tiny_config(users=tuple(users))


@pytest.mark.parametrize("build, message", [
    (lambda: replace(default_config(), m=4.7), "m: 4.7 is not an integer"),
    (lambda: replace(default_config(), n_sc=16.5),
     "n_sc: 16.5 is not an integer"),
    (lambda: replace(default_config(), trials=2.5),
     "trials: 2.5 is not an integer"),
    (lambda: replace(default_config(), base_seed=1.5),
     "base_seed: 1.5 is not an integer"),
    (lambda: replace(default_config(), m=True), "m: True is not an integer"),
    (lambda: replace(default_config(), m="4"), "m has the wrong type: '4'"),
    (lambda: TilingConfig(u_h=30.5, u_v=15, fov_h_deg=100, fov_v_deg=100),
     "u_h: 30.5 is not an integer"),
    (lambda: UserSpec(ViewDirection(1.0, 90.0), 2.5),
     "quality: 2.5 is not an integer"),
    (lambda: derive_trial_seed(1.5, 0), "base_seed: 1.5 is not an integer"),
], ids=["m-fraction", "n_sc-fraction", "trials-fraction", "seed-fraction",
        "m-bool", "m-string", "u_h-fraction", "quality-fraction",
        "trial-seed-fraction"])
def test_config_rejects_fractions_when_built(build, message):
    # each config here once built, then raised TypeError in its first
    # trial (base_seed 1.5 ran silently as base seed 1); the integer rule
    # now refuses it when it is built
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_integral_floats_plan_as_ints():
    # 4.0, 2.0 and 30.0 read as 4, 2 and 30 and plan the same bytes
    cfg = replace(default_config(), trials=1)
    floats = replace(
        cfg, m=4.0, tiling=replace(cfg.tiling, u_h=30.0),
        users=[UserSpec(u.direction, float(u.quality)) for u in cfg.users])
    assert floats == cfg
    assert type(floats.m) is type(floats.tiling.u_h) is int
    assert all(type(u.quality) is int for u in floats.users)
    assert run_experiment(floats) == run_experiment(cfg)


def test_config_is_a_frozen_value():
    cfg = default_config()
    with pytest.raises(FrozenInstanceError):
        cfg.m = 8
    assert isinstance(cfg.users, tuple)
    assert hash(cfg) == hash(default_config())
    # a derived config copies the lists it is given and shares nothing
    # mutable with its source
    users, beta = list(cfg.users), [1.0] * 5
    derived = replace(cfg, n_sc=16, users=users, beta=beta)
    users.append(UserSpec(ViewDirection(0.0, 90.0), 1))
    beta[0] = 2.0
    assert derived.users == cfg.users and derived.beta == (1.0,) * 5
    assert cfg == default_config()


def test_config_unknown_keys_rejected_everywhere():
    good = config_to_dict(tiny_config())
    bad_top = dict(good, antennas=4)
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(bad_top)
    bad_tiling = json.loads(json.dumps(good))
    bad_tiling["tiling"]["tile_rows"] = 3
    with pytest.raises(ValueError, match="unknown tiling keys"):
        config_from_dict(bad_tiling)
    bad_user = json.loads(json.dumps(good))
    bad_user["users"][0]["fov"] = 90
    with pytest.raises(ValueError, match="unknown user keys"):
        config_from_dict(bad_user)
    # a user or a tiling that lacks a key it needs is rejected too
    with pytest.raises(ValueError, match=r"missing user keys: "
                                         r"\['pitch_deg', 'quality'\]"):
        config_from_dict({"users": [{"yaw_deg": 1}]})
    with pytest.raises(ValueError, match=r"missing tiling keys: "
                                         r"\['fov_h_deg', 'fov_v_deg'\]"):
        config_from_dict({"tiling": {"u_h": 6, "u_v": 3}})


def test_config_partial_dict_uses_defaults():
    cfg = config_from_dict({"m": 8, "trials": 3})
    assert cfg.m == 8
    assert cfg.trials == 3
    assert cfg.tiling == default_config().tiling


def test_shift_directions():
    dirs = [ViewDirection(y, 90.0) for y in (110.0, 110.0, 170.0, 230.0, 230.0)]
    same = shift_directions(dirs, 0.0)
    assert [d.yaw_deg for d in same] == [110.0, 110.0, 170.0, 230.0, 230.0]
    out = shift_directions(dirs, 5.0)
    assert [d.yaw_deg for d in out] == [115.0, 115.0, 170.0, 225.0, 225.0]
    assert all(d.pitch_deg == 90.0 for d in out)
    wrapped = shift_directions([ViewDirection(358.0, 90.0)] * 5, 5.0)
    assert wrapped[0].yaw_deg == pytest.approx(3.0)
    with pytest.raises(ValueError):
        shift_directions(dirs[:3], 5.0)


def test_sweep_values():
    cfg = default_config()
    assert sweep_values(cfg, None) == [("none", 0)]
    assert sweep_values(cfg, "none") == [("none", 0)]
    assert sweep_values(cfg, "k") == [("k", k) for k in range(1, 6)]
    assert sweep_values(cfg, "m") == [("m", m) for m in SWEEP_M_VALUES]
    deltas = sweep_values(cfg, "delta")
    assert [v for _, v in deltas] == [i * cfg.tiling.tile_width_deg
                                      for i in range(6)]
    with pytest.raises(ValueError):
        sweep_values(cfg, "q")


def test_trial_subsets_nest_and_are_deterministic():
    cfg = default_config()
    for t in range(10):
        prev = set()
        for k in range(1, 6):
            sub = _trial_subsets(cfg, t)[k]
            assert len(sub) == k
            assert sub == sorted(sub)
            assert prev <= set(sub)
            prev = set(sub)
        assert _trial_subsets(cfg, t)[3] == _trial_subsets(cfg, t)[3]
    assert _trial_subsets(cfg, 0)[5] == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

def test_run_trial_deterministic_and_paired():
    cfg = tiny_config()
    a = run_trial(cfg, "proposed-asymptotic", 0)
    b = run_trial(cfg, "proposed-asymptotic", 0)
    assert a == b
    c = run_trial(cfg, "baseline1-unicast", 0)
    assert c.seed == a.seed      # same channel realization across schemes
    assert a.total_power_w > 0
    assert c.total_power_w > 0


def test_run_trial_all_schemes_feasible_on_small_scenario():
    cfg = tiny_config()
    for scheme in SCHEMES:
        r = run_trial(cfg, scheme, 1)
        assert math.isfinite(r.total_power_w), scheme
        assert r.total_power_w > 0


def test_run_trial_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma on its first call, a cost the first timed
    # plan of a process would pay; a fresh interpreter shows the import
    code = ("import sys\n"
            "from tilecast import SCHEMES, default_config, run_trial\n"
            "for scheme in SCHEMES:\n"
            "    run_trial(default_config(), scheme, 0)\n"
            "print('numpy.ma' in sys.modules)\n")
    # the child imports the same tilecast as this process
    src = os.path.dirname(os.path.dirname(tilecast.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_run_trial_subset_restricts_population():
    cfg = tiny_config()
    full = run_trial(cfg, "baseline1-unicast", 0)
    solo = run_trial(cfg, "baseline1-unicast", 0, user_subset=[1])
    assert solo.total_power_w < full.total_power_w


def test_run_trial_unknown_scheme():
    with pytest.raises(ValueError):
        run_trial(tiny_config(), "zero-forcing", 0)


def test_run_trial_infeasible_gives_nan():
    # two users, one subcarrier: two unicast messages cannot both fit
    cfg = tiny_config(n_sc=1, schemes=("baseline1-unicast",))
    r = run_trial(cfg, "baseline1-unicast", 0)
    assert math.isnan(r.total_power_w)
    assert not r.converged


@pytest.mark.parametrize("middle_rate", [1e6, 5e5])
def test_diverged_allocator_dual_gives_nan_rows(middle_rate):
    # 16 messages on 16 subcarriers at one antenna, the largest asking for
    # about 2,600 bits per hertz: the allocator's dual overflows, which
    # used to raise LinAlgError from the quoted schemes mid-sweep
    cfg = replace(
        default_config(), m=1, n_sc=16, trials=1,
        ladder=QualityLadder((4e4, middle_rate, 1.07e6)),
        users=[UserSpec(ViewDirection(yaw, pitch), quality)
               for yaw, pitch, quality in ((165.6, 120.9, 2),
                                           (190.6, 124.3, 2),
                                           (149.3, 118.1, 3),
                                           (335.5, 43.8, 3),
                                           (262.4, 141.3, 3))])
    rows = list(csv.DictReader(run_experiment(cfg).splitlines()))
    data = [r for r in rows if r["trial"] == "0"]
    assert [r["scheme"] for r in data] == list(SCHEMES)
    assert all(r["total_power_w"] == "nan" and r["converged"] == "0"
               for r in data)


# ---------------------------------------------------------------------------
# experiment CSV
# ---------------------------------------------------------------------------

def test_csv_header_and_row_count():
    cfg = tiny_config()
    text = run_experiment(cfg)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("scheme,sweep_param,sweep_value,trial,seed,"
                        "total_power_w,converged,unique_argmax,iterations")
    # per scheme and sweep point: trials + mean + stderr
    assert len(lines) == 1 + len(cfg.schemes) * 1 * (cfg.trials + 2)


def test_csv_row_count_with_sweep():
    cfg = tiny_config()
    text = run_experiment(cfg, sweep="k")
    lines = text.splitlines()
    assert len(lines) == 1 + len(cfg.schemes) * 2 * (cfg.trials + 2)
    ks = {line.split(",")[2] for line in lines[1:]}
    assert ks == {"1", "2"}


def test_csv_summary_rows_shape():
    text = run_experiment(tiny_config())
    lines = text.splitlines()
    mean_rows = [l for l in lines if ",mean," in l]
    err_rows = [l for l in lines if ",stderr," in l]
    assert len(mean_rows) == len(err_rows) == 2
    cells = mean_rows[0].split(",")
    assert cells[3] == "mean"
    assert cells[4] == ""                      # no seed on summary rows
    assert float(cells[5]) > 0
    err_cells = err_rows[0].split(",")
    assert err_cells[6:] == ["", "", ""]


def test_rerun_byte_identical():
    cfg = tiny_config()
    assert run_experiment(cfg) == run_experiment(cfg)


def test_experiment_writes_file(tmp_path):
    out = tmp_path / "results.csv"
    out.write_text("an older, longer results file\n" * 100)
    text = run_experiment(tiny_config(), out_path=str(out))
    assert out.read_bytes().decode("utf-8") == text


def test_unwritable_out_path_rejected_before_first_trial(tmp_path,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(FileNotFoundError):
        run_experiment(tiny_config(), out_path=str(tmp_path / "no" / "r.csv"))
    assert calls == []
    # a sweep that stops partway leaves an existing file as it was
    out = tmp_path / "r.csv"
    out.write_text("kept\n")

    def crash(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(harness, "run_trial", crash)
    with pytest.raises(RuntimeError):
        run_experiment(tiny_config(), out_path=str(out))
    assert out.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# trial scopes: one index's shared work, invisible in the results
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sweep", ["k", "m"])
def test_experiment_rows_match_standalone_trials(sweep, monkeypatch):
    # run_experiment plans each index's trials in one scope; every row
    # must be the row of the same trial planned on its own, and the scope
    # must share: one channel per index and antenna count, and fewer
    # allocator solves than calls where single-user audiences repeat
    cfg = (three_viewer_config(trials=2) if sweep == "k"
           else tiny_config(schemes=SCHEMES))
    counts = {"channels": 0, "solves": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, attr, name in ((harness, "sample_channel", "channels"),
                               (ofdma_alloc, "_solve_quoted", "solves")):
        monkeypatch.setattr(module, attr,
                            counted(name, getattr(module, attr)))
    rows = [r for r in csv.DictReader(
        run_experiment(cfg, sweep=sweep).splitlines()) if r["trial"].isdigit()]
    points = sweep_values(cfg, sweep)
    assert len(rows) == len(SCHEMES) * len(points) * cfg.trials
    assert counts["channels"] == cfg.trials * (1 if sweep == "k"
                                               else len(points))
    if sweep == "k":    # each trial makes at most one allocator call
        assert counts["solves"] < len(rows)
    monkeypatch.undo()
    for row in rows:
        t, value = int(row["trial"]), int(row["sweep_value"])
        if sweep == "k":
            r = run_trial(cfg, row["scheme"], t,
                          user_subset=_trial_subsets(cfg, t)[value])
        else:
            r = run_trial(replace(cfg, m=value), row["scheme"], t)
        assert row == {
            "scheme": r.scheme, "sweep_param": sweep,
            "sweep_value": str(value), "trial": str(t), "seed": str(r.seed),
            "total_power_w": f"{r.total_power_w:.10e}",
            "converged": str(int(r.converged)),
            "unique_argmax": str(int(r.unique_argmax)),
            "iterations": str(r.iterations)}


def _shared_solve(monkeypatch, schemes):
    """Plan `schemes` at one user in one trial scope: every beam rule is
    then MRT, so they quote alike and share one solve. Returns the plans
    `complete_allocation` was given, the number of solves and the trial
    results."""
    cfg = tiny_config()
    plans = []
    real = harness.complete_allocation
    monkeypatch.setattr(harness, "complete_allocation",
                        lambda alloc, plan: plans.append(alloc)
                        or real(alloc, plan))
    solves = []
    solve = ofdma_alloc._solve_quoted
    monkeypatch.setattr(ofdma_alloc, "_solve_quoted",
                        lambda *args: solves.append(args) or solve(*args))
    with scope.trial_scope():
        results = [run_trial(cfg, scheme, 0, user_subset=[1])
                   for scheme in schemes]
    return plans, len(solves), results


def test_shared_allocation_handed_out_as_is(monkeypatch):
    # the kept plan itself goes to every scheme that meets its problem:
    # completing it for one scheme leaves it as it was for the next
    plans, solves, results = _shared_solve(
        monkeypatch, ("proposed-asymptotic", "baseline2-multicast",
                      "proposed-dc"))
    first, second = plans
    assert solves == 1
    assert first is second
    assert first.beams is None and first.total_power_w is None
    assert results[0].total_power_w == results[1].total_power_w
    # a third scheme gets the kept plan too, with no second solve
    assert results[2].total_power_w == results[0].total_power_w


def test_plans_are_values(monkeypatch):
    ch = sample_channel(5, m=3, n_sc=6, k_users=2)
    messages = [Message(subset=(1,), level=1, audience=(1,), tile_count=2,
                        demand_bits_per_s=1.5 * ch.bandwidth_hz),
                Message(subset=(1, 2), level=2, audience=(2,), tile_count=1,
                        demand_bits_per_s=0.8 * ch.bandwidth_hz)]
    plan = beam_plan_asymptotic(ch, messages)
    alloc = solve_quoted_allocation(messages, plan.q, ch.bandwidth_hz)
    done = complete_allocation(alloc, plan)
    assert alloc.beams is None and alloc.total_power_w is None
    assert done.beams is not None and done.total_power_w > 0.0
    with pytest.raises(FrozenInstanceError):
        done.converged = False
    with pytest.raises(FrozenInstanceError):
        plan.q = plan.q * 2.0
    for array in (done.assign, done.power, done.rate, done.beams):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
    with pytest.raises(TypeError):
        done.diagnostics["start"] = "changed"
    # inside a trial scope the two schemes that share one solve read the
    # same plan values
    first, second = _shared_solve(
        monkeypatch, ("proposed-asymptotic", "baseline2-multicast"))[0]
    for name in ("assign", "power", "rate"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.tobytes() == b.tobytes(), name
    assert first.diagnostics == second.diagnostics
    assert first.power_sum == second.power_sum


def test_allocation_shared_only_on_equal_inputs():
    # a plan is shared only for the same demands, quotes and bandwidth
    quotes = 10.0 ** np.random.default_rng(1).uniform(-9.0, -8.0, (3, 6))
    demands = np.array([1.0, 2.0, 3.0]) * 39e3
    with scope.trial_scope():
        base = ofdma_alloc.solve_quoted_allocation(demands, quotes, 39e3)
        for args in ((demands * 1.5, quotes, 39e3),
                     (demands, quotes * 2.0, 39e3),
                     (demands, quotes, 78e3),
                     (demands[:2], quotes[:2], 39e3)):
            other = ofdma_alloc.solve_quoted_allocation(*args)
            assert other.power.shape != base.power.shape or \
                not np.array_equal(other.power, base.power)
            assert other.power_sum == \
                ofdma_alloc.solve_quoted_allocation(*args).power_sum


def test_no_scope_outlives_run_experiment(monkeypatch):
    # one fresh scope per trial index, none after the sweep returns or
    # raises
    memos = []
    real = harness.run_trial

    def spy(cfg, scheme, t, user_subset=None):
        memos.append((t, scope._MEMO.get()))
        return real(cfg, scheme, t, user_subset=user_subset)

    monkeypatch.setattr(harness, "run_trial", spy)
    cfg = tiny_config(trials=3)
    run_experiment(cfg)
    assert scope._MEMO.get() is None
    of_index = dict(memos)
    assert all(memo is of_index[t] for t, memo in memos)
    assert None not in of_index.values()
    assert len({id(memo) for memo in of_index.values()}) == cfg.trials

    def crash(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(harness, "run_trial", crash)
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    assert scope._MEMO.get() is None


def test_shared_channel_is_read_only(monkeypatch):
    drawn = []
    real = harness.sample_channel

    def sample(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(harness, "sample_channel", sample)
    cfg = tiny_config()
    with scope.trial_scope():
        for scheme in cfg.schemes:
            run_trial(cfg, scheme, 0)
    assert len(drawn) == 1
    with pytest.raises(ValueError, match="read-only"):
        drawn[0].h[0, 0, 0] = 0.0


def test_nan_trials_kept_in_rows_skipped_in_mean():
    cfg = tiny_config(n_sc=1, schemes=("baseline1-unicast",))
    text = run_experiment(cfg)
    lines = text.splitlines()
    data = [l for l in lines[1:] if ",mean," not in l and ",stderr," not in l]
    assert all(l.split(",")[5] == "nan" for l in data)
    mean_row = next(l for l in lines if ",mean," in l)
    assert mean_row.split(",")[5] == "nan"


def test_converged_flags_dual_gap_and_one_message():
    def summary_of(text, scheme):
        row = next(l for l in text.splitlines()
                   if l.startswith(scheme) and ",mean," in l)
        return row.split(",")[5:7]

    # the dual gap on this crowded scenario stays honest: both schemes
    # allocate by the dual and report non-convergence on every trial,
    # and their means still average every trial
    cfg = three_viewer_config(schemes=("proposed-asymptotic", "proposed-dc"))
    text = run_experiment(cfg)
    for scheme in cfg.schemes:
        mean, converged = summary_of(text, scheme)
        assert mean != "nan"
        assert converged == "0"

    # two viewers of one viewport share one message, which takes every
    # subcarrier: the gap is 0 and every trial converges
    small = tiny_config(schemes=("proposed-dc",),
                        users=[UserSpec(ViewDirection(100.0, 90.0), 2),
                               UserSpec(ViewDirection(100.0, 90.0), 2)])
    mean, converged = summary_of(run_experiment(small), "proposed-dc")
    assert mean != "nan"
    assert converged == "1"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    return str(path)


def test_cli_run_and_audit_round_trip(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = str(tmp_path / "r.csv")
    assert cli_main(["run", "--config", cfg_path, "--out", out]) == 0
    assert "wrote" in capsys.readouterr().out
    assert cli_main(["audit", "--config", cfg_path, "--out", out]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_cli_sweep_none_is_no_sweep(tmp_path, capsys):
    # the CLI takes every sweep name `sweep_values` takes
    cfg_path = _write_config(tmp_path)
    plain, none = str(tmp_path / "plain.csv"), str(tmp_path / "none.csv")
    assert cli_main(["run", "--config", cfg_path, "--out", plain]) == 0
    assert cli_main(["run", "--config", cfg_path, "--sweep", "none",
                     "--out", none]) == 0
    with open(plain, encoding="utf-8") as a, open(none, encoding="utf-8") as b:
        assert a.read() == b.read()
    assert cli_main(["audit", "--config", cfg_path, "--sweep", "none",
                     "--out", plain]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_cli_run_counts_failed_and_unconverged_trials(tmp_path, capsys):
    # two viewers at one level have three audiences, (1,), (2,) and
    # (1, 2); two subcarriers cannot carry three messages, so the
    # multicast trial fails, while the unicast trial's two are planned
    cfg = tiny_config(n_sc=2, trials=1,
                      users=[UserSpec(ViewDirection(100.0, 90.0), 1),
                             UserSpec(ViewDirection(140.0, 90.0), 1)])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "r.csv"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["trial"] not in ("mean", "stderr")]
    failed = sum(r["total_power_w"] == "nan" for r in rows)
    unconverged = sum(r["converged"] == "0" and r["total_power_w"] != "nan"
                      for r in rows)
    assert (len(rows), failed) == (2, 1)
    assert (f"trials: 2, failed (nan power): 1, not converged (of the "
            f"rest): {unconverged}") in capsys.readouterr().out


def test_cli_audit_detects_tampering(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "r.csv"
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    text = out.read_text()
    doctored = text.replace("e-0", "e-1", 1)
    assert doctored != text
    out.write_text(doctored)
    assert cli_main(["audit", "--config", cfg_path, "--out", str(out)]) == 1
    assert "mismatch" in capsys.readouterr().out


def test_cli_run_per_user_beta(tmp_path, capsys):
    # a config file may give one beta per user
    cfg = tiny_config(beta=(1.0, 0.25), trials=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert json.loads(path.read_text())["beta"] == [1.0, 0.25]
    out = tmp_path / "r.csv"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text() == run_experiment(cfg)
    assert out.read_text() != run_experiment(replace(cfg, beta=1.0))


def test_cli_overrides(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "r.csv"
    rc = cli_main(["run", "--config", cfg_path, "--out", str(out),
                   "--trials", "1", "--scheme", "baseline1-unicast",
                   "--seed", "99"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 * (1 + 2)
    assert lines[1].startswith("baseline1-unicast")
    assert lines[1].split(",")[4] == str(99 << 32)


def test_cli_rejects_unknown_scheme(tmp_path):
    cfg_path = _write_config(tmp_path)
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", cfg_path, "--out",
                  str(tmp_path / "r.csv"), "--scheme", "dirty-paper"])


@pytest.mark.parametrize("argv, message", [
    (["run", "--trials", "0"], "trials must be >= 1"),
    (["run", "--scheme", "dirty-paper"], "unknown scheme: 'dirty-paper'"),
    (["run", "--config", "{m0}"], "m and n_sc must be >= 1"),
    (["run", "--config", "{absent}"], "[Errno 2] No such file or directory: "
                                      "'{absent}'"),
    (["audit", "--out", "{absent}"], "[Errno 2] No such file or directory: "
                                     "'{absent}'"),
    (["run", "--config", "{no_pitch}"], "missing user keys: "
                                        "['pitch_deg', 'quality']"),
    (["run", "--config", "{yaw400}"], "yaw_deg 400.0 outside [0, 360)"),
    # a value of the wrong JSON type names its key
    (["run", "--config", "{m_null}"], "config key 'm' has the wrong type: "
                                      "None"),
    (["run", "--config", "{ladder5}"], "config key 'ladder' has the wrong "
                                       "type: 5"),
    # an integer key takes no fraction and no bool, rather than rounding
    (["run", "--config", "{u_h_frac}"], "config key 'u_h': 30.5 is not an "
                                        "integer"),
    (["run", "--config", "{m_frac}"], "config key 'm': 4.7 is not an "
                                      "integer"),
    (["run", "--config", "{seed_frac}"], "config key 'base_seed': 1.9 is "
                                         "not an integer"),
    (["run", "--config", "{quality_frac}"], "config key 'quality': 2.5 is "
                                            "not an integer"),
    (["run", "--config", "{trials_bool}"], "config key 'trials': True is "
                                           "not an integer"),
    # run_experiment's checks before its first trial: an output path in a
    # directory that does not exist, a sweep point the config rejects
    (["run", "--trials", "1", "--out", "{absent}/x.csv"],
     "[Errno 2] No such file or directory: '{absent}/x.csv'"),
    (["run", "--config", "{three}", "--sweep", "delta"],
     "delta_deg > 0 needs exactly 5 users (the concentration shift is "
     "defined for five)"),
    (["audit", "--config", "{three}", "--sweep", "delta", "--out", "{m0}"],
     "delta_deg > 0 needs exactly 5 users (the concentration shift is "
     "defined for five)"),
    # oracle-check draws its own instances: it takes --seed and --trials
    # only, and refuses the run options rather than ignoring them
    (["oracle-check", "--sweep", "k"], "unrecognized arguments: --sweep k"),
    (["oracle-check", "--trials", "0"], "trials must be >= 1"),
    (["oracle-check", "--trials", "-3"], "trials must be >= 1"),
    # a negative seed is bad input (status 2), not an allocator miss (1)
    (["oracle-check", "--seed", "-1"], "seed must be >= 0"),
    # a JSON string or bool is no number, and a string no array
    (["run", "--config", "{ladder_str}"], "config key 'ladder' has the "
                                          "wrong type: '12345'"),
    (["run", "--config", "{beta_str}"], "config key 'beta' has the wrong "
                                        "type: '2'"),
    (["run", "--config", "{beta_bool}"], "config key 'beta' has the wrong "
                                         "type: True"),
    (["run", "--config", "{noise_bool}"], "config key 'noise_w' has the "
                                          "wrong type: True"),
    (["run", "--config", "{delta_bool}"], "config key 'delta_deg' has the "
                                          "wrong type: True"),
    (["run", "--config", "{margin_bool}"], "config key 'margin_deg' has the "
                                           "wrong type: True"),
    (["run", "--config", "{pitch_bool}"], "config key 'pitch_deg' has the "
                                          "wrong type: True"),
    (["run", "--config", "{bandwidth_str}"], "config key 'bandwidth_hz' has "
                                             "the wrong type: '39e3'"),
    (["run", "--config", "{schemes_str}"], "config key 'schemes' has the "
                                           "wrong type: 'proposed-dc'"),
], ids=["zero-trials", "unknown-scheme", "rejected-config", "missing-config",
        "missing-audit-file", "user-without-pitch", "yaw-400", "m-null",
        "ladder-int", "u_h-fraction", "m-fraction", "seed-fraction",
        "quality-fraction", "trials-bool",
        "missing-out-dir", "run-delta-sweep", "audit-delta-sweep",
        "oracle-check-sweep", "oracle-check-zero-trials",
        "oracle-check-negative-trials", "oracle-check-negative-seed",
        "ladder-string", "beta-string", "beta-bool", "noise_w-bool",
        "delta_deg-bool", "margin_deg-bool", "pitch-bool",
        "bandwidth-string", "schemes-string"])
def test_cli_reports_bad_input(tmp_path, capsys, monkeypatch, argv, message):
    # bad input ends with status 2 and one `tilecast: error:` line on
    # stderr, not a traceback, before any trial, and writes no results
    calls = []
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args, **kwargs: calls.append(args))
    configs = {"m0": {"m": 0},
               "no_pitch": {"users": [{"yaw_deg": 1}]},
               "yaw400": {"users": [{"yaw_deg": 400, "pitch_deg": 90,
                                     "quality": 1}]},
               "three": config_to_dict(three_viewer_config()),
               "m_null": {"m": None},
               "ladder5": {"ladder": 5},
               "u_h_frac": {"tiling": {"u_h": 30.5, "u_v": 15,
                                       "fov_h_deg": 100, "fov_v_deg": 100}},
               "m_frac": {"m": 4.7},
               "seed_frac": {"base_seed": 1.9},
               "quality_frac": {"users": [{"yaw_deg": 100, "pitch_deg": 90,
                                           "quality": 2.5}]},
               "trials_bool": {"trials": True},
               "ladder_str": {"ladder": "12345"},
               "beta_str": {"beta": "2"},
               "beta_bool": {"beta": True},
               "noise_bool": {"noise_w": True},
               "delta_bool": {"delta_deg": True},
               "margin_bool": {"tiling": {"u_h": 30, "u_v": 15,
                                          "fov_h_deg": 100, "fov_v_deg": 100,
                                          "margin_deg": True}},
               "pitch_bool": {"users": [{"yaw_deg": 100, "pitch_deg": True,
                                         "quality": 2}]},
               "bandwidth_str": {"bandwidth_hz": "39e3"},
               "schemes_str": {"schemes": "proposed-dc"}}
    paths = {"absent": str(tmp_path / "absent")}
    for name, raw in configs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] == "run" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"tilecast: error: {message.format(**paths)}\n" in err
    assert "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


def test_cli_oracle_check(capsys):
    assert cli_main(["oracle-check", "--trials", "5", "--seed", "3"]) == 0
    assert "worst relative gap" in capsys.readouterr().out


@pytest.mark.parametrize("excess, converged, code, line", [
    (1.01, True, 1, "exceeds 1e-3, converged=True"),
    (1.01, False, 0, "exceeds 1e-3, converged=False"),
    (1.0, False, 0, "but converged=False"),
])
def test_cli_oracle_check_fails_only_on_converged_miss(
        monkeypatch, capsys, excess, converged, code, line):
    # every plan is made `excess` times the optimum and flagged
    # `converged`; only a miss that claims convergence fails the check
    real = cli.solve_quoted_allocation

    def solve(*args):
        alloc = real(*args)
        return replace(alloc, power_sum=alloc.power_sum * excess,
                       converged=converged)

    monkeypatch.setattr(cli, "solve_quoted_allocation", solve)
    monkeypatch.setattr(cli, "brute_force_allocation", real)
    assert cli_main(["oracle-check", "--trials", "2", "--seed", "3"]) == code
    out = capsys.readouterr().out
    assert out.count(line) == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli_main([])
