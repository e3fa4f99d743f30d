"""Experiment harness: configs, sweeps, pairing, CSV contract, CLI."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tilecast
from tilecast import (CSV_HEADER, SCHEMES, QualityLadder, ScenarioConfig,
                      TilingConfig, ViewDirection, config_from_dict,
                      config_to_dict, default_config, run_experiment,
                      run_trial, sweep_values)
from tilecast import cli, harness
from tilecast.cli import main as cli_main
from tilecast.harness import (SWEEP_M_VALUES, UserSpec, _subset_for_trial,
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
    # a per-user beta goes through JSON as a list and comes back a tuple
    for beta in (1.0, (1.0, 0.25)):
        cfg = tiny_config(beta=beta)
        raw = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(raw) == cfg


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
            sub = _subset_for_trial(cfg, t, k)
            assert len(sub) == k
            assert sub == sorted(sub)
            assert prev <= set(sub)
            prev = set(sub)
        assert _subset_for_trial(cfg, t, 3) == _subset_for_trial(cfg, t, 3)
    assert _subset_for_trial(cfg, 0, 5) == [0, 1, 2, 3, 4]


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


def test_nan_trials_kept_in_rows_skipped_in_mean():
    cfg = tiny_config(n_sc=1, schemes=("baseline1-unicast",))
    text = run_experiment(cfg)
    lines = text.splitlines()
    data = [l for l in lines[1:] if ",mean," not in l and ",stderr," not in l]
    assert all(l.split(",")[5] == "nan" for l in data)
    mean_row = next(l for l in lines if ",mean," in l)
    assert mean_row.split(",")[5] == "nan"


def test_strict_mode_drops_flagged_trials():
    def mean_of(text, scheme):
        row = next(l for l in text.splitlines()
                   if l.startswith(scheme) and ",mean," in l)
        return row.split(",")[5]

    # the dual gap on this crowded scenario stays honest: both schemes
    # allocate by the dual and report non-convergence on every trial, so
    # strict averaging blanks both
    cfg = three_viewer_config(schemes=("proposed-asymptotic", "proposed-dc"))
    loose = run_experiment(cfg)
    strict = run_experiment(cfg, strict=True)
    for scheme in cfg.schemes:
        assert mean_of(loose, scheme) != "nan"
        assert mean_of(strict, scheme) == "nan"

    # two viewers of one viewport share one message, so the allocator
    # enumerates every assignment, the gap is 0 and strict keeps the rows
    small = tiny_config(schemes=("proposed-dc",),
                        users=[UserSpec(ViewDirection(100.0, 90.0), 2),
                               UserSpec(ViewDirection(100.0, 90.0), 2)])
    kept = run_experiment(small, strict=True)
    assert mean_of(kept, "proposed-dc") == mean_of(run_experiment(small),
                                                   "proposed-dc")
    assert mean_of(kept, "proposed-dc") != "nan"

    # per-trial data rows are unaffected by strictness
    keep = [l for l in loose.splitlines() if ",mean," not in l
            and ",stderr," not in l]
    keep_s = [l for l in strict.splitlines() if ",mean," not in l
              and ",stderr," not in l]
    assert keep == keep_s


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


def test_cli_run_counts_failed_and_unconverged_trials(tmp_path, capsys):
    # two subcarriers cannot carry the multicast scheme's messages, so its
    # trial fails; the unicast trial is planned
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(tiny_config(n_sc=2, trials=1))))
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
], ids=["zero-trials", "unknown-scheme", "rejected-config", "missing-config",
        "missing-audit-file", "user-without-pitch", "yaw-400",
        "missing-out-dir", "run-delta-sweep", "audit-delta-sweep",
        "oracle-check-sweep", "oracle-check-zero-trials",
        "oracle-check-negative-trials"])
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
               "three": config_to_dict(three_viewer_config())}
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
        alloc.power_sum *= excess
        alloc.converged = converged
        return alloc

    monkeypatch.setattr(cli, "solve_quoted_allocation", solve)
    monkeypatch.setattr(cli, "brute_force_allocation", real)
    assert cli_main(["oracle-check", "--trials", "2", "--seed", "3"]) == code
    out = capsys.readouterr().out
    assert out.count(line) == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli_main([])
