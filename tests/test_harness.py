"""Experiment harness: configs, sweeps, pairing, CSV contract, CLI."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tilecast import (CSV_HEADER, SCHEMES, QualityLadder, ScenarioConfig,
                      TilingConfig, ViewDirection, config_from_dict,
                      config_to_dict, default_config, run_experiment,
                      run_trial, sweep_values)
from tilecast import harness
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
    cfg = tiny_config()
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


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
    text = run_experiment(tiny_config(), out_path=str(out))
    assert out.read_bytes().decode("utf-8") == text


def test_nan_trials_kept_in_rows_skipped_in_mean():
    cfg = tiny_config(n_sc=1, schemes=("baseline1-unicast",))
    text = run_experiment(cfg)
    lines = text.splitlines()
    data = [l for l in lines[1:] if ",mean," not in l and ",stderr," not in l]
    assert all(l.split(",")[5] == "nan" for l in data)
    mean_row = next(l for l in lines if ",mean," in l)
    assert mean_row.split(",")[5] == "nan"


def test_strict_mode_drops_flagged_trials():
    cfg = three_viewer_config(schemes=("proposed-asymptotic", "proposed-dc"))
    loose = run_experiment(cfg)
    strict = run_experiment(cfg, strict=True)

    def mean_of(text, scheme):
        row = next(l for l in text.splitlines()
                   if l.startswith(scheme) and ",mean," in l)
        return row.split(",")[5]

    # the dual gap on this crowded scenario stays honest: the quoted-
    # allocation scheme reports non-convergence on every trial, the
    # outer-loop planner converges; strict averaging blanks the former only
    assert mean_of(loose, "proposed-asymptotic") != "nan"
    assert mean_of(strict, "proposed-asymptotic") == "nan"
    assert mean_of(strict, "proposed-dc") == mean_of(loose, "proposed-dc")
    assert mean_of(strict, "proposed-dc") != "nan"

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


def test_cli_oracle_check(capsys):
    assert cli_main(["oracle-check", "--trials", "5", "--seed", "3"]) == 0
    assert "worst relative gap" in capsys.readouterr().out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli_main([])
