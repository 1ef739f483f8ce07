"""End-to-end command-line tests, run in process through cli.main."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from swiptfl import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = """\
master_seed: 3
device_count: 3
monte_carlo_trials: 2
rounds: 2
placement_trials: 4
"""


def write_config(tmp_path, text=BASE_CONFIG, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return cli.main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_missing_config_exits_2(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "mystery_knob: 1\n")
    code = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"])
    assert code == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_bad_overrides_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o")
    assert run_cli(["run", "--config", cfg, "--out", out, "--override", "no_such=1"]) == 2
    assert run_cli(["run", "--config", cfg, "--out", out, "--override", "rounds=1.5"]) == 2
    assert run_cli(["run", "--config", cfg, "--out", out, "--override", "justtext"]) == 2
    capsys.readouterr()


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = run_cli(["run", "--config", cfg, "--out", str(out), "--workers", "1"])
    assert code == 0
    assert "ran 2 trials" in capsys.readouterr().out

    rows = read_rows(out / "rounds.csv")
    assert rows[0] == cli.ROUNDS_COLUMNS
    assert len(rows) == 1 + 2 * 2  # header + trials * rounds
    trial_col = [r[0] for r in rows[1:]]
    assert trial_col == ["0", "0", "1", "1"]

    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 2
    assert summary["failed_trials"] == 0
    assert len(summary["uav_position"]) == 3

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "swiptfl"
    assert manifest["command"] == "run"
    assert manifest["master_seed"] == 3
    assert manifest["outputs"] == ["rounds.csv", "summary.json"]
    assert manifest["config"]["device_count"] == 3
    assert manifest["version"]


def test_run_is_byte_identical_and_seed_sensitive(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outs = [tmp_path / f"o{i}" for i in range(3)]
    assert run_cli(["run", "--config", cfg, "--out", str(outs[0]), "--workers", "1"]) == 0
    assert run_cli(["run", "--config", cfg, "--out", str(outs[1]), "--workers", "1"]) == 0
    assert run_cli(
        ["run", "--config", cfg, "--out", str(outs[2]), "--workers", "1", "--seed", "9"]
    ) == 0
    capsys.readouterr()

    first = (outs[0] / "rounds.csv").read_bytes()
    assert first == (outs[1] / "rounds.csv").read_bytes()
    assert first != (outs[2] / "rounds.csv").read_bytes()


def leaf_paths_that_differ(a, b, prefix=""):
    diffs = set()
    for key in a:
        path = f"{prefix}{key}"
        if isinstance(a[key], dict):
            diffs |= leaf_paths_that_differ(a[key], b[key], path + ".")
        elif a[key] != b[key]:
            diffs.add(path)
    return diffs


def test_override_touches_exactly_one_config_field(tmp_path, capsys):
    cfg = write_config(tmp_path)
    base_out, mod_out = tmp_path / "base", tmp_path / "mod"
    assert run_cli(["run", "--config", cfg, "--out", str(base_out), "--workers", "1"]) == 0
    assert run_cli(
        [
            "run",
            "--config",
            cfg,
            "--out",
            str(mod_out),
            "--workers",
            "1",
            "--override",
            "link.ptx_dl_w=5.0",
        ]
    ) == 0
    capsys.readouterr()

    base = json.loads((base_out / "manifest.json").read_text())["config"]
    mod = json.loads((mod_out / "manifest.json").read_text())["config"]
    assert leaf_paths_that_differ(base, mod) == {"link.ptx_dl_w"}
    assert mod["link"]["ptx_dl_w"] == 5.0


def test_dbm_powers_are_stored_as_watts(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE_CONFIG
        + """\
link:
  pathloss_exponent: 2.7
  bandwidth_hz: 1.0e+6
  noise_power_ul_w: -100 dBm
  noise_power_dl_w: 1.0e-13
  ptx_ul_w: 20 dBm
  ptx_dl_w: 1.0
""",
    )
    out = tmp_path / "o"
    code = run_cli(
        [
            "run",
            "--config",
            cfg,
            "--out",
            str(out),
            "--workers",
            "1",
            "--override",
            "link.ptx_dl_w=30 dBm",
        ]
    )
    assert code == 0
    capsys.readouterr()
    link = json.loads((out / "manifest.json").read_text())["config"]["link"]
    assert link["ptx_ul_w"] == pytest.approx(0.1, rel=1e-12)
    assert link["noise_power_ul_w"] == pytest.approx(1e-13, rel=1e-12)
    assert link["ptx_dl_w"] == pytest.approx(1.0, rel=1e-12)


def test_manifest_replay_reproduces_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(
        ["run", "--config", cfg, "--out", str(first), "--workers", "1", "--seed", "5"]
    ) == 0
    assert run_cli(
        ["run", "--config", str(first / "manifest.json"), "--out", str(second), "--workers", "1"]
    ) == 0
    capsys.readouterr()
    assert (first / "rounds.csv").read_bytes() == (second / "rounds.csv").read_bytes()
    replay = json.loads((second / "manifest.json").read_text())
    assert replay["master_seed"] == 5


def test_sweep_writes_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = run_cli(
        [
            "sweep",
            "--config",
            cfg,
            "--out",
            str(out),
            "--workers",
            "1",
            "--param",
            "link.ptx_dl_w",
            "--values",
            "0.5,2.0",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count("mean delay") == 2
    rows = read_rows(out / "sweep.csv")
    assert rows[0] == cli.SWEEP_COLUMNS
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0.5", "2.0"]


def test_accuracy_curve_writes_per_round_metrics(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = run_cli(["accuracy-curve", "--config", cfg, "--out", str(out), "--workers", "1"])
    assert code == 0
    capsys.readouterr()
    rows = read_rows(out / "accuracy.csv")
    assert rows[0] == ["round", "mean_test_metric", "std"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]


def test_select_rounds_picks_a_candidate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = run_cli(
        ["select-rounds", "--config", cfg, "--out", str(out), "--candidates", "1,2", "--workers", "1"]
    )
    assert code == 0
    assert "chosen rounds:" in capsys.readouterr().out
    chosen = json.loads((out / "selection.json").read_text())
    assert chosen["best_rounds"] in (1, 2)
    rows = read_rows(out / "selection.csv")
    assert rows[0] == ["rounds", "val_metric"]
    assert len(rows) == 3

    code = run_cli(
        ["select-rounds", "--config", cfg, "--out", str(out), "--candidates", "2,1", "--workers", "1"]
    )
    assert code == 2
    capsys.readouterr()


def test_optimize_delta_writes_per_device_ratios(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = run_cli(["optimize-delta", "--config", cfg, "--out", str(out), "--workers", "1"])
    assert code == 0
    assert "solved ratios via" in capsys.readouterr().out
    rows = read_rows(out / "deltas.csv")
    assert rows[0] == ["device", "delta", "feasible", "t_downlink_s"]
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        assert 0.0 < float(row[1]) < 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["delta_mode"] == "optimized"


def test_place_uav_reports_position(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "placement_mode: grid_search\nplacement_grid_points: 3\n")
    out = tmp_path / "o"
    code = run_cli(["place-uav", "--config", cfg, "--out", str(out), "--workers", "1"])
    assert code == 0
    assert "uav at (" in capsys.readouterr().out
    placement = json.loads((out / "placement.json").read_text())
    assert placement["mode"] == "grid_search"
    x, y, z = placement["position"]
    assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0 and z == 20.0
    assert placement["objective_s"] > 0.0


def test_diverging_run_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = run_cli(
        [
            "run",
            "--config",
            cfg,
            "--out",
            str(out),
            "--workers",
            "1",
            "--override",
            "trainer.learning_rate=1e200",
        ]
    )
    assert code == 3
    assert "failed" in capsys.readouterr().err


def test_out_dir_env_default(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    target = tmp_path / "from-env"
    monkeypatch.setenv("SWIPTFL_OUT", str(target))
    code = run_cli(["run", "--config", cfg, "--workers", "1"])
    assert code == 0
    capsys.readouterr()
    assert (target / "rounds.csv").exists()

def test_workers_default_keeps_the_config_value():
    path = str(CONFIGS / "default.yaml")
    args = cli.build_parser().parse_args(["run", "--config", path])
    assert cli._apply_cli_options(cli.load_config(path), args).workers == 1
    args = cli.build_parser().parse_args(["run", "--config", path, "--workers", "2"])
    assert cli._apply_cli_options(cli.load_config(path), args).workers == 2


# sha256 of rounds.csv for each shipped config at 3 trials x 4 rounds. A
# change here changes results bit for bit: make it on purpose and record it.
GOLDEN_ROUNDS_SHA256 = {
    "default.yaml": "7feea2a3c3d679c4139ab8ea52d632d6781730dc622e71bb224f957d2ee638ec",
    "accuracy.yaml": "daa2571a533ea5cad19c52160eb6fabc32c514eb5794fbac2200fb1805116a68",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROUNDS_SHA256))
def test_shipped_config_rounds_match_golden_hash(tmp_path, capsys, name):
    out = tmp_path / "o"
    args = ["run", "--config", str(CONFIGS / name), "--out", str(out), "--workers", "1"]
    small = ["--override", "monte_carlo_trials=3", "--override", "rounds=4"]
    assert run_cli(args + small) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_ROUNDS_SHA256[name]
