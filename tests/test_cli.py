"""End-to-end command-line tests, run in process through cli.main."""

import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import typing
import warnings
from dataclasses import asdict, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
import yaml

from swiptfl import cli
from swiptfl import config as config_module
from swiptfl import scenario as scenario_module
from swiptfl.channel import ChannelRealization
from swiptfl.config import ConfigError, ScenarioConfig

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
    # Optional fields follow their declared type, not whatever their value is.
    for text, message in [
        ("trainer.batch_size=2.5", "trainer.batch_size expects an int, got 2.5"),
        ("payload_bits=true", "payload_bits expects a number, got True"),
        # A section takes a mapping and nothing else.
        ("link=5", "link expects a mapping, got 5"),
        ("trainer=null", "trainer expects a mapping, got None"),
    ]:
        assert run_cli(["run", "--config", cfg, "--out", out, "--override", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "override, named",
    [
        ("mystery_knob=1", "'mystery_knob'"),
        ("link.mystery_knob=1", "'link.mystery_knob'"),
        ("rounds=1.5", "rounds expects an int"),
        ("link=5", "link expects a mapping"),
        ("link.ptx_dl_w=-1", "LinkParams.ptx_dl_w must be > 0"),
        ("area_bounds=[0,.inf,0,100]", "ScenarioConfig.area_bounds must be finite"),
        ("area_bounds=[0,null,0,100]", "area_bounds[1] expects a number, got None"),
        ("area_bounds=[0,[1],0,100]", "area_bounds[1] expects a number, got [1]"),
        ("area_bounds=[0,true,0,100]", "area_bounds[1] expects a number, got True"),
    ],
)
def test_merge_rejections_are_config_errors_naming_the_field(tmp_path, capsys, override, named):
    """merge raises ConfigError for an unknown key, a leaf of the wrong type,
    a section given a non-mapping and a value a config class refuses, tuple
    entries included, and its message names the field; the command line
    exits 2 with that one error line and writes nothing."""
    path, _, text = override.partition("=")
    with pytest.raises(ConfigError) as err:
        config_module.merge(ScenarioConfig(), {path: yaml.safe_load(text)})
    assert named in str(err.value)
    out = tmp_path / "o"
    args = ["run", "--config", write_config(tmp_path), "--out", str(out), "--override", override]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not out.exists()


def test_yaml_leaves_follow_the_override_type_rule(tmp_path, capsys):
    """A config file value is typed exactly as the same --override would be."""
    out = str(tmp_path / "o")
    trainer = "trainer:\n  learning_rate: 0.1\n  batch_size: {}\n"
    cases = [
        (
            BASE_CONFIG.replace("rounds: 2\n", "rounds: 2.5\n"),
            "rounds=2.5",
            "rounds expects an int, got 2.5",
        ),
        (
            BASE_CONFIG + "payload_bits: abc\n",
            "payload_bits=abc",
            "payload_bits expects a number, got 'abc'",
        ),
        (
            BASE_CONFIG + trainer.format("2.5"),
            "trainer.batch_size=2.5",
            "trainer.batch_size expects an int, got 2.5",
        ),
        # dBm is read only by power fields (names ending in _w).
        (
            BASE_CONFIG + "link:\n  bandwidth_hz: 20 dBm\n",
            "link.bandwidth_hz=20 dBm",
            "link.bandwidth_hz expects a number, got '20 dBm'",
        ),
    ]
    for text, override, message in cases:
        in_file = write_config(tmp_path, text, "a.yaml")
        overridden = ["--config", write_config(tmp_path), "--override", override]
        for args in (["--config", in_file], overridden):
            assert run_cli(["run", "--out", out, *args]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    whole = BASE_CONFIG.replace("device_count: 3\n", "device_count: 3.0\n")
    cfg = write_config(tmp_path, whole, "b.yaml")
    assert run_cli(["run", "--config", cfg, "--out", out, "--workers", "1"]) == 0
    capsys.readouterr()
    config = cli.load_config(cfg)
    assert config.device_count == 3 and isinstance(config.device_count, int)

    optional = BASE_CONFIG + "payload_bits: null\n" + trainer.format("3.0")
    config = cli.load_config(write_config(tmp_path, optional, "c.yaml"))
    assert config.payload_bits is None
    assert config.trainer.batch_size == 3 and isinstance(config.trainer.batch_size, int)


def test_libyaml_loader_reads_configs_as_the_python_loader_does(tmp_path, capsys):
    """The CLI parses with libyaml's loader where it exists; it must give
    the same mapping as the pure-Python SafeLoader on the shipped configs
    and on a manifest."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    assert config_module._YAML_LOADER is yaml.CSafeLoader
    out = tmp_path / "o"
    assert run_cli(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    paths = [CONFIGS / "default.yaml", CONFIGS / "accuracy.yaml", out / "manifest.json"]
    for path in paths:
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert isinstance(fast, dict) and fast
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)


def test_malformed_yaml_exits_2(tmp_path, capsys):
    """A YAML parse error in a file, an override or --values is one line
    naming the problem and where it lies."""
    out = str(tmp_path / "o")
    cfg = write_config(tmp_path, BASE_CONFIG + "rounds: [1, 2\n", "broken.yaml")
    good = write_config(tmp_path)
    sweep = ["sweep", "--config", good, "--out", out, "--param", "area_bounds"]
    for args, prefix in [
        (["run", "--config", cfg, "--out", out], f"error: cannot parse config {cfg}: "),
        (
            ["run", "--config", good, "--out", out, "--override", "rounds=[1"],
            "error: cannot parse override value '[1': ",
        ),
        ([*sweep, "--values", "[0, 50"], "error: cannot parse --values '[0, 50': "),
    ]:
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert ", column " in err


@pytest.mark.parametrize(
    "text, error",
    [("", None), ("- 1\n- 2\n", "config root must be a mapping")],
    ids=["empty", "list-root"],
)
def test_config_file_without_a_mapping(tmp_path, text, error):
    """A config file with no document gives the defaults; any other root
    that is not a mapping is a ConfigError."""
    path = write_config(tmp_path, text)
    if error is None:
        assert cli.load_config(path) == ScenarioConfig()
    else:
        with pytest.raises(ConfigError, match=error):
            cli.load_config(path)


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
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["workers"] == 1


def test_manifest_records_the_effective_worker_count(tmp_path, capsys):
    # Never more workers than trials: the config's two trials run in two blocks.
    out = tmp_path / "o"
    assert run_cli(["place-uav", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["workers"] == 1
    args = ["place-uav", "--config", write_config(tmp_path), "--out", str(out), "--workers", "5"]
    assert run_cli(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["workers"] == 5
    assert manifest["workers"] == 2
    capsys.readouterr()


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
    """A leaf override, or a section override that merges one field. The
    local iteration count is one field, compute.local_iters."""
    cfg = write_config(tmp_path)
    base_out, mod_out = tmp_path / "base", tmp_path / "mod"
    assert run_cli(["run", "--config", cfg, "--out", str(base_out), "--workers", "1"]) == 0
    base = json.loads((base_out / "manifest.json").read_text())["config"]
    for override in ("link.ptx_dl_w=5.0", "link={ptx_dl_w: 5.0}"):
        args = ["run", "--config", cfg, "--out", str(mod_out), "--workers", "1"]
        assert run_cli([*args, "--override", override]) == 0
        mod = json.loads((mod_out / "manifest.json").read_text())["config"]
        assert leaf_paths_that_differ(base, mod) == {"link.ptx_dl_w"}
        assert mod["link"]["ptx_dl_w"] == 5.0
    iters = ["--override", "compute.local_iters=3"]
    assert run_cli(["run", "--config", cfg, "--out", str(mod_out), "--workers", "1", *iters]) == 0
    mod = json.loads((mod_out / "manifest.json").read_text())["config"]
    assert leaf_paths_that_differ(base, mod) == {"compute.local_iters"}
    assert mod["compute"]["local_iters"] == 3 and "local_iters" not in mod["trainer"]
    capsys.readouterr()


def test_dbm_powers_are_stored_as_watts(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        BASE_CONFIG
        + """\
link:
  bandwidth_hz: 1.0e6
  noise_power_ul_w: -100 dBm
  ptx_ul_w: 20 dBm
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
    # The fields the section leaves out keep their defaults; 1.0e6 is numeric text to YAML.
    default = ScenarioConfig().link
    for name in ("pathloss_exponent", "noise_power_dl_w"):
        assert link[name] == getattr(default, name)
    assert link["bandwidth_hz"] == 1e6


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


def test_manifest_of_an_earlier_version_replays_to_its_config():
    """A manifest written by an earlier version of the CLI, which built each
    section whole and held the local iteration count in the trainer too,
    replays to exactly the config it records, less trainer.local_iters:
    accuracy.yaml with the overrides below."""
    path = Path(__file__).resolve().parent / "data" / "earlier_manifest.json"
    config = cli.load_config(str(path))
    recorded = json.loads(path.read_text())["config"]
    assert recorded["trainer"].pop("local_iters") == config.compute.local_iters
    assert json.dumps(asdict(config), sort_keys=True) == json.dumps(recorded, sort_keys=True)
    expected = cli.load_config(str(CONFIGS / "accuracy.yaml"))
    for override, value in [
        ("master_seed", 11),
        ("monte_carlo_trials", 2),
        ("rounds", 2),
        ("link.ptx_ul_w", "20 dBm"),
        ("trainer.batch_size", 4),
        ("payload_bits", 512),
        ("delta_mode", "optimized"),
        ("battery_ledger", True),
        ("battery_initial_j", 1e-4),
        ("area_bounds", [0, 80, 0, 60]),
    ]:
        expected = config_module.with_override(expected, override, value)
    assert config == expected


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("Configs are YAML mirroring `ScenarioConfig`", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = write_config(tmp_path, example, "readme.yaml")
    args = ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
    assert run_cli([*args, "--override", "monte_carlo_trials=2", "--override", "rounds=2"]) == 0
    assert "ran 2 trials x 2 rounds" in capsys.readouterr().out


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
    assert rows[0] == list(cli.SWEEP_COLUMNS.values())
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0.5", "2.0"]

    # --values holds YAML flow items, so a list field sweeps too.
    args = ["sweep", "--config", cfg, "--out", str(out), "--workers", "1", "--param", "area_bounds"]
    assert run_cli([*args, "--values", "[0, 50, 0, 50],[0,80,0,80]"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert rows[0] == list(cli.SWEEP_COLUMNS.values())
    assert [r[0] for r in rows[1:]] == ["(0.0, 50.0, 0.0, 50.0)", "(0.0, 80.0, 0.0, 80.0)"]
    capsys.readouterr()


def test_sweep_of_the_local_iteration_count(tmp_path, capsys):
    """The local iteration count is one field, so it sweeps as one path."""
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    args = ["sweep", "--config", cfg, "--out", str(out), "--workers", "1", "--values", "1,3"]
    assert run_cli([*args, "--param", "compute.local_iters"]) == 0
    assert "compute.local_iters=3: mean delay" in capsys.readouterr().out
    rows = read_rows(out / "sweep.csv")
    assert [r[0] for r in rows[1:]] == ["1", "3"]
    # Each compute iteration adds local training time, so the delay grows.
    assert float(rows[2][1]) > float(rows[1][1])


def test_sweep_of_a_section(tmp_path, capsys):
    """A section sweeps as its override does: each item merges into the
    section, one row per item, and the row's value is each field the item
    names, as merged, in the item's order, in the cell and on stdout.
    An item the section rejects exits 2 with one line and writes nothing."""
    cfg = write_config(tmp_path)
    for param, values, merged in [
        ("link", "{ptx_dl_w: 1},{ptx_dl_w: 2}", ["{'ptx_dl_w': 1.0}", "{'ptx_dl_w': 2.0}"]),
        ("link", "{ptx_dl_w: 20 dBm, ptx_ul_w: 1}", ["{'ptx_dl_w': 0.1, 'ptx_ul_w': 1.0}"]),
        ("harvest", "{a2: 0.4, a1: 0.2}", ["{'a2': 0.4, 'a1': 0.2}"]),
    ]:
        out = tmp_path / param
        args = ["sweep", "--config", cfg, "--out", str(out), "--workers", "1", "--param", param]
        assert run_cli([*args, "--values", values]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        points = [line.partition(": mean delay")[0] for line in captured.out.splitlines()]
        assert points == [f"{param}={cell}" for cell in merged]
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == list(cli.SWEEP_COLUMNS.values())
        assert [row[0] for row in rows[1:]] == merged

    out = tmp_path / "rejected"
    args = ["sweep", "--config", cfg, "--out", str(out), "--param", "link"]
    assert run_cli([*args, "--values", "{no_such: 1}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "no_such" in err
    assert not out.exists()


def test_reported_names_follow_the_statistics_table(tmp_path, capsys):
    """summary.json holds every scalar entry of scenario.statistics, under
    the CLI's renames, plus the run's own keys; a sweep row holds
    param_value plus the same entries. So a new entry reaches both."""
    cfg = write_config(tmp_path)
    config = cli.load_config(cfg)
    result = scenario_module.run_monte_carlo(config)
    table = scenario_module.statistics(result.record)
    scalars = {name: v for name, v in table.items() if np.ndim(v) == 0}
    assert result.scalars() == scalars and list(result.scalars()) == list(scalars)

    out = tmp_path / "run"
    assert run_cli(["run", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    own = ["trials", "rounds", "final_round_metric_mean", "final_round_metric_std", "uav_position"]
    assert sorted(summary) == sorted([*(cli.SUMMARY_NAMES.get(n, n) for n in scalars), *own])
    for name, value in scalars.items():
        assert summary[cli.SUMMARY_NAMES.get(name, name)] == value

    (row,) = scenario_module.sweep(config, "rounds", [config.rounds])
    assert list(row) == ["param_value", *scalars]
    assert {name: row[name] for name in scalars} == scalars
    assert set(cli.SWEEP_COLUMNS) <= set(row)

def test_zero_local_iterations_run_and_train_nothing(tmp_path, capsys, monkeypatch):
    """compute.local_iters=0 is a run: no local time, and every model the
    run trains is the initial model up to the rounding of the average."""
    trained = []
    real_run_round = scenario_module.run_round

    def run_round(models, *args):
        step = real_run_round(models, *args)
        trained.append(step.models)
        return step

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    config = str(CONFIGS / "default.yaml")
    args = ["run", "--config", config, "--out", str(tmp_path), "--override", "monte_carlo_trials=3"]
    assert run_cli([*args, "--override", "compute.local_iters=0"]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all(np.isfinite(summary[k]) for k in ("delay_mean_s", "outage_rate"))
    assert summary["failed_trials"] == 0
    rows = read_rows(tmp_path / "rounds.csv")
    local = rows[0].index("t_local_max_s")
    assert {row[local] for row in rows[1:]} == {"0.0"}
    w0 = scenario_module.build(cli.load_config(config)).w0
    assert len(trained) == 5  # default.yaml's rounds, one block
    for models in trained:
        np.testing.assert_allclose(models, np.tile(w0, (3, 1)), rtol=1e-15, atol=0)


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



@pytest.mark.parametrize("candidates", ["2,1", "0,1", "1.5", ""])
def test_select_rounds_rejects_bad_candidates(tmp_path, capsys, candidates):
    out = tmp_path / "o"
    args = ["select-rounds", "--config", write_config(tmp_path), "--out", str(out)]
    assert run_cli([*args, "--candidates", candidates]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --candidates") and err.count("\n") == 1
    assert not out.exists()


def test_select_rounds_reads_the_monte_carlo_record(tmp_path, capsys):
    """select-rounds trains through run_monte_carlo alone: on the contested
    battery regime, where participation differs by trial, each candidate's
    val metric is its round's mean over the trials, bit for bit, and the
    test metric is metric_mean at the chosen budget, at any worker count.
    The manifest records the budgets that ran and replays them."""
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / workers
        args = ["select-rounds", "--config", str(CONFIGS / "default.yaml"), "--workers", workers]
        for text in CONTESTED:
            args += ["--override", text]
        assert run_cli([*args, "--candidates", "2,4,7", "--out", str(outs[workers])]) == 0
    capsys.readouterr()
    csv_bytes = (outs["1"] / "selection.csv").read_bytes()
    assert csv_bytes == (outs["2"] / "selection.csv").read_bytes()
    assert (outs["1"] / "selection.json").read_bytes() == (outs["2"] / "selection.json").read_bytes()

    config = cli.load_config(str(outs["1"] / "manifest.json"))
    assert config.rounds == 7 and config.battery_ledger
    result = scenario_module.run_monte_carlo(replace(config, workers=1))
    assert result.n_failed == 0
    val = result.record["val_metric"]
    assert (val.min(axis=0) < val.max(axis=0)).any()  # the trials' trajectories differ
    means = val.T.copy().mean(axis=1).tolist()
    rows = read_rows(outs["1"] / "selection.csv")
    assert rows == [["rounds", "val_metric"], *([str(r), repr(means[r - 1])] for r in (2, 4, 7))]
    chosen = json.loads((outs["1"] / "selection.json").read_text())
    assert chosen["test_metric"] == result.metric_mean[chosen["best_rounds"] - 1]

    replay = tmp_path / "replay"
    args = ["select-rounds", "--config", str(outs["1"] / "manifest.json"), "--out", str(replay)]
    assert run_cli([*args, "--candidates", "2,4,7"]) == 0
    assert (replay / "selection.csv").read_bytes() == csv_bytes


def test_select_rounds_on_a_diverged_trajectory_exits_3(tmp_path, capsys):
    """At a learning rate of 1e30 every trial's train loss overflows in its
    third round: with no trial left to average, select-rounds names trial
    0's error in one ``numeric failure:`` line and exits 3 instead of
    choosing a budget."""
    args = ["select-rounds", "--config", str(CONFIGS / "default.yaml"), "--out", str(tmp_path)]
    args += ["--override", "trainer.learning_rate=1e30", "--candidates", "1,2,3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: every trial failed; trial 0: non-finite train loss in round 2\n"
    )
    assert not (tmp_path / "selection.csv").exists()


def test_select_rounds_averages_the_trials_that_did_not_fail(tmp_path, capsys, monkeypatch):
    """A test metric that overflows in trial 0's first round stops trial 0;
    select-rounds averages the other trials, says how many failed and exits 3."""
    config = cli.load_config(str(CONFIGS / "default.yaml"))
    config = replace(config, monte_carlo_trials=4, workers=1, rounds=3)
    clean = scenario_module.run_monte_carlo(config).record
    real_metric, seen = scenario_module.evaluate_metric, []

    def first_test_score_overflows(models, data, task):
        scores = real_metric(models, data, task)
        if data.count == config.data.test_samples and not seen:
            seen.append(True)
            scores[0] = np.inf  # round 0 of trial 0, the first row of the first pass
        return scores

    monkeypatch.setattr(scenario_module, "evaluate_metric", first_test_score_overflows)
    out = tmp_path / "o"
    args = ["select-rounds", "--config", str(CONFIGS / "default.yaml"), "--out", str(out)]
    args += ["--override", "monte_carlo_trials=4", "--workers", "1", "--candidates", "1,3"]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err == "1 trials failed\n"
    assert captured.out.startswith("chosen rounds: ")
    val = clean["val_metric"][1:].T.copy().mean(axis=1).tolist()
    rows = read_rows(out / "selection.csv")
    assert rows == [["rounds", "val_metric"], ["1", repr(val[0])], ["3", repr(val[2])]]
    test = clean["test_metric"][1:].T.copy().mean(axis=1)
    chosen = json.loads((out / "selection.json").read_text())
    assert chosen["test_metric"] == test[chosen["best_rounds"] - 1]


# The contested regime of one optimize-delta round, as the CI smoke step runs it.
CONTESTED_DELTA = (
    "device_count=12",
    "device_pays_downlink=false",
    "link.ptx_ul_w=1e-3",
    "compute.kappa=1e-31",
)


# The sha256 of deltas.csv per solver path pins every device's ratio, flag and
# downlink time through the CLI; the grid case is the one golden of the dense scan.
@pytest.mark.parametrize(
    "dip, method, golden",
    [
        (
            [],
            "bisection",
            "9b509711d2b8b4d5125a1dcf02d32fdac694129d566c4f8f42c16ffaef1c36b7",
        ),
        (
            ["harvest.a2=-0.1", "harvest.a3=0.003"],
            "grid",
            "efe483c34610d4ee740293eaacef5f1bb2896aebee6372a426ec90a28c96b96f",
        ),
    ],
    ids=["bisection", "grid"],
)
def test_optimize_delta_writes_per_device_ratios(tmp_path, capsys, dip, method, golden):
    """In the contested regime the printed label and round delay are those
    of the link round on the same draw; a dipping harvest curve is scanned."""
    out = tmp_path / "o"
    args = ["optimize-delta", "--config", str(CONFIGS / "default.yaml"), "--out", str(out)]
    for override in (*CONTESTED_DELTA, *dip):
        args += ["--override", override]
    assert run_cli([*args, "--workers", "1"]) == 0
    config = cli.load_config(str(out / "manifest.json"))
    assert config.delta_mode == "optimized"
    scenario = scenario_module.build(config)
    draw = ("trial", 0, "fading", 0)
    gains = scenario_module.fading_draws(config.master_seed, draw, config.device_count)
    rnd = scenario_module.link_round(config, ChannelRealization(gains, scenario.distances_m))
    assert rnd.grid.any() == (method == "grid")
    printed = capsys.readouterr().out
    assert printed == f"solved ratios via {method}: round delay {rnd.delay():.6g} s\n"
    rows = read_rows(out / "deltas.csv")
    assert rows[0] == ["device", "delta", "feasible", "t_downlink_s"]
    assert len(rows) == 1 + 12
    assert [float(row[1]) for row in rows[1:]] == rnd.deltas.tolist()
    for row in rows[1:]:
        assert 0.0 < float(row[1]) < 1.0
    assert hashlib.sha256((out / "deltas.csv").read_bytes()).hexdigest() == golden


# Grid-search placements of the shipped configs, recorded when every
# candidate and fading draw was its own 1-D link round. The batched
# objective must reproduce them bit for bit.
PLACEMENT_CHARACTERIZATIONS = [
    ("accuracy.yaml", [], [75.0, 0.0, 20.0], 0.09766661570129095),
    (
        "default.yaml",
        [
            "delta_mode=optimized",
            "device_pays_downlink=false",
            "link.ptx_ul_w=1.0e-3",
            "compute.kappa=1.0e-31",
        ],
        [37.5, 37.5, 20.0],
        21.080334250757602,
    ),
]


def test_place_uav_reports_position(tmp_path, capsys, monkeypatch):
    uplink_calls = []
    uplink_budget = scenario_module.uplink_budget

    def counted_uplink_budget(*args, **kwargs):
        uplink_calls.append(args)
        return uplink_budget(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "uplink_budget", counted_uplink_budget)
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
    assert len(uplink_calls) == 1  # every candidate in one link round

    for name, overrides, position, objective in PLACEMENT_CHARACTERIZATIONS:
        uplink_calls.clear()
        out = tmp_path / name
        args = ["place-uav", "--config", str(CONFIGS / name), "--out", str(out), "--workers", "1"]
        for text in ["placement_mode=grid_search", *overrides]:
            args += ["--override", text]
        assert run_cli(args) == 0
        placement = json.loads((out / "placement.json").read_text())
        assert placement["position"] == position
        assert placement["objective_s"] == objective
        assert len(uplink_calls) == 1


def test_placement_builds_no_energy_ledger(tmp_path, capsys, monkeypatch):
    """Placement reads only the round delay, so grid search and the centroid's
    expected delay build no energy ledger, and the recorded placements hold."""

    def no_ledger(*args, **kwargs):
        raise AssertionError("placement built an energy ledger")

    monkeypatch.setattr(scenario_module, "ledger", no_ledger)
    for name, overrides, position, objective in PLACEMENT_CHARACTERIZATIONS:
        for mode in ("grid_search", "centroid"):
            out = tmp_path / f"{mode}-{name}"
            args = ["place-uav", "--config", str(CONFIGS / name), "--out", str(out)]
            for text in [f"placement_mode={mode}", "workers=1", *overrides]:
                args += ["--override", text]
            assert run_cli(args) == 0
            placement = json.loads((out / "placement.json").read_text())
            assert placement["objective_s"] > 0.0
            if mode == "grid_search":
                assert placement["position"] == position
                assert placement["objective_s"] == objective
    capsys.readouterr()


@pytest.mark.parametrize("failing_dump, kept", [(0, []), (1, ["placement.json"])])
def test_failed_json_dump_leaves_no_partial_file(
    tmp_path, capsys, monkeypatch, failing_dump, kept
):
    """A dump that raises midway, into placement.json or into the manifest,
    leaves neither a half file nor a temporary file, and the manifest of an
    earlier run in the same directory stays intact."""
    cfg, out = write_config(tmp_path), tmp_path / "o"
    args = ["place-uav", "--config", cfg, "--out", str(out), "--workers", "1"]
    assert run_cli(args) == 0
    earlier = (out / "manifest.json").read_bytes()
    (out / "placement.json").unlink()

    dump, calls = json.dump, []

    def broken_dump(obj, fh, **kwargs):
        calls.append(obj)
        if len(calls) - 1 == failing_dump:
            fh.write('{"partial": ')
            raise OSError("No space left on device")
        return dump(obj, fh, **kwargs)

    monkeypatch.setattr(cli.json, "dump", broken_dump)
    assert run_cli(args) == 2
    assert capsys.readouterr().err.endswith("error: No space left on device\n")
    assert sorted(p.name for p in out.iterdir()) == sorted(kept + ["manifest.json"])
    assert (out / "manifest.json").read_bytes() == earlier


def test_failed_csv_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    """A CSV write that raises partway through its rows (the disk fills up
    inside the first data row of rounds.csv) leaves neither a truncated CSV
    nor a temporary file, and the outputs of an earlier run in the same
    directory stay intact. Outputs get a new file's usual mode."""
    cfg, out = write_config(tmp_path), tmp_path / "o"
    args = ["run", "--config", cfg, "--out", str(out), "--workers", "1"]
    assert run_cli(args) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    probe = tmp_path / "probe"
    probe.touch()
    assert {p.stat().st_mode for p in out.iterdir()} == {probe.stat().st_mode}

    real_open = open

    class FillingDisk:
        """A file on a disk that fills up once 200 characters are written."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, text):
            room = max(0, 200 - self.fh.tell())
            self.fh.write(text[:room])
            if len(text) > room:
                raise OSError("No space left on device")
            return len(text)

    monkeypatch.setattr(cli, "open", FillingDisk, raising=False)
    assert run_cli(args) == 2
    assert capsys.readouterr().err.endswith("error: No space left on device\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


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

    # A sweep exits 3 when any point has failed trials, and names the point.
    args = ["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]
    args += ["--param", "trainer.learning_rate", "--values", "0.1,1e200"]
    assert run_cli(args) == 3
    assert capsys.readouterr().err == "trainer.learning_rate=1e+200: 2 trials failed\n"
    rows = read_rows(out / "sweep.csv")
    assert rows[0] == list(cli.SWEEP_COLUMNS.values()) and len(rows) == 3
    assert [row[-1] for row in rows] == ["failed_trials", "0", "2"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["sweep.csv"]


def _die(scenario, trials):
    os._exit(1)


def test_dead_worker_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    """A worker process that dies ends the run with exit code 4 and one
    error line, not a traceback, and leaves no output directory."""
    monkeypatch.setattr(scenario_module, "run_trial", _die)
    out = tmp_path / "o"
    code = run_cli(["run", "--config", write_config(tmp_path), "--out", str(out), "--workers", "2"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("futures_loaded", [True, False], ids=["pool-module-loaded", "unloaded"])
def test_runtime_error_that_is_no_dead_worker_propagates(
    tmp_path, capsys, monkeypatch, futures_loaded
):
    """Exit code 4 is for a BrokenExecutor alone: any other RuntimeError is a
    bug and propagates, whether or not the pool's module has been loaded."""
    import concurrent.futures  # noqa: F401

    if not futures_loaded:
        monkeypatch.delitem(sys.modules, "concurrent.futures")

    def broken(*args):
        raise RuntimeError("not a dead worker")

    monkeypatch.setattr(cli, "run_monte_carlo", broken)
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match="not a dead worker"):
        run_cli(["run", "--config", write_config(tmp_path), "--out", str(out)])
    assert capsys.readouterr().err == "" and not out.exists()


def test_diverging_run_prints_only_its_failures(tmp_path, capsys):
    """A trial whose loss overflows fails in that round, which gets no
    record, and no numpy warning is printed. At 1e60 the loss overflows in
    round 1; at 1e30 it overflows in round 2 while the parameters stay finite."""
    for rate, failing_round in (("1e60", 1), ("1e30", 2)):
        out = tmp_path / rate
        args = ["run", "--config", str(CONFIGS / "default.yaml"), "--out", str(out)]
        args += ["--override", "monte_carlo_trials=3", "--override", f"trainer.learning_rate={rate}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(args) == 3
        failure = f"failed: non-finite train loss in round {failing_round}"
        assert capsys.readouterr().err.splitlines() == [f"trial {t} {failure}" for t in range(3)]
        rows = read_rows(out / "rounds.csv")[1:]
        assert [row[:2] for row in rows] == [
            [str(t), str(r)] for t in range(3) for r in range(failing_round)
        ]
        assert "inf" not in {value for row in rows for value in row[-3:]}


def test_huge_finite_metrics_have_a_finite_std(tmp_path, capsys):
    """The contested case at a learning rate of 1e10: no trial fails, the
    final-round test metrics are finite near 1e241 and their squared
    deviations overflow; the std is still finite and no warning is printed."""
    args = ["run", "--config", str(CONFIGS / "default.yaml"), "--out", str(tmp_path)]
    for text in (*CONTESTED, "trainer.learning_rate=1e10"):
        args += ["--override", text]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "summary.json").read_text())
    mean, std = summary["final_round_metric_mean"], summary["final_round_metric_std"]
    assert 1e240 < mean < 1e242
    assert std is not None and 0.0 < std < mean


def test_logistic_run_fails_cleanly_or_warns_nothing(tmp_path, capsys):
    """accuracy.yaml at a learning rate of 1e307: every trial's aggregate
    overflows in round 0, so the run exits 3 and prints one line per failed
    trial, no traceback. At 1000, where e^-z overflows in the sigmoid, it
    exits 0 and prints no numpy warning."""
    overflowed = [f"trial {t} failed: aggregated model overflowed" for t in range(3)]
    for rate, code, err in (("1e307", 3, overflowed), ("1000", 0, [])):
        out = tmp_path / rate
        args = ["run", "--config", str(CONFIGS / "accuracy.yaml"), "--out", str(out)]
        args += ["--override", "monte_carlo_trials=3", "--override", f"trainer.learning_rate={rate}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == code
        captured = capsys.readouterr()
        assert captured.out.startswith("ran 3 trials x 30 rounds")
        assert captured.err.splitlines() == err


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
    assert cli.resolve_config(args).workers == 1
    args = cli.build_parser().parse_args(["run", "--config", path, "--workers", "2"])
    assert cli.resolve_config(args).workers == 2


def test_cli_import_leaves_multiprocessing_unloaded():
    """The process pool is imported only when a run uses more than one
    worker, so a one-worker run never loads multiprocessing or
    concurrent.futures. The config module sits below the simulation and the
    command line: it loads neither."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    for module, unloaded in [
        ("swiptfl.cli", ["multiprocessing", "concurrent.futures"]),
        ("swiptfl.config", ["multiprocessing", "swiptfl.cli", "swiptfl.scenario"]),
    ]:
        script = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print([name for name in {unloaded!r} if name in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]", module


SMALL = ("monte_carlo_trials=3", "rounds=4")
# The contested regime: optimized ratios, a battery ledger and an outage
# rate of 0.533, so the solver and battery paths decide the bytes.
CONTESTED = (
    "monte_carlo_trials=5",
    "rounds=6",
    "device_count=12",
    "delta_mode=optimized",
    "device_pays_downlink=false",
    "link.ptx_ul_w=1e-3",
    "compute.kappa=1e-31",
    "battery_ledger=true",
    "battery_initial_j=1e-4",
)
# sha256 of rounds.csv per case: (config, overrides, digest), the same at
# every worker count. A change here changes results bit for bit: make it on
# purpose and record it.
GOLDEN_ROUNDS_SHA256 = {
    "default.yaml": (
        "default.yaml",
        SMALL,
        "ca9e3df9cc018db6c330259952869642d7f0864c65a78afe2193221fe50e60a8",
    ),
    "accuracy.yaml": (
        "accuracy.yaml",
        SMALL,
        "d63f230700b6440c00b080369e0c5ca63f919ff2066a1351e407a0e174fa99ea",
    ),
    "contested": (
        "default.yaml",
        CONTESTED,
        "07be99debbb6763f4be34481c147aeebd0824f83462a6176f0044a438ad00ad3",
    ),
    # Minibatch training under per-trial participation masks: the battery
    # sits devices out differently in each trial of a block (outage 0.5).
    "minibatch-battery": (
        "accuracy.yaml",
        CONTESTED,
        "58f08bf0c9381d22dc1dfaf3eacd1091346820a7d828fa99ce7522b9b4c8c37b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROUNDS_SHA256))
def test_shipped_config_rounds_match_golden_hash(tmp_path, capsys, name):
    config, overrides, golden = GOLDEN_ROUNDS_SHA256[name]
    for workers in ("1", "2"):
        out = tmp_path / workers
        args = ["run", "--config", str(CONFIGS / config), "--out", str(out), "--workers", workers]
        for text in overrides:
            args += ["--override", text]
        assert run_cli(args) == 0
        capsys.readouterr()
        assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == golden


# Runs whose trials stop, on accuracy.yaml with 8 trials of 8 rounds: sha256 of
# rounds.csv and the rounds each trial records, per learning rate. The server's
# aggregate overflows: at 5e306 in every trial, at 3e306 in trial 7 alone.
GOLDEN_STOPPING_ROUNDS = {
    "5e306": (
        [0, 0, 1, 0, 1, 5, 0, 0],
        "151c9f5612d2be5b9b9c0d8dd333ced787e1370acae1ced7b02bcc440115d7f7",
    ),
    "3e306": (
        [8, 8, 8, 8, 8, 8, 8, 4],
        "2ae60cb0ac52474bd255011657ef8aee1ee6c9875616562402cff09aec48ed89",
    ),
}


@pytest.mark.parametrize("rate", sorted(GOLDEN_STOPPING_ROUNDS))
def test_stopping_trials_rounds_match_golden_hash(tmp_path, capsys, rate):
    """A run whose trials stop exits 3 with one line per stopped trial, and
    its rounds.csv is the same at every worker count."""
    rounds_done, golden = GOLDEN_STOPPING_ROUNDS[rate]
    overrides = ("monte_carlo_trials=8", "rounds=8", f"trainer.learning_rate={rate}")
    stopped = [t for t, n in enumerate(rounds_done) if n < 8]
    lines = [f"trial {t} failed: aggregated model overflowed" for t in stopped]
    for workers in ("1", "2"):
        out = tmp_path / workers
        args = ["run", "--config", str(CONFIGS / "accuracy.yaml"), "--out", str(out)]
        args += ["--workers", workers]
        for text in overrides:
            args += ["--override", text]
        assert run_cli(args) == 3
        assert capsys.readouterr().err.splitlines() == lines
        assert [row[0] for row in read_rows(out / "rounds.csv")[1:]] == [
            str(t) for t, n in enumerate(rounds_done) for _ in range(n)
        ]
        assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == golden


# Every command on BASE_CONFIG at one worker: its arguments, its stdout, and
# the sha256 of each output it writes besides the manifest. A bool sweep
# value is written as 1 or 0.
GOLDEN_OUTPUTS = {
    "run": (
        ["run"],
        "ran 2 trials x 2 rounds: mean delay 0.0267133 s, outage rate 1.0000\n",
        {
            "rounds.csv": "ace4441794e56b8d0558ac4a390399b729d78a80bc9596c19c03f48d8830224c",
            "summary.json": "0c51142a3be55553682d650ee5fda830102d6b663f3a20300fbd55eff0a19108",
        },
    ),
    "sweep": (
        ["sweep", "--param", "link.ptx_dl_w", "--values", "0.5,2.0"],
        "link.ptx_dl_w=0.5: mean delay 0.0267133 s\nlink.ptx_dl_w=2.0: mean delay 0.0267133 s\n",
        {"sweep.csv": "016c6748ae380086fc9f90d2f8eb14e8a24b7ad4d967143bb6cf6b84598506b0"},
    ),
    "sweep-bool": (
        ["sweep", "--param", "battery_ledger", "--values", "true,false"],
        "battery_ledger=True: mean delay 0.0044738 s\nbattery_ledger=False: mean delay 0.0267133 s\n",
        {"sweep.csv": "5165dc3fa522d76e6140045227a835ec35fd081b2c422eb6beb33398a719d1db"},
    ),
    "accuracy-curve": (
        ["accuracy-curve"],
        "metric over 2 rounds: first 1.4640, final 1.0236\n",
        {"accuracy.csv": "c6118d3c6a6be02fecaddcd0d9f05b455a6ba3111dae0d856abd547be7bf7453"},
    ),
    "select-rounds": (
        ["select-rounds", "--candidates", "1,2"],
        "chosen rounds: 2 (test metric 1.02364)\n",
        {
            "selection.csv": "9579dbddc2089d40919f476653fe7a43cef71037293486b3868740f2f6df6863",
            "selection.json": "e01874c8bc6833990219cb611005206264631815947d4717123306100caddf78",
        },
    ),
    "place-uav": (
        ["place-uav"],
        "uav at (50.000, 50.000, 20.000): expected delay 0.0265942 s\n",
        {"placement.json": "d330360da4797396de906ad50dc063ce5c052ff11911b8abc410aecf7d26064d"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_command_outputs_match_golden_bytes(tmp_path, capsys, name):
    command, stdout, goldens = GOLDEN_OUTPUTS[name]
    out = tmp_path / "o"
    args = [*command, "--config", write_config(tmp_path), "--out", str(out), "--workers", "1"]
    assert run_cli(args) == 0
    assert capsys.readouterr() == (stdout, "")
    assert sorted(p.name for p in out.iterdir()) == sorted([*goldens, "manifest.json"])
    assert json.loads((out / "manifest.json").read_text())["outputs"] == sorted(goldens)
    for file, golden in goldens.items():
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == golden, file


class UnreadTrial:
    """A stand-in for TrialResult that fails on any read of an attribute."""

    def __init__(self, *args):
        pass

    def __getattribute__(self, name):
        raise AssertionError(f"a command read TrialResult.{name}")


def test_commands_build_no_round_record(tmp_path, capsys, monkeypatch):
    """run, sweep, accuracy-curve and select-rounds read the block record's
    columns: they build no RoundMetrics and read no TrialResult, also when
    every trial stops. Each keeps its exit code and its stderr lines, and
    run's rounds.csv still matches its golden."""

    def no_records(*args, **kwargs):
        raise AssertionError("a command built a RoundMetrics")

    monkeypatch.setattr(scenario_module, "RoundMetrics", no_records)
    monkeypatch.setattr(scenario_module, "TrialResult", UnreadTrial)
    config, overrides, golden = GOLDEN_ROUNDS_SHA256["default.yaml"]
    args = ["--config", str(CONFIGS / config), "--out", str(tmp_path)]
    for text in overrides:
        args += ["--override", text]
    assert run_cli(["run", *args]) == 0
    assert hashlib.sha256((tmp_path / "rounds.csv").read_bytes()).hexdigest() == golden
    assert run_cli(["sweep", *args, "--param", "link.ptx_dl_w", "--values", "0.5,2.0"]) == 0
    assert run_cli(["accuracy-curve", *args]) == 0
    assert run_cli(["select-rounds", *args, "--candidates", "1,2"]) == 0
    assert capsys.readouterr().err == ""

    # Every trial stops, each with its own line from run.
    _, golden = GOLDEN_STOPPING_ROUNDS["5e306"]
    out = tmp_path / "stopping"
    args = ["--config", str(CONFIGS / "accuracy.yaml"), "--out", str(out)]
    for text in ("monte_carlo_trials=8", "rounds=8", "trainer.learning_rate=5e306"):
        args += ["--override", text]
    assert run_cli(["run", *args]) == 3
    lines = [f"trial {t} failed: aggregated model overflowed" for t in range(8)]
    assert capsys.readouterr().err.splitlines() == lines
    assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == golden
    assert run_cli(["sweep", *args, "--param", "link.ptx_dl_w", "--values", "1.0"]) == 3
    assert capsys.readouterr().err == "link.ptx_dl_w=1.0: 8 trials failed\n"
    assert run_cli(["accuracy-curve", *args]) == 3
    assert capsys.readouterr().err == "8 trials failed\n"
    assert run_cli(["select-rounds", *args, "--candidates", "4,8"]) == 3
    message = "every trial failed; trial 0: aggregated model overflowed"
    assert capsys.readouterr().err == f"numeric failure: {message}\n"


def test_summary_splits_outage_into_unreachable_and_energy_short(tmp_path, capsys):
    """The two outage counts of summary.json add up to outage_rate times the
    recorded rounds, and each matches the rounds of rounds.csv that it counts:
    an infinite delay, or a finite one with a device short of energy."""
    config, overrides, golden = GOLDEN_ROUNDS_SHA256["contested"]
    args = ["run", "--config", str(CONFIGS / config), "--out", str(tmp_path)]
    for text in overrides:
        args += ["--override", text]
    assert run_cli(args) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "rounds.csv").read_bytes()).hexdigest() == golden
    summary = json.loads((tmp_path / "summary.json").read_text())
    rows = read_rows(tmp_path / "rounds.csv")[1:]
    unreachable = summary["outage_unreachable_rounds"]
    short = summary["outage_energy_short_rounds"]
    assert (unreachable + short) / len(rows) == summary["outage_rate"]
    assert 0 < unreachable + short < len(rows)
    assert unreachable == sum(row[2] == "inf" for row in rows)
    assert short == sum(row[2] != "inf" and int(row[9]) < 12 for row in rows)

def test_config_errors_exit_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path)
    mismatched = write_config(
        tmp_path, BASE_CONFIG + "trainer:\n  learning_rate: 0.1\n  local_iters: 3\n", "bad.yaml"
    )
    out = str(tmp_path / "o")
    cases = [
        ["run", "--config", mismatched, "--out", out],
        ["run", "--config", cfg, "--out", out, "--seed", "-1"],
        ["sweep", "--config", cfg, "--out", out, "--param", "no_such", "--values", "1,2"],
        ["run", "--config", cfg, "--out", out, "--override", "uav_cpu_hz=0"],
        ["run", "--config", cfg, "--out", out, "--override", "uav_cycles_per_bit=-1"],
        # compute.local_iters is the one iteration count: the trainer has none.
        ["run", "--config", cfg, "--out", out, "--override", "trainer.local_iters=3"],
        ["sweep", "--config", cfg, "--out", out, "--param", "trainer.local_iters,compute.local_iters",
         "--values", "1,3"],
    ]
    for args in cases:
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_comma_joined_sweep_param_is_one_direct_error(tmp_path, capsys):
    """--param takes one dotted path; a comma in it is named as such, not read
    as a field name with a comma in it."""
    cfg = write_config(tmp_path)
    param = "trainer.local_iters,compute.local_iters"
    args = ["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--param", param]
    assert run_cli([*args, "--values", "1,3"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --param takes one dotted path, got {param!r}\n"


def test_rejected_sweep_leaves_no_output_directory(tmp_path, capsys):
    """The first output written makes the output directory, so a sweep
    rejected for its --param or --values exits 2 and leaves none."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    args = ["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]
    for param, values in [
        ("rounds,device_count", "1,2"),
        ("no_such", "1,2"),
        ("rounds", "1.5"),
        ("rounds", ""),
    ]:
        assert run_cli([*args, "--param", param, "--values", values]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
    assert run_cli([*args, "--param", "rounds", "--values", "1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]


@pytest.mark.parametrize(
    "override",
    ["data.noise=.nan", "data.weight_scale=.inf", "data.init_scale=.nan", "battery_initial_j=.nan"],
)
def test_non_finite_setting_exits_2_without_a_traceback(tmp_path, override):
    """A setting no run can use is a config error, reported before the run
    starts: exit 2 and one ``error:`` line naming the field."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); from swiptfl import cli; sys.exit(cli.main())"
    args = ["run", "--config", str(CONFIGS / "default.yaml"), "--out", str(tmp_path / "o")]
    out = subprocess.run(
        [sys.executable, "-c", script, *args, "--override", override],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert override.split("=")[0].split(".")[-1] in out.stderr and "Traceback" not in out.stderr


def numeric_leaves(config, prefix=""):
    """(dotted path, entry index or None) of every int or float leaf of the
    config tree, optional ones included; a tuple field gives one per entry."""
    hints = typing.get_type_hints(type(config))
    for item in fields(config):
        value, path = getattr(config, item.name), prefix + item.name
        if is_dataclass(value):
            yield from numeric_leaves(value, path + ".")
        elif isinstance(value, tuple):
            yield from ((path, index) for index in range(len(value)))
        elif {int, float} & set(typing.get_args(hints[item.name]) or [hints[item.name]]):
            yield path, None


def test_every_numeric_leaf_takes_or_rejects_bad_values_cleanly(tmp_path, capsys):
    """NaN, +-inf, 0 and -1 in any numeric field either run to a finite mean
    delay and outage and a rounds.csv without NaN, or exit 2 with one
    ``error:`` line naming the field, or fail trials by divergence (exit 3);
    never a traceback. NaN is no value of any field, so it never runs."""
    config = str(CONFIGS / "default.yaml")
    base = cli.load_config(config)
    short = ["--override", "monte_carlo_trials=1", "--override", "rounds=1"]
    bad = []
    for path, index in numeric_leaves(base):
        for text in (".nan", ".inf", "-.inf", "0", "-1"):
            if index is None:
                override = f"{path}={text}"
            else:
                entries = [repr(v) for v in attrgetter(path)(base)]
                entries[index] = text
                override = f"{path}=[{', '.join(entries)}]"
            args = ["run", "--config", config, "--out", str(tmp_path / "o"), *short]
            try:
                code = run_cli([*args, "--override", override])
            except Exception as exc:  # a traceback at the command line
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code == 0:
                summary = json.loads((tmp_path / "o" / "summary.json").read_text())
                finite = None not in (summary["delay_mean_s"], summary["outage_rate"])  # JSON null
                rows = read_rows(tmp_path / "o" / "rounds.csv")[1:]
                ok = text != ".nan" and finite and "nan" not in {v for row in rows for v in row}
            elif code == 2:
                leaf = path.rpartition(".")[2]
                ok = err.startswith("error: ") and err.count("\n") == 1 and leaf in err
            else:
                ok = code == 3
            if not ok:
                bad.append(f"{override}: exit {code}, {err.strip()!r}")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize(
    "command, module, name",
    [
        (["run"], cli, "run_monte_carlo"),
        (["select-rounds", "--candidates", "1,2"], cli, "run_monte_carlo"),
    ],
    ids=["run", "select-rounds"],
)
def test_value_error_inside_a_run_is_not_a_config_error(
    tmp_path, monkeypatch, command, module, name
):
    def broken(*args):
        raise ValueError("numeric bug")

    monkeypatch.setattr(module, name, broken)
    args = [*command, "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    with pytest.raises(ValueError, match="numeric bug"):
        run_cli(args)
