import json

import numpy as np
import pytest

from targeted_psm.cli import (
    ConfigError,
    experiment_scenarios,
    load_config,
    main,
    methods_from_config,
    scenario_from_config,
    transfer_from_config,
)
from targeted_psm.baselines import MethodId
from targeted_psm.evaluate import read_report_rows


TINY_SCENARIO = {
    "preset": "figure1-mini",
    "n0": 150,
    "n_k": 120,
    "K": 1,
    "p": 10,
    "support_sizes": [1, 2, 4],
    "seed": 0,
}
TINY_TUNING = {"lambda_pool": 0.05, "lambda_bias": 0.05, "max_em_iter": 10}
TINY_LCA = {"n_starts": 2, "max_iter": 80}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_load_config_rejects_unknown_block(tmp_path):
    path = _write_config(tmp_path, {"scnario": {}})
    with pytest.raises(ConfigError, match="scnario"):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))


def test_scenario_from_config_unknown_field():
    with pytest.raises(ConfigError, match="scenario.nope"):
        scenario_from_config({"scenario": {"nope": 1}})


def test_scenario_from_config_preset_and_overrides():
    cfg = scenario_from_config({"scenario": dict(TINY_SCENARIO)})
    assert (cfg.n0, cfg.n_k, cfg.K, cfg.p) == (150, 120, 1, 10)
    assert cfg.support_sizes == (1, 2, 4)
    # seed override wins
    cfg2 = scenario_from_config({"scenario": dict(TINY_SCENARIO)}, seed=42)
    assert cfg2.seed == 42


@pytest.mark.parametrize("block", ["scenario", "tuning", "lca", "experiment"])
def test_non_object_block_exits_2(tmp_path, capsys, block):
    config = _write_config(tmp_path, {block: 5})
    commands = [["experiment"]]
    if block != "experiment":  # fit checks its blocks before it reads any data
        commands.append(["fit", "--data", str(tmp_path / "no-data")])
    for command in commands:
        rc = main([*command, "--config", config, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{block} must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_config_lists_become_tuples():
    cfg = transfer_from_config({"tuning": {"lambda_pool": [0.1, 0.2], "cv_grid": [1, 2]}})
    assert cfg.lambda_pool == (0.1, 0.2) and cfg.cv_grid == (1, 2)
    scen = scenario_from_config(
        {"scenario": {"prevalences": [[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]], "q": 2}}
    )
    assert scen.prevalences == ((0.2, 0.8), (0.5, 0.5), (0.7, 0.3))


def test_transfer_from_config_unknown_field():
    with pytest.raises(ConfigError, match="tuning.bogus"):
        transfer_from_config({"tuning": {"bogus": 3}})


def test_methods_from_config():
    assert methods_from_config({}) == list(MethodId)
    got = methods_from_config({"methods": ["naive_lasso", "targeted_psm"]})
    assert got == [MethodId.NAIVE_LASSO, MethodId.TARGETED_PSM]
    with pytest.raises(ConfigError, match="method"):
        methods_from_config({"methods": ["nope"]})


def test_experiment_scenarios_overrides_and_duplicates():
    config = {
        "scenario": dict(TINY_SCENARIO),
        "experiment": {"scenarios": [{"id": "K1"}, {"id": "K0", "K": 0}]},
    }
    scen = experiment_scenarios(config, seed=None)
    assert [s[0] for s in scen] == ["K1", "K0"]
    assert scen[0][1].K == 1 and scen[1][1].K == 0
    dup = {
        "scenario": dict(TINY_SCENARIO),
        "experiment": {"scenarios": [{"id": "x"}, {"id": "x", "K": 0}]},
    }
    with pytest.raises(ConfigError, match="duplicate"):
        experiment_scenarios(dup, seed=None)


# ---------------------------------------------------------------------------
# End-to-end subcommand round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """simulate -> fit -> predict working directory shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    config = _write_config(
        root,
        {"scenario": dict(TINY_SCENARIO), "tuning": dict(TINY_TUNING),
         "lca": dict(TINY_LCA)},
    )
    data_dir = root / "data"
    rc = main(["simulate", "--config", config, "--out", str(data_dir)])
    assert rc == 0
    return root, config, data_dir


def test_simulate_writes_dataset(cli_workspace):
    root, config, data_dir = cli_workspace
    assert (data_dir / "manifest.json").exists()
    assert (data_dir / "truth.json").exists()
    csvs = sorted(p.name for p in data_dir.glob("study_*.csv"))
    assert csvs == ["study_0.csv", "study_1.csv"]
    # refuses to overwrite without --force
    rc = main(["simulate", "--config", config, "--out", str(data_dir)])
    assert rc == 1
    rc = main(["simulate", "--config", config, "--out", str(data_dir), "--force"])
    assert rc == 0


def test_fit_and_predict_roundtrip(cli_workspace, capsys):
    root, config, data_dir = cli_workspace
    fit_path = root / "fit.json"
    rc = main(
        ["fit", "--config", config, "--data", str(data_dir),
         "--classes", "3", "--out", str(fit_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert fit_path.exists()
    assert "classes: 3" in out
    assert "family: logistic" in out
    assert "EM iterations" in out

    scores_path = root / "scores.csv"
    rc = main(
        ["predict", "--fit", str(fit_path), "--input",
         str(data_dir / "study_0.csv"), "--out", str(scores_path)]
    )
    assert rc == 0
    text = scores_path.read_text().splitlines()
    assert text[0] == "score"
    scores = np.loadtxt(scores_path, skiprows=1)
    assert scores.shape == (150,)
    assert np.all((scores > 0) & (scores < 1))
    capsys.readouterr()

    # stdout mode prints one score per line
    rc = main(["predict", "--fit", str(fit_path),
               "--input", str(data_dir / "study_0.csv")])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 150
    assert np.allclose(np.array(printed, dtype=float), scores)


def test_predict_rejects_wrong_width(cli_workspace, tmp_path):
    root, config, data_dir = cli_workspace
    fit_path = root / "fit.json"
    header = "y," + ",".join(f"x{i}" for i in range(1, 4)) + ",z1"
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "\n" + "1," + "0.1,0.2,0.3" + ",1\n")
    rc = main(["predict", "--fit", str(fit_path), "--input", str(bad)])
    assert rc == 2


def test_lca_select_prints_table(cli_workspace, capsys):
    root, config, data_dir = cli_workspace
    rc = main(
        ["lca-select", "--config", config, "--data", str(data_dir),
         "--classes", "2", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["C", "log_lik", "n_params", "BIC", "converged"]
    assert sum("*" in line for line in lines) == 1
    assert "no recovery guarantee" in out


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["lca-select", "--data", "d", "--classes", "2", "--out", "x"],
        ["predict", "--fit", "f.json", "--input", "s.csv", "--config", "c.json"],
        ["predict", "--fit", "f.json", "--input", "s.csv", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_files_exit_1(tmp_path):
    rc = main(["fit", "--data", str(tmp_path / "absent")])
    assert rc == 1
    rc = main(["predict", "--fit", str(tmp_path / "absent.json"),
               "--input", str(tmp_path / "absent.csv")])
    assert rc == 1


def test_config_errors_exit_2(tmp_path):
    bad = _write_config(tmp_path, {"scenario": {"nope": 1}})
    rc = main(["simulate", "--config", bad, "--out", str(tmp_path / "d")])
    assert rc == 2
    # missing --out (and no env var)
    ok = _write_config(tmp_path, {"scenario": dict(TINY_SCENARIO)}, "ok.json")
    rc = main(["simulate", "--config", ok])
    assert rc == 2


@pytest.mark.parametrize(
    "override, message",
    [
        ({"prevalence_preset": "nope"}, "unknown prevalence preset 'nope'"),
        ({"q": 4}, "but the scenario asks for C=3, q=4"),
        ({"K": 11}, "provides at most 10 sources"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_bad_scenario_preset_exits_2(tmp_path, capsys, command, override, message):
    config = _write_config(tmp_path, {"scenario": {**TINY_SCENARIO, **override}})
    out = tmp_path / "out"
    rc = main([command, "--config", config, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_env_var_out(tmp_path, monkeypatch):
    config = _write_config(tmp_path, {"scenario": dict(TINY_SCENARIO)})
    out_dir = tmp_path / "env_out"
    monkeypatch.setenv("TARGETED_PSM_OUT", str(out_dir))
    rc = main(["simulate", "--config", config])
    assert rc == 0
    assert (out_dir / "manifest.json").exists()


# ---------------------------------------------------------------------------
# Experiment subcommand
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_exp")
    payload = {
        "scenario": dict(TINY_SCENARIO),
        "methods": ["targeted_psm", "naive_lasso"],
        "tuning": dict(TINY_TUNING),
        "lca": dict(TINY_LCA),
        "experiment": {
            "replicates": 2,
            "test_n": 100,
            "scenarios": [{"id": "K1"}, {"id": "K0", "K": 0}],
        },
    }
    return root, _write_config(root, payload)


def test_experiment_end_to_end(experiment_config, capsys):
    root, config = experiment_config
    out = root / "exp"
    rc = main(["experiment", "--config", config, "--out", str(out), "--seed", "3"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "summary:" in printed
    rows = read_report_rows(out / "rows.csv")
    assert len(rows) == 8  # 2 scenarios x 2 replicates x 2 methods
    assert {r.scenario for r in rows} == {"K1", "K0"}
    assert all(r.error is None for r in rows), [r.error for r in rows]
    summary_text = (out / "summary.csv").read_text()
    assert summary_text.startswith("scenario,method,")

    # rerun without --resume/--force refuses to clobber
    rc = main(["experiment", "--config", config, "--out", str(out), "--seed", "3"])
    assert rc == 2

    # --resume with everything done adds nothing and keeps rows identical
    before = (out / "rows.csv").read_text()
    rc = main(["experiment", "--config", config, "--out", str(out),
               "--seed", "3", "--resume"])
    assert rc == 0
    assert (out / "rows.csv").read_text() == before


HEADER = "scenario,method,replicate,seed,n_sources,mse,auc,runtime_s,permutation,error"
SWAPPED = HEADER.replace("mse,auc", "auc,mse")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "is empty"),
        (HEADER.removesuffix(",error") + "\nK1,naive_lasso,0,1,1,0.5,0.6,0.1,0|1\n",
         "missing ['error'], extra []"),
        (HEADER + ",note\n", "missing [], extra ['note']"),
        (SWAPPED + "\nK1,naive_lasso,0,1,1,0.6,0.5,0.1,0|1,\n", f"in the order {SWAPPED}"),
    ],
    ids=["empty", "no-error-column", "extra-column", "mse-auc-swapped"],
)
def test_experiment_resume_rejects_a_foreign_header(experiment_config, tmp_path, capsys,
                                                    text, message):
    _, config = experiment_config
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(text)
    rc = main(["experiment", "--config", config, "--out", str(tmp_path), "--resume"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert rows_path.read_text() == text
    assert not (tmp_path / "summary.csv").exists()


def test_experiment_force_restart_reproduces_statistics(experiment_config):
    root, config = experiment_config
    out = root / "exp"
    rows_before = read_report_rows(out / "rows.csv")
    rc = main(["experiment", "--config", config, "--out", str(out),
               "--seed", "3", "--force"])
    assert rc == 0
    rows_after = read_report_rows(out / "rows.csv")
    key = lambda r: (r.scenario, r.method, r.replicate, r.seed, r.mse, r.auc)
    assert [key(r) for r in rows_before] == [key(r) for r in rows_after]


@pytest.mark.parametrize(
    "flags, experiment, message",
    [
        (["--replicates", "0"], {}, "--replicates must be an integer >= 1"),
        (["--replicates", "-2"], {}, "--replicates must be an integer >= 1"),
        ([], {"replicates": "abc"}, "experiment.replicates must be an integer"),
        ([], {"replicates": 0}, "experiment.replicates must be an integer"),
        ([], {"replicates": 2.5}, "experiment.replicates must be an integer"),
        ([], {"test_n": 0}, "experiment.test_n must be an integer"),
        ([], {"test_n": True}, "experiment.test_n must be an integer"),
        ([], {"max_failure_rate": 1.5}, "max_failure_rate must be a number in [0, 1]"),
        ([], {"max_failure_rate": -0.1}, "max_failure_rate must be a number in [0, 1]"),
        ([], {"max_failure_rate": "x"}, "max_failure_rate must be a number in [0, 1]"),
    ],
)
def test_experiment_rejects_bad_counts(tmp_path, capsys, flags, experiment, message):
    payload = {"scenario": dict(TINY_SCENARIO), "experiment": experiment}
    config = _write_config(tmp_path, payload)
    out = tmp_path / "exp"
    rc = main(["experiment", "--config", config, "--out", str(out), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_with_too_many_failures_still_writes_summary(tmp_path, capsys):
    # trans_glm cannot run without sources, so every replicate fails
    payload = {
        "scenario": {**TINY_SCENARIO, "K": 0},
        "methods": ["trans_glm"],
        "tuning": dict(TINY_TUNING),
        "experiment": {"replicates": 2, "test_n": 50},
    }
    config = _write_config(tmp_path, payload)
    out = tmp_path / "exp"
    rc = main(["experiment", "--config", config, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: 2/2 method-replicates failed (first: ValueError: trans_glm" in err
    assert len(read_report_rows(out / "rows.csv")) == 2
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].startswith("scenario,trans_glm,0,0,2,")


def test_experiment_threads_env_and_validation(experiment_config, monkeypatch):
    root, config = experiment_config
    monkeypatch.setenv("TARGETED_PSM_THREADS", "not_a_number")
    rc = main(["experiment", "--config", config, "--out", str(root / "exp2")])
    assert rc == 2
    monkeypatch.delenv("TARGETED_PSM_THREADS")


def test_experiment_multiprocess_matches_serial(experiment_config, tmp_path):
    root, config = experiment_config
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    rc = main(["experiment", "--config", config, "--out", str(out1),
               "--seed", "5", "--threads", "1"])
    assert rc == 0
    rc = main(["experiment", "--config", config, "--out", str(out2),
               "--seed", "5", "--threads", "2"])
    assert rc == 0
    assert (out1 / "summary.csv").read_text() == (out2 / "summary.csv").read_text()


def test_help_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([])
