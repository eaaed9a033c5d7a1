"""The command line end to end: each subcommand's output, the config blocks
and their refusals, and the exit code and single error line of every
configuration, file and data error."""

import contextlib
import io
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from targeted_psm import core, lca, transfer
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
from targeted_psm.core import read_study_csv
from targeted_psm.evaluate import read_report_rows
from targeted_psm.glm import SolverError
from targeted_psm.transfer import load_transfer_fit, predict_risk


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
TINY_LCA = {"n_starts": 2}


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


@pytest.mark.parametrize("payload, message", [
    (b"\xff\xfe{}", "cannot read config file: 'utf-8' codec can't decode byte 0xff in position 0"),
    ([], "config file must contain a JSON object at top level"),
    ({"methods": []}, "methods must be a non-empty JSON list of method names"),
    ({"experiment": {"scenarios": []}}, "experiment.scenarios must be a non-empty JSON list"),
    ({"experiment": {"scenarios": [{"id": "a"}, {"K": 2}]}},
     "experiment.scenarios[1] must be an object with an 'id'"),
], ids=["not-utf-8", "not-an-object", "no-methods", "no-scenarios",
        "scenario-without-id"])
def test_a_malformed_config_exits_2_with_one_config_error_line(tmp_path, capsys, payload,
                                                               message):
    if isinstance(payload, bytes):
        (tmp_path / "bad.json").write_bytes(payload)
        config = str(tmp_path / "bad.json")
    else:
        config = _write_config(tmp_path, payload)
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message}"), err
    assert not (tmp_path / "out").exists()


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


@pytest.fixture(scope="module")
def cli_fit(cli_workspace):
    """The saved fit of the shared dataset and what `fit` printed."""
    root, config, data_dir = cli_workspace
    fit_path = root / "fit.json"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        rc = main(
            ["fit", "--config", config, "--data", str(data_dir),
             "--classes", "3", "--out", str(fit_path)]
        )
    assert rc == 0
    return fit_path, printed.getvalue()


def test_fit_verbose_adds_the_target_class_mixing(cli_workspace, cli_fit, capsys):
    root, config, data_dir = cli_workspace
    assert main(["fit", "--config", config, "--data", str(data_dir), "--classes", "3",
                 "-v"]) == 0
    printed = capsys.readouterr().out.splitlines()
    mixing = load_transfer_fit(cli_fit[0]).lca_model.mixing[0]
    assert printed[-1] == "class mixing (target row): " + np.array2string(mixing, precision=4)
    assert printed[:-1] == cli_fit[1].splitlines()[:-1]  # the quiet run also named its file


def test_fit_and_predict_roundtrip(cli_workspace, cli_fit, capsys):
    root, config, data_dir = cli_workspace
    fit_path, out = cli_fit
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
    target = read_study_csv(data_dir / "study_0.csv", study_id=0)
    direct = predict_risk(load_transfer_fit(fit_path), target.predictors, target.structure_vars)
    np.savetxt(root / "savetxt.csv", direct, fmt="%.17g", header="score", comments="")
    assert scores_path.read_bytes() == (root / "savetxt.csv").read_bytes()
    capsys.readouterr()

    # stdout mode prints one score per line
    rc = main(["predict", "--fit", str(fit_path),
               "--input", str(data_dir / "study_0.csv")])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 150
    assert np.allclose(np.array(printed, dtype=float), scores)


_COEF = {"values": [[0.5]], "intercept": [0.0]}
NO_LCA_MODEL = {"kind": "transfer_fit", "family": "logistic", "b_pooled": _COEF, "delta": _COEF,
                "lambda_pool": [0.1], "lambda_bias": [0.1]}
_LCA_MODEL = {"prevalences": [[0.5]], "mixing": [[1.0]]}
ONE_CLASS_FIT = {**NO_LCA_MODEL, "lca_model": _LCA_MODEL}


@pytest.mark.parametrize(
    "text, reason",
    [('{"kind": "nope"}', "not a serialized transfer fit"),
     ("{oops", "Expecting property name"),
     (json.dumps(NO_LCA_MODEL), "missing key 'lca_model'"),
     (json.dumps({**ONE_CLASS_FIT, "dispersion": True}),
      "dispersion must be a real number in (0, inf), got True"),
     (json.dumps({**ONE_CLASS_FIT, "dispersion": "1"}),
      "dispersion must be a real number in (0, inf), got '1'"),
     (json.dumps({**ONE_CLASS_FIT, "lambda_pool": [True]}),
      "lambda_pool[0] must be a real number in [0, inf], got True"),
     (json.dumps({**ONE_CLASS_FIT, "lambda_bias": [float("nan")]}),
      "lambda_bias[0] must be a real number in [0, inf], got nan"),
     (json.dumps({**ONE_CLASS_FIT, "lca_model": {**_LCA_MODEL, "prevalences": [[float("nan")]]}}),
      "prevalences[0, 0] must be a real number in (0, 1), got nan"),
     (json.dumps({**ONE_CLASS_FIT, "b_pooled": {**_COEF, "values": [["0.5"]]}}),
      "values[0, 0] must be a real number in (-inf, inf), got '0.5'"),
     (json.dumps({**ONE_CLASS_FIT, "lca_model": {**_LCA_MODEL, "mixing": [[True]]}}),
      "mixing[0, 0] must be a real number in (0, inf), got True"),
     (json.dumps({**ONE_CLASS_FIT, "trace_joint": ["1.5", True]}),
      "trace_joint[0] must be a real number in (-inf, inf), got '1.5'"),
     (json.dumps({**ONE_CLASS_FIT, "lca_model": {**_LCA_MODEL, "converged": "false"}}),
      "converged must be a bool, got 'false'"),
     (json.dumps({**ONE_CLASS_FIT, "b_pooled": {**_COEF, "values": [0.5]}}),
      "coefficient values must be a (p, C) matrix"),
     (json.dumps({**ONE_CLASS_FIT, "lca_model": {**_LCA_MODEL, "prevalences": [0.5]}}),
      "prevalences and mixing must be 2-d"),
     (json.dumps({**ONE_CLASS_FIT, "lca_model": {**_LCA_MODEL, "mixing": [[0.5, 0.5]]}}),
      "mixing columns must match the class count")],
    ids=["wrong-kind", "not-json", "no-lca-model", "true-dispersion", "string-dispersion",
         "true-penalty", "nan-penalty", "nan-prevalence", "string-coefficient", "true-mixing",
         "string-trace", "string-converged", "1-d-coefficients", "1-d-prevalences",
         "mixing-columns"],
)
def test_predict_with_a_malformed_fit_exits_2_naming_the_file(tmp_path, capsys, text, reason):
    bad = tmp_path / "bad_fit.json"
    bad.write_text(text)
    rc = main(["predict", "--fit", str(bad), "--input", str(tmp_path / "absent.csv")])
    assert rc == 2
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {bad}: ") and reason in line, line


def _one_class(payload, part):
    """`payload` with `part` cut to the first latent class."""
    if part == "delta":
        payload["delta"] = {"values": [row[:1] for row in payload["delta"]["values"]],
                            "intercept": payload["delta"]["intercept"][:1]}
    elif part == "lca_model":
        lca_model = payload["lca_model"]
        lca_model["prevalences"] = lca_model["prevalences"][:1]
        lca_model["mixing"] = [[1.0] for _ in lca_model["mixing"]]
    else:
        payload[part] = payload[part][:1]
    return payload


@pytest.mark.parametrize("part", ["delta", "lambda_pool", "lambda_bias", "lca_model"])
def test_predict_with_a_fit_whose_parts_disagree_exits_2_naming_the_file(cli_fit, cli_workspace,
                                                                         tmp_path, capsys, part):
    """A one-class delta must not broadcast over every class of b_pooled."""
    fit_path, _ = cli_fit
    _, _, data_dir = cli_workspace
    bad = tmp_path / "cut_fit.json"
    bad.write_text(json.dumps(_one_class(json.loads(fit_path.read_text()), part)))
    rc = main(["predict", "--fit", str(bad), "--input", str(data_dir / "study_0.csv")])
    assert rc == 2
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {bad}: {part}") and "(p, C) = (10, 3)" in line, line


def test_predict_rejects_wrong_width(cli_fit, tmp_path, capsys):
    fit_path, _ = cli_fit
    header = "y," + ",".join(f"x{i}" for i in range(1, 4)) + ",z1"
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "\n" + "1," + "0.1,0.2,0.3" + ",1\n")
    rc = main(["predict", "--fit", str(fit_path), "--input", str(bad)])
    assert rc == 2
    assert _one_error_line(capsys).startswith(f"error: {bad}: p=3, q=1; the fit expects p=10")


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


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


# (column, text) written into the second data line; column 11 is z1 (p = 10)
CELL_FAULTS = {"bad cell": (1, "abc"), "z of 2": (11, "2"), "nan predictor": (1, "nan"),
               "inf outcome": (0, "inf")}


@pytest.mark.parametrize(
    "fault, reason",
    [("header only", "no data rows"), ("bad cell", "line 3: could not convert string 'abc'"),
     ("short row", "line 3: 2 values, expected"),
     ("z of 2", "structure_vars[1, 0] must be a real number in {0, 1}, got 2.0"),
     ("nan predictor", "predictors[1, 0] must be a real number in (-inf, inf), got nan"),
     ("inf outcome", "outcomes[1] must be a real number in (-inf, inf), got inf")],
)
def test_malformed_study_csv_exits_2_naming_the_file_line(cli_workspace, cli_fit, tmp_path, capsys,
                                                          fault, reason):
    root, config, data_dir = cli_workspace
    data = tmp_path / "data"
    data.mkdir()
    for src in data_dir.iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    lines = (data / "study_1.csv").read_text().splitlines()
    cells = lines[2].split(",")
    if fault == "header only":
        lines = lines[:1]
    elif fault == "short row":
        lines[2] = ",".join(cells[:2])
    else:
        column, cells[column] = CELL_FAULTS[fault]
        lines[2] = ",".join(cells)
    (data / "study_1.csv").write_text("\n".join(lines) + "\n")
    where = f"error: {data / 'study_1.csv'}: {reason}"
    for argv in (
        ["fit", "--config", config, "--data", str(data), "--classes", "3"],
        ["lca-select", "--config", config, "--data", str(data), "--classes", "2"],
        ["predict", "--fit", str(cli_fit[0]), "--input", str(data / "study_1.csv")],
    ):
        assert main(argv) == 2
        assert _one_error_line(capsys).startswith(where)


@pytest.mark.parametrize("manifest, message", [
    (json.dumps({"target": 5}).encode(), "'target' must name the target CSV"),
    (json.dumps({"target": "study_0.csv", "sources": "study_1.csv"}).encode(),
     "'sources' must be a list of CSV names"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["target-not-a-name", "sources-not-a-list", "not-utf-8"])
def test_malformed_manifest_exits_2(cli_workspace, tmp_path, capsys, manifest, message):
    root, config, data_dir = cli_workspace
    (tmp_path / "manifest.json").write_bytes(manifest)
    for command in ("fit", "lca-select"):
        assert main([command, "--data", str(tmp_path), "--classes", "2"]) == 2
        assert _one_error_line(capsys).startswith(f"error: {tmp_path / 'manifest.json'}: {message}")


def test_study_files_are_the_same_bytes_with_serial_io(tmp_path, monkeypatch, cpus, capsys):
    """simulate -> fit -> predict with the study files split into small byte
    ranges and written in small blocks on four (pretended) CPUs, and again
    with every fan_out serial."""
    monkeypatch.setattr(core, "_RANGE_BYTES", 4096)
    monkeypatch.setattr(core, "_BLOCK_VALUES", 50)
    config = _write_config(
        tmp_path, {"scenario": dict(TINY_SCENARIO, K=3), "tuning": dict(TINY_TUNING),
                   "lca": dict(TINY_LCA)},
    )
    outputs = []
    for name in ("default", "serial"):
        if name == "serial":
            # three children each for the one dataset write (four study
            # files, one task each), the one dataset read (every range of
            # the four files in one fan_out) and predict's read of its
            # input; two for the scores file (three blocks); one for the
            # two LCA restarts
            assert cpus.forks == 3 + 3 + 3 + 2 + 1
            cpus(1)
        out = tmp_path / name
        data, fit, scores = out / "data", out / "fit.json", out / "scores.csv"
        assert main(["simulate", "--config", config, "--out", str(data)]) == 0
        assert main(["fit", "--config", config, "--data", str(data), "--out", str(fit)]) == 0
        assert main(["predict", "--fit", str(fit), "--input", str(data / "study_2.csv"),
                     "--out", str(scores)]) == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))})
    capsys.readouterr()
    assert len(outputs[0]) == 8  # 4 studies, manifest, truth, fit, scores
    assert outputs[0] == outputs[1]


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["lca-select", "--data", "d", "--classes", "2", "--out", "x"],
        ["predict", "--fit", "f.json", "--input", "s.csv", "--config", "c.json"],
        ["predict", "--fit", "f.json", "--input", "s.csv", "--seed", "3"],
        ["simulate", "--out", "d", "-v"],
        ["predict", "--fit", "f.json", "--input", "s.csv", "-v"],
        ["experiment", "--out", "x", "-v"],
        ["lca-select", "--data", "d", "--classes", "2", "-v"],
        ["experiment", "--out", "x", "--threads", "2"],
        ["simulate", "--out", "d", "--preset", "figure1-mini"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["fit", "--classes", "0"], ["fit", "--classes", "two"],
     ["lca-select", "--classes", "0"], ["lca-select", "--classes", "2", "-1"]],
    ids=["fit-0", "fit-word", "lca-select-0", "lca-select-negative"],
)
def test_bad_class_count_exits_2_naming_the_flag(tmp_path, capsys, argv):
    # the data directory does not exist: the flag is refused before any read
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--data", str(tmp_path / "absent")])
    assert exc.value.code == 2
    assert "argument --classes: must be an integer >= 1, got " in capsys.readouterr().err


def test_missing_files_exit_1(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "absent")])
    assert rc == 1
    rc = main(["predict", "--fit", str(tmp_path / "absent.json"),
               "--input", str(tmp_path / "absent.csv")])
    assert rc == 1
    # a missing --config is a missing input file too, read before the data
    capsys.readouterr()
    rc = main(["fit", "--config", str(tmp_path / "absent.json"), "--data", str(tmp_path / "absent")])
    assert rc == 1
    assert _one_error_line(capsys) == (
        f"error: [Errno 2] No such file or directory: '{tmp_path / 'absent.json'}'"
    )


@pytest.mark.parametrize("command, flag", [
    ("predict", "--fit"), ("predict", "--input"), ("predict", "--out"), ("fit", "--out"),
    ("fit", "--data"), ("lca-select", "--data"), ("simulate", "--config"), ("fit", "--config"),
    ("lca-select", "--config"),
])
def test_a_path_of_the_wrong_kind_exits_1_naming_it(cli_workspace, cli_fit, tmp_path, capsys,
                                                    command, flag):
    root, config, data_dir = cli_workspace
    options = {
        "predict": {"--fit": cli_fit[0], "--input": data_dir / "study_0.csv"},
        "fit": {"--config": config, "--data": data_dir, "--classes": "3"},
        "lca-select": {"--config": config, "--data": data_dir, "--classes": "2"},
        "simulate": {"--config": config, "--out": tmp_path / "out"},
    }[command]
    # a file where the data directory belongs, a directory where a file does
    options[flag] = data_dir / "study_0.csv" if flag == "--data" else tmp_path
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main([command, *(str(word) for option in options.items() for word in option)]) == 1
    assert printed.getvalue() == ""  # `fit --out` is refused before the fit, so no summary
    assert f"'{options[flag]}" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("parent, reason", [
    ("missing", "[Errno 2] No such file or directory"), ("a file", "[Errno 20] Not a directory"),
], ids=["missing", "a file"])
def test_an_out_whose_parent_is_not_a_directory_exits_1_before_the_read(
        cli_workspace, tmp_path, capsys, command, parent, reason):
    root, config, data_dir = cli_workspace
    out = (tmp_path / "absent" if parent == "missing" else data_dir / "study_0.csv") / "out"
    # the inputs are missing too: naming --out shows it was checked first
    inputs = {
        "fit": ["--config", config, "--data", str(tmp_path / "no data")],
        "predict": ["--fit", str(tmp_path / "no fit.json"), "--input", str(tmp_path / "no.csv")],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main([command, *inputs, "--out", str(out)]) == 1
    assert printed.getvalue() == ""
    assert _one_error_line(capsys) == f"error: {reason}: '{out}'"
    assert not out.parent.is_dir()


def test_config_errors_exit_2(tmp_path):
    bad = _write_config(tmp_path, {"scenario": {"nope": 1}})
    rc = main(["simulate", "--config", bad, "--out", str(tmp_path / "d")])
    assert rc == 2
    # missing --out
    ok = _write_config(tmp_path, {"scenario": dict(TINY_SCENARIO)}, "ok.json")
    for command in ("simulate", "experiment"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", ok])
        assert exc.value.code == 2


def _required_flags(command, tmp_path):
    """The required flags of `command`, naming paths that do not exist."""
    return {
        "simulate": ["--out", str(tmp_path / "out")],
        "fit": ["--data", str(tmp_path / "absent")],
        "experiment": ["--out", str(tmp_path / "out")],
        "lca-select": ["--data", str(tmp_path / "absent"), "--classes", "2"],
    }[command]


@pytest.mark.parametrize("block, key", [("tuning", "tau"), ("tuning", "fit_intercept"),
                                        ("lca", "tol"), ("lca", "max_iter")])
def test_a_block_naming_a_removed_setting_exits_2(tmp_path, capsys, block, key):
    config = _write_config(tmp_path, {"scenario": dict(TINY_SCENARIO), block: {key: 1}})
    for command in ("experiment", "fit"):
        assert main([command, *_required_flags(command, tmp_path), "--config", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"config error: {block}.{key} is not a recognized setting"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "experiment", "lca-select"])
def test_a_negative_seed_flag_exits_2_naming_the_flag(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *_required_flags(command, tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith("error: argument --seed: must be an integer >= 0, got '-1'"), err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, block",
    [("simulate", "scenario"), ("fit", "scenario"), ("fit", "tuning"), ("fit", "lca"),
     ("lca-select", "lca"), ("experiment", "scenario"), ("experiment", "tuning"),
     ("experiment", "lca")],
)
def test_a_negative_seed_in_a_block_exits_2_naming_the_block(tmp_path, capsys, command, block):
    payload = {"scenario": dict(TINY_SCENARIO)}
    payload[block] = {**payload.get(block, {}), "seed": -1}
    config = _write_config(tmp_path, payload)
    assert main([command, *_required_flags(command, tmp_path), "--config", config]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {block}: seed must be an integer >= 0, got -1"
    ]
    assert not (tmp_path / "out").exists()


def test_fit_on_outcomes_outside_the_family_exits_2_naming_the_data(tmp_path, capsys):
    config = _write_config(tmp_path, {"scenario": {**TINY_SCENARIO, "family": "gaussian"}})
    data = tmp_path / "gaussian"
    assert main(["simulate", "--config", config, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["fit", "--data", str(data), "--classes", "2"]) == 2
    y0 = float(read_study_csv(data / "study_0.csv", 0).outcomes[0])
    assert _one_error_line(capsys) == (
        f"error: {data}: study 0 outcomes[0] must be a real number in {{0, 1}}, got {y0!r}"
    )


@pytest.mark.parametrize("command", ["fit", "lca-select"])
def test_more_classes_than_subjects_exits_2_with_the_library_message(cli_workspace, capsys,
                                                                     command):
    root, config, data_dir = cli_workspace
    extra = ["2"] if command == "lca-select" else []
    assert main([command, "--config", config, "--data", str(data_dir),
                 "--classes", *extra, "400"]) == 2
    assert _one_error_line(capsys) == (
        f"error: {data_dir}: n_classes must be an integer in [1, 270], got 400"
    )


def test_a_per_class_penalty_of_the_wrong_length_exits_2_naming_it(cli_workspace, tmp_path,
                                                                   capsys):
    _, _, data_dir = cli_workspace
    config = _write_config(tmp_path, {
        "scenario": dict(TINY_SCENARIO), "lca": dict(TINY_LCA),
        "tuning": {**TINY_TUNING, "lambda_pool": [0.1, 0.2]},
    })
    assert main(["fit", "--config", config, "--data", str(data_dir),
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert _one_error_line(capsys) == (
        f"error: {data_dir}: per-class lambda_pool has 2 entries; the class count is 3"
    )
    assert not (tmp_path / "fit.json").exists()


def test_auto_penalties_on_a_single_valued_target_exit_2_naming_the_setting(cli_workspace,
                                                                            tmp_path, capsys):
    _, _, data_dir = cli_workspace
    data = tmp_path / "no-events"
    shutil.copytree(data_dir, data)
    target = data / "study_0.csv"
    header, *rows = target.read_text().splitlines()
    target.write_text("\n".join([header] + ["0" + r[r.index(","):] for r in rows]) + "\n")
    config = _write_config(tmp_path, {
        "scenario": dict(TINY_SCENARIO), "lca": dict(TINY_LCA),
        "tuning": {"cv_folds": 2, "cv_grid": [0.5, 2.0]},
    })
    assert main(["fit", "--config", config, "--data", str(data), "--classes", "2"]) == 2
    assert _one_error_line(capsys) == (
        f"error: {data}: every y of the bias stage is 0, so its logistic fit has no finite "
        "optimum; give lambda_bias=inf to freeze the stage"
    )


def test_cv_folds_the_target_cannot_fill_exit_2_naming_the_stage(cli_workspace, tmp_path,
                                                                 capsys, monkeypatch):
    # three events in the target cannot fill five folds with both outcome
    # values, which is known before the latent class fit
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_lca ran")

    monkeypatch.setattr(transfer, "fit_lca", no_fit)
    _, _, data_dir = cli_workspace
    data = tmp_path / "three-events"
    shutil.copytree(data_dir, data)
    target = data / "study_0.csv"
    header, *rows = target.read_text().splitlines()
    rows = [("1" if i < 3 else "0") + r[r.index(","):] for i, r in enumerate(rows)]
    target.write_text("\n".join([header] + rows) + "\n")
    config = _write_config(tmp_path, {
        "scenario": dict(TINY_SCENARIO), "lca": dict(TINY_LCA),
        "tuning": {"cv_folds": 5, "cv_grid": [0.5, 2.0]},
    })
    assert main(["fit", "--config", config, "--data", str(data), "--classes", "2"]) == 2
    assert _one_error_line(capsys) == (
        f"error: {data}: 'auto' tuning of lambda_bias cannot fill 5 CV folds from 3 events; "
        "lower cv_folds or give lambda_bias a numeric value"
    )


def test_a_failed_solve_in_fit_is_one_error_line(cli_workspace, tmp_path, capsys, monkeypatch):
    # a solve that fails on its stage's first pass has no previous state to
    # keep, so the fit stops; the CLI names the dataset, with no traceback
    real = transfer.solve_weighted_lasso_glm

    def failing(prob, init=None):
        raise SolverError("injected", real(prob, init=init))

    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", failing)
    _, config, data_dir = cli_workspace
    out = tmp_path / "fit.json"
    assert main(["fit", "--config", config, "--data", str(data_dir), "--out", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {data_dir}: injected"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, block, setting, message",
    [
        ("fit", "tuning", {"cv_grid": [float("nan"), 1.0]},
         "cv_grid multipliers[0] must be a real number in (0, inf), got nan"),
        ("fit", "tuning", {"cv_grid": [float("inf")]},
         "cv_grid multipliers[0] must be a real number in (0, inf), got inf"),
        ("fit", "tuning", {"cv_folds": 2.5}, "cv_folds must be an integer >= 2, got 2.5"),
        ("fit", "tuning", {"max_em_iter": 2.5}, "max_em_iter must be an integer >= 1, got 2.5"),
        ("fit", "lca", {"n_starts": 2.5}, "n_starts must be an integer >= 1, got 2.5"),
        ("lca-select", "lca", {"n_starts": True}, "n_starts must be an integer >= 1, got True"),
        ("simulate", "scenario", {"n0": 80.5}, "n0 must be an integer >= 1, got 80.5"),
        ("simulate", "scenario", {"p": 5.0}, "p must be an integer >= 1, got 5.0"),
        ("simulate", "scenario", {"K": True}, "K must be an integer >= 0, got True"),
        ("experiment", "scenario", {"support_sizes": [1, 2.5, 4]},
         "support_sizes[1] must be an integer in [0, 10], got 2.5"),
        ("fit", "tuning", {"lambda_pool": True},
         "lambda_pool values must be a real number in [0, inf], got True"),
        ("fit", "tuning", {"cv_grid": [True, 2.0]},
         "cv_grid multipliers[0] must be a real number in (0, inf), got True"),
        ("simulate", "scenario", {"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
        ("fit", "lca", {"seed": True}, "seed must be an integer >= 0, got True"),
        ("simulate", "scenario", {"h": float("nan")}, "h must be a real number in [0, inf), got nan"),
        ("simulate", "scenario", {"coef_value": "0.5"},
         "coef_value must be a real number in (-inf, inf), got '0.5'"),
        ("simulate", "scenario", {"dispersion": True},
         "dispersion must be a real number in (0, inf), got True"),
        ("fit", "tuning", {"lambda_bias": [0.1, "inf"]},
         "lambda_bias values[1] must be a real number in [0, inf], got 'inf'"),
        ("fit", "tuning", {"cv_grid": ["0.1", 1]},
         "cv_grid multipliers[0] must be a real number in (0, inf), got '0.1'"),
        ("simulate", "scenario", {"mixing": [[0.5, "0.3", 0.2], [0.4, 0.3, 0.3]]},
         "mixing[0, 1] must be a real number in (0, inf), got '0.3'"),
        ("experiment", "scenario",
         {"prevalences": [[0.1, 0.5, 0.9, 0.1, 0.5], [0.9, 0.1, 0.5, 0.9, True], [0.5] * 5]},
         "prevalences[1, 4] must be a real number in (0, 1), got True"),
        ("simulate", "scenario", {"prevalences": [[0.5] * 4] * 3},
         "explicit prevalences must be (C, q)"),
        ("simulate", "scenario", {"mixing": [[0.5, 0.3, 0.2]]}, "explicit mixing must be (K+1, C)"),
    ],
)
def test_a_bad_config_value_exits_2_naming_the_block(tmp_path, capsys, command, block, setting,
                                                     message):
    payload = {"scenario": dict(TINY_SCENARIO)}
    payload[block] = {**payload.get(block, {}), **setting}
    config = _write_config(tmp_path, payload)
    assert main([command, *_required_flags(command, tmp_path), "--config", config]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {block}: {message}"]
    assert not (tmp_path / "out").exists()


def test_lca_select_stars_the_smaller_class_count_on_a_bic_tie(cli_workspace, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(lca, "lca_bic", lambda model, data: 1234.5)
    _, config, data_dir = cli_workspace
    assert main(["lca-select", "--config", config, "--data", str(data_dir),
                 "--classes", "3", "2"]) == 0
    starred = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.endswith(" *")]
    assert starred == ["2"]


@pytest.mark.parametrize(
    "override, message",
    [
        ({"prevalence_preset": "nope"}, "unknown prevalence preset 'nope'"),
        ({"q": 4}, "but the scenario asks for C=3, q=4"),
        ({"K": 11}, "n_sources of mixing preset 'small_diff' must be an integer in [0, 10], got 11"),
        ({"n_classes": 2, "support_sizes": [1, 2], "prevalences": [[0.2] * 5, [0.8] * 5]},
         "preset 'small_diff' has 3 classes, but the scenario asks for C=2"),
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


def test_out_is_not_read_from_the_environment(tmp_path, monkeypatch, capsys):
    config = _write_config(tmp_path, {"scenario": dict(TINY_SCENARIO)})
    out_dir = tmp_path / "env_out"
    monkeypatch.setenv("TARGETED_PSM_OUT", str(out_dir))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", config])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert not out_dir.exists()


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

    # rerun without --resume/--force refuses to clobber, as an existing output
    before = (out / "rows.csv").read_bytes()
    rc = main(["experiment", "--config", config, "--out", str(out), "--seed", "3"])
    assert rc == 1
    assert _one_error_line(capsys) == (f"error: {out / 'rows.csv'} already exists; pass "
                                       "--resume to continue it or --force to start over")
    assert (out / "rows.csv").read_bytes() == before

    # --resume with everything done adds nothing and keeps rows identical
    rc = main(["experiment", "--config", config, "--out", str(out),
               "--seed", "3", "--resume"])
    assert rc == 0
    assert (out / "rows.csv").read_bytes() == before


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
        (HEADER + "\nK1,naive\xff", "rows.csv: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["empty", "no-error-column", "extra-column", "mse-auc-swapped", "not-utf-8"],
)
def test_experiment_resume_rejects_a_foreign_header(experiment_config, tmp_path, capsys,
                                                    text, message):
    _, config = experiment_config
    rows_path = tmp_path / "rows.csv"
    data = text.encode("latin-1")  # "\xff" is the one byte 0xff, not UTF-8 text
    rows_path.write_bytes(data)
    rc = main(["experiment", "--config", config, "--out", str(tmp_path), "--resume"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert rows_path.read_bytes() == data
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
    "experiment, message",
    [
        ({"replicates": "abc"}, "experiment.replicates must be an integer"),
        ({"replicates": 0}, "experiment.replicates must be an integer"),
        ({"replicates": 2.5}, "experiment.replicates must be an integer"),
        ({"test_n": 0}, "experiment.test_n must be an integer"),
        ({"test_n": True}, "experiment.test_n must be an integer"),
        ({"max_failure_rate": 0.2}, "experiment.max_failure_rate is not a recognized setting"),
    ],
)
def test_experiment_rejects_bad_counts(tmp_path, capsys, experiment, message):
    payload = {"scenario": dict(TINY_SCENARIO), "experiment": experiment}
    config = _write_config(tmp_path, payload)
    out = tmp_path / "exp"
    rc = main(["experiment", "--config", config, "--out", str(out)])
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


def test_experiment_outputs_do_not_depend_on_fan_out(experiment_config, tmp_path, cpus):
    """The same rows.csv (apart from runtime_s) and summary.csv bytes on
    four pretend CPUs and with every fan_out serial."""
    _, config = experiment_config
    outputs = []
    for name in ("four", "serial"):
        if name == "serial":
            cpus(1)
        out = tmp_path / name
        rc = main(["experiment", "--config", config, "--out", str(out), "--seed", "5"])
        assert rc == 0
        rows = [replace(r, runtime_s=None) for r in read_report_rows(out / "rows.csv")]
        outputs.append((rows, (out / "summary.csv").read_bytes()))
    assert len(outputs[0][0]) == 8
    assert outputs[0] == outputs[1]


def test_predict_help_says_the_outcome_is_read_but_not_scored(capsys):
    # a non-finite y is refused (the "inf outcome" case above), so it is not ignored
    with pytest.raises(SystemExit):
        main(["predict", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "y must be a real number" in text and "does not enter the scores" in text
    assert "ignored" not in text


def test_help_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([])
