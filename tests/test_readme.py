"""The README's code blocks hold as written: the Python quick start runs,
every `targeted-psm` line of the command-line block parses with the CLI's
own parser, and the config schema loads through `cli.load_config` into the
RunConfig fields it names.  A renamed function, flag or config field fails
here instead of leaving the README stale."""

import json
import re
import shlex
from pathlib import Path

from targeted_psm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    """The bodies of the README's fenced blocks of `language`, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_the_quick_start_runs_as_written(capsys):
    (quick_start,) = _blocks("python")
    namespace = {}
    exec(compile(quick_start, str(README), "exec"), namespace)
    assert namespace["scores"].shape == (500,)
    assert capsys.readouterr().out.startswith("(50, 3)\n")


def test_every_command_line_parses():
    commands = [shlex.split(line, comments=True)
                for block in _blocks("bash") for line in block.splitlines()
                if line.startswith("targeted-psm ")]
    assert {words[1] for words in commands} == {
        "simulate", "lca-select", "fit", "predict", "experiment"}
    for words in commands:
        assert cli.build_parser().parse_args(words[1:]).command == words[1]


def test_the_config_schema_loads_into_every_run_config_field(tmp_path):
    (schema,) = _blocks("json")
    path = tmp_path / "config.json"
    path.write_text(schema)
    written = json.loads(schema)
    assert set(written) == {"scenario", "methods", "tuning", "lca", "experiment"}
    run = cli.load_config(path)
    for name in ("n0", "prevalences", "mixing"):
        assert getattr(run.scenario, name) == written["scenario"][name]
    assert run.transfer.cv_folds == written["tuning"]["cv_folds"]
    assert run.lca.n_starts == written["lca"]["n_starts"]
    assert [m.value for m in run.methods] == written["methods"]
    experiment = written["experiment"]
    assert [sid for sid, _ in run.scenarios] == [entry["id"] for entry in experiment["scenarios"]]
    assert [s.K for _, s in run.scenarios] == [entry["K"] for entry in experiment["scenarios"]]
    assert (run.replicates, run.test_n) == (experiment["replicates"], experiment["test_n"])
