"""The README's code blocks hold as written: the Python quick start runs,
every `targeted-psm` line of the command-line block parses with the CLI's
own parser, and the config schema passes every block reader of
`load_config`.  A renamed function, flag or config field fails here
instead of leaving the README stale."""

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


def test_the_config_schema_passes_every_block_reader(tmp_path):
    (schema,) = _blocks("json")
    path = tmp_path / "config.json"
    path.write_text(schema)
    config = cli.load_config(path)
    assert set(config) == {"scenario", "methods", "tuning", "lca", "experiment"}
    scenario = cli.scenario_from_config(config)
    for name in ("n0", "prevalences", "mixing"):
        assert getattr(scenario, name) == config["scenario"][name]
    assert cli.transfer_from_config(config).cv_folds == config["tuning"]["cv_folds"]
    assert cli.lca_from_config(config).n_starts == config["lca"]["n_starts"]
    assert [m.value for m in cli.methods_from_config(config)] == config["methods"]
    ids = [entry["id"] for entry in config["experiment"]["scenarios"]]
    assert [sid for sid, _ in cli.experiment_scenarios(config)] == ids
