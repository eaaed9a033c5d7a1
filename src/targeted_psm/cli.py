"""Command-line interface.

Subcommands
    simulate      draw a synthetic multi-study dataset and write it to disk
    fit           run the two-step procedure on a dataset directory
    predict       score new subjects with a saved fit
    experiment    paired method comparison over seeded replicates
    lca-select    BIC table over candidate class counts

Configuration is a single JSON file of optional blocks: "scenario"
(ScenarioConfig fields or a preset), "methods", "tuning" (TransferConfig),
"lca" (LcaFitConfig) and "experiment"; the README's "Command line" section
states the schema, the flags and the exit codes.  Every subcommand with
--config reads the file through `load_config`, which checks every block,
read by the subcommand or not, before anything is written or fitted.
`--seed` replaces the seed of every block, and `experiment` also takes it
as its master seed (default 0).

`fit` and `lca-select` leave to the library whether a dataset can be fitted
with the run's settings (outcomes that suit the family, a class count at
most the subject count, penalties the stages can serve); `_run_on_data`
turns its refusal into a DataError naming the data directory.

No subcommand keeps a pool of worker processes: `experiment` runs its
replicates one after another, and the latent class restarts and the CSV
I/O run on every CPU of the affinity mask through `_parallel.fan_out` (the
dataset read of `fit` and `lca-select` is one fan_out over every study
file).
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import MethodId
from .core import check_count, load_collection, read_study_csv, write_scores_csv
from .evaluate import (
    read_report_rows,
    run_experiment,
    write_report_rows,
    ExperimentReport,
)
from .glm import SolverError
from .lca import LcaFitConfig, select_classes_bic
from .simulate import (
    ScenarioConfig,
    generate_scenario,
    scenario_preset,
    write_dataset,
)
from .transfer import (
    TransferConfig,
    fit_targeted_psm,
    load_transfer_fit,
    predict_risk,
    save_transfer_fit,
)

log = logging.getLogger("targeted_psm")


class ConfigError(ValueError):
    """A configuration file problem, reported with the offending field."""


class DataError(ValueError):
    """A dataset or input file that cannot be read, or that does not fit the
    run's settings, reported with its path."""


def _read_data(read, *args, **kwargs):
    """read(*args, **kwargs), with a ValueError (a malformed manifest, study
    CSV or fit file, whose message names the file) turned into a
    DataError."""
    try:
        return read(*args, **kwargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _run_on_data(data_dir, run, *args, **kwargs):
    """run(data, *args, **kwargs) on the dataset in `data_dir`.  A ValueError
    from `run` (a dataset the run's settings cannot fit, in the library's
    words) becomes a DataError that names `data_dir`."""
    data = _read_data(load_collection, Path(data_dir) / "manifest.json")
    try:
        return run(data, *args, **kwargs)
    except ValueError as exc:
        raise DataError(f"{data_dir}: {exc}") from exc


def _check_output_file(path) -> None:
    """Raise, without creating anything, the OSError that writing the file
    `path` would raise when `path` is a directory or its parent is not one,
    so a run that cannot save its result stops before it reads its input."""
    path = Path(path)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Every block of a config file, built and checked by `load_config`."""

    scenario: ScenarioConfig
    scenarios: tuple  # the experiment's (scenario_id, ScenarioConfig) pairs
    methods: tuple  # MethodIds, each once
    transfer: TransferConfig  # the "tuning" block
    lca: LcaFitConfig
    replicates: int  # experiment.replicates
    test_n: int  # experiment.test_n


def _tuples(value):
    """A JSON value with every list (nested ones too) turned into a tuple."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def _checked_block(name: str, block, allowed) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"{name}.{key} is not a recognized setting "
                f"(choose from {sorted(allowed)})"
            )
    return block


def _config_block(name: str, block, cls, seed: int = None, base=None):
    """Build the dataclass `cls` from one JSON config block.

    The block must be an object whose keys are fields of `cls` (a scenario
    block without `base` may also name a "preset"); lists become tuples.
    With `base` the block overrides it through `replace`.  A bad value is
    reported as a ConfigError that names the block; `seed` replaces the
    block's seed once the block itself has been checked.
    """
    allowed = {f.name for f in fields(cls)}
    if cls is ScenarioConfig and base is None:
        allowed.add("preset")
    settings = {k: _tuples(v) for k, v in _checked_block(name, block, allowed).items()}
    preset = settings.pop("preset", None)
    try:
        if base is not None:
            built = replace(base, **settings)
        elif preset:
            built = scenario_preset(preset, **settings)
        else:
            built = cls(**settings)
        return built if seed is None else replace(built, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _methods(names) -> tuple:
    if not isinstance(names, list) or not names:
        raise ConfigError("methods must be a non-empty JSON list of method names")
    out = []
    for name in names:
        try:
            method = MethodId(name)
        except ValueError as exc:
            raise ConfigError(
                f"methods: {name!r} is unknown "
                f"(choose from {[m.value for m in MethodId]})"
            ) from exc
        if method in out:
            raise ConfigError(f"methods: {name!r} is named twice")
        out.append(method)
    return tuple(out)


def _experiment_scenarios(entries, base: ScenarioConfig, seed) -> tuple:
    """(scenario_id, ScenarioConfig) pairs: the base scenario combined with
    each entry of experiment.scenarios (None: the base alone)."""
    if entries is None:
        return (("scenario", base),)
    if not isinstance(entries, list) or not entries:
        raise ConfigError("experiment.scenarios must be a non-empty JSON list")
    out, seen = [], set()
    for i, entry in enumerate(entries):
        name = f"experiment.scenarios[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"{name} must be an object with an 'id'")
        sid = str(entry["id"])
        if sid in seen:
            raise ConfigError(f"{name}: duplicate id {sid!r}")
        seen.add(sid)
        overrides = {k: v for k, v in entry.items() if k != "id"}
        out.append((sid, _config_block(name, overrides, ScenarioConfig, seed, base=base)))
    return tuple(out)


def load_config(path, seed: int = None) -> RunConfig:
    """The config file at `path` (None: every block at its defaults) as a
    RunConfig.  Every block is built and checked, in the order scenario,
    methods, tuning, lca, experiment, and the first bad one is a
    ConfigError that names it.  `seed` replaces the seed of every block
    once the block's own seed has been checked."""
    payload = {}
    if path is not None:
        # An OSError (a missing file, a directory) exits 1, as for every other path.
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must contain a JSON object at top level")
    known = {"scenario", "methods", "tuning", "lca", "experiment"}
    for key in payload:
        if key not in known:
            raise ConfigError(
                f"{key} is not a recognized config block (choose from {sorted(known)})"
            )
    scenario = _config_block("scenario", payload.get("scenario", {}), ScenarioConfig, seed)
    methods = _methods(payload.get("methods", [m.value for m in MethodId]))
    transfer = _config_block("tuning", payload.get("tuning", {}), TransferConfig, seed)
    lca = _config_block("lca", payload.get("lca", {}), LcaFitConfig, seed)
    experiment = _checked_block("experiment", payload.get("experiment", {}),
                                {"replicates", "test_n", "scenarios"})
    scenarios = _experiment_scenarios(experiment.get("scenarios"), scenario, seed)
    counts = {"experiment.replicates": experiment.get("replicates", 20),
              "experiment.test_n": experiment.get("test_n", 500)}
    try:
        for name, value in counts.items():
            check_count(name, value, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(scenario, scenarios, methods, transfer, lca, *counts.values())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scenario = load_config(args.config, args.seed).scenario
    collection, truth = generate_scenario(scenario)
    manifest = write_dataset(collection, truth, args.out, force=args.force)
    print(f"wrote {scenario.K + 1} studies ({collection.n_total} subjects) to {args.out}")
    print(f"manifest: {manifest}")
    return 0


def _cmd_fit(args) -> int:
    config = load_config(args.config, args.seed)
    n_classes = config.scenario.n_classes if args.classes is None else args.classes
    family = config.scenario.glm_family()
    if args.out is not None:
        _check_output_file(args.out)
    try:
        fit = _run_on_data(
            args.data, fit_targeted_psm, n_classes,
            config=config.transfer, family=family, lca_config=config.lca,
        )
    except SolverError as exc:  # the method itself failed on this dataset
        print(f"error: {args.data}: {exc}", file=sys.stderr)
        return 1

    nnz = (fit.b_target.values != 0).sum(axis=0)
    print(f"classes: {fit.n_classes}   family: {family.kind}")
    print(f"lambda_pool: {np.array2string(fit.lambda_pool, precision=6)}")
    print(f"lambda_bias: {np.array2string(fit.lambda_bias, precision=6)}")
    print(
        f"EM iterations: pooling={fit.n_iter_joint} correction={fit.n_iter_bias}"
    )
    print(f"final pooling objective: {fit.trace_joint[-1]:.6f}")
    print(f"final correction objective: {fit.trace_bias[-1]:.6f}")
    print("nonzero coefficients per class:", " ".join(str(int(v)) for v in nnz))
    if args.verbose:
        print("class mixing (target row):", np.array2string(
            fit.lca_model.mixing[0], precision=4))
    if args.out is not None:
        save_transfer_fit(fit, args.out)
        print(f"saved fit to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    if args.out is not None:
        _check_output_file(args.out)
    fit = _read_data(load_transfer_fit, args.fit)
    study = _read_data(read_study_csv, args.input, study_id=0)
    expected = (fit.b_target.n_features, fit.lca_model.n_structure_vars)
    if (study.p, study.q) != expected:
        raise DataError(
            f"{args.input}: p={study.p}, q={study.q}; the fit expects "
            f"p={expected[0]}, q={expected[1]}"
        )
    scores = predict_risk(fit, study.predictors, study.structure_vars)
    if args.out is None:
        for s in np.atleast_1d(scores):
            print(f"{s:.17g}")
    else:
        write_scores_csv(scores, args.out)
        print(f"wrote {np.atleast_1d(scores).size} scores to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    rows_path = args.out / "rows.csv"
    summary_path = args.out / "summary.csv"

    previous = []
    if rows_path.exists():
        if args.force:
            rows_path.unlink()
        elif args.resume:
            try:
                previous = read_report_rows(rows_path)
            except ValueError as exc:
                raise ConfigError(f"cannot resume: {exc}") from exc
            log.info("resuming: %d rows already written", len(previous))
        else:
            raise FileExistsError(
                f"{rows_path} already exists; pass --resume to continue it "
                "or --force to start over"
            )

    def sink(rows):
        write_report_rows(rows_path, rows, append=True)
        log.info("%s: replicate %d/%d done",
                 rows[0].scenario, rows[0].replicate + 1, config.replicates)

    failure = None
    try:
        run_experiment(
            config.scenarios,
            config.methods,
            replicates=config.replicates,
            test_n=config.test_n,
            master_seed=0 if args.seed is None else args.seed,
            transfer_config=config.transfer,
            lca_config=config.lca,
            previous=previous,
            row_sink=sink,
        )
    except RuntimeError as exc:  # the failure-rate guard; every row is in rows.csv
        failure = exc
    except ValueError as exc:  # load_config checked the rest: rows this run would not write
        raise ConfigError(f"cannot resume: {exc}") from exc

    report = ExperimentReport(rows=tuple(read_report_rows(rows_path)))
    report.summary_to_csv(summary_path)
    print(f"rows: {rows_path}")
    print(f"summary: {summary_path}")
    header = f"{'scenario':<12} {'method':<16} {'K':>3} {'ok':>3} " \
             f"{'mse':>12} {'(se)':>10} {'auc':>8} {'(se)':>8}"
    print(header)
    for s in report.summarize():
        mse = "-" if s.mse_mean is None else f"{s.mse_mean:.6f}"
        mse_se = "-" if s.mse_se is None else f"{s.mse_se:.6f}"
        auc_m = "-" if s.auc_mean is None else f"{s.auc_mean:.4f}"
        auc_se = "-" if s.auc_se is None else f"{s.auc_se:.4f}"
        print(
            f"{s.scenario:<12} {s.method:<16} {s.n_sources:>3} {s.n_ok:>3} "
            f"{mse:>12} {mse_se:>10} {auc_m:>8} {auc_se:>8}"
        )
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_lca_select(args) -> int:
    lca_cfg = load_config(args.config, args.seed).lca
    rows = _run_on_data(args.data, select_classes_bic, args.classes, lca_cfg)
    print(f"{'C':>3} {'log_lik':>14} {'n_params':>9} {'BIC':>14} converged")
    for row in rows:
        star = " *" if row["selected"] else ""
        print(
            f"{row['n_classes']:>3} {row['log_lik']:>14.4f} "
            f"{row['n_params']:>9} {row['bic']:>14.4f} "
            f"{str(row['converged']):<5}{star}"
        )
    print(
        "note: BIC is a practical heuristic for picking the class count; "
        "it carries no recovery guarantee."
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _integer_at_least(minimum: int):
    """An argparse type: an integer >= minimum (1 for a class count, 0 for a
    seed)."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targeted-psm",
        description="Subpopulation-matched transfer learning across studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help=None, config=True, out_required=False):
        """--config/--seed and --out, each only where it is read."""
        if config:
            p.add_argument("--config", help="JSON configuration file")
            p.add_argument("--seed", type=_integer_at_least(0), help="override the config seed")
        if out_help is not None:
            p.add_argument("--out", type=Path, required=out_required, help=out_help)

    p = sub.add_parser("simulate", help="draw and save a synthetic dataset")
    add_common(p, "output directory for the dataset", out_required=True)
    p.add_argument(
        "--force", action="store_true", help="overwrite an existing dataset"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the two-step procedure on a dataset")
    add_common(p, "path for the saved fit JSON (optional)")
    p.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p.add_argument("--classes", type=_integer_at_least(1), help="number of latent classes")
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print the target study's class mixing",
    )
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="score new subjects with a saved fit")
    add_common(p, "CSV path for scores (default: print to stdout)", config=False)
    p.add_argument("--fit", required=True, help="saved fit JSON")
    p.add_argument(
        "--input", required=True,
        help="study CSV (y,x*,z* header; y must be a real number and does not enter the scores)",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("experiment", help="paired method comparison")
    add_common(p, "output directory for rows.csv / summary.csv", out_required=True)
    p.add_argument(
        "--resume", action="store_true",
        help="skip replicates already present in rows.csv",
    )
    p.add_argument(
        "--force", action="store_true", help="discard an existing rows.csv"
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("lca-select", help="BIC table over class counts")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p.add_argument(
        "--classes", type=_integer_at_least(1), nargs="+", required=True,
        help="candidate class counts, e.g. --classes 1 2 3 4",
    )
    p.set_defaults(func=_cmd_lca_select)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input or output path: missing, existing, of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
