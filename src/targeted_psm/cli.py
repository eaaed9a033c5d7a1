"""Command-line interface.

Subcommands
    simulate      draw a synthetic multi-study dataset and write it to disk
    fit           run the two-step procedure on a dataset directory
    predict       score new subjects with a saved fit
    experiment    paired method comparison over seeded replicates
    lca-select    BIC table over candidate class counts

Configuration is a single JSON file with optional blocks:

    {
      "scenario":   { "preset": "figure1-mini", ...ScenarioConfig fields },
      "methods":    ["targeted_psm", "naive_lasso", ...],
      "tuning":     { ...TransferConfig fields },
      "lca":        { ...LcaFitConfig fields },
      "experiment": { "replicates": 20, "test_n": 500,
                      "max_failure_rate": 0.2,
                      "scenarios": [{"id": "K2", "K": 2}, ...] }
    }

Precedence for shared settings: command-line flag > config file > default.
Environment overrides: TARGETED_PSM_OUT supplies --out when the flag is
absent, TARGETED_PSM_THREADS supplies --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import MethodId
from .core import load_collection, read_study_csv
from .evaluate import (
    read_report_rows,
    run_experiment,
    write_report_rows,
    ExperimentReport,
)
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

ENV_OUT = "TARGETED_PSM_OUT"
ENV_THREADS = "TARGETED_PSM_THREADS"


class ConfigError(ValueError):
    """A configuration file problem, reported with the offending field."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
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
    return payload


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
    reported as a ConfigError that names the block; `seed` overrides the
    block's seed.
    """
    allowed = {f.name for f in dataclasses.fields(cls)}
    if cls is ScenarioConfig and base is None:
        allowed.add("preset")
    settings = {k: _tuples(v) for k, v in _checked_block(name, block, allowed).items()}
    preset = settings.pop("preset", None)
    if seed is not None:
        settings["seed"] = seed
    try:
        if base is not None:
            return replace(base, **settings)
        if preset:
            return scenario_preset(preset, **settings)
        return cls(**settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def scenario_from_config(config: dict, seed: int = None) -> ScenarioConfig:
    return _config_block("scenario", config.get("scenario", {}), ScenarioConfig, seed)


def transfer_from_config(config: dict, seed: int = None) -> TransferConfig:
    return _config_block("tuning", config.get("tuning", {}), TransferConfig, seed)


def lca_from_config(config: dict, seed: int = None) -> LcaFitConfig:
    return _config_block("lca", config.get("lca", {}), LcaFitConfig, seed)


def methods_from_config(config: dict) -> list:
    names = config.get("methods", [m.value for m in MethodId])
    if not isinstance(names, list) or not names:
        raise ConfigError("methods must be a non-empty JSON list of method names")
    out = []
    for name in names:
        try:
            out.append(MethodId(name))
        except ValueError as exc:
            raise ConfigError(
                f"methods: {name!r} is unknown "
                f"(choose from {[m.value for m in MethodId]})"
            ) from exc
    return out


def experiment_scenarios(config: dict, seed: int = None) -> list:
    """(scenario_id, ScenarioConfig) pairs: the base scenario block combined
    with per-entry overrides from experiment.scenarios."""
    base = scenario_from_config(config, seed)
    block = _checked_block(
        "experiment", config.get("experiment", {}),
        {"replicates", "test_n", "scenarios", "max_failure_rate"},
    )
    entries = block.get("scenarios")
    if entries is None:
        return [("scenario", base)]
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
        out.append((sid, _config_block(name, overrides, ScenarioConfig, base=base)))
    return out


def _experiment_counts(block: dict, replicates: int = None):
    """(replicates, test_n, max_failure_rate) from a checked experiment
    block; the --replicates flag, when given, wins over the block."""
    if replicates is None:
        replicates_name, replicates = "experiment.replicates", block.get("replicates", 20)
    else:
        replicates_name = "--replicates"
    counts = {replicates_name: replicates, "experiment.test_n": block.get("test_n", 500)}
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    rate = block.get("max_failure_rate", 0.2)
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 <= rate <= 1:
        raise ConfigError(
            f"experiment.max_failure_rate must be a number in [0, 1], got {rate!r}"
        )
    return (*counts.values(), float(rate))


# ---------------------------------------------------------------------------
# Shared flag plumbing
# ---------------------------------------------------------------------------


def _resolve_out(args, required: bool = True):
    out = args.out or os.environ.get(ENV_OUT)
    if out is None and required:
        raise ConfigError(f"--out is required (or set {ENV_OUT})")
    return None if out is None else Path(out)


def _resolve_threads(args) -> int:
    raw = args.threads if args.threads is not None else os.environ.get(ENV_THREADS)
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ConfigError(f"--threads/{ENV_THREADS} must be an integer") from exc
    if threads < 1:
        raise ConfigError("--threads must be >= 1")
    return threads


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.preset is not None:
        config = dict(config)
        scen = dict(config.get("scenario", {}))
        scen["preset"] = args.preset
        config["scenario"] = scen
    scenario = scenario_from_config(config, args.seed)
    out = _resolve_out(args)
    collection, truth = generate_scenario(scenario)
    manifest = write_dataset(collection, truth, out, force=args.force)
    print(f"wrote {scenario.K + 1} studies ({collection.n_total} subjects) to {out}")
    print(f"manifest: {manifest}")
    return 0


def _cmd_fit(args) -> int:
    config = load_config(args.config)
    scenario = scenario_from_config(config)
    transfer_cfg = transfer_from_config(config, args.seed)
    lca_cfg = lca_from_config(config, args.seed)
    n_classes = scenario.n_classes if args.classes is None else args.classes
    family = scenario.glm_family()
    data = load_collection(Path(args.data) / "manifest.json")

    fit = fit_targeted_psm(
        data, n_classes, config=transfer_cfg, family=family, lca_config=lca_cfg
    )

    nnz = (fit.b_target.values != 0).sum(axis=0)
    print(f"classes: {fit.n_classes}   family: {family.kind}")
    print(f"lambda_pool: {np.array2string(fit.lambda_pool, precision=6)}")
    print(f"lambda_bias: {np.array2string(fit.lambda_bias, precision=6)}")
    print(
        f"EM iterations: pooling={fit.n_iter_joint} correction={fit.n_iter_bias}"
    )
    if fit.trace_joint:
        print(f"final pooling objective: {fit.trace_joint[-1]:.6f}")
    if fit.trace_bias:
        print(f"final correction objective: {fit.trace_bias[-1]:.6f}")
    print("nonzero coefficients per class:", " ".join(str(int(v)) for v in nnz))
    if args.verbose:
        print("class mixing (target row):", np.array2string(
            fit.lca_model.mixing[0], precision=4))
    out = _resolve_out(args, required=False)
    if out is not None:
        save_transfer_fit(fit, out)
        print(f"saved fit to {out}")
    return 0


def _cmd_predict(args) -> int:
    fit = load_transfer_fit(args.fit)
    study = read_study_csv(args.input, study_id=0)
    expected = (fit.b_target.n_features, fit.lca_model.n_structure_vars)
    if (study.p, study.q) != expected:
        raise ConfigError(
            f"input has p={study.p}, q={study.q}; the fit expects "
            f"p={expected[0]}, q={expected[1]}"
        )
    scores = predict_risk(fit, study.predictors, study.structure_vars)
    out = _resolve_out(args, required=False)
    if out is None:
        for s in np.atleast_1d(scores):
            print(f"{s:.17g}")
    else:
        np.savetxt(out, np.atleast_1d(scores), fmt="%.17g", header="score", comments="")
        print(f"wrote {np.atleast_1d(scores).size} scores to {out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    scenarios = experiment_scenarios(config, seed=None)  # also checks the block
    replicates, test_n, max_failure_rate = _experiment_counts(
        config.get("experiment", {}), args.replicates
    )
    seed = args.seed if args.seed is not None else 0
    methods = methods_from_config(config)
    transfer_cfg = transfer_from_config(config)
    lca_cfg = lca_from_config(config) if "lca" in config else None
    threads = _resolve_threads(args)
    out = _resolve_out(args)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "rows.csv"
    summary_path = out / "summary.csv"

    completed = set()
    if rows_path.exists():
        if args.force:
            rows_path.unlink()
        elif args.resume:
            try:
                previous = read_report_rows(rows_path)
            except ValueError as exc:
                raise ConfigError(f"cannot resume: {exc}") from exc
            completed = {(r.scenario, r.replicate) for r in previous}
            log.info("resuming: %d replicates already done", len(completed))
        else:
            raise ConfigError(
                f"{rows_path} already exists; pass --resume to continue it "
                "or --force to start over"
            )

    total = len(scenarios) * replicates - len(completed)
    done = [0]

    def sink(rows):
        write_report_rows(rows_path, rows, append=True)
        done[0] += 1
        log.info(
            "replicate %d/%d done (%s)", done[0], total,
            ", ".join(sorted({r.scenario for r in rows})),
        )

    failure = None
    try:
        run_experiment(
            scenarios,
            [m.value for m in methods],
            replicates=replicates,
            test_n=test_n,
            n_jobs=threads,
            master_seed=seed,
            transfer_config=transfer_cfg,
            lca_config=lca_cfg,
            completed=completed,
            row_sink=sink,
            max_failure_rate=max_failure_rate,
        )
    except RuntimeError as exc:  # the failure-rate guard; every row is in rows.csv
        failure = exc

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
    config = load_config(args.config)
    data = load_collection(Path(args.data) / "manifest.json")
    lca_cfg = lca_from_config(config, args.seed)
    rows = select_classes_bic(data, args.classes, lca_cfg)
    best = min(rows, key=lambda r: r["bic"])
    print(f"{'C':>3} {'log_lik':>14} {'n_params':>9} {'BIC':>14} converged")
    for row in rows:
        star = " *" if row is best else ""
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targeted-psm",
        description="Subpopulation-matched transfer learning across studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help=None, config=True):
        """-v everywhere; --config/--seed and --out only where they are read."""
        if config:
            p.add_argument("--config", help="JSON configuration file")
            p.add_argument("--seed", type=int, help="override the config seed")
        if out_help is not None:
            p.add_argument("--out", help=out_help)
        p.add_argument(
            "-v", "--verbose", action="store_true", help="more progress output"
        )

    p = sub.add_parser("simulate", help="draw and save a synthetic dataset")
    add_common(p, "output directory for the dataset")
    p.add_argument("--preset", help="scenario preset name (overrides config)")
    p.add_argument(
        "--force", action="store_true", help="overwrite an existing dataset"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the two-step procedure on a dataset")
    add_common(p, "path for the saved fit JSON (optional)")
    p.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p.add_argument("--classes", type=int, help="number of latent classes")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="score new subjects with a saved fit")
    add_common(p, "CSV path for scores (default: print to stdout)", config=False)
    p.add_argument("--fit", required=True, help="saved fit JSON")
    p.add_argument(
        "--input", required=True,
        help="study CSV (y,x*,z* header; the y column is ignored)",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("experiment", help="paired method comparison")
    add_common(p, "output directory for rows.csv / summary.csv")
    p.add_argument("--replicates", type=int, help="override experiment.replicates")
    p.add_argument("--threads", help=f"worker processes (or {ENV_THREADS})")
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
        "--classes", type=int, nargs="+", required=True,
        help="candidate class counts, e.g. --classes 1 2 3 4",
    )
    p.set_defaults(func=_cmd_lca_select)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
