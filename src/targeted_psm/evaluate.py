"""Evaluation: class alignment, coefficient error, AUC, and the paired
replicate harness that compares methods on simulated scenarios, fitting
each of them through `baselines.fit_method`.

The experiment CSVs take their schema from the record dataclasses alone:
rows.csv has one column per ReportRow field and summary.csv one per
SummaryRow field, in declaration order, each cell formatted and parsed by
its field's annotation."""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._rng import substream
from .baselines import MethodId, fit_method
from .core import CoefficientMatrix, check_count, check_real, first_best
from .lca import LcaFitConfig
from .simulate import ScenarioConfig, generate_scenario, generate_target_test
from .transfer import TransferConfig


class UndefinedMetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


MAX_ALIGN_CLASSES = 8

MAX_FAILURE_RATE = 0.2  # share of failed method-replicates run_experiment allows


def _as_values(mat) -> np.ndarray:
    if isinstance(mat, CoefficientMatrix):
        return mat.values
    return np.asarray(mat, dtype=float)


def align_classes(estimate, truth):
    """Best column permutation of `estimate` against `truth` by exhaustive
    search over the squared Frobenius distance, picked by core.first_best
    (the first permutation in lexicographic order on a tie).  Returns
    (perm, aligned) with aligned[:, j] = estimate[:, perm[j]]."""
    E = _as_values(estimate)
    T = _as_values(truth)
    if E.shape != T.shape:
        raise ValueError("estimate and truth must have the same shape")
    C = E.shape[1]
    if C > MAX_ALIGN_CLASSES:
        raise ValueError(f"alignment is exhaustive; C must be <= {MAX_ALIGN_CLASSES}")
    perms = list(itertools.permutations(range(C)))
    costs = [float(np.sum(np.square(E[:, perm] - T))) for perm in perms]
    best_perm = perms[first_best(costs)]
    return best_perm, E[:, best_perm]


def _aligned_mse(aligned: np.ndarray, truth: np.ndarray) -> float:
    p, C = truth.shape
    return float(np.sum(np.square(aligned - truth))) / (p * C)


def coef_mse(estimate, truth) -> float:
    """Mean squared coefficient error after class alignment:
    ||aligned - truth||_F^2 / (p * C)."""
    _, aligned = align_classes(estimate, truth)
    return _aligned_mse(aligned, _as_values(truth))


def auc(scores, labels) -> float:
    """Area under the ROC curve: P(score+ > score-) + P(tie)/2, computed
    exactly from average ranks (ties handled, all-tied scores give 0.5).
    Scores must be finite and labels 0 or 1."""
    check_real("scores", scores, "(-inf, inf)")
    check_real("labels", labels, "{0, 1}")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d of equal length")
    n = labels.size
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both label classes present")
    _, group, count = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.cumsum(count) - count  # 0-based rank of each tie group's first score
    ranks = (first + 0.5 * (count + 1))[group]  # average of the group's 1-based ranks
    rank_sum_pos = float(ranks[labels == 1.0].sum())
    u = rank_sum_pos - 0.5 * n_pos * (n_pos + 1)
    return u / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Replicate harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One method x replicate result; its fields, in order, are the columns
    of rows.csv."""

    scenario: str
    method: str
    replicate: int
    seed: int
    n_sources: int
    mse: float = None
    auc: float = None
    runtime_s: float = None
    permutation: tuple = None
    error: str = None


@dataclass(frozen=True)
class SummaryRow:
    """One (scenario, method, n_sources) group of ReportRows; its fields, in
    order, are the columns of summary.csv."""

    scenario: str
    method: str
    n_sources: int
    n_ok: int
    n_fail: int
    mse_mean: float = None
    mse_se: float = None
    auc_mean: float = None
    auc_se: float = None


def _mean_se(values):
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return None, None
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else None
    return mean, se


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple

    def summarize(self) -> list:
        groups = {}
        for row in self.rows:
            groups.setdefault((row.scenario, row.method, row.n_sources), []).append(row)
        out = []
        for (scenario, method, n_sources), rows in groups.items():
            ok = [r for r in rows if r.error is None]
            mse_mean, mse_se = _mean_se([r.mse for r in ok if r.mse is not None])
            auc_mean, auc_se = _mean_se([r.auc for r in ok if r.auc is not None])
            out.append(
                SummaryRow(
                    scenario=scenario, method=method, n_sources=n_sources,
                    n_ok=len(ok), n_fail=len(rows) - len(ok),
                    mse_mean=mse_mean, mse_se=mse_se,
                    auc_mean=auc_mean, auc_se=auc_se,
                )
            )
        return out

    def summary_to_csv(self, path) -> None:
        _write_csv(path, SummaryRow, self.summarize(), append=False)


# Cell codecs keyed by a record field's annotation, which postponed
# evaluation keeps as a string.  The only tuple field is a permutation.
_FORMAT = {"float": lambda v: repr(float(v)), "tuple": lambda v: "|".join(map(str, v))}
_PARSE = {
    "int": int, "float": float, "str": str,
    "tuple": lambda text: tuple(int(v) for v in text.split("|")),
}


def _format_cell(field, value):
    if value is None:
        return ""
    fmt = _FORMAT.get(field.type)
    return value if fmt is None else fmt(value)


def _parse_cell(field, text: str):
    if text == "" and field.default is None:
        return None
    try:
        return _PARSE[field.type](text)
    except ValueError as exc:
        raise ValueError(f"{field.name}: {exc}") from exc


def _write_csv(path, cls, rows, append: bool) -> None:
    """Write records of the dataclass `cls` with one column per field, in
    declaration order: None as an empty cell, floats by repr, tuples joined
    by "|", anything else as it is.  Append mode skips the header when the
    file exists."""
    path = Path(path)
    cols = fields(cls)
    mode = "a" if append and path.exists() else "w"
    with path.open(mode, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow([f.name for f in cols])
        for row in rows:
            writer.writerow([_format_cell(f, getattr(row, f.name)) for f in cols])


def write_report_rows(path, rows, append: bool = False) -> None:
    _write_csv(path, ReportRow, rows, append)


def read_report_rows(path) -> list:
    """ReportRows from a CSV written by write_report_rows; an empty cell
    reads as None for every field whose default is None.  Raises ValueError
    unless the header is the ReportRow fields in declaration order, which
    is also the order write_report_rows appends in, and for a record that
    is not one cell a column or holds a cell that does not parse (naming
    its line, and the cell's column)."""
    cols = fields(ReportRow)
    expected = [f.name for f in cols]
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            records = [(reader.line_num, record) for record in reader]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if header is None:
        raise ValueError(f"{path} is empty; expected the header {','.join(expected)}")
    if header != expected:
        missing = [c for c in expected if c not in header]
        extra = [c for c in header if c not in expected]
        raise ValueError(
            f"{path} does not have the ReportRow columns: "
            + (f"missing {missing}, extra {extra}" if missing or extra
               else f"found them in the order {','.join(header)}")
        )
    rows = []
    for line, record in records:
        try:
            if None in record or None in record.values():  # csv.DictReader's marks
                raise ValueError(f"expected {len(cols)} cells")
            rows.append(ReportRow(**{f.name: _parse_cell(f, record[f.name]) for f in cols}))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from exc
    return rows


def _replicate_seed(master_seed: int, replicate: int) -> int:
    # Deliberately independent of the scenario id: replicate r uses the same
    # seed in every scenario of a grid (common random numbers).  Because the
    # generator draws each study from its own substream, scenarios that only
    # differ in K then share byte-identical target data, so across-scenario
    # contrasts isolate the studies that were added or changed.
    rng = substream(master_seed, "replicate", replicate)
    return int(rng.integers(0, 2**63 - 1))


def _check_previous(previous, scenarios, methods, replicates, master_seed) -> None:
    """Raise a ValueError naming the first of the `previous` rows this run
    would not write itself: one whose scenario or method is not the run's,
    whose replicate is not in range(replicates), whose n_sources is not its
    scenario's K or whose seed is not its replicate's under master_seed;
    then the first (scenario, replicate) whose rows are not one each of the
    run's methods."""
    n_sources = {sid: config.K for sid, config in scenarios}
    names = sorted(m.value for m in methods)
    groups = {}
    for row in previous:
        where = f"row ({row.scenario!r}, {row.method!r}, replicate {row.replicate})"
        if row.scenario not in n_sources:
            raise ValueError(f"{where}: the run's scenarios are {list(n_sources)}")
        if row.method not in names:
            raise ValueError(f"{where}: the run's methods are {names}")
        if row.replicate not in range(replicates):
            raise ValueError(f"{where}: the run's replicates are 0 to {replicates - 1}")
        if row.n_sources != n_sources[row.scenario]:
            raise ValueError(f"{where}: n_sources is {row.n_sources}, the scenario's K is "
                             f"{n_sources[row.scenario]}")
        if row.seed != _replicate_seed(master_seed, row.replicate):
            raise ValueError(f"{where}: seed {row.seed} is not the replicate's seed under "
                             f"master seed {master_seed}")
        groups.setdefault((row.scenario, row.replicate), []).append(row.method)
    for (sid, r), got in groups.items():
        if sorted(got) != names:
            raise ValueError(f"scenario {sid!r}, replicate {r}: rows for {sorted(got)}, "
                             f"the run's methods are {names}")


def run_replicate(
    scenario_id: str,
    config: ScenarioConfig,
    methods,
    replicate: int,
    test_n: int,
    transfer_config: TransferConfig,
    lca_config: LcaFitConfig = None,
) -> list:
    """Fit every requested method through `fit_method` on one fresh draw of
    the scenario and score it on a fresh test sample from the target
    population.  `lca_config` reaches every fit unchanged: when it is None,
    `fit_targeted_psm` seeds the latent class fit from the transfer seed,
    not the scenario seed, so the rows equal those of
    `LcaFitConfig(seed=transfer_config.seed)`.

    targeted_psm and targeted_psm_1 share step 1 and lambda_pool, neither of
    which depends on the EM cap: the first of the two fits both and hands
    its LCA model and penalties to the other, which so gets the bytes it
    would get alone.  runtime_s covers a method's own fit and scoring (the
    first of the two carries the shared work); a method that raises
    records its own exception in `error`.  A row has an mse and a
    permutation exactly when the method's coefficient matrix has the
    truth's class count, where coef_mse is defined: trans_glm and
    naive_lasso fit one class, so theirs only in a one-class scenario.
    """
    methods = [MethodId(m) for m in methods]
    seed = config.seed
    data, truth = generate_scenario(config)
    test_study, _ = generate_target_test(config, test_n)
    truth_b0 = truth["coefficients"][0].values
    family = config.glm_family()

    psm_pair = (MethodId.TARGETED_PSM, MethodId.TARGETED_PSM_1)
    psm_config, psm_lca = transfer_config, None

    rows = []
    for method in methods:
        psm = method in psm_pair
        t0 = time.perf_counter()
        try:
            fitted = fit_method(
                method, data, config.n_classes,
                config=psm_config if psm else transfer_config,
                family=family,
                lca_model=psm_lca,
                lca_config=lca_config,
            )
            if psm and psm_lca is None:
                psm_lca = fitted.fit.lca_model
                psm_config = replace(
                    transfer_config, lambda_pool=tuple(fitted.fit.lambda_pool.tolist())
                )
            runtime = time.perf_counter() - t0
            mse_val, perm = None, None
            if fitted.coef.values.shape == truth_b0.shape:
                perm, aligned = align_classes(fitted.coef, truth_b0)
                mse_val = _aligned_mse(aligned, truth_b0)
            auc_val = None
            if family.kind == "logistic":
                scores = fitted.scores(test_study.predictors, test_study.structure_vars)
                auc_val = auc(scores, test_study.outcomes)
            rows.append(
                ReportRow(
                    scenario=scenario_id, method=method.value, replicate=replicate,
                    seed=seed, n_sources=config.K,
                    mse=mse_val, auc=auc_val,
                    runtime_s=runtime, permutation=perm,
                )
            )
        except Exception as exc:
            rows.append(
                ReportRow(
                    scenario=scenario_id, method=method.value, replicate=replicate,
                    seed=seed, n_sources=config.K,
                    runtime_s=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


def run_experiment(
    scenarios,
    methods,
    replicates: int,
    test_n: int = 500,
    master_seed: int = 0,
    transfer_config: TransferConfig = None,
    lca_config: LcaFitConfig = None,
    previous=(),
    row_sink=None,
) -> ExperimentReport:
    """Paired comparison of methods over seeded replicates.

    scenarios    iterable of (scenario_id, ScenarioConfig); each replicate r
                 redraws every study (and the source sign matrices) from a
                 replicate-specific seed derived from master_seed
    previous     ReportRows already written (resume): their (scenario,
                 replicate) pairs are skipped, and they come first in the
                 report.  Each must be a row this run would write: one of
                 its scenarios (with that scenario's K as n_sources) and
                 methods, a replicate below `replicates` with that
                 replicate's seed under master_seed, and every (scenario,
                 replicate) it holds must have one row per method
    row_sink     optional callable receiving each finished replicate's new
                 rows as they arrive (rows are still collected in the report)

    The replicates run one after another in the calling process; within
    each, the latent class restarts use every CPU through
    `_parallel.fan_out`.  Results are deterministic given
    (scenarios, methods, replicates, master_seed).  `replicates` and
    `test_n` are integers >= 1, `master_seed` an integer >= 0, `methods`
    distinct MethodIds (or their names) and `previous` as above (a
    ValueError otherwise, before any replicate runs or is skipped).  Raises
    RuntimeError when more than MAX_FAILURE_RATE of the method-replicates
    fail, previous and new rows together.
    """
    check_count("replicates", replicates, 1)
    check_count("test_n", test_n, 1)
    check_count("master seed", master_seed, 0)
    methods = tuple(MethodId(m) for m in methods)
    repeated = [m.value for m in methods if methods.count(m) > 1]
    if repeated:
        raise ValueError(f"methods: {repeated[0]!r} is named twice")
    scenarios = tuple(scenarios)
    _check_previous(previous, scenarios, methods, replicates, master_seed)
    transfer_config = transfer_config or TransferConfig()
    all_rows = list(previous)
    written = {(row.scenario, row.replicate) for row in all_rows}
    for scenario_id, config in scenarios:
        for r in range(replicates):
            if (scenario_id, r) in written:
                continue
            seed = _replicate_seed(master_seed, r)
            rep_cfg = replace(config, seed=seed)
            rep_transfer = replace(transfer_config, seed=seed)
            rep_lca = replace(lca_config or LcaFitConfig(), seed=seed)
            rows = run_replicate(
                scenario_id, rep_cfg, methods, r, test_n, rep_transfer, rep_lca
            )
            if row_sink is not None:
                row_sink(rows)
            all_rows.extend(rows)

    failures = [row for row in all_rows if row.error is not None]
    if len(failures) > MAX_FAILURE_RATE * len(all_rows):
        raise RuntimeError(
            f"{len(failures)}/{len(all_rows)} method-replicates failed "
            f"(first: {failures[0].error})"
        )
    return ExperimentReport(rows=tuple(all_rows))
