"""Class alignment against scipy's Hungarian assignment, AUC against an
O(n^2) pair count, the report CSVs, and the replicate harness:
determinism, shared work between the targeted_psm variants, per-method
errors, resume and the failure-rate guard over previous and new rows."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from targeted_psm import evaluate, transfer
from targeted_psm._rng import substream
from targeted_psm.baselines import MethodId, fit_method
from targeted_psm.evaluate import (
    MAX_ALIGN_CLASSES,
    ExperimentReport,
    ReportRow,
    UndefinedMetricError,
    _mean_se,
    _replicate_seed,
    align_classes,
    auc,
    coef_mse,
    read_report_rows,
    run_experiment,
    run_replicate,
    write_report_rows,
)
from targeted_psm.glm import SolverError
from targeted_psm.lca import LcaFitConfig
from targeted_psm.simulate import (
    ScenarioConfig,
    generate_scenario,
    generate_target_test,
    scenario_preset,
)
from targeted_psm.transfer import TransferConfig

from _oracles import pairwise_auc


def _stat_fields(row):
    # everything except the wall-clock runtime
    return (
        row.scenario, row.method, row.replicate, row.seed,
        row.n_sources, row.mse, row.auc, row.permutation, row.error,
    )


MINI = scenario_preset(
    "figure1-mini", n0=150, n_k=120, K=1, p=10, seed=0,
    support_sizes=(1, 2, 4),
)
FAST = TransferConfig(lambda_pool=0.05, lambda_bias=0.05, max_em_iter=10, seed=0)
FAST_LCA = LcaFitConfig(n_starts=2, seed=0)


# ---------------------------------------------------------------------------
# Alignment and metrics
# ---------------------------------------------------------------------------


def test_align_classes_matches_assignment_oracle(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    for trial in range(20):
        T = rng.normal(size=(6, 4))
        E = T[:, rng.permutation(4)] + 0.05 * rng.normal(size=(6, 4))
        perm, aligned = align_classes(E, T)
        assert np.array_equal(aligned, E[:, list(perm)])
        # Hungarian oracle on the column-pair cost matrix
        cost = np.array(
            [[np.sum((E[:, i] - T[:, j]) ** 2) for i in range(4)] for j in range(4)]
        )
        rows, cols = scipy_opt.linear_sum_assignment(cost)
        oracle_cost = float(cost[rows, cols].sum())
        got_cost = float(np.sum((aligned - T) ** 2))
        assert got_cost == pytest.approx(oracle_cost, rel=1e-12, abs=1e-12)


def test_align_classes_validation(rng):
    with pytest.raises(ValueError, match="same shape"):
        align_classes(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))
    too_many = rng.normal(size=(2, MAX_ALIGN_CLASSES + 1))
    with pytest.raises(ValueError, match="exhaustive"):
        align_classes(too_many, too_many)


def test_coef_mse_zero_on_permuted_truth(rng):
    T = rng.normal(size=(7, 3))
    for perm in itertools.permutations(range(3)):
        assert coef_mse(T[:, list(perm)], T) == 0.0
    E = T + 0.1
    assert coef_mse(E, T) == pytest.approx(0.01, rel=1e-10)


def test_auc_hand_cases():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert auc([0.8, 0.6, 0.4, 0.2], [1, 1, 0, 0]) == 1.0
    assert auc([0.2, 0.4, 0.6, 0.8], [1, 1, 0, 0]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auc([0.3, 0.3, 0.7], [0, 1, 1]) == pytest.approx(0.75)  # one tie pair


def test_auc_matches_pairwise_oracle(rng):
    for trial in range(25):
        n = int(rng.integers(5, 60))
        force_ties = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n).astype(float)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        heavy_ties = rng.integers(0, int(rng.integers(1, 4)), size=n) / 3.0  # 1 to 3 values
        for scores in (force_ties, heavy_ties):
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )


def test_auc_invariant_to_monotone_transform(rng):
    scores = rng.normal(size=40)
    labels = (rng.random(40) < 0.4).astype(float)
    labels[0], labels[1] = 0.0, 1.0
    a = auc(scores, labels)
    assert auc(3.0 * scores - 1.0, labels) == pytest.approx(a, abs=1e-12)
    assert auc(1 / (1 + np.exp(-scores)), labels) == pytest.approx(a, abs=1e-12)


def test_auc_error_paths():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError, match=re.escape("labels[1] must be a real number in {0, 1}, got 2")):
        auc([0.1, 0.2], [1, 2])
    with pytest.raises(ValueError, match="1-d"):
        auc([[0.1], [0.2]], [[1], [0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"scores[1] must be a real number in (-inf, inf), got {bad!r}")):
            auc([0.1, bad, 0.3], [1, 0, 0])
    assert isinstance(UndefinedMetricError("x"), ValueError)


def test_mean_se():
    mean, se = _mean_se([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert se == pytest.approx(1.0 / np.sqrt(3))
    mean, se = _mean_se([4.0])
    assert mean == 4.0 and se is None
    assert _mean_se([]) == (None, None)


# ---------------------------------------------------------------------------
# Report I/O
# ---------------------------------------------------------------------------


def test_report_csv_roundtrip(tmp_path):
    rows = [
        ReportRow(
            scenario="a", method="targeted_psm", replicate=0, seed=123,
            n_sources=2, mse=0.5, auc=0.75, runtime_s=1.25,
            permutation=(1, 0, 2),
        ),
        ReportRow(
            scenario="a", method="trans_glm", replicate=1, seed=456,
            n_sources=2, error="boom: division by zero",
        ),
    ]
    path = tmp_path / "rows.csv"
    write_report_rows(path, rows)
    back = read_report_rows(path)
    assert back == rows
    # append mode extends without rewriting the header
    write_report_rows(path, [rows[0]], append=True)
    assert read_report_rows(path) == rows + [rows[0]]


def test_summarize_on_handbuilt_rows():
    rows = (
        ReportRow("s", "m", 0, 1, 2, mse=0.2, auc=0.6),
        ReportRow("s", "m", 1, 2, 2, mse=0.4, auc=0.8),
        ReportRow("s", "m", 2, 3, 2, error="failed"),
        ReportRow("s", "other", 0, 1, 2, auc=0.7),
    )
    summary = ExperimentReport(rows=rows).summarize()
    assert len(summary) == 2
    first = summary[0]
    assert (first.scenario, first.method) == ("s", "m")
    assert first.n_ok == 2 and first.n_fail == 1
    assert first.mse_mean == pytest.approx(0.3)
    assert first.mse_se == pytest.approx(np.std([0.2, 0.4], ddof=1) / np.sqrt(2))
    assert first.auc_mean == pytest.approx(0.7)
    second = summary[1]
    assert second.method == "other"
    assert second.mse_mean is None and second.mse_se is None
    assert second.auc_mean == pytest.approx(0.7) and second.auc_se is None


def test_summary_csv(tmp_path):
    rows = (
        ReportRow("s", "m", 0, 1, 2, mse=0.2, auc=0.6),
        ReportRow("s", "m", 1, 2, 2, mse=0.4, auc=0.8),
    )
    report = ExperimentReport(rows=rows)
    path = tmp_path / "summary.csv"
    report.summary_to_csv(path)
    text = path.read_text().splitlines()
    assert text[0].startswith("scenario,method,")
    assert text[1].split(",")[0] == "s"
    write_report_rows(tmp_path / "rows.csv", report.rows)
    assert read_report_rows(tmp_path / "rows.csv") == list(rows)


def test_report_and_summary_csv_bytes(tmp_path):
    # None cells, a permutation, int-valued floats and an error text that
    # needs CSV quoting; the expected bytes pin both file formats
    rows = (
        ReportRow("s1", "targeted_psm", 0, 123, 2, mse=0.5, auc=0.75,
                  runtime_s=1.25, permutation=(1, 0, 2)),
        ReportRow("s1", "trans_glm", 0, 123, 2, runtime_s=2.0,
                  error='ValueError: bad "x", then\nmore'),
        ReportRow("s1", "targeted_psm", 1, 456, 2, mse=1.0, auc=0.5,
                  runtime_s=0.1, permutation=(0, 1, 2)),
        ReportRow("s2", "naive_lasso", 0, 123, 0, auc=0.6, runtime_s=3),
    )
    path = tmp_path / "rows.csv"
    write_report_rows(path, rows[:2])
    write_report_rows(path, rows[2:], append=True)
    assert path.read_bytes() == (
        b"scenario,method,replicate,seed,n_sources,mse,auc,runtime_s,permutation,error\r\n"
        b"s1,targeted_psm,0,123,2,0.5,0.75,1.25,1|0|2,\r\n"
        b's1,trans_glm,0,123,2,,,2.0,,"ValueError: bad ""x"", then\nmore"\r\n'
        b"s1,targeted_psm,1,456,2,1.0,0.5,0.1,0|1|2,\r\n"
        b"s2,naive_lasso,0,123,0,,0.6,3.0,,\r\n"
    )
    assert read_report_rows(path) == list(rows)
    ExperimentReport(rows=rows).summary_to_csv(tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"scenario,method,n_sources,n_ok,n_fail,mse_mean,mse_se,auc_mean,auc_se\r\n"
        b"s1,targeted_psm,2,2,0,0.75,0.25,0.625,0.125\r\n"
        b"s1,trans_glm,2,0,1,,,,\r\n"
        b"s2,naive_lasso,0,1,0,,,0.6,\r\n"
    )
    ExperimentReport(rows=()).summary_to_csv(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == (
        b"scenario,method,n_sources,n_ok,n_fail,mse_mean,mse_se,auc_mean,auc_se\r\n"
    )


# ---------------------------------------------------------------------------
# Replicate harness
# ---------------------------------------------------------------------------


def test_replicate_seed_scenario_independent():
    assert _replicate_seed(0, 0) != _replicate_seed(0, 1)
    assert _replicate_seed(0, 3) == _replicate_seed(0, 3)
    assert _replicate_seed(1, 3) != _replicate_seed(0, 3)


def test_run_replicate_produces_rows_per_method():
    methods = [
        MethodId.TARGETED_PSM,
        MethodId.TARGETED_PSM_1,
        MethodId.LCA_GLM,
        MethodId.TRANS_GLM,
        MethodId.NAIVE_LASSO,
    ]
    rows = run_replicate(
        "mini", MINI, methods, replicate=0, test_n=120,
        transfer_config=FAST, lca_config=FAST_LCA,
    )
    assert [r.method for r in rows] == [m.value for m in methods]
    for r in rows:
        assert r.error is None, r.error
        assert r.scenario == "mini"
        assert r.n_sources == 1
        assert r.auc is not None and 0.0 <= r.auc <= 1.0
        assert r.runtime_s >= 0.0
    by_method = {r.method: r for r in rows}
    for m in ("targeted_psm", "targeted_psm_1", "lca_glm"):
        assert by_method[m].mse is not None
        assert sorted(by_method[m].permutation) == [0, 1, 2]
    for m in ("trans_glm", "naive_lasso"):
        assert by_method[m].mse is None
        assert by_method[m].permutation is None


ONE_CLASS = ScenarioConfig(
    n0=150, n_k=120, K=1, p=10, n_classes=1, prevalences=((0.3,) * 5,),
    mixing=((1.0,), (1.0,)), support_sizes=(2,), seed=0,
)


def test_one_class_methods_are_scored_in_a_one_class_scenario(monkeypatch):
    # a one-class fit has the truth's class count there, so coef_mse is defined
    fitted = {}

    def recording(*args, **kwargs):
        result = fit_method(*args, **kwargs)
        fitted[result.method.value] = result
        return result

    monkeypatch.setattr(evaluate, "fit_method", recording)
    methods = [MethodId.TRANS_GLM, MethodId.NAIVE_LASSO]
    rows = run_replicate("one", ONE_CLASS, methods, replicate=0, test_n=100,
                         transfer_config=FAST, lca_config=FAST_LCA)
    truth = generate_scenario(ONE_CLASS)[1]["coefficients"][0]
    assert [r.method for r in rows] == [m.value for m in methods]
    for row in rows:
        assert row.error is None, row.error
        assert row.permutation == (0,)
        assert row.mse == coef_mse(fitted[row.method].coef, truth)


def test_each_scored_row_aligns_its_classes_once(monkeypatch):
    fitted, aligned = {}, []

    def recording(*args, **kwargs):
        result = fit_method(*args, **kwargs)
        fitted[result.method.value] = result
        return result

    def spy(estimate, truth):
        aligned.append(estimate)
        return align_classes(estimate, truth)

    monkeypatch.setattr(evaluate, "fit_method", recording)
    monkeypatch.setattr(evaluate, "align_classes", spy)
    methods = [MethodId.TARGETED_PSM, MethodId.LCA_GLM, MethodId.NAIVE_LASSO]
    rows = run_replicate("mini", MINI, methods, replicate=0, test_n=120,
                         transfer_config=FAST, lca_config=FAST_LCA)
    scored = [row for row in rows if row.mse is not None]
    assert [row.method for row in scored] == ["targeted_psm", "lca_glm"]
    assert len(aligned) == len(scored)
    monkeypatch.undo()
    truth = generate_scenario(MINI)[1]["coefficients"][0]
    for row in scored:
        coef = fitted[row.method].coef
        assert row.mse == coef_mse(coef, truth)
        assert row.permutation == align_classes(coef, truth)[0]


def test_run_replicate_one_em_step_collapses_psm_variants():
    # with max_em_iter=1 the full procedure IS its one-step variant, and the
    # shared-tuning path inside run_replicate must keep them byte-identical
    cfg = TransferConfig(lambda_pool=0.05, lambda_bias=0.05, max_em_iter=1, seed=0)
    rows = run_replicate(
        "mini", MINI, [MethodId.TARGETED_PSM, MethodId.TARGETED_PSM_1],
        replicate=0, test_n=120, transfer_config=cfg, lca_config=FAST_LCA,
    )
    assert rows[0].mse == rows[1].mse
    assert rows[0].auc == rows[1].auc
    assert rows[0].permutation == rows[1].permutation


@pytest.mark.parametrize(
    "order",
    [
        (MethodId.TARGETED_PSM, MethodId.TARGETED_PSM_1),
        (MethodId.TARGETED_PSM_1, MethodId.TARGETED_PSM),
    ],
    ids=["psm-psm_1", "psm_1-psm"],
)
def test_run_replicate_psm_methods_equal_independent_fits(monkeypatch, order):
    # the second psm method reuses the first one's LCA model and tuned
    # lambda_pool; in either order, each must equal a fit of its own
    auto_cfg = TransferConfig(
        lambda_pool="auto", lambda_bias=0.05, cv_folds=2, cv_grid=(0.5, 2.0),
        max_em_iter=5, seed=0,
    )
    fitted = {}

    def recording(*args, **kwargs):
        result = fit_method(*args, **kwargs)
        fitted[result.method] = result
        return result

    monkeypatch.setattr(evaluate, "fit_method", recording)
    rows = run_replicate(
        "mini", MINI, order, replicate=0, test_n=120,
        transfer_config=auto_cfg, lca_config=FAST_LCA,
    )
    assert [r.method for r in rows] == [m.value for m in order]
    data, truth = generate_scenario(MINI)
    test_study, _ = generate_target_test(MINI, 120)
    for row, method in zip(rows, order):
        assert row.error is None, row.error
        direct = fit_method(
            method, data, MINI.n_classes, config=auto_cfg,
            family=MINI.glm_family(), lca_config=FAST_LCA,
        )
        got, want = fitted[method].fit, direct.fit
        for name in ("lambda_pool", "lambda_bias"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("b_pooled", "delta", "b_target"):
            assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes()
            assert getattr(got, name).intercept.tobytes() == getattr(want, name).intercept.tobytes()
        assert got.trace_joint == want.trace_joint
        assert got.trace_bias == want.trace_bias
        assert got.lca_model.prevalences.tobytes() == want.lca_model.prevalences.tobytes()
        assert got.lca_model.mixing.tobytes() == want.lca_model.mixing.tobytes()
        assert row.mse == coef_mse(direct.coef, truth["coefficients"][0].values)
        scores = direct.scores(test_study.predictors, test_study.structure_vars)
        assert row.auc == auc(scores, test_study.outcomes)
    # the second method was handed the first one's step-1 model
    assert fitted[order[1]].fit.lca_model is fitted[order[0]].fit.lca_model


def test_run_replicate_passes_an_absent_lca_config_through():
    # fit_targeted_psm's fallback, the transfer seed, is the only default;
    # the scenario seed (0 here) plays no part
    cfg = replace(FAST, seed=3)
    methods = [MethodId.TARGETED_PSM, MethodId.TARGETED_PSM_1, MethodId.LCA_GLM, MethodId.TRANS_GLM]
    absent, explicit = (
        run_replicate("mini", MINI, methods, replicate=0, test_n=120,
                      transfer_config=cfg, lca_config=lca_config)
        for lca_config in (None, LcaFitConfig(seed=cfg.seed))
    )
    assert [r.error for r in absent] == [None] * len(methods)
    assert list(map(_stat_fields, absent)) == list(map(_stat_fields, explicit))


def test_a_failed_single_solve_is_the_method_own_error(monkeypatch):
    # naive_lasso and trans_glm fit single-class stages, one pass each, so a
    # failed solve has no previous estimate to fall back on: it raises from
    # fit_method and is the method's recorded error, not a zero model.
    real = transfer.solve_weighted_lasso_glm

    def failing(prob, init=None):
        raise SolverError("injected", real(prob, init=init))

    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", failing)
    data, _ = generate_scenario(MINI)
    with pytest.raises(SolverError, match="injected"):
        fit_method(MethodId.NAIVE_LASSO, data, 1, FAST, MINI.glm_family())
    methods = [MethodId.NAIVE_LASSO, MethodId.TRANS_GLM]
    rows = run_replicate(
        "mini", MINI, methods, replicate=0, test_n=120,
        transfer_config=FAST, lca_config=FAST_LCA,
    )
    assert [r.error for r in rows] == ["SolverError: injected"] * 2


def test_run_replicate_step_one_failure_is_each_psm_method_own_error(monkeypatch):
    def failing_lca(*args, **kwargs):
        raise ValueError("no latent classes today")

    monkeypatch.setattr(transfer, "fit_lca", failing_lca)
    methods = [MethodId.TARGETED_PSM, MethodId.TARGETED_PSM_1, MethodId.NAIVE_LASSO]
    rows = run_replicate(
        "mini", MINI, methods, replicate=0, test_n=120,
        transfer_config=FAST, lca_config=FAST_LCA,
    )
    assert [r.error for r in rows[:2]] == ["ValueError: no latent classes today"] * 2
    assert rows[2].error is None


def test_run_experiment_statistically_deterministic():
    scenarios = [("mini", MINI)]
    methods = [MethodId.TARGETED_PSM, MethodId.NAIVE_LASSO]
    kw = dict(
        replicates=2, test_n=100, master_seed=7,
        transfer_config=FAST, lca_config=FAST_LCA,
    )
    r1 = run_experiment(scenarios, methods, **kw)
    r2 = run_experiment(scenarios, methods, **kw)
    assert [_stat_fields(r) for r in r1.rows] == [_stat_fields(r) for r in r2.rows]
    assert len(r1.rows) == 4
    # different master seed changes the draws
    r3 = run_experiment(scenarios, methods, replicates=2, test_n=100,
                        master_seed=8, transfer_config=FAST, lca_config=FAST_LCA)
    assert [r.seed for r in r3.rows] != [r.seed for r in r1.rows]


def test_a_negative_master_seed_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="master seed must be an integer >= 0, got -1"):
        run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=1,
                       master_seed=-1, transfer_config=FAST, lca_config=FAST_LCA)
    with pytest.raises(ValueError, match="master seed must be an integer >= 0, got -3"):
        substream(-3, "lca-init")


@pytest.mark.parametrize("seed", [2.5, True])
def test_a_master_seed_that_is_not_an_integer_is_refused(seed):
    """Seed 2.5 must not draw seed 2's streams, nor True seed 1's."""
    message = f"master seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=message):
        run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=1,
                       master_seed=seed, transfer_config=FAST, lca_config=FAST_LCA)
    with pytest.raises(ValueError, match=message):
        substream(seed, "lca-init")
    with pytest.raises(ValueError, match="substream key must be an integer >= 0, got 1.5"):
        substream(0, "study", 1.5)


@pytest.mark.parametrize("counts, message", [
    (dict(replicates=0), "replicates must be an integer >= 1, got 0"),
    (dict(replicates=-1), "replicates must be an integer >= 1, got -1"),
    (dict(replicates=1.0), "replicates must be an integer >= 1, got 1.0"),
    (dict(replicates=1, test_n=0), "test_n must be an integer >= 1, got 0"),
    (dict(replicates=1, test_n=True), "test_n must be an integer >= 1, got True"),
    # a bad seed with every replicate already written: refused, not a report
    (dict(replicates=1, master_seed=-1, previous=[ReportRow("mini", "naive_lasso", 0, 0, 1)]),
     "master seed must be an integer >= 0, got -1"),
])
def test_a_replicate_count_or_test_size_below_one_is_refused(monkeypatch, counts, message):
    # an empty report is not returned as a success; nothing is drawn first
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran before the counts were checked")

    monkeypatch.setattr(evaluate, "run_replicate", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], **counts,
                       transfer_config=FAST, lca_config=FAST_LCA)


def test_run_experiment_takes_no_worker_count():
    # replicates always run in the calling process
    with pytest.raises(TypeError, match="n_jobs"):
        run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=1, n_jobs=2)


def test_run_experiment_resume_and_sink():
    scenarios = [("mini", MINI)]
    methods = [MethodId.NAIVE_LASSO]
    written = ReportRow("mini", "naive_lasso", 1, _replicate_seed(7, 1), 1, mse=0.5, auc=0.5)
    seen = []
    report = run_experiment(
        scenarios, methods, replicates=3, test_n=100, master_seed=7,
        transfer_config=FAST, lca_config=FAST_LCA,
        previous=[written], row_sink=seen.append,
    )
    assert [r.replicate for r in report.rows] == [1, 0, 2]
    assert report.rows[0] is written
    assert [len(batch) for batch in seen] == [1, 1]
    assert _stat_fields(seen[0][0]) == _stat_fields(report.rows[1])


def test_run_experiment_judges_previous_and_new_rows_together(monkeypatch):
    failed = ReportRow("mini", "naive_lasso", 0, _replicate_seed(0, 0), 1,
                       error="SolverError: planted")
    # one new row that succeeds: 1 of 2 rows failed, above MAX_FAILURE_RATE
    with pytest.raises(RuntimeError, match=re.escape(
            "1/2 method-replicates failed (first: SolverError: planted)")):
        run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=2, test_n=100,
                       transfer_config=FAST, lca_config=FAST_LCA, previous=[failed])

    # every replicate already written: judged without running one
    def never(*args, **kwargs):
        raise AssertionError("a written replicate ran again")

    monkeypatch.setattr(evaluate, "run_replicate", never)
    with pytest.raises(RuntimeError, match=re.escape("1/1 method-replicates failed")):
        run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=1,
                       previous=[failed])
    monkeypatch.setattr(evaluate, "MAX_FAILURE_RATE", 1.0)
    report = run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=1,
                            previous=[failed])
    assert report.rows == (failed,)


def _written(replicate, method="naive_lasso", **fields):
    """A row of replicate `replicate` as a run of MINI over [targeted_psm,
    naive_lasso] with master seed 7 writes it."""
    return ReportRow(**{"scenario": "mini", "method": method, "replicate": replicate,
                        "seed": _replicate_seed(7, replicate), "n_sources": 1, **fields})


@pytest.mark.parametrize("previous, message", [
    ([_written(0, scenario="other"), _written(0, "targeted_psm")],
     "row ('other', 'naive_lasso', replicate 0): the run's scenarios are ['mini']"),
    ([_written(0, "lca_glm"), _written(0, "targeted_psm")],
     "row ('mini', 'lca_glm', replicate 0): the run's methods are "
     "['naive_lasso', 'targeted_psm']"),
    ([_written(2), _written(2, "targeted_psm")],
     "row ('mini', 'naive_lasso', replicate 2): the run's replicates are 0 to 1"),
    ([ReportRow("mini", "naive_lasso", -1, 0, 1)], "row ('mini', 'naive_lasso', replicate -1): the run's replicates are 0 to 1"),
    ([_written(0, n_sources=3), _written(0, "targeted_psm")],
     "row ('mini', 'naive_lasso', replicate 0): n_sources is 3, the scenario's K is 1"),
    ([_written(1, seed=_replicate_seed(8, 1)), _written(1, "targeted_psm")],
     f"row ('mini', 'naive_lasso', replicate 1): seed {_replicate_seed(8, 1)} is not the "
     "replicate's seed under master seed 7"),
    ([_written(0)],
     "scenario 'mini', replicate 0: rows for ['naive_lasso'], the run's methods are "
     "['naive_lasso', 'targeted_psm']"),
    ([_written(0), _written(0), _written(0, "targeted_psm")],
     "scenario 'mini', replicate 0: rows for ['naive_lasso', 'naive_lasso', 'targeted_psm']"),
], ids=["scenario", "method", "replicate-past-the-count", "negative-replicate", "n-sources",
        "seed-of-another-master-seed", "a-method-missing", "a-method-twice"])
def test_previous_rows_this_run_would_not_write_are_refused_before_a_replicate(
        monkeypatch, previous, message):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran before the previous rows were checked")

    monkeypatch.setattr(evaluate, "run_replicate", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment([("mini", MINI)], [MethodId.TARGETED_PSM, MethodId.NAIVE_LASSO],
                       replicates=2, master_seed=7, previous=previous)


@pytest.mark.parametrize("methods", [[MethodId.NAIVE_LASSO, MethodId.NAIVE_LASSO],
                                     ["targeted_psm", "naive_lasso", MethodId.TARGETED_PSM]])
def test_a_method_named_twice_is_refused_before_a_replicate(monkeypatch, methods):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran before the methods were checked")

    monkeypatch.setattr(evaluate, "run_replicate", never)
    name = MethodId(methods[0]).value
    with pytest.raises(ValueError, match=re.escape(f"methods: {name!r} is named twice")):
        run_experiment([("mini", MINI)], methods, replicates=1)


def test_run_experiment_failure_rate_guard(monkeypatch):
    # trans_glm cannot run without sources: every replicate fails
    cfg = scenario_preset(
        "figure1-mini", n0=120, n_k=50, K=0, p=8, seed=0, support_sizes=(1, 2, 4)
    )
    with pytest.raises(RuntimeError, match="source"):
        run_experiment(
            [("sourceless", cfg)], [MethodId.TRANS_GLM],
            replicates=2, test_n=80, master_seed=0,
            transfer_config=FAST, lca_config=FAST_LCA,
        )
    # ...but with a forgiving threshold the errors are recorded as rows
    monkeypatch.setattr(evaluate, "MAX_FAILURE_RATE", 1.0)
    report = run_experiment(
        [("sourceless", cfg)], [MethodId.TRANS_GLM],
        replicates=2, test_n=80, master_seed=0,
        transfer_config=FAST, lca_config=FAST_LCA,
    )
    assert all(r.error is not None for r in report.rows)
    summary = report.summarize()
    assert summary[0].n_fail == 2 and summary[0].n_ok == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: TransferConfig(tau=1e-4),
        lambda: TransferConfig(fit_intercept=False),
        lambda: LcaFitConfig(tol=1e-7),
        lambda: LcaFitConfig(max_iter=500),
        lambda: run_experiment([("mini", MINI)], [MethodId.NAIVE_LASSO], replicates=1,
                               max_failure_rate=0.2),
    ],
    ids=["tau", "fit_intercept", "tol", "max_iter", "max_failure_rate"],
)
def test_settings_turned_constants_are_no_longer_keywords(make):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        make()
