"""End-to-end acceptance gate for the package.

Each numbered test here is one release criterion; the per-test PASSED/FAILED
line of `pytest -v` is the pass/fail line for that criterion.  Tolerances and
seeds are pinned so every run reproduces the same numbers (the experiment
harness is deterministic for a fixed master seed, whether or not the latent
class restarts run on several CPUs).

The criteria: 01 solver-oracle equivalence on a 50-instance battery; 02 EM
monotonicity on both loops; 03 latent class parameter recovery at n=5000;
04 byte-exact reduction identities (no sources is the target-only mixture
fit, one class is single-population transfer, iteration cap 1 is
targeted_psm_1); 05 the desk-scale ordering MSE(targeted_psm) <
MSE(targeted_psm_1) < MSE(lca_glm) with a paired AUC gain over naive_lasso
of at least 2 Monte Carlo standard errors; 06 MSE decreasing in the number
of sources over K in {2, 5, 10}; 07 AUC(trans_glm) <= AUC(targeted_psm)
under a large mixing shift; 08 the invariant suite.

The final criterion re-asserts the core invariants in one place
(row-stochastic memberships at 1e-12, the analytic gradient against finite
differences at 1e-6, exact class-relabeling equivariance, bitwise generator
determinism, weight-scaling argmin invariance); the full-suite wall-clock
budget is checked from the tee'd pytest run.
"""

import time

import numpy as np
import pytest

from _oracles import numeric_grad, prox_gradient_lasso
from _problems import problem_from_raw, random_glm_problem
from targeted_psm.baselines import MethodId, fit_method
from targeted_psm.core import GlmFamily, StudyCollection
from targeted_psm.evaluate import align_classes, run_experiment
from targeted_psm.glm import kkt_residual, objective_value, solve_weighted_lasso_glm
from targeted_psm.lca import LcaFitConfig, LcaModel, fit_lca, initial_memberships
from targeted_psm.simulate import generate_scenario, scenario_preset
from targeted_psm.transfer import TransferConfig, fit_targeted_psm, predict_risk

# ---------------------------------------------------------------------------
# Pinned experiment knobs.  cv_folds=3 and a 6-point penalty grid keep the
# desk-scale experiments inside the runtime budget on a single core; the
# orderings under test must hold regardless of these tuning choices.
# ---------------------------------------------------------------------------

MASTER_SEED = 20260814
REPLICATES = 20
TEST_N = 500
ACC_GRID = tuple(np.logspace(np.log10(0.01), np.log10(10.0), 6))
ACC_TRANSFER = TransferConfig(cv_folds=3, cv_grid=ACC_GRID)
ACC_LCA = LcaFitConfig(n_starts=10)


def _summary_by_method(report, scenario=None):
    out = {}
    for s in report.summarize():
        if scenario is None or s.scenario == scenario:
            out[s.method] = s
    return out


@pytest.fixture(scope="module")
def figure1_k5_report():
    t0 = time.perf_counter()
    report = run_experiment(
        [("K5", scenario_preset("figure1-mini", K=5))],
        ["targeted_psm", "targeted_psm_1", "lca_glm", "naive_lasso"],
        replicates=REPLICATES,
        test_n=TEST_N,
        master_seed=MASTER_SEED,
        transfer_config=ACC_TRANSFER,
        lca_config=ACC_LCA,
    )
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def figure1_kgrid_report():
    t0 = time.perf_counter()
    report = run_experiment(
        [
            ("K2", scenario_preset("figure1-mini", K=2)),
            ("K10", scenario_preset("figure1-mini", K=10)),
        ],
        ["targeted_psm"],
        replicates=REPLICATES,
        test_n=TEST_N,
        master_seed=MASTER_SEED,
        transfer_config=ACC_TRANSFER,
        lca_config=ACC_LCA,
    )
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mixshift_report():
    t0 = time.perf_counter()
    report = run_experiment(
        [("mixshift", scenario_preset("mixshift-mini"))],
        ["targeted_psm", "trans_glm"],
        replicates=REPLICATES,
        test_n=TEST_N,
        master_seed=MASTER_SEED,
        transfer_config=ACC_TRANSFER,
        lca_config=ACC_LCA,
    )
    return report, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. Solver correctness against a proximal-gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_01_solver_matches_proximal_gradient_oracle():
    t0 = time.perf_counter()
    worst_coord = worst_solver_kkt = worst_gap = 0.0
    for seed in range(50):
        raw = random_glm_problem(seed)
        prob = problem_from_raw(raw)
        sol = solve_weighted_lasso_glm(prob)
        beta_star, kkt_star = prox_gradient_lasso(
            raw["kind"], raw["X"], raw["y"], raw["weights"], raw["lam"],
            penalize_mask=raw["penalize_mask"], offset=raw["offset"],
        )
        # oracle optimality certificate (KKT residual far below the 1e-10
        # suboptimality the reference solution is required to reach)
        assert kkt_star <= 1e-11, f"seed {seed}: oracle not converged ({kkt_star:.2e})"
        gap = objective_value(prob, sol.beta) - objective_value(prob, beta_star)
        coord = float(np.max(np.abs(sol.beta - beta_star)))
        solver_kkt = kkt_residual(prob, sol.beta)
        assert coord <= 1e-6, f"seed {seed}: coordinate gap {coord:.2e}"
        assert solver_kkt <= 1e-5, f"seed {seed}: solver KKT {solver_kkt:.2e}"
        assert gap <= 1e-8, f"seed {seed}: objective gap {gap:.2e}"
        worst_coord = max(worst_coord, coord)
        worst_solver_kkt = max(worst_solver_kkt, solver_kkt)
        worst_gap = max(worst_gap, abs(gap))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
    print(
        f"criterion 1 PASS: 50/50 instances; worst coordinate gap "
        f"{worst_coord:.2e} (<=1e-6), worst solver KKT {worst_solver_kkt:.2e} "
        f"(<=1e-5), worst objective gap {worst_gap:.2e}; {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. EM monotonicity on both loops, and the latent class fit
# ---------------------------------------------------------------------------


def test_criterion_02_em_objectives_are_monotone():
    t0 = time.perf_counter()
    checked = 0
    for i in range(20):
        family = "logistic" if i % 2 == 0 else "gaussian"
        cfg = scenario_preset(
            "figure1-mini" if i % 4 < 2 else "mixshift-mini",
            n0=150, n_k=120, K=2, p=12, seed=100 + i,
            family=family, support_sizes=(1, 2, 4),
            prevalences="well_separated" if i % 3 else "less_separated",
        )
        data, _ = generate_scenario(cfg)
        lca = fit_lca(data, 3, LcaFitConfig(seed=i, n_starts=3))
        lca_trace = np.asarray(lca.trace)
        assert np.all(np.diff(lca_trace) >= -1e-8), f"scenario {i}: LCA dip"
        fit = fit_targeted_psm(
            data, 3,
            TransferConfig(lambda_pool=0.05, lambda_bias=0.02,
                           max_em_iter=40, seed=i),
            cfg.glm_family(), lca_model=lca,
        )
        tj = np.asarray(fit.trace_joint)
        tb = np.asarray(fit.trace_bias)
        assert tj.size >= 1 and tb.size >= 1
        assert np.all(np.diff(tj) <= 1e-8), f"scenario {i}: pooling-stage rise"
        assert np.all(np.diff(tb) <= 1e-8), f"scenario {i}: correction-stage rise"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 2 PASS: {checked}/20 scenarios with non-increasing EM "
        f"objectives (tol 1e-8) and non-decreasing class-model likelihood; "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. Latent class parameter recovery at n = 5000
# ---------------------------------------------------------------------------


def test_criterion_03_latent_class_recovery():
    t0 = time.perf_counter()
    hits = 0
    margins = []
    for s in range(20):
        cfg = scenario_preset(
            "figure1-mini", n0=5000, n_k=50, K=0, p=6,
            support_sizes=(1, 2, 4), seed=1000 + s,
        )
        data, truth = generate_scenario(cfg)
        model = fit_lca(data, 3, LcaFitConfig(seed=s, n_starts=10))
        perm, aligned_prev_t = align_classes(
            model.prevalences.T, truth["prevalences"].T
        )
        d_prev = float(np.max(np.abs(aligned_prev_t - truth["prevalences"].T)))
        d_mix = float(
            np.max(np.abs(model.mixing[0][list(perm)] - truth["mixing"][0]))
        )
        margins.append((d_prev, d_mix))
        if d_prev <= 0.05 and d_mix <= 0.03:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 18, f"only {hits}/20 seeds recovered: {margins}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 3 PASS: {hits}/20 seeds within 0.05 (prevalences) / "
        f"0.03 (mixing); {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 4. Reduction identities (byte equality under forced-equal penalties/seeds)
# ---------------------------------------------------------------------------


def test_criterion_04_reduction_identities():
    cfg = scenario_preset(
        "figure1-mini", n0=220, n_k=180, K=2, p=15, seed=99
    )
    data, _ = generate_scenario(cfg)
    fam = GlmFamily.logistic()
    shared = dict(lambda_pool=0.05, max_em_iter=30, seed=0)

    # (a) no sources + frozen correction stage == the target-only mixture fit
    sourceless = StudyCollection(target=data.target)
    full = fit_targeted_psm(
        sourceless, 2, TransferConfig(lambda_bias=np.inf, **shared), fam
    )
    reduced = fit_method(
        MethodId.LCA_GLM, data, 2, TransferConfig(lambda_bias=0.02, **shared), fam
    ).fit
    assert np.array_equal(full.b_target.values, reduced.b_target.values)
    assert np.array_equal(full.b_target.intercept, reduced.b_target.intercept)
    assert np.all(reduced.delta.values == 0.0)
    assert full.trace_joint == reduced.trace_joint

    # (b) one latent class == the single-population transfer fit
    one_class = fit_targeted_psm(
        data, 1, TransferConfig(lambda_bias=0.02, **shared), fam
    )
    trans = fit_method(
        MethodId.TRANS_GLM, data, 2, TransferConfig(lambda_bias=0.02, **shared), fam
    ).fit
    assert np.array_equal(one_class.b_target.values, trans.b_target.values)
    assert np.array_equal(one_class.b_target.intercept, trans.b_target.intercept)
    assert one_class.trace_joint == trans.trace_joint
    assert one_class.trace_bias == trans.trace_bias

    # (c) iteration cap 1 == the one-step variant's method id
    capped = fit_targeted_psm(
        data, 2, TransferConfig(lambda_bias=0.02, max_em_iter=1,
                                lambda_pool=0.05, seed=0), fam
    )
    dispatched = fit_method(
        MethodId.TARGETED_PSM_1, data, 2,
        TransferConfig(lambda_bias=0.02, **shared), fam,
    ).fit
    assert np.array_equal(capped.b_target.values, dispatched.b_target.values)
    assert np.array_equal(capped.b_target.intercept, dispatched.b_target.intercept)
    assert dispatched.n_iter_joint == 1
    assert dispatched.n_iter_bias == 1
    print(
        "criterion 4 PASS: sourceless, single-class and one-step reductions "
        "are byte-identical to their method presets"
    )


# ---------------------------------------------------------------------------
# 5. Desk-scale method ordering (well-separated classes, small mixing
#    differences, h=5, p=50, n0=500, n_k=400, K=5, 20 replicates)
# ---------------------------------------------------------------------------


def test_criterion_05_desk_scale_method_ordering(figure1_k5_report):
    report, elapsed = figure1_k5_report
    assert all(r.error is None for r in report.rows), [
        r.error for r in report.rows if r.error
    ]
    s = _summary_by_method(report, "K5")
    mse_psm = s["targeted_psm"].mse_mean
    mse_psm1 = s["targeted_psm_1"].mse_mean
    mse_lca = s["lca_glm"].mse_mean
    assert mse_psm < mse_psm1 < mse_lca, (mse_psm, mse_psm1, mse_lca)

    psm_auc = {r.replicate: r.auc for r in report.rows if r.method == "targeted_psm"}
    naive_auc = {r.replicate: r.auc for r in report.rows if r.method == "naive_lasso"}
    diffs = np.array([psm_auc[r] - naive_auc[r] for r in sorted(psm_auc)])
    assert diffs.size == REPLICATES
    se = float(diffs.std(ddof=1) / np.sqrt(diffs.size))
    assert diffs.mean() >= 2.0 * se, (diffs.mean(), se)
    assert elapsed < 1800.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 5 PASS: MSE {mse_psm:.6f} < {mse_psm1:.6f} < {mse_lca:.6f}; "
        f"paired AUC gain over the target-only lasso {diffs.mean():.4f} "
        f">= 2 x MC-SE {se:.4f}; {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 6. More sources help: MSE decreases along the K-grid {2, 5, 10}
# ---------------------------------------------------------------------------


def test_criterion_06_mse_decreases_with_more_sources(
    figure1_kgrid_report, figure1_k5_report
):
    kgrid, _ = figure1_kgrid_report
    k5, _ = figure1_k5_report
    assert all(r.error is None for r in kgrid.rows)
    mse = {s.scenario: s.mse_mean for s in kgrid.summarize()}
    mse["K5"] = _summary_by_method(k5, "K5")["targeted_psm"].mse_mean
    assert mse["K10"] < mse["K2"], mse
    assert mse["K10"] < mse["K5"] < mse["K2"], mse
    print(
        f"criterion 6 PASS: MSE K=2 {mse['K2']:.6f} > K=5 {mse['K5']:.6f} "
        f"> K=10 {mse['K10']:.6f} (20 paired replicates each)"
    )


# ---------------------------------------------------------------------------
# 7. Large mixing shift: single-population transfer does not beat the
#    subpopulation-matched procedure
# ---------------------------------------------------------------------------


def test_criterion_07_transfer_without_classes_not_better_under_mixing_shift(
    mixshift_report,
):
    report, elapsed = mixshift_report
    assert all(r.error is None for r in report.rows)
    s = _summary_by_method(report, "mixshift")
    auc_trans = s["trans_glm"].auc_mean
    auc_psm = s["targeted_psm"].auc_mean
    assert auc_trans <= auc_psm, (auc_trans, auc_psm)
    print(
        f"criterion 7 PASS: AUC single-population transfer "
        f"{auc_trans:.4f} (MC-SE {s['trans_glm'].auc_se:.4f}) <= "
        f"subpopulation-matched {auc_psm:.4f} "
        f"(MC-SE {s['targeted_psm'].auc_se:.4f}); 20 replicates, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 8. Invariant suite in one place
# ---------------------------------------------------------------------------


def test_criterion_08_invariant_suite():
    rng = np.random.default_rng(0)

    # (i) membership matrices are row-stochastic to 1e-12 at every stage
    cfg = scenario_preset("figure1-mini", n0=150, n_k=120, K=2, p=12,
                          seed=7, support_sizes=(1, 2, 4))
    data, _ = generate_scenario(cfg)
    lca = fit_lca(data, 3, LcaFitConfig(seed=0, n_starts=3))
    v = initial_memberships(lca, data)
    fit = fit_targeted_psm(
        data, 3,
        TransferConfig(lambda_pool=0.05, lambda_bias=0.02, max_em_iter=10, seed=0),
        cfg.glm_family(), lca_model=lca,
    )
    for mat in (v.stacked(), fit.refined_weights.stacked()):
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12

    # (ii) the analytic gradient inside kkt_residual matches central finite
    # differences of the package objective (lam=0 makes the residual the
    # gradient's sup-norm)
    for seed in (0, 1, 5):
        raw = random_glm_problem(seed)
        prob = problem_from_raw(raw, lam=0.0)
        beta = rng.normal(size=raw["X"].shape[1]) * 0.4
        fd = numeric_grad(lambda b: objective_value(prob, b), beta)
        assert abs(kkt_residual(prob, beta) - np.max(np.abs(fd))) < 1e-6

    # (iii) class relabeling permutes every output without changing it
    lca2 = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    cfgA = TransferConfig(lambda_pool=(0.05, 0.08), lambda_bias=(0.02, 0.03),
                          max_em_iter=10, seed=0)
    cfgB = TransferConfig(lambda_pool=(0.08, 0.05), lambda_bias=(0.03, 0.02),
                          max_em_iter=10, seed=0)
    fitA = fit_targeted_psm(data, 2, cfgA, cfg.glm_family(), lca_model=lca2)
    lca2_p = LcaModel(
        prevalences=lca2.prevalences[::-1].copy(),
        mixing=lca2.mixing[:, ::-1].copy(),
        trace=lca2.trace, converged=lca2.converged,
    )
    fitB = fit_targeted_psm(data, 2, cfgB, cfg.glm_family(), lca_model=lca2_p)
    assert np.array_equal(fitB.b_target.values, fitA.b_target.values[:, ::-1])
    x_new, z_new = data.target.predictors[:9], data.target.structure_vars[:9]
    assert np.array_equal(
        predict_risk(fitB, x_new, z_new), predict_risk(fitA, x_new, z_new)
    )

    # (iv) the generator is bitwise deterministic in its seed
    d1, t1 = generate_scenario(cfg)
    d2, t2 = generate_scenario(cfg)
    assert all(
        np.array_equal(a.outcomes, b.outcomes)
        and np.array_equal(a.predictors, b.predictors)
        and np.array_equal(a.structure_vars, b.structure_vars)
        for a, b in zip(d1.studies, d2.studies)
    )
    assert all(np.array_equal(a, b) for a, b in zip(t1["classes"], t2["classes"]))

    # (v) rescaling all observation weights leaves the argmin unchanged
    raw = random_glm_problem(3)
    sol = solve_weighted_lasso_glm(problem_from_raw(raw))
    scaled = dict(raw)
    scaled["weights"] = raw["weights"] * 7.3
    sol_scaled = solve_weighted_lasso_glm(problem_from_raw(scaled))
    assert np.max(np.abs(sol.beta - sol_scaled.beta)) < 1e-10

    print(
        "criterion 8 PASS: row-stochastic memberships (1e-12), gradient vs "
        "finite differences (1e-6), exact class-relabeling equivariance, "
        "bitwise generator determinism, weight-scaling argmin invariance"
    )
