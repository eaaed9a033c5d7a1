"""The two-step transfer fit: the E-step and the penalized objective, monotone
traces, frozen classes (infinite penalty, low mass, failed solve), class
and source equivariance, CV tuning, the refusals made before step 1,
predict_risk and the fit file."""

import itertools
import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from targeted_psm.core import (
    EPS_CLIP,
    CoefficientMatrix,
    GlmFamily,
    MembershipMatrix,
    Study,
    StudyCollection,
    clip_rows,
    log_sum_exp_rows,
)
from targeted_psm import transfer
from targeted_psm.baselines import MethodId, fit_method
from targeted_psm.glm import SolverError
from targeted_psm.lca import LcaFitConfig, LcaModel, fit_lca, initial_memberships
from targeted_psm.simulate import generate_scenario, scenario_preset
from targeted_psm.transfer import (
    TransferConfig,
    _log_joint,
    _make_folds,
    _refined_rows,
    auto_tune_lambda,
    fit_targeted_psm,
    joint_estimate,
    lambda_scale,
    load_transfer_fit,
    penalized_mixture_objective,
    predict_risk,
    save_transfer_fit,
    transfer_fit_from_dict,
    transfer_fit_to_dict,
)
from _oracles import wls_solution


def _mini_config(**kw):
    base = dict(lambda_pool=0.05, lambda_bias=0.02, max_em_iter=40, seed=0)
    base.update(kw)
    return TransferConfig(**base)


def _pooled_rows(data):
    """(y, X) of every study of `data`, target first, as contiguous arrays."""
    return (np.concatenate([s.outcomes for s in data.studies]),
            np.vstack([s.predictors for s in data.studies]))


def _with_intercept(X):
    """[1 | X], the design _mixture_em takes."""
    return np.column_stack([np.ones(X.shape[0]), X])


@pytest.fixture(scope="module")
def mini_fit(tiny_scenario):
    config, data, truth = tiny_scenario
    fit = fit_targeted_psm(data, 3, _mini_config(), GlmFamily.logistic())
    return data, fit


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def test_e_step_is_bayes_rule(tiny_scenario):
    _, data, _ = tiny_scenario
    family = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    v = initial_memberships(lca, data)
    rng = np.random.default_rng(3)
    coef = CoefficientMatrix(
        values=rng.normal(size=(data.p, 2)) * 0.3,
        intercept=np.array([0.1, -0.2]),
    )
    y, X = _pooled_rows(data)
    v_rows = v.stacked()
    log_w = _log_joint(family, y, X, np.log(v_rows), coef)
    w_rows = _refined_rows(log_w, log_sum_exp_rows(log_w))
    eta = coef.linear_predictor(X)
    dens = np.exp(family.log_density(y[:, None], eta))
    direct = v_rows * dens
    direct /= direct.sum(axis=1, keepdims=True)
    from targeted_psm.core import clip_rows

    assert np.max(np.abs(w_rows - clip_rows(direct))) < 1e-12
    assert np.max(np.abs(w_rows.sum(axis=1) - 1)) < 1e-12


def test_e_step_equal_coefficients_leave_memberships_fixed(tiny_scenario):
    _, data, _ = tiny_scenario
    family = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    v = initial_memberships(lca, data)
    same = np.full((data.p, 2), 0.3)
    same[3] = -0.7
    coef = CoefficientMatrix(values=same, intercept=np.array([0.4, 0.4]))
    y, X = _pooled_rows(data)
    log_w = _log_joint(family, y, X, np.log(v.stacked()), coef)
    w_rows = _refined_rows(log_w, log_sum_exp_rows(log_w))
    assert np.max(np.abs(w_rows - v.stacked())) < 1e-12


# ---------------------------------------------------------------------------
# Stage rows: one design per stage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [GlmFamily.gaussian(), GlmFamily.logistic()],
                         ids=["gaussian", "logistic"])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
@pytest.mark.parametrize("n0, p", [(1, 1), (1, 9), (150, 1), (150, 9), (400, 60)])
def test_the_e_step_on_the_design_view_equals_a_contiguous_x_bit_for_bit(
        rng, family, n_classes, n0, p):
    # _mixture_em reads X as the strided view design[:, 1:]; its log joint,
    # and so every trace value and E-step, must be the one a contiguous X
    # gives.  A one-row target is the bias stage's smallest design.
    studies = [
        Study(rng.standard_normal(n), rng.standard_normal((n, p)),
              (rng.random((n, 2)) < 0.5).astype(float), k)
        for k, n in enumerate((n0, 80, 45))
    ]
    if family.kind == "logistic":
        studies = [replace(s, outcomes=(s.outcomes > 0).astype(float)) for s in studies]
    data = StudyCollection(target=studies[0], sources=tuple(studies[1:]))
    v = MembershipMatrix(probs=tuple(
        clip_rows(rng.dirichlet(np.ones(n_classes), size=s.n)) for s in studies))
    coef = CoefficientMatrix(values=rng.standard_normal((p, n_classes)),
                             intercept=rng.standard_normal(n_classes))
    for stage, members in (("pool", studies), ("bias", studies[:1])):
        y, design, study_index, v_rows = transfer._stage_rows(data, v, stage)
        X = np.vstack([s.predictors for s in members])
        assert design.flags.c_contiguous and np.all(design[:, 0] == 1.0)
        assert design[:, 1:].tobytes() == X.tobytes()
        assert y.tobytes() == np.concatenate([s.outcomes for s in members]).tobytes()
        assert np.array_equal(study_index, np.repeat(np.arange(len(members)), [s.n for s in members]))
        assert v_rows.tobytes() == np.vstack(v.probs[: len(members)]).tobytes()
        offsets = None if stage == "pool" else rng.standard_normal((n0, n_classes))
        log_v = np.log(v_rows)
        on_view = _log_joint(family, y, design[:, 1:], log_v, coef, offsets)
        assert on_view.tobytes() == _log_joint(family, y, X, log_v, coef, offsets).tobytes()


@pytest.mark.parametrize("family, bound", [("gaussian", 2.0), ("logistic", 3.75)])
def test_a_fixed_penalty_fit_holds_its_pool_rows_once(family, bound):
    # The peak of traced memory a fit adds, in units of the pool design's
    # bytes (n_total * (p + 1) doubles): the design itself, what a solve
    # adds (a gaussian solve one weighted row block, not a weighted copy of
    # the design; a logistic solve its scaled and weighted copies) and small
    # per-row vectors.  A second stacked copy of the rows adds about 1.
    config = scenario_preset("figure1-mini", K=5, n0=800, n_k=600, p=60, seed=1, family=family)
    data, _ = generate_scenario(config)
    kwargs = dict(config=TransferConfig(lambda_pool=0.02, lambda_bias=0.02, seed=1),
                  family=config.glm_family(), lca_config=LcaFitConfig(seed=1, n_starts=2))
    # a small fit first, so one-time costs (numpy imports numpy.ma lazily)
    # stay out of the measurement
    small, _ = generate_scenario(replace(config, K=1, n0=60, n_k=60))
    fit_targeted_psm(small, 3, **kwargs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fit_targeted_psm(data, 3, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = (peak - start) / (data.n_total * (data.p + 1) * 8)
    assert ratio < bound, f"the fit's peak is {ratio:.2f}x its pool design"


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------


def test_objective_manual_small_case():
    family = GlmFamily.logistic()
    y = np.array([1.0, 0.0])
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    v = np.array([[0.6, 0.4], [0.3, 0.7]])
    B = np.array([[0.5, -0.5], [1.0, 0.25]])
    coef = CoefficientMatrix(values=B)
    lambdas = np.array([0.1, 0.2])
    eta = X @ B
    dens = np.exp(y[:, None] * eta - np.logaddexp(0.0, eta))
    loss = -np.log((v * dens).sum(axis=1)).sum() / 2
    pen = 0.1 * np.abs(B[:, 0]).sum() + 0.2 * np.abs(B[:, 1]).sum()
    got = penalized_mixture_objective(family, y, X, v, coef, lambdas)
    assert got == pytest.approx(loss + pen, rel=1e-12)


def test_objective_invariant_under_class_relabeling(tiny_scenario):
    _, data, _ = tiny_scenario
    family = GlmFamily.logistic()
    y, X = _pooled_rows(data)
    rng = np.random.default_rng(11)
    v = rng.dirichlet(np.ones(3), size=y.shape[0])
    B = rng.normal(size=(data.p, 3))
    lambdas = np.array([0.1, 0.2, 0.3])
    coef = CoefficientMatrix(values=B)
    perm = [2, 0, 1]
    coef_p = CoefficientMatrix(values=B[:, perm])
    a = penalized_mixture_objective(family, y, X, v, coef, lambdas)
    b = penalized_mixture_objective(
        family, y, X, v[:, perm], coef_p, lambdas[perm]
    )
    assert a == b  # exact


# ---------------------------------------------------------------------------
# EM stages
# ---------------------------------------------------------------------------


def test_joint_trace_non_increasing(mini_fit):
    _, fit = mini_fit
    tj = np.asarray(fit.trace_joint)
    tb = np.asarray(fit.trace_bias)
    assert tj.size >= 1 and tb.size >= 1
    assert np.all(np.diff(tj) <= 1e-8)
    assert np.all(np.diff(tb) <= 1e-8)


def test_additive_identity(mini_fit):
    _, fit = mini_fit
    assert np.array_equal(
        fit.b_target.values, fit.b_pooled.values + fit.delta.values
    )
    assert np.array_equal(
        fit.b_target.intercept, fit.b_pooled.intercept + fit.delta.intercept
    )
    assert fit.n_classes == 3


def test_traces_end_at_the_objective_of_the_returned_coefficients(mini_fit):
    # the trace value of an iteration and the next E-step share one log
    # joint; the last value must still be the stage objective, bit for bit
    data, fit = mini_fit
    fam = fit.family
    v = initial_memberships(fit.lca_model, data)
    y, X = _pooled_rows(data)
    assert fit.trace_joint[-1] == penalized_mixture_objective(
        fam, y, X, v.stacked(), fit.b_pooled, fit.lambda_pool
    )
    tgt = data.target
    assert fit.trace_bias[-1] == penalized_mixture_objective(
        fam, tgt.outcomes, tgt.predictors, v.probs[0], fit.delta,
        fit.lambda_bias, offsets=fit.b_pooled.linear_predictor(tgt.predictors),
    )


def test_infinite_bias_penalty_freezes_correction(tiny_scenario):
    # one correction pass that solves nothing: Delta == 0, and the pass's
    # trace value is the objective at Delta == 0 with the pooled offsets
    _, data, _ = tiny_scenario
    cfg = _mini_config(lambda_bias=np.inf)
    fit = fit_targeted_psm(data, 2, cfg, GlmFamily.logistic())
    assert np.all(fit.delta.values == 0.0)
    assert np.all(fit.delta.intercept == 0.0)
    assert fit.n_iter_bias == 1
    tgt = data.target
    v = initial_memberships(fit.lca_model, data)
    assert fit.trace_bias[0] == penalized_mixture_objective(
        fit.family, tgt.outcomes, tgt.predictors, v.probs[0],
        CoefficientMatrix(values=np.zeros((data.p, 2))), fit.lambda_bias,
        offsets=fit.b_pooled.linear_predictor(tgt.predictors),
    )
    assert np.array_equal(fit.b_target.values, fit.b_pooled.values)
    # a NaN penalty is refused, not read as an infinite one
    with pytest.raises(ValueError, match=re.escape(
            "lambdas[0] must be a real number in [0, inf], got nan")):
        joint_estimate(data, v, cfg, fit.family, np.array([np.nan, np.inf]))


def test_single_class_stage_runs_one_m_step(tiny_scenario):
    # One class has memberships that are exactly ones, so each stage is a
    # single M-step: the uncapped fit is bitwise the fit capped at one pass.
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    fit = fit_targeted_psm(data, 1, _mini_config(), fam)
    capped = fit_targeted_psm(data, 1, _mini_config(max_em_iter=1), fam)
    assert (fit.n_iter_joint, fit.n_iter_bias) == (1, 1)
    assert (len(fit.trace_joint), len(fit.trace_bias)) == (1, 1)
    for a, b in ((fit.b_pooled, capped.b_pooled), (fit.delta, capped.delta)):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.intercept, b.intercept)
    assert fit.trace_joint == capped.trace_joint
    assert fit.trace_bias == capped.trace_bias


def test_em_stage_at_its_cap_warns_and_changes_nothing(tiny_scenario, monkeypatch):
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    monkeypatch.setattr(transfer, "DEFAULT_TAU", 0.0)
    cfg = _mini_config(max_em_iter=2)
    with pytest.warns(RuntimeWarning, match="cap of 2") as caught:
        fit = fit_targeted_psm(data, 2, cfg, fam, lca_model=lca)
    stages = {s for s in ("pool", "bias")
              if any(s in str(w.message) for w in caught)}
    assert stages == {"pool", "bias"}
    assert (fit.n_iter_joint, fit.n_iter_bias) == (2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = fit_targeted_psm(data, 2, cfg, fam, lca_model=lca)
    for a, b in ((fit.b_pooled, quiet.b_pooled), (fit.delta, quiet.delta)):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.intercept.tobytes() == b.intercept.tobytes()
    assert fit.trace_joint == quiet.trace_joint
    assert fit.trace_bias == quiet.trace_bias
    # one-pass fits never reach a cap of more than one iteration
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_targeted_psm(data, 2, _mini_config(max_em_iter=1), fam, lca_model=lca)
        fit_targeted_psm(data, 1, _mini_config(max_em_iter=2), fam)


def test_an_infinite_penalty_zeroes_a_class_below_the_mass_floor_without_warning(rng):
    # The infinite penalty is decided first: the class is pinned at zero,
    # not frozen for its low mass with a warning.
    n, p = 50, 10
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    v_rows = np.column_stack([np.full(n, 1.0 - EPS_CLIP), np.full(n, EPS_CLIP)])
    assert v_rows[:, 1].sum() < transfer.DEGENERATE_MASS_FACTOR * p * EPS_CLIP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef, _, trace = transfer._mixture_em(
            GlmFamily.logistic(), y, _with_intercept(X), v_rows, [0.05, np.inf], stage="pool",
            max_iter=1,
        )
    assert np.all(coef.values[:, 1] == 0.0) and coef.intercept[1] == 0.0
    assert np.any(coef.values[:, 0] != 0.0)
    assert len(trace) == 1


def test_a_class_below_the_mass_floor_is_frozen_with_a_warning(rng):
    # Only a stage of fewer than 10 * p rows can fall below the floor
    # 10 * p * EPS_CLIP: here class 1 holds 20 * EPS_CLIP of the mass.
    n0, p = 20, 5
    target = Study((rng.random(n0) < 0.5).astype(float), rng.standard_normal((n0, p)),
                   (rng.random((n0, 2)) < 0.5).astype(float), 0)
    data = StudyCollection(target=target)
    v = MembershipMatrix(probs=(np.column_stack([np.full(n0, 1.0 - EPS_CLIP),
                                                 np.full(n0, EPS_CLIP)]),))
    floor = transfer.DEGENERATE_MASS_FACTOR * p * EPS_CLIP
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coef, _, trace, n_iter, _ = joint_estimate(
            data, v, _mini_config(max_em_iter=5), GlmFamily.logistic(), np.array([0.05, 0.05])
        )
    # one warning per iteration, and no cap warning: a low-mass freeze
    # counts toward convergence
    assert [w.category for w in caught] == [RuntimeWarning] * n_iter and n_iter > 1
    for w in caught:
        assert str(w.message).startswith("class 1 carries weight mass ")
        assert str(w.message).endswith(
            f" < {floor:.3e}; its coefficients are frozen for this iteration")
    assert np.all(coef.values[:, 1] == 0.0) and coef.intercept[1] == 0.0
    assert np.any(coef.values[:, 0] != 0.0) or coef.intercept[0] != 0.0
    assert np.all(np.diff(trace) <= 0.0)


def _failing_class(real, failing):
    # A stand-in solver for a two-class stage: calls alternate class 0,
    # class 1, and a call whose index `failing` accepts raises SolverError
    # carrying the real solution, which it also appends to `flaky.failed`.
    calls = itertools.count()

    def flaky(prob, init=None):
        sol = real(prob, init=init)
        if failing(next(calls)):
            flaky.failed.append(sol)
            raise SolverError("injected", sol)
        return sol

    flaky.failed = []
    return flaky


def test_a_failed_m_step_solve_freezes_its_class(tiny_scenario, monkeypatch):
    # With numeric penalties the pooling stage makes the fit's first solver
    # calls, class by class: call 3 is class 1 of the second M-step.
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    one_pass = fit_targeted_psm(data, 2, _mini_config(max_em_iter=1), fam, lca_model=lca)
    flaky = _failing_class(transfer.solve_weighted_lasso_glm, lambda i: i == 3)
    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", flaky)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_targeted_psm(data, 2, _mini_config(max_em_iter=2), fam, lca_model=lca)
    assert [str(w.message) for w in caught if "solve" in str(w.message)] == [
        f"class 1 of the pool stage failed its solve (KKT residual "
        f"{flaky.failed[0].kkt_max_violation:.3e}); its coefficients are frozen for this iteration"
    ]
    assert fit.n_iter_joint == 2
    assert fit.b_pooled.values[:, 1].tobytes() == one_pass.b_pooled.values[:, 1].tobytes()
    assert fit.b_pooled.intercept[1] == one_pass.b_pooled.intercept[1]
    assert fit.b_pooled.values[:, 0].tobytes() != one_pass.b_pooled.values[:, 0].tobytes()
    for trace in (fit.trace_joint, fit.trace_bias):
        assert np.all(np.diff(trace) <= 1e-8)


def _two_class_stage(rng, n=200, p=5):
    # two well separated classes, so the stage converges in a few passes
    X = rng.standard_normal((n, p))
    z = rng.random(n) < 0.5
    eta = np.where(z, 2.0 * X[:, 0], 1.0 - 2.0 * X[:, 0])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    v_rows = np.where(z[:, None], [0.1, 0.9], [0.9, 0.1])
    return y, X, v_rows


def test_a_failed_solve_on_the_first_m_step_raises(rng, monkeypatch):
    # The first pass has no previous estimate to keep, only the all-zero
    # start, so its failure reaches the caller.
    y, X, v_rows = _two_class_stage(rng)
    flaky = _failing_class(transfer.solve_weighted_lasso_glm, lambda i: i == 1)
    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", flaky)
    with pytest.raises(SolverError, match="injected"):
        transfer._mixture_em(
            GlmFamily.logistic(), y, _with_intercept(X), v_rows, [0.05, 0.05], stage="pool",
            max_iter=10,
        )


def test_an_iteration_with_a_failed_solve_never_counts_as_converged(rng, monkeypatch):
    # Class 1 fails every M-step after the first: its frozen state adds
    # nothing to the parameter change, yet the stage runs to its cap and
    # says so, where the same stage without failures converges early.
    y, X, v_rows = _two_class_stage(rng)
    args = (GlmFamily.logistic(), y, _with_intercept(X), v_rows, [0.05, 0.05])
    cap = 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged = transfer._mixture_em(*args, stage="pool", max_iter=cap)[2]
    assert len(converged) < cap
    flaky = _failing_class(transfer.solve_weighted_lasso_glm, lambda i: i >= 3 and i % 2 == 1)
    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", flaky)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coef, _, trace = transfer._mixture_em(*args, stage="pool", max_iter=cap)
    messages = [str(w.message) for w in caught]
    assert len(trace) == cap
    assert sum("class 1 of the pool stage failed its solve" in m for m in messages) == cap - 1
    assert messages[-1] == f"pool EM stopped at its cap of {cap} iterations without meeting tau=0.0001"
    assert np.all(np.diff(trace) <= 1e-8)


def test_predictors_scaled_by_1e4_fit_with_failed_solves_frozen():
    # Predictors in the tens of thousands leave class 2's correction solve
    # short of the KKT tolerance from its third iteration on: each failure
    # freezes the class for that iteration, so the correction never counts
    # as converged and stops at its cap (20 here, just above the pooling
    # stage's 18 iterations), and the fit ends with monotone traces.  Each
    # failed solve gives up once its best KKT residual stops halving
    # (glm.STALL_FACTOR, STALL_PASSES), well before the IRLS pass cap.
    config = scenario_preset("figure1-mini", K=2, n0=120, n_k=150, p=10, seed=1)
    data, _ = generate_scenario(config)

    def scaled(s):
        return Study(s.outcomes, s.predictors * 1e4, s.structure_vars, s.study_id)

    data = StudyCollection(target=scaled(data.target), sources=tuple(map(scaled, data.sources)))
    cfg = TransferConfig(lambda_pool=0.01, lambda_bias=0.01, max_em_iter=20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_targeted_psm(data, 3, cfg, config.glm_family(), lca_config=LcaFitConfig(n_starts=3, seed=1))
    messages = [str(w.message) for w in caught]
    assert (fit.n_iter_joint, fit.n_iter_bias) == (18, 20)
    assert messages[-1] == "bias EM stopped at its cap of 20 iterations without meeting tau=0.0001"
    assert len(messages) == 19
    assert all(m.startswith("class 2 of the bias stage failed its solve") for m in messages[:-1])
    for trace in (fit.trace_joint, fit.trace_bias):
        assert np.all(np.diff(trace) <= 1e-8)
    assert np.all(np.isfinite(fit.b_target.values))


def test_single_class_zero_penalty_gaussian_matches_wls(rng):
    # With one class and no penalty, the pooling stage is a single weighted
    # least-squares solve on [1, X] and the correction stage offsets it
    # exactly, so b_target (intercept included) equals plain least squares
    # on the target.
    n0, n1, p = 60, 80, 4
    X0 = rng.normal(size=(n0, p))
    X1 = rng.normal(size=(n1, p))
    beta = np.array([1.0, -0.5, 0.0, 0.25])
    y0 = X0 @ beta + rng.normal(size=n0)
    y1 = X1 @ (beta + 0.3) + rng.normal(size=n1)
    Z0 = (rng.random((n0, 2)) < 0.5).astype(float)
    Z1 = (rng.random((n1, 2)) < 0.5).astype(float)
    data = StudyCollection(
        target=Study(outcomes=y0, predictors=X0, structure_vars=Z0, study_id=0),
        sources=(Study(outcomes=y1, predictors=X1, structure_vars=Z1, study_id=1),),
    )
    cfg = TransferConfig(lambda_pool=0.0, lambda_bias=0.0, max_em_iter=5)
    fit = fit_targeted_psm(data, 1, cfg, GlmFamily.gaussian())
    direct = wls_solution(np.column_stack([np.ones(n0), X0]), y0, np.ones(n0))
    assert abs(fit.b_target.intercept[0] - direct[0]) < 1e-7
    assert np.max(np.abs(fit.b_target.values[:, 0] - direct[1:])) < 1e-7


def test_class_permutation_equivariance_bitwise(tiny_scenario):
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    cfg = _mini_config(lambda_pool=(0.05, 0.08), lambda_bias=(0.02, 0.03))
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    fit = fit_targeted_psm(data, 2, cfg, fam, lca_model=lca)

    lca_p = LcaModel(
        prevalences=lca.prevalences[::-1].copy(),
        mixing=lca.mixing[:, ::-1].copy(),
        trace=lca.trace,
        converged=lca.converged,
    )
    cfg_p = _mini_config(lambda_pool=(0.08, 0.05), lambda_bias=(0.03, 0.02))
    fit_p = fit_targeted_psm(data, 2, cfg_p, fam, lca_model=lca_p)

    assert np.array_equal(fit_p.b_target.values, fit.b_target.values[:, ::-1])
    assert np.array_equal(fit_p.b_target.intercept, fit.b_target.intercept[::-1])
    assert fit_p.n_iter_joint == fit.n_iter_joint
    assert fit_p.n_iter_bias == fit.n_iter_bias
    assert fit_p.trace_joint == fit.trace_joint
    assert fit_p.trace_bias == fit.trace_bias

    x_new = data.target.predictors[:7]
    z_new = data.target.structure_vars[:7]
    assert np.array_equal(
        predict_risk(fit_p, x_new, z_new), predict_risk(fit, x_new, z_new)
    )


def test_source_order_invariance(tiny_scenario):
    _, data, _ = tiny_scenario
    swapped = StudyCollection(target=data.target, sources=data.sources[::-1])
    cfg = _mini_config()
    fam = GlmFamily.logistic()
    f1 = fit_targeted_psm(data, 2, cfg, fam)
    f2 = fit_targeted_psm(swapped, 2, cfg, fam)
    assert np.array_equal(f1.b_target.values, f2.b_target.values)


def test_prefitted_lca_mismatch_raises(tiny_scenario):
    _, data, _ = tiny_scenario
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    with pytest.raises(ValueError, match="class count"):
        fit_targeted_psm(data, 3, _mini_config(), lca_model=lca)
    single = StudyCollection(target=data.target)
    with pytest.raises(ValueError, match="study count"):
        fit_targeted_psm(single, 2, _mini_config(), lca_model=lca)
    wrong_q = LcaModel(prevalences=np.full((2, data.q + 1), 0.5), mixing=lca.mixing)
    with pytest.raises(ValueError, match=f"the model has q={data.q + 1}, not q={data.q}"):
        fit_targeted_psm(data, 2, _mini_config(), lca_model=wrong_q)


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------


def test_lambda_scale_formula():
    assert lambda_scale(50, 200) == pytest.approx(
        np.sqrt(np.log(50) / 200), rel=1e-14
    )
    # guards p < 2 so the penalty never collapses to zero
    assert lambda_scale(1, 100) == pytest.approx(np.sqrt(np.log(2) / 100), rel=1e-14)


def test_make_folds_stratified_and_guarded(rng):
    y = rng.integers(0, 2, size=120).astype(float)
    study_index = np.repeat([0, 1, 2], 40)
    fold = _make_folds(y, study_index, 4, GlmFamily.logistic(), seed=0, stage="pool")
    assert fold.shape == (120,)
    for k in range(3):
        counts = np.bincount(fold[study_index == k], minlength=4)
        assert counts.max() - counts.min() <= 1  # balanced within study
    with pytest.raises(ValueError, match="lambda_pool could not build 3 usable CV folds"):
        _make_folds(
            np.ones(30), np.zeros(30, dtype=int), 3, GlmFamily.logistic(), seed=0, stage="pool"
        )


def test_auto_tune_ties_prefer_larger_lambda(tiny_scenario):
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    v = initial_memberships(lca, data)
    base = auto_tune_lambda(
        data, v, fam, "pool", grid=(0.5,), cv_folds=3, seed=0
    )
    dup = auto_tune_lambda(
        data, v, fam, "pool", grid=(0.5, 0.5), cv_folds=3, seed=0
    )
    assert np.array_equal(base, dup)
    with pytest.raises(ValueError, match="stage"):
        auto_tune_lambda(data, v, fam, "nope")


@pytest.mark.parametrize("grid, rule", [
    ((), "must be a non-empty sequence, got ()"),
    ([], "must be a non-empty sequence, got []"),
    (np.array([]), "must be a non-empty sequence, got array([], dtype=float64)"),
    (np.array(1.0), "must be a non-empty sequence, got array(1.)"),
    (0.5, "must be a non-empty sequence, got 0.5"),
    ([[0.5, 1.0]], "must be a non-empty sequence, got [[0.5, 1.0]]"),
    ((0.0, 1.0), "multipliers[0] must be a real number in (0, inf), got 0.0"),
    ((0.5, np.inf), "multipliers[1] must be a real number in (0, inf), got inf"),
], ids=["empty tuple", "empty list", "empty array", "0-d array", "scalar", "2-d", "zero", "inf"])
def test_a_cv_grid_meets_one_rule_at_both_entry_points(tiny_scenario, grid, rule):
    # TransferConfig.cv_grid and auto_tune_lambda's grid: a non-empty, 1-d
    # sequence of multipliers in (0, inf), refused before any solve
    _, data, _ = tiny_scenario
    v = MembershipMatrix(probs=tuple(np.full((s.n, 2), 0.5) for s in data.studies))
    with pytest.raises(ValueError, match=re.escape(f"cv_grid {rule}")):
        TransferConfig(cv_grid=grid)
    with pytest.raises(ValueError, match=re.escape(f"grid {rule}")):
        auto_tune_lambda(data, v, GlmFamily.logistic(), "pool", grid=grid)


def test_auto_tune_bias_requires_offsets(tiny_scenario):
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    v = initial_memberships(lca, data)
    with pytest.raises(ValueError, match="offsets"):
        auto_tune_lambda(data, v, fam, "bias", cv_folds=3, seed=0)


def test_auto_tune_scores_a_failed_candidate_inf(tiny_scenario, monkeypatch):
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    grid, folds = (0.1, 0.3, 1.0, 3.0), 3
    config = _mini_config(lambda_pool="auto", cv_grid=grid, cv_folds=folds)
    clean = fit_targeted_psm(data, 2, config, fam, lca_model=lca)
    candidates = np.sort(grid)[::-1] * lambda_scale(data.p, data.n_total)
    bad = int(np.flatnonzero(candidates == clean.lambda_pool[0])[0])

    # The pooling stage's CV makes the fit's first C * folds * len(grid)
    # solver calls, class by class, fold by fold, candidates in order.
    assert bad < len(grid) - 1  # so a candidate follows the failing one
    real = transfer.solve_weighted_lasso_glm
    calls = itertools.count()
    failed = []
    warm_starts = []

    def flaky(prob, init=None):
        k = next(calls)
        if failed and len(warm_starts) < len(failed):
            warm_starts.append(init is failed[-1].beta)
        sol = real(prob, init=init)
        if k < 2 * folds * len(grid) and k % len(grid) == bad:
            failed.append(sol)
            raise SolverError("injected", sol)
        return sol

    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", flaky)
    fit = fit_targeted_psm(data, 2, config, fam, lca_model=lca)
    assert len(failed) == 2 * folds
    assert warm_starts == [True] * len(failed)
    assert not np.any(fit.lambda_pool == candidates[bad])
    assert np.all(np.isin(fit.lambda_pool, candidates))


def test_auto_tune_raises_when_every_candidate_fails(tiny_scenario, monkeypatch):
    _, data, _ = tiny_scenario
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    v = initial_memberships(lca, data)
    real = transfer.solve_weighted_lasso_glm

    def failing(prob, init=None):
        raise SolverError("injected", real(prob, init=init))

    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", failing)
    with pytest.raises(SolverError, match="class 0 failed in the pool stage"):
        auto_tune_lambda(
            data, v, GlmFamily.logistic(), "pool", grid=(0.5, 1.0), cv_folds=3, seed=0
        )


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_auto_tune_on_a_single_valued_outcome_names_the_stage(tiny_scenario, value):
    # A logistic stage whose y take one value has no finite optimum, so any
    # finite penalty is refused before step 1; an infinite one freezes it.
    _, data, _ = tiny_scenario
    fam = GlmFamily.logistic()
    constant = lambda study: replace(study, outcomes=np.full(study.n, value))
    data = StudyCollection(target=constant(data.target), sources=data.sources)
    lca = fit_lca(data, 2, LcaFitConfig(seed=0, n_starts=2))
    auto = _mini_config(lambda_pool="auto", lambda_bias="auto", cv_grid=(0.3, 1.0), cv_folds=3)
    refusal = (f"every y of the bias stage is {value:g}, so its logistic fit has no finite "
               "optimum; give lambda_bias=inf to freeze the stage")
    for lambda_bias in ("auto", 0.02, (0.02, np.inf)):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            fit_targeted_psm(data, 2, replace(auto, lambda_bias=lambda_bias), fam, lca_model=lca)
    fit = fit_targeted_psm(data, 2, replace(auto, lambda_bias=np.inf), fam, lca_model=lca)
    assert np.all(fit.delta.values == 0.0) and np.all(fit.delta.intercept == 0.0)

    # auto_tune_lambda called alone refuses the stage by the same rule
    everywhere = StudyCollection(target=data.target, sources=tuple(map(constant, data.sources)))
    refusal = (f"every y of the pool stage is {value:g}, so its logistic fit has no finite "
               "optimum; give lambda_pool=inf to freeze the stage")
    with pytest.raises(ValueError, match=re.escape(refusal)):
        auto_tune_lambda(everywhere, initial_memberships(lca, everywhere), fam, "pool")


@pytest.mark.parametrize(
    "setting, edit, message",
    [
        (dict(lambda_pool=[0.1, 0.2]), None,
         "per-class lambda_pool has 2 entries; the class count is 3"),
        (dict(lambda_bias=[0.1, 0.2, 0.3, 0.4]), None,
         "per-class lambda_bias has 4 entries; the class count is 3"),
        (dict(lambda_bias="auto"), "target without events",
         "every y of the bias stage is 0, so its logistic fit has no finite optimum; "
         "give lambda_bias=inf to freeze the stage"),
        (dict(lambda_bias=0.02), "target without events",
         "every y of the bias stage is 0, so its logistic fit has no finite optimum; "
         "give lambda_bias=inf to freeze the stage"),
        (dict(lambda_pool="auto"), "no events",
         "every y of the pool stage is 0, so its logistic fit has no finite optimum; "
         "give lambda_pool=inf to freeze the stage"),
        (dict(lambda_pool=[0.05, np.inf, 0.05]), "no events",
         "every y of the pool stage is 0, so its logistic fit has no finite optimum; "
         "give lambda_pool=inf to freeze the stage"),
        # 9 rows, but fold f is filled only from studies of more than f rows
        (dict(lambda_pool="auto", cv_folds=5), "three gaussian studies of 3 rows",
         "'auto' tuning of lambda_pool cannot fill 5 CV folds: folds are filled within each "
         "study and the largest study of the pool stage has 3 rows; lower cv_folds or give "
         "lambda_pool a numeric value"),
    ],
)
def test_a_penalty_setting_the_data_cannot_serve_is_refused_before_step_1(
    tiny_scenario, monkeypatch, setting, edit, message
):
    _, data, _ = tiny_scenario
    family = GlmFamily.logistic()
    no_events = lambda study: replace(study, outcomes=np.zeros(study.n))
    three_rows = lambda s: Study(s.predictors[:3, 0], s.predictors[:3], s.structure_vars[:3],
                                 s.study_id)
    if edit == "target without events":
        data = StudyCollection(target=no_events(data.target), sources=data.sources)
    elif edit == "no events":
        data = StudyCollection(target=no_events(data.target), sources=tuple(map(no_events, data.sources)))
    elif edit == "three gaussian studies of 3 rows":
        data = StudyCollection(target=three_rows(data.target),
                               sources=tuple(map(three_rows, data.sources)))
        family = GlmFamily.gaussian()

    def never(*args, **kwargs):
        raise AssertionError("fit_lca ran before the penalty settings were checked")

    monkeypatch.setattr(transfer, "fit_lca", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_targeted_psm(data, 3, _mini_config(**setting), family)


def _refusal_case(data, refusal):
    """(collection, family, config) whose pool stage meets `refusal` first,
    in every method: all of its studies for the two-step methods, the
    target alone for lca_glm and naive_lasso."""
    auto = _mini_config(lambda_pool="auto", cv_folds=5)
    if refusal == "wrong length":
        return data, GlmFamily.logistic(), _mini_config(lambda_pool=(0.1, 0.2, 0.3))
    if refusal == "too few rows":
        three = lambda s: Study(s.predictors[:3, 0], s.predictors[:3], s.structure_vars[:3],
                                s.study_id)
        studies = StudyCollection(target=three(data.target), sources=tuple(map(three, data.sources)))
        return studies, GlmFamily.gaussian(), auto
    # two events (or non-events), both in the target
    two = lambda s: (np.arange(s.n) < 2) if s.study_id == 0 else np.zeros(s.n)
    y = {"single-valued": lambda s: np.zeros(s.n), "too few events": two,
         "too few non-events": lambda s: 1 - two(s)}[refusal]
    edit = lambda s: replace(s, outcomes=y(s).astype(float))
    studies = StudyCollection(target=edit(data.target), sources=tuple(map(edit, data.sources)))
    return studies, GlmFamily.logistic(), auto


_REFUSALS = {
    "single-valued": "every y of the pool stage is 0, so its logistic fit has no finite optimum; "
                     "give lambda_pool=inf to freeze the stage",
    "too few rows": "'auto' tuning of lambda_pool cannot fill 5 CV folds: folds are filled within "
                    "each study and the largest study of the pool stage has 3 rows; lower "
                    "cv_folds or give lambda_pool a numeric value",
    "too few events": "'auto' tuning of lambda_pool cannot fill 5 CV folds from 2 events; lower "
                      "cv_folds or give lambda_pool a numeric value",
    "too few non-events": "'auto' tuning of lambda_pool cannot fill 5 CV folds from 2 non-events; "
                          "lower cv_folds or give lambda_pool a numeric value",
    "wrong length": "per-class lambda_pool has 3 entries; the class count is {C}",
}
_ENTRY_POINTS = ["fit_targeted_psm", "auto_tune_lambda", *(m.value for m in MethodId)]


@pytest.mark.parametrize("refusal, entry", [
    (refusal, entry) for refusal in _REFUSALS for entry in _ENTRY_POINTS
    # auto_tune_lambda takes no penalty setting, so it meets no per-class list
    if (refusal, entry) != ("wrong length", "auto_tune_lambda")
])
def test_every_entry_point_refuses_a_stage_by_one_rule(tiny_scenario, monkeypatch, refusal,
                                                       entry):
    data, family, config = _refusal_case(tiny_scenario[1], refusal)

    def never(*args, **kwargs):
        raise AssertionError("a fit ran before the stage was admitted")

    monkeypatch.setattr(transfer, "fit_lca", never)
    monkeypatch.setattr(transfer, "solve_weighted_lasso_glm", never)
    message = _REFUSALS[refusal].format(C=1 if entry in ("naive_lasso", "trans_glm") else 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        if entry == "fit_targeted_psm":
            fit_targeted_psm(data, 2, config, family)
        elif entry == "auto_tune_lambda":
            v = MembershipMatrix(probs=tuple(np.full((s.n, 2), 0.5) for s in data.studies))
            auto_tune_lambda(data, v, family, "pool", grid=config.cv_grid,
                             cv_folds=config.cv_folds, seed=config.seed)
        else:
            fit_method(entry, data, 2, config, family)


@pytest.mark.parametrize("call, message", [
    (lambda data, v, fam: auto_tune_lambda(data, v, fam, "pool", grid=[[0.5, 1.0]]),
     "grid must be a non-empty sequence, got [[0.5, 1.0]]"),
    (lambda data, v, fam: auto_tune_lambda(data, v, fam, "bias",
                                           offsets_by_class=np.zeros((data.n0, 2))),
     "offsets_by_class must be (n, C)"),
    (lambda data, v, fam: joint_estimate(data, MembershipMatrix(probs=v.probs[:1]),
                                         _mini_config(), fam, np.full(3, 0.05)),
     "memberships do not match the study collection"),
    (lambda data, v, fam: auto_tune_lambda(data, MembershipMatrix(probs=v.probs[:1]), fam, "pool"),
     "memberships do not match the study collection"),
], ids=["2-d grid", "offsets shape", "membership studies", "tuning membership studies"])
def test_a_stage_call_that_does_not_fit_its_data_is_refused(mini_fit, call, message):
    data, fit = mini_fit
    with pytest.raises(ValueError, match=re.escape(message)):
        call(data, fit.refined_weights, fit.family)


def test_transfer_config_validation():
    with pytest.raises(ValueError):
        TransferConfig(max_em_iter=0)
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            TransferConfig(seed=seed)
    with pytest.raises(ValueError):
        TransferConfig(lambda_pool="bogus")
    with pytest.raises(ValueError):
        TransferConfig(lambda_pool=-0.1)
    with pytest.raises(ValueError):
        TransferConfig(lambda_pool="auto", cv_folds=1)
    # a boolean, a string or NaN is not read as a number
    for setting, message in (
        ({"lambda_pool": True}, "lambda_pool values must be a real number in [0, inf], got True"),
        ({"lambda_bias": [0.1, False]},
         "lambda_bias values[1] must be a real number in [0, inf], got False"),
        ({"lambda_bias": np.array([True, False])},
         "lambda_bias values[0] must be a real number in [0, inf], got True"),
        ({"cv_grid": (True, 2.0)},
         "cv_grid multipliers[0] must be a real number in (0, inf), got True"),
        ({"lambda_bias": [0.1, "inf"]},
         "lambda_bias values[1] must be a real number in [0, inf], got 'inf'"),
        ({"lambda_pool": float("nan")},
         "lambda_pool values must be a real number in [0, inf], got nan"),
        ({"cv_grid": ("0.1", 1)},
         "cv_grid multipliers[0] must be a real number in (0, inf), got '0.1'"),
        ({"cv_grid": (0.5, float("inf"))},
         "cv_grid multipliers[1] must be a real number in (0, inf), got inf"),
        ({"cv_grid": ()}, "cv_grid must be a non-empty sequence, got ()"),
        ({"lambda_pool": [[0.1]]}, "lambda_pool must be 'auto', a scalar, or a sequence"),
        ({"cv_grid": [[1.0, 2.0]]}, "cv_grid must be a non-empty sequence, got [[1.0, 2.0]]"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            TransferConfig(**setting)


@pytest.mark.parametrize("n_classes", [2.5, True, 0])
def test_a_class_count_that_is_not_an_integer_is_refused_before_any_fit(tiny_scenario,
                                                                        monkeypatch, n_classes):
    _, data, _ = tiny_scenario

    def never(*args, **kwargs):
        raise AssertionError("fit_lca ran before the class count was checked")

    monkeypatch.setattr(transfer, "fit_lca", never)
    with pytest.raises(ValueError, match=f"n_classes must be an integer >= 1, got {n_classes!r}"):
        fit_targeted_psm(data, n_classes, _mini_config(), GlmFamily.logistic())


def test_per_class_lambda_shape_checked(tiny_scenario):
    _, data, _ = tiny_scenario
    cfg = _mini_config(lambda_pool=(0.1, 0.2, 0.3))  # 3 values for C=2
    with pytest.raises(ValueError, match="per-class"):
        fit_targeted_psm(data, 2, cfg, GlmFamily.logistic())


# ---------------------------------------------------------------------------
# Prediction and serialization
# ---------------------------------------------------------------------------


def test_predict_risk_shapes_and_manual_value(mini_fit):
    data, fit = mini_fit
    x = data.target.predictors[:5]
    z = data.target.structure_vars[:5]
    batch = predict_risk(fit, x, z)
    assert batch.shape == (5,)
    one = predict_risk(fit, x[0], z[0])
    assert isinstance(one, float)
    assert one == batch[0]
    assert np.all((batch > 0) & (batch < 1))
    # manual recomputation
    from targeted_psm.lca import membership_for_pattern

    v_star = membership_for_pattern(fit.lca_model, z, study_row=0)
    mu = fit.family.mean(fit.b_target.linear_predictor(x))
    assert np.max(np.abs(batch - (mu * v_star).sum(axis=1))) < 1e-12
    with pytest.raises(ValueError, match="same subjects"):
        predict_risk(fit, x, z[:3])


def test_predict_risk_single_class_ignores_structure(tiny_scenario):
    _, data, _ = tiny_scenario
    fit = fit_targeted_psm(data, 1, _mini_config(), GlmFamily.logistic())
    x = data.target.predictors[:4]
    z1 = data.target.structure_vars[:4]
    z2 = 1.0 - z1
    assert np.array_equal(predict_risk(fit, x, z1), predict_risk(fit, x, z2))


def test_predict_risk_rejects_invalid_inputs(mini_fit):
    data, fit = mini_fit
    x = data.target.predictors[:4].copy()
    z = data.target.structure_vars[:4].copy()
    bad_z = z.copy()
    bad_z[1, 0] = 0.5
    with pytest.raises(ValueError, match=re.escape("z[1, 0] must be a real number in {0, 1}, got 0.5")):
        predict_risk(fit, x, bad_z)
    bad_x = x.copy()
    bad_x[2, 3] = np.nan
    with pytest.raises(ValueError, match=re.escape(
            "x_new[2, 3] must be a real number in (-inf, inf), got nan")):
        predict_risk(fit, bad_x, z)
    bad_x[2, 3] = np.inf
    with pytest.raises(ValueError, match=re.escape(
            "x_new[2, 3] must be a real number in (-inf, inf), got inf")):
        predict_risk(fit, bad_x, z)
    with pytest.raises(ValueError, match="p="):
        predict_risk(fit, x[:, :-1], z)
    with pytest.raises(ValueError, match="q="):
        predict_risk(fit, x, np.column_stack([z, z[:, :1]]))
    with pytest.raises(ValueError, match="p="):
        predict_risk(fit, x[0, :-1], z[0])


def test_serialization_writes_strict_json_for_infinite_penalties(tmp_path, tiny_scenario):
    _, data, _ = tiny_scenario
    fit = fit_targeted_psm(data, 2, _mini_config(lambda_bias=np.inf), GlmFamily.logistic())
    path = tmp_path / "fit.json"
    save_transfer_fit(fit, path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["lambda_bias"] == [None, None]
    assert payload["lambda_pool"] == [0.05, 0.05]
    back = load_transfer_fit(path)
    assert np.array_equal(back.lambda_bias, np.full(2, np.inf))
    assert np.array_equal(back.lambda_pool, fit.lambda_pool)
    assert np.array_equal(back.b_target.values, fit.b_target.values)


def test_serialization_roundtrip(tmp_path, mini_fit):
    data, fit = mini_fit
    path = tmp_path / "fit.json"
    save_transfer_fit(fit, path)
    back = load_transfer_fit(path)
    assert back.refined_weights is None  # per-subject weights not persisted
    assert np.array_equal(back.b_target.values, fit.b_target.values)
    assert np.array_equal(back.b_target.intercept, fit.b_target.intercept)
    assert np.array_equal(back.b_pooled.values, fit.b_pooled.values)
    assert np.array_equal(back.delta.values, fit.delta.values)
    assert np.array_equal(back.lambda_pool, fit.lambda_pool)
    assert np.array_equal(back.lambda_bias, fit.lambda_bias)
    assert back.trace_joint == fit.trace_joint
    assert back.n_iter_joint == fit.n_iter_joint
    assert back.family.kind == fit.family.kind
    x = data.target.predictors[:6]
    z = data.target.structure_vars[:6]
    assert np.array_equal(predict_risk(back, x, z), predict_risk(fit, x, z))
    # dict round-trip preserves everything as well
    again = transfer_fit_from_dict(transfer_fit_to_dict(fit))
    assert np.array_equal(again.b_target.values, fit.b_target.values)
    # the file restates nothing: b_target is b_pooled + delta, counts are
    # trace lengths and coefficient widths
    payload = json.loads(path.read_text())
    assert payload.keys() == {
        "kind", "family", "dispersion", "b_pooled", "delta", "lambda_pool",
        "lambda_bias", "trace_joint", "trace_bias", "lca_model",
    }
    assert payload["lca_model"].keys() == {"prevalences", "mixing", "trace", "converged"}
    for key in ("b_pooled", "delta"):
        assert payload[key].keys() == {"values", "intercept"}


def test_older_fit_files_with_restated_keys_still_load(tmp_path, mini_fit):
    _, fit = mini_fit
    payload = transfer_fit_to_dict(fit)
    payload["b_target"] = {"values": fit.b_target.values.tolist(),
                           "intercept": fit.b_target.intercept.tolist()}
    for key, role in (
        ("b_pooled", "pooled_B"), ("delta", "correction_Delta"), ("b_target", "target_B0"),
    ):
        payload[key]["role"] = role
    payload["n_iter_joint"] = fit.n_iter_joint
    payload["n_iter_bias"] = fit.n_iter_bias
    payload["fit_intercept"] = True
    payload["lca_model"].update(
        n_classes=fit.n_classes, log_lik=fit.lca_model.log_lik, n_iter=fit.lca_model.n_iter
    )
    path = tmp_path / "older.json"
    path.write_text(json.dumps(payload, indent=2))
    back = load_transfer_fit(path)
    for key in ("b_pooled", "delta", "b_target"):
        assert np.array_equal(getattr(back, key).values, getattr(fit, key).values)
        assert np.array_equal(getattr(back, key).intercept, getattr(fit, key).intercept)
    assert np.array_equal(back.lca_model.prevalences, fit.lca_model.prevalences)
    assert np.array_equal(back.lca_model.mixing, fit.lca_model.mixing)
    assert (back.n_iter_joint, back.n_iter_bias) == (fit.n_iter_joint, fit.n_iter_bias)
    assert (back.lca_model.log_lik, back.lca_model.n_iter) == (
        fit.lca_model.log_lik, fit.lca_model.n_iter)


@pytest.mark.parametrize("part", ["values", "intercept"])
def test_a_fit_file_whose_b_target_is_not_the_sum_is_refused(tmp_path, mini_fit, part):
    _, fit = mini_fit
    payload = transfer_fit_to_dict(fit)
    stored = {"values": fit.b_target.values.copy(), "intercept": fit.b_target.intercept.copy()}
    stored[part].flat[0] += 1.0
    payload["b_target"] = {k: v.tolist() for k, v in stored.items()}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: b_target is not b_pooled"):
        load_transfer_fit(path)
