import numpy as np
import pytest

from targeted_psm.baselines import MIXTURE_METHODS, MethodId, fit_method
from targeted_psm.core import CoefficientMatrix, GlmFamily, StudyCollection
from targeted_psm.glm import WeightedGlmProblem, solve_weighted_lasso_glm
from targeted_psm.lca import initial_memberships
from targeted_psm.transfer import (
    TransferConfig,
    fit_targeted_psm,
    penalized_mixture_objective,
    predict_risk,
)


@pytest.fixture(scope="module")
def mini_data(tiny_scenario):
    return tiny_scenario[1]


def _cfg(**kw):
    base = dict(lambda_pool=0.05, lambda_bias=0.02, max_em_iter=30, seed=0)
    base.update(kw)
    return TransferConfig(**base)


def test_method_id_round_trip():
    for m in MethodId:
        assert MethodId(m.value) is m
        assert str(m.value) == m.value
    assert MethodId("targeted_psm") is MethodId.TARGETED_PSM
    with pytest.raises(ValueError):
        MethodId("unknown_method")
    assert MIXTURE_METHODS == {
        MethodId.TARGETED_PSM,
        MethodId.TARGETED_PSM_1,
        MethodId.LCA_GLM,
    }


def test_naive_lasso_equals_direct_solve(mini_data):
    fam = GlmFamily.logistic()
    cfg = _cfg()
    coef = fit_method(MethodId.NAIVE_LASSO, mini_data, 2, cfg, fam).coef
    assert coef.n_classes == 1
    tgt = mini_data.target
    design = np.column_stack([np.ones(tgt.n), tgt.predictors])
    mask = np.concatenate([[False], np.ones(tgt.predictors.shape[1], dtype=bool)])
    sol = solve_weighted_lasso_glm(
        WeightedGlmProblem(
            family=fam,
            X=design,
            y=tgt.outcomes,
            weights=np.ones(tgt.n),
            lam=0.05,
            penalize_mask=mask,
        )
    )
    assert np.array_equal(coef.values[:, 0], sol.beta[1:])
    assert np.array_equal(coef.intercept, sol.beta[:1])


def test_trans_glm_requires_sources(mini_data):
    with pytest.raises(ValueError, match="source"):
        fit_method(MethodId.TRANS_GLM, StudyCollection(target=mini_data.target), 1, _cfg())


def test_trans_glm_is_single_class_pipeline(mini_data):
    fam = GlmFamily.logistic()
    cfg = _cfg()
    fit = fit_method(MethodId.TRANS_GLM, mini_data, 2, cfg, fam).fit
    direct = fit_targeted_psm(mini_data, 1, cfg, fam)
    assert fit.n_classes == 1
    assert np.array_equal(fit.b_target.values, direct.b_target.values)
    assert np.array_equal(fit.b_target.intercept, direct.b_target.intercept)


def test_lca_glm_has_zero_correction(mini_data):
    fam = GlmFamily.logistic()
    fit = fit_method(MethodId.LCA_GLM, mini_data, 2, _cfg(), fam).fit
    assert np.all(fit.delta.values == 0.0)
    assert np.all(fit.delta.intercept == 0.0)
    # the frozen correction is one pass that solves nothing; its trace value
    # is the objective at Delta == 0 with the pooled offsets
    assert fit.n_iter_bias == 1
    tgt = mini_data.target
    v = initial_memberships(fit.lca_model, StudyCollection(target=tgt))
    assert fit.trace_bias[0] == penalized_mixture_objective(
        fam, tgt.outcomes, tgt.predictors, v.probs[0],
        CoefficientMatrix(values=np.zeros((tgt.p, 2))), fit.lambda_bias,
        offsets=fit.b_pooled.linear_predictor(tgt.predictors),
    )
    # equivalent to the full pipeline on a sourceless collection with the
    # correction stage frozen
    direct = fit_targeted_psm(
        StudyCollection(target=mini_data.target),
        2,
        _cfg(lambda_bias=np.inf),
        fam,
    )
    assert np.array_equal(fit.b_target.values, direct.b_target.values)


def test_fit_method_dispatch_matches_direct(mini_data):
    fam = GlmFamily.logistic()
    cfg = _cfg()

    fm = fit_method(MethodId.NAIVE_LASSO, mini_data, 2, cfg, fam)
    assert fm.fit is None
    # the one-class penalty resolves like every other stage's
    with pytest.raises(ValueError, match="per-class"):
        fit_method(MethodId.NAIVE_LASSO, mini_data, 2, _cfg(lambda_pool=(0.05, 0.1)), fam)

    fm = fit_method(MethodId.TARGETED_PSM, mini_data, 2, cfg, fam)
    direct = fit_targeted_psm(mini_data, 2, cfg, fam)
    assert np.array_equal(fm.coef.values, direct.b_target.values)

    fm1 = fit_method(MethodId.TARGETED_PSM_1, mini_data, 2, cfg, fam)
    direct1 = fit_targeted_psm(mini_data, 2, _cfg(max_em_iter=1), fam)
    assert np.array_equal(fm1.coef.values, direct1.b_target.values)
    assert np.array_equal(fm1.coef.intercept, direct1.b_target.intercept)
    assert fm1.fit.n_iter_joint == 1
    assert fm1.fit.n_iter_bias == 1

    # string ids dispatch identically
    fm_str = fit_method("targeted_psm", mini_data, 2, cfg, fam)
    assert np.array_equal(fm_str.coef.values, fm.coef.values)


def test_scores_mixture_branch_uses_membership_weighting(mini_data):
    fam = GlmFamily.logistic()
    fm = fit_method(MethodId.TARGETED_PSM, mini_data, 2, _cfg(), fam)
    X = mini_data.target.predictors[:6]
    Z = mini_data.target.structure_vars[:6]
    assert np.array_equal(fm.scores(X, Z), predict_risk(fm.fit, X, Z))


def test_scores_single_column_branch_ignores_structure(mini_data):
    fam = GlmFamily.logistic()
    fm = fit_method(MethodId.NAIVE_LASSO, mini_data, 2, _cfg(), fam)
    X = mini_data.target.predictors[:6]
    Z = mini_data.target.structure_vars[:6]
    s1 = fm.scores(X, Z)
    s2 = fm.scores(X, 1.0 - Z)
    assert np.array_equal(s1, s2)
    eta = fm.coef.linear_predictor(X)[:, 0]
    assert np.array_equal(s1, fam.mean(eta))
    # trans_glm has a fit object but only one class: same branch
    fm_t = fit_method(MethodId.TRANS_GLM, mini_data, 2, _cfg(), fam)
    st = fm_t.scores(X, Z)
    assert np.array_equal(st, fam.mean(fm_t.coef.linear_predictor(X)[:, 0]))
