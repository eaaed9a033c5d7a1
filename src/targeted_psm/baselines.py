"""Comparator methods, each a preset of the one two-step pipeline.

targeted_psm     the full two-step procedure
targeted_psm_1   max_em_iter=1: both EM loops run exactly once, so the
                 initial memberships are never refined
trans_glm        n_classes=1: single-population transfer, a pooled lasso
                 over all studies followed by a target-only lasso
                 correction.  (A deliberate simplification: every source is
                 pooled, with no data-driven selection of which sources to
                 trust.)
lca_glm          the target study alone with lambda_bias=inf: latent
                 classes learned from the target only, then the
                 class-specific mixture lasso; no pooling and no correction
naive_lasso      the pooling stage alone on the target study with one class
                 and unit memberships: a plain lasso GLM that ignores the
                 structure variables
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import CoefficientMatrix, GlmFamily, MembershipMatrix, StudyCollection
from .lca import LcaFitConfig, LcaModel
from .transfer import (
    TransferConfig,
    TransferFit,
    check_stage_outcomes,
    fit_targeted_psm,
    joint_estimate,
    predict_risk,
    resolve_penalties,
)


class MethodId(str, Enum):
    TARGETED_PSM = "targeted_psm"
    TARGETED_PSM_1 = "targeted_psm_1"
    LCA_GLM = "lca_glm"
    TRANS_GLM = "trans_glm"
    NAIVE_LASSO = "naive_lasso"


# Methods whose output is a full per-class coefficient matrix comparable to
# the generating target coefficients.
MIXTURE_METHODS = frozenset(
    {MethodId.TARGETED_PSM, MethodId.TARGETED_PSM_1, MethodId.LCA_GLM}
)


# ---------------------------------------------------------------------------
# Uniform dispatch used by the evaluation harness and the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FittedMethod:
    """A fitted method with a uniform scoring interface."""

    method: MethodId
    coef: CoefficientMatrix        # target-study coefficient estimate
    family: GlmFamily
    fit: TransferFit = None        # present for the mixture/transfer methods

    def scores(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Predicted outcome scores for new target-study subjects:
        `predict_risk` for every method with a two-step fit, the plain
        lasso mean for naive_lasso."""
        if self.fit is not None:
            return np.atleast_1d(predict_risk(self.fit, X, Z))
        eta = self.coef.linear_predictor(np.atleast_2d(X))[:, 0]
        return self.family.mean(eta)


def fit_method(
    method: MethodId,
    data: StudyCollection,
    n_classes: int,
    config: TransferConfig = None,
    family: GlmFamily = None,
    lca_model: LcaModel = None,
    lca_config: LcaFitConfig = None,
) -> FittedMethod:
    """Fit one method on a study collection.

    Every method is a preset of the two-step pipeline (see the module
    docstring): naive_lasso runs its pooling stage alone, the others run
    `fit_targeted_psm` on changed inputs.  `lca_model` is used by the
    targeted_psm variants only.
    """
    method = MethodId(method)
    config = config or TransferConfig()
    family = family or GlmFamily.logistic()
    if method is MethodId.NAIVE_LASSO:
        target = data.target
        family.validate_outcomes(target.outcomes)
        alone = StudyCollection(target=target)
        check_stage_outcomes(alone, family, "pool", config.lambda_pool)
        ones = MembershipMatrix(probs=(np.ones((target.n, 1)),))
        lam = resolve_penalties(config.lambda_pool, "pool", alone, ones, config, family)
        coef = joint_estimate(alone, ones, config, family, lam)[0]
        return FittedMethod(method=method, coef=coef, family=family)
    if method is MethodId.TRANS_GLM:
        if data.K < 1:
            raise ValueError("trans_glm needs at least one source study")
        n_classes, lca_model = 1, None
    elif method is MethodId.LCA_GLM:
        data, lca_model = StudyCollection(target=data.target), None
        config = replace(config, lambda_bias=np.inf)
    elif method is MethodId.TARGETED_PSM_1:
        config = replace(config, max_em_iter=1)
    fit = fit_targeted_psm(
        data, n_classes, config, family, lca_model=lca_model, lca_config=lca_config
    )
    return FittedMethod(method=method, coef=fit.b_target, family=family, fit=fit)
