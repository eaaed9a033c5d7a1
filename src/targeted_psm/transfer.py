"""Two-step targeted transfer learning across studies.

Step 1 (pooling): starting from the latent-class memberships v, an EM loop
alternates membership refinement (Bayes update of v against the outcome
density under the current class-specific coefficients) with one weighted
lasso-GLM fit per class over ALL studies' subjects, yielding pooled
coefficients B.

Step 2 (bias correction): the same EM shape runs on the target study alone,
restarting from the target memberships, fitting per-class corrections Delta
with x'B_c as a fixed per-class offset.  The target-specific coefficients
are B0 = B + Delta.

Both loops keep the per-class penalty fixed on the marginal scale
(loss normalized by the row count), so each EM iteration provably does not
increase the penalized marginal objective

    (1/n) * sum_i -log( sum_c v_ic f(y_i | eta_ic) ) + sum_c lam_c ||beta_c||_1 .

Each decision is made in one place: `_stage_rows` picks a stage's rows
(every study for "pool", the target for "bias"), `resolve_penalties` turns
a penalty setting into per-class numbers (per-class CV when "auto"), and
`_log_joint` builds log v + log f(y | eta), from which one EM iteration
takes both its objective value and the next E-step.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .core import (
    EPS_CLIP,
    CoefficientMatrix,
    GlmFamily,
    MembershipMatrix,
    StudyCollection,
    clip_rows,
    log_sum_exp_rows,
    neg_log_lik_glm,
    sorted_row_sums,
    sorted_square_norm,
)
from .glm import SolverError, WeightedGlmProblem, solve_weighted_lasso_glm
from .lca import (
    LcaFitConfig,
    LcaModel,
    fit_lca,
    initial_memberships,
    lca_model_from_dict,
    lca_model_to_dict,
    membership_for_pattern,
)

DEFAULT_TAU = 1e-4
DEFAULT_MAX_EM_ITER = 100
DEFAULT_CV_FOLDS = 5
DEFAULT_CV_GRID = tuple(np.logspace(np.log10(0.01), np.log10(10.0), 10))

# A class whose total weight mass falls below 10 * p * EPS_CLIP in some
# M-step is frozen for that iteration instead of being refit.
DEGENERATE_MASS_FACTOR = 10.0


@dataclass(frozen=True)
class TransferConfig:
    """Settings for the two-step transfer fit.

    lambda_pool / lambda_bias   "auto" (per-class CV), a scalar, or a
                                per-class sequence; resolved values sit on
                                the marginal scale (loss / row count)
    tau                         relative-change stopping threshold for both
                                EM loops
    max_em_iter                 iteration cap M for both loops; 1 gives the
                                one-pass variant (memberships never refined)
    cv_folds                    folds for "auto" tuning (>= 2)
    cv_grid                     multipliers c for the candidate penalties
                                c * sqrt(log p / n_eff)
    fit_intercept               include an unpenalized per-class intercept
    seed                        master seed for the cv-folds substream (and
                                the LCA restarts when none are supplied)
    """

    lambda_pool: object = "auto"
    lambda_bias: object = "auto"
    tau: float = DEFAULT_TAU
    max_em_iter: int = DEFAULT_MAX_EM_ITER
    cv_folds: int = DEFAULT_CV_FOLDS
    cv_grid: tuple = DEFAULT_CV_GRID
    fit_intercept: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.max_em_iter < 1:
            raise ValueError("max_em_iter must be >= 1")
        for name in ("lambda_pool", "lambda_bias"):
            val = getattr(self, name)
            if isinstance(val, str):
                if val != "auto":
                    raise ValueError(f"{name} must be 'auto', a scalar, or a sequence")
                if self.cv_folds < 2:
                    raise ValueError("cv_folds must be >= 2 when tuning is 'auto'")
            else:
                arr = np.atleast_1d(np.asarray(val, dtype=float))
                if np.any(np.isnan(arr)) or np.any(arr < 0):
                    raise ValueError(f"{name} values must be >= 0")
        if len(self.cv_grid) < 1 or any(c <= 0 for c in self.cv_grid):
            raise ValueError("cv_grid multipliers must be positive")


# ---------------------------------------------------------------------------
# Log joint, membership refinement (EM E-step) and the penalized objective
# ---------------------------------------------------------------------------


def _log_joint(family, y, X, log_v, coef, offsets=None):
    """log v_ic + log f(y_i | eta_ic), with eta = X B_c (+ offsets[:, c])."""
    eta = coef.linear_predictor(X)
    if offsets is not None:
        eta = eta + offsets
    return log_v + family.log_density(y[:, None], eta)


def _refined_rows(log_w, log_mix):
    """Bayes update of membership rows from the log joint and its row-wise
    log-sum-exp."""
    return clip_rows(np.exp(log_w - log_mix[:, None]))


def _penalized_value(log_mix, coef, lambdas) -> float:
    loss = -float(log_mix.sum()) / log_mix.shape[0]
    terms = []
    for c in range(coef.n_classes):
        l1 = float(np.abs(coef.values[:, c]).sum())
        if l1 > 0.0:
            terms.append(lambdas[c] * l1)
    if not terms:
        return loss
    # summing the per-class terms in sorted order keeps the objective exactly
    # invariant under class relabeling
    return loss + float(np.sort(np.asarray(terms)).sum())


def penalized_mixture_objective(
    family: GlmFamily,
    y: np.ndarray,
    X: np.ndarray,
    v_rows: np.ndarray,
    coef: CoefficientMatrix,
    lambdas: np.ndarray,
    offsets: np.ndarray = None,
) -> float:
    """(1/n) * sum_i -log sum_c v_ic f(y_i | eta_ic)  +  sum_c lam_c ||values_c||_1,
    with `offsets` an optional (n, C) per-class offset added to eta."""
    log_w = _log_joint(family, y, X, np.log(v_rows), coef, offsets)
    return _penalized_value(log_sum_exp_rows(log_w), coef, np.asarray(lambdas, dtype=float))


# ---------------------------------------------------------------------------
# Shared EM driver for both stages
# ---------------------------------------------------------------------------


def _design(X: np.ndarray, fit_intercept: bool):
    n, p = X.shape
    if fit_intercept:
        design = np.column_stack([np.ones(n), X])
        mask = np.concatenate([[False], np.ones(p, dtype=bool)])
    else:
        design = X
        mask = np.ones(p, dtype=bool)
    return design, mask


def _coef_from_state(theta: np.ndarray, fit_intercept: bool) -> CoefficientMatrix:
    if fit_intercept:
        return CoefficientMatrix(values=theta[1:], intercept=theta[0])
    return CoefficientMatrix(values=theta, intercept=None)


def _mixture_em(
    family: GlmFamily,
    y: np.ndarray,
    X: np.ndarray,
    v_rows: np.ndarray,
    lambdas: np.ndarray,
    *,
    stage: str,
    offsets_by_class: np.ndarray = None,
    tau: float = DEFAULT_TAU,
    max_iter: int = DEFAULT_MAX_EM_ITER,
    fit_intercept: bool = True,
):
    """EM loop shared by the pooling and bias-correction stages.

    Iteration t fits, per class c, a weighted lasso GLM with weights w_ic
    (w = v on the first pass, the Bayes-refined memberships afterwards); the
    per-class penalty lam_c stays fixed on the marginal scale, so the solver
    is handed lam_c * n / mass_c (lam_c itself when mass_c == n, where the
    rescaling is the identity but could round by an ulp).  After the M-step
    the log joint is built once: its row log-sum-exp gives the iteration's
    objective value, and the two together give the next iteration's
    memberships.  Stops when the relative parameter change drops to tau
    (absolute change when the previous state is zero) or after max_iter
    rounds; a loop of more than one round that stops at its cap raises a
    RuntimeWarning naming `stage`.  A single class stops after one round:
    its memberships are all ones (clip_rows of one column), so a second
    round would only re-solve the same problem.  Returns (coef, weights_used, trace), with
    one trace value per iteration.
    """
    n, p = X.shape
    C = v_rows.shape[1]
    if C == 1:
        max_iter = 1
    design, mask = _design(X, fit_intercept)
    theta = np.zeros((design.shape[1], C))
    lambdas = np.asarray(lambdas, dtype=float)
    finite_lambdas = np.where(np.isfinite(lambdas), lambdas, 0.0)
    degenerate_mass = DEGENERATE_MASS_FACTOR * p * EPS_CLIP
    log_v = np.log(v_rows)

    trace = []
    w_rows = v_rows
    for t in range(1, max_iter + 1):
        if t > 1:
            w_rows = _refined_rows(log_w, log_mix)
        theta_new = theta.copy()
        for c in range(C):
            w_c = w_rows[:, c]
            mass = float(w_c.sum())
            if mass < degenerate_mass:
                warnings.warn(
                    f"class {c} carries weight mass {mass:.3e} < {degenerate_mass:.3e}; "
                    "its coefficients are frozen for this iteration",
                    RuntimeWarning,
                )
                continue
            if not np.isfinite(lambdas[c]):
                # Infinite penalty pins the whole class (intercept included)
                # at zero: the correction stage treats it as "skip".
                theta_new[:, c] = 0.0
                continue
            prob = WeightedGlmProblem(
                family=family,
                X=design,
                y=y,
                weights=w_c,
                lam=lambdas[c] if mass == n else lambdas[c] * n / mass,
                penalize_mask=mask,
                offset=None if offsets_by_class is None else offsets_by_class[:, c],
            )
            sol = solve_weighted_lasso_glm(prob, init=theta[:, c])
            theta_new[:, c] = sol.beta
        coef = _coef_from_state(theta_new, fit_intercept)
        log_w = _log_joint(family, y, X, log_v, coef, offsets_by_class)
        log_mix = log_sum_exp_rows(log_w)
        trace.append(_penalized_value(log_mix, coef, finite_lambdas))
        denom = sorted_square_norm(theta)
        diff = sorted_square_norm(theta_new - theta)
        theta = theta_new
        if (diff <= tau * denom) if denom > 0 else (sorted_square_norm(theta_new) <= tau):
            break
    else:
        if max_iter > 1:
            warnings.warn(
                f"{stage} EM stopped at its cap of {max_iter} iterations "
                f"without meeting tau={tau}",
                RuntimeWarning,
            )
    return coef, w_rows, trace


# ---------------------------------------------------------------------------
# Penalty resolution and cross-validated tuning
# ---------------------------------------------------------------------------


def lambda_scale(p: int, n_eff: int) -> float:
    """Theory-guided penalty scale sqrt(log p / n_eff)."""
    return math.sqrt(math.log(max(p, 2)) / n_eff)


def _stratified_folds(study_index: np.ndarray, cv_folds: int, rng) -> np.ndarray:
    fold = np.empty(study_index.shape[0], dtype=int)
    for k in np.unique(study_index):
        idx = np.flatnonzero(study_index == k)
        perm = rng.permutation(idx)
        fold[perm] = np.arange(perm.size) % cv_folds
    return fold


def _make_folds(y, study_index, cv_folds, family, seed):
    """Stratified-by-study folds; refolds (up to 5 tries) while any fold is
    empty or, for logistic outcomes, single-valued in y."""
    for attempt in range(5):
        rng = substream(seed, "cv-folds", attempt)
        fold = _stratified_folds(study_index, cv_folds, rng)
        ok = True
        for f in range(cv_folds):
            in_f = fold == f
            if not np.any(in_f):
                ok = False
                break
            if family.kind == "logistic" and np.unique(y[in_f]).size < 2:
                ok = False
                break
        if ok:
            return fold
    raise RuntimeError(
        f"could not build {cv_folds} usable CV folds after 5 attempts "
        "(a fold stayed empty or single-valued in y)"
    )


def _stage_rows(data: StudyCollection, memberships: MembershipMatrix, stage: str):
    """(y, X, study_index, v_rows) of a stage: every study's rows for
    "pool", the target study's rows for "bias"."""
    if stage == "pool":
        y, X, _, study_index = data.stacked()
        return y, X, study_index, memberships.stacked()
    if stage == "bias":
        tgt = data.target
        return (
            tgt.outcomes, tgt.predictors, np.zeros(tgt.n, dtype=int),
            memberships.target_block(),
        )
    raise ValueError("stage must be 'pool' or 'bias'")


def auto_tune_lambda(
    data: StudyCollection,
    memberships: MembershipMatrix,
    family: GlmFamily,
    stage: str,
    *,
    grid=DEFAULT_CV_GRID,
    cv_folds: int = DEFAULT_CV_FOLDS,
    seed: int = 0,
    offsets_by_class: np.ndarray = None,
    fit_intercept: bool = True,
) -> np.ndarray:
    """Per-class penalty levels c* sqrt(log p / n_eff) selected by
    cross-validated weighted deviance.

    stage "pool" tunes over all studies (n_eff = total rows); stage "bias"
    tunes on the target study alone (n_eff = n0) with the pooled-stage
    linear predictors passed as per-class offsets.  Folds are stratified
    within study and shared across classes and candidates.

    A candidate whose solve raises SolverError in any fold scores +inf and
    is never selected; the next candidate warm-starts from the failed
    solve's best iterate.  SolverError is raised only when every candidate
    of a class fails, naming the class and stage.

    A logistic stage whose y takes one value (say, a target study with no
    events) has no usable fold: ValueError names the stage and asks for a
    numeric penalty.
    """
    y, X, study_index, v_rows = _stage_rows(data, memberships, stage)
    if cv_folds < 2:
        raise ValueError("cv_folds must be >= 2")
    if stage == "bias" and offsets_by_class is None:
        raise ValueError("bias-stage tuning needs per-class offsets")
    n, p = X.shape
    C = v_rows.shape[1]
    if offsets_by_class is not None and offsets_by_class.shape != (n, C):
        raise ValueError("offsets_by_class must be (n, C)")

    if family.kind == "logistic" and np.unique(y).size < 2:
        raise ValueError(
            f"'auto' tuning of lambda_{stage} needs both outcome values, but every "
            f"y of the {stage} stage is {y[0]:g}; give lambda_{stage} a numeric value"
        )
    candidates = np.sort(np.asarray(grid, dtype=float))[::-1] * lambda_scale(p, n)
    fold = _make_folds(y, study_index, cv_folds, family, seed)
    design, mask = _design(X, fit_intercept)

    chosen = np.empty(C)
    for c in range(C):
        w_c = v_rows[:, c]
        loss_sum = np.zeros(candidates.size)
        mass_sum = np.zeros(candidates.size)
        failed = np.zeros(candidates.size, dtype=bool)
        last_error = None
        for f in range(cv_folds):
            tr = fold != f
            va = ~tr
            n_tr = int(tr.sum())
            X_tr, y_tr, w_tr = design[tr], y[tr], w_c[tr]
            mass_tr = float(w_tr.sum())
            beta = np.zeros(design.shape[1])
            off_tr = None if offsets_by_class is None else offsets_by_class[tr, c]
            off_va = 0.0 if offsets_by_class is None else offsets_by_class[va, c]
            for i, lam in enumerate(candidates):
                prob = WeightedGlmProblem(
                    family=family,
                    X=X_tr,
                    y=y_tr,
                    weights=w_tr,
                    lam=lam * n_tr / mass_tr,
                    penalize_mask=mask,
                    offset=off_tr,
                )
                try:
                    beta = solve_weighted_lasso_glm(prob, init=beta).beta
                except SolverError as err:
                    beta = err.best.beta
                    failed[i] = True
                    last_error = err
                    continue
                eta_va = off_va + design[va] @ beta
                ll = neg_log_lik_glm(family, y[va], eta_va)
                loss_sum[i] += float(w_c[va] @ ll)
                mass_sum[i] += float(w_c[va].sum())
        if failed.all():
            raise SolverError(
                f"every CV candidate of class {c} failed in the {stage} stage: "
                f"{last_error}",
                last_error.best,
            ) from last_error
        ok = ~failed
        scores = np.full(candidates.size, np.inf)
        scores[ok] = loss_sum[ok] / mass_sum[ok]
        # Ties resolve toward the larger (more parsimonious) penalty, which
        # comes first in the descending candidate order.
        chosen[c] = candidates[int(np.argmin(scores))]
    return chosen


def resolve_penalties(
    setting,
    stage: str,
    data: StudyCollection,
    memberships: MembershipMatrix,
    config: TransferConfig,
    family: GlmFamily,
    offsets_by_class: np.ndarray = None,
) -> np.ndarray:
    """Per-class penalties of a stage from a setting ('auto' | scalar |
    per-class sequence).  "auto" runs auto_tune_lambda with the config's
    grid, folds, seed and intercept choice (the bias stage needs the
    pooled linear predictors as `offsets_by_class`); a scalar is broadcast
    to every class."""
    if isinstance(setting, str):
        return auto_tune_lambda(
            data, memberships, family, stage,
            grid=config.cv_grid, cv_folds=config.cv_folds, seed=config.seed,
            offsets_by_class=offsets_by_class, fit_intercept=config.fit_intercept,
        )
    C = memberships.n_classes
    arr = np.atleast_1d(np.asarray(setting, dtype=float))
    if arr.size == 1:
        return np.full(C, float(arr[0]))
    if arr.shape != (C,):
        raise ValueError("per-class lambda must have one entry per class")
    return arr.copy()


# ---------------------------------------------------------------------------
# Public stage wrappers
# ---------------------------------------------------------------------------


def joint_estimate(
    data: StudyCollection,
    memberships: MembershipMatrix,
    config: TransferConfig,
    family: GlmFamily,
    lambdas: np.ndarray,
):
    """Pooling stage: EM over all studies with per-class penalties
    `lambdas` (see resolve_penalties).
    Returns (B, refined_weights, trace, n_iter, lambdas)."""
    if memberships.n_studies != data.K + 1:
        raise ValueError("memberships do not match the study collection")
    y, X, _, v_rows = _stage_rows(data, memberships, "pool")
    coef, w_rows, trace = _mixture_em(
        family, y, X, v_rows, lambdas,
        stage="pooled_B",
        tau=config.tau,
        max_iter=config.max_em_iter,
        fit_intercept=config.fit_intercept,
    )
    slices = data.row_slices()
    refined = MembershipMatrix(probs=tuple(w_rows[s] for s in slices))
    return coef, refined, trace, len(trace), lambdas


def bias_correct(
    data: StudyCollection,
    memberships: MembershipMatrix,
    offsets: np.ndarray,
    config: TransferConfig,
    family: GlmFamily,
    lambdas: np.ndarray,
):
    """Correction stage: EM on the target study with the pooled linear
    predictors x'B_c as per-class offsets (`offsets`, (n0, C)), restarting
    from the target's initial memberships, with per-class penalties
    `lambdas` (see resolve_penalties).
    Returns (Delta, trace, n_iter, lambdas)."""
    if np.all(np.isinf(lambdas)):
        # Infinite penalty: no correction at all, Delta == 0 exactly.
        delta = CoefficientMatrix(values=np.zeros((data.p, offsets.shape[1])))
        return delta, (), 0, lambdas
    y, X, _, v_rows = _stage_rows(data, memberships, "bias")
    coef, _, trace = _mixture_em(
        family, y, X, v_rows, lambdas,
        stage="correction_Delta",
        offsets_by_class=offsets,
        tau=config.tau,
        max_iter=config.max_em_iter,
        fit_intercept=config.fit_intercept,
    )
    return coef, trace, len(trace), lambdas


# ---------------------------------------------------------------------------
# TransferFit and the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferFit:
    """Everything the two-step fit produced.

    b_pooled, delta, b_target   coefficient matrices with
                                b_target = b_pooled + delta (exact addition)
    refined_weights             memberships used by the final pooled M-step
    lca_model                   the latent class model behind the memberships
    """

    b_pooled: CoefficientMatrix
    delta: CoefficientMatrix
    b_target: CoefficientMatrix
    refined_weights: MembershipMatrix  # None on fits restored from disk
    lca_model: LcaModel
    family: GlmFamily
    lambda_pool: np.ndarray
    lambda_bias: np.ndarray
    trace_joint: tuple
    trace_bias: tuple
    fit_intercept: bool = True

    @property
    def n_classes(self) -> int:
        return self.b_target.n_classes

    @property
    def n_iter_joint(self) -> int:
        """Pooling EM iterations (one trace value each)."""
        return len(self.trace_joint)

    @property
    def n_iter_bias(self) -> int:
        """Correction EM iterations; 0 when the correction is frozen."""
        return len(self.trace_bias)


def fit_targeted_psm(
    data: StudyCollection,
    n_classes: int,
    config: TransferConfig = None,
    family: GlmFamily = None,
    lca_model: LcaModel = None,
    lca_config: LcaFitConfig = None,
) -> TransferFit:
    """Run the full two-step procedure on a study collection.

    A pre-fitted LcaModel skips step 1; otherwise the joint latent class
    model is fitted here (seeded from lca_config, falling back to the
    transfer seed).  With n_classes=1 the membership model is the trivial
    single-class one and the procedure reduces to pooled lasso + correction.
    """
    config = config or TransferConfig()
    family = family or GlmFamily.logistic()
    for s in data.studies:
        family.validate_outcomes(s.outcomes)
    C = int(n_classes)
    if lca_model is None:
        cfg = lca_config or LcaFitConfig(seed=config.seed)
        lca_model = fit_lca(data, C, cfg)
    else:
        if lca_model.n_classes != C:
            raise ValueError("pre-fitted LCA model has a different class count")
        if lca_model.n_studies != data.K + 1:
            raise ValueError("pre-fitted LCA model covers a different study count")
        if lca_model.n_structure_vars != data.q:
            raise ValueError("pre-fitted LCA model has a different q")
    v = initial_memberships(lca_model, data)

    lam_pool = resolve_penalties(config.lambda_pool, "pool", data, v, config, family)
    b_pooled, refined, trace_j, _, _ = joint_estimate(data, v, config, family, lam_pool)
    offsets = b_pooled.linear_predictor(data.target.predictors)
    lam_bias = resolve_penalties(config.lambda_bias, "bias", data, v, config, family, offsets)
    delta, trace_b, _, _ = bias_correct(data, v, offsets, config, family, lam_bias)

    b_target = CoefficientMatrix(
        values=b_pooled.values + delta.values,
        intercept=b_pooled.intercept + delta.intercept,
    )
    return TransferFit(
        b_pooled=b_pooled,
        delta=delta,
        b_target=b_target,
        refined_weights=refined,
        lca_model=lca_model,
        family=family,
        lambda_pool=lam_pool,
        lambda_bias=lam_bias,
        trace_joint=tuple(trace_j),
        trace_bias=tuple(trace_b),
        fit_intercept=config.fit_intercept,
    )


def predict_risk(fit: TransferFit, x_new: np.ndarray, z_new: np.ndarray):
    """Membership-weighted outcome prediction for new target-study subjects:
    sum_c g'(x' B0_c) * P(class = c | z, target mixing).

    Accepts single vectors (p,), (q,) or batches (n, p), (n, q); returns a
    scalar or an (n,) array accordingly.
    """
    x = np.asarray(x_new, dtype=float)
    z = np.asarray(z_new, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    Z = np.atleast_2d(z)
    p, q = fit.b_target.n_features, fit.lca_model.n_structure_vars
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"x_new must have p={p} columns, got shape {x.shape}")
    if Z.ndim != 2 or Z.shape[1] != q:
        raise ValueError(f"z_new must have q={q} columns, got shape {z.shape}")
    if X.shape[0] != Z.shape[0]:
        raise ValueError("x_new and z_new must cover the same subjects")
    if not np.all(np.isfinite(X)):
        raise ValueError("x_new must be finite")
    if not np.all((Z == 0.0) | (Z == 1.0)):
        raise ValueError("z_new must be binary (0 or 1)")
    v_star = membership_for_pattern(fit.lca_model, Z, study_row=0)
    mu = fit.family.mean(fit.b_target.linear_predictor(X))
    risk = sorted_row_sums(mu * v_star)
    return float(risk[0]) if single else risk


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _coef_to_dict(coef: CoefficientMatrix) -> dict:
    return {
        "values": coef.values.tolist(),
        "intercept": coef.intercept.tolist(),
    }


def _coef_from_dict(payload: dict) -> CoefficientMatrix:
    return CoefficientMatrix(
        values=np.asarray(payload["values"], dtype=float),
        intercept=np.asarray(payload["intercept"], dtype=float),
    )


def _penalties_to_json(lambdas) -> list:
    # JSON has no infinity; a frozen stage (lambda = inf) is stored as null
    return [float(v) if np.isfinite(v) else None for v in lambdas]


def _penalties_from_json(values) -> np.ndarray:
    return np.array([np.inf if v is None else v for v in values], dtype=float)


def transfer_fit_to_dict(fit: TransferFit) -> dict:
    """JSON payload with every coefficient matrix, both traces and the LCA
    model.  No key restates another: iteration counts are the trace
    lengths and the class count is the coefficient width.
    Per-subject refined weights are data-sized and stay out of the file;
    they are reproducible from the stored model and the dataset.  Infinite
    penalties are stored as null."""
    return {
        "kind": "transfer_fit",
        "family": fit.family.kind,
        "dispersion": fit.family.dispersion,
        "fit_intercept": fit.fit_intercept,
        "b_pooled": _coef_to_dict(fit.b_pooled),
        "delta": _coef_to_dict(fit.delta),
        "b_target": _coef_to_dict(fit.b_target),
        "lambda_pool": _penalties_to_json(fit.lambda_pool),
        "lambda_bias": _penalties_to_json(fit.lambda_bias),
        "trace_joint": list(fit.trace_joint),
        "trace_bias": list(fit.trace_bias),
        "lca_model": lca_model_to_dict(fit.lca_model),
    }


def transfer_fit_from_dict(payload: dict) -> TransferFit:
    """Inverse of transfer_fit_to_dict; keys it does not read (the `role`,
    `n_iter_*` and `lca_model.n_classes` of older files) are ignored."""
    if payload.get("kind") != "transfer_fit":
        raise ValueError("not a serialized transfer fit")
    family = GlmFamily(payload["family"], float(payload.get("dispersion", 1.0)))
    return TransferFit(
        b_pooled=_coef_from_dict(payload["b_pooled"]),
        delta=_coef_from_dict(payload["delta"]),
        b_target=_coef_from_dict(payload["b_target"]),
        refined_weights=None,
        lca_model=lca_model_from_dict(payload["lca_model"]),
        family=family,
        lambda_pool=_penalties_from_json(payload["lambda_pool"]),
        lambda_bias=_penalties_from_json(payload["lambda_bias"]),
        trace_joint=tuple(payload.get("trace_joint", ())),
        trace_bias=tuple(payload.get("trace_bias", ())),
        fit_intercept=bool(payload.get("fit_intercept", True)),
    )


def save_transfer_fit(fit: TransferFit, path) -> None:
    payload = json.dumps(transfer_fit_to_dict(fit), indent=2, allow_nan=False)
    Path(path).write_text(payload + "\n")


def load_transfer_fit(path) -> TransferFit:
    return transfer_fit_from_dict(json.loads(Path(path).read_text()))
