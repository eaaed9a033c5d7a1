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

Each decision is made in one place: `_stage_data` picks a stage's studies
(every study for "pool", the target for "bias"), whose rows `_stage_rows`
copies once, into the stage's design [1 | X]; `check_stage` is the one
admission rule, deciding whether a penalty setting can serve a stage's data
and turning a numeric one into per-class numbers (every entry point calls
it before any fitting, and tunes by `auto_tune_lambda` where it returns None
for "auto"); `_check_grid` is the one rule for CV multipliers; and
`_log_joint` builds log v + log f(y | eta), from which one EM iteration
takes both its objective value and the next E-step.  The CV choice and
the stop test of both loops are the package's rules, `core.first_best` at
CV_RTOL and `core.em_converged` at DEFAULT_TAU with STOP_FLOOR.
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
    check_count,
    check_real,
    clip_rows,
    em_converged,
    first_best,
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

# A CV score within CV_RTOL * |best| of a class's lowest one ties with it,
# and the larger penalty wins the tie (core.first_best; 0 keeps the exact
# lowest).
CV_RTOL = 0.0

# Both EM loops test the parameter change relative to the previous state's
# norm while that norm is above STOP_FLOOR, absolutely at or below it
# (core.em_converged; 0 is absolute only from an all-zero state).
STOP_FLOOR = 0.0

# A class whose total weight mass falls below 10 * p * EPS_CLIP in some
# M-step is frozen for that iteration instead of being refit.
DEGENERATE_MASS_FACTOR = 10.0


@dataclass(frozen=True)
class TransferConfig:
    """Settings for the two-step transfer fit.

    lambda_pool / lambda_bias   "auto" (per-class CV), a scalar, or a
                                per-class sequence; resolved values sit on
                                the marginal scale (loss / row count)
    max_em_iter                 iteration cap M for both loops (an integer
                                >= 1); 1 gives the one-pass variant
                                (memberships never refined)
    cv_folds                    folds for "auto" tuning (an integer, >= 2
                                when either penalty is "auto")
    cv_grid                     multipliers c for the candidate penalties
                                c * sqrt(log p / n_eff), each in (0, inf)
    seed                        master seed (an integer >= 0) for the cv-folds
                                substream (and the LCA restarts when none
                                are supplied)

    A bad value (a boolean, string or NaN penalty or multiplier among them)
    is a ValueError when the config is built, not a failure mid-fit.  Both EM
    loops stop at the relative-change threshold DEFAULT_TAU (see
    STOP_FLOOR), and every class has one unpenalized intercept.
    """

    lambda_pool: object = "auto"
    lambda_bias: object = "auto"
    max_em_iter: int = DEFAULT_MAX_EM_ITER
    cv_folds: int = DEFAULT_CV_FOLDS
    cv_grid: tuple = DEFAULT_CV_GRID
    seed: int = 0

    def __post_init__(self):
        check_count("max_em_iter", self.max_em_iter, 1)
        check_count("seed", self.seed, 0)
        auto = False
        for name in ("lambda_pool", "lambda_bias"):
            val = getattr(self, name)
            named = isinstance(val, str)
            if not named:
                check_real(f"{name} values", val, "[0, inf]")
            if (val != "auto") if named else np.ndim(val) > 1:
                raise ValueError(f"{name} must be 'auto', a scalar, or a sequence")
            auto = auto or named
        check_count("cv_folds", self.cv_folds, 2 if auto else 1)
        _check_grid("cv_grid", self.cv_grid)


def _check_grid(name: str, grid) -> None:
    """The one rule for CV multipliers (TransferConfig.cv_grid and
    auto_tune_lambda's grid): ValueError unless `grid` is a non-empty, flat
    list, tuple or 1-d array of real numbers in (0, inf)."""
    flat = isinstance(grid, (list, tuple)) or (isinstance(grid, np.ndarray) and grid.ndim == 1)
    if not flat or len(grid) == 0 or any(isinstance(c, (list, tuple, np.ndarray)) for c in grid):
        raise ValueError(f"{name} must be a non-empty sequence, got {grid!r}")
    check_real(f"{name} multipliers", grid, "(0, inf)")


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


def _coef_from_state(theta: np.ndarray) -> CoefficientMatrix:
    return CoefficientMatrix(values=theta[1:], intercept=theta[0])


def _mixture_em(
    family: GlmFamily,
    y: np.ndarray,
    design: np.ndarray,
    v_rows: np.ndarray,
    lambdas: np.ndarray,
    *,
    stage: str,
    offsets_by_class: np.ndarray = None,
    max_iter: int = DEFAULT_MAX_EM_ITER,
):
    """EM loop shared by the pooling and bias-correction stages, on a
    stage's rows as _stage_rows gives them: `design` is [1 | X].

    The loop copies no rows: each solve reads `design`, and the E-step reads
    X as the view design[:, 1:].  So while it runs, the stage holds the
    studies, the design and, during a solve, the solver's weighted copy.

    Iteration t takes weights w_ic (w = v on the first pass, the
    Bayes-refined memberships afterwards) and decides, per class c, in this
    order:

    1. an infinite penalty lam_c pins the whole class (intercept included)
       at zero, without a solve (a NaN one is a ValueError); a frozen
       correction stage is one pass of such classes;
    2. a weight mass below DEGENERATE_MASS_FACTOR * p * EPS_CLIP keeps the
       class's previous state, with a RuntimeWarning;
    3. otherwise the class is a weighted lasso GLM fit with weights w_c; the
       penalty lam_c stays fixed on the marginal scale, so the solver is
       handed lam_c * n / mass_c (lam_c itself when mass_c == n, where the
       rescaling is the identity but could round by an ulp).  A solve that
       raises SolverError after the first pass keeps the class's previous
       state, with a RuntimeWarning naming the class, `stage` and the best
       KKT residual; keeping a state cannot raise the objective.  On the
       first pass there is no previous estimate, only the all-zero start,
       so the SolverError reaches the caller.

    After the M-step the log joint is built once: its row log-sum-exp gives
    the iteration's objective value, and the two together give the next
    iteration's memberships.  Each class's state is its unpenalized
    intercept followed by its coefficients.  Stops when core.em_converged
    passes on the parameter change against the previous state's norm, at
    the module's DEFAULT_TAU and STOP_FLOOR, read on every call, or after
    max_iter rounds; a loop of more than one round that stops at its cap
    raises a RuntimeWarning naming `stage`.  An iteration with a failed
    solve never counts as converged (the frozen class adds nothing to the
    change); a class frozen for low mass does count.  A single class stops
    after one round: its memberships are all ones (clip_rows of one column),
    so a second round would only re-solve the same problem.  Returns (coef,
    weights_used, trace), with one trace value per iteration.
    """
    check_real("lambdas", lambdas, "[0, inf]")
    n, d = design.shape
    p = d - 1
    X = design[:, 1:]
    mask = np.arange(d) > 0  # the intercept column is not penalized
    C = v_rows.shape[1]
    if C == 1:
        max_iter = 1
    tau = DEFAULT_TAU
    theta = np.zeros((d, C))
    lambdas = np.asarray(lambdas, dtype=float)
    degenerate_mass = DEGENERATE_MASS_FACTOR * p * EPS_CLIP
    log_v = np.log(v_rows)

    trace = []
    w_rows = v_rows
    for t in range(1, max_iter + 1):
        if t > 1:
            w_rows = _refined_rows(log_w, log_mix)
        theta_new = theta.copy()
        failed = False
        for c in range(C):
            if lambdas[c] == np.inf:
                theta_new[:, c] = 0.0
                continue
            w_c = w_rows[:, c]
            mass = float(w_c.sum())
            if mass < degenerate_mass:
                warnings.warn(
                    f"class {c} carries weight mass {mass:.3e} < {degenerate_mass:.3e}; "
                    "its coefficients are frozen for this iteration",
                    RuntimeWarning,
                )
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
            try:
                theta_new[:, c] = solve_weighted_lasso_glm(prob, init=theta[:, c]).beta
            except SolverError as err:
                if t == 1:
                    raise
                failed = True
                warnings.warn(
                    f"class {c} of the {stage} stage failed its solve (KKT residual "
                    f"{err.best.kkt_max_violation:.3e}); its coefficients are frozen "
                    "for this iteration",
                    RuntimeWarning,
                )
        coef = _coef_from_state(theta_new)
        log_w = _log_joint(family, y, X, log_v, coef, offsets_by_class)
        log_mix = log_sum_exp_rows(log_w)
        trace.append(_penalized_value(log_mix, coef, lambdas))
        scale = sorted_square_norm(theta)
        change = sorted_square_norm(theta_new - theta)
        theta = theta_new
        if failed:
            continue
        if em_converged(change, scale, tau, STOP_FLOOR):
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


def _unfoldable(stage: str, reason: str) -> ValueError:
    return ValueError(f"'auto' tuning of lambda_{stage} {reason}; lower cv_folds or give "
                      f"lambda_{stage} a numeric value")


def _make_folds(y, study_index, cv_folds, family, seed, stage):
    """Stratified-by-study folds, each with a row (see check_stage); for
    logistic outcomes, refolds (up to 5 tries) while any fold is
    single-valued in y.  A ValueError names the stage and its fixes when no
    try succeeds."""
    for attempt in range(5):
        rng = substream(seed, "cv-folds", attempt)
        fold = _stratified_folds(study_index, cv_folds, rng)
        if family.kind != "logistic" or all(
                np.unique(y[fold == f]).size == 2 for f in range(cv_folds)):
            return fold
    raise _unfoldable(stage, f"could not build {cv_folds} usable CV folds after 5 attempts "
                             "(a fold stayed single-valued in y)")


def _stage_data(data: StudyCollection, stage: str) -> StudyCollection:
    """The studies a stage fits: every study for "pool", the target alone
    for "bias"."""
    if stage == "pool":
        return data
    if stage == "bias":
        return StudyCollection(target=data.target)
    raise ValueError("stage must be 'pool' or 'bias'")


def _stage_rows(data: StudyCollection, memberships: MembershipMatrix, stage: str):
    """(y, design, study_index, v_rows) of a stage: its studies' rows in
    collection order, target first, with `design` the (n, p + 1) array
    [1 | X] filled straight from the studies' predictors.  The memberships
    must cover every study of `data`.

    The design is the one copy of a stage's rows: the EM loop solves on it
    and reads X as its view design[:, 1:], and CV tuning cuts its per-fold
    copies from it.  So while a stage runs, memory holds the studies, this
    design, the current fold's copies during CV, and the solver's weighted
    copy during a solve."""
    if memberships.n_studies != data.K + 1:
        raise ValueError("memberships do not match the study collection")
    studies = _stage_data(data, stage)
    design = np.empty((studies.n_total, studies.p + 1))
    design[:, 0] = 1.0
    for s, rows in zip(studies.studies, studies.row_slices()):
        design[rows, 1:] = s.predictors
    y = np.concatenate([s.outcomes for s in studies.studies])
    study_index = np.repeat(np.arange(studies.K + 1), studies.sizes)
    return y, design, study_index, np.vstack(memberships.probs[: studies.K + 1])


def check_stage(data: StudyCollection, family: GlmFamily, stage: str, setting, cv_folds: int,
                n_classes: int):
    """The one admission rule of a fit stage: whether the penalty `setting`
    ("auto", a scalar or a per-class sequence) can serve the stage's
    studies (_stage_data).  A ValueError refuses, in order:

    1. an outcome of the stage's studies outside the family (naming the
       study; each later refusal names the stage);
    2. a logistic stage whose outcomes take one value while some class has
       a finite penalty ("auto" or numeric): the fit has no finite optimum,
       its unpenalized intercept running toward -inf or inf until the
       solver's pass cap.  A stage whose penalties are all inf is frozen,
       solves nothing, and passes;
    3. a per-class sequence whose length is not n_classes;
    4. "auto" without folds to fill.  Folds are filled within each study
       (_stratified_folds), so fold f gets rows only from studies of more
       than f rows: the stage's largest study needs cv_folds rows, and a
       logistic stage needs cv_folds events and non-events, one of each in
       every fold.

    Returns the n_classes per-class penalties of a numeric setting (a
    scalar broadcast to every class), or None for "auto", which the caller
    tunes by auto_tune_lambda."""
    studies = _stage_data(data, stage)
    for s in studies.studies:
        family.validate_outcomes(s.outcomes, f"study {s.study_id} outcomes")
    y = np.concatenate([s.outcomes for s in studies.studies])
    auto = isinstance(setting, str)
    lambdas = None if auto else np.atleast_1d(np.asarray(setting, dtype=float))
    if family.kind == "logistic" and (auto or np.any(lambdas < np.inf)) and np.unique(y).size < 2:
        raise ValueError(
            f"every y of the {stage} stage is {y[0]:g}, so its logistic fit has no finite "
            f"optimum; give lambda_{stage}=inf to freeze the stage"
        )
    if not auto:
        if lambdas.size == 1:
            return np.full(n_classes, float(lambdas[0]))
        if lambdas.shape != (n_classes,):
            raise ValueError(f"per-class lambda_{stage} has {lambdas.size} entries; the class "
                             f"count is {n_classes}")
        return lambdas.copy()
    largest = max(studies.sizes)
    if largest < cv_folds:
        raise _unfoldable(stage, f"cannot fill {cv_folds} CV folds: folds are filled within "
                                 f"each study and the largest study of the {stage} stage has "
                                 f"{largest} rows")
    if family.kind == "logistic":
        events = int(np.count_nonzero(y))
        for count, what in ((events, "events"), (y.size - events, "non-events")):
            if count < cv_folds:
                raise _unfoldable(stage, f"cannot fill {cv_folds} CV folds from {count} {what}")
    return None


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

    Each class takes the candidate core.first_best picks from its CV scores
    at CV_RTOL: the candidates descend, so a tie goes to the larger penalty.

    The stage's rows are held as _stage_rows builds them: the studies and
    one design [1 | X].  One fold's training and validation copies of the
    design are alive at a time, and a solve adds the solver's weighted copy.

    Before any solve, _check_grid checks the grid and check_stage admits
    the stage for "auto" (a ValueError otherwise).  A logistic stage whose
    folds stay single-valued in y after five tries is a ValueError naming
    the stage and asking for fewer folds or a numeric penalty.
    """
    check_count("cv_folds", cv_folds, 2)
    _check_grid("grid", grid)
    check_stage(data, family, stage, "auto", cv_folds, memberships.n_classes)
    y, design, study_index, v_rows = _stage_rows(data, memberships, stage)
    if stage == "bias" and offsets_by_class is None:
        raise ValueError("bias-stage tuning needs per-class offsets")
    n, d = design.shape
    C = v_rows.shape[1]
    if offsets_by_class is not None and offsets_by_class.shape != (n, C):
        raise ValueError("offsets_by_class must be (n, C)")

    candidates = np.sort(np.asarray(grid, dtype=float))[::-1] * lambda_scale(d - 1, n)
    fold = _make_folds(y, study_index, cv_folds, family, seed, stage)
    mask = np.arange(d) > 0  # the intercept column is not penalized
    # Folds outside, classes inside: each fold's arrays are built once, and
    # only one fold's are alive at a time.
    shape = (C, candidates.size)
    loss_sum, mass_sum, failed = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    last_error = [None] * C
    for f in range(cv_folds):
        tr = fold != f
        va = ~tr
        n_tr = int(tr.sum())
        X_tr, y_tr, X_va, y_va = design[tr], y[tr], design[va], y[va]
        for c in range(C):
            w_tr, w_va = v_rows[tr, c], v_rows[va, c]
            mass_tr, mass_va = float(w_tr.sum()), float(w_va.sum())
            beta = np.zeros(d)
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
                    failed[c, i] = True
                    last_error[c] = err
                    continue
                ll = neg_log_lik_glm(family, y_va, off_va + X_va @ beta)
                loss_sum[c, i] += float(w_va @ ll)
                mass_sum[c, i] += mass_va
    for c in range(C):
        if failed[c].all():
            raise SolverError(
                f"every CV candidate of class {c} failed in the {stage} stage: "
                f"{last_error[c]}",
                last_error[c].best,
            ) from last_error[c]
    scores = np.divide(loss_sum, mass_sum, out=np.full(shape, np.inf), where=~failed)
    # The candidates descend, so a tie goes to the larger (more
    # parsimonious) penalty.
    return candidates[first_best(scores, CV_RTOL)]


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
    `lambdas` (see check_stage).
    Returns (B, refined_weights, trace, n_iter, lambdas)."""
    y, design, _, v_rows = _stage_rows(data, memberships, "pool")
    coef, w_rows, trace = _mixture_em(
        family, y, design, v_rows, lambdas,
        stage="pool",
        max_iter=config.max_em_iter,
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
    `lambdas` (see check_stage).  With every penalty infinite the
    correction is frozen: one pass that solves nothing gives Delta == 0
    exactly, and its one trace value is the objective at Delta == 0.
    Returns (Delta, trace, n_iter, lambdas)."""
    y, design, _, v_rows = _stage_rows(data, memberships, "bias")
    coef, _, trace = _mixture_em(
        family, y, design, v_rows, lambdas,
        stage="bias",
        offsets_by_class=offsets,
        max_iter=config.max_em_iter,
    )
    return coef, trace, len(trace), lambdas


# ---------------------------------------------------------------------------
# TransferFit and the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferFit:
    """Everything the two-step fit produced.

    b_pooled, delta             pooled coefficients and the target correction;
                                the target coefficients `b_target` are their
                                exact sum
    refined_weights             memberships used by the final pooled M-step
    lca_model                   the latent class model behind the memberships
    trace_joint, trace_bias     each stage's objective after every EM
                                iteration: finite real numbers, kept as tuples
    """

    b_pooled: CoefficientMatrix
    delta: CoefficientMatrix
    refined_weights: MembershipMatrix  # None on fits restored from disk
    lca_model: LcaModel
    family: GlmFamily
    lambda_pool: np.ndarray
    lambda_bias: np.ndarray
    trace_joint: tuple
    trace_bias: tuple

    def __post_init__(self):
        for name in ("trace_joint", "trace_bias"):
            check_real(name, getattr(self, name), "(-inf, inf)")
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def b_target(self) -> CoefficientMatrix:
        """Target coefficients B0 = b_pooled + delta (exact addition)."""
        return CoefficientMatrix(
            values=self.b_pooled.values + self.delta.values,
            intercept=self.b_pooled.intercept + self.delta.intercept,
        )

    @property
    def n_classes(self) -> int:
        return self.b_pooled.n_classes

    @property
    def n_iter_joint(self) -> int:
        """Pooling EM iterations (one trace value each)."""
        return len(self.trace_joint)

    @property
    def n_iter_bias(self) -> int:
        """Correction EM iterations; 1 when the correction is frozen."""
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

    Before step 1 it refuses (ValueError) a class count that is not an
    integer >= 1 and, by check_stage, a stage whose data its penalty
    setting cannot serve; a stage set to "auto" is then tuned by
    auto_tune_lambda.
    """
    config = config or TransferConfig()
    family = family or GlmFamily.logistic()
    check_count("n_classes", n_classes, 1)
    lam_pool = check_stage(data, family, "pool", config.lambda_pool, config.cv_folds, n_classes)
    lam_bias = check_stage(data, family, "bias", config.lambda_bias, config.cv_folds, n_classes)
    if lca_model is None:
        cfg = lca_config or LcaFitConfig(seed=config.seed)
        lca_model = fit_lca(data, n_classes, cfg)
    elif lca_model.n_classes != n_classes:
        raise ValueError("pre-fitted LCA model has a different class count")
    v = initial_memberships(lca_model, data)  # checks the model's study count and q

    tuning = dict(grid=config.cv_grid, cv_folds=config.cv_folds, seed=config.seed)
    if lam_pool is None:
        lam_pool = auto_tune_lambda(data, v, family, "pool", **tuning)
    b_pooled, refined, trace_j, _, _ = joint_estimate(data, v, config, family, lam_pool)
    offsets = b_pooled.linear_predictor(data.target.predictors)
    if lam_bias is None:
        lam_bias = auto_tune_lambda(data, v, family, "bias", offsets_by_class=offsets, **tuning)
    delta, trace_b, _, _ = bias_correct(data, v, offsets, config, family, lam_bias)

    return TransferFit(
        b_pooled=b_pooled,
        delta=delta,
        refined_weights=refined,
        lca_model=lca_model,
        family=family,
        lambda_pool=lam_pool,
        lambda_bias=lam_bias,
        trace_joint=trace_j,
        trace_bias=trace_b,
    )


def predict_risk(fit: TransferFit, x_new: np.ndarray, z_new: np.ndarray):
    """Membership-weighted outcome prediction for new target-study subjects:
    sum_c g'(x' B0_c) * P(class = c | z, target mixing).

    Accepts single vectors (p,), (q,) or batches (n, p), (n, q); returns a
    scalar or an (n,) array accordingly; membership_for_pattern checks z.
    """
    check_real("x_new", x_new, "(-inf, inf)")
    x = np.asarray(x_new, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    p = fit.b_target.n_features
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"x_new must have p={p} columns, got shape {x.shape}")
    v_star = np.atleast_2d(membership_for_pattern(fit.lca_model, z_new, study_row=0))
    if X.shape[0] != v_star.shape[0]:
        raise ValueError("x_new and z_new must cover the same subjects")
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
    return CoefficientMatrix(values=payload["values"], intercept=payload["intercept"])


def _penalties_to_json(lambdas) -> list:
    # JSON has no infinity; a frozen stage (lambda = inf) is stored as null
    return [None if v == np.inf else float(v) for v in lambdas]


def _penalties_from_json(name: str, values) -> np.ndarray:
    values = [np.inf if v is None else v for v in values]
    check_real(name, values, "[0, inf]")
    return np.array(values, dtype=float)


def transfer_fit_to_dict(fit: TransferFit) -> dict:
    """JSON payload with the pooled and correction coefficients, both traces
    and the LCA model.  No key restates another: b_target is b_pooled +
    delta, iteration counts and the LCA log-likelihood come from the traces
    and the class count is the coefficient width.
    Per-subject refined weights are data-sized and stay out of the file;
    they are reproducible from the stored model and the dataset.  Infinite
    penalties are stored as null."""
    return {
        "kind": "transfer_fit",
        "family": fit.family.kind,
        "dispersion": fit.family.dispersion,
        "b_pooled": _coef_to_dict(fit.b_pooled),
        "delta": _coef_to_dict(fit.delta),
        "lambda_pool": _penalties_to_json(fit.lambda_pool),
        "lambda_bias": _penalties_to_json(fit.lambda_bias),
        "trace_joint": list(fit.trace_joint),
        "trace_bias": list(fit.trace_bias),
        "lca_model": lca_model_to_dict(fit.lca_model),
    }


def transfer_fit_from_dict(payload: dict) -> TransferFit:
    """Inverse of transfer_fit_to_dict; keys it does not read (the `role`,
    `n_iter_*`, intercept switch and `lca_model` `n_classes`, `log_lik` and
    `n_iter` of older files) are ignored; a fit without intercepts stored
    zeros for them.  The parts must agree with b_pooled's (p, C): delta
    has its shape, and both penalty lists and the latent class model have C
    classes, and the dispersion, penalties (null for inf) and every
    coefficient, table and trace entry are real numbers (core.check_real,
    in the containers, on the JSON values as read: nothing is converted
    first).  The `b_target` of an older file must be exactly
    b_pooled + delta.  Anything else is a ValueError."""
    if not isinstance(payload, dict) or payload.get("kind") != "transfer_fit":
        raise ValueError("not a serialized transfer fit")
    family = GlmFamily(payload["family"], payload.get("dispersion", 1.0))
    fit = TransferFit(
        b_pooled=_coef_from_dict(payload["b_pooled"]),
        delta=_coef_from_dict(payload["delta"]),
        refined_weights=None,
        lca_model=lca_model_from_dict(payload["lca_model"]),
        family=family,
        lambda_pool=_penalties_from_json("lambda_pool", payload["lambda_pool"]),
        lambda_bias=_penalties_from_json("lambda_bias", payload["lambda_bias"]),
        trace_joint=payload.get("trace_joint", ()),
        trace_bias=payload.get("trace_bias", ()),
    )
    p, C = fit.b_pooled.values.shape
    prevalences = fit.lca_model.prevalences
    for name, shape, expected in (
        ("delta values", fit.delta.values.shape, (p, C)),
        ("lambda_pool", fit.lambda_pool.shape, (C,)),
        ("lambda_bias", fit.lambda_bias.shape, (C,)),
        ("lca_model prevalences", prevalences.shape, (C, prevalences.shape[1])),
    ):
        if shape != expected:
            raise ValueError(
                f"{name} has shape {shape}, not {expected} as b_pooled's (p, C) = {(p, C)} asks"
            )
    if "b_target" in payload:
        stored, b_target = _coef_from_dict(payload["b_target"]), fit.b_target
        if not (np.array_equal(stored.values, b_target.values)
                and np.array_equal(stored.intercept, b_target.intercept)):
            raise ValueError("b_target is not b_pooled + delta")
    return fit


def save_transfer_fit(fit: TransferFit, path) -> None:
    payload = json.dumps(transfer_fit_to_dict(fit), indent=2, allow_nan=False)
    Path(path).write_text(payload + "\n")


def load_transfer_fit(path) -> TransferFit:
    """The fit saved at `path`.  A file that is not JSON, not a transfer
    fit, lacks a key or holds a bad value is a ValueError naming the file
    (and the missing key)."""
    try:
        return transfer_fit_from_dict(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
