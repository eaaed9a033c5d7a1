"""Observation-weighted l1-penalized GLM fitting.

Minimizes, over beta,

    (1/W) * sum_i w_i * [ -y_i * eta_i + g(eta_i) ]  +  lam * sum_{j penalized} |beta_j|

with eta_i = offset_i + x_i' beta and W = sum_i w_i.  The solver runs cyclic
coordinate descent with covariance updates and an active set on the IRLS
quadratic (`_cd_quadratic`; each sweep costs O(d^2) after an O(n d^2) Gram
build), with the columns standardized internally to unit weighted
variance.  The logistic family rebuilds the Gram on every IRLS pass, from
one sigmoid of the linear predictor.  The gaussian loss is one
quadratic in beta, so a gaussian solve reduces the rows once to their
sufficient statistics (the bitwise symmetric weighted Gram, the weighted
cross moment with y - offset, and the loss at beta = 0) and evaluates every
objective, step and KKT gradient from them in O(d^2), without touching the
rows again.  That reduction runs block by block over the rows, so it adds
one weighted row block to memory, never a weighted copy of the rows; a
problem within one block gets the bits of the single product Z'Z / W with
Z = X * sqrt(w).  The penalty always applies to the coefficients on the
original scale, which is also the scale of the returned solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GlmFamily, check_real, neg_log_lik_glm

# Floor for logistic IRLS curvature so working weights never vanish.
MIN_IRLS_WEIGHT = 1e-5

# Stopping rules of solve_weighted_lasso_glm: CD step and IRLS move
# tolerance, KKT tolerance, and the sweep and IRLS pass caps.
DEFAULT_TOL_CD = 1e-7
DEFAULT_KKT_TOL = 1e-5
DEFAULT_MAX_SWEEPS = 1000
DEFAULT_MAX_IRLS = 100

# A failing solve gives up early: IRLS stops once its best KKT residual,
# still above DEFAULT_KKT_TOL, is more than STALL_FACTOR times what it was
# STALL_PASSES passes before.  A solve that has met the KKT tolerance runs
# on until its moves settle (or the pass cap).
STALL_FACTOR = 0.5
STALL_PASSES = 10

# Size of a row block of the gaussian Gram, in values (whole rows, at
# least one).
_GRAM_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class WeightedGlmProblem:
    """One weighted lasso-GLM problem instance.

    X               (n, d) design; include an all-ones column yourself if an
                    intercept is wanted, and leave it unpenalized via
                    penalize_mask.
    y               (n,) outcomes
    weights         (n,) nonnegative observation weights, positive total
    lam             penalty level, a real number in [0, inf] (+inf pins every
                    penalized coordinate at zero); stored as a float
    penalize_mask   (d,) bool, True where |beta_j| enters the penalty
                    (default: every coordinate penalized)
    offset          optional (n,) fixed addition to the linear predictor
    """

    family: GlmFamily
    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    lam: float
    penalize_mask: np.ndarray = None
    offset: np.ndarray = None

    def __post_init__(self):
        check_real("X", self.X, "(-inf, inf)")
        self.family.validate_outcomes(self.y)
        check_real("weights", self.weights, "[0, inf)")
        X = np.ascontiguousarray(self.X, dtype=float)
        y = np.ascontiguousarray(self.y, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        mask = self.penalize_mask
        if mask is None:
            mask = np.ones(X.shape[1] if X.ndim == 2 else 0, dtype=bool)
        mask = np.ascontiguousarray(mask, dtype=bool)
        if X.ndim != 2:
            raise ValueError("X must be 2-d")
        n, d = X.shape
        if y.shape != (n,) or w.shape != (n,) or mask.shape != (d,):
            raise ValueError("inconsistent shapes among X, y, weights, mask")
        if w.sum() <= 0:
            raise ValueError("total weight must be positive")
        check_real("lam", self.lam, "[0, inf]")
        offset = self.offset
        if offset is None:
            offset = np.zeros(n)
        check_real("offset", offset, "(-inf, inf)")
        offset = np.ascontiguousarray(offset, dtype=float)
        if offset.shape != (n,):
            raise ValueError("offset must be a length-n vector")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "penalize_mask", mask)
        object.__setattr__(self, "offset", offset)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def penalties(self) -> np.ndarray:
        """(d,) penalty of each coordinate: lam where penalized, else 0."""
        return np.where(self.penalize_mask, self.lam, 0.0)


@dataclass(frozen=True)
class LassoSolution:
    beta: np.ndarray
    objective: float
    n_iters: int
    kkt_max_violation: float


class SolverError(RuntimeError):
    """IRLS stopped making progress; `.best` carries the best iterate seen."""

    def __init__(self, message: str, best: LassoSolution):
        super().__init__(message)
        self.best = best


def _penalty_value(pen: np.ndarray, beta: np.ndarray) -> float:
    # sum_j pen_j |beta_j| with inf * 0 treated as 0: an infinite penalty
    # pins its coordinates at exactly zero, where they contribute nothing.
    nz = beta != 0.0
    if not np.any(nz):
        return 0.0
    return float((pen[nz] * np.abs(beta[nz])).sum())


def objective_value(prob: WeightedGlmProblem, beta: np.ndarray) -> float:
    """Normalized weighted negative log-likelihood plus l1 penalty."""
    beta = np.asarray(beta, dtype=float)
    eta = prob.offset + prob.X @ beta
    W = prob.weights.sum()
    loss = float(prob.weights @ neg_log_lik_glm(prob.family, prob.y, eta)) / W
    return loss + _penalty_value(prob.penalties, beta)


def kkt_residual(prob: WeightedGlmProblem, beta: np.ndarray) -> float:
    """Max violation of the subgradient stationarity conditions.

    With s_j = (1/W) sum_i w_i (g'(eta_i) - y_i) x_ij and a_j = |s_j| - pen_j,
    pen_j the coordinate's penalty (0 if unpenalized), the violation is
      beta_j != 0 : |a_j|
      beta_j == 0 : max(a_j, 0)
    """
    beta = np.asarray(beta, dtype=float)
    eta = prob.offset + prob.X @ beta
    W = prob.weights.sum()
    s = prob.X.T @ (prob.weights * (prob.family.mean(eta) - prob.y)) / W
    return _kkt_violation(prob, s, beta)


def _kkt_violation(prob: WeightedGlmProblem, s: np.ndarray, beta: np.ndarray) -> float:
    """kkt_residual's violation rule, given the smooth gradient s at beta
    (both on the original scale)."""
    a = np.abs(s) - prob.penalties
    viol = np.where(beta != 0.0, np.abs(a), np.maximum(a, 0.0))
    return float(np.max(viol)) if viol.size else 0.0


def _irls_quadratic(Xs, irls_w, working, W):
    """Gram A and linear term b of the IRLS quadratic, both scaled by 1/W."""
    A = (Xs * irls_w[:, None]).T @ Xs / W
    b = Xs.T @ (irls_w * working) / W
    return A, b


def _cd_quadratic(A, b, pen, beta0, tol, max_sweeps):
    """Cyclic coordinate descent on  (1/2) beta'A beta - b'beta + sum pen|beta|.

    Full sweep first; then iterate on the active set (nonzero or unpenalized
    coordinates) until converged; then a confirming full sweep, repeating as
    needed.  Returns (beta, sweeps_used, converged).

    The per-coordinate scalars are Python floats, which round exactly like
    numpy float64 scalars at a fraction of the interpreter cost.  Each
    movable coordinate (positive diagonal) is one prebuilt tuple
    (j, b_j, A_jj, pen_j, column), and the gradient is read through a
    memoryview of the cache, which yields Python floats.  The covariance
    update reads contiguous copies of A's columns (A's rows would do only if
    A were bitwise symmetric, which the gaussian Gram is and the logistic
    Gram is not) and stays a multiply followed by a separate add, so every
    element is rounded as in a plain `grad += A[:, j] * diff`; the step
    reaches the multiply through a reusable 0-d float64 buffer, so no Python
    float is converted per call.
    The active list changes only when a visited coordinate's new value
    compares equal to 0.0, a threshold step that underflows to +-0.0 included
    (an active sweep visits no inactive coordinate), so it is rebuilt only
    after a full sweep or a sweep in which that happened.
    """
    beta0 = np.asarray(beta0, dtype=float)
    grad_cache = A @ beta0  # always equals A @ beta
    grad = memoryview(grad_cache)
    beta = beta0.tolist()
    coords = [c for c in zip(range(len(beta)), b.tolist(), np.diag(A).tolist(),
                             pen.tolist(), A.T.copy()) if c[2] > 0.0]
    buf = np.empty_like(grad_cache)
    diff_buf = np.empty(())
    diff_at = memoryview(diff_buf)
    multiply, add, copysign = np.multiply, np.add, math.copysign

    def sweep(coords):
        max_step = 0.0
        zeroed = False
        for j, b_j, d_j, t, col in coords:
            beta_j = beta[j]
            rho = b_j - grad[j] + d_j * beta_j
            if t > 0.0:
                mag = abs(rho) - t
                new = 0.0 if mag <= 0.0 else copysign(mag, rho) / d_j
            else:
                new = rho / d_j
            diff = new - beta_j
            if diff != 0.0:
                diff_at[()] = diff
                multiply(col, diff_buf, buf)
                add(grad_cache, buf, grad_cache)
                beta[j] = new
                if new == 0.0:
                    zeroed = True
                ad = abs(diff)
                if ad > max_step:
                    max_step = ad
        return max_step, zeroed

    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        step, _ = sweep(coords)
        sweeps += 1
        if step <= tol:
            converged = True
            break
        zeroed = True  # build the active list after every full sweep
        while sweeps < max_sweeps:
            if zeroed:
                active = [c for c in coords if beta[c[0]] != 0.0 or c[3] == 0.0]
            if not active:
                break
            step, zeroed = sweep(active)
            sweeps += 1
            if step <= tol:
                break
    return np.array(beta, dtype=float), sweeps, converged


def solve_weighted_lasso_glm(prob: WeightedGlmProblem, init: np.ndarray = None) -> LassoSolution:
    """Solve the weighted lasso-GLM problem; `init` (a length-d vector of
    real numbers, original scale) warm-starts the solver.  The stopping
    rules are the module's DEFAULT_* constants.  Raises SolverError (best
    iterate attached) if IRLS stalls (STALL_FACTOR, STALL_PASSES) or hits
    its pass cap without reaching the KKT tolerance, and ValueError if the
    problem's sums overflow."""
    X, y, w, offset = prob.X, prob.y, prob.weights, prob.offset
    n, d = X.shape
    if init is not None:
        check_real("init", init, "(-inf, inf)")
        if np.shape(init) != (d,):
            raise ValueError(f"init must be a length-{d} vector, got shape {np.shape(init)}")
    W = w.sum()
    gaussian = prob.family.kind == "gaussian"

    mean1 = (w @ X) / W
    if gaussian:
        # Sufficient statistics of the quadratic loss.  G sums, in row order,
        # the products Zb'Zb of the weighted row blocks
        # Zb = X[block] * sqrt(w[block]), each written into one reused
        # buffer.  Each Zb'Zb takes numpy's syrk path, so G is bitwise
        # symmetric; its diagonal holds the columns' weighted second moments.
        root_w = np.sqrt(w)
        rows = min(max(_GRAM_BLOCK_VALUES // max(d, 1), 1), n)
        buffer = np.empty((rows, d))
        for start in range(0, n, rows):
            Zb = buffer[:n - start]
            np.multiply(X[start:start + rows], root_w[start:start + rows, None], out=Zb)
            if start == 0:
                G = Zb.T @ Zb
            else:
                G += Zb.T @ Zb
        G /= W
        g = X.T @ (w * (y - offset)) / W
        check_real("Gram", G, "(-inf, inf)")
        check_real("cross moment", g, "(-inf, inf)")
        loss_at_zero = float(w @ neg_log_lik_glm(prob.family, y, offset)) / W
        mean2 = np.diag(G)
    else:
        mean2 = (w @ np.square(X)) / W

    # Standardize columns to unit weighted variance; constant columns keep
    # scale 1 (the intercept column lands here).
    var = np.maximum(mean2 - np.square(mean1), 0.0)
    scale = np.sqrt(var)
    scale[scale < 1e-12] = 1.0

    # Penalty factors in the scaled coordinates: lam * |beta_j| transforms to
    # (lam / s_j) * |beta_s_j|.
    pen = prob.penalties / scale

    beta_s = np.zeros(d) if init is None else np.asarray(init, dtype=float) * scale

    # objective(beta_s) -> (true objective, linear predictor or None) and
    # kkt_of(beta_s) -> KKT residual at beta_s / scale, per family.
    if gaussian:
        # Unit curvature and a fixed working response: the IRLS quadratic is
        # the loss itself, the same on every pass.
        A, b = G / np.outer(scale, scale), g / scale

        def objective(beta_s_vec):
            value = (loss_at_zero + 0.5 * float(beta_s_vec @ (A @ beta_s_vec))
                     - float(b @ beta_s_vec) + _penalty_value(pen, beta_s_vec))
            check_real("objective", value, "(-inf, inf)")
            return value, None

        def kkt_of(beta_s_vec):
            return _kkt_violation(prob, (A @ beta_s_vec - b) * scale, beta_s_vec / scale)
    else:
        Xs = X / scale

        def objective(beta_s_vec):
            eta_vec = offset + Xs @ beta_s_vec
            loss = float(w @ neg_log_lik_glm(prob.family, y, eta_vec)) / W
            return loss + _penalty_value(pen, beta_s_vec), eta_vec

        def kkt_of(beta_s_vec):
            return kkt_residual(prob, beta_s_vec / scale)

    obj, eta = objective(beta_s)
    best_obj, best_beta = obj, beta_s.copy()
    best_kkts = []  # the lowest KKT residual so far, after each pass
    outer_used = 0

    for outer in range(1, DEFAULT_MAX_IRLS + 1):
        outer_used = outer
        if not gaussian:
            mu = prob.family.mean(eta)
            curv = np.maximum(prob.family.variance(mu), MIN_IRLS_WEIGHT)
            working = (eta - offset) + (y - mu) / curv
            A, b = _irls_quadratic(Xs, w * curv, working, W)
        proposal, _, _ = _cd_quadratic(A, b, pen, beta_s, DEFAULT_TOL_CD, DEFAULT_MAX_SWEEPS)

        # Step acceptance on the true objective: full IRLS step when it
        # descends, otherwise halve toward the current iterate.
        step_dir = proposal - beta_s
        t = 1.0
        accepted = None
        for _ in range(40):
            cand = beta_s + t * step_dir
            cand_obj, cand_eta = objective(cand)
            if cand_obj <= obj + 1e-12:
                accepted = (cand, cand_eta, cand_obj)
                break
            t *= 0.5
        if accepted is None:
            max_move = 0.0
        else:
            new_beta, eta, obj = accepted
            max_move = float(np.max(np.abs(new_beta - beta_s))) if d else 0.0
            beta_s = new_beta

        if obj < best_obj:
            best_obj, best_beta = obj, beta_s.copy()

        kkt = kkt_of(beta_s)
        if kkt <= DEFAULT_KKT_TOL and max_move <= DEFAULT_TOL_CD:
            return LassoSolution(
                beta=beta_s / scale,
                objective=obj,
                n_iters=outer_used,
                kkt_max_violation=kkt,
            )
        best_kkts.append(min(kkt, best_kkts[-1]) if best_kkts else kkt)
        if (outer > STALL_PASSES and best_kkts[-1] > DEFAULT_KKT_TOL
                and best_kkts[-1] > STALL_FACTOR * best_kkts[-1 - STALL_PASSES]):
            break

    best = LassoSolution(
        beta=best_beta / scale,
        objective=best_obj,
        n_iters=outer_used,
        kkt_max_violation=kkt_of(best_beta),
    )
    if best.kkt_max_violation <= DEFAULT_KKT_TOL:
        return best
    raise SolverError(
        f"IRLS failed to reach KKT tolerance {DEFAULT_KKT_TOL} "
        f"(best violation {best.kkt_max_violation:.3e})",
        best,
    )
