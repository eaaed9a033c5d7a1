"""Independent reference implementations used to verify the package.

Everything here is written from scratch against the same mathematical
definitions the package implements, using different algorithms (proximal
gradient + Newton polish instead of IRLS coordinate descent, least squares
via lstsq, O(n^2) pair counting for AUC) so that agreement is meaningful.
The exceptions are `cd_quadratic_reference`, the solver's earlier
coordinate-descent loop, `_sigmoid`, the logistic mean's earlier masked
two-branch form, the `lca_*_reference` functions, the latent class model's
earlier row-wise E-step and its earlier cell-table EM step, and
`clip_rows_reference`, the row helper those steps called: the current code
must agree with them bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from targeted_psm.core import EPS_CLIP, log_sum_exp_rows


def _sigmoid(eta):
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _mean(kind, eta):
    return _sigmoid(eta) if kind == "logistic" else eta


def _log_partition(kind, eta):
    return np.logaddexp(0.0, eta) if kind == "logistic" else 0.5 * eta**2


def _curvature(kind, eta):
    if kind == "logistic":
        mu = _sigmoid(eta)
        return mu * (1.0 - mu)
    return np.ones_like(eta)


def oracle_objective(kind, X, y, w, lam, penalize_mask, offset, beta):
    eta = offset + X @ beta
    loss = float(w @ (-y * eta + _log_partition(kind, eta))) / w.sum()
    pen = float(np.abs(beta[penalize_mask]).sum())
    return loss + (0.0 if pen == 0.0 else lam * pen)


def oracle_gradient(kind, X, y, w, offset, beta):
    eta = offset + X @ beta
    return X.T @ (w * (_mean(kind, eta) - y)) / w.sum()


def oracle_kkt(kind, X, y, w, lam, penalize_mask, offset, beta):
    g = oracle_gradient(kind, X, y, w, offset, beta)
    viol = np.abs(g)  # default: unpenalized coordinates need g == 0
    pen = np.asarray(penalize_mask, dtype=bool)
    nz = pen & (beta != 0)
    viol[nz] = np.abs(np.abs(g[nz]) - lam)
    z = pen & (beta == 0)
    viol[z] = np.maximum(np.abs(g[z]) - lam, 0.0)
    return float(viol.max()) if viol.size else 0.0


def _lipschitz(kind, X, w):
    c = 0.25 if kind == "logistic" else 1.0
    G = (X * (w * c)[:, None]).T @ X / w.sum()
    return float(np.linalg.eigvalsh(G)[-1])


def _prox(beta, thresh, penalize_mask):
    out = beta.copy()
    pen = penalize_mask
    out[pen] = np.sign(beta[pen]) * np.maximum(np.abs(beta[pen]) - thresh, 0.0)
    return out


def _newton_polish(kind, X, y, w, lam, penalize_mask, offset, beta, max_iter=60):
    """Exact minimization on the support found by FISTA: with the active set
    and signs fixed, the problem is smooth; Newton drives its gradient to
    machine precision.  Coordinates that hit zero are dropped and the solve
    repeats on the smaller support."""
    beta = beta.copy()
    pen = np.asarray(penalize_mask, dtype=bool)
    W = w.sum()
    for _ in range(10):  # support-shrinking outer loop
        support = (beta != 0) | ~pen
        if not np.any(support):
            return beta
        S = np.flatnonzero(support)
        signs = np.sign(beta[S])
        signs[~pen[S]] = 0.0  # no l1 term for unpenalized coordinates
        b = beta[S].copy()
        Xs = X[:, S]
        shrunk = False
        for _ in range(max_iter):
            eta = offset + Xs @ b
            grad = Xs.T @ (w * (_mean(kind, eta) - y)) / W + lam * signs
            H = (Xs * (w * _curvature(kind, eta))[:, None]).T @ Xs / W
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H, grad, rcond=None)[0]
            # backtracking on the sign-restricted smooth objective
            def h_obj(v):
                e = offset + Xs @ v
                return float(w @ (-y * e + _log_partition(kind, e))) / W + lam * float(
                    signs @ v
                )
            f0 = h_obj(b)
            t = 1.0
            for _ in range(60):
                cand = b - t * step
                if h_obj(cand) <= f0 + 1e-15 * max(1.0, abs(f0)):
                    break
                t *= 0.5
            b = b - t * step
            # a penalized coordinate crossing zero leaves the support
            crossed = (np.sign(b) != signs) & (signs != 0.0)
            if np.any(crossed):
                b[crossed] = 0.0
                beta[:] = 0.0
                beta[S] = b
                shrunk = True
                break
            if float(np.abs(grad).max()) <= 1e-14:
                break
        if shrunk:
            continue
        beta[:] = 0.0
        beta[S] = b
        return beta
    return beta


def prox_gradient_lasso(
    kind,
    X,
    y,
    w,
    lam,
    penalize_mask=None,
    offset=None,
    max_iter=50_000,
    polish=True,
):
    """FISTA with adaptive restart, then Newton polish on the detected
    support.  Returns (beta, kkt) where kkt certifies the oracle's own
    optimality; callers should assert it is tiny before trusting beta."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = X.shape
    penalize_mask = (
        np.ones(d, dtype=bool)
        if penalize_mask is None
        else np.asarray(penalize_mask, dtype=bool)
    )
    offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    L = _lipschitz(kind, X, w)
    step = 1.0 / max(L, 1e-12)

    beta = np.zeros(d)
    momentum = beta.copy()
    t_k = 1.0
    f_prev = np.inf
    for _ in range(max_iter):
        g = oracle_gradient(kind, X, y, w, offset, momentum)
        beta_new = _prox(momentum - step * g, step * lam, penalize_mask)
        f_new = oracle_objective(kind, X, y, w, lam, penalize_mask, offset, beta_new)
        if f_new > f_prev:  # adaptive restart
            momentum = beta.copy()
            t_k = 1.0
            g = oracle_gradient(kind, X, y, w, offset, momentum)
            beta_new = _prox(momentum - step * g, step * lam, penalize_mask)
            f_new = oracle_objective(
                kind, X, y, w, lam, penalize_mask, offset, beta_new
            )
        move = float(np.abs(beta_new - beta).max())
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
        momentum = beta_new + ((t_k - 1.0) / t_next) * (beta_new - beta)
        beta, t_k, f_prev = beta_new, t_next, f_new
        if move <= 1e-13 * max(1.0, float(np.abs(beta).max())):
            break
    if polish:
        polished = _newton_polish(kind, X, y, w, lam, penalize_mask, offset, beta)
        if oracle_objective(
            kind, X, y, w, lam, penalize_mask, offset, polished
        ) <= oracle_objective(kind, X, y, w, lam, penalize_mask, offset, beta) + 1e-15:
            beta = polished
    return beta, oracle_kkt(kind, X, y, w, lam, penalize_mask, offset, beta)


def wls_solution(X, y, w, offset=None):
    """Closed-form weighted least squares (the gaussian lam=0 optimum)."""
    offset = 0.0 if offset is None else offset
    sw = np.sqrt(w)
    return np.linalg.lstsq(X * sw[:, None], (y - offset) * sw, rcond=None)[0]


def numeric_grad(f, x, h=1e-6):
    """Central finite differences."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def pairwise_auc(scores, labels):
    """O(n^2) pair counting: P(score+ > score-) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 for a in pos for b in neg if a > b)
    ties = sum(1.0 for a in pos for b in neg if a == b)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def lca_class_density(pi_c, z) -> float:
    """Density of one binary pattern z under one class's prevalence row:
    the brute-force product prod_j pi_j^z_j (1 - pi_j)^(1 - z_j)."""
    pi_c = np.asarray(pi_c, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(pi_c <= 0.0) or np.any(pi_c >= 1.0):
        raise ValueError("class prevalences must lie strictly inside (0, 1)")
    if not np.all(np.isin(z, (0.0, 1.0))):
        raise ValueError("z must be binary")
    return float(np.exp(np.sum(z * np.log(pi_c) + (1.0 - z) * np.log1p(-pi_c))))


def cd_quadratic_reference(A, b, pen, beta0, tol, max_sweeps):
    """Cyclic coordinate descent on  (1/2) beta'A beta - b'beta + sum pen|beta|.

    Full sweep first; then iterate on the active set (nonzero or unpenalized
    coordinates) until converged; then a confirming full sweep, repeating as
    needed.  Returns (beta, sweeps_used, converged).

    This is the package's earlier per-coordinate loop on numpy scalars, kept
    verbatim: glm._cd_quadratic must reproduce it bit for bit.
    """
    beta = np.asarray(beta0, dtype=float).copy()
    d = np.diag(A).copy()
    grad_cache = A @ beta  # always equals A @ beta
    movable = d > 0.0
    all_idx = np.flatnonzero(movable)

    def sweep(idx):
        max_step = 0.0
        for j in idx:
            rho = b[j] - grad_cache[j] + d[j] * beta[j]
            t = pen[j]
            if t > 0.0:
                mag = abs(rho) - t
                new = 0.0 if mag <= 0.0 else np.copysign(mag, rho) / d[j]
            else:
                new = rho / d[j]
            diff = new - beta[j]
            if diff != 0.0:
                grad_cache[:] += A[:, j] * diff
                beta[j] = new
                ad = abs(diff)
                if ad > max_step:
                    max_step = ad
        return max_step

    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        step = sweep(all_idx)
        sweeps += 1
        if step <= tol:
            converged = True
            break
        while sweeps < max_sweeps:
            active = np.flatnonzero(movable & ((beta != 0.0) | (pen == 0.0)))
            if active.size == 0:
                break
            step = sweep(active)
            sweeps += 1
            if step <= tol:
                break
    return beta, sweeps, converged


# ---------------------------------------------------------------------------
# core.clip_rows as the latent class steps below called it, kept verbatim:
# core.clip_rows (which transfer's membership update also calls) must
# reproduce it bit for bit.
# ---------------------------------------------------------------------------


def _sorted_row_sums(a):
    return np.sort(a, axis=1).sum(axis=1)


def clip_rows_reference(probs):
    """Normalize each row, then waterfill entries below EPS_CLIP."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2:
        raise ValueError("expected a 2-d array of row probabilities")
    n, C = probs.shape
    if C == 1:
        return np.ones_like(probs)
    if C * EPS_CLIP >= 1.0:
        raise ValueError("too many columns for the EPS_CLIP floor")
    v = np.maximum(probs, 0.0)
    sums = _sorted_row_sums(v)
    dead = sums <= 0.0
    if np.any(dead):
        v[dead] = 1.0
        sums[dead] = float(C)
    v = v / sums[:, None]
    pinned = np.zeros_like(v, dtype=bool)
    for _ in range(C):
        low = ~pinned & (v < EPS_CLIP)
        if not np.any(low):
            break
        pinned |= low
        free_target = 1.0 - pinned.sum(axis=1) * EPS_CLIP
        free_sum = _sorted_row_sums(np.where(pinned, 0.0, v))
        scale = np.where(
            free_sum > 0.0, free_target / np.maximum(free_sum, 1e-300), 1.0
        )
        v = np.where(pinned, EPS_CLIP, v * scale[:, None])
    return v


# ---------------------------------------------------------------------------
# The latent class model's row-wise E-step, kept verbatim: every subject row
# is evaluated on its own, study by study.  lca._em_step, lca_log_lik and the
# membership functions must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def lca_log_density_reference(prevalences, Z):
    """(n, C) log densities of each row of Z under each class."""
    log_pi = np.log(prevalences)        # (C, q)
    log_1mpi = np.log1p(-prevalences)
    return Z @ log_pi.T + (1.0 - Z) @ log_1mpi.T


def lca_study_posteriors_reference(model, Z, study_row):
    """Per-subject class posteriors and log-likelihood terms for one study."""
    log_post = lca_log_density_reference(model.prevalences, Z) + np.log(
        model.mixing[study_row]
    )
    ll_rows = log_sum_exp_rows(log_post)
    post = np.exp(log_post - ll_rows[:, None])
    return post, ll_rows


def lca_log_lik_reference(model, data):
    """Marginal log-likelihood of the collection under the model."""
    if model.n_studies != data.K + 1:
        raise ValueError("model was fitted for a different number of studies")
    total = 0.0
    for k, study in enumerate(data.studies):
        _, ll_rows = lca_study_posteriors_reference(model, study.structure_vars, k)
        total += float(ll_rows.sum())
    return total


def lca_em_step_reference(model, data):
    """One EM update; returns (new_model, log_lik at the *input* params)."""
    C = model.n_classes
    ll = 0.0
    num = np.zeros((C, model.n_structure_vars))
    den = np.zeros(C)
    new_mixing = np.empty_like(model.mixing)
    for k, study in enumerate(data.studies):
        post, ll_rows = lca_study_posteriors_reference(model, study.structure_vars, k)
        ll += float(ll_rows.sum())
        num += post.T @ study.structure_vars
        den += post.sum(axis=0)
        new_mixing[k] = post.mean(axis=0)
    new_prev = np.clip(num / np.maximum(den, 1e-300)[:, None], EPS_CLIP, 1.0 - EPS_CLIP)
    new_mixing = clip_rows_reference(new_mixing)
    new_model = replace(model, prevalences=new_prev, mixing=new_mixing)
    return new_model, ll


# ---------------------------------------------------------------------------
# The latent class model's earlier cell-table EM step, kept verbatim: the
# E-step once per (study, pattern) cell, gathered back to the rows, and the
# column sums from one padded reduction over an appended zero row.  It reads
# the cell_z, cell_study, row_cell, study_cells, slices and blocks of an
# lca._CellIndex.  lca._em_step must reproduce its bytes on every input,
# one-row studies and one-cell tables included.
# ---------------------------------------------------------------------------


def lca_log_density_matrix_reference(prevalences, Z):
    """(n, C) log densities; a lone row is evaluated as the first of two."""
    log_pi = np.log(prevalences)        # (C, q)
    log_1mpi = np.log1p(-prevalences)
    rows = np.repeat(Z, 2, axis=0) if Z.shape[0] == 1 else Z
    return (rows @ log_pi.T + (1.0 - rows) @ log_1mpi.T)[: Z.shape[0]]


def lca_cell_posteriors_reference(prevalences, mixing, cell_z, cell_study):
    log_post = (
        lca_log_density_matrix_reference(prevalences, cell_z)
        + np.log(mixing)[cell_study]
    )
    ll = log_sum_exp_rows(log_post)
    return np.exp(log_post - ll[:, None]), ll


def lca_study_column_sums_reference(post_c, index):
    padded = np.vstack([post_c, np.zeros((1, post_c.shape[1]))])
    return padded.take(index.study_cells, axis=0).sum(axis=0)


def lca_cell_em_step_reference(prevalences, mixing, index):
    """One EM update; returns (new_prevalences, new_mixing, log_lik at the
    *input* params)."""
    post_c, ll_c = lca_cell_posteriors_reference(prevalences, mixing, index.cell_z, index.cell_study)
    post, ll_rows = post_c.take(index.row_cell, axis=0), ll_c.take(index.row_cell)
    col_sums = lca_study_column_sums_reference(post_c, index)
    ll = 0.0
    num = np.zeros(prevalences.shape)
    den = np.zeros(prevalences.shape[0])
    new_mixing = np.empty_like(mixing)
    for k, (rows, Z) in enumerate(zip(index.slices, index.blocks)):
        ll += float(ll_rows[rows].sum())
        num += post[rows].T @ Z
        den += col_sums[k]
        new_mixing[k] = col_sums[k] / Z.shape[0]  # what post.mean(axis=0) computes
    new_prev = np.clip(num / np.maximum(den, 1e-300)[:, None], EPS_CLIP, 1.0 - EPS_CLIP)
    return new_prev, clip_rows_reference(new_mixing), ll
