"""Joint latent class model over binary structure variables.

All K+1 studies share one prevalence matrix Pi (C x q: per-class Bernoulli
prevalences of the structure variables) while every study keeps its own
mixing row lambda_k on the C-simplex.  Fitting is plain EM over the
marginal likelihood

    L = prod_k prod_i sum_c lambda_kc * prod_j pi_cj^z_ij (1-pi_cj)^(1-z_ij)

with multiple random restarts.  Classes are reported in canonical order:
descending target-study mixing weight.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._rng import substream
from .core import (
    EPS_CLIP,
    MembershipMatrix,
    StudyCollection,
    clip_rows,
    log_sum_exp_rows,
)

DEFAULT_N_STARTS = 10
DEFAULT_TOL_LCA = 1e-7
DEFAULT_MAX_ITER_LCA = 500


@dataclass(frozen=True)
class LcaFitConfig:
    """EM settings: restarts, convergence tolerance on the relative
    log-likelihood change, iteration cap, and the master seed feeding the
    'lca-init' substream."""

    n_starts: int = DEFAULT_N_STARTS
    tol: float = DEFAULT_TOL_LCA
    max_iter: int = DEFAULT_MAX_ITER_LCA
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class LcaModel:
    """Fitted latent class model.

    prevalences  (C, q) class-conditional Bernoulli prevalences, in
                 (EPS_CLIP, 1 - EPS_CLIP)
    mixing       (K+1, C) per-study class weights, rows on the simplex
    log_lik      marginal log-likelihood at the returned parameters
    trace        per-iteration log-likelihood of the winning restart
    """

    prevalences: np.ndarray
    mixing: np.ndarray
    log_lik: float = np.nan
    trace: tuple = ()
    n_iter: int = 0
    converged: bool = True

    def __post_init__(self):
        pi = np.ascontiguousarray(self.prevalences, dtype=float)
        lam = np.ascontiguousarray(self.mixing, dtype=float)
        if pi.ndim != 2 or lam.ndim != 2:
            raise ValueError("prevalences and mixing must be 2-d")
        C = pi.shape[0]
        if lam.shape[1] != C:
            raise ValueError("mixing columns must match the class count")
        if np.any(pi <= 0.0) or np.any(pi >= 1.0):
            raise ValueError("prevalences must lie strictly inside (0, 1)")
        if np.max(np.abs(lam.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("mixing rows must sum to 1 (tol 1e-10)")
        if np.any(lam <= 0.0):
            raise ValueError("mixing weights must be positive")
        object.__setattr__(self, "prevalences", pi)
        object.__setattr__(self, "mixing", lam)
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))

    @property
    def n_classes(self) -> int:
        return self.prevalences.shape[0]

    @property
    def n_structure_vars(self) -> int:
        return self.prevalences.shape[1]

    @property
    def n_studies(self) -> int:
        return self.mixing.shape[0]


def _log_density_matrix(prevalences: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """(n, C) log densities of each row of Z under each class."""
    log_pi = np.log(prevalences)        # (C, q)
    log_1mpi = np.log1p(-prevalences)
    return Z @ log_pi.T + (1.0 - Z) @ log_1mpi.T


def _study_posteriors(model: LcaModel, Z: np.ndarray, study_row: int):
    """Per-subject class posteriors and log-likelihood terms for one study."""
    log_post = _log_density_matrix(model.prevalences, Z) + np.log(
        model.mixing[study_row]
    )
    ll_rows = log_sum_exp_rows(log_post)
    post = np.exp(log_post - ll_rows[:, None])
    return post, ll_rows


def lca_log_lik(model: LcaModel, data: StudyCollection) -> float:
    """Marginal log-likelihood of the collection under the model."""
    if model.n_studies != data.K + 1:
        raise ValueError("model was fitted for a different number of studies")
    total = 0.0
    for k, study in enumerate(data.studies):
        _, ll_rows = _study_posteriors(model, study.structure_vars, k)
        total += float(ll_rows.sum())
    return total


def _em_step(model: LcaModel, data: StudyCollection):
    """One EM update; returns (new_model, log_lik at the *input* params)."""
    C = model.n_classes
    ll = 0.0
    num = np.zeros((C, model.n_structure_vars))
    den = np.zeros(C)
    new_mixing = np.empty_like(model.mixing)
    for k, study in enumerate(data.studies):
        post, ll_rows = _study_posteriors(model, study.structure_vars, k)
        ll += float(ll_rows.sum())
        num += post.T @ study.structure_vars
        den += post.sum(axis=0)
        new_mixing[k] = post.mean(axis=0)
    new_prev = np.clip(num / np.maximum(den, 1e-300)[:, None], EPS_CLIP, 1.0 - EPS_CLIP)
    new_mixing = clip_rows(new_mixing)
    new_model = replace(model, prevalences=new_prev, mixing=new_mixing)
    return new_model, ll


def _run_em(model: LcaModel, data: StudyCollection, tol: float, max_iter: int):
    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new_model, ll = _em_step(model, data)
        trace.append(ll)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(ll - prev) <= tol * (abs(prev) + 1e-12):
                converged = True
                model = new_model
                break
        model = new_model
    final_ll = lca_log_lik(model, data)
    trace.append(final_ll)
    return replace(
        model, log_lik=final_ll, trace=tuple(trace), n_iter=it, converged=converged
    )


def _canonical_order(model: LcaModel) -> LcaModel:
    """Reorder classes by descending target-study mixing weight."""
    order = np.argsort(-model.mixing[0], kind="stable")
    return replace(
        model,
        prevalences=model.prevalences[order],
        mixing=model.mixing[:, order],
    )


def fit_lca(data: StudyCollection, n_classes: int, config: LcaFitConfig = None) -> LcaModel:
    """Fit the joint latent class model with `n_classes` classes.

    Runs `config.n_starts` random EM restarts (prevalences uniform on
    (0.2, 0.8), mixing rows flat-Dirichlet) and keeps the best final
    log-likelihood.  C = 1 has a closed form and consumes no randomness.
    """
    config = config or LcaFitConfig()
    C = int(n_classes)
    q = data.q
    if C < 1:
        raise ValueError("n_classes must be >= 1")
    if C > data.n_total:
        raise ValueError("n_classes cannot exceed the total subject count")
    if C > 2 ** q:
        warnings.warn(
            f"{C} classes exceed the {2 ** q} distinct patterns of {q} binary "
            "variables; the model is not identifiable",
            RuntimeWarning,
        )
    n_studies = data.K + 1

    if C == 1:
        z_mean = np.vstack([s.structure_vars for s in data.studies]).mean(axis=0)
        prev = np.clip(z_mean[None, :], EPS_CLIP, 1.0 - EPS_CLIP)
        model = LcaModel(prevalences=prev, mixing=np.ones((n_studies, 1)))
        ll = lca_log_lik(model, data)
        return replace(model, log_lik=ll, trace=(ll,), n_iter=0, converged=True)

    rng = substream(config.seed, "lca-init")
    best = None
    for _ in range(config.n_starts):
        init = LcaModel(
            prevalences=rng.uniform(0.2, 0.8, size=(C, q)),
            mixing=clip_rows(rng.dirichlet(np.ones(C), size=n_studies)),
        )
        fitted = _run_em(init, data, config.tol, config.max_iter)
        if best is None or fitted.log_lik > best.log_lik:
            best = fitted
    model = _canonical_order(best)
    # Re-evaluate at the reported ordering so log_lik matches exactly on
    # re-computation (the sorted-sum reduction makes reordering lossless).
    return replace(model, log_lik=lca_log_lik(model, data))


def initial_memberships(model: LcaModel, data: StudyCollection) -> MembershipMatrix:
    """Per-subject class posteriors v under the fitted model (Bayes rule with
    each study's own mixing row as prior), clipped row-wise."""
    if model.n_studies != data.K + 1:
        raise ValueError("model was fitted for a different number of studies")
    blocks = []
    for k, study in enumerate(data.studies):
        post, _ = _study_posteriors(model, study.structure_vars, k)
        blocks.append(clip_rows(post))
    return MembershipMatrix(probs=tuple(blocks), stage="initial_v")


def membership_for_pattern(model: LcaModel, z: np.ndarray, study_row: int = 0) -> np.ndarray:
    """Class posterior for new binary patterns under one study's prior.

    Accepts a single pattern (q,) or a batch (n, q); returns (C,) or (n, C).
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    post, _ = _study_posteriors(model, Z, study_row)
    post = clip_rows(post)
    return post[0] if single else post


def lca_bic(model: LcaModel, data: StudyCollection) -> float:
    """BIC = -2 log L + d log(n); d = C*q free prevalences plus (K+1)(C-1)
    free mixing weights.  Lower is better."""
    C = model.n_classes
    d_free = C * data.q + (data.K + 1) * (C - 1)
    return -2.0 * model.log_lik + d_free * np.log(data.n_total)


def select_classes_bic(data: StudyCollection, class_grid, config: LcaFitConfig = None):
    """Fit every C in `class_grid` and tabulate (C, log_lik, bic, model).

    A heuristic convenience: BIC comparisons across latent class counts come
    with no recovery guarantee.
    """
    rows = []
    for C in class_grid:
        model = fit_lca(data, C, config)
        rows.append(
            {
                "n_classes": int(C),
                "log_lik": model.log_lik,
                "n_params": int(C) * data.q + (data.K + 1) * (int(C) - 1),
                "bic": lca_bic(model, data),
                "converged": model.converged,
                "model": model,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def lca_model_to_dict(model: LcaModel) -> dict:
    return {
        "n_classes": model.n_classes,
        "prevalences": model.prevalences.tolist(),
        "mixing": model.mixing.tolist(),
        "log_lik": model.log_lik,
        "trace": list(model.trace),
        "n_iter": model.n_iter,
        "converged": model.converged,
    }


def lca_model_from_dict(payload: dict) -> LcaModel:
    return LcaModel(
        prevalences=np.asarray(payload["prevalences"], dtype=float),
        mixing=np.asarray(payload["mixing"], dtype=float),
        log_lik=float(payload["log_lik"]),
        trace=tuple(payload.get("trace", ())),
        n_iter=int(payload.get("n_iter", 0)),
        converged=bool(payload.get("converged", True)),
    )


def save_lca_model(model: LcaModel, path) -> None:
    Path(path).write_text(json.dumps(lca_model_to_dict(model), indent=2) + "\n")


def load_lca_model(path) -> LcaModel:
    return lca_model_from_dict(json.loads(Path(path).read_text()))
