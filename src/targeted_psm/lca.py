"""Joint latent class model over binary structure variables.

All K+1 studies share one prevalence matrix Pi (C x q: per-class Bernoulli
prevalences of the structure variables) while every study keeps its own
mixing row lambda_k on the C-simplex.  Fitting is plain EM over the
marginal likelihood

    L = prod_k prod_i sum_c lambda_kc * prod_j pi_cj^z_ij (1-pi_cj)^(1-z_ij)

with multiple random restarts.  Classes are reported in canonical order:
descending target-study mixing weight.

The likelihood sees the data only through which z-pattern each subject of
each study has, so the E-step's row math (log densities, log-sum-exp,
posteriors) runs once per occupied (study, pattern) cell and is gathered
back to the subject rows.  Every reduction (the log-likelihood sum and the
M-step sums) still runs per study over the subject rows in their stacked
order, so the fit is bit for bit what a row-by-row E-step gives; weighting
cells by their counts would reorder those sums.  (The one exception is a
one-row product, which numpy hands to BLAS's matrix-vector kernel: its
q-term sums may round differently in the last bit.  A row-by-row E-step
meets it in a one-row study, the cell table in a one-study collection
whose subjects all share one pattern.)

The restarts are independent EM runs, so `fit_lca` spreads them over the
CPUs in the process's affinity mask, the calling process working a share
and forked children the rest (`_parallel.fan_out`).  The results are the
bytes of a serial loop: every initial model is drawn first, in restart
order, from the one 'lca-init' stream, and the earliest restart with the
largest log-likelihood wins.  The restarts run serially with one CPU (e.g.
under `taskset -c 0`), one restart, no `os.fork`, inside a multiprocessing
worker such as `run_experiment`'s pool, or while other Python threads run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._parallel import fan_out
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


@dataclass(frozen=True)
class _CellIndex:
    """A collection's subject rows grouped into (study, pattern) cells.

    cell_z      (m, q) z-pattern of each occupied cell
    cell_study  (m,) study row of each occupied cell
    row_cell    (n,) cell of each stacked subject row
    n_patterns  number of distinct z-patterns in the collection
    slices      per-study slices into the stacked rows
    blocks      per-study z blocks, which the M-step reductions read
    """

    cell_z: np.ndarray
    cell_study: np.ndarray
    row_cell: np.ndarray
    n_patterns: int
    slices: tuple
    blocks: tuple

    @classmethod
    def of(cls, data: StudyCollection) -> "_CellIndex":
        blocks = tuple(s.structure_vars for s in data.studies)
        Z = np.vstack(blocks)
        row_study = np.repeat(np.arange(len(blocks)), data.sizes)
        # One byte string per row: the bytes of its study index, then its
        # z bits (Study holds z in {0, 1}).  A 1-d sort of these finds the
        # cells in a fraction of the time and memory of np.unique(...,
        # axis=0) on the float rows.
        keys = np.column_stack([
            row_study.view(np.uint8).reshape(len(row_study), -1),
            np.packbits(Z != 0.0, axis=1),
        ])
        _, first, row_cell = np.unique(
            keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        cell_z = Z[first]
        return cls(
            cell_z=cell_z,
            cell_study=row_study[first],
            row_cell=row_cell,
            n_patterns=np.unique(cell_z, axis=0).shape[0],
            slices=tuple(data.row_slices()),
            blocks=blocks,
        )


def _cell_posteriors(model: LcaModel, cell_z: np.ndarray, cell_study: np.ndarray):
    """Class posteriors and log-likelihood terms of (study, pattern) cells:
    pattern cell_z[i] under the mixing row of study cell_study[i].  Every
    step is row-wise, so no cell depends on another."""
    log_post = (
        _log_density_matrix(model.prevalences, cell_z)
        + np.log(model.mixing)[cell_study]
    )
    ll = log_sum_exp_rows(log_post)
    return np.exp(log_post - ll[:, None]), ll


def _row_posteriors(model: LcaModel, index: _CellIndex):
    """Per-subject posteriors and log-likelihood terms, in stacked row
    order, gathered from the cell table."""
    post, ll = _cell_posteriors(model, index.cell_z, index.cell_study)
    return post.take(index.row_cell, axis=0), ll.take(index.row_cell)


def _log_lik(model: LcaModel, index: _CellIndex) -> float:
    _, ll_rows = _row_posteriors(model, index)
    total = 0.0
    for rows in index.slices:
        total += float(ll_rows[rows].sum())
    return total


def lca_log_lik(model: LcaModel, data: StudyCollection) -> float:
    """Marginal log-likelihood of the collection under the model."""
    if model.n_studies != data.K + 1:
        raise ValueError("model was fitted for a different number of studies")
    return _log_lik(model, _CellIndex.of(data))


def _em_step(model: LcaModel, index: _CellIndex):
    """One EM update; returns (new_model, log_lik at the *input* params).

    The reductions run per study over the subject rows in stacked order,
    so each sum adds the same terms in the same order as a row-wise E-step.
    """
    post, ll_rows = _row_posteriors(model, index)
    C = model.n_classes
    ll = 0.0
    num = np.zeros((C, model.n_structure_vars))
    den = np.zeros(C)
    new_mixing = np.empty_like(model.mixing)
    for k, (rows, Z) in enumerate(zip(index.slices, index.blocks)):
        ll += float(ll_rows[rows].sum())
        block = post[rows]
        num += block.T @ Z
        col = block.sum(axis=0)
        den += col
        new_mixing[k] = col / Z.shape[0]  # what post.mean(axis=0) computes
    new_prev = np.clip(num / np.maximum(den, 1e-300)[:, None], EPS_CLIP, 1.0 - EPS_CLIP)
    new_mixing = clip_rows(new_mixing)
    new_model = replace(model, prevalences=new_prev, mixing=new_mixing)
    return new_model, ll


def _run_em(model: LcaModel, index: _CellIndex, tol: float, max_iter: int):
    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new_model, ll = _em_step(model, index)
        trace.append(ll)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(ll - prev) <= tol * (abs(prev) + 1e-12):
                converged = True
                model = new_model
                break
        model = new_model
    final_ll = _log_lik(model, index)
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
    log-likelihood, the earliest restart on a tie.  The restarts run on the
    CPUs of the process's affinity mask, with results identical to a serial
    run (see the module docstring for when they run serially).  C = 1 has
    a closed form and consumes no randomness.
    """
    config = config or LcaFitConfig()
    C = int(n_classes)
    q = data.q
    if C < 1:
        raise ValueError("n_classes must be >= 1")
    if C > data.n_total:
        raise ValueError("n_classes cannot exceed the total subject count")
    index = _CellIndex.of(data)
    if C > 2 ** q:
        warnings.warn(
            f"{C} classes exceed the {2 ** q} distinct patterns of {q} binary "
            "variables; the model is not identifiable",
            RuntimeWarning,
        )
    elif C > index.n_patterns:
        warnings.warn(
            f"{C} classes exceed the {index.n_patterns} distinct patterns observed "
            "in the collection; the fit cannot tell every class apart",
            RuntimeWarning,
        )
    n_studies = data.K + 1

    if C == 1:
        z_mean = np.vstack([s.structure_vars for s in data.studies]).mean(axis=0)
        prev = np.clip(z_mean[None, :], EPS_CLIP, 1.0 - EPS_CLIP)
        model = LcaModel(prevalences=prev, mixing=np.ones((n_studies, 1)))
        ll = _log_lik(model, index)
        return replace(model, log_lik=ll, trace=(ll,), n_iter=0, converged=True)

    rng = substream(config.seed, "lca-init")
    inits = [
        LcaModel(
            prevalences=rng.uniform(0.2, 0.8, size=(C, q)),
            mixing=clip_rows(rng.dirichlet(np.ones(C), size=n_studies)),
        )
        for _ in range(config.n_starts)
    ]
    fits = fan_out(lambda init: _run_em(init, index, config.tol, config.max_iter), inits)
    # max keeps the first of equal log-likelihoods: the earliest restart
    # wins unless a later one is strictly better.
    model = _canonical_order(max(fits, key=lambda m: m.log_lik))
    # Re-evaluate at the reported ordering so log_lik matches exactly on
    # re-computation (the sorted-sum reduction makes reordering lossless).
    return replace(model, log_lik=_log_lik(model, index))


def initial_memberships(model: LcaModel, data: StudyCollection) -> MembershipMatrix:
    """Per-subject class posteriors v under the fitted model (Bayes rule with
    each study's own mixing row as prior), clipped row-wise."""
    if model.n_studies != data.K + 1:
        raise ValueError("model was fitted for a different number of studies")
    index = _CellIndex.of(data)
    post, _ = _row_posteriors(model, index)
    # clip_rows renormalizes every row while any row still needs a pass, so
    # it runs on each study's block, never on the cell table.
    blocks = tuple(clip_rows(post[rows]) for rows in index.slices)
    return MembershipMatrix(probs=blocks)


def membership_for_pattern(model: LcaModel, z: np.ndarray, study_row: int = 0) -> np.ndarray:
    """Class posterior for new binary patterns under one study's prior.

    Accepts a single pattern (q,) or a batch (n, q); returns (C,) or (n, C).
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    post, _ = _cell_posteriors(model, Z, np.full(Z.shape[0], study_row))
    post = clip_rows(post)
    return post[0] if single else post


def _n_free_params(n_classes: int, data: StudyCollection) -> int:
    """C*q free prevalences plus (K+1)(C-1) free mixing weights."""
    C = int(n_classes)
    return C * data.q + (data.K + 1) * (C - 1)


def lca_bic(model: LcaModel, data: StudyCollection) -> float:
    """BIC = -2 log L + d log(n), with d the free parameter count (C*q
    prevalences plus (K+1)(C-1) mixing weights).  Lower is better."""
    return -2.0 * model.log_lik + _n_free_params(model.n_classes, data) * np.log(data.n_total)


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
                "n_params": _n_free_params(C, data),
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
