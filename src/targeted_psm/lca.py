"""Joint latent class model over binary structure variables.

All K+1 studies share one prevalence matrix Pi (C x q: per-class Bernoulli
prevalences of the structure variables) while every study keeps its own
mixing row lambda_k on the C-simplex.  Fitting is plain EM over the
marginal likelihood

    L = prod_k prod_i sum_c lambda_kc * prod_j pi_cj^z_ij (1-pi_cj)^(1-z_ij)

with multiple random restarts.  Classes are reported in canonical order:
descending target-study mixing weight.

The likelihood sees the data only through each subject's (study,
z-pattern) cell, so the E-step's row math runs once per occupied cell
(`_CellIndex`), while every sum still adds each study's subject rows in
their stacked order (`_em_step`): a fit is bit for bit what a row-by-row
E-step gives.

The module's two discrete choices and its stop test are the package's own
rules: `fit_lca` keeps the restart `core.first_best` picks on the
-log-likelihoods (the earliest restart with the largest log-likelihood),
`select_classes_bic` marks the class count it picks on the BICs (the
lowest BIC, the smaller C on a tie), and each restart stops by
`core.em_converged` at DEFAULT_TOL_LCA, relative to the previous
log-likelihood, which is strictly negative.
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
    check_count,
    check_real,
    clip_rows,
    em_converged,
    first_best,
    log_sum_exp_rows,
)

DEFAULT_N_STARTS = 10
DEFAULT_TOL_LCA = 1e-7
DEFAULT_MAX_ITER_LCA = 500


@dataclass(frozen=True)
class LcaFitConfig:
    """EM settings: the number of restarts (an integer >= 1) and the
    master seed (an integer >= 0) feeding the 'lca-init' substream.  Every
    restart stops at the relative log-likelihood change DEFAULT_TOL_LCA or
    after DEFAULT_MAX_ITER_LCA iterations."""

    n_starts: int = DEFAULT_N_STARTS
    seed: int = 0

    def __post_init__(self):
        check_count("n_starts", self.n_starts, 1)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class LcaModel:
    """Fitted latent class model.

    prevalences  (C, q) class-conditional Bernoulli prevalences, each in
                 (0, 1) (a fit keeps them in [EPS_CLIP, 1 - EPS_CLIP])
    mixing       (K+1, C) per-study class weights, each in (0, inf), rows
                 summing to 1
    trace        log-likelihood of the winning restart at the start of each
                 EM iteration, then at the returned parameters: finite real
                 numbers
    converged    whether that restart met the tolerance before its cap: a
                 bool (numpy's too)

    Every table entry goes through core.check_real before it is converted;
    `log_lik` and `n_iter` are read from the trace, never stored.
    """

    prevalences: np.ndarray
    mixing: np.ndarray
    trace: tuple = ()
    converged: bool = True

    def __post_init__(self):
        check_real("prevalences", self.prevalences, "(0, 1)")
        check_real("mixing", self.mixing, "(0, inf)")
        check_real("trace", self.trace, "(-inf, inf)")
        if not isinstance(self.converged, (bool, np.bool_)):
            raise ValueError(f"converged must be a bool, got {self.converged!r}")
        pi = np.ascontiguousarray(self.prevalences, dtype=float)
        mix = np.ascontiguousarray(self.mixing, dtype=float)
        if pi.ndim != 2 or mix.ndim != 2:
            raise ValueError("prevalences and mixing must be 2-d")
        C = pi.shape[0]
        if mix.shape[1] != C:
            raise ValueError("mixing columns must match the class count")
        if not np.max(np.abs(mix.sum(axis=1) - 1.0)) <= 1e-10:
            raise ValueError("mixing rows must sum to 1 (tol 1e-10)")
        object.__setattr__(self, "prevalences", pi)
        object.__setattr__(self, "mixing", mix)
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))

    @property
    def log_lik(self) -> float:
        """Log-likelihood at the returned parameters (NaN without a trace)."""
        return self.trace[-1] if self.trace else np.nan

    @property
    def n_iter(self) -> int:
        """EM iterations of the winning restart (0 for the closed form)."""
        return max(len(self.trace) - 1, 0)

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
    """(n, C) log densities of each row of Z under each class.

    A lone row is evaluated as the first of two equal rows.  numpy hands a
    one-row product to BLAS's matrix-vector kernel, which orders the q-term
    sums differently from the matrix-matrix kernel a batch takes, so a
    subject scored alone would differ in the last bit from the same subject
    inside a batch.  Z holds 0/1, so every product is exact, and with C >= 2
    the matrix-matrix kernel gives a row the same sums at any batch size.
    """
    log_pi = np.log(prevalences)        # (C, q)
    log_1mpi = np.log1p(-prevalences)
    rows = np.repeat(Z, 2, axis=0) if Z.shape[0] == 1 else Z
    return (rows @ log_pi.T + (1.0 - rows) @ log_1mpi.T)[: Z.shape[0]]


@dataclass(frozen=True)
class _CellIndex:
    """A collection's subject rows grouped into (study, pattern) cells.

    The E-step's row math (log densities, log-sum-exp, posteriors) runs
    once per occupied cell, in place, and is gathered back to the subject
    rows: at most min(n_k, 2^q) cells per study, instead of n_k rows.
    Sums over subjects still run over the gathered rows: weighting cells by
    their counts would reorder those sums.

    cell_z       (m, q) z-pattern of each occupied cell
    cell_study   (m,) study row of each occupied cell
    row_cell     (n,) cell of each stacked subject row
    study_cells  (n_max, K+1) row_cell laid out one study per column, in
                 stacked order, padded below each study's rows to the
                 largest study size n_max with m: the index of a zero row
                 after the cell posteriors (see _study_column_sums)
    sizes        (K+1,) study sizes as floats
    slices       per-study slices into the stacked rows
    blocks       per-study z blocks, which the M-step products read
    """

    cell_z: np.ndarray
    cell_study: np.ndarray
    row_cell: np.ndarray
    study_cells: np.ndarray
    sizes: np.ndarray
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
        bits = np.packbits(Z != 0.0, axis=1)
        keys = np.column_stack([row_study.view(np.uint8).reshape(len(row_study), -1), bits])
        _, first, row_cell = np.unique(
            keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        slices = tuple(data.row_slices())
        study_cells = np.full((max(data.sizes), len(blocks)), len(first), dtype=row_cell.dtype)
        for k, rows in enumerate(slices):
            study_cells[: rows.stop - rows.start, k] = row_cell[rows]
        return cls(
            cell_z=Z[first],
            cell_study=row_study[first],
            row_cell=row_cell,
            study_cells=study_cells,
            sizes=np.array(data.sizes, dtype=float),
            slices=slices,
            blocks=blocks,
        )


def _cell_posteriors(prevalences, mixing, cell_z: np.ndarray, cell_study: np.ndarray,
                     out: np.ndarray = None):
    """Class posteriors and log-likelihood terms of (study, pattern) cells:
    pattern cell_z[i] under the prevalences and the mixing row of study
    cell_study[i], the posteriors written into `out` ((m, C)) when given.
    Every step is row-wise, so no cell depends on another."""
    log_post = _log_density_matrix(prevalences, cell_z)
    log_post += np.log(mixing).take(cell_study, axis=0)
    ll = log_sum_exp_rows(log_post)
    log_post -= ll[:, None]
    return np.exp(log_post, out=out), ll


def _study_column_sums(padded: np.ndarray, index: _CellIndex) -> np.ndarray:
    """(K+1, C) column sums of each study's row posteriors, gathered from
    `padded`, the (m, C) cell posteriors followed by one zero row, each
    adding its rows in stacked order.

    One reduction serves every study: `padded` is gathered into an
    (n_max, K+1, C) block whose column k holds study k's rows in stacked
    order, padded with the zero row to the largest study size n_max.  numpy
    sums axis 0 of that block one row at a time, so each study's sums add
    its rows in the order a per-study sum does, and the padding adds only
    +0.0, which leaves every (non-negative) sum unchanged.  The block holds
    n_max*(K+1)*C values: as many as the gathered posteriors (n*C) when the
    studies are of equal size, up to K+1 times that when one study holds
    nearly every row."""
    return padded.take(index.study_cells, axis=0).sum(axis=0)


def _log_lik(prevalences, mixing, index: _CellIndex) -> float:
    _, ll = _cell_posteriors(prevalences, mixing, index.cell_z, index.cell_study)
    ll_rows = ll.take(index.row_cell)
    total = 0.0
    for rows in index.slices:
        total += float(ll_rows[rows].sum())
    return total


def _check_fits(model: LcaModel, data: StudyCollection) -> None:
    """ValueError unless `model` has a mixing row per study of `data` and
    one prevalence per structure variable."""
    if model.n_studies != data.K + 1:
        raise ValueError(f"the model's study count is {model.n_studies}, not {data.K + 1}")
    if model.n_structure_vars != data.q:
        raise ValueError(f"the model has q={model.n_structure_vars}, not q={data.q}")


def lca_log_lik(model: LcaModel, data: StudyCollection) -> float:
    """Marginal log-likelihood of the collection under the model."""
    _check_fits(model, data)
    return _log_lik(model.prevalences, model.mixing, _CellIndex.of(data))


def _em_step(prevalences: np.ndarray, mixing: np.ndarray, index: _CellIndex):
    """One EM update; returns (new_prevalences, new_mixing, log_lik at the
    *input* params).

    Each sum adds a study's subject rows in stacked order, the same terms
    in the same order as a row-wise E-step.  The column sums of every study
    come from one padded reduction (_study_column_sums); the class totals
    are their sum over the studies, one reduction over the outer axis,
    which adds the studies one after another as a loop from 0.0 does, and
    the mixing rows are the column sums over the study sizes.  Two sums stay
    in a per-study loop: each study's log-likelihood is a pairwise `.sum()`
    over its rows, whose blocking a segmented reduction (`np.add.reduceat`)
    or a padded one would change, and each study's prevalence numerator is
    its own `post[rows].T @ Z` product, whose BLAS summation order a product
    over all rows, or over the block's strided per-study view (numpy takes
    BLAS's matrix-vector path at q = 1), would change.
    """
    m = index.cell_z.shape[0]
    padded = np.empty((m + 1, mixing.shape[1]))
    padded[m] = 0.0
    post_c, ll_c = _cell_posteriors(
        prevalences, mixing, index.cell_z, index.cell_study, out=padded[:m]
    )
    post, ll_rows = post_c.take(index.row_cell, axis=0), ll_c.take(index.row_cell)
    col_sums = _study_column_sums(padded, index)
    ll = 0.0
    num = np.zeros(prevalences.shape)
    for rows, Z in zip(index.slices, index.blocks):
        ll += float(ll_rows[rows].sum())
        num += post[rows].T @ Z
    num /= np.maximum(col_sums.sum(axis=0), 1e-300)[:, None]
    new_prev = np.minimum(np.maximum(num, EPS_CLIP, out=num), 1.0 - EPS_CLIP, out=num)
    # col_sums[k] / n_k is what post[rows].mean(axis=0) computes
    return new_prev, clip_rows(col_sums / index.sizes[:, None]), ll


def _run_em(init: LcaModel, index: _CellIndex) -> LcaModel:
    """One EM restart from `init`, on plain arrays, stopped by
    core.em_converged on the log-likelihood change at the module's
    DEFAULT_TOL_LCA, or after DEFAULT_MAX_ITER_LCA steps, both read on
    every call.  Only the result is an LcaModel, so the model's checks run
    once per restart, not once per EM step."""
    prevalences, mixing = init.prevalences, init.mixing
    trace = []
    converged = False
    for _ in range(DEFAULT_MAX_ITER_LCA):
        prevalences, mixing, ll = _em_step(prevalences, mixing, index)
        trace.append(ll)
        if len(trace) >= 2 and em_converged(abs(ll - trace[-2]), abs(trace[-2]), DEFAULT_TOL_LCA):
            converged = True
            break
    trace.append(_log_lik(prevalences, mixing, index))
    return LcaModel(prevalences, mixing, tuple(trace), converged)


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
    (0.2, 0.8), mixing rows flat-Dirichlet) and keeps the restart that
    core.first_best picks on their -log-likelihoods, in restart order: the
    best final log-likelihood, the earliest restart on a tie.  The
    restarts are independent EM runs, spread over the CPUs of the
    process's affinity mask by `_parallel.fan_out` (whose docstring says
    when they run serially), with the bytes of a serial loop: every initial
    model is drawn first, in restart order, from the one 'lca-init' stream,
    and the winner is picked in restart order.  C = 1 has
    a closed form and consumes no randomness.  Putting the winner's classes
    in canonical order keeps its `log_lik`, the last trace value, to the bit:
    the log-likelihood's reductions are sorted.
    """
    config = config or LcaFitConfig()
    check_count("n_classes", n_classes, 1, data.n_total)
    C, q = n_classes, data.q
    index = _CellIndex.of(data)
    if C > 2 ** q:
        warnings.warn(
            f"{C} classes exceed the {2 ** q} distinct patterns of {q} binary "
            "variables; the model is not identifiable",
            RuntimeWarning,
        )
    elif C > (n_patterns := len(np.unique(index.cell_z != 0.0, axis=0))):
        warnings.warn(
            f"{C} classes exceed the {n_patterns} distinct patterns observed "
            "in the collection; the fit cannot tell every class apart",
            RuntimeWarning,
        )
    n_studies = data.K + 1

    if C == 1:
        z_mean = np.vstack([s.structure_vars for s in data.studies]).mean(axis=0)
        prev = np.clip(z_mean[None, :], EPS_CLIP, 1.0 - EPS_CLIP)
        mixing = np.ones((n_studies, 1))
        return LcaModel(prev, mixing, (_log_lik(prev, mixing, index),))

    rng = substream(config.seed, "lca-init")
    inits = [
        LcaModel(
            prevalences=rng.uniform(0.2, 0.8, size=(C, q)),
            mixing=clip_rows(rng.dirichlet(np.ones(C), size=n_studies)),
        )
        for _ in range(config.n_starts)
    ]
    fits = fan_out(lambda init: _run_em(init, index), inits)
    best = first_best([-m.log_lik for m in fits])
    return _canonical_order(fits[best])


def initial_memberships(model: LcaModel, data: StudyCollection) -> MembershipMatrix:
    """Per-subject class posteriors v under the fitted model (Bayes rule with
    each study's own mixing row as prior), clipped row-wise."""
    _check_fits(model, data)
    index = _CellIndex.of(data)
    post, _ = _cell_posteriors(model.prevalences, model.mixing, index.cell_z, index.cell_study)
    post = post.take(index.row_cell, axis=0)
    # clip_rows renormalizes every row while any row still needs a pass, so
    # it runs on each study's block, never on the cell table.
    blocks = tuple(clip_rows(post[rows]) for rows in index.slices)
    return MembershipMatrix(probs=blocks)


def membership_for_pattern(model: LcaModel, z: np.ndarray, study_row: int = 0) -> np.ndarray:
    """Class posterior for new binary patterns under the prior of study
    `study_row`, an integer in 0..K (0 is the target).

    Accepts a single 0/1 pattern (q,) or a batch (n, q); returns (C,) or
    (n, C).  Any other z or study_row is a ValueError.
    """
    check_real("z", z, "{0, 1}")
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != model.n_structure_vars:
        raise ValueError(f"z must have q={model.n_structure_vars} columns, got shape {z.shape}")
    check_count("study_row", study_row, 0, model.n_studies - 1)
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    post, _ = _cell_posteriors(model.prevalences, model.mixing, Z, np.full(Z.shape[0], study_row))
    post = clip_rows(post)
    return post[0] if single else post


def _n_free_params(n_classes: int, data: StudyCollection) -> int:
    """C*q free prevalences plus (K+1)(C-1) free mixing weights."""
    return n_classes * data.q + (data.K + 1) * (n_classes - 1)


def lca_bic(model: LcaModel, data: StudyCollection) -> float:
    """BIC = -2 log L + d log(n), with d the free parameter count (C*q
    prevalences plus (K+1)(C-1) mixing weights).  Lower is better."""
    return -2.0 * model.log_lik + _n_free_params(model.n_classes, data) * np.log(data.n_total)


def select_classes_bic(data: StudyCollection, class_grid, config: LcaFitConfig = None):
    """Fit every C in `class_grid` and tabulate one row per C, in grid
    order: n_classes, log_lik, n_params, bic, converged, model and
    selected.

    `selected` is True on exactly one row: the one core.first_best picks on
    the BICs, with the rows taken by ascending C, so the lowest BIC wins
    and a tie goes to the smaller C (to the earlier row for a C listed
    twice).  The grid is checked whole before the first fit: it
    must hold at least one C, and every C is a class count.  A heuristic
    convenience: BIC comparisons across latent class counts come with no
    recovery guarantee.
    """
    class_grid = list(class_grid)
    if not class_grid:
        raise ValueError("the class grid must hold at least one class count")
    for C in class_grid:
        check_count("n_classes", C, 1, data.n_total)
    rows = []
    for C in class_grid:
        model = fit_lca(data, C, config)
        rows.append(
            {
                "n_classes": model.n_classes,
                "log_lik": model.log_lik,
                "n_params": _n_free_params(model.n_classes, data),
                "bic": lca_bic(model, data),
                "converged": model.converged,
                "model": model,
                "selected": False,
            }
        )
    by_c = sorted(rows, key=lambda r: r["n_classes"])
    by_c[first_best([r["bic"] for r in by_c])]["selected"] = True
    return rows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def lca_model_to_dict(model: LcaModel) -> dict:
    return {
        "prevalences": model.prevalences.tolist(),
        "mixing": model.mixing.tolist(),
        "trace": list(model.trace),
        "converged": model.converged,
    }


def lca_model_from_dict(payload: dict) -> LcaModel:
    """Inverse of lca_model_to_dict; the `log_lik` and `n_iter` of older
    files restate the trace and are ignored."""
    return LcaModel(
        prevalences=payload["prevalences"],
        mixing=payload["mixing"],
        trace=payload.get("trace", ()),
        converged=payload.get("converged", True),
    )
