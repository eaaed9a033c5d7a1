"""The joint latent class model against brute-force mixture likelihoods and
Bayes posteriors.  The EM step matches its earlier row-wise and cell-table
forms bit for bit (one-row studies, one-cell tables, studies past numpy's
8 192-element buffer), fanned-out restarts and class selections equal
serial ones byte for byte, and each choice and stop test is the package's
rule.  Also memberships, patterns, BIC, serialization and refusals."""

import json
import os
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targeted_psm import lca
from targeted_psm.core import (
    EPS_CLIP,
    Study,
    StudyCollection,
    check_real,
    clip_rows,
    em_converged,
)
from targeted_psm.lca import (
    LcaFitConfig,
    LcaModel,
    _CellIndex,
    _cell_posteriors,
    _em_step,
    fit_lca,
    initial_memberships,
    lca_bic,
    lca_log_lik,
    lca_model_from_dict,
    lca_model_to_dict,
    membership_for_pattern,
    select_classes_bic,
)
from _oracles import (
    lca_cell_em_step_reference,
    lca_class_density,
    lca_em_step_reference,
    lca_log_lik_reference,
    lca_study_posteriors_reference,
)


def _study(Z, study_id):
    n = Z.shape[0]
    return Study(
        outcomes=np.zeros(n),
        predictors=np.zeros((n, 1)),
        structure_vars=Z,
        study_id=study_id,
    )


def _draw_lca_study(rng, n, prevalences, mix_row, study_id):
    C, q = prevalences.shape
    classes = rng.choice(C, size=n, p=mix_row)
    return _study((rng.random((n, q)) < prevalences[classes]).astype(float), study_id)


@pytest.fixture
def small_collection(rng):
    prev = np.array([[0.85, 0.2, 0.6], [0.2, 0.75, 0.3]])
    mixing = np.array([[0.6, 0.4], [0.3, 0.7]])
    studies = [
        _draw_lca_study(rng, 400, prev, mixing[k], k) for k in range(2)
    ]
    data = StudyCollection(target=studies[0], sources=(studies[1],))
    return data, prev, mixing


# ---------------------------------------------------------------------------
# Densities and log-likelihood
# ---------------------------------------------------------------------------


def test_class_density_matches_product():
    pi_c = np.array([0.8, 0.3, 0.5])
    z = np.array([1.0, 0.0, 1.0])
    assert lca_class_density(pi_c, z) == pytest.approx(0.8 * 0.7 * 0.5, rel=1e-14)
    with pytest.raises(ValueError):
        lca_class_density(np.array([1.0, 0.3]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        lca_class_density(pi_c, np.array([0.5, 0.0, 1.0]))


def test_log_lik_matches_bruteforce(small_collection):
    data, prev, mixing = small_collection
    model = LcaModel(prevalences=prev, mixing=mixing)
    total = 0.0
    for k, study in enumerate(data.studies):
        for z in study.structure_vars:
            mix = sum(
                mixing[k, c] * lca_class_density(prev[c], z)
                for c in range(prev.shape[0])
            )
            total += np.log(mix)
    assert lca_log_lik(model, data) == pytest.approx(total, rel=1e-12)


def test_log_lik_exactly_invariant_under_class_relabeling(small_collection):
    data, prev, mixing = small_collection
    model = LcaModel(prevalences=prev, mixing=mixing)
    permuted = LcaModel(prevalences=prev[::-1].copy(), mixing=mixing[:, ::-1].copy())
    assert lca_log_lik(model, data) == lca_log_lik(permuted, data)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_single_class_closed_form(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 1)
    Z = np.vstack([s.structure_vars for s in data.studies])
    expected = np.clip(Z.mean(axis=0), EPS_CLIP, 1 - EPS_CLIP)
    assert np.allclose(model.prevalences[0], expected, atol=1e-15)
    assert np.array_equal(model.mixing, np.ones((2, 1)))
    direct = float(
        np.sum(Z * np.log(expected) + (1 - Z) * np.log1p(-expected))
    )
    assert model.log_lik == pytest.approx(direct, rel=1e-12)


def test_fit_is_deterministic(small_collection):
    data, _, _ = small_collection
    cfg = LcaFitConfig(seed=5, n_starts=3)
    m1 = fit_lca(data, 2, cfg)
    m2 = fit_lca(data, 2, cfg)
    assert np.array_equal(m1.prevalences, m2.prevalences)
    assert np.array_equal(m1.mixing, m2.mixing)
    assert m1.log_lik == m2.log_lik
    m3 = fit_lca(data, 2, LcaFitConfig(seed=6, n_starts=3))
    assert m3.log_lik == pytest.approx(m1.log_lik, rel=1e-3)  # same optimum region


def test_trace_is_monotone_and_selfconsistent(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 2, LcaFitConfig(seed=1, n_starts=4))
    trace = np.asarray(model.trace)
    assert np.all(np.diff(trace) >= -1e-8)
    assert trace[-1] == model.log_lik
    assert model.log_lik == pytest.approx(lca_log_lik(model, data), abs=1e-9)


@pytest.mark.parametrize("K", range(4))
def test_log_lik_and_n_iter_are_read_from_the_trace(K):
    # The winner is relabeled into canonical order after its last trace
    # value was taken; the sorted reductions keep that value exact, so
    # re-evaluating the returned model gives the same bits.
    prev = np.array([[0.85, 0.2, 0.6, 0.7, 0.1], [0.2, 0.75, 0.3, 0.4, 0.8],
                     [0.5, 0.5, 0.9, 0.1, 0.5], [0.1, 0.9, 0.2, 0.8, 0.3]])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        mixing = rng.dirichlet(np.ones(4), size=K + 1)
        studies = [_draw_lca_study(rng, 150, prev, mixing[k], k) for k in range(K + 1)]
        data = StudyCollection(target=studies[0], sources=tuple(studies[1:]))
        for C in range(1, 5):
            model = fit_lca(data, C, LcaFitConfig(seed=seed, n_starts=3))
            assert model.log_lik == lca_log_lik(model, data), (seed, C)
            assert model.n_iter == len(model.trace) - 1


def test_lca_model_stores_no_value_its_trace_gives():
    assert [f.name for f in fields(LcaModel)] == ["prevalences", "mixing", "trace", "converged"]
    bare = LcaModel(prevalences=np.array([[0.5]]), mixing=np.array([[1.0]]))
    assert np.isnan(bare.log_lik) and bare.n_iter == 0
    traced = replace(bare, trace=(-3.0, -2.5, -2.25))
    assert (traced.log_lik, traced.n_iter) == (-2.25, 2)
    with pytest.raises(TypeError):
        LcaModel(prevalences=np.array([[0.5]]), mixing=np.array([[1.0]]), log_lik=-1.0)


def test_canonical_class_order(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 2, LcaFitConfig(seed=2, n_starts=4))
    assert np.all(np.diff(model.mixing[0]) <= 0)


def test_parameter_recovery_moderate(rng):
    prev = np.array([[0.9, 0.1, 0.5, 0.9, 0.1], [0.1, 0.9, 0.5, 0.1, 0.9]])
    mixing = np.array([[0.65, 0.35]])
    study = _draw_lca_study(np.random.default_rng(7), 3000, prev, mixing[0], 0)
    data = StudyCollection(target=study)
    model = fit_lca(data, 2, LcaFitConfig(seed=0))
    # align by best permutation of classes
    perms = [(0, 1), (1, 0)]
    errs = [
        np.max(np.abs(model.prevalences[list(p)] - prev)) for p in perms
    ]
    best = perms[int(np.argmin(errs))]
    assert np.max(np.abs(model.prevalences[list(best)] - prev)) < 0.05
    assert np.max(np.abs(model.mixing[0][list(best)] - mixing[0])) < 0.05


def test_em_step_invariant_under_study_duplication(small_collection):
    # Duplicating a study doubles both numerator and denominator of every
    # M-step ratio, so a single EM step must produce the same parameters.
    data, _, _ = small_collection
    single = StudyCollection(target=data.target)
    model = fit_lca(single, 2, LcaFitConfig(seed=3, n_starts=4))
    single_prev, single_mix, _ = _em_step(model.prevalences, model.mixing, _CellIndex.of(single))
    dup_source = Study(
        outcomes=data.target.outcomes,
        predictors=data.target.predictors,
        structure_vars=data.target.structure_vars,
        study_id=1,
    )
    doubled = StudyCollection(target=data.target, sources=(dup_source,))
    doubled_mixing = np.vstack([model.mixing[0], model.mixing[0]])
    prev, mix, _ = _em_step(model.prevalences, doubled_mixing, _CellIndex.of(doubled))
    assert np.max(np.abs(prev - single_prev)) < 1e-12
    assert np.max(np.abs(mix[0] - single_mix[0])) < 1e-12
    assert np.max(np.abs(mix[1] - single_mix[0])) < 1e-12


def test_too_many_classes_warns(rng):
    study = _draw_lca_study(
        rng, 100, np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([0.5, 0.5]), 0
    )
    data = StudyCollection(target=study)
    with pytest.warns(RuntimeWarning):
        fit_lca(data, 5, LcaFitConfig(seed=0, n_starts=2))


def test_more_classes_than_observed_patterns_warns():
    # 8 possible patterns of q=3, but only 2 of them occur.
    Z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])[np.arange(40) % 2]
    data = StudyCollection(target=_study(Z, 0))
    cfg = LcaFitConfig(seed=0, n_starts=2)
    with pytest.warns(RuntimeWarning, match="2 distinct patterns observed"):
        fit_lca(data, 3, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_lca(data, 2, cfg)


def test_pattern_warnings_count_patterns_over_all_studies(cpus):
    """Studies that share patterns count each pattern once; a class count
    above 2^q takes the other warning."""
    target = np.array([[1.0, 0.0], [0.0, 1.0]])[np.arange(30) % 2]
    source = np.array([[0.0, 1.0], [1.0, 1.0]])[np.arange(20) % 2]
    data = StudyCollection(target=_study(target, 0), sources=(_study(source, 1),))
    cfg = LcaFitConfig(seed=0, n_starts=2)
    for n in (1, 2):
        cpus(n)
        with pytest.warns(RuntimeWarning, match="4 classes exceed the 3 distinct patterns observed"):
            fit_lca(data, 4, cfg)
        with pytest.warns(RuntimeWarning, match="5 classes exceed the 4 distinct patterns of 2 binary"):
            fit_lca(data, 5, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_lca(data, 3, cfg)


@st.composite
def lca_em_cases(draw):
    """A collection and a model: K = 0..3, q = 1..6, C = 2..6, and studies
    of 1 to 300 rows or of more rows than numpy's 8 192-element buffer.
    Each study draws its rows from a pool of 1..2^q patterns, so one-row
    studies, single-pattern studies, one-cell tables and C > observed
    patterns all occur."""
    K = draw(st.integers(0, 3))
    q = draw(st.integers(1, 6))
    C = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    studies = []
    for k in range(K + 1):
        n = draw(st.integers(1, 300) | st.integers(8_193, 9_000))
        n_pool = draw(st.integers(1, 2**q))
        pool = (rng.random((n_pool, q)) < 0.5).astype(float)
        studies.append(_study(pool[rng.integers(n_pool, size=n)], k))
    model = LcaModel(
        prevalences=rng.uniform(0.02, 0.98, size=(C, q)),
        mixing=clip_rows(rng.dirichlet(np.ones(C), size=K + 1)),
    )
    return StudyCollection(target=studies[0], sources=tuple(studies[1:])), model


@settings(max_examples=200)
@given(lca_em_cases())
def test_em_step_matches_row_wise_reference_bitwise(case):
    data, model = case
    index = _CellIndex.of(data)
    prev, mix, ll = _em_step(model.prevalences, model.mixing, index)
    ref, ref_ll = lca_em_step_reference(model, data)
    log_lik, ref_log_lik = lca_log_lik(model, data), lca_log_lik_reference(model, data)
    if min(data.sizes) >= 2 and index.cell_z.shape[0] >= 2:
        assert prev.tobytes() == ref.prevalences.tobytes()
        assert mix.tobytes() == ref.mixing.tobytes()
        assert ll == ref_ll
        assert log_lik == ref_log_lik
    else:
        # numpy hands a one-row product to BLAS's matrix-vector kernel,
        # which sums the q terms of a log density in another order than
        # the matrix-matrix kernel.  The reference does so for a one-row
        # study, the cell table when it has one cell; either moves the last
        # bits only.
        assert np.allclose(prev, ref.prevalences, rtol=1e-12, atol=0)
        assert np.allclose(mix, ref.mixing, rtol=1e-12, atol=0)
        assert ll == pytest.approx(ref_ll, rel=1e-13)
        assert log_lik == pytest.approx(ref_log_lik, rel=1e-13)


def _assert_same_step(new, ref):
    assert new[0].tobytes() == ref[0].tobytes()
    assert new[1].tobytes() == ref[1].tobytes()
    assert np.float64(new[2]).tobytes() == np.float64(ref[2]).tobytes()


@settings(max_examples=200)
@given(lca_em_cases())
def test_em_step_matches_earlier_cell_step_bitwise(case):
    """The step has the bytes of the earlier cell-table step (a verbatim
    copy in _oracles) on every case, one-row studies and one-cell tables
    included, where the row-wise reference above is only close.  The index
    counts the distinct patterns as np.unique of the cell patterns does."""
    data, model = case
    index = _CellIndex.of(data)
    _assert_same_step(_em_step(model.prevalences, model.mixing, index),
                      lca_cell_em_step_reference(model.prevalences, model.mixing, index))
    assert index.n_patterns == np.unique(index.cell_z, axis=0).shape[0]


@pytest.mark.parametrize("sizes, n_pool, q, C", [
    ((1,), 1, 3, 2),                 # one row: a one-cell table
    ((40,), 1, 4, 3),                # one pattern: a one-cell table
    ((1, 1, 1), 8, 3, 4),            # one-row studies only
    ((1, 9_000), 4, 2, 6),           # a one-row study beside a long one
    ((9_000, 1, 300), 32, 5, 5),
    ((250, 250), 2, 1, 2),           # q = 1: matrix-vector products
])
def test_em_step_matches_earlier_cell_step_over_ten_steps(rng, sizes, n_pool, q, C):
    """Ten EM steps, each from the last one's output, keep the bytes of the
    earlier cell-table step on the edge tables of the battery."""
    pool = (rng.random((n_pool, q)) < 0.5).astype(float)
    studies = [_study(pool[rng.integers(n_pool, size=n)], k) for k, n in enumerate(sizes)]
    data = StudyCollection(target=studies[0], sources=tuple(studies[1:]))
    index = _CellIndex.of(data)
    prev = rng.uniform(0.02, 0.98, size=(C, q))
    mix = clip_rows(rng.dirichlet(np.full(C, 0.3), size=len(sizes)))
    for _ in range(10):
        new = _em_step(prev, mix, index)
        _assert_same_step(new, lca_cell_em_step_reference(prev, mix, index))
        prev, mix, _ = new


def test_fit_with_row_wise_reference_is_bitwise_equal(monkeypatch, cpus, rng, tmp_path):
    # Four CPUs, so the restarts fan out to forked children, which must run
    # the reference too: it leaves one file per process that ran it.
    prev = np.array([[0.85, 0.2, 0.6, 0.7, 0.1], [0.2, 0.75, 0.3, 0.4, 0.8],
                     [0.5, 0.5, 0.9, 0.1, 0.5]])
    mixing = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    studies = [_draw_lca_study(rng, n, prev, mixing[k], k)
               for k, n in enumerate((300, 200, 250))]
    data = StudyCollection(target=studies[0], sources=tuple(studies[1:]))
    cfg = LcaFitConfig(seed=11, n_starts=3)
    fitted = {}
    for C in (1, 3):
        fitted[C] = fit_lca(data, C, cfg)

    def em_step_reference(prevalences, mixing, index):
        (tmp_path / str(os.getpid())).touch()
        ref, ll = lca_em_step_reference(LcaModel(prevalences, mixing), data)
        return ref.prevalences, ref.mixing, ll

    monkeypatch.setattr(lca, "_em_step", em_step_reference)
    monkeypatch.setattr(lca, "_log_lik", lambda prevalences, mixing, index:
                        lca_log_lik_reference(LcaModel(prevalences, mixing), data))
    for C in (1, 3):
        _assert_same_fit(fitted[C], fit_lca(data, C, cfg))
    assert fitted[3].n_iter > 1
    assert {f.name for f in tmp_path.iterdir()} - {str(os.getpid())}


def test_padded_column_sums_equal_per_study_sums_bitwise(rng):
    """One reduction over the padded layout gives each study's column sums
    with the bits of `post[rows].sum(axis=0)`: K+1 from 1 to 7, C from 2 to
    6, studies of unequal sizes from 1 row to past numpy's 8 192-element
    buffer.  `_log_lik` has the bits of the row-wise reference when every
    study has two rows or more (see the oracle test above)."""
    for case in range(40):
        n_studies, C, q = int(rng.integers(1, 8)), int(rng.integers(2, 7)), int(rng.integers(1, 7))
        sizes = np.exp(rng.uniform(0.0, np.log(60_000), n_studies)).astype(int)
        sizes[rng.random(n_studies) < 0.2] = 1
        if case % 4 == 0:
            sizes[rng.integers(n_studies)] = 60_000
        studies = [
            _study((rng.random((n, q)) < rng.random(q)).astype(float), k)
            for k, n in enumerate(sizes)
        ]
        data = StudyCollection(target=studies[0], sources=tuple(studies[1:]))
        model = LcaModel(
            prevalences=rng.uniform(0.02, 0.98, size=(C, q)),
            mixing=clip_rows(rng.dirichlet(np.full(C, 0.3), size=n_studies)),
        )
        index = _CellIndex.of(data)
        post_c, _ = _cell_posteriors(model.prevalences, model.mixing, index.cell_z, index.cell_study)
        post = post_c.take(index.row_cell, axis=0)
        sums = lca._study_column_sums(np.vstack([post_c, np.zeros((1, C))]), index)
        assert sums.shape == (n_studies, C)
        for k, rows in enumerate(index.slices):
            assert sums[k].tobytes() == post[rows].sum(axis=0).tobytes(), (case, k)
        if sizes.min() >= 2 and index.cell_z.shape[0] >= 2:
            log_lik = lca._log_lik(model.prevalences, model.mixing, index)
            assert np.float64(log_lik).tobytes() == np.float64(lca_log_lik_reference(model, data)).tobytes()


def _assert_same_fit(new, ref):
    assert new.prevalences.tobytes() == ref.prevalences.tobytes()
    assert new.mixing.tobytes() == ref.mixing.tobytes()
    assert np.asarray(new.trace).tobytes() == np.asarray(ref.trace).tobytes()
    assert (new.n_iter, new.converged) == (ref.n_iter, ref.converged)
    assert np.float64(new.log_lik).tobytes() == np.float64(ref.log_lik).tobytes()


@pytest.mark.parametrize("n_starts", [1, 2, 10])
@pytest.mark.parametrize("target_only", [False, True], ids=["K=1", "K=0"])
def test_fanned_out_restarts_equal_serial(cpus, small_collection, n_starts, target_only):
    data, _, _ = small_collection
    if target_only:
        data = StudyCollection(target=data.target)
    cfg = LcaFitConfig(seed=5, n_starts=n_starts)
    cpus(1)
    serial = fit_lca(data, 3, cfg)
    assert cpus.forks == 0
    cpus(4)
    fanned = fit_lca(data, 3, cfg)
    assert cpus.forks == min(n_starts, 4) - 1
    _assert_same_fit(fanned, serial)


def test_fanned_out_restarts_above_observed_patterns_warn_once(cpus):
    Z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])[np.arange(40) % 2]
    data = StudyCollection(target=_study(Z, 0))
    cfg = LcaFitConfig(seed=0, n_starts=6)
    fits = {}
    for n in (1, 4):
        cpus(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits[n] = fit_lca(data, 3, cfg)
        assert [str(w.message) for w in caught] == [
            "3 classes exceed the 2 distinct patterns observed in the collection; "
            "the fit cannot tell every class apart"
        ]
    _assert_same_fit(fits[4], fits[1])


def test_fanned_out_class_selection_equals_serial(cpus, small_collection):
    data, _, _ = small_collection
    cfg = LcaFitConfig(seed=3, n_starts=5)
    cpus(1)
    serial = select_classes_bic(data, [1, 2, 3], cfg)
    cpus(4)
    fanned = select_classes_bic(data, [1, 2, 3], cfg)
    assert cpus.forks == 6  # three children for each of C = 2 and 3
    for new, ref in zip(fanned, serial):
        assert (new["n_classes"], new["converged"]) == (ref["n_classes"], ref["converged"])
        assert np.float64(new["bic"]).tobytes() == np.float64(ref["bic"]).tobytes()
        _assert_same_fit(new["model"], ref["model"])


def test_restarts_tied_on_log_lik_keep_the_earliest(cpus, small_collection, monkeypatch):
    # Every restart "ends" at its own initial model with one shared
    # log-likelihood, so only the tie rule picks; the first restart's
    # initial model is the one an n_starts=1 fit draws.
    data, _, _ = small_collection
    monkeypatch.setattr(lca, "_run_em", lambda init, index: replace(init, trace=(-50.0, -42.0)))
    first = fit_lca(data, 3, LcaFitConfig(seed=4, n_starts=1))
    _assert_same_fit(fit_lca(data, 3, LcaFitConfig(seed=4, n_starts=6)), first)
    assert cpus.forks > 0
    assert not np.array_equal(fit_lca(data, 3, LcaFitConfig(seed=5, n_starts=1)).prevalences,
                              first.prevalences)


def test_select_classes_bic_marks_one_row_and_ties_go_to_the_smaller_c(small_collection,
                                                                       monkeypatch):
    data, _, _ = small_collection
    cfg = LcaFitConfig(seed=0, n_starts=2)
    rows = select_classes_bic(data, [3, 1, 2], cfg)
    lowest = min(r["bic"] for r in rows)
    assert [r["selected"] for r in rows] == [r["bic"] == lowest for r in rows]
    monkeypatch.setattr(lca, "lca_bic", lambda model, data: 1234.5)
    tied = select_classes_bic(data, [3, 1, 2, 1], cfg)
    assert [r["selected"] for r in tied] == [False, True, False, False]


def test_run_em_stop_test_decides_as_the_old_expression(small_collection, rng):
    # _run_em used to compare the change with tol * (|previous| + 1e-12).
    # em_converged at floor 0 drops the 1e-12: the log-likelihood of clipped
    # prevalences is strictly negative, so the scale is never zero, and the
    # threshold's last bits move without moving a decision.
    data, _, _ = small_collection
    index = _CellIndex.of(data)
    tol = lca.DEFAULT_TOL_LCA
    n_tests = 0
    for C in (2, 3, 4):
        for _ in range(4):
            init = LcaModel(prevalences=rng.uniform(0.2, 0.8, size=(C, data.q)),
                            mixing=clip_rows(rng.dirichlet(np.ones(C), size=data.K + 1)))
            model = lca._run_em(init, index)
            steps = model.trace[:-1]  # the last value re-evaluates the result
            decisions = []
            for prev, ll in zip(steps, steps[1:]):
                old = abs(ll - prev) <= tol * (abs(prev) + 1e-12)
                assert em_converged(abs(ll - prev), abs(prev), tol, 0.0) == old
                decisions.append(old)
            assert decisions == [False] * (len(decisions) - 1) + [model.converged]
            n_tests += len(decisions)
    assert n_tests > 100


# ---------------------------------------------------------------------------
# Memberships
# ---------------------------------------------------------------------------


def test_membership_bayes_rule_by_hand():
    prev = np.array([[0.8, 0.6], [0.2, 0.4]])
    mixing = np.array([[0.7, 0.3], [0.5, 0.5]])
    model = LcaModel(prevalences=prev, mixing=mixing)
    z = np.array([1.0, 0.0])
    num = np.array(
        [0.7 * 0.8 * 0.4, 0.3 * 0.2 * 0.6]  # mix * pi^z * (1-pi)^(1-z)
    )
    expected = num / num.sum()
    got = membership_for_pattern(model, z, study_row=0)
    assert np.allclose(got, expected, atol=1e-12)
    # source study uses its own mixing row
    num1 = np.array([0.5 * 0.8 * 0.4, 0.5 * 0.2 * 0.6])
    got1 = membership_for_pattern(model, z, study_row=1)
    assert np.allclose(got1, num1 / num1.sum(), atol=1e-12)
    batch = membership_for_pattern(model, np.vstack([z, z]), study_row=0)
    assert batch.shape == (2, 2)
    assert np.array_equal(batch[0], batch[1])


@pytest.mark.parametrize(
    "z, study_row, message",
    [
        ([1.0, 0.0], -1, "study_row must be an integer in [0, 1], got -1"),
        ([1.0, 0.0], 2, "study_row must be an integer in [0, 1], got 2"),
        ([1.0, 0.0], 0.5, "study_row must be an integer in [0, 1], got 0.5"),
        ([1.0, 0.0], True, "study_row must be an integer in [0, 1], got True"),
        ([0.5, 0.5], 0, "z[0] must be a real number in {0, 1}, got 0.5"),
        ([[1.0, 0.0], [1.0, np.nan]], 0, "z[1, 1] must be a real number in {0, 1}, got nan"),
        ([1.0, 0.0, 1.0], 0, "z must have q=2 columns, got shape (3,)"),
        ([[[1.0, 0.0]]], 0, "z must have q=2 columns, got shape (1, 1, 2)"),
    ],
)
def test_membership_for_pattern_refuses_a_bad_pattern_or_study_row(z, study_row, message):
    """study_row -1 must not read the last source's mixing row by Python
    indexing, K+1 must not end in an IndexError, and z = 0.5 gets no
    posterior."""
    model = LcaModel(prevalences=np.array([[0.8, 0.6], [0.2, 0.4]]),
                     mixing=np.array([[0.7, 0.3], [0.5, 0.5]]))
    with pytest.raises(ValueError, match=re.escape(message)):
        membership_for_pattern(model, np.array(z), study_row=study_row)


def test_a_single_row_equals_its_row_in_a_batch(rng):
    """A pattern's class posteriors before clipping, and its log-likelihood
    term, get the same bits alone as inside a batch, for random models (C up
    to 5, q up to 12) and batches of up to 600 rows.  With one class the
    batch density is a matrix-vector product whose sums depend on the row's
    place in the batch, so only its posterior (exactly 1) is compared."""
    for _ in range(300):
        C, q, n_studies = (int(v) for v in rng.integers(1, (6, 13, 4)))
        mixing = rng.dirichlet(np.ones(C), size=n_studies)
        model = LcaModel(prevalences=rng.uniform(1e-6, 1 - 1e-6, (C, q)), mixing=mixing)
        Z = (rng.random((int(rng.integers(2, 600)), q)) < rng.random()).astype(float)
        k = int(rng.integers(n_studies))
        post, ll = _cell_posteriors(model.prevalences, model.mixing, Z, np.full(Z.shape[0], k))
        for i in rng.choice(Z.shape[0], size=5):
            one_post, one_ll = _cell_posteriors(model.prevalences, model.mixing, Z[i : i + 1],
                                                np.array([k]))
            assert one_post.tobytes() == post[i : i + 1].tobytes()
            if C > 1:
                assert one_ll.tobytes() == ll[i : i + 1].tobytes()


def test_memberships_match_row_wise_reference_bitwise(rng):
    prev = np.array([[0.9, 0.1, 0.6, 0.7], [0.2, 0.8, 0.3, 0.4], [0.5, 0.5, 0.9, 0.1]])
    # The source's third weight puts its posteriors below EPS_CLIP, so
    # clip_rows pins entries there and not in the target.
    mixing = np.array([[0.5, 0.3, 0.2], [0.6, 0.4 - 1e-8, 1e-8]])
    studies = [_draw_lca_study(rng, n, prev, mixing[k], k) for k, n in enumerate((150, 90))]
    data = StudyCollection(target=studies[0], sources=(studies[1],))
    model = LcaModel(prevalences=prev, mixing=mixing)
    v = initial_memberships(model, data)
    all_patterns = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(float)
    for k, study in enumerate(data.studies):
        ref, _ = lca_study_posteriors_reference(model, study.structure_vars, k)
        assert v.probs[k].tobytes() == clip_rows(ref).tobytes()
        ref, _ = lca_study_posteriors_reference(model, all_patterns, k)
        got = membership_for_pattern(model, all_patterns, study_row=k)
        assert got.tobytes() == clip_rows(ref).tobytes()
        ref, _ = lca_study_posteriors_reference(model, all_patterns[5:6], k)
        got = membership_for_pattern(model, all_patterns[5], study_row=k)
        assert got.tobytes() == clip_rows(ref)[0].tobytes()


def test_initial_memberships_structure(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 2, LcaFitConfig(seed=4, n_starts=3))
    v = initial_memberships(model, data)
    assert v.n_studies == 2
    stacked = v.stacked()
    assert stacked.shape == (800, 2)
    assert np.max(np.abs(stacked.sum(axis=1) - 1)) < 1e-12
    assert np.all(stacked >= EPS_CLIP)
    assert np.all(stacked <= 1 - EPS_CLIP)


def test_a_model_that_does_not_fit_the_collection_is_refused(small_collection):
    """A wrong q is named, not left to numpy's matmul shape error."""
    data, _, _ = small_collection
    wrong_q = LcaModel(prevalences=np.full((2, data.q + 1), 0.5), mixing=np.full((2, 2), 0.5))
    wrong_k = LcaModel(prevalences=np.full((2, data.q), 0.5), mixing=np.full((3, 2), 0.5))
    for check in (initial_memberships, lca_log_lik):
        with pytest.raises(ValueError, match="the model has q=4, not q=3"):
            check(wrong_q, data)
        with pytest.raises(ValueError, match="the model.s study count is 3, not 2"):
            check(wrong_k, data)


def test_membership_permutation_equivariance_exact(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 2, LcaFitConfig(seed=8, n_starts=3))
    permuted = replace(
        model,
        prevalences=model.prevalences[::-1].copy(),
        mixing=model.mixing[:, ::-1].copy(),
    )
    v = initial_memberships(model, data).stacked()
    vp = initial_memberships(permuted, data).stacked()
    assert np.array_equal(vp, v[:, ::-1])


# ---------------------------------------------------------------------------
# Model selection and serialization
# ---------------------------------------------------------------------------


def test_bic_formula(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 2, LcaFitConfig(seed=1, n_starts=2))
    d = 2 * data.q + 2 * (2 - 1)
    assert lca_bic(model, data) == pytest.approx(
        -2 * model.log_lik + d * np.log(data.n_total), rel=1e-12
    )


def test_select_classes_bic(small_collection):
    data, _, _ = small_collection
    rows = select_classes_bic(data, [1, 2], LcaFitConfig(seed=0, n_starts=2))
    assert [r["n_classes"] for r in rows] == [1, 2]
    assert all({"log_lik", "n_params", "bic", "converged", "model"} <= set(r) for r in rows)
    # the 2-class generator should prefer 2 classes over 1
    assert rows[1]["bic"] < rows[0]["bic"]


@pytest.mark.parametrize("n_classes", [2.5, 2.0, True, 0, np.float64(2.0)])
def test_a_class_count_that_is_not_an_integer_is_refused(small_collection, n_classes, cpus,
                                                         monkeypatch):
    """A class count is never truncated: 2.5 does not fit 2 classes.  A bad
    count anywhere in a BIC grid is refused before any restart runs."""
    data, _, _ = small_collection
    cpus(1)  # every restart runs in this process, where the counter sees it
    runs = []
    run_em = lca._run_em
    monkeypatch.setattr(lca, "_run_em", lambda init, index: runs.append(1) or run_em(init, index))
    message = f"n_classes must be an integer in [1, {data.n_total}], got {n_classes!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_lca(data, n_classes, LcaFitConfig(n_starts=1))
    with pytest.raises(ValueError, match=re.escape(message)):
        select_classes_bic(data, [2, n_classes], LcaFitConfig(n_starts=1))
    message = f"n_classes must be an integer in [1, {data.n_total}], got {data.n_total + 1}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_lca(data, data.n_total + 1, LcaFitConfig(n_starts=1))
    with pytest.raises(ValueError, match=re.escape(message)):
        select_classes_bic(data, [2, data.n_total + 1], LcaFitConfig(n_starts=1))
    assert runs == []


def test_class_counts_may_be_numpy_integers(small_collection):
    data, _, _ = small_collection
    cfg = LcaFitConfig(seed=1, n_starts=2)
    rows = select_classes_bic(data, np.array([1, 2]), cfg)
    assert [type(r["n_classes"]) for r in rows] == [int, int]
    assert rows[1]["model"].trace == fit_lca(data, 2, cfg).trace


@pytest.mark.parametrize("seed", [2.5, True, -1, "1"])
def test_lca_fit_config_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        LcaFitConfig(seed=seed)


@pytest.mark.parametrize("entry, shown", [
    (True, "True"), (np.bool_(False), "False"), ("-1.5", "'-1.5'"), (None, "None"),
    (float("nan"), "nan"), (np.float64("nan"), "nan"), (float("-inf"), "-inf"),
    (np.float32("inf"), "inf"),
])
@pytest.mark.parametrize("at", [0, 3, 462])
def test_a_trace_with_a_bad_entry_is_refused_at_its_index(entry, shown, at):
    """A trace of 463 floats is checked as one array; an entry that is not
    a finite real number is named by its index, as a walk over the items
    names it, and so is a bad entry inside a nested item."""
    trace = [-1000.0 + i for i in range(463)]
    trace[at] = entry
    with pytest.raises(ValueError, match=re.escape(
            f"trace[{at}] must be a real number in (-inf, inf), got {shown}")):
        LcaModel(prevalences=np.array([[0.5]]), mixing=np.array([[1.0]]), trace=tuple(trace))
    trace[at] = [-1.0, entry]
    with pytest.raises(ValueError, match=re.escape(
            f"trace[{at}, 1] must be a real number in (-inf, inf), got {shown}")):
        check_real("trace", trace, "(-inf, inf)")


def test_a_trace_of_numpy_scalars_and_ints_is_accepted():
    model = LcaModel(prevalences=np.array([[0.5]]), mixing=np.array([[1.0]]),
                     trace=(np.float64(-3.0), -2, np.float32(-1.5), -1.25))
    assert model.trace == (-3.0, -2.0, -1.5, -1.25)
    assert all(type(v) is float for v in model.trace)


def test_lca_model_validation():
    with pytest.raises(ValueError):
        LcaModel(prevalences=np.array([[1.0, 0.5]]), mixing=np.array([[1.0]]))
    with pytest.raises(ValueError):
        LcaModel(
            prevalences=np.array([[0.5, 0.5], [0.4, 0.6]]),
            mixing=np.array([[0.7, 0.7]]),  # row does not sum to 1
        )
    # NaN fails every bound
    with pytest.raises(ValueError, match=re.escape(
            "prevalences[0, 0] must be a real number in (0, 1), got nan")):
        LcaModel(prevalences=np.array([[np.nan, 0.5]]), mixing=np.array([[1.0]]))
    with pytest.raises(ValueError, match=re.escape(
            "mixing[0, 0] must be a real number in (0, inf), got nan")):
        LcaModel(prevalences=np.array([[0.5], [0.4]]), mixing=np.array([[np.nan, 0.5]]))


def test_serialization_roundtrip(small_collection):
    data, _, _ = small_collection
    model = fit_lca(data, 2, LcaFitConfig(seed=9, n_starts=3))
    back = lca_model_from_dict(json.loads(json.dumps(lca_model_to_dict(model))))
    assert np.array_equal(back.prevalences, model.prevalences)
    assert np.array_equal(back.mixing, model.mixing)
    assert back.log_lik == model.log_lik
    v1 = initial_memberships(model, data).stacked()
    v2 = initial_memberships(back, data).stacked()
    assert np.array_equal(v1, v2)
