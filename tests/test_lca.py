import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targeted_psm import lca
from targeted_psm.core import EPS_CLIP, Study, StudyCollection, clip_rows
from targeted_psm.lca import (
    LcaFitConfig,
    LcaModel,
    _CellIndex,
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
    stepped_single, _ = _em_step(model, _CellIndex.of(single))
    dup_source = Study(
        outcomes=data.target.outcomes,
        predictors=data.target.predictors,
        structure_vars=data.target.structure_vars,
        study_id=1,
    )
    doubled = StudyCollection(target=data.target, sources=(dup_source,))
    doubled_model = replace(
        model, mixing=np.vstack([model.mixing[0], model.mixing[0]])
    )
    stepped, _ = _em_step(doubled_model, _CellIndex.of(doubled))
    assert np.max(np.abs(stepped.prevalences - stepped_single.prevalences)) < 1e-12
    assert np.max(np.abs(stepped.mixing[0] - stepped_single.mixing[0])) < 1e-12
    assert np.max(np.abs(stepped.mixing[1] - stepped_single.mixing[0])) < 1e-12


def test_too_many_classes_warns(rng):
    study = _draw_lca_study(
        rng, 100, np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([0.5, 0.5]), 0
    )
    data = StudyCollection(target=study)
    with pytest.warns(RuntimeWarning):
        fit_lca(data, 5, LcaFitConfig(seed=0, n_starts=2, max_iter=30))


def test_more_classes_than_observed_patterns_warns():
    # 8 possible patterns of q=3, but only 2 of them occur.
    Z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])[np.arange(40) % 2]
    data = StudyCollection(target=_study(Z, 0))
    cfg = LcaFitConfig(seed=0, n_starts=2, max_iter=30)
    with pytest.warns(RuntimeWarning, match="2 distinct patterns observed"):
        fit_lca(data, 3, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_lca(data, 2, cfg)


@st.composite
def lca_em_cases(draw):
    """A collection and a model: K = 0..3, n_k >= 1, q >= 1, C = 2..4.
    Each study draws its rows from a pool of 1..2^q patterns, so
    single-pattern studies and C > observed patterns both occur."""
    K = draw(st.integers(0, 3))
    q = draw(st.integers(1, 6))
    C = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    studies = []
    for k in range(K + 1):
        n = draw(st.integers(1, 300))
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
    stepped, ll = _em_step(model, index)
    ref, ref_ll = lca_em_step_reference(model, data)
    log_lik, ref_log_lik = lca_log_lik(model, data), lca_log_lik_reference(model, data)
    if min(data.sizes) >= 2 and index.cell_z.shape[0] >= 2:
        assert stepped.prevalences.tobytes() == ref.prevalences.tobytes()
        assert stepped.mixing.tobytes() == ref.mixing.tobytes()
        assert ll == ref_ll
        assert log_lik == ref_log_lik
    else:
        # numpy hands a one-row product to BLAS's matrix-vector kernel,
        # which sums the q terms of a log density in another order than
        # the matrix-matrix kernel.  The reference does so for a one-row
        # study, the cell table when it has one cell; either moves the last
        # bits only.
        assert np.allclose(stepped.prevalences, ref.prevalences, rtol=1e-12, atol=0)
        assert np.allclose(stepped.mixing, ref.mixing, rtol=1e-12, atol=0)
        assert ll == pytest.approx(ref_ll, rel=1e-13)
        assert log_lik == pytest.approx(ref_log_lik, rel=1e-13)


def test_fit_with_row_wise_reference_is_bitwise_equal(monkeypatch, rng, tmp_path):
    # Four CPUs, so the restarts fan out to forked children, which must run
    # the reference too: it leaves one file per process that ran it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
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

    def em_step_reference(m, index):
        (tmp_path / str(os.getpid())).touch()
        return lca_em_step_reference(m, data)

    monkeypatch.setattr(lca, "_em_step", em_step_reference)
    monkeypatch.setattr(lca, "_log_lik", lambda m, index: lca_log_lik_reference(m, data))
    for C in (1, 3):
        _assert_same_fit(fitted[C], fit_lca(data, C, cfg))
    assert fitted[3].n_iter > 1
    assert {f.name for f in tmp_path.iterdir()} - {str(os.getpid())}


def _assert_same_fit(new, ref):
    assert new.prevalences.tobytes() == ref.prevalences.tobytes()
    assert new.mixing.tobytes() == ref.mixing.tobytes()
    assert np.asarray(new.trace).tobytes() == np.asarray(ref.trace).tobytes()
    assert (new.n_iter, new.converged) == (ref.n_iter, ref.converged)
    assert np.float64(new.log_lik).tobytes() == np.float64(ref.log_lik).tobytes()


@pytest.fixture
def on_cpus(monkeypatch):
    """on_cpus(n, call) -> (call(), forks made) while the affinity mask
    reports n CPUs."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def run(n, call):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        before = len(forks)
        return call(), len(forks) - before

    return run


@pytest.mark.parametrize("n_starts", [1, 2, 10])
@pytest.mark.parametrize("target_only", [False, True], ids=["K=1", "K=0"])
def test_fanned_out_restarts_equal_serial(on_cpus, small_collection, n_starts, target_only):
    data, _, _ = small_collection
    if target_only:
        data = StudyCollection(target=data.target)
    cfg = LcaFitConfig(seed=5, n_starts=n_starts)
    serial, forks = on_cpus(1, lambda: fit_lca(data, 3, cfg))
    assert forks == 0
    fanned, forks = on_cpus(4, lambda: fit_lca(data, 3, cfg))
    assert forks == min(n_starts, 4) - 1
    _assert_same_fit(fanned, serial)


def test_fanned_out_restarts_above_observed_patterns_warn_once(on_cpus):
    Z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])[np.arange(40) % 2]
    data = StudyCollection(target=_study(Z, 0))
    cfg = LcaFitConfig(seed=0, n_starts=6, max_iter=30)
    fits = {}
    for n in (1, 4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits[n], _ = on_cpus(n, lambda: fit_lca(data, 3, cfg))
        assert [str(w.message) for w in caught] == [
            "3 classes exceed the 2 distinct patterns observed in the collection; "
            "the fit cannot tell every class apart"
        ]
    _assert_same_fit(fits[4], fits[1])


def test_fanned_out_class_selection_equals_serial(on_cpus, small_collection):
    data, _, _ = small_collection
    cfg = LcaFitConfig(seed=3, n_starts=5)
    serial, _ = on_cpus(1, lambda: select_classes_bic(data, [1, 2, 3], cfg))
    fanned, forks = on_cpus(4, lambda: select_classes_bic(data, [1, 2, 3], cfg))
    assert forks == 6  # three children for each of C = 2 and 3
    for new, ref in zip(fanned, serial):
        assert (new["n_classes"], new["converged"]) == (ref["n_classes"], ref["converged"])
        assert np.float64(new["bic"]).tobytes() == np.float64(ref["bic"]).tobytes()
        _assert_same_fit(new["model"], ref["model"])


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


def test_lca_model_validation():
    with pytest.raises(ValueError):
        LcaModel(prevalences=np.array([[1.0, 0.5]]), mixing=np.array([[1.0]]))
    with pytest.raises(ValueError):
        LcaModel(
            prevalences=np.array([[0.5, 0.5], [0.4, 0.6]]),
            mixing=np.array([[0.7, 0.7]]),  # row does not sum to 1
        )


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
