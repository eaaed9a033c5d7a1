"""GLM families, the package's shared rules (sorted reductions, first_best,
em_converged, check_count), the study and matrix containers and their
refusals, and the study CSV and manifest round trips.  The logistic mean
matches its earlier masked two-branch form bit for bit (signed zeros, the
clamp edges, subnormals, infinities and random scales), and clip_rows its
earlier form (pinned, all-zero, negative and NaN rows)."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import _curvature as oracle_curvature
from _oracles import clip_rows_reference
from _oracles import _sigmoid as oracle_sigmoid
from targeted_psm import core
from targeted_psm.core import (
    EPS_CLIP,
    ETA_CLAMP,
    CoefficientMatrix,
    GlmFamily,
    MembershipMatrix,
    Study,
    StudyCollection,
    check_count,
    clamp_eta,
    clip_rows,
    em_converged,
    first_best,
    load_collection,
    log_sum_exp_rows,
    neg_log_lik_glm,
    read_study_csv,
    sorted_row_sums,
    sorted_square_norm,
    write_manifest,
    write_study_csv,
)

# ---------------------------------------------------------------------------
# GLM family
# ---------------------------------------------------------------------------


def test_logistic_log_partition_matches_softplus():
    eta = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
    fam = GlmFamily.logistic()
    assert np.allclose(fam.log_partition(eta), np.logaddexp(0.0, eta), rtol=0, atol=0)


def test_gaussian_log_partition_is_half_square():
    eta = np.linspace(-3, 3, 7)
    fam = GlmFamily.gaussian()
    assert np.array_equal(fam.log_partition(eta), 0.5 * eta**2)


def test_logistic_mean_properties():
    fam = GlmFamily.logistic()
    assert fam.mean(np.array([0.0]))[0] == 0.5
    eta = np.linspace(-30, 30, 201)
    mu = fam.mean(eta)
    assert np.all(np.diff(mu) >= 0)
    assert np.all((mu > 0) & (mu < 1))
    # extreme linear predictors saturate but stay finite thanks to the clamp
    big = fam.mean(np.array([-1e9, 1e9]))
    assert np.all(np.isfinite(big))
    assert np.all((big >= 0) & (big <= 1))


def test_gaussian_mean_is_identity():
    eta = np.linspace(-5, 5, 11)
    assert np.array_equal(GlmFamily.gaussian().mean(eta), eta)


def test_variance_functions():
    # variance() is the GLM variance function V(mu) of the mean, so
    # variance(mean(eta)) is the curvature g'' of the log-partition (the IRLS
    # weights), not Var(Y); the gaussian curvature is 1 regardless of
    # dispersion.
    eta = np.linspace(-4, 4, 9)
    for fam in (GlmFamily.logistic(), GlmFamily.gaussian(2.5)):
        assert np.array_equal(fam.variance(fam.mean(eta)), oracle_curvature(fam.kind, eta))


def _sigmoid_battery():
    tiny, normal = np.finfo(float).smallest_subnormal, np.finfo(float).tiny
    yield pytest.param(np.array([0.0, -0.0, ETA_CLAMP, -ETA_CLAMP, np.inf, -np.inf,
                                 tiny, -tiny, 1e-310, -1e-310, normal, -normal]), id="edges")
    rng = np.random.default_rng(23)
    for scale in (1e-6, 1e-3, 1.0, 10.0, 40.0, 100.0, 800.0):
        yield pytest.param(rng.standard_normal(4000) * scale, id=f"scale-{scale:g}")


@pytest.mark.parametrize("eta", _sigmoid_battery())
def test_sigmoid_is_bitwise_the_masked_two_branch_form(eta):
    # One exp(-|eta|) and a where must round every element exactly as the
    # old per-sign gathers and scatters did, clamped or not.
    assert core._sigmoid(eta).tobytes() == oracle_sigmoid(eta).tobytes()
    clamped = clamp_eta(eta)
    assert GlmFamily.logistic().mean(eta).tobytes() == oracle_sigmoid(clamped).tobytes()


def test_logistic_log_density_is_exact_bernoulli():
    fam = GlmFamily.logistic()
    for eta in (-7.0, -0.3, 0.0, 1.2, 9.0):
        mu = 1.0 / (1.0 + np.exp(-eta))
        e = np.array([eta])
        assert np.exp(fam.log_density(np.array([1.0]), e))[0] == pytest.approx(
            mu, rel=1e-12
        )
        assert np.exp(fam.log_density(np.array([0.0]), e))[0] == pytest.approx(
            1 - mu, rel=1e-12
        )


def test_gaussian_log_density_matches_normal_up_to_y_constant():
    # The E-step compares densities across eta at fixed y, so log_density may
    # differ from the exact normal logpdf only by a function of y alone.
    fam = GlmFamily.gaussian(dispersion=1.7)
    etas = np.linspace(-3, 3, 13)
    for y in (-2.0, 0.0, 1.5):
        ours = fam.log_density(np.full_like(etas, y), etas)
        exact = -0.5 * (y - etas) ** 2 / 1.7 - 0.5 * np.log(2 * np.pi * 1.7)
        gap = ours - exact
        assert np.allclose(gap, gap[0], atol=1e-10)


def test_log_density_is_the_negated_glm_loss_over_the_dispersion():
    # log_density is -neg_log_lik_glm at the clamped eta over the dispersion;
    # that is the value (y * eta - g(eta)) / a(phi) at the clamped eta, up to
    # the sign of an exact zero, on etas at and beyond the clamp and y = 0.
    rng = np.random.default_rng(7)
    families = (GlmFamily.logistic(), GlmFamily.gaussian(), GlmFamily.gaussian(2.5))
    for _ in range(200):
        for fam in families:
            eta = rng.standard_normal(40) * 10.0 ** rng.integers(-3, 4, 40)
            eta[:8] = [ETA_CLAMP, -ETA_CLAMP, 700.5, -701.0, 1e4, -1e300, 0.0, -0.0]
            if fam.kind == "logistic":
                y = (rng.random(40) < 0.5).astype(float)
            else:
                y = rng.standard_normal(40) * 10.0 ** rng.integers(-3, 4, 40)
            y[rng.permutation(40)[:10]] = 0.0
            eta_c = clamp_eta(eta)
            got = fam.log_density(y, eta)
            assert np.array_equal(got, -neg_log_lik_glm(fam, y, eta_c) / fam.dispersion)
            assert np.array_equal(got, (y * eta_c - fam.log_partition(eta_c)) / fam.dispersion)
    for fam in families:
        with pytest.raises(ValueError, match=re.escape(
                "eta[1] must be a real number in (-inf, inf), got nan")):
            fam.log_density(np.zeros(2), np.array([0.5, np.nan]))


def test_validate_outcomes():
    with pytest.raises(ValueError):
        GlmFamily.logistic().validate_outcomes(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        GlmFamily.logistic().validate_outcomes(np.array([np.nan]))
    GlmFamily.logistic().validate_outcomes(np.array([0.0, 1.0]))
    GlmFamily.gaussian().validate_outcomes(np.array([-3.2, 0.1]))
    with pytest.raises(ValueError):
        GlmFamily.gaussian().validate_outcomes(np.array([np.inf]))


def test_family_construction():
    assert GlmFamily("logistic").kind == "logistic"
    assert GlmFamily.gaussian(dispersion=2.0).dispersion == 2.0
    with pytest.raises(ValueError):
        GlmFamily("poisson")
    with pytest.raises(ValueError):
        GlmFamily.gaussian(dispersion=0.0)
    with pytest.raises(ValueError):
        GlmFamily("logistic", dispersion=3.0)  # logistic dispersion is fixed
    for dispersion in (True, "1", np.nan, np.inf, None):
        with pytest.raises(ValueError, match=re.escape(
                f"dispersion must be a real number in (0, inf), got {dispersion!r}")):
            GlmFamily.gaussian(dispersion=dispersion)


def test_clamp_eta():
    eta = np.array([-1e6, -ETA_CLAMP, 0.0, ETA_CLAMP, 1e6])
    out = clamp_eta(eta)
    assert np.array_equal(out, [-ETA_CLAMP, -ETA_CLAMP, 0.0, ETA_CLAMP, ETA_CLAMP])


def test_neg_log_lik_rejects_nonfinite_eta():
    fam = GlmFamily.logistic()
    with pytest.raises(ValueError):
        neg_log_lik_glm(fam, np.array([1.0]), np.array([np.nan]))


# ---------------------------------------------------------------------------
# Canonical reductions and probability hygiene
# ---------------------------------------------------------------------------


def test_sorted_row_sums_is_permutation_exact(rng):
    a = rng.standard_normal((50, 6)) * np.exp(rng.normal(0, 3, (50, 6)))
    base = sorted_row_sums(a)
    for _ in range(10):
        perm = rng.permutation(6)
        assert np.array_equal(sorted_row_sums(a[:, perm]), base)


def test_log_sum_exp_rows_matches_direct(rng):
    a = rng.normal(0, 20, (40, 5))
    direct = np.log(np.exp(a - a.max(axis=1, keepdims=True)).sum(axis=1)) + a.max(
        axis=1
    )
    assert np.allclose(log_sum_exp_rows(a), direct, rtol=1e-13)


def test_log_sum_exp_rows_is_permutation_exact(rng):
    a = rng.normal(0, 30, (30, 4))
    base = log_sum_exp_rows(a)
    for _ in range(8):
        perm = rng.permutation(4)
        assert np.array_equal(log_sum_exp_rows(a[:, perm]), base)


def test_sorted_square_norm_matches_linalg_and_is_exact(rng):
    a = rng.standard_normal((7, 5))
    assert sorted_square_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)
    flat = a.ravel()
    for _ in range(8):
        assert sorted_square_norm(flat[rng.permutation(flat.size)]) == (
            sorted_square_norm(a)
        )


# ---------------------------------------------------------------------------
# The choice rule, the EM stop test and the count check
# ---------------------------------------------------------------------------


def _tied_scores(rng, shape):
    """Scores drawn from a few values, so exact ties are common, with the
    +inf of a failed CV candidate among them."""
    return rng.choice([0.25, 1.0, 1.0 + 2.0 ** -52, 3.5, np.inf], size=shape)


def test_first_best_is_every_in_place_rule_it_replaced(rng):
    for _ in range(300):
        s = _tied_scores(rng, int(rng.integers(1, 9)))
        idx = range(s.size)
        old_rules = (
            int(np.argmin(s)),                       # the CV choice
            min(idx, key=lambda i: s[i]),            # the BIC choice
            max(idx, key=lambda i: -s[i]),           # the restart choice, on -score
        )
        assert first_best(s) == old_rules[0] == old_rules[1] == old_rules[2]
        assert isinstance(first_best(s), int)
        S = _tied_scores(rng, (int(rng.integers(1, 5)), int(rng.integers(1, 9))))
        assert np.array_equal(first_best(S), np.argmin(S, axis=1))


def test_first_best_picks_the_first_lowest_score_row_by_row():
    s = np.array([3.0, 1.0 + 5e-8, 2.0, 1.0])
    assert first_best(s) == 3                # no tolerance: 1.0 + 5e-8 loses
    assert first_best(-s) == 0
    assert first_best([-1000.0, -1000.0 + 1e-4, -1000.0]) == 0
    S = np.array([[2.0, 1.0 + 1e-9, 1.0], [5.0, 4.0, 4.0]])
    assert first_best(S).tolist() == [2, 1]
    assert first_best([np.inf, np.inf]) == 0
    assert first_best(np.array([[np.inf, np.inf], [np.inf, 1.0]])).tolist() == [0, 1]
    with pytest.raises(ValueError, match=re.escape(
            "scores[1] must be a real number in [-inf, inf], got nan")):
        first_best([1.0, np.nan])


def _mixture_em_test(theta, theta_new, tau):
    """The stop test _mixture_em wrote in place before core.em_converged."""
    denom = sorted_square_norm(theta)
    diff = sorted_square_norm(theta_new - theta)
    return (diff <= tau * denom) if denom > 0 else (sorted_square_norm(theta_new) <= tau)


def test_em_converged_is_the_old_mixture_em_test(rng):
    tau = 1e-4
    for _ in range(2000):
        # zero states, states of norm below 1 and above it, and steps right
        # around the threshold
        size = rng.choice([0.0, 1e-3, 0.5, 30.0])
        theta = size * rng.standard_normal((4, 3))
        length = rng.choice([0.0, 0.5, 1.0, 2.0]) * tau * max(sorted_square_norm(theta), 1.0)
        step = rng.standard_normal((4, 3))
        step *= length / sorted_square_norm(step) * (1.0 + rng.uniform(-1e-12, 1e-12))
        theta_new = theta + step
        new = em_converged(sorted_square_norm(theta_new - theta), sorted_square_norm(theta), tau)
        assert new == _mixture_em_test(theta, theta_new, tau)


def test_em_converged_is_relative_above_zero_absolute_at_it():
    tau = 1e-4
    # a previous state of norm 0.5: relative, so a change of 0.8 * tau is
    # not converged
    assert not em_converged(0.8 * tau, 0.5, tau)
    assert em_converged(0.4 * tau, 0.5, tau)
    # a zero previous state: absolute
    assert em_converged(tau, 0.0, tau)
    assert not em_converged(2 * tau, 0.0, tau)


def test_check_count():
    check_count("n", 3, 1)
    check_count("n", np.int64(0), 0)
    for bad in (0, 2.5, 5.0, True, "3", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1, got"):
            check_count("n", bad, 1)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(0.0, 1e6, allow_nan=False),
    )
)
def test_clip_rows_constraints_hold(a):
    out = clip_rows(a)
    if a.shape[1] == 1:
        assert np.array_equal(out, np.ones_like(a))
        return
    assert np.all(out >= EPS_CLIP)
    assert np.all(out <= 1 - EPS_CLIP)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


def test_clip_rows_row_stochastic_tolerance(rng):
    raw = rng.random((200, 4)) ** 5  # highly uneven rows
    out = clip_rows(raw)
    assert np.max(np.abs(sorted_row_sums(out) - 1.0)) < 1e-12


def test_clip_rows_single_column_exact_ones(rng):
    out = clip_rows(rng.random((9, 1)))
    assert np.array_equal(out, np.ones((9, 1)))


@st.composite
def clip_rows_cases(draw):
    """Row blocks for clip_rows: entries below EPS_CLIP (tiny, zero or
    negative), all-zero and NaN rows, rows whose one low entry lies within
    a factor of 2 of EPS_CLIP, C = 1, and the (K+1) x C mixing rows of an
    EM step (column sums over study sizes, Dirichlet rows with entries far
    below the floor)."""
    n, C = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.dirichlet(np.full(C, draw(st.sampled_from([0.01, 0.1, 1.0]))), size=n)
        return rows * rng.integers(1, 5000, size=(n, 1)) / rng.integers(1, 5000, size=(n, 1))
    entry = st.one_of(
        st.floats(0.0, 1.0),
        st.floats(0.0, 3 * EPS_CLIP),
        st.floats(-1.0, 0.0),
        st.sampled_from([0.0, -0.0, 1e-300, EPS_CLIP, 1.0 - EPS_CLIP]),
        st.floats(0.0, 1e6),
    )
    a = draw(hnp.arrays(np.float64, (n, C), elements=entry))
    for i in range(n):
        kind = draw(st.sampled_from(["as drawn", "as drawn", "zero", "nan", "near the floor"]))
        if kind == "near the floor" and C >= 2:
            j, f = draw(st.integers(0, C - 1)), draw(st.floats(0.0, 2.0))
            a[i] = [draw(st.floats(0.1, 1.0)) for _ in range(C)]
            a[i, j] = 0.0
            a[i] *= (1.0 - f * EPS_CLIP) / a[i].sum()
            a[i, j] = f * EPS_CLIP
        elif kind == "zero":
            a[i] = 0.0
        elif kind == "nan":
            a[i, draw(st.integers(0, C - 1))] = np.nan
    return a


@given(clip_rows_cases())
def test_clip_rows_matches_earlier_form_bitwise(a):
    """clip_rows, which returns right after normalizing when no entry is
    below EPS_CLIP, has the bytes of its earlier form (a verbatim copy in
    _oracles) on every row block, pinned or not."""
    assert clip_rows(a).tobytes() == clip_rows_reference(a).tobytes()


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


def _mk_study(rng, n=8, p=3, q=2, study_id=0):
    return Study(
        outcomes=(rng.random(n) < 0.5).astype(float),
        predictors=rng.standard_normal((n, p)),
        structure_vars=(rng.random((n, q)) < 0.5).astype(float),
        study_id=study_id,
    )


def test_study_validation(rng):
    s = _mk_study(rng)
    assert (s.n, s.p, s.q) == (8, 3, 2)
    with pytest.raises(ValueError):
        Study(
            outcomes=np.zeros((4, 1)),
            predictors=np.zeros((4, 2)),
            structure_vars=np.zeros((4, 1)),
            study_id=0,
        )
    with pytest.raises(ValueError):
        Study(
            outcomes=np.zeros(4),
            predictors=np.zeros((4, 2)),
            structure_vars=np.full((4, 1), 0.5),  # not binary
            study_id=0,
        )
    with pytest.raises(ValueError):
        Study(
            outcomes=np.zeros(4),
            predictors=np.full((4, 2), np.nan),
            structure_vars=np.zeros((4, 1)),
            study_id=0,
        )
    # an id is an integer >= 0, never truncated (1.9 does not become 1)
    for study_id in (1.9, 1.0, True, -1, "1"):
        with pytest.raises(ValueError, match=f"study_id must be an integer >= 0, got {study_id!r}"):
            _mk_study(rng, study_id=study_id)


@pytest.mark.parametrize("build, message", [
    (lambda: clip_rows(np.full(3, 0.5)), "expected a 2-d array of row probabilities"),
    (lambda: clip_rows(np.full((1, 10 ** 6), 1e-6)), "too many columns for the EPS_CLIP floor"),
    (lambda: Study(np.zeros(4), np.zeros(4), np.zeros((4, 1)), 0),
     "predictors and structure_vars must be 2-d"),
    (lambda: Study(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 1)), 0),
     "a study needs at least one subject"),
    (lambda: Study(np.zeros(4), np.zeros((3, 2)), np.zeros((4, 1)), 0),
     "row counts of y, X, Z must agree"),
    (lambda: MembershipMatrix(probs=()), "membership matrix needs at least one study block"),
    (lambda: MembershipMatrix(probs=(np.full((2, 2), 0.5), np.full((2, 4), 0.25))),
     "all study blocks must share the class count"),
    (lambda: MembershipMatrix(probs=(np.array([[1.0, 0.0]]),)),
     "membership entries must lie in [eps, 1 - eps]"),
], ids=["clip_rows 1-d", "clip_rows too wide", "Study 1-d X", "Study no rows",
        "Study row counts", "MembershipMatrix empty", "MembershipMatrix class counts",
        "MembershipMatrix unclipped"])
def test_a_container_of_the_wrong_shape_is_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_collection_sorts_sources_and_stacks(rng):
    target = _mk_study(rng, study_id=0)
    s2 = _mk_study(rng, n=5, study_id=2)
    s1 = _mk_study(rng, n=6, study_id=1)
    coll = StudyCollection(target=target, sources=(s2, s1))
    assert [s.study_id for s in coll.studies] == [0, 1, 2]
    assert coll.K == 2
    assert coll.n0 == 8
    assert coll.n_total == 19
    assert coll.sizes == (8, 6, 5)
    assert coll.row_slices() == [slice(0, 8), slice(8, 14), slice(14, 19)]
    # source order in the constructor is irrelevant: canonical order by id
    coll2 = StudyCollection(target=target, sources=(s1, s2))
    assert all(
        np.array_equal(a.predictors, b.predictors)
        for a, b in zip(coll.studies, coll2.studies)
    )


def test_collection_id_rules(rng):
    target = _mk_study(rng, study_id=0)
    with pytest.raises(ValueError):
        StudyCollection(target=_mk_study(rng, study_id=3))
    with pytest.raises(ValueError):
        StudyCollection(
            target=target,
            sources=(_mk_study(rng, study_id=1), _mk_study(rng, study_id=1)),
        )
    with pytest.raises(ValueError):
        StudyCollection(target=target, sources=(_mk_study(rng, study_id=0),))


def test_collection_shape_consistency(rng):
    target = _mk_study(rng, p=3)
    with pytest.raises(ValueError):
        StudyCollection(target=target, sources=(_mk_study(rng, p=4, study_id=1),))
    with pytest.raises(ValueError):
        StudyCollection(target=target, sources=(_mk_study(rng, q=3, study_id=1),))


def test_coefficient_matrix(rng):
    vals = rng.standard_normal((4, 2))
    coef = CoefficientMatrix(values=vals)
    assert np.array_equal(coef.intercept, np.zeros(2))
    assert (coef.n_features, coef.n_classes) == (4, 2)
    X = rng.standard_normal((6, 4))
    assert np.allclose(coef.linear_predictor(X), X @ vals, atol=0)
    withint = CoefficientMatrix(values=vals, intercept=np.array([1.0, -2.0]))
    assert np.allclose(withint.linear_predictor(X), X @ vals + [1.0, -2.0], atol=0)
    with pytest.raises(ValueError):
        CoefficientMatrix(values=np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        CoefficientMatrix(values=vals, intercept=np.zeros(3))


def test_membership_matrix_validation(rng):
    good = clip_rows(rng.random((10, 3)))
    m = MembershipMatrix(probs=(good, good[:4]))
    assert m.n_studies == 2
    assert m.n_classes == 3
    assert m.stacked().shape == (14, 3)
    assert np.array_equal(m.probs[0], good)
    bad = good.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(ValueError):
        MembershipMatrix(probs=(bad,))
    ones = np.ones((5, 1))
    single = MembershipMatrix(probs=(ones,))
    assert single.n_classes == 1


# ---------------------------------------------------------------------------
# CSV / manifest round trips
# ---------------------------------------------------------------------------


def test_study_csv_roundtrip_is_bit_exact(rng, tmp_path):
    study = _mk_study(rng, n=12, p=4, q=3, study_id=2)
    path = tmp_path / "study.csv"
    write_study_csv(study, path)
    header = path.read_text().splitlines()[0]
    assert header == "y,x1,x2,x3,x4,z1,z2,z3"
    back = read_study_csv(path, study_id=2)
    assert np.array_equal(back.outcomes, study.outcomes)
    assert np.array_equal(back.predictors, study.predictors)
    assert np.array_equal(back.structure_vars, study.structure_vars)


# a structure column before the predictor, predictors out of order, and
# structure columns not numbered from 1
@pytest.mark.parametrize("header", ["y,z1,x1", "y,x2,x1,z1", "y,x1,z2"])
def test_read_study_csv_requires_the_written_header(tmp_path, header):
    path = tmp_path / "study.csv"
    path.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
    with pytest.raises(ValueError, match="header must be"):
        read_study_csv(path, study_id=0)


@pytest.mark.parametrize("width, message", [
    (dict(p=2), "expected 3 predictor columns, found 2"),
    (dict(q=3), "expected 2 structure columns, found 3"),
])
def test_a_source_of_another_width_is_refused(rng, tmp_path, width, message):
    coll = StudyCollection(target=_mk_study(rng), sources=(_mk_study(rng, study_id=1),))
    manifest = write_manifest(coll, tmp_path / "ds")
    source = tmp_path / "ds" / "study_1.csv"
    write_study_csv(_mk_study(rng, study_id=1, **width), source)
    with pytest.raises(ValueError, match=re.escape(f"{source}: {message}")):
        load_collection(manifest)


def test_manifest_roundtrip_and_force(rng, tmp_path):
    coll = StudyCollection(
        target=_mk_study(rng, study_id=0),
        sources=(_mk_study(rng, n=5, study_id=1),),
    )
    manifest = write_manifest(coll, tmp_path / "ds")
    back = load_collection(manifest)
    assert back.K == 1
    for a, b in zip(back.studies, coll.studies):
        assert np.array_equal(a.predictors, b.predictors)
        assert np.array_equal(a.outcomes, b.outcomes)
    with pytest.raises(FileExistsError):
        write_manifest(coll, tmp_path / "ds")
    write_manifest(coll, tmp_path / "ds", force=True)
