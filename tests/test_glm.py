"""The weighted lasso-GLM solver against independent oracles: the
proximal-gradient lasso with KKT self-certification, closed-form weighted
least squares and central finite differences.  The coordinate-descent sweep
matches its earlier loop bit for bit on random quadratics, on planted
mid-phase zeroings, underflows and emptied active sets, and on every
quadratic of a CV-tuned fit, which is also refitted with the earlier sweep
and sigmoid patched in.  Also the stall and pass-cap failures and the
problem's refusals."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import _sigmoid as oracle_sigmoid
from _oracles import (
    cd_quadratic_reference,
    numeric_grad,
    oracle_gradient,
    oracle_objective,
    prox_gradient_lasso,
    wls_solution,
)
from _problems import problem_from_raw as _problem_from_raw
from _problems import random_glm_problem
from targeted_psm import core, glm
from targeted_psm.core import GlmFamily
from targeted_psm.glm import (
    LassoSolution,
    SolverError,
    WeightedGlmProblem,
    kkt_residual,
    objective_value,
    solve_weighted_lasso_glm,
)
from targeted_psm.lca import LcaFitConfig
from targeted_psm.transfer import TransferConfig, fit_targeted_psm


def _offset_or_zeros(raw):
    return raw["offset"] if raw["offset"] is not None else np.zeros(len(raw["y"]))


# ---------------------------------------------------------------------------
# Objective and KKT agree with independent formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_objective_matches_oracle(seed, rng):
    raw = random_glm_problem(seed)
    prob = _problem_from_raw(raw)
    beta = rng.normal(0, 0.4, raw["X"].shape[1])
    ours = objective_value(prob, beta)
    theirs = oracle_objective(
        raw["kind"], raw["X"], raw["y"], raw["weights"], raw["lam"],
        raw["penalize_mask"], _offset_or_zeros(raw), beta,
    )
    assert ours == pytest.approx(theirs, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 5, 10])
def test_smooth_gradient_matches_finite_differences(seed, rng):
    raw = random_glm_problem(seed)
    prob = _problem_from_raw(raw, lam=0.0)  # smooth objective
    beta = rng.normal(0, 0.3, raw["X"].shape[1])
    fd = numeric_grad(lambda b: objective_value(prob, b), beta)
    analytic = oracle_gradient(
        raw["kind"], raw["X"], raw["y"], raw["weights"], _offset_or_zeros(raw), beta
    )
    assert np.max(np.abs(fd - analytic)) < 1e-6
    # with lam=0 the KKT residual is exactly the sup-norm of that gradient
    assert kkt_residual(prob, beta) == pytest.approx(np.max(np.abs(analytic)), rel=1e-9)


def test_kkt_zero_coordinate_band(rng):
    # inside the |s| <= lam band a zero coordinate has zero violation
    X = np.eye(4)
    y = np.array([0.05, -0.05, 0.02, 0.0])
    prob = WeightedGlmProblem(
        family=GlmFamily.gaussian(), X=X, y=y, weights=np.ones(4), lam=0.1,
    )
    assert kkt_residual(prob, np.zeros(4)) == 0.0


def _three_case_kkt_violation(prob, s, beta):
    # the earlier rule: unpenalized, penalized nonzero and penalized zero
    viol = np.abs(s)
    nz = prob.penalize_mask & (beta != 0.0)
    z = prob.penalize_mask & (beta == 0.0)
    viol = np.where(nz, np.abs(np.abs(s) - prob.lam), viol)
    viol = np.where(z, np.maximum(np.abs(s) - prob.lam, 0.0), viol)
    return float(np.max(viol)) if viol.size else 0.0


@pytest.mark.parametrize("lam", [0.0, 0.3, np.inf])
def test_kkt_violation_is_the_three_case_rule_bit_for_bit(lam, rng):
    # an unpenalized coordinate is the zero-penalty case of the one rule
    specials = np.array([0.0, -0.0, lam, -lam, np.inf, -np.inf])
    for d in (1, 2, 5, 12):
        for _ in range(40):
            s = rng.standard_normal(d) * rng.choice([1e-3, 1.0, 1e3])
            picks = rng.random(d) < 0.3
            s[picks] = rng.choice(specials, size=int(picks.sum()))
            beta = rng.standard_normal(d) * (rng.random(d) < 0.5)
            beta[rng.random(d) < 0.2] = -0.0
            prob = WeightedGlmProblem(
                family=GlmFamily.gaussian(), X=np.ones((2, d)), y=np.zeros(2),
                weights=np.ones(2), lam=lam, penalize_mask=rng.random(d) < 0.6,
            )
            with np.errstate(invalid="ignore"):  # |s| = inf against lam = inf: nan in both
                got = glm._kkt_violation(prob, s, beta)
                want = _three_case_kkt_violation(prob, s, beta)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (s, beta)


# ---------------------------------------------------------------------------
# Solver vs oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_solver_matches_prox_gradient_oracle(seed):
    raw = random_glm_problem(seed)
    beta_o, kkt_o = prox_gradient_lasso(
        raw["kind"], raw["X"], raw["y"], raw["weights"], raw["lam"],
        raw["penalize_mask"], raw["offset"],
    )
    assert kkt_o < 1e-11  # the oracle must certify itself
    sol = solve_weighted_lasso_glm(_problem_from_raw(raw))
    assert np.max(np.abs(sol.beta - beta_o)) < 1e-6
    assert sol.kkt_max_violation <= 1e-5


def test_gaussian_unpenalized_equals_wls(rng):
    X = rng.standard_normal((60, 5))
    y = X @ np.array([1.0, -0.5, 0.0, 0.25, 2.0]) + rng.standard_normal(60)
    w = rng.uniform(0.1, 2.0, 60)
    prob = WeightedGlmProblem(
        family=GlmFamily.gaussian(), X=X, y=y, weights=w, lam=0.0,
    )
    sol = solve_weighted_lasso_glm(prob)
    assert np.allclose(sol.beta, wls_solution(X, y, w), atol=1e-8)


def test_infinite_lambda_pins_penalized_only(rng):
    X = rng.standard_normal((50, 4))
    y = X[:, 0] * 2.0 + rng.standard_normal(50)
    mask = np.array([False, True, True, True])
    prob = WeightedGlmProblem(
        family=GlmFamily.gaussian(), X=X, y=y, weights=np.ones(50),
        lam=np.inf, penalize_mask=mask,
    )
    sol = solve_weighted_lasso_glm(prob)
    assert np.array_equal(sol.beta[1:], np.zeros(3))
    expected = wls_solution(X[:, :1], y, np.ones(50))
    assert sol.beta[0] == pytest.approx(expected[0], abs=1e-8)


def test_weight_scaling_leaves_argmin_invariant(rng):
    raw = random_glm_problem(3)
    sol1 = solve_weighted_lasso_glm(_problem_from_raw(raw))
    scaled = dict(raw)
    scaled["weights"] = raw["weights"] * 7.3
    sol2 = solve_weighted_lasso_glm(_problem_from_raw(scaled))
    assert np.max(np.abs(sol1.beta - sol2.beta)) < 1e-10


def test_zero_weight_rows_are_inert(rng):
    raw = random_glm_problem(8)
    keep = raw["weights"] > 0
    assert not keep.all()  # the battery plants exact zeros
    trimmed = {
        **raw,
        "X": raw["X"][keep],
        "y": raw["y"][keep],
        "weights": raw["weights"][keep],
        "offset": None if raw["offset"] is None else raw["offset"][keep],
    }
    sol_full = solve_weighted_lasso_glm(_problem_from_raw(raw))
    sol_trim = solve_weighted_lasso_glm(_problem_from_raw(trimmed))
    assert np.max(np.abs(sol_full.beta - sol_trim.beta)) < 1e-9


def test_warm_start_at_solution_is_stationary():
    raw = random_glm_problem(4)
    prob = _problem_from_raw(raw)
    sol = solve_weighted_lasso_glm(prob)
    warm = solve_weighted_lasso_glm(prob, init=sol.beta)
    # restarting at the optimum may wander within the convergence tolerance
    assert np.max(np.abs(warm.beta - sol.beta)) < 2e-7
    assert warm.n_iters <= sol.n_iters


@pytest.mark.parametrize("seed", [2, 5], ids=["logistic", "gaussian"])
def test_converged_solve_evaluates_kkt_once_per_pass(seed, monkeypatch):
    # Both families apply the one violation rule: the logistic solve to the
    # gradient over the rows, the gaussian solve to the gradient of its
    # quadratic.
    prob = _problem_from_raw(random_glm_problem(seed))
    rule, calls = glm._kkt_violation, []

    def counted(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(glm, "_kkt_violation", counted)
    sol = solve_weighted_lasso_glm(prob)
    assert sol.kkt_max_violation <= glm.DEFAULT_KKT_TOL
    assert len(calls) == sol.n_iters


def _gaussian_case(feature, lam):
    """A gaussian problem with an unpenalized intercept column and one
    feature of the rows that the gaussian solve sees only through its
    sufficient statistics."""
    rng = np.random.default_rng(25)
    n, d = (6, 9) if feature == "n < d" else (80, 6)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1)) + 0.3])
    y = X @ rng.normal(0.0, 0.7, d) + rng.standard_normal(n)
    weights = rng.uniform(0.2, 2.0, n)
    offset = None
    if feature == "zero weights":
        weights[::4] = 0.0
    elif feature == "several blocks":
        weights[14:21] = 0.0  # the third block, when blocks are 7 rows
    elif feature == "constant column":
        X[:, 2] = 3.0
    elif feature == "zero column":
        X[:, 3] = 0.0
    elif feature == "offset":
        offset = rng.normal(0.0, 0.5, n)
    mask = np.ones(d, dtype=bool)
    mask[0] = False
    return WeightedGlmProblem(family=GlmFamily.gaussian(), X=X, y=y, weights=weights,
                              lam=lam, penalize_mask=mask, offset=offset)


@pytest.mark.parametrize("lam", [0.0, 0.05, np.inf], ids=["lam0", "lam0.05", "laminf"])
@pytest.mark.parametrize("feature", ["plain", "zero weights", "constant column",
                                     "zero column", "offset", "n < d", "several blocks"])
def test_the_gaussian_solve_agrees_with_the_rows(feature, lam, monkeypatch):
    # The objective and KKT residual a gaussian solve reports from its
    # sufficient statistics are the ones the rows give, from a cold start and
    # from a warm start at its own optimum, and every Gram it sums and every
    # quadratic it hands the CD kernel is bitwise symmetric.  A problem within
    # one row block has the Gram of the single product Z'Z / W, bit for bit;
    # "several blocks" sums 7-row blocks over 80 rows, one block all zero
    # weights.
    prob = _gaussian_case(feature, lam)
    if feature == "several blocks":
        monkeypatch.setattr(glm, "_GRAM_BLOCK_VALUES", 7 * prob.d)
    kernel, check, quadratics, grams = glm._cd_quadratic, glm.check_real, [], []

    def capture(*args):
        quadratics.append(np.copy(args[0]))
        return kernel(*args)

    def checked(name, value, interval):
        if name == "Gram":
            grams.append(np.copy(value))
        return check(name, value, interval)

    monkeypatch.setattr(glm, "_cd_quadratic", capture)
    monkeypatch.setattr(glm, "check_real", checked)
    cold = solve_weighted_lasso_glm(prob)
    warm = solve_weighted_lasso_glm(prob, init=cold.beta)
    for sol in (cold, warm):
        assert sol.objective == pytest.approx(objective_value(prob, sol.beta), rel=1e-12)
        assert abs(sol.kkt_max_violation - kkt_residual(prob, sol.beta)) <= 1e-12
    assert quadratics and len(grams) == 2
    for A in quadratics + grams:
        assert A.tobytes() == A.T.copy().tobytes()
    Z = prob.X * np.sqrt(prob.weights)[:, None]
    single = Z.T @ Z / prob.weights.sum()
    for G in grams:
        if feature == "several blocks":
            np.testing.assert_allclose(G, single, rtol=1e-13, atol=1e-15)
        else:
            assert G.tobytes() == single.tobytes()


@pytest.mark.parametrize("kind", ["logistic", "gaussian"])
@pytest.mark.parametrize("init, message", [
    ([0.5], "init must be a length-4 vector, got shape (1,)"),
    ([True, 0, 0, 0], "init[0] must be a real number in (-inf, inf), got True"),
    (["1", 0, 0, 0], "init[0] must be a real number in (-inf, inf), got '1'"),
    ([np.nan] * 4, "init[0] must be a real number in (-inf, inf), got nan"),
], ids=["short", "bool", "string", "nan"])
def test_a_warm_start_is_a_length_d_real_vector(kind, init, message, rng):
    X = rng.standard_normal((30, 4))
    y = (rng.random(30) < 0.5).astype(float)
    fam = GlmFamily.logistic() if kind == "logistic" else GlmFamily.gaussian()
    prob = WeightedGlmProblem(family=fam, X=X, y=y, weights=np.ones(30), lam=0.05)
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_weighted_lasso_glm(prob, init=init)


@pytest.mark.parametrize("block_rows", [30, 4], ids=["one block", "several blocks"])
def test_an_overflowing_gaussian_gram_is_refused(block_rows, rng, monkeypatch):
    # Predictors near 1e160 square past the float range: the solve refuses
    # the Gram they give before any IRLS pass, whether it sums one row block
    # or several.
    monkeypatch.setattr(glm, "_GRAM_BLOCK_VALUES", 3 * block_rows)
    X = rng.standard_normal((30, 3)) * 1e160
    y = rng.standard_normal(30)
    prob = WeightedGlmProblem(family=GlmFamily.gaussian(), X=X, y=y,
                              weights=np.ones(30), lam=0.05)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=re.escape(
            "Gram[0, 0] must be a real number in (-inf, inf), got inf")):
        solve_weighted_lasso_glm(prob)


def test_solution_objective_never_above_zero_start():
    for seed in (0, 1, 2, 7):
        raw = random_glm_problem(seed)
        prob = _problem_from_raw(raw)
        sol = solve_weighted_lasso_glm(prob)
        assert sol.objective <= objective_value(prob, np.zeros(raw["X"].shape[1])) + 1e-12
        assert sol.objective == pytest.approx(objective_value(prob, sol.beta), rel=1e-12)


def test_iteration_starved_solver_raises_with_best(monkeypatch):
    raw = random_glm_problem(2)
    prob = _problem_from_raw(raw, lam=0.01)
    monkeypatch.setattr(glm, "DEFAULT_MAX_IRLS", 1)
    monkeypatch.setattr(glm, "DEFAULT_MAX_SWEEPS", 1)
    monkeypatch.setattr(glm, "DEFAULT_KKT_TOL", 1e-14)
    with pytest.raises(SolverError) as err:
        solve_weighted_lasso_glm(prob)
    assert isinstance(err.value.best, LassoSolution)


def test_a_capped_solve_whose_best_iterate_meets_the_kkt_tolerance_returns_it(monkeypatch):
    # One pass from zero moves the iterate, so the in-loop stop cannot
    # fire; the pass cap ends the loop, and the best iterate is certified.
    prob = _problem_from_raw(random_glm_problem(5))
    assert prob.family.kind == "gaussian"
    monkeypatch.setattr(glm, "DEFAULT_MAX_IRLS", 1)
    sol = solve_weighted_lasso_glm(prob)
    assert sol.n_iters == 1
    assert sol.kkt_max_violation <= glm.DEFAULT_KKT_TOL


@pytest.mark.parametrize("seed", [2, 5], ids=["logistic", "gaussian"])
def test_a_solve_whose_kkt_residual_stops_halving_gives_up_early(seed, monkeypatch):
    # No iterate meets a KKT tolerance of 0: the residual falls to rounding
    # level and stalls there, and the solve raises STALL_PASSES passes
    # later instead of running to its pass cap.
    prob = _problem_from_raw(random_glm_problem(seed), lam=0.01)
    monkeypatch.setattr(glm, "DEFAULT_KKT_TOL", 0.0)
    with pytest.raises(SolverError) as err:
        solve_weighted_lasso_glm(prob)
    assert glm.STALL_PASSES < err.value.best.n_iters < glm.DEFAULT_MAX_IRLS


@pytest.mark.parametrize("seed", [2, 5], ids=["logistic", "gaussian"])
def test_a_solve_whose_line_search_never_descends_keeps_its_warm_start(seed, monkeypatch):
    # The proposal reverses the real one's step and stretches it a
    # thousandfold: on a convex objective that is an ascent direction, so
    # every one of the 40 halvings fails, the iterate never moves, and the
    # KKT residual stalls at the warm start's.  The warm start's entries are
    # powers of two, so the solver's column scaling and unscaling of them
    # are exact.
    prob = _problem_from_raw(random_glm_problem(seed), lam=0.01)
    init = np.resize([0.5, -0.25, 0.125, -1.0], prob.d)
    real = glm._cd_quadratic
    starts = []

    def ascent(A, b, pen, beta0, tol, max_sweeps):
        starts.append(beta0.copy())
        beta, sweeps, converged = real(A, b, pen, beta0, tol, max_sweeps)
        assert np.any(beta != beta0)
        return beta0 - 1e3 * (beta - beta0), sweeps, converged

    monkeypatch.setattr(glm, "_cd_quadratic", ascent)
    with pytest.raises(SolverError) as err:
        solve_weighted_lasso_glm(prob, init=init)
    assert len(starts) == glm.STALL_PASSES + 1
    assert all(np.array_equal(start, starts[0]) for start in starts)
    assert err.value.best.n_iters == glm.STALL_PASSES + 1
    assert np.array_equal(err.value.best.beta, init)


# ---------------------------------------------------------------------------
# The coordinate-descent sweep is bitwise equal to the per-coordinate loop
# ---------------------------------------------------------------------------


@st.composite
def cd_quadratics(draw):
    """Random PSD quadratic (1/2) b'Ab - b'x + sum pen|x| with d <= 60: some
    zero-diagonal (non-movable) coordinates, penalties mixing 0, finite and
    inf, zero or nonzero warm starts, and sweep caps of 1-3 or none."""
    d = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 2 * d + 5))  # rank-deficient Grams included
    M = rng.standard_normal((n, d))
    M[:, rng.random(d) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    w = rng.uniform(0.1, 2.0, n)
    # the logistic Gram formula, which is not bitwise symmetric (the
    # gaussian solve's syrk Gram is)
    A = (M * w[:, None]).T @ M / w.sum()
    b = rng.standard_normal(d) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    pen = rng.choice([0.0, 0.05, 0.5, np.inf], size=d)
    if draw(st.booleans()):
        beta0 = rng.normal(0.0, 1.0, d) * (rng.random(d) < 0.5)
    else:
        beta0 = np.zeros(d)
    max_sweeps = draw(st.sampled_from([1, 2, 3, 1000]))
    return A, b, pen, beta0, 1e-7, max_sweeps


def _chain(diag, link, pen, max_sweeps):
    """Coordinate 0 (diagonal `diag`, penalty `pen`) reads -link * x1, and
    x1, x2 (unpenalized, correlation 0.9) climb from x1 = -8 to 2.89 over
    the active sweeps, so rho_0 crosses from below -pen to above +pen:
    coordinate 0 is set to zero in the middle of an active phase and would
    move again if it were still visited."""
    A = np.array([[diag, -link, 0.0], [-link, 1.0, 0.9], [0.0, 0.9, 1.0]])
    return (A, np.array([0.0, 1.0, 0.5]), np.array([pen, 0.0, 0.0]),
            np.array([0.0, -8.0, 10.0]), 1e-7, max_sweeps)


# The three events that rebuild the active list mid-phase.  A zeroed
# coordinate: its threshold step lands on 0.0 in the eighth sweep.
_ZEROED_MID_PHASE = _chain(1.0, 0.1, 0.05, 1000)
# An underflow: |rho_0| - pen is about 9e-26 in the eighth sweep and
# 9e-26 / 1e300 rounds to -0.0 without taking the `mag <= 0` branch; in the
# ninth, rho_0 is past +pen, where a stale active list would move it.
_UNDERFLOW_TO_ZERO = _chain(1e300, 1e-20, 1.8225e-21, 9)
# An active set that empties: both penalized coordinates decay to zero
# within the active phase, and the active list comes back empty.
_ACTIVE_SET_EMPTIES = (np.array([[1.0, 0.9], [0.9, 1.0]]), np.zeros(2),
                       np.array([0.05, 0.05]), np.array([0.0, 2.0]), 1e-7, 1000)


@given(cd_quadratics())
@example(_ZEROED_MID_PHASE)
@example(_UNDERFLOW_TO_ZERO)
@example(_ACTIVE_SET_EMPTIES)
def test_cd_sweep_matches_reference_loop_bitwise(case):
    beta, sweeps, converged = glm._cd_quadratic(*case)
    ref_beta, ref_sweeps, ref_converged = cd_quadratic_reference(*case)
    assert beta.tobytes() == ref_beta.tobytes()
    assert (sweeps, converged) == (ref_sweeps, ref_converged)


@pytest.mark.parametrize("seed", [2, 5], ids=["logistic", "gaussian"])
def test_solver_with_reference_sweep_is_bitwise_equal(seed, monkeypatch):
    prob = _problem_from_raw(random_glm_problem(seed))
    shipped = solve_weighted_lasso_glm(prob)
    monkeypatch.setattr(glm, "_cd_quadratic", cd_quadratic_reference)
    ref = solve_weighted_lasso_glm(prob)
    assert shipped.beta.tobytes() == ref.beta.tobytes()
    scalars = ("objective", "n_iters", "kkt_max_violation")
    assert np.array([getattr(shipped, k) for k in scalars]).tobytes() == np.array(
        [getattr(ref, k) for k in scalars]
    ).tobytes()


def test_a_tuned_fit_is_bitwise_the_fit_of_the_reference_sweep_and_sigmoid(
        tiny_scenario, monkeypatch):
    # Every quadratic a CV-tuned logistic fit hands the CD kernel is solved
    # as the earlier loop solves it, and the whole fit is unchanged when the
    # earlier loop and the masked two-branch sigmoid replace the shipped ones.
    _, data, _ = tiny_scenario
    config = TransferConfig(cv_folds=3, cv_grid=(0.3, 1.0, 3.0), seed=0)

    def fit():
        return fit_targeted_psm(data, 2, config, GlmFamily.logistic(),
                                lca_config=LcaFitConfig(n_starts=2, seed=0))

    kernel, calls = glm._cd_quadratic, []

    def capture(*args):
        calls.append(tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args))
        return kernel(*args)

    monkeypatch.setattr(glm, "_cd_quadratic", capture)
    shipped = fit()
    assert len(calls) > 100
    for args in calls:
        beta, sweeps, converged = kernel(*args)
        ref_beta, ref_sweeps, ref_converged = cd_quadratic_reference(*args)
        assert beta.tobytes() == ref_beta.tobytes()
        assert (sweeps, converged) == (ref_sweeps, ref_converged)

    monkeypatch.setattr(glm, "_cd_quadratic", cd_quadratic_reference)
    monkeypatch.setattr(core, "_sigmoid", oracle_sigmoid)
    ref = fit()
    for name in ("b_pooled", "delta"):
        for part in ("values", "intercept"):
            got, want = (getattr(getattr(f, name), part) for f in (shipped, ref))
            assert got.tobytes() == want.tobytes(), (name, part)
    for name in ("lambda_pool", "lambda_bias", "trace_joint", "trace_bias"):
        assert (np.asarray(getattr(shipped, name)).tobytes()
                == np.asarray(getattr(ref, name)).tobytes()), name


# ---------------------------------------------------------------------------
# Problem validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("change, message", [
    (dict(X=np.zeros(10)), "X must be 2-d"),
    (dict(weights=np.ones(9)), "inconsistent shapes among X, y, weights, mask"),
    (dict(offset=np.zeros(9)), "offset must be a length-n vector"),
], ids=["1-d X", "short weights", "short offset"])
def test_a_problem_of_the_wrong_shape_is_refused(change, message):
    ok = dict(family=GlmFamily.gaussian(), X=np.zeros((10, 3)), y=np.zeros(10),
              weights=np.ones(10), lam=0.1)
    WeightedGlmProblem(**ok)
    with pytest.raises(ValueError, match=re.escape(message)):
        WeightedGlmProblem(**{**ok, **change})


def test_problem_validation(rng):
    X = rng.standard_normal((10, 3))
    y = (rng.random(10) < 0.5).astype(float)
    ok = dict(family=GlmFamily.logistic(), X=X, y=y, weights=np.ones(10), lam=0.1)
    WeightedGlmProblem(**ok)
    with pytest.raises(ValueError):
        WeightedGlmProblem(**{**ok, "weights": -np.ones(10)})
    with pytest.raises(ValueError):
        WeightedGlmProblem(**{**ok, "weights": np.zeros(10)})
    with pytest.raises(ValueError):
        WeightedGlmProblem(**{**ok, "lam": -0.5})
    for lam in ("0.1", True, np.nan):
        with pytest.raises(ValueError, match=re.escape(
                f"lam must be a real number in [0, inf], got {lam!r}")):
            WeightedGlmProblem(**{**ok, "lam": lam})
    assert type(WeightedGlmProblem(**{**ok, "lam": np.float64(0.1)}).lam) is float
    with pytest.raises(ValueError):
        WeightedGlmProblem(**{**ok, "y": y + 0.5})
    with pytest.raises(ValueError):
        WeightedGlmProblem(**{**ok, "y": y[:-1]})
