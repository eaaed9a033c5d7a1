"""The synthetic scenario generator: preset tables, config refusals,
coefficient structure, bitwise determinism, independent streams per study
and test sample, the distributions of the draws, and dataset round trips."""

import json
import re

import numpy as np
import pytest

from targeted_psm.core import load_collection
from targeted_psm.simulate import (
    ScenarioConfig,
    generate_scenario,
    generate_target_test,
    make_coefficients,
    scenario_preset,
    target_coefficients,
    truth_to_dict,
    write_dataset,
)


# ---------------------------------------------------------------------------
# Presets and configuration
# ---------------------------------------------------------------------------


def test_prevalence_preset_tables():
    well = ScenarioConfig().resolved_prevalences()
    assert well.shape == (3, 5)
    assert np.array_equal(
        well,
        np.array(
            [
                [0.1, 0.5, 0.9, 0.1, 0.5],
                [0.9, 0.1, 0.5, 0.9, 0.1],
                [0.5, 0.9, 0.1, 0.5, 0.9],
            ]
        ),
    )
    less = ScenarioConfig(prevalences="less_separated").resolved_prevalences()
    assert np.array_equal(less[0], np.array([0.3, 0.5, 0.7, 0.3, 0.5]))
    with pytest.raises(ValueError, match="unknown prevalence preset 'nope'"):
        ScenarioConfig(prevalences="nope")
    # returned copies never alias the module table
    well[0, 0] = 0.42
    assert ScenarioConfig().resolved_prevalences()[0, 0] == 0.1


def test_mixing_preset_tables():
    small = ScenarioConfig(K=5).resolved_mixing()
    assert small.shape == (6, 3)
    assert np.array_equal(small[0], np.array([0.50, 0.30, 0.20]))
    assert np.array_equal(small[1], np.array([0.45, 0.35, 0.20]))
    large = ScenarioConfig(K=2, mixing="large_diff").resolved_mixing()
    assert np.array_equal(large[0], np.array([0.80, 0.10, 0.10]))
    assert np.array_equal(large[1], np.array([0.10, 0.10, 0.80]))
    assert np.max(np.abs(ScenarioConfig(K=10).resolved_mixing().sum(axis=1) - 1)) < 1e-12
    with pytest.raises(ValueError, match=re.escape(
            "n_sources of mixing preset 'small_diff' must be an integer in [0, 10], got 11")):
        ScenarioConfig(K=11)
    with pytest.raises(ValueError, match="unknown mixing preset 'nope'"):
        ScenarioConfig(K=2, mixing="nope")
    # returned copies never alias the module table
    small[0, 0] = 0.42
    assert ScenarioConfig().resolved_mixing()[0, 0] == 0.5


def test_each_table_is_one_setting_a_name_or_a_table():
    explicit = dict(K=0, n_classes=2, q=2, support_sizes=(1, 2),
                    prevalences=((0.8, 0.2), (0.2, 0.8)), mixing=((0.6, 0.4),))
    # an unknown name is refused beside an explicit table of the other kind
    with pytest.raises(ValueError, match="unknown prevalence preset 'bogus'"):
        ScenarioConfig(**{**explicit, "prevalences": "bogus"})
    with pytest.raises(ValueError, match="unknown mixing preset 'nope'"):
        ScenarioConfig(**{**explicit, "mixing": "nope"})
    # the separate preset settings are gone, so none can sit unread beside a table
    for name in ("prevalence_preset", "mixing_preset"):
        with pytest.raises(TypeError, match=name):
            ScenarioConfig(**explicit, **{name: "bogus"})
    # a name stays a string; a table is stored as a tuple of tuples
    cfg = ScenarioConfig(**{**explicit, "mixing": [np.array([0.6, 0.4])]})
    assert cfg.mixing == ((0.6, 0.4),) and cfg.prevalences == ((0.8, 0.2), (0.2, 0.8))
    assert ScenarioConfig(mixing="large_diff").mixing == "large_diff"


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n0=0)
    with pytest.raises(ValueError):
        ScenarioConfig(K=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(rho=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(h=-0.5)
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            ScenarioConfig(seed=seed)
    with pytest.raises(ValueError):
        ScenarioConfig(support_sizes=(1, 2))  # needs one per class
    with pytest.raises(ValueError):
        ScenarioConfig(p=4, support_sizes=(1, 2, 6))  # support exceeds p
    with pytest.raises(ValueError, match=re.escape(
            "support_sizes[2] must be an integer in [0, 4], got 5")):
        ScenarioConfig(p=4, support_sizes=(1, 2, 5))
    with pytest.raises(ValueError, match=re.escape(
            "n_sources of mixing preset 'small_diff' must be an integer in [0, 10], got 11")):
        ScenarioConfig(K=11)
    with pytest.raises(ValueError):
        ScenarioConfig(family="poisson")
    with pytest.raises(ValueError):
        ScenarioConfig(prevalences=((1.5, 0.5),) * 3, q=2)
    with pytest.raises(ValueError):
        ScenarioConfig(K=0, mixing=((0.5, 0.4, 0.2),))  # row sum != 1
    # real-valued fields refuse a boolean, a string and NaN
    for field, value, interval in (("h", np.nan, "[0, inf)"), ("h", True, "[0, inf)"),
                                   ("rho", np.nan, "[0, 1)"), ("coef_value", "0.5", "(-inf, inf)"),
                                   ("coef_value", np.inf, "(-inf, inf)"),
                                   ("dispersion", True, "(0, inf)")):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be a real number in {interval}, got {value!r}")):
            ScenarioConfig(**{field: value})
    with pytest.raises(ValueError, match=re.escape(
            "prevalences[0, 0] must be a real number in (0, 1), got nan")):
        ScenarioConfig(prevalences=((np.nan, 0.5),) * 3, q=2)
    with pytest.raises(ValueError, match=re.escape(
            "mixing[0, 0] must be a real number in (0, inf), got nan")):
        ScenarioConfig(K=0, mixing=((np.nan, 0.4, 0.2),))
    cfg = ScenarioConfig(K=0, n_classes=2, q=2,
                         prevalences=((0.8, 0.2), (0.2, 0.8)),
                         mixing=((0.6, 0.4),),
                         support_sizes=(1, 2))
    assert cfg.resolved_prevalences().shape == (2, 2)
    assert cfg.resolved_mixing().shape == (1, 2)


def test_scenario_presets():
    mini = scenario_preset("figure1-mini")
    assert (mini.n0, mini.n_k, mini.K, mini.p) == (500, 400, 5, 50)
    assert mini.h == 5.0
    assert (mini.prevalences, mini.mixing) == ("well_separated", "small_diff")
    full = scenario_preset("figure1-full")
    assert (full.n0, full.n_k, full.p) == (1500, 1000, 100)
    shift = scenario_preset("mixshift-mini")
    assert shift.h == 15.0
    assert shift.mixing == "large_diff"
    override = scenario_preset("figure1-mini", K=2, seed=7)
    assert override.K == 2 and override.seed == 7
    with pytest.raises(ValueError, match="unknown scenario preset"):
        scenario_preset("nope")
    # preset table mismatch is reported clearly, when the config is built
    with pytest.raises(ValueError, match="preset"):
        scenario_preset("figure1-mini", n_classes=2, support_sizes=(1, 2))


# ---------------------------------------------------------------------------
# Coefficient construction
# ---------------------------------------------------------------------------


def test_target_coefficients_pattern():
    cfg = scenario_preset("figure1-mini")
    B0 = target_coefficients(cfg)
    assert B0.shape == (50, 3)
    for c, s in enumerate((1, 2, 6)):
        assert np.all(B0[:s, c] == 0.5)
        assert np.all(B0[s:, c] == 0.0)


def test_make_coefficients_shift_structure():
    cfg = scenario_preset("figure1-mini", K=3)
    coefs = make_coefficients(cfg)
    assert len(coefs) == 4
    B0 = coefs[0].values
    assert np.array_equal(B0, target_coefficients(cfg))
    shift = cfg.h / cfg.p
    for k in range(1, 4):
        d = coefs[k].values - B0
        assert np.max(np.abs(np.abs(d) - shift)) < 1e-15
        # roughly half the signs are positive
        frac = np.mean(d > 0)
        assert 0.35 < frac < 0.65
    # h=0 collapses every study to the target coefficients
    flat = make_coefficients(scenario_preset("figure1-mini", K=3, h=0.0))
    for k in range(1, 4):
        assert np.array_equal(flat[k].values, B0)


def test_source_sign_matrices_differ():
    cfg = scenario_preset("figure1-mini", K=2)
    coefs = make_coefficients(cfg)
    assert not np.array_equal(coefs[1].values, coefs[2].values)


# ---------------------------------------------------------------------------
# Generation: determinism and source-count stability
# ---------------------------------------------------------------------------


def test_generation_deterministic_bitwise():
    cfg = scenario_preset("figure1-mini", n0=80, n_k=60, K=2, p=10, seed=5)
    d1, t1 = generate_scenario(cfg)
    d2, t2 = generate_scenario(cfg)
    for s1, s2 in zip(d1.studies, d2.studies):
        assert np.array_equal(s1.outcomes, s2.outcomes)
        assert np.array_equal(s1.predictors, s2.predictors)
        assert np.array_equal(s1.structure_vars, s2.structure_vars)
    for c1, c2 in zip(t1["classes"], t2["classes"]):
        assert np.array_equal(c1, c2)
    d3, _ = generate_scenario(scenario_preset("figure1-mini", n0=80, n_k=60, K=2, p=10, seed=6))
    assert not np.array_equal(d3.target.outcomes, d1.target.outcomes)


def test_adding_sources_never_changes_existing_studies():
    base = dict(n0=80, n_k=60, p=10, seed=5)
    d2, _ = generate_scenario(scenario_preset("figure1-mini", K=2, **base))
    d5, _ = generate_scenario(scenario_preset("figure1-mini", K=5, **base))
    assert np.array_equal(d2.target.outcomes, d5.target.outcomes)
    assert np.array_equal(d2.target.predictors, d5.target.predictors)
    assert np.array_equal(d2.target.structure_vars, d5.target.structure_vars)
    for k in range(2):
        assert np.array_equal(d2.sources[k].outcomes, d5.sources[k].outcomes)
        assert np.array_equal(d2.sources[k].predictors, d5.sources[k].predictors)


def test_target_test_stream_independent_of_k():
    base = dict(n0=80, n_k=60, p=10, seed=5)
    t2, c2 = generate_target_test(scenario_preset("figure1-mini", K=2, **base), 50)
    t5, c5 = generate_target_test(scenario_preset("figure1-mini", K=5, **base), 50)
    assert np.array_equal(t2.outcomes, t5.outcomes)
    assert np.array_equal(t2.predictors, t5.predictors)
    assert np.array_equal(c2, c5)
    # and the test draw differs from the training target
    d2, _ = generate_scenario(scenario_preset("figure1-mini", K=2, **base))
    assert not np.array_equal(t2.predictors[:50], d2.target.predictors[:50])


# ---------------------------------------------------------------------------
# Generation: distributional checks at large n
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_draw():
    cfg = scenario_preset("figure1-mini", n0=40000, n_k=100, K=1, p=10, seed=11)
    data, truth = generate_scenario(cfg)
    return cfg, data, truth


def test_class_frequencies_match_mixing(big_draw):
    cfg, data, truth = big_draw
    classes = truth["classes"][0]
    freq = np.bincount(classes, minlength=3) / classes.size
    assert np.max(np.abs(freq - np.array([0.5, 0.3, 0.2]))) < 0.01


def test_structure_vars_match_prevalences(big_draw):
    cfg, data, truth = big_draw
    classes = truth["classes"][0]
    prev = truth["prevalences"]
    Z = data.target.structure_vars
    for c in range(3):
        rows = classes == c
        assert np.max(np.abs(Z[rows].mean(axis=0) - prev[c])) < 0.02


def test_covariates_have_ar_correlation(big_draw):
    cfg, data, truth = big_draw
    X = data.target.predictors
    corr = np.corrcoef(X, rowvar=False)
    idx = np.arange(cfg.p)
    expected = cfg.rho ** np.abs(idx[:, None] - idx[None, :])
    assert np.max(np.abs(corr - expected)) < 0.03
    assert np.max(np.abs(X.mean(axis=0))) < 0.03
    assert np.max(np.abs(X.std(axis=0) - 1)) < 0.03


def test_outcomes_follow_class_glm(big_draw):
    cfg, data, truth = big_draw
    classes = truth["classes"][0]
    B0 = truth["coefficients"][0].values
    X, y = data.target.predictors, data.target.outcomes
    eta = np.einsum("np,pn->n", X, B0[:, classes])
    p_hat = 1 / (1 + np.exp(-eta))
    # calibration within deciles of predicted risk
    order = np.argsort(eta)
    for chunk in np.array_split(order, 10):
        assert abs(y[chunk].mean() - p_hat[chunk].mean()) < 0.03


def test_gaussian_outcomes_and_dispersion():
    cfg = scenario_preset(
        "figure1-mini", n0=30000, n_k=50, K=1, p=8, seed=3,
        family="gaussian", dispersion=2.25,
    )
    data, truth = generate_scenario(cfg)
    classes = truth["classes"][0]
    B0 = truth["coefficients"][0].values
    eta = np.einsum("np,pn->n", data.target.predictors, B0[:, classes])
    resid = data.target.outcomes - eta
    assert abs(resid.mean()) < 0.03
    assert abs(resid.var() - 2.25) < 0.06


def test_zero_coef_value_detaches_outcome_from_class():
    cfg = scenario_preset(
        "figure1-mini", n0=20000, n_k=50, K=1, p=8, seed=4, coef_value=0.0
    )
    data, truth = generate_scenario(cfg)
    classes = truth["classes"][0]
    y = data.target.outcomes
    rates = [y[classes == c].mean() for c in range(3)]
    assert np.max(np.abs(np.asarray(rates) - 0.5)) < 0.03


# ---------------------------------------------------------------------------
# On-disk round trip
# ---------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    cfg = scenario_preset("figure1-mini", n0=60, n_k=40, K=2, p=6, seed=9)
    data, truth = generate_scenario(cfg)
    manifest = write_dataset(data, truth, tmp_path / "ds")
    back = load_collection(manifest)
    for s1, s2 in zip(data.studies, back.studies):
        assert np.array_equal(s1.outcomes, s2.outcomes)
        assert np.array_equal(s1.predictors, s2.predictors)
        assert np.array_equal(s1.structure_vars, s2.structure_vars)
        assert s1.study_id == s2.study_id
    # truth.json is plain JSON: it parses to truth_to_dict's payload
    written = json.loads((tmp_path / "ds" / "truth.json").read_text())
    assert written == json.loads(json.dumps(truth_to_dict(truth)))
    with pytest.raises(FileExistsError):
        write_dataset(data, truth, tmp_path / "ds")
    write_dataset(data, truth, tmp_path / "ds", force=True)  # no error


def _refuse_constant(name):
    raise ValueError(f"truth.json holds {name}, which is not plain JSON")


@pytest.mark.parametrize("field", ["prevalences", "mixing", "coefficients", "classes", "config"])
def test_truth_json_holds_each_field_as_documented(tmp_path, field):
    """truth.json is plain JSON (no NaN or Infinity) with exactly the five
    documented fields: the C x q prevalences, the (K+1) x C mixing, one
    p x C coefficient matrix and one label list per study, and the config."""
    cfg = scenario_preset("figure1-mini", n0=30, n_k=20, K=2, p=6, seed=2)
    data, truth = generate_scenario(cfg)
    write_dataset(data, truth, tmp_path / "ds")
    written = json.loads((tmp_path / "ds" / "truth.json").read_text(),
                         parse_constant=_refuse_constant)
    assert sorted(written) == ["classes", "coefficients", "config", "mixing", "prevalences"]
    value = written[field]
    C, K = cfg.n_classes, cfg.K
    if field == "prevalences":
        assert np.array(value).shape == (C, cfg.q)
        assert np.array_equal(np.array(value), truth["prevalences"])
    elif field == "mixing":
        assert np.array(value).shape == (K + 1, C)
        assert np.array_equal(np.array(value), truth["mixing"])
    elif field == "coefficients":
        assert len(value) == K + 1
        for matrix, coef in zip(value, truth["coefficients"]):
            assert np.array(matrix).shape == (cfg.p, C)
            assert np.array_equal(np.array(matrix), coef.values)
    elif field == "classes":
        assert [len(labels) for labels in value] == list(data.sizes)
        for labels, drawn in zip(value, truth["classes"]):
            assert all(type(label) is int and 0 <= label < C for label in labels)
            assert labels == np.asarray(drawn).tolist()
    else:
        assert ScenarioConfig(**value) == cfg


