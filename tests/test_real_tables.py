"""Every container and file loader refuses a bad real entry through
core.check_real: a NaN, a value outside the field's interval, a boolean and
a numeric string, each a ValueError naming the field and the entry by its
index.  Every 0/1 input (structure variables, logistic outcomes, patterns
and AUC labels) is the set {0, 1} of the same rule.  Nothing is converted
on the way in, so `"0.5"`, `"1"` and `true` never read as numbers."""

import copy
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from targeted_psm.core import CoefficientMatrix, GlmFamily, Study, check_real
from targeted_psm.evaluate import auc
from targeted_psm.lca import LcaModel, lca_model_from_dict, membership_for_pattern
from targeted_psm.simulate import ScenarioConfig
from targeted_psm.transfer import _coef_from_dict, predict_risk, transfer_fit_from_dict

COEF = {"values": [[0.5], [0.25]], "intercept": [0.0]}
LCA = {"prevalences": [[0.5, 0.25]], "mixing": [[1.0]], "trace": [-3.0, -2.5], "converged": True}
FIT = {"kind": "transfer_fit", "family": "logistic", "b_pooled": COEF, "delta": COEF,
       "lambda_pool": [0.1], "lambda_bias": [0.1], "trace_joint": [0.75, 0.5],
       "trace_bias": [0.5], "lca_model": LCA}
TABLES = {"prevalences": [[0.2, 0.8], [0.6, 0.4]], "mixing": [[0.5, 0.5]]}
SCENARIO = dict(n0=3, n_k=3, K=0, p=2, q=2, n_classes=2, support_sizes=(1, 1), **TABLES)
TRANSFER_FIT = transfer_fit_from_dict(FIT)


def _study(**fields):
    return Study(**{"outcomes": [0.0, 1.0, 0.0], "predictors": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                    "structure_vars": [[0.0], [1.0], [1.0]], "study_id": 0, **fields})


def _at(payload, path, value):
    """A deep copy of the JSON-like `payload` with the entry at `path` set."""
    out = copy.deepcopy(payload)
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


def _array(table):
    return np.array(table, dtype=object)


# (id, field, interval, out-of-interval value, payload, path to the entry,
#  length of the path that leads to the field, call on the changed payload)
CASES = [
    ("Study.outcomes", "outcomes", "(-inf, inf)", math.inf, [0.0, 1.0, 0.0], [1], 0,
     lambda t: _study(outcomes=_array(t))),
    ("Study.predictors", "predictors", "(-inf, inf)", -math.inf,
     [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], [2, 1], 0, lambda t: _study(predictors=_array(t))),
    ("Study.structure_vars", "structure_vars", "{0, 1}", 2.0, [[0.0], [1.0], [1.0]], [1, 0], 0,
     lambda t: _study(structure_vars=_array(t))),
    ("CoefficientMatrix.values", "values", "(-inf, inf)", math.inf, [[0.5, 0.0], [0.0, 0.5]],
     [1, 0], 0, lambda t: CoefficientMatrix(values=_array(t))),
    ("CoefficientMatrix.intercept", "intercept", "(-inf, inf)", -math.inf, [0.0, 1.0], [1], 0,
     lambda t: CoefficientMatrix(values=np.zeros((1, 2)), intercept=_array(t))),
    ("LcaModel.prevalences", "prevalences", "(0, 1)", 1.0, [[0.2, 0.8], [0.6, 0.4]], [1, 1], 0,
     lambda t: LcaModel(_array(t), np.array([[0.5, 0.5]]))),
    ("LcaModel.mixing", "mixing", "(0, inf)", 0.0, [[0.5, 0.5]], [0, 1], 0,
     lambda t: LcaModel(np.array([[0.2], [0.6]]), _array(t))),
    ("LcaModel.trace", "trace", "(-inf, inf)", math.inf, [-3.0, -2.5], [1], 0,
     lambda t: LcaModel(np.array([[0.5]]), np.array([[1.0]]), _array(t))),
    ("TransferFit.trace_joint", "trace_joint", "(-inf, inf)", math.inf, [0.75, 0.5], [0], 0,
     lambda t: replace(TRANSFER_FIT, trace_joint=_array(t))),
    ("TransferFit.trace_bias", "trace_bias", "(-inf, inf)", -math.inf, [0.5], [0], 0,
     lambda t: replace(TRANSFER_FIT, trace_bias=_array(t))),
    ("_coef_from_dict.values", "values", "(-inf, inf)", math.inf, COEF, ["values", 1, 0], 1,
     _coef_from_dict),
    ("_coef_from_dict.intercept", "intercept", "(-inf, inf)", math.inf, COEF,
     ["intercept", 0], 1, _coef_from_dict),
    ("lca_model_from_dict.prevalences", "prevalences", "(0, 1)", 0.0, LCA,
     ["prevalences", 0, 1], 1, lca_model_from_dict),
    ("lca_model_from_dict.mixing", "mixing", "(0, inf)", -1.0, LCA, ["mixing", 0, 0], 1,
     lca_model_from_dict),
    ("lca_model_from_dict.trace", "trace", "(-inf, inf)", math.inf, LCA, ["trace", 1], 1,
     lca_model_from_dict),
    ("transfer_fit_from_dict.b_pooled", "values", "(-inf, inf)", math.inf, FIT,
     ["b_pooled", "values", 1, 0], 2, transfer_fit_from_dict),
    ("transfer_fit_from_dict.delta", "intercept", "(-inf, inf)", -math.inf, FIT,
     ["delta", "intercept", 0], 2, transfer_fit_from_dict),
    ("transfer_fit_from_dict.lca_model", "prevalences", "(0, 1)", 1.0, FIT,
     ["lca_model", "prevalences", 0, 0], 2, transfer_fit_from_dict),
    ("transfer_fit_from_dict.trace_joint", "trace_joint", "(-inf, inf)", math.inf, FIT,
     ["trace_joint", 1], 1, transfer_fit_from_dict),
    ("transfer_fit_from_dict.trace_bias", "trace_bias", "(-inf, inf)", math.inf, FIT,
     ["trace_bias", 0], 1, transfer_fit_from_dict),
    ("ScenarioConfig.prevalences", "prevalences", "(0, 1)", 1.0, SCENARIO,
     ["prevalences", 0, 1], 1, lambda t: ScenarioConfig(**t)),
    ("ScenarioConfig.mixing", "mixing", "(0, inf)", -0.5, SCENARIO, ["mixing", 0, 0], 1,
     lambda t: ScenarioConfig(**t)),
]

BAD = ["nan", "out-of-interval", "true", "string"]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_a_bad_real_entry_is_refused_naming_its_field_and_entry(case, bad):
    _, field, interval, out, payload, path, lead, call = case
    value = {"nan": math.nan, "out-of-interval": out, "true": True, "string": "0.5"}[bad]
    call(payload)  # the unchanged payload is accepted
    changed = _at(payload, path, value)
    index = ", ".join(map(str, path[lead:]))
    message = f"{field}[{index}] must be a real number in {interval}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(changed)


# (id, name in the message, payload, path to the entry, call on the changed
#  payload) of every input whose entries must be 0 or 1
BINARY_CASES = [
    ("Study.structure_vars", "structure_vars", [[0.0], [1.0], [1.0]], [1, 0],
     lambda t: _study(structure_vars=t)),
    ("logistic validate_outcomes", "outcomes", [0.0, 1.0, 0.0], [1],
     GlmFamily.logistic().validate_outcomes),
    ("membership_for_pattern", "z", [[1.0, 0.0], [0.0, 1.0]], [1, 0],
     lambda t: membership_for_pattern(TRANSFER_FIT.lca_model, t)),
    ("predict_risk.z_new", "z", [[1.0, 0.0], [0.0, 1.0]], [0, 1],
     lambda t: predict_risk(TRANSFER_FIT, [[0.5, 0.25], [0.25, 0.5]], t)),
    ("auc.labels", "labels", [0, 1, 0], [2], lambda t: auc([0.1, 0.9, 0.4], t)),
]


@pytest.mark.parametrize("bad", ["1", True, 0.5, math.nan], ids=["string", "true", "half", "nan"])
@pytest.mark.parametrize("case", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_a_bad_binary_entry_is_refused_naming_it(case, bad):
    _, name, payload, path, call = case
    call(payload)  # the unchanged payload is accepted
    index = ", ".join(map(str, path))
    with pytest.raises(ValueError, match=re.escape(
            f"{name}[{index}] must be a real number in {{0, 1}}, got {bad!r}")):
        call(_at(payload, path, bad))


@pytest.mark.parametrize("converged", ["false", 0, 1.0, None])
def test_a_model_file_converged_flag_must_be_a_bool(converged):
    with pytest.raises(ValueError, match=re.escape(
            f"converged must be a bool, got {converged!r}")):
        lca_model_from_dict({**LCA, "converged": converged})
    assert lca_model_from_dict({**LCA, "converged": False}).converged is False
    model = LcaModel(np.array([[0.5]]), np.array([[1.0]]), converged=np.bool_(False))
    assert not model.converged


def test_loaders_keep_the_values_they_read():
    fit = transfer_fit_from_dict(FIT)
    assert fit.b_pooled.values.tolist() == COEF["values"]
    assert fit.lca_model.trace == (-3.0, -2.5)
    assert fit.trace_joint == (0.75, 0.5)
    config = ScenarioConfig(**SCENARIO)
    assert config.mixing == ((0.5, 0.5),)
    assert config.resolved_mixing().tolist() == [[0.5, 0.5]]


def test_check_real_messages():
    cases = [
        (np.array([[0.5, np.nan]]), "(0, 1)", "x[0, 1] must be a real number in (0, 1), got nan"),
        (np.array([True]), "[0, 1]", "x[0] must be a real number in [0, 1], got True"),
        (np.array(["0.5"]), "[0, 1]", "x[0] must be a real number in [0, 1], got '0.5'"),
        (np.array([-1, 2]), "[0, inf)", "x[0] must be a real number in [0, inf), got -1"),
        ([[0.5], [None]], "(0, 1)", "x[1, 0] must be a real number in (0, 1), got None"),
        ((np.ones(2), np.array([0.5, 1.5])), "[0, 1]",
         "x[1, 1] must be a real number in [0, 1], got 1.5"),
        ([0.5, "0.5"], "[0, 1]", "x[1] must be a real number in [0, 1], got '0.5'"),
        (np.nan, "[-inf, inf]", "x must be a real number in [-inf, inf], got nan"),
    ]
    for value, interval, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_real("x", value, interval)
    for value, interval in ((np.array([]), "(0, 1)"), ([], "(0, 1)"), (np.array([-np.inf]), "[-inf, 0]"),
                            ([[1, 2.5], [np.float64(3), np.int32(4)]], "(-inf, inf)")):
        check_real("x", value, interval)
