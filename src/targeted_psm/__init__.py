"""Targeted transfer learning across studies via probabilistic
subpopulation matching.

Two-step procedure: (1) a latent class model fitted jointly across the
target and source studies yields per-subject subpopulation membership
probabilities; (2) membership-weighted, l1-penalized GLM estimation pools
all studies and then corrects the pooled coefficients on the target study
alone.  The comparator methods are presets of the same pipeline; a
synthetic-scenario generator, an evaluation harness and a CLI round out the
package.

The names below are the documented entry points; everything else is
importable from its submodule.
"""

from .core import GlmFamily, Study, StudyCollection, load_collection
from .lca import LcaFitConfig, LcaModel, fit_lca, select_classes_bic
from .transfer import (
    TransferConfig,
    TransferFit,
    fit_targeted_psm,
    load_transfer_fit,
    predict_risk,
    save_transfer_fit,
)
from .baselines import FittedMethod, MethodId, fit_method
from .simulate import (
    ScenarioConfig,
    generate_scenario,
    generate_target_test,
    scenario_preset,
    write_dataset,
)
from .evaluate import run_experiment

__version__ = "0.1.0"

__all__ = [
    "FittedMethod",
    "GlmFamily",
    "LcaFitConfig",
    "LcaModel",
    "MethodId",
    "ScenarioConfig",
    "Study",
    "StudyCollection",
    "TransferConfig",
    "TransferFit",
    "fit_lca",
    "fit_method",
    "fit_targeted_psm",
    "generate_scenario",
    "generate_target_test",
    "load_collection",
    "load_transfer_fit",
    "predict_risk",
    "run_experiment",
    "save_transfer_fit",
    "scenario_preset",
    "select_classes_bic",
    "write_dataset",
    "__version__",
]
