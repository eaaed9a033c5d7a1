"""Synthetic multi-study generator with latent subpopulations.

Per study k: subject classes are drawn from the study's mixing row, binary
structure variables from the class-specific Bernoulli prevalences, covariates
from N(0, Sigma) with AR(rho) correlation (Sigma_ij = rho^|i-j|), and
outcomes from the GLM with linear predictor x' beta_{k, class} (no intercept
in generation).

Coefficients: the target's class-c vector puts `coef_value` on the first
s_c coordinates; each source k perturbs it to B_k = B_0 + (h/p) * S_k with
an i.i.d. +/-1 sign matrix S_k.  Sign matrices, like every other draw, come
from per-study named substreams of the scenario seed, so adding sources
never reshuffles the target study's data.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .core import (
    CoefficientMatrix,
    GlmFamily,
    Study,
    StudyCollection,
    check_count,
    check_real,
    write_manifest,
)
from .lca import LcaModel

# Class-conditional prevalence presets (rows = classes, cols = variables).
PREVALENCE_PRESETS = {
    "well_separated": np.array(
        [
            [0.1, 0.5, 0.9, 0.1, 0.5],
            [0.9, 0.1, 0.5, 0.9, 0.1],
            [0.5, 0.9, 0.1, 0.5, 0.9],
        ]
    ),
    "less_separated": np.array(
        [
            [0.3, 0.5, 0.7, 0.3, 0.5],
            [0.7, 0.3, 0.5, 0.7, 0.3],
            [0.5, 0.7, 0.3, 0.5, 0.7],
        ]
    ),
}

# Study mixing presets: row 0 is the target, rows 1..10 the available sites.
MIXING_PRESETS = {
    "small_diff": np.array(
        [
            [0.50, 0.30, 0.20],
            [0.45, 0.35, 0.20],
            [0.55, 0.25, 0.20],
            [0.45, 0.20, 0.35],
            [0.55, 0.20, 0.25],
            [0.50, 0.20, 0.30],
            [0.45, 0.35, 0.20],
            [0.55, 0.25, 0.20],
            [0.45, 0.20, 0.35],
            [0.55, 0.20, 0.25],
            [0.50, 0.20, 0.30],
        ]
    ),
    "large_diff": np.array(
        [
            [0.80, 0.10, 0.10],
            [0.10, 0.10, 0.80],
            [0.11, 0.09, 0.80],
            [0.09, 0.11, 0.80],
            [0.10, 0.11, 0.79],
            [0.11, 0.10, 0.79],
            [0.12, 0.10, 0.78],
            [0.10, 0.12, 0.78],
            [0.09, 0.10, 0.81],
            [0.10, 0.09, 0.81],
            [0.09, 0.09, 0.82],
        ]
    ),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic multi-study scenario.  Counts and
    seed must be integers, h, rho and coef_value real numbers in range and
    the tables inside LcaModel's bounds, or the config is a ValueError.
    `prevalences` names a PREVALENCE_PRESETS table or is a (C, q) one;
    `mixing` names a MIXING_PRESETS table (its first K+1 rows) or is a
    (K+1, C) one."""

    n0: int = 1500
    n_k: int = 1000
    K: int = 5
    p: int = 100
    q: int = 5
    n_classes: int = 3
    prevalences: str | tuple = "well_separated"
    mixing: str | tuple = "small_diff"
    h: float = 5.0
    support_sizes: tuple = (1, 2, 6)
    coef_value: float = 0.5
    rho: float = 0.5
    family: str = "logistic"
    dispersion: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n0", "n_k", "p", "q", "n_classes"):
            check_count(name, getattr(self, name), 1)
        check_count("K", self.K, 0)
        check_real("rho", self.rho, "[0, 1)")
        check_real("h", self.h, "[0, inf)")
        check_real("coef_value", self.coef_value, "(-inf, inf)")
        check_count("seed", self.seed, 0)
        if len(self.support_sizes) != self.n_classes:
            raise ValueError("need one support size per class")
        for c, s in enumerate(self.support_sizes):
            check_count(f"support_sizes[{c}]", s, 0, self.p)
        GlmFamily(self.family, self.dispersion)  # validates family & dispersion
        object.__setattr__(self, "support_sizes", tuple(int(s) for s in self.support_sizes))
        # A preset or table that does not fit (C, q, K) or LcaModel's bounds
        # is a config error here, not a failure once the scenario is generated.
        # An explicit table is checked as given, then kept as the model's
        # rows; a preset name stays a string.
        explicit = [name for name in ("prevalences", "mixing")
                    if not isinstance(getattr(self, name), str)]
        prevalences = self.prevalences if "prevalences" in explicit else self.resolved_prevalences()
        mixing = self.mixing if "mixing" in explicit else self.resolved_mixing()
        if np.shape(prevalences) != (self.n_classes, self.q):
            raise ValueError("explicit prevalences must be (C, q)")
        if np.shape(mixing) != (self.K + 1, self.n_classes):
            raise ValueError("explicit mixing must be (K+1, C)")
        model = LcaModel(prevalences, mixing)
        for name in explicit:
            object.__setattr__(self, name, tuple(map(tuple, getattr(model, name).tolist())))

    def resolved_prevalences(self) -> np.ndarray:
        """The (C, q) class-conditional structure-variable prevalences: the
        explicit table, or a copy of the preset it names."""
        kind = self.prevalences
        if not isinstance(kind, str):
            return np.asarray(kind, dtype=float)
        if kind not in PREVALENCE_PRESETS:
            raise ValueError(f"unknown prevalence preset {kind!r}")
        table = PREVALENCE_PRESETS[kind].copy()
        if table.shape != (self.n_classes, self.q):
            raise ValueError(
                f"preset {kind!r} is {table.shape}, but the scenario asks for "
                f"C={self.n_classes}, q={self.q}; supply explicit prevalences instead"
            )
        return table

    def resolved_mixing(self) -> np.ndarray:
        """The (K+1, C) study mixing rows: the explicit table, or a copy of
        the target row and the first K site rows of the preset it names."""
        kind = self.mixing
        if not isinstance(kind, str):
            return np.asarray(kind, dtype=float)
        if kind not in MIXING_PRESETS:
            raise ValueError(f"unknown mixing preset {kind!r}")
        table = MIXING_PRESETS[kind]
        check_count(f"n_sources of mixing preset {kind!r}", self.K, 0, table.shape[0] - 1)
        if table.shape[1] != self.n_classes:
            raise ValueError(
                f"preset {kind!r} has {table.shape[1]} classes, "
                f"but the scenario asks for C={self.n_classes}"
            )
        return table[: self.K + 1].copy()

    def glm_family(self) -> GlmFamily:
        return GlmFamily(self.family, self.dispersion)


# ---------------------------------------------------------------------------
# Scenario presets (desk-scale and article-scale)
# ---------------------------------------------------------------------------


def scenario_preset(name: str, **overrides) -> ScenarioConfig:
    """Named scenario presets.

    figure1-mini    desk-scale transfer benchmark: n0=500, n_k=400, p=50,
                    well-separated classes, small mixing differences, h=5
    figure1-full    article-scale version: n0=1500, n_k=1000, p=100
    mixshift-mini   desk-scale stress case: target mixing far from every
                    source (large_diff) and large source shifts (h=15)
    """
    mini = dict(n0=500, n_k=400, K=5, p=50, prevalences="well_separated")
    presets = {
        "figure1-mini": dict(mini, mixing="small_diff", h=5.0),
        "figure1-full": dict(mini, n0=1500, n_k=1000, p=100, mixing="small_diff", h=5.0),
        "mixshift-mini": dict(mini, mixing="large_diff", h=15.0),
    }
    if name not in presets:
        raise ValueError(f"unknown scenario preset {name!r}; know {sorted(presets)}")
    return ScenarioConfig(**{**presets[name], **overrides})


# ---------------------------------------------------------------------------
# Coefficient construction and study generation
# ---------------------------------------------------------------------------


def target_coefficients(config: ScenarioConfig) -> np.ndarray:
    """Deterministic target coefficient matrix: coef_value on the first
    s_c coordinates of class c, zero elsewhere."""
    B0 = np.zeros((config.p, config.n_classes))
    for c, s_c in enumerate(config.support_sizes):
        B0[:s_c, c] = config.coef_value
    return B0


def make_coefficients(config: ScenarioConfig) -> list:
    """Per-study coefficient matrices [B_0, B_1, ..., B_K].

    B_0 is the deterministic target pattern; source k adds (h/p) * S_k with
    S_k an i.i.d. +/-1 matrix from study k's own 'signs' substream.
    """
    B0 = target_coefficients(config)
    out = [CoefficientMatrix(values=B0)]
    shift = config.h / config.p
    for k in range(1, config.K + 1):
        rng = substream(config.seed, "study", k, "signs")
        signs = rng.integers(0, 2, size=B0.shape) * 2.0 - 1.0
        out.append(CoefficientMatrix(values=B0 + shift * signs))
    return out


def _ar_cholesky(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    sigma = rho ** np.abs(idx[:, None] - idx[None, :])
    return np.linalg.cholesky(sigma)


def _draw_study(
    n: int,
    mixing_row: np.ndarray,
    prevalences: np.ndarray,
    coef_values: np.ndarray,
    chol: np.ndarray,
    family: GlmFamily,
    streams: dict,
    study_id: int,
):
    C = mixing_row.shape[0]
    classes = streams["class"].choice(C, size=n, p=mixing_row)
    z = (streams["structure"].random((n, prevalences.shape[1])) < prevalences[classes]).astype(float)
    x = streams["covariates"].standard_normal((n, chol.shape[0])) @ chol.T
    eta = np.einsum("np,pn->n", x, coef_values[:, classes])
    if family.kind == "logistic":
        y = (streams["outcomes"].random(n) < family.mean(eta)).astype(float)
    else:
        y = eta + np.sqrt(family.dispersion) * streams["outcomes"].standard_normal(n)
    return Study(outcomes=y, predictors=x, structure_vars=z, study_id=study_id), classes


def _study_streams(seed: int, *scope) -> dict:
    return {
        name: substream(seed, *scope, name)
        for name in ("class", "structure", "covariates", "outcomes")
    }


def generate_scenario(config: ScenarioConfig):
    """Draw the full study collection.  Returns (collection, truth) where
    truth records prevalences, mixing, per-study coefficients and the true
    class labels."""
    prevalences = config.resolved_prevalences()
    mixing = config.resolved_mixing()
    coefs = make_coefficients(config)
    family = config.glm_family()
    chol = _ar_cholesky(config.p, config.rho)

    studies, classes = [], []
    for k in range(config.K + 1):
        n = config.n0 if k == 0 else config.n_k
        study, cls = _draw_study(
            n, mixing[k], prevalences, coefs[k].values, chol, family,
            _study_streams(config.seed, "study", k), study_id=k,
        )
        studies.append(study)
        classes.append(cls)

    collection = StudyCollection(target=studies[0], sources=tuple(studies[1:]))
    truth = {
        "prevalences": prevalences,
        "mixing": mixing,
        "coefficients": coefs,
        "classes": classes,
        "config": config,
    }
    return collection, truth


def generate_target_test(config: ScenarioConfig, n_test: int):
    """Fresh draw of `n_test` subjects from the *target* population (target
    mixing row and target coefficients) on a dedicated 'test' substream.
    Returns (study, classes)."""
    prevalences = config.resolved_prevalences()
    mixing = config.resolved_mixing()
    chol = _ar_cholesky(config.p, config.rho)
    return _draw_study(
        n_test, mixing[0], prevalences, target_coefficients(config), chol,
        config.glm_family(), _study_streams(config.seed, "test"), study_id=0,
    )


# ---------------------------------------------------------------------------
# On-disk format: CSVs + manifest (core) + truth sidecar
# ---------------------------------------------------------------------------


def truth_to_dict(truth: dict) -> dict:
    return {
        "prevalences": np.asarray(truth["prevalences"]).tolist(),
        "mixing": np.asarray(truth["mixing"]).tolist(),
        "coefficients": [c.values.tolist() for c in truth["coefficients"]],
        "classes": [np.asarray(c).astype(int).tolist() for c in truth["classes"]],
        "config": asdict(truth["config"]),
    }


def write_dataset(collection: StudyCollection, truth: dict, directory, force: bool = False) -> Path:
    """Write study CSVs, manifest.json and truth.json; returns the manifest
    path.  Refuses to overwrite without force.

    truth.json is plain JSON (truth_to_dict) holding the scenario's
    `prevalences`, `mixing`, `coefficients` (one p x C matrix per study),
    `classes` (one label list per study) and `config`.  It is written for
    the user; the package never reads it back."""
    directory = Path(directory)
    truth_path = directory / "truth.json"
    if truth_path.exists() and not force:
        raise FileExistsError(f"{truth_path} exists; pass force=True to overwrite")
    manifest = write_manifest(collection, directory, force=force)
    truth_path.write_text(json.dumps(truth_to_dict(truth), indent=2) + "\n")
    return manifest
