"""The benchmark's three workloads.

Each workload runs one kind of operation over a pool of pinned instances.
An instance is fixed by its seed, so every operation's output can be
checked against the reference recorded in `reference.json`, and the quality
metrics, taken over one pass of the pool, do not depend on the run seed.
The run seed picks the order in which the pool is visited and draws the
inputs that do not change the amount of work (the predict input of
`full-gaussian-cli`).

A workload provides
    setup(seed, workdir)    build inputs and fixture files
    run(instance)           one operation; returns its output
    finish(instance, out)   read back what the operation wrote (untimed)
    check(instance, out, reference) -> list of problems (empty when correct)
    record(instance, out)   the reference entry for an instance
    digest(out)             hash of every output array, for bit-identity
    quality(instances, outs) -> {"coef_mse", "auc", "prev_mae"} (None if n/a)
    close()                 undo what setup changed
    expected_calls          per-operation span counts the traced run must see

Operations call the package through its modules (`evaluate.run_replicate`),
never through names imported here, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

from targeted_psm import cli, evaluate, lca
from targeted_psm.core import write_study_csv
from targeted_psm.evaluate import coef_mse
from targeted_psm.lca import LcaFitConfig
from targeted_psm.simulate import generate_scenario, generate_target_test, scenario_preset, target_coefficients
from targeted_psm.transfer import TransferConfig, load_transfer_fit, predict_risk

# Reference tolerances.  Penalties chosen from the CV grid must match
# exactly.  Coefficients may drift: nudging the class model by 4 ulp, as a
# reordered reduction does, moved them by at most 1.1e-15 on two
# mini-replicate instances, and a solver run to 1000x tighter tolerances
# moved them by at most 8e-9; the bound sits far above both.  The latent
# class loop stops on a relative log-likelihood change of 1e-7, so a drift
# that shifts its stopping iteration by one moves the log-likelihood by up
# to that much.
COEF_ATOL = 1e-4
LCA_ATOL = 1e-4
LOGLIK_RTOL = 1e-6
# EM monotonicity tolerance of acceptance criterion 02.
MONOTONE_TOL = 1e-8
ROW_SUM_TOL = 1e-12

METHODS = ("targeted_psm", "targeted_psm_1", "lca_glm", "naive_lasso")
ACC_GRID = tuple(np.logspace(np.log10(0.01), np.log10(10.0), 6))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _prev_mae(estimate, truth) -> float:
    """Mean absolute prevalence error under the best class relabelling."""
    C = truth.shape[0]
    return min(float(np.abs(estimate[list(p)] - truth).mean())
               for p in itertools.permutations(range(C)))


def _coef_state(coef) -> list:
    return np.concatenate([coef.values.ravel(), coef.intercept.ravel()]).tolist()


def _fit_problems(tag, fit) -> list:
    """Invariants every transfer fit must meet."""
    out = []
    for stage, trace in (("pooling", fit.trace_joint), ("correction", fit.trace_bias)):
        if np.any(np.diff(np.asarray(trace)) > MONOTONE_TOL):
            out.append(f"{tag}: {stage} EM objective rose")
    if not (np.array_equal(fit.b_target.values, fit.b_pooled.values + fit.delta.values)
            and np.array_equal(fit.b_target.intercept, fit.b_pooled.intercept + fit.delta.intercept)):
        out.append(f"{tag}: b_target != b_pooled + delta")
    return out


def _reference_problems(tag, ref, lambda_pool, lambda_bias, state) -> list:
    out = []
    for name, got in (("lambda_pool", lambda_pool), ("lambda_bias", lambda_bias)):
        if name in ref and list(map(float, got)) != ref[name]:
            out.append(f"{tag}: {name} {list(map(float, got))} != reference {ref[name]}")
    gap = float(np.max(np.abs(np.asarray(state) - np.asarray(ref["coef"]))))
    if not gap <= COEF_ATOL:
        out.append(f"{tag}: coefficients differ from reference by {gap:.3e} > {COEF_ATOL}")
    return out


def _score_problems(tag, scores, logistic) -> list:
    if not np.all(np.isfinite(scores)):
        return [f"{tag}: non-finite predictions"]
    if logistic and (scores.min() < 0.0 or scores.max() > 1.0):
        return [f"{tag}: predictions outside [0, 1]"]
    return []


class Workload:
    def finish(self, inst, out):
        return out

    def close(self):
        pass


# ---------------------------------------------------------------------------
# mini-replicate: one acceptance replicate through the evaluation harness
# ---------------------------------------------------------------------------


class MiniReplicate(Workload):
    name = "mini-replicate"
    # per operation: shared pool tuning + lca_glm + naive_lasso, and the
    # correction-stage tuning of the full and one-pass procedures
    expected_calls = {
        "evaluate.run_replicate": 1,
        "transfer.auto_tune_lambda.pool": 3,
        "transfer.auto_tune_lambda.bias": 2,
        "lca.fit_lca": 2,
        "transfer.fit_targeted_psm": 3,
        **{"baselines.fit_method." + m: 1 for m in METHODS},
    }

    def __init__(self, smoke: bool):
        self.pool = (101, 102) if smoke else (1, 2, 3, 4)
        self.overrides = dict(K=2, n0=150, n_k=120, p=10) if smoke else dict(K=5)
        self.test_n = 100 if smoke else 500
        self.n_starts = 2 if smoke else 10
        self._inner = None
        self._fits = {}

    def setup(self, seed, workdir):
        # Capture the fitted methods inside run_replicate, which only returns
        # report rows; rebinding evaluate's name is all it takes.
        if self._inner is None:
            self._inner = inner = evaluate.fit_method

            def capture(method, *args, **kwargs):
                fitted = inner(method, *args, **kwargs)
                self._fits[fitted.method.value] = fitted
                return fitted

            evaluate.fit_method = capture

    def close(self):
        if self._inner is not None:
            evaluate.fit_method, self._inner = self._inner, None

    def scenario(self, inst):
        return scenario_preset("figure1-mini", seed=inst, **self.overrides)

    def run(self, inst):
        self._fits = {}
        rows = evaluate.run_replicate(
            "figure1-mini", self.scenario(inst), METHODS, 0, self.test_n,
            TransferConfig(cv_folds=3, cv_grid=ACC_GRID, seed=inst),
            LcaFitConfig(n_starts=self.n_starts, seed=inst),
        )
        return {"rows": rows, "fits": self._fits}

    def check(self, inst, out, reference):
        problems = [f"{r.method}: {r.error}" for r in out["rows"] if r.error is not None]
        if sorted(out["fits"]) != sorted(METHODS):
            return problems + [f"fitted methods {sorted(out['fits'])}"]
        test, _ = generate_target_test(self.scenario(inst), self.test_n)
        for m, fitted in out["fits"].items():
            if fitted.fit is not None:
                problems += _fit_problems(m, fitted.fit)
            scores = fitted.scores(test.predictors, test.structure_vars)
            problems += _score_problems(m, scores, logistic=True)
            if reference is not None:
                problems += _reference_problems(m, reference[m], *self._lambdas(fitted),
                                                _coef_state(fitted.coef))
        return problems

    @staticmethod
    def _lambdas(fitted):
        if fitted.fit is None:
            return (), ()
        return fitted.fit.lambda_pool, fitted.fit.lambda_bias

    def record(self, inst, out):
        ref = {}
        for m, fitted in out["fits"].items():
            lp, lb = self._lambdas(fitted)
            ref[m] = {"coef": _coef_state(fitted.coef)}
            if fitted.fit is not None:
                ref[m].update(lambda_pool=list(map(float, lp)), lambda_bias=list(map(float, lb)))
        return ref

    def digest(self, out):
        rows = [(r.mse or 0.0, r.auc or 0.0, *(r.permutation or ())) for r in out["rows"]]
        arrays = [np.asarray(v) for v in rows]
        for m in METHODS:
            fitted = out["fits"][m]
            arrays += [fitted.coef.values, fitted.coef.intercept, *self._lambdas(fitted)]
        return _digest(*arrays)

    def quality(self, insts, outs):
        psm = [next(r for r in o["rows"] if r.method == "targeted_psm") for o in outs]
        prev = [_prev_mae(o["fits"]["targeted_psm"].fit.lca_model.prevalences,
                          self.scenario(i).resolved_prevalences()) for i, o in zip(insts, outs)]
        return {"coef_mse": float(np.mean([r.mse for r in psm])),
                "auc": float(np.mean([r.auc for r in psm])),
                "prev_mae": float(np.mean(prev))}


# ---------------------------------------------------------------------------
# full-gaussian-cli: simulate -> fit -> predict through the command line
# ---------------------------------------------------------------------------


class FullGaussianCli(Workload):
    name = "full-gaussian-cli"
    LAMBDA = 0.02
    expected_calls = {
        "cli.simulate": 1, "cli.fit": 1, "cli.predict": 1,
        "transfer.auto_tune_lambda.pool": 0, "transfer.auto_tune_lambda.bias": 0,
        "lca.fit_lca": 1, "transfer.fit_targeted_psm": 1,
    }

    def __init__(self, smoke: bool):
        self.pool = (201, 202, 203) if smoke else tuple(range(1, 9))
        self.overrides = dict(K=2, n0=200, n_k=150, p=10) if smoke else {}
        self.n_predict = 300 if smoke else 5000
        self.n_starts = 2 if smoke else 10

    def scenario(self, seed):
        return scenario_preset("figure1-full", family="gaussian", seed=seed, **self.overrides)

    def setup(self, seed, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        scenario = {"preset": "figure1-full", "family": "gaussian", **self.overrides}
        self.config.write_text(json.dumps({
            "scenario": scenario,
            "tuning": {"lambda_pool": self.LAMBDA, "lambda_bias": self.LAMBDA},
            "lca": {"n_starts": self.n_starts},
        }))
        # the predict input is a fresh target-population sample for this seed
        self.test, _ = generate_target_test(self.scenario(seed), self.n_predict)
        self.test_csv = self.dir / "predict_input.csv"
        write_study_csv(self.test, self.test_csv)

    def run(self, inst):
        data, fit, scores = self.dir / "data", self.dir / "fit.json", self.dir / "scores.csv"
        common = ["--config", str(self.config), "--seed", str(inst)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli.main(["simulate", *common, "--out", str(data), "--force"]),
                cli.main(["fit", *common, "--data", str(data), "--classes", "3", "--out", str(fit)]),
                cli.main(["predict", "--fit", str(fit), "--input", str(self.test_csv), "--out", str(scores)]),
            )
        return {"codes": codes}

    def finish(self, inst, out):
        data, fit = self.dir / "data", self.dir / "fit.json"
        csv_bytes = sum(p.stat().st_size for p in data.glob("*.csv"))
        return {
            **out,
            "fit": load_transfer_fit(fit),
            "fit_bytes": fit.read_bytes(),
            "scores": np.loadtxt(self.dir / "scores.csv", skiprows=1, ndmin=1),
            # study CSVs written by simulate and read back by fit, plus the
            # predict input read by predict
            "csv_mb": (2 * csv_bytes + self.test_csv.stat().st_size) / 1e6,
        }

    def check(self, inst, out, reference):
        if out["codes"] != (0, 0, 0):
            return [f"exit codes {out['codes']}"]
        fit = out["fit"]
        problems = _fit_problems("fit", fit)
        scores = out["scores"]
        if scores.shape != (self.n_predict,):
            problems.append(f"{scores.shape[0]} scores for {self.n_predict} rows")
        else:
            problems += _score_problems("predict", scores, logistic=False)
            direct = predict_risk(fit, self.test.predictors, self.test.structure_vars)
            if not np.array_equal(scores, direct):
                problems.append("CLI scores differ from predict_risk on the saved fit")
        if reference is not None:
            problems += _reference_problems("fit", reference, fit.lambda_pool, fit.lambda_bias,
                                            _coef_state(fit.b_target))
        return problems

    def record(self, inst, out):
        fit = out["fit"]
        return {"lambda_pool": list(map(float, fit.lambda_pool)),
                "lambda_bias": list(map(float, fit.lambda_bias)),
                "coef": _coef_state(fit.b_target)}

    def digest(self, out):
        # scores depend on the run seed's predict input; the fit does not
        return hashlib.sha256(out["fit_bytes"]).hexdigest()

    def quality(self, insts, outs):
        mse = [coef_mse(o["fit"].b_target, target_coefficients(self.scenario(i)))
               for i, o in zip(insts, outs)]
        prev = [_prev_mae(o["fit"].lca_model.prevalences, self.scenario(i).resolved_prevalences())
                for i, o in zip(insts, outs)]
        return {"coef_mse": float(np.mean(mse)), "auc": None, "prev_mae": float(np.mean(prev))}


# ---------------------------------------------------------------------------
# lca-select: BIC class-count selection, memberships and pattern lookup
# ---------------------------------------------------------------------------


class LcaSelect(Workload):
    name = "lca-select"
    CLASS_GRID = (2, 3, 4)
    expected_calls = {
        "lca.select_classes_bic": 1, "lca.fit_lca": 3, "lca.initial_memberships": 1,
        "lca.membership_for_pattern": 1, "glm.solve": 0,
    }

    def __init__(self, smoke: bool):
        self.pool = (301, 302) if smoke else (1, 2, 3)
        n = 300 if smoke else 1500
        self.overrides = dict(K=2 if smoke else 5, n0=n, n_k=n, p=6)
        self.n_starts = 2 if smoke else 10

    def scenario(self, inst):
        return scenario_preset("figure1-mini", seed=inst, **self.overrides)

    def setup(self, seed, workdir):
        self.data = {i: generate_scenario(self.scenario(i))[0] for i in self.pool}
        q = self.data[self.pool[0]].q
        self.patterns = np.array(list(itertools.product((0.0, 1.0), repeat=q)))

    def run(self, inst):
        data = self.data[inst]
        rows = lca.select_classes_bic(data, self.CLASS_GRID, LcaFitConfig(n_starts=self.n_starts, seed=inst))
        model = rows[self.CLASS_GRID.index(3)]["model"]
        return {"rows": rows, "v": lca.initial_memberships(model, data),
                "post": lca.membership_for_pattern(model, self.patterns, 0)}

    def check(self, inst, out, reference):
        rows = out["rows"]
        problems = []
        if [r["n_classes"] for r in rows] != list(self.CLASS_GRID):
            return [f"class grid {[r['n_classes'] for r in rows]}"]
        for r in rows:
            if not np.isfinite(r["bic"]):
                problems.append(f"C={r['n_classes']}: BIC not finite")
            if np.any(np.diff(np.asarray(r["model"].trace)) < -MONOTONE_TOL):
                problems.append(f"C={r['n_classes']}: LCA log-likelihood fell")
        for tag, m in (("memberships", out["v"].stacked()), ("pattern posteriors", out["post"])):
            if not (np.all(np.isfinite(m)) and np.max(np.abs(m.sum(axis=1) - 1.0)) <= ROW_SUM_TOL):
                problems.append(f"{tag} are not row-stochastic")
        if reference is not None:
            best = min(rows, key=lambda r: r["bic"])["n_classes"]
            if best != reference["best_c"]:
                problems.append(f"BIC picks C={best}, reference C={reference['best_c']}")
            for r, ll in zip(rows, reference["log_lik"]):
                if not abs(r["model"].log_lik - ll) <= LOGLIK_RTOL * abs(ll):
                    problems.append(f"C={r['n_classes']}: log_lik {r['model'].log_lik!r} != reference {ll!r}")
            model = rows[self.CLASS_GRID.index(3)]["model"]
            for key in ("prevalences", "mixing"):
                gap = float(np.max(np.abs(getattr(model, key) - np.asarray(reference[key]))))
                if not gap <= LCA_ATOL:
                    problems.append(f"C=3 {key} differ from reference by {gap:.3e} > {LCA_ATOL}")
        return problems

    def record(self, inst, out):
        rows = out["rows"]
        model = rows[self.CLASS_GRID.index(3)]["model"]
        return {"best_c": min(rows, key=lambda r: r["bic"])["n_classes"],
                "log_lik": [r["model"].log_lik for r in rows],
                "prevalences": model.prevalences.tolist(), "mixing": model.mixing.tolist()}

    def digest(self, out):
        arrays = []
        for r in out["rows"]:
            arrays += [r["model"].prevalences, r["model"].mixing, r["model"].log_lik, r["bic"]]
        return _digest(*arrays, out["v"].stacked(), out["post"])

    def quality(self, insts, outs):
        prev = [_prev_mae(o["rows"][self.CLASS_GRID.index(3)]["model"].prevalences,
                          self.scenario(i).resolved_prevalences()) for i, o in zip(insts, outs)]
        return {"coef_mse": None, "auc": None, "prev_mae": float(np.mean(prev))}


WORKLOADS = {w.name: w for w in (MiniReplicate, FullGaussianCli, LcaSelect)}
