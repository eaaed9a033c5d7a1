"""Outside-in span tracing for the benchmark.

`Tracer.install` rebinds every public function listed in `TRACE_POINTS`
wherever a module of the package holds it (the defining module, every
module that imported it by name, and the package namespace), so each call
from any caller opens a span.  Nothing under `src/` is edited, and
`Tracer.uninstall` restores every original binding.

A span records its name, start, end, parent span and operation id, plus a
few attributes read from the call's arguments and return value.  Spans are
kept in memory; `Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

from workloads import METHODS

# ---------------------------------------------------------------------------
# Attribute hooks: read counts from a call without touching the program
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _solve_attrs(args, kwargs, sol):
    prob = _arg(args, kwargs, 0, "prob")
    return {
        "n": prob.n,
        "d": prob.d,
        "passes": sol.n_iters,
        "kkt": sol.kkt_max_violation,
    }


def _tune_label(args, kwargs):
    return "transfer.auto_tune_lambda." + _arg(args, kwargs, 3, "stage")


def _tune_open(args, kwargs):
    from targeted_psm.transfer import DEFAULT_CV_FOLDS, DEFAULT_CV_GRID

    memberships = args[1]
    grid = _arg(args, kwargs, 4, "grid", DEFAULT_CV_GRID)
    folds = _arg(args, kwargs, 5, "cv_folds", DEFAULT_CV_FOLDS)
    # every class, fold and grid point gets exactly one solver call
    return {"expected_solves": memberships.n_classes * folds * len(grid)}


def _em_attrs(config_index, n_iter_index):
    def attrs(args, kwargs, result):
        import numpy as np

        config = _arg(args, kwargs, config_index, "config")
        budget = 1 if getattr(config, "one_step", False) else config.max_em_iter
        n_iter = result[n_iter_index]
        return {
            "iters": n_iter,
            # one solver call per class with a finite penalty per iteration
            "expected_solves": n_iter * int(np.isfinite(result[-1]).sum()),
            "cap_hit": int(budget > 1 and n_iter >= budget),
        }

    return attrs


def _lca_attrs(args, kwargs, model):
    return {"iters": model.n_iter, "unconverged": int(not model.converged)}


def _method_label(args, kwargs):
    from targeted_psm.baselines import MethodId

    return "baselines.fit_method." + MethodId(args[0]).value


# (defining module, attribute, span name or label(args, kwargs),
#  open hook(args, kwargs) -> attrs, close hook(args, kwargs, result) -> attrs)
TRACE_POINTS = (
    ("glm", "solve_weighted_lasso_glm", "glm.solve", None, _solve_attrs),
    ("transfer", "auto_tune_lambda", _tune_label, _tune_open, None),
    ("transfer", "joint_estimate", "transfer.joint_estimate", None, _em_attrs(2, 3)),
    ("transfer", "bias_correct", "transfer.bias_correct", None, _em_attrs(3, 2)),
    ("transfer", "fit_targeted_psm", "transfer.fit_targeted_psm", None, None),
    ("transfer", "predict_risk", "transfer.predict_risk", None, None),
    ("transfer", "save_transfer_fit", "transfer.fit_io", None, None),
    ("transfer", "load_transfer_fit", "transfer.fit_io", None, None),
    ("lca", "fit_lca", "lca.fit_lca", None, _lca_attrs),
    ("lca", "select_classes_bic", "lca.select_classes_bic", None, None),
    ("lca", "initial_memberships", "lca.initial_memberships", None, None),
    ("lca", "membership_for_pattern", "lca.membership_for_pattern", None, None),
    ("simulate", "write_dataset", "core.write_dataset", None, None),
    ("core", "load_collection", "core.load_collection", None, None),
    ("core", "read_study_csv", "core.read_study_csv", None, None),
    ("simulate", "generate_scenario", "simulate.generate_scenario", None, None),
    ("cli", "_cmd_simulate", "cli.simulate", None, None),
    ("cli", "_cmd_fit", "cli.fit", None, None),
    ("cli", "_cmd_predict", "cli.predict", None, None),
    ("baselines", "fit_method", _method_label, None, None),
    ("evaluate", "run_replicate", "evaluate.run_replicate", None, None),
    ("evaluate", "align_classes", "evaluate.score", None, None),
    ("evaluate", "coef_mse", "evaluate.score", None, None),
    ("evaluate", "auc", "evaluate.score", None, None),
    ("baselines", "FittedMethod.scores", "evaluate.score", None, None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s", "error")

    def __init__(self, name, start, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.child_s = 0.0
        self.error = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # children of one span never overlap: the package is single-threaded
        return self.dur - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op, attrs or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, attrs=None, error=None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.dur

    def _wrap(self, fn, name, on_open, on_close):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:  # output checks between operations
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = tracer._open(label, on_open(args, kwargs) if on_open else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, error=type(exc).__name__)
                raise
            tracer._close(idx, on_close(args, kwargs, result) if on_close else None)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every trace point in every loaded module of the package."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "targeted_psm" or key.startswith("targeted_psm."))
        ]
        for mod_name, attr, name, on_open, on_close in TRACE_POINTS:
            home = sys.modules["targeted_psm." + mod_name]
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name, on_open, on_close))
                continue
            orig = getattr(home, attr)
            traced = self._wrap(orig, name, on_open, on_close)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "error": s.error, **s.attrs,
                }
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics and call-count checks
# ---------------------------------------------------------------------------


def call_count_problems(spans, expected: dict, n_ops: int) -> dict:
    """Operation id -> span counts that differ from the configuration.

    `expected` gives, per operation, how many spans of each name the
    workload's configuration implies; in addition every span that recorded
    `expected_solves` must have exactly that many solver calls beneath it.
    No problems prove that no caller's binding of a wrapped function was
    missed.
    """
    counts, solves_under = {}, {}
    for s in spans:
        if s.op is not None:
            counts[(s.op, s.name)] = counts.get((s.op, s.name), 0) + 1
        if s.name == "glm.solve" and s.parent is not None:
            solves_under[s.parent] = solves_under.get(s.parent, 0) + 1
    bad = {}
    for op in range(n_ops):
        for name, want in expected.items():
            got = counts.get((op, name), 0)
            if got != want:
                bad.setdefault(op, []).append(f"{got} {name} spans, expected {want}")
    for i, s in enumerate(spans):
        want = s.attrs.get("expected_solves")
        got = solves_under.get(i, 0)
        if want is not None and s.error is None and got != want:
            bad.setdefault(s.op, []).append(f"{s.name}: {got} solver calls, expected {want}")
    return bad


def unit_of(name: str) -> str:
    if name.endswith(".ms.p50"):
        return "ms"
    if name.endswith((".s", ".self_s")) or ".s." in name:
        return "s/op"
    if name.endswith(".mb"):
        return "MB/op"
    return {"glm.gram_gflop": "GFLOP/op", "glm.kkt_max": "1"}.get(name, "count/op")


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-operation layer metrics from a traced run's spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_op(x):
        return x / n_ops

    def inclusive(name):
        # nested spans of the same name (coef_mse -> align_classes) count once
        return per_op(sum(s.dur for s in named(name)
                          if s.parent is None or spans[s.parent].name != name))

    def self_time(*names):
        return per_op(sum(s.self_s for n in names for s in named(n)))

    solves = named("glm.solve")
    parent_name = [spans[s.parent].name if s.parent is not None else "" for s in solves]
    lca_fits = [s for s in named("lca.fit_lca") if s.error is None]
    m = {
        "glm.solve.s": inclusive("glm.solve"),
        "glm.solve.calls": per_op(len(solves)),
        "glm.solve.cv_calls": per_op(sum(p.startswith("transfer.auto_tune_lambda") for p in parent_name)),
        "glm.solve.em_calls": per_op(sum(p in ("transfer.joint_estimate", "transfer.bias_correct") for p in parent_name)),
        "glm.solve.ms.p50": statistics.median(s.dur for s in solves) * 1e3 if solves else 0.0,
        "glm.irls_passes": per_op(sum(s.attrs.get("passes", 0) for s in solves)),
        "glm.gram_gflop": per_op(sum(s.attrs.get("passes", 0) * s.attrs.get("n", 0) * s.attrs.get("d", 0) ** 2
                                     for s in solves) / 1e9),
        "glm.kkt_max": max((s.attrs.get("kkt", 0.0) for s in solves), default=0.0),
        "glm.solver_errors": per_op(sum(s.error == "SolverError" for s in solves)),
        "transfer.auto_tune_lambda.pool.s": inclusive("transfer.auto_tune_lambda.pool"),
        "transfer.auto_tune_lambda.bias.s": inclusive("transfer.auto_tune_lambda.bias"),
        "transfer.auto_tune_lambda.self_s": self_time("transfer.auto_tune_lambda.pool",
                                                      "transfer.auto_tune_lambda.bias"),
    }
    for stage in ("joint_estimate", "bias_correct"):
        name = "transfer." + stage
        m[name + ".s"] = inclusive(name)
        m[name + ".self_s"] = self_time(name)
        m[name + ".iters"] = per_op(sum(s.attrs.get("iters", 0) for s in named(name)))
    m["transfer.em_cap_hits"] = per_op(sum(s.attrs.get("cap_hit", 0) for s in
                                           named("transfer.joint_estimate") + named("transfer.bias_correct")))
    m["transfer.fit_targeted_psm.self_s"] = self_time("transfer.fit_targeted_psm")
    m["transfer.predict_risk.s"] = inclusive("transfer.predict_risk")
    m["transfer.fit_io.s"] = inclusive("transfer.fit_io")
    m["lca.fit_lca.s"] = inclusive("lca.fit_lca")
    m["lca.fit_lca.calls"] = per_op(len(named("lca.fit_lca")))
    m["lca.n_iter"] = per_op(sum(s.attrs.get("iters", 0) for s in lca_fits))
    m["lca.unconverged"] = per_op(sum(s.attrs.get("unconverged", 0) for s in lca_fits))
    for name in ("lca.select_classes_bic", "lca.initial_memberships", "lca.membership_for_pattern",
                 "core.write_dataset", "core.load_collection", "core.read_study_csv",
                 "simulate.generate_scenario", "evaluate.score"):
        m[name + ".s"] = inclusive(name)
    for cmd in ("simulate", "fit", "predict"):
        m[f"cli.{cmd}.self_s"] = self_time("cli." + cmd)
    for method in METHODS:
        m["baselines.fit_method.s." + method] = inclusive("baselines.fit_method." + method)
    m["evaluate.run_replicate.self_s"] = self_time("evaluate.run_replicate")
    return m
