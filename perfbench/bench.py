"""The measuring loop shared by benchmark runs, the smoke test and recording."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from tracer import layer_metrics, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Op:
    __slots__ = ("inst", "t0", "t1", "problems", "digest")

    def __init__(self, inst, t0, t1, problems, digest):
        self.inst, self.t0, self.t1, self.problems, self.digest = inst, t0, t1, problems, digest


def _run_op(wl, inst, reference, tracer, op_id):
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out = wl.run(inst)
    except Exception as exc:  # an operation that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.op = None
    if out is None:
        return Op(inst, t0, t1, [error], None), None
    try:
        out = wl.finish(inst, out)
        problems = wl.check(inst, out, None if reference is None else reference[str(inst)])
    except Exception as exc:
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    return Op(inst, t0, t1, problems, wl.digest(out)), out


def _measure(wl, order, seconds, reference, tracer):
    """Whole passes over `order`, another only while it fits in `seconds`.
    Returns (ops, outputs of the first pass)."""
    ops, first = [], []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for inst in order:
            op, out = _run_op(wl, inst, reference, tracer, len(ops))
            ops.append(op)
            if len(first) < len(order):
                first.append(out)
        now = time.perf_counter()
        if (now - t_begin) + (now - t_pass) > seconds:
            return ops, first


def run_workload(name, seed, seconds, *, t_start, probe, smoke=False, reference=None, tracer=None) -> dict:
    """Set up, measure and check one workload.  Times come as "net" and
    "scaled" seconds from the speed probe; see probe.py."""
    wl = WORKLOADS[name](smoke)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    t_ready = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(seed, workdir)
            setup.append((t0, time.perf_counter()))
        order = [wl.pool[i] for i in np.random.default_rng(seed).permutation(len(wl.pool))]
        ops, first = _measure(wl, order, seconds, reference, tracer)
        done = [(op.inst, out) for op, out in zip(ops, first) if not op.problems]
        quality = wl.quality(*zip(*done)) if done else {}
    finally:
        wl.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    imports = probe.window(t_start, t_ready)
    setup = [probe.window(*w) for w in setup]
    times = [probe.window(o.t0, o.t1) for o in ops]
    csv_mb = [o.get("csv_mb", 0.0) for o in first if o is not None]
    res = {
        "workload": wl,
        "ops": ops,
        "outputs": dict(zip(order, first)),
        "quality": quality,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_mb": statistics.fmean(csv_mb) if csv_mb else 0.0,
    }
    for i, kind in enumerate(("net", "scaled")):
        op_s = [t[i] for t in times]
        res[kind] = {
            # process start to the first operation: imports plus one set-up
            "setup_s": imports[i] + statistics.median(t[i] for t in setup),
            "op_s.p50": statistics.median(op_s),
            "ops_per_min": 60.0 * len(op_s) / sum(op_s),
        }
    return res


def end_to_end(res) -> dict:
    """name -> (value, unit) of the gated end-to-end metrics; times are
    scaled to the probe's reference speed."""
    return {
        "setup_s": (res["scaled"]["setup_s"], "s"),
        "op_s.p50": (res["scaled"]["op_s.p50"], "s"),
        "ops_per_min": (res["scaled"]["ops_per_min"], "1/min"),
        "rss_peak_mb": (res["rss_peak_mb"], "MB"),
        "quality.prev_mae": (res["quality"].get("prev_mae"), "1"),
    }


def per_layer(res, spans) -> dict:
    """name -> (value, unit) of the per-layer metrics of a traced run."""
    m = layer_metrics(spans, len(res["ops"]))
    m["core.csv.mb"] = res["csv_mb"]
    return {k: (v, unit_of(k)) for k, v in m.items()}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
