#!/usr/bin/env python3
"""Benchmark for targeted-psm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all workloads on shrunken inputs
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json

One client in one process runs a closed loop: each operation starts after
the previous one returned and was checked.  An operation visits one pinned
instance of the workload's pool; the loop makes whole passes over the pool,
in an order drawn from --seed, and starts another pass only while it fits
in --seconds, so every run measures the same set of instances.

With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics; with --trace 1 the package's public functions are
wrapped from outside (see tracer.py) and the object carries the per-layer
metrics instead.  The lines before it are a readable report.  Spans, output
digests and scratch files go to perfbench/_out/.

Gated times are scaled to a reference machine speed measured in-process
(see probe.py); the report also shows the net wall seconds.  BLAS and
OpenMP are pinned to one thread before numpy is imported.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from probe import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()


def import_package():
    """Put this checkout's src/ and the benchmark first on the path; refuse
    to run against a copy of the package installed elsewhere."""
    init = SRC / "targeted_psm" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import targeted_psm

    if Path(targeted_psm.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported targeted_psm from {targeted_psm.__file__}, not {init}")


def report(res, seed, trace, env) -> None:
    ops, q, net, scaled = res["ops"], res["quality"], res["net"], res["scaled"]
    failed = [o for o in ops if o.problems]
    print(f"workload {res['workload'].name}  seed {seed}  trace {trace}  "
          f"{len(ops)} ops over a pool of {len(res['workload'].pool)} (closed loop, 1 client)")
    print(f"  env                {json.dumps(env)}")
    print(f"  {'metric':<18} {'scaled':>10} {'net wall':>10}")
    for key, unit in (("setup_s", "s"), ("op_s.p50", f"s  (n={len(ops)})"), ("ops_per_min", "1/min")):
        print(f"  {key:<18} {scaled[key]:>10.6g} {net[key]:>10.6g} {unit}")
    rows = (
        ("fail_ratio", len(failed) / len(ops), f"({len(failed)}/{len(ops)})"),
        ("rss_peak_mb", res["rss_peak_mb"], "MB"),
        ("quality.coef_mse", q.get("coef_mse"), "(targeted_psm vs truth, class-aligned)"),
        ("quality.auc", q.get("auc"), "(targeted_psm, target test sample)"),
        ("quality.prev_mae", q.get("prev_mae"), "(C=3 prevalences vs truth, class-aligned)"),
    )
    for key, value, unit in rows:
        print(f"  {key:<18} {'n/a' if value is None else format(value, '.6g'):>10} {unit}")
    for o in failed:
        print(f"  FAILED instance {o.inst}: {'; '.join(o.problems)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test on shrunken inputs")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)
    import_package()
    PROBE.start()
    try:
        return _main(ap, args)
    finally:
        PROBE.stop()


def _main(ap, args) -> int:
    import bench
    import smoke

    bench.OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke.smoke(T_START, PROBE)
    if args.record:
        return smoke.record(T_START, PROBE)
    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    name = args.workload
    reference = bench.load_reference().get(name)
    if reference is None:
        sys.exit(f"perfbench: no reference outputs for {name} in {bench.REFERENCE}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    res = bench.run_workload(name, args.seed, args.seconds, t_start=T_START, probe=PROBE,
                             reference=reference, tracer=tracer)
    ops = res["ops"]
    digest_path = bench.OUT / f"digests-{name}.json"
    stored = json.loads(digest_path.read_text()) if digest_path.exists() else {"digests": {}}
    if tracer is None:
        stored["digests"].update({str(o.inst): o.digest for o in ops if not o.problems})
        stored.setdefault("op_s.p50", []).append(res["scaled"]["op_s.p50"])
        digest_path.write_text(json.dumps(stored, indent=1))
        metrics = bench.end_to_end(res)
    else:
        from tracer import call_count_problems

        for op, problems in call_count_problems(tracer.spans, res["workload"].expected_calls,
                                                len(ops)).items():
            ops[op].problems += problems
        for o in ops:
            want = stored["digests"].get(str(o.inst))
            if want is not None and o.digest is not None and o.digest != want:
                o.problems.append("traced output differs from the untraced run's")
        tracer.dump(bench.OUT / f"trace-{name}-seed{args.seed}.jsonl")
        metrics = bench.per_layer(res, tracer.spans)
    report(res, args.seed, args.trace, bench.environment())
    if tracer is not None and stored.get("op_s.p50"):
        untraced = statistics.median(stored["op_s.p50"])
        print(f"  trace overhead     {res['scaled']['op_s.p50'] - untraced:+.4f} s "
              f"(traced scaled op_s.p50 minus the median of {len(stored['op_s.p50'])} untraced runs)")
    failed = sum(1 for o in ops if o.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
