"""Self-test and reference recording.

`smoke` runs every workload on shrunken inputs twice, untraced and traced,
and fails unless every output check passes, the traced outputs are
bit-identical to the untraced ones, the traced call counts match the
configuration, and the metric names and units match BENCHMARK.json.

`record` runs every pinned instance once, untraced, and rewrites
reference.json with the outputs the checks compare against.
"""

from __future__ import annotations

import json

from bench import REFERENCE, WORKLOADS, end_to_end, load_reference, per_layer, run_workload
from tracer import Tracer, call_count_problems

BENCHMARK = REFERENCE.parent.parent / "BENCHMARK.json"


def smoke(t_start, probe) -> int:
    reference = load_reference()
    spec = json.loads(BENCHMARK.read_text())
    failures = []
    for name in WORKLOADS:
        ref = reference[name + "/smoke"]
        plain = run_workload(name, 0, 0.0, t_start=t_start, probe=probe, smoke=True, reference=ref)
        tracer = Tracer()
        traced = run_workload(name, 0, 0.0, t_start=t_start, probe=probe, smoke=True, reference=ref, tracer=tracer)
        problems = [f"instance {o.inst}: {p}" for o in plain["ops"] + traced["ops"] for p in o.problems]
        for a, b in zip(plain["ops"], traced["ops"]):
            if (a.inst, a.digest) != (b.inst, b.digest):
                problems.append(f"instance {a.inst}: traced output differs from untraced")
        counts = call_count_problems(tracer.spans, traced["workload"].expected_calls, len(traced["ops"]))
        problems += [f"op {op}: {p}" for op, ps in counts.items() for p in ps]
        for kind, got in (("end_to_end", end_to_end(plain)), ("per_layer", per_layer(traced, tracer.spans))):
            want = {(m["name"], m["unit"]) for m in spec[kind]}
            got = {(k, unit) for k, (_, unit) in got.items()}
            if got != want:
                problems.append(f"{kind} metrics differ from BENCHMARK.json: {sorted(got ^ want)}")
        status = "ok" if not problems else "FAILED"
        print(f"smoke {name}: {status}  ({len(plain['ops'])} ops untraced, "
              f"{len(traced['ops'])} traced, {len(tracer.spans)} spans)")
        failures += [f"{name}: {p}" for p in problems]
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


def record(t_start, probe) -> int:
    reference = {}
    for smoke_size in (False, True):
        for name in WORKLOADS:
            res = run_workload(name, 0, 0.0, t_start=t_start, probe=probe, smoke=smoke_size)
            wl = res["workload"]
            key = name + "/smoke" if smoke_size else name
            reference[key] = {str(i): wl.record(i, out) for i, out in sorted(res["outputs"].items())}
            bad = [f"instance {o.inst}: {p}" for o in res["ops"] for p in o.problems]
            print(f"recorded {key}: {len(reference[key])} instances, "
                  f"op_s.p50 {res['net']['op_s.p50']:.3f} s", *bad, sep="\n  " if bad else " ")
            if bad:
                return 1
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0
