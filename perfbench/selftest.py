"""Self-test of the benchmark at tiny sizes (a few seconds in all).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that:
every metric BENCHMARK.json names is computed, and nothing else; every
layer gets at least one span; per-op counts repeat exactly; the layers'
self times plus the untraced time add up to the traced op time; every
operation passes its output check.
"""

from __future__ import annotations

import json
import math
import os
import sys

from run import OUT_DIR, prepare


def main() -> int:
    root = os.getcwd()
    src = prepare(root)
    # These import numpy and certifem, so they wait for prepare().
    import bench
    from spans import LAYERS, ROOT
    from workloads import CertifyFile, DiskFine, DiskSweep

    tiny = {
        "disk-fine": lambda: DiskFine(m=10, refine=1),
        "disk-sweep": lambda: DiskSweep(ms=(10, 20)),
        "certify-file": lambda: CertifyFile(n=16),
    }
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    errors = []
    if {w["name"] for w in spec["workloads"]} != set(tiny):
        errors.append("BENCHMARK.json workloads differ from the self-test's list")
    layers_seen = set()
    workdir = os.path.join(root, OUT_DIR, "selftest")
    for name, make in tiny.items():
        for trace in (False, True):
            result = bench.measure(make(), seed=3, seconds=0.2, trace=trace,
                                   workdir=os.path.join(workdir, name), src=src)
            if not result.correct:
                errors.append(f"{name}: {result.failed} of {result.attempted} operations failed")
            if not trace:
                got = set(result.end_to_end())
                if got != end_to_end:
                    errors.append(f"{name}: end-to-end metrics {sorted(got ^ end_to_end)} mismatch")
                continue
            metrics, repeat = result.per_layer()
            if set(metrics) != per_layer:
                errors.append(f"{name}: per-layer metrics {sorted(set(metrics) ^ per_layer)} mismatch")
            if not repeat:
                errors.append(f"{name}: per-op counts differ between operations")
            layers_seen |= {span[0].split(".", 1)[0] for span in result.tracer.spans}
            parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["trace.untraced_s"]
            if not math.isclose(parts, metrics["trace.op_s_mean"], rel_tol=1e-9):
                errors.append(f"{name}: self times add to {parts}, traced op mean is {metrics['trace.op_s_mean']}")
            if not any(span[0] == ROOT for span in result.tracer.spans):
                errors.append(f"{name}: no traced operation")
    missing = set(LAYERS) - layers_seen
    if missing:
        errors.append(f"layers without spans: {sorted(missing)}")
    for err in errors:
        print("FAIL " + err)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
