"""Certified-run benchmark for certifem.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disk-fine --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json at the checkout root.
With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric from
a traced run.  Earlier lines give the environment, the op-time percentiles
and the sample counts.  Inputs, reports, spans and a result record go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench"


def prepare(root: str) -> str:
    """Pin BLAS/OpenMP to one thread, leave certifem's own row parallelism
    off, and import certifem from ``root/src``.  Must run before numpy is
    imported, which reads the thread settings once."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "certifem", "__init__.py")):
        raise SystemExit(f"error: no certifem sources under {src}; run from the root of a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CERTIFEM_THREADS", None)
    sys.path.insert(0, src)
    import certifem

    if not os.path.abspath(certifem.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported certifem from {certifem.__file__}, not from {src}")
    return src


def main(argv: list[str] | None = None) -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = prepare(root)

    # These import numpy and certifem, so they wait for prepare().
    import bench
    from workloads import WORKLOADS

    workdir = os.path.join(root, OUT_DIR, args.workload)
    result = bench.measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), workdir, src)
    env = bench.environment(root, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    pct = bench.percentiles(result.durations)
    print("op_s: " + " ".join(f"p{p}={v:.6f}" for p, v in zip((25, 50, 75, 90), pct))
          + f" n={len(result.durations)} attempted={result.attempted} failed={result.failed}")
    print("setup_s samples: " + " ".join(f"{s:.6f}" for s in result.setup))

    correct = result.correct
    if args.trace:
        computed, repeat = result.per_layer()
        listed = spec["per_layer"]
        print(f"per-op counts repeat exactly: {repeat}")
        correct = correct and repeat
        result.tracer.dump(os.path.join(workdir, f"spans-seed{args.seed}.json"))
    else:
        computed = result.end_to_end()
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}
    line = {"correct": correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "op_s_p25_p50_p75_p90": pct, "op_s_samples": result.durations,
                   "setup_s_samples": result.setup, **line}, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
