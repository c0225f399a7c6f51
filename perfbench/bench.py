"""Closed-loop measurement of one workload: one client, one operation at a
time, for a fixed wall-clock budget.

Import this only after ``run.prepare`` has pinned the thread counts and put
the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import certifem
from certifem.errors import CertifemError

from spans import SETUP, SETUP_OP, Tracer
from workloads import CheckFailed

SETUP_TRIALS = 3

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import certifem\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    durations: list = field(default_factory=list)  # untraced op wall times
    setup: list = field(default_factory=list)  # set-up trial times
    bound_ratio: float = 0.0
    peak_rss_mb: float = 0.0
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.bound_ratio >= 1.0

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_s_p90": percentiles(self.durations)[3],
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": self.peak_rss_mb,
            "bound_ratio": self.bound_ratio,
            "pass_ratio": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> tuple[dict[str, float], bool]:
        return self.tracer.layer_metrics(statistics.median(self.durations))


def import_seconds(src: str) -> float:
    """Time ``import certifem`` (numpy and scipy included) in a fresh
    interpreter, which is what every user of the package pays once."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _attempt(result: Result, op, ratios: list) -> None:
    result.attempted += 1
    try:
        ratio = op()
    except (CertifemError, CheckFailed) as exc:
        result.failed += 1
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    if ratio is not None:
        ratios.append(ratio)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str, src: str) -> Result:
    """Set the workload up SETUP_TRIALS times, then run operations until
    `seconds` have passed.  With `trace`, every other operation runs with
    the tracer installed (at least one of each kind)."""
    result = Result(tracer=Tracer() if trace else None)
    tracer = result.tracer
    os.makedirs(workdir, exist_ok=True)
    for _ in range(SETUP_TRIALS):
        imported = import_seconds(src)
        t0 = time.perf_counter()
        if tracer:
            with tracer.installed(), tracer.op_span(SETUP_OP, SETUP):
                workload.setup(seed, workdir)
        else:
            workload.setup(seed, workdir)
        result.setup.append(imported + time.perf_counter() - t0)

    ratios: list[float] = []
    start = time.perf_counter()
    op_id = 0
    while True:
        if tracer and op_id % 2 == 1:
            with tracer.installed(), tracer.op_span(op_id):
                _attempt(result, workload.op, ratios)
        else:
            t0 = time.perf_counter()
            _attempt(result, workload.op, ratios)
            result.durations.append(time.perf_counter() - t0)
        op_id += 1
        if time.perf_counter() - start >= seconds and (not tracer or op_id >= 2):
            break
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The post-loop check is one more attempted operation, untimed.
    _attempt(result, workload.finish, ratios)
    if ratios:
        result.bound_ratio = statistics.median(ratios)
    return result


def percentiles(values: list[float]) -> tuple[float, float, float, float]:
    """p25, p50, p75 and p90, interpolating linearly between samples."""
    if len(values) < 2:
        return (values[0],) * 4
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[4], cuts[9], cuts[14], cuts[17]


def environment(root: str, seed: int) -> dict:
    """What a result depends on besides the code: revision, machine,
    library versions, thread pinning and the seed."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "certifem")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_revision": _git_revision(root),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "certifem": certifem.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS", "CERTIFEM_THREADS")},
        "seed": seed,
    }


def _git_revision(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None
