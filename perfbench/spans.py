"""In-memory span tracer that wraps certifem's public functions from outside.

Each wrapped call records a span ``[name, start, end, parent, op]``; spans of
one benchmark operation share the ``op`` id, and ``parent`` is the index of
the enclosing span.  A span's self time is its duration minus the durations
of its direct children (calls are sequential, so children never overlap).
Nothing under ``src/`` is modified: the tracer rebinds module attributes and
restores them on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("mesh", "domain", "interp_constants", "fem", "estimator", "verify", "cli")
ROOT = "bench.op"
SETUP = "bench.setup"
SETUP_OP = -1

# Per-layer self-time metrics: metric -> span names whose self time it sums.
# Each layer's total self time is reported as "<layer>.self_s" as well.
SELF_METRICS = {
    "mesh.refine_s": ("mesh.generate_fan_refined", "mesh.refine_uniform"),
    "mesh.build_s": ("mesh.build_mesh",),
    "mesh.load_s": ("mesh.load",),
    "mesh.check_boundary_s": ("mesh.check_boundary_on_poly",),
    "mesh.element_metrics_s": ("mesh.element_metrics",),
    "domain.inscribe_s": (
        "domain.inscribed_regular_polygon",
        "domain.poly_approx_of_polygon",
        "domain.make_poly_approx",
        "domain.gap_delta_from_parts",
    ),
    "interp_constants.mesh_constants_s": ("interp_constants.mesh_constants",),
    "fem.assemble_stiffness_s": ("fem.assemble_stiffness",),
    "fem.assemble_load_s": ("fem.assemble_load",),
    "fem.norms_s": (
        "fem.fem_l2_norm",
        "fem.fem_h1_seminorm",
        "fem.l2_error_interior",
        "fem.poincare_residual",
        "fem.DiscreteSource.l2_norm",
    ),
    "fem.solve_cg_s": ("fem.solve_cg",),
    "estimator.certify_s": ("estimator.certify",),
    "verify.row_s": ("verify.disk_study_row",),
    "verify.gap_error_term_s": ("verify.gap_error_term",),
}

CALL_METRICS = {
    "mesh.build_calls": "mesh.build_mesh",
    "mesh.check_boundary_calls": "mesh.check_boundary_on_poly",
    "mesh.element_metrics_calls": "mesh.element_metrics",
    "mesh.quality_calls": "mesh.quality",
    "fem.build_fh_calls": "fem.build_fh",
    "fem.assemble_stiffness_calls": "fem.assemble_stiffness",
    "estimator.certify_calls": "estimator.certify",
}

# Counters filled by observers; fem.cg_residual is a maximum, the rest sums.
COUNT_METRICS = (
    "mesh.nodes",
    "mesh.elements",
    "interp_constants.elements_evaluated",
    "fem.cg_iterations",
    "fem.dofs",
    "fem.cg_bytes_computed",
)
MAX_METRICS = ("fem.cg_residual",)

# Passes over n float64 values per Jacobi-CG iteration, counted from
# fem.solve_cg and ignoring numpy temporaries: A p reads p and writes Ap (2),
# x += a p (3), r -= a Ap (3), ||r|| (1), the best-iterate copy (2),
# z = D^-1 r (3), r.z (2), p = z + b p (3).
CG_VECTOR_PASSES = 19


def cg_bytes_per_iteration(nnz: int, n: int) -> int:
    """Bytes one CG iteration moves, computed (not measured) from the CSR
    matrix size: 8-byte values and 4-byte column indices per nonzero, the
    4-byte row pointer, and CG_VECTOR_PASSES passes over 8-byte vectors."""
    return 12 * nnz + 4 * (n + 1) + 8 * n * CG_VECTOR_PASSES


def _observe_certify(count, args, result):
    mesh = args["mesh"]
    count["mesh.nodes"] += mesh.node_count
    count["mesh.elements"] += mesh.element_count


def _observe_mesh_constants(count, args, result):
    count["interp_constants.elements_evaluated"] += args["mesh"].element_count


def _observe_solve_poisson(count, args, result):
    sol = result[0]
    count["fem.cg_iterations"] += sol.iterations
    count["fem.cg_residual"] = max(count["fem.cg_residual"], sol.residual)


def _observe_solve_cg(count, args, result):
    system = args["system"]
    count["fem.dofs"] += system.size
    count["fem.cg_bytes_computed"] += result[1] * cg_bytes_per_iteration(system.matrix.nnz, system.size)


OBSERVERS = {
    "estimator.certify": _observe_certify,
    "interp_constants.mesh_constants": _observe_mesh_constants,
    "fem.solve_poisson": _observe_solve_poisson,
    "fem.solve_cg": _observe_solve_cg,
}


class Tracer:
    """Records spans and counters for certifem calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = SETUP_OP
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.counts[self.op], bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def op_span(self, op: int, name: str = ROOT):
        """Root span of one benchmark operation (or of one set-up, with
        ``op=SETUP_OP``); its self time is the part that no wrapped certifem
        call covers."""
        self.op = op
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self.op = SETUP_OP

    # -- patching --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the public functions of every layer and rebind each name
        wherever a certifem module looks it up (``cli`` and ``verify`` import
        some functions directly), restoring every binding on exit."""
        modules = {layer: importlib.import_module(f"certifem.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("certifem")] + list(modules.values())
        patches = []  # (owner, attribute, original)
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for ns_attr, obj in list(vars(ns).items()):
                        if obj is fn:
                            patches.append((ns, ns_attr, fn))
                            setattr(ns, ns_attr, wrapped)
        source_cls = modules["fem"].DiscreteSource
        original = source_cls.l2_norm
        patches.append((source_cls, "l2_norm", original))
        source_cls.l2_norm = self._wrap("fem.DiscreteSource.l2_norm", original)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``self.spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent, op), c in zip(self.spans, child)]

    def op_durations(self) -> list[float]:
        return [end - start for name, start, end, parent, op in self.spans if name == ROOT]

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self-time sums, call counts and counters per operation id."""
        table: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, op), self_s in zip(self.spans, self.self_times()):
            row = table[op]
            row[f"self:{name}"] += self_s
            row[f"calls:{name}"] += 1
            if name not in (ROOT, SETUP):
                row[f"{name.split('.', 1)[0]}.self_s"] += self_s
        for op, counts in self.counts.items():
            table[op].update(counts)
        return table

    def layer_metrics(self, untraced_op_s_p50: float) -> tuple[dict[str, float], bool]:
        """Per-op means of every per-layer metric over the traced operations,
        and whether every count repeated exactly from one operation to the
        next."""
        table = self.per_op()
        ops = [row for op, row in table.items() if op != SETUP_OP]
        setup = table.get(SETUP_OP, {})
        setup_runs = setup.get(f"calls:{SETUP}", 0) or 1
        n = len(ops)

        def mean(key):
            return sum(row.get(key, 0.0) for row in ops) / n

        out = {}
        for metric, names in SELF_METRICS.items():
            out[metric] = sum(mean(f"self:{name}") for name in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = mean(f"{layer}.self_s")
        out["mesh.save_s"] = setup.get("self:mesh.save", 0.0) / setup_runs
        count_keys = [f"calls:{name}" for name in CALL_METRICS.values()] + list(COUNT_METRICS + MAX_METRICS)
        for metric, name in CALL_METRICS.items():
            out[metric] = mean(f"calls:{name}")
        for metric in COUNT_METRICS:
            out[metric] = mean(metric)
        for metric in MAX_METRICS:
            out[metric] = max(row.get(metric, 0.0) for row in ops)
        repeat = all(row.get(k, 0.0) == ops[0].get(k, 0.0) for row in ops for k in count_keys)

        traced = self.op_durations()
        out["trace.op_s_p50"] = statistics.median(traced)
        out["trace.op_s_mean"] = statistics.fmean(traced)
        out["trace.untraced_s"] = mean(f"self:{ROOT}")
        out["trace.overhead_ratio"] = out["trace.op_s_p50"] / untraced_op_s_p50
        return out, repeat

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
