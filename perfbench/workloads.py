"""The benchmark's workloads: one certified run per operation.

Every call into certifem goes through a module attribute (``verify.x``,
``cli.main``) so that the tracer's rebinding takes effect.  An operation
either returns normally, raises ``CertifemError`` from the program, or
raises ``CheckFailed`` when its output is wrong; the last two count as
failed operations.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from certifem import cli, domain, fem, mesh, verify


class CheckFailed(Exception):
    """An operation finished but its output failed the benchmark's check."""


class DiskWorkload:
    """Shared checks for the disk m-gon pipeline: every row's certified
    total dominates its measured error, and every operation reproduces the
    first operation's numbers bit for bit."""

    def __init__(self) -> None:
        self._first = None

    def setup(self, seed: int, workdir: str) -> None:
        """The disk pipeline builds its inputs inside each operation."""

    def rows(self) -> list:
        raise NotImplementedError

    def op(self) -> float:
        """Run one operation; return the geometric mean over its rows of
        certified total / measured error."""
        rows = self.rows()
        for row in rows:
            if not row.certified.total >= row.actual:
                raise CheckFailed(f"m={row.m}: certified {row.certified.total} < measured {row.actual}")
        key = [(row.m, row.actual, row.certified.total) for row in rows]
        if self._first is None:
            self._first = key
        elif key != self._first:
            raise CheckFailed(f"results differ from the first operation: {key} != {self._first}")
        return math.exp(sum(math.log(row.certified.total / row.actual) for row in rows) / len(rows))

    def finish(self) -> float | None:
        return None


class DiskFine(DiskWorkload):
    """One north-star run: ``disk_study_row(50, 6)``, 104,001 nodes."""

    def __init__(self, m: int = 50, refine: int = 6) -> None:
        super().__init__()
        self.m, self.refine = m, refine

    def rows(self) -> list:
        return [verify.disk_study_row(self.m, self.refine)]


class DiskSweep(DiskWorkload):
    """The m-gon sweep with the default refinement rule, single-threaded."""

    def __init__(self, ms: tuple[int, ...] = (10, 20, 30, 40, 50)) -> None:
        super().__init__()
        self.ms = ms

    def rows(self) -> list:
        return verify.run_disk_study(list(self.ms), threads=1)


# Each interior node moves by +-JITTER * h along each axis, signs drawn from
# the seed.  A vertex-to-opposite-edge distance changes by at most twice the
# shift (sqrt(2) * JITTER * h), which stays below the smallest altitude
# h / sqrt(2), so no element inverts, while many triangles turn obtuse.
# Every local sign pattern occurs many times on the full-size mesh, so the
# worst element, and with it the certified bound, does not depend on the seed.
JITTER = 0.15
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def jittered_square(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and elements of an n x n grid on the unit square, each cell cut
    along its main diagonal, with the interior nodes jittered."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    elements = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])
    interior = ((nodes > 0.0) & (nodes < 1.0)).all(axis=1)
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(int(interior.sum()), 2))
    nodes[interior] += (JITTER / n) * signs
    return nodes, elements


class CertifyFile:
    """In-process ``certifem certify`` on a jittered square mesh file."""

    def __init__(self, n: int = 256) -> None:
        self.n = n
        self._first = None

    def setup(self, seed: int, workdir: str) -> None:
        """Write the polygon domain and the ``.node/.ele`` mesh files."""
        self.domain_path = os.path.join(workdir, "square.json")
        self.mesh_path = os.path.join(workdir, "square.node")
        self.report_path = os.path.join(workdir, "report.json")
        with open(self.domain_path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": UNIT_SQUARE}, fh)
        nodes, elements = jittered_square(self.n, seed)
        mesh.save(mesh.build_mesh(2, nodes, elements), self.mesh_path, "node_ele")

    def op(self) -> None:
        """Certify the mesh; the report must match the first one byte for byte."""
        argv = [
            "certify",
            "--domain", f"polygon:{self.domain_path}",
            "--mesh", self.mesh_path,
            "--f", "sinsin",
            "--fh-mode", "exact",
            "--strategy", "elementwise",
            "--out", self.report_path,
        ]
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"certify exited with code {code}")
        with open(self.report_path, "rb") as fh:
            report = fh.read()
        if self._first is None:
            self._first = report
        elif report != self._first:
            raise CheckFailed("certify report differs from the first one of this run")

    def finish(self) -> float:
        """Solve on the same mesh, untimed; the measured error must not exceed
        the reported total.  Returns certified total / measured error."""
        if self._first is None:
            raise CheckFailed("no certify report to check")
        total = json.loads(self._first)["total"]
        exact = verify.registry()["square2d"]
        poly = domain.poly_approx_of_polygon(exact.domain)
        loaded = mesh.load(self.mesh_path)
        sol, _ = fem.solve_poisson(loaded, exact.f, "exact")
        if not sol.converged:
            raise CheckFailed(f"CG did not converge (residual {sol.residual})")
        error = verify.actual_l2_error(exact, poly, loaded, sol)
        if not error <= total:
            raise CheckFailed(f"measured error {error} exceeds certified total {total}")
        return total / error


WORKLOADS = {
    "disk-fine": DiskFine,
    "disk-sweep": DiskSweep,
    "certify-file": CertifyFile,
}
