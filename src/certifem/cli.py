"""Command-line front end.

Exit codes: 0 success, 1 IO/parse failure, 2 validation or configuration
failure, 3 measured error above a certified bound (the one fatal
scientific failure).  Reports are deterministic for a fixed configuration:
keys are sorted and no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import estimator as estmod
from . import fem as femmod
from . import mesh as meshmod
from . import verify as vermod
from .domain import (
    ON_BOUNDARY_TOL,
    ConvexPolygon,
    Disk,
    inscribed_regular_polygon,
    poly_approx_of_polygon,
)
from .errors import BoundViolationError, CertifemError, InvalidPolygonError, MeshParseError
from .interp_constants import STRATEGIES

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BOUND = 3


def _parse_domain(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "disk":
        return Disk(float(arg or 1.0))
    if kind == "polygon":
        if not arg:
            raise CertifemError("polygon domain needs a vertex file: polygon:file.json")
        with open(arg, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not (isinstance(obj, dict) and "vertices" in obj):
            raise InvalidPolygonError(f'{arg}: a polygon file must hold a JSON object with a "vertices" key')
        return ConvexPolygon(obj["vertices"])
    raise CertifemError(f"unknown domain spec {spec!r}")


def _parse_source(spec: str, domain) -> femmod.SourceTerm:
    kind, _, arg = spec.partition(":")
    if kind == "const":
        return femmod.SourceTerm.constant(float(arg or 1.0))
    if kind == "sinsin":
        # its norm metadata holds on the unit square alone, in any vertex order
        v = domain.vertices.tolist() if isinstance(domain, ConvexPolygon) else []
        if len(v) != 4 or any(min(math.dist(c, p) for p in v) > ON_BOUNDARY_TOL for c in ((0, 0), (1, 0), (1, 1), (0, 1))):
            raise CertifemError("sinsin source is defined for the unit-square polygon domain")
        return femmod.SourceTerm.sin_product()
    if kind == "poly":
        coeffs = [float(tok) for tok in arg.split(",")]
        return femmod.SourceTerm.quadratic(coeffs, domain)
    raise CertifemError(f"unknown source spec {spec!r}")


def _meshes(domain, specs, paths):
    """The meshes to run on `domain`, one at a time: a fan for each
    `--generate` spec (disk: "m,refine"; polygon: "refine"), then each
    `--mesh` file, in order; None entries are skipped."""
    specs, paths = [s for s in specs if s], [p for p in paths if p]
    if not (specs or paths):
        raise CertifemError("need either --generate or --mesh")
    disk = isinstance(domain, Disk)
    for spec in specs:
        parts = [int(tok) for tok in spec.split(",")]
        if len(parts) != (2 if disk else 1):
            raise CertifemError("--generate for a disk takes m,refine" if disk else "--generate for a polygon takes refine")
        poly = inscribed_regular_polygon(domain, parts[0]) if disk else poly_approx_of_polygon(domain)
        yield meshmod.generate_fan_refined(poly, parts[-1])
    for path in paths:
        yield meshmod.load(path)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def cmd_mesh(args) -> int:
    if args.mesh_cmd == "gen":
        if args.shape != "regular-polygon":
            raise CertifemError(f"unknown shape {args.shape!r}")
        poly = inscribed_regular_polygon(Disk(args.radius), args.m)
        mesh = meshmod.generate_fan_refined(poly, args.refine)
        meshmod.save(mesh, args.out, args.format)
        return EXIT_OK
    if args.mesh_cmd == "stats":
        mesh = meshmod.load(args.mesh, args.format)
        qual = meshmod.quality(mesh)
        _write_or_print(json.dumps(qual.to_json_dict(), sort_keys=True), args.out)
        return EXIT_OK
    if args.mesh_cmd == "convert":
        mesh = meshmod.load(getattr(args, "in"), args.in_format)
        meshmod.save(mesh, args.out, args.out_format)
        return EXIT_OK
    raise CertifemError(f"unknown mesh subcommand {args.mesh_cmd!r}")


def cmd_certify(args) -> int:
    domain = _parse_domain(args.domain)
    mesh = next(_meshes(domain, [args.generate], [args.mesh]))
    source = _parse_source(args.f, domain)
    bound = estmod.certify(domain, mesh, source, args.fh_mode, args.strategy)
    _write_or_print(bound.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    exact = vermod.registry().get(args.exact)
    if exact is None:
        raise CertifemError(f"unknown exact solution {args.exact!r}; known: {sorted(vermod.registry())}")
    report = vermod.convergence_study(exact, _meshes(exact.domain, args.generate or (), args.mesh or ()))
    _write_or_print(report.to_json(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="certifem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate, inspect, or convert meshes")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_cmd", required=True)
    p_gen = mesh_sub.add_parser("gen")
    p_gen.add_argument("--shape", default="regular-polygon")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--refine", type=int, default=0)
    p_gen.add_argument("--radius", type=float, default=1.0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--format", default=None)
    p_stats = mesh_sub.add_parser("stats")
    p_stats.add_argument("--mesh", required=True)
    p_stats.add_argument("--format", default=None)
    p_stats.add_argument("--out", default=None)
    p_conv = mesh_sub.add_parser("convert")
    p_conv.add_argument("--in", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--in-format", dest="in_format", default=None)
    p_conv.add_argument("--out-format", dest="out_format", default=None)

    p_cert = sub.add_parser("certify", help="emit a certified error-bound report")
    p_cert.add_argument("--domain", required=True, help="disk:RADIUS or polygon:file.json")
    p_cert.add_argument("--generate", default=None, help="disk: m,refine; polygon: refine")
    p_cert.add_argument("--mesh", default=None, help="mesh file (.json or .node) of a polytope inscribed in the domain")
    p_cert.add_argument("--f", default="const:1", help="const:C | sinsin | poly:c0,...,c5")
    p_cert.add_argument("--fh-mode", dest="fh_mode", default="exact", choices=femmod.FH_MODES)
    p_cert.add_argument("--strategy", default="elementwise", choices=STRATEGIES)
    p_cert.add_argument("--out", default=None)

    # no abbreviations, or the removed --m would read as --mesh
    p_ver = sub.add_parser("verify", allow_abbrev=False, help="certify plus an exact solution, one row per mesh")
    p_ver.add_argument("--exact", required=True, help="name of an exact solution in the registry")
    p_ver.add_argument("--generate", action="append", help="repeatable; disk: m,refine; polygon: refine")
    p_ver.add_argument("--mesh", action="append", help="repeatable; mesh file of a polytope inscribed in the domain")
    p_ver.add_argument("--out", default=None)

    return parser


_DISPATCH = {
    "mesh": cmd_mesh,
    "certify": cmd_certify,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except BoundViolationError as exc:
        print(f"BOUND VIOLATED: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (MeshParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CertifemError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
