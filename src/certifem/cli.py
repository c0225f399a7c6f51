"""Command-line front end.

Exit codes: 0 success, 1 IO/parse failure, 2 validation or configuration
failure, 3 measured error above a certified bound (the one fatal
scientific failure).  Reports are deterministic for a fixed configuration:
keys are sorted and no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import estimator as estmod
from . import fem as femmod
from . import mesh as meshmod
from . import verify as vermod
from .domain import (
    ConvexPolygon,
    Disk,
    inscribed_regular_polygon,
    poly_approx_of_polygon,
)
from .errors import BoundViolationError, CertifemError, MeshParseError

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BOUND = 3


def _threads() -> int:
    raw = os.environ.get("CERTIFEM_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _parse_domain(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "disk":
        return Disk(float(arg or 1.0))
    if kind == "polygon":
        if not arg:
            raise CertifemError("polygon domain needs a vertex file: polygon:file.json")
        with open(arg, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return ConvexPolygon(obj["vertices"])
    raise CertifemError(f"unknown domain spec {spec!r}")


def _parse_source(spec: str, domain) -> femmod.SourceTerm:
    kind, _, arg = spec.partition(":")
    if kind == "const":
        return femmod.SourceTerm.constant(float(arg or 1.0))
    if kind == "sinsin":
        if not (isinstance(domain, ConvexPolygon) and domain.vertices.shape[0] == 4):
            raise CertifemError("sinsin source is defined for the unit-square polygon domain")
        return femmod.SourceTerm.sin_product()
    if kind == "poly":
        coeffs = [float(tok) for tok in arg.split(",")]
        return femmod.SourceTerm.quadratic(coeffs, domain)
    raise CertifemError(f"unknown source spec {spec!r}")


def _domain_poly_mesh(args):
    domain = _parse_domain(args.domain)
    if args.generate:
        parts = [int(tok) for tok in args.generate.split(",")]
        if isinstance(domain, Disk):
            if len(parts) != 2:
                raise CertifemError("--generate for a disk takes m,refine")
            m, k = parts
            poly = inscribed_regular_polygon(domain, m)
        else:
            if len(parts) != 1:
                raise CertifemError("--generate for a polygon takes refine")
            k = parts[0]
            poly = poly_approx_of_polygon(domain)
        mesh = meshmod.generate_fan_refined(poly, k)
    elif args.mesh:
        if isinstance(domain, Disk):
            raise CertifemError("a disk domain needs --generate m,refine to fix its polygon; to check an "
                                "external m-gon mesh, call certifem.verify.disk_study_row(m, mesh=...)")
        mesh = meshmod.load(args.mesh)
        poly = poly_approx_of_polygon(domain)
    else:
        raise CertifemError("need either --generate or --mesh")
    return domain, poly, mesh


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
    domain, poly, mesh = _domain_poly_mesh(args)
    source = _parse_source(args.f, domain)
    bound = estmod.certify(domain, poly, mesh, source, args.fh_mode, args.strategy)
    _write_or_print(bound.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    reg = vermod.registry()
    if args.exact not in reg:
        raise CertifemError(f"unknown exact solution {args.exact!r}; known: {sorted(reg)}")
    if args.exact == "square2d":
        sizes = [int(tok) for tok in args.levels.split(",")]
        report = vermod.convergence_study(sizes)
        payload = {
            "exact": report.exact,
            "slope": report.slope,
            "levels": [
                {
                    "n": lv.n,
                    "h": lv.h,
                    "actual": lv.error,
                    "certified": lv.closed_form_bound,
                    "ratio": lv.closed_form_bound / lv.error,
                }
                for lv in report.levels
            ],
        }
    else:  # disk2d, the registry's other entry
        row = vermod.disk_study_row(args.m, args.refine)
        payload = {
            "exact": "disk2d",
            "m": row.m,
            "actual": row.actual,
            "predicted": row.predicted,
            "certified": row.certified.total,
            "ratio": row.predicted / row.actual,
        }
    _write_or_print(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def cmd_disk_study(args) -> int:
    m_list = [int(tok) for tok in args.m.split(",")]
    refine_rule = None
    if args.refine is not None:
        fixed = int(args.refine)
        refine_rule = lambda m: fixed  # noqa: E731
    rows = vermod.run_disk_study(m_list, refine_rule=refine_rule, threads=_threads())
    csv_text = vermod.disk_study_csv(rows)
    if args.csv:
        _write_or_print(csv_text, args.csv)
    if args.json:
        _write_or_print(vermod.disk_study_json(rows), args.json)
    if not args.csv and not args.json:
        print(csv_text, end="")
    for row in rows:
        ref = vermod.REFERENCE_DELAUNAY.get(row.m)
        ref_txt = f" reference(delaunay) actual={ref[0]:.4g} predicted={ref[1]:.4g}" if ref else ""
        print(
            f"m={row.m}: actual={row.actual:.6g} predicted={row.predicted:.6g} "
            f"ratio={row.ratio:.3g}{ref_txt}",
            file=sys.stderr,
        )
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
    p_cert.add_argument("--mesh", default=None, help="mesh file (polygon domains)")
    p_cert.add_argument("--f", default="const:1", help="const:C | sinsin | poly:c0,...,c5")
    p_cert.add_argument("--fh-mode", dest="fh_mode", default="exact", choices=femmod.FH_MODES)
    p_cert.add_argument("--strategy", default="elementwise")
    p_cert.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="measured error against certified bounds")
    p_ver.add_argument("--exact", required=True)
    p_ver.add_argument("--levels", default="8,16,32", help="square2d grid sizes")
    p_ver.add_argument("--m", type=int, default=20, help="disk2d polygon resolution")
    p_ver.add_argument("--refine", type=int, default=None, help="disk2d refinement override")
    p_ver.add_argument("--out", default=None)

    p_study = sub.add_parser("disk-study", help="m-gon sweep: measured vs predicted vs certified")
    p_study.add_argument("--m", required=True, help="comma-separated m values")
    p_study.add_argument("--refine", type=int, default=None, help="fixed refinement override")
    p_study.add_argument("--csv", default=None)
    p_study.add_argument("--json", default=None)

    return parser


_DISPATCH = {
    "mesh": cmd_mesh,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "disk-study": cmd_disk_study,
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
