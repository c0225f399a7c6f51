import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from certifem import cli
from test_mesh import _annulus, _l_shape, _off_circle_fan


def run_cli(*args):
    return cli.main(list(args))


def test_mesh_gen_stats_pipeline(tmp_path):
    out = str(tmp_path / "m8.json")
    assert run_cli("mesh", "gen", "--shape", "regular-polygon", "--m", "8", "--refine", "0", "--out", out) == 0
    stats_path = str(tmp_path / "stats.json")
    assert run_cli("mesh", "stats", "--mesh", out, "--out", stats_path) == 0
    stats = json.load(open(stats_path))
    assert stats["element_count"] == 8
    assert stats["nonblunt"] is True


def test_mesh_stats_right_triangle(tmp_path):
    mesh_path = str(tmp_path / "tri.json")
    json.dump({"dim": 2, "nodes": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2]]}, open(mesh_path, "w"))
    stats_path = str(tmp_path / "s.json")
    assert run_cli("mesh", "stats", "--mesh", mesh_path, "--out", stats_path) == 0
    stats = json.load(open(stats_path))
    assert stats["min_angle"] == pytest.approx(0.7853981633974483, rel=1e-12)


def test_mesh_convert_round_trip(tmp_path):
    src = str(tmp_path / "m6.json")
    assert run_cli("mesh", "gen", "--m", "6", "--refine", "1", "--out", src) == 0
    node = str(tmp_path / "m6.node")
    assert run_cli("mesh", "convert", "--in", src, "--out", node) == 0
    back = str(tmp_path / "back.json")
    assert run_cli("mesh", "convert", "--in", node, "--out", back) == 0
    a = json.load(open(src))
    b = json.load(open(back))
    assert a == b


def test_mesh_io_error_codes(tmp_path):
    assert run_cli("mesh", "stats", "--mesh", str(tmp_path / "missing.json")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("mesh", "stats", "--mesh", str(bad)) == 1


@pytest.mark.parametrize("spec", ["const:nan", "const:inf", "poly:nan,0,0,0,0,0"])
def test_certify_non_finite_source_exits_2(tmp_path, spec):
    report = tmp_path / "report.json"
    rc = run_cli("certify", "--domain", "disk", "--generate", "10,1", "--f", spec, "--out", str(report))
    assert rc == 2
    assert not report.exists()


@pytest.mark.parametrize(
    "spec, mode",
    [("const:1e308", "exact"), ("const:1e200", "exact"), ("const:1e308", "barycentric"), ("const:1e308", "nodal")],
)
def test_certify_overflowing_source_exits_2(tmp_path, capsys, spec, mode):
    report = tmp_path / "report.json"
    rc = run_cli("certify", "--domain", "disk:1", "--generate", "10,1", "--f", spec, "--fh-mode", mode, "--out", str(report))
    assert rc == 2
    assert not report.exists()
    assert "not finite" in capsys.readouterr().err


def test_certify_large_finite_source_certifies(tmp_path):
    report = tmp_path / "report.json"
    assert run_cli("certify", "--domain", "disk:1", "--generate", "10,1", "--f", "const:1e150", "--out", str(report)) == 0
    total = json.loads(report.read_text())["total"]
    assert 1e149 < total < 1e150


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["exact", "barycentric", "nodal"])
def test_certify_quadratic_source_with_overflowing_square_exits_2(tmp_path, capsys, mode):
    """1e200**2 overflows to inf, not to an OverflowError; the finiteness check rejects the bound."""
    report = tmp_path / "report.json"
    args = ["--generate", "10,1", "--f", "poly:0,0,0,1e200,0,0", "--fh-mode", mode, "--out", str(report)]
    assert run_cli("certify", "--domain", "disk:1", *args) == 2
    assert not report.exists()
    assert "not finite" in capsys.readouterr().err


def test_certify_large_quadratic_source_certifies(tmp_path):
    report = tmp_path / "report.json"
    args = ["--generate", "10,1", "--f", "poly:0,0,0,1e150,0,0", "--out", str(report)]
    assert run_cli("certify", "--domain", "disk:1", *args) == 0
    assert math.isfinite(json.loads(report.read_text())["total"])


def _delaunay_disk_mesh(seed=1):
    """Delaunay mesh of 40 points on the unit circle and 200 random points
    inside their 40-gon."""
    from scipy.spatial import Delaunay

    from certifem import build_mesh

    rng = np.random.default_rng(seed)
    t = 2.0 * math.pi * np.arange(40) / 40
    r = 0.95 * math.cos(math.pi / 40) * np.sqrt(rng.random(200))
    a = 2.0 * math.pi * rng.random(200)
    points = np.vstack([np.stack([np.cos(t), np.sin(t)], axis=1), np.stack([r * np.cos(a), r * np.sin(a)], axis=1)])
    return build_mesh(2, points, Delaunay(points).simplices)


@pytest.mark.parametrize("fmt", ["node", "json"])
def test_certify_disk_mesh_file_certifies_and_verifies(tmp_path, fmt):
    """A disk mesh file certifies through the CLI on the polygon its boundary
    makes, and the measured error of that mesh stays below the bound."""
    from certifem import Disk, certify, mesh as meshmod, registry, verify_case

    mesh = _delaunay_disk_mesh()
    path = str(tmp_path / f"delaunay.{fmt}")
    meshmod.save(mesh, path)
    report = tmp_path / "report.json"
    assert run_cli("certify", "--domain", "disk:1", "--mesh", path, "--out", str(report)) == 0
    assert report.read_text() == certify(Disk(1.0), mesh, registry()["disk2d"].f).to_json() + "\n"
    _, measured, certified = verify_case(registry()["disk2d"], meshmod.load(path))
    assert 0.0 < measured <= certified.total
    assert certified.metadata["gap"] == pytest.approx(1.0 - math.cos(math.pi / 40), rel=1e-12)


@pytest.mark.parametrize("out", ["fan.node", "fan.json"])
def test_certify_generated_mesh_file_matches_generate(tmp_path, out):
    """`mesh gen` then `certify --mesh` gives the `--generate` report byte
    for byte: one path, whichever way the mesh arrives."""
    fan, generated, loaded = (str(tmp_path / name) for name in (out, "generated.json", "loaded.json"))
    assert run_cli("mesh", "gen", "--m", "12", "--refine", "2", "--out", fan) == 0
    assert run_cli("certify", "--domain", "disk:1", "--generate", "12,2", "--out", generated) == 0
    assert run_cli("certify", "--domain", "disk:1", "--mesh", fan, "--out", loaded) == 0
    assert open(generated, "rb").read() == open(loaded, "rb").read()


@pytest.mark.parametrize(
    "mesh, domain, reason",
    [
        (lambda: _annulus(hole=True), [[0, 0], [3, 0], [3, 3], [0, 3]], "not one closed loop"),
        (lambda: _annulus(hole=False), [[0, 0], [3, 0], [3, 3], [0, 3]], "not one closed loop"),
        (_l_shape, [[0, 0], [2, 0], [2, 2], [0, 2]], "not convex"),
        (_off_circle_fan, None, "does not lie on the domain boundary"),
    ],
    ids=["hole", "two components", "reentrant corner", "corner off the circle"],
)
def test_certify_mesh_of_no_inscribed_convex_polygon_exits_2(tmp_path, capsys, mesh, domain, reason):
    from certifem import mesh as meshmod

    mesh_path = str(tmp_path / "mesh.node")
    meshmod.save(mesh(), mesh_path)
    spec = "disk:1"
    if domain is not None:
        (tmp_path / "polygon.json").write_text(json.dumps({"vertices": domain}))
        spec = f"polygon:{tmp_path / 'polygon.json'}"
    report = tmp_path / "report.json"
    assert run_cli("certify", "--domain", spec, "--mesh", mesh_path, "--out", str(report)) == 2
    assert reason in capsys.readouterr().err
    assert not report.exists()


def test_certify_3d_mesh_on_polygon_names_both_dimensions(tmp_path, capsys):
    from certifem import mesh as meshmod

    poly_path = str(tmp_path / "sq.json")
    json.dump({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, open(poly_path, "w"))
    mesh_path = str(tmp_path / "tet.node")
    meshmod.save(meshmod.build_mesh(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]]), mesh_path)
    assert run_cli("certify", "--domain", f"polygon:{poly_path}", "--mesh", mesh_path) == 2
    err = capsys.readouterr().err
    assert "3D mesh" in err and "2D polytope" in err


def test_certify_disk_exact_mode(tmp_path):
    report = str(tmp_path / "report.json")
    rc = run_cli(
        "certify", "--domain", "disk:1.0", "--generate", "50,3",
        "--f", "const:1", "--fh-mode", "exact", "--out", report,
    )
    assert rc == 0
    obj = json.load(open(report))
    assert obj["terms"]["source"] == 0.0
    assert obj["terms"]["boundary"] > 0.0
    assert obj["total"] > 0.0


def test_certify_huge_disk_keeps_kobayashi(tmp_path):
    """The Liu and Kobayashi kernels run on elements scaled to unit size: at
    radius 1e70, where the unscaled sixth powers of the edges overflow, the
    element-wise A_h is still the unit disk's times the radius, below the
    circumradius one, and 1e80 certifies with a finite total; no
    RuntimeWarning (an error under the suite's filter) either way."""
    reports = {}
    for radius in ("1", "1e70", "1e80"):
        report = tmp_path / f"disk-{radius}.json"
        assert run_cli("certify", "--domain", f"disk:{radius}", "--generate", "10,1", "--out", str(report)) == 0
        reports[radius] = json.load(open(report))
    unit = reports["1"]["metadata"]["a_h_available"]["elementwise"]
    for radius in ("1e70", "1e80"):
        available = reports[radius]["metadata"]["a_h_available"]
        assert available["elementwise"] == pytest.approx(float(radius) * unit, rel=1e-12)
        assert available["elementwise"] < available["circumradius"]
        assert math.isfinite(reports[radius]["total"])


@pytest.mark.parametrize(
    "radius, reason",
    [("1e150", "certified bound is not finite"), ("1e160", "polytope diameter inf is not finite")],
)
def test_certify_overflowing_disk_exits_2_by_name(capsys, radius, reason):
    """At radius 1e150 the mesh's circumradii stay finite (unit-scaled) and
    the boundary term overflows; at 1e160 the polygon's squared distances
    overflow and are refused as such, not as repeated vertices.  No
    RuntimeWarning (an error under the suite's filter) either way."""
    assert run_cli("certify", "--domain", f"disk:{radius}", "--generate", "10,1") == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["1e-104", "1e-110"])
def test_certify_underflowing_total_exits_2(tmp_path, capsys, radius):
    """A total below the smallest normal double is no certificate: the
    relative rounding guard bounds nothing there (at 1e-104 every term is
    subnormal, at 1e-110 the total is zero)."""
    report = tmp_path / "report.json"
    assert run_cli("certify", "--domain", f"disk:{radius}", "--generate", "10,1", "--out", str(report)) == 2
    assert "below the smallest normal double" in capsys.readouterr().err
    assert not report.exists()


def test_certify_tiny_disk_and_zero_source_still_certify(tmp_path):
    """A zero source certifies a total of exactly 0; at radius 1e-100 the
    total is still normal and scales as R^3 from the unit disk's."""
    totals = {}
    for radius, source in (("1", "const:1"), ("1e-100", "const:1"), ("1", "const:0")):
        report = tmp_path / f"{radius}-{source}.json"
        args = ["--domain", f"disk:{radius}", "--generate", "10,1", "--f", source, "--out", str(report)]
        assert run_cli("certify", *args) == 0
        totals[radius, source] = json.loads(report.read_text())["total"]
    assert totals["1", "const:0"] == 0.0
    assert totals["1e-100", "const:1"] == pytest.approx(1e-300 * totals["1", "const:1"], rel=1e-12)


def test_certify_mesh_whose_measures_overflow_names_the_overflow(tmp_path, capsys):
    """A 4-triangle fan at radius 1e155: the squared edges and measures
    overflow, and the refusal says so, not that an element is inverted."""
    r = 1e155
    mesh_path = tmp_path / "fan.json"
    nodes = [[0.0, 0.0], [r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]]
    mesh_path.write_text(json.dumps({"dim": 2, "nodes": nodes, "elements": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]]}))
    assert run_cli("certify", "--domain", "disk:1e155", "--mesh", str(mesh_path)) == 2
    assert "element 0 measure inf (longest squared edge inf) is not finite" in capsys.readouterr().err


def test_sinsin_is_refused_off_the_unit_square(tmp_path, capsys):
    """sinsin's norm metadata holds on the unit square only: a 3x3 square
    and a unit-area parallelogram exit 2, and the unit square listed
    clockwise from (1, 1) certifies as the counterclockwise file does."""
    polygons = {
        "ccw": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "cw": [[1, 1], [1, 0], [0, 0], [0, 1]],
        "big": [[0, 0], [3, 0], [3, 3], [0, 3]],
        "parallelogram": [[0, 0], [1, 0], [1.5, 1], [0.5, 1]],
    }
    codes = {}
    for name, vertices in polygons.items():
        poly_path = tmp_path / f"{name}.json"
        poly_path.write_text(json.dumps({"vertices": vertices}))
        args = ["--domain", f"polygon:{poly_path}", "--generate", "3", "--f", "sinsin", "--fh-mode", "nodal"]
        codes[name] = run_cli("certify", *args, "--out", str(tmp_path / f"{name}-report.json"))
    assert codes == {"ccw": 0, "cw": 0, "big": 2, "parallelogram": 2}
    assert capsys.readouterr().err.count("sinsin source is defined for the unit-square polygon domain") == 2
    assert (tmp_path / "cw-report.json").read_bytes() == (tmp_path / "ccw-report.json").read_bytes()
    assert not (tmp_path / "big-report.json").exists()


def test_certify_square_polygon(tmp_path):
    poly_path = str(tmp_path / "square.json")
    json.dump({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, open(poly_path, "w"))
    report = str(tmp_path / "report.json")
    rc = run_cli(
        "certify", "--domain", f"polygon:{poly_path}", "--generate", "3",
        "--f", "sinsin", "--fh-mode", "nodal", "--strategy", "nonblunt", "--out", report,
    )
    assert rc == 0
    obj = json.load(open(report))
    assert obj["terms"]["boundary"] == 0.0
    assert obj["terms"]["source"] > 0.0


@pytest.mark.parametrize("step, reason", [(1, "repeated vertices"), (2, "not convex")])
def test_certify_multiply_wound_polygon_exits_2(tmp_path, capsys, step, reason):
    # a doubled pentagon (step 1) and a pentagram (step 2), both winding twice
    turns = np.arange(10 if step == 1 else 5) * step / 5.0
    verts = np.stack([np.cos(2 * math.pi * turns), np.sin(2 * math.pi * turns)], axis=1)
    poly_path = tmp_path / "wound.json"
    poly_path.write_text(json.dumps({"vertices": verts.tolist()}))
    report = tmp_path / "report.json"
    rc = run_cli("certify", "--domain", f"polygon:{poly_path}", "--generate", "1",
                 "--f", "poly:1,0,0,1,0,0", "--out", str(report))
    assert rc == 2
    assert reason in capsys.readouterr().err
    assert not report.exists()


def test_certify_degenerate_polygon_exits_2(tmp_path, capsys):
    poly_path = tmp_path / "flat.json"
    poly_path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0]]}))
    report = tmp_path / "report.json"
    rc = run_cli("certify", "--domain", f"polygon:{poly_path}", "--generate", "1", "--out", str(report))
    assert rc == 2
    assert "degenerate" in capsys.readouterr().err
    assert not report.exists()


def test_certify_nonblunt_on_blunt_mesh_exits_2(tmp_path, capsys):
    rc = run_cli(
        "certify", "--domain", "disk:1.0", "--generate", "3,0",
        "--f", "const:1", "--strategy", "nonblunt",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "element" in err  # diagnostic names the worst element


def test_certify_unknown_strategy_is_refused_before_the_load(tmp_path):
    """argparse refuses the strategy (exit 2) before the missing mesh file
    is opened, which would exit 1."""
    with pytest.raises(SystemExit) as exc:
        run_cli("certify", "--domain", "disk:1", "--mesh", str(tmp_path / "missing.node"), "--strategy", "nope")
    assert exc.value.code == 2


def test_certify_rejects_bad_config():
    assert run_cli("certify", "--domain", "disk:1.0") == 2  # no mesh source
    assert run_cli("certify", "--domain", "blob:1.0", "--generate", "8,0") == 2


def test_verify_square_convergence(tmp_path):
    """One row per `--generate`, in order; the slope of log actual against
    log h is about 2, and every row's ratio is certified / actual > 1."""
    out = str(tmp_path / "v.json")
    assert run_cli("verify", "--exact", "square2d", "--generate", "2", "--generate", "3", "--generate", "4", "--out", out) == 0
    obj = json.load(open(out))
    assert obj["exact"] == "square2d"
    assert 1.8 <= obj["slope"] <= 2.2
    assert [level["nodes"] for level in obj["levels"]] == [41, 145, 545]
    for level in obj["levels"]:
        assert set(level) == {"nodes", "h", "actual", "certified", "ratio", "iterations"}
        assert level["ratio"] == level["certified"]["total"] / level["actual"] > 1.0


def test_verify_disk_single(tmp_path):
    """One mesh: one row, no slope (JSON null)."""
    out = str(tmp_path / "d.json")
    assert run_cli("verify", "--exact", "disk2d", "--generate", "16,2", "--out", out) == 0
    obj = json.load(open(out))
    assert obj["slope"] is None
    (level,) = obj["levels"]
    assert 0.0 < level["actual"] <= level["certified"]["total"]
    assert level["ratio"] > 1.0


# the certify arguments of the same problem as each registry entry, and a
# --generate spec for its domain
CERTIFY_OF_ENTRY = {
    "disk2d": (["--domain", "disk:1", "--f", "const:1"], "12,1"),
    "square2d": (["--domain", "polygon:{square}", "--f", "sinsin"], "2"),
    "square2d-poly": (["--domain", "polygon:{square}", "--f", "poly:0,2,2,-2,0,-2"], "2"),
}


def test_every_registry_entry_has_certify_arguments():
    from certifem import registry

    assert set(CERTIFY_OF_ENTRY) == set(registry())


@pytest.mark.parametrize("entry", sorted(CERTIFY_OF_ENTRY))
def test_verify_every_entry_from_generate_and_mesh_file(tmp_path, entry):
    """`verify` takes certify's mesh inputs: a generated fan and the same fan
    from a `.node` file give the same row, and its `certified` is, byte for
    byte, the `certify` report for the same domain, mesh and source."""
    from certifem import mesh as meshmod
    from certifem import registry

    square = tmp_path / "square.json"
    json.dump({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, open(square, "w"))
    certify_args, spec = CERTIFY_OF_ENTRY[entry]
    certify_args = [arg.format(square=square) for arg in certify_args]
    mesh_path = str(tmp_path / "fan.node")
    meshmod.save(next(cli._meshes(registry()[entry].domain, [spec], [])), mesh_path)
    verified, certified = str(tmp_path / "verify.json"), str(tmp_path / "certify.json")
    assert run_cli("verify", "--exact", entry, "--mesh", mesh_path, "--generate", spec, "--out", verified) == 0
    assert run_cli("certify", *certify_args, "--generate", spec, "--out", certified) == 0
    generated, loaded = json.load(open(verified))["levels"]
    assert generated == loaded
    assert json.dumps(generated["certified"], sort_keys=True) + "\n" == open(certified).read()
    assert 0.0 < generated["actual"] <= generated["certified"]["total"]


def test_verify_an_entry_added_to_the_registry(monkeypatch, tmp_path):
    """`verify` knows no entry by name: a copy of `disk2d` under a new name
    verifies, with the same row."""
    import dataclasses

    known = cli.vermod.registry
    copy = dataclasses.replace(known()["disk2d"], name="disk2d-copy")
    monkeypatch.setattr(cli.vermod, "registry", lambda: {**known(), copy.name: copy})
    reports = {}
    for name in ("disk2d", "disk2d-copy"):
        out = str(tmp_path / f"{name}.json")
        assert run_cli("verify", "--exact", name, "--generate", "10,1", "--out", out) == 0
        reports[name] = json.load(open(out))
    assert reports["disk2d-copy"]["exact"] == "disk2d-copy"
    assert reports["disk2d-copy"]["levels"] == reports["disk2d"]["levels"]


def test_verify_disk_fan_against_the_square_names_a_mesh_node(tmp_path, capsys):
    """The 12-gon's corner (cos 30, sin 30), mesh node 2, lies inside the
    unit square, off its boundary."""
    fan = str(tmp_path / "fan.node")
    assert run_cli("mesh", "gen", "--m", "12", "--refine", "1", "--out", fan) == 0
    assert run_cli("verify", "--exact", "square2d", "--mesh", fan) == 2
    assert "mesh node 2 does not lie on the domain boundary" in capsys.readouterr().err


def test_verify_needs_a_mesh(capsys):
    assert run_cli("verify", "--exact", "disk2d") == 2
    assert "need either --generate or --mesh" in capsys.readouterr().err


@pytest.mark.parametrize("removed", [["--levels", "8,16"], ["--m", "20"], ["--refine", "2"]])
def test_verify_rejects_removed_options(removed):
    """argparse refuses them (exit 2); --m is not read as --mesh."""
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--exact", "disk2d", *removed)
    assert exc.value.code == 2


def test_verify_unknown_exact():
    assert run_cli("verify", "--exact", "nope") == 2


def test_disk_study_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "rows.csv")
    assert run_cli("disk-study", "--m", "10,20", "--csv", csv_path) == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "m,h,A_m,actual,predicted,ratio"
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[5]) > 1.0  # predicted always above actual
    err = capsys.readouterr().err
    assert "reference(delaunay)" in err


def test_disk_study_refine_override_json(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert run_cli("disk-study", "--m", "10,20", "--refine", "1", "--json", str(out)) == 0
    rows = json.loads(out.read_text())
    assert [row["m"] for row in rows] == [10, 20]
    assert [row["refine_levels"] for row in rows] == [1, 1]
    assert capsys.readouterr().out == ""  # with --json, no CSV on stdout


@pytest.mark.parametrize("raw, threads", [(None, 1), ("", 1), ("abc", 1), ("0", 1), ("-3", 1), ("2", 2)])
def test_threads_from_environment(monkeypatch, raw, threads):
    if raw is None:
        monkeypatch.delenv("CERTIFEM_THREADS", raising=False)
    else:
        monkeypatch.setenv("CERTIFEM_THREADS", raw)
    assert cli._threads() == threads


def test_reports_byte_identical(tmp_path):
    r1, r2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (r1, r2):
        assert run_cli("certify", "--domain", "disk:1.0", "--generate", "20,2", "--out", path) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_bound_violation_exit_code(monkeypatch, capsys):
    from certifem import BoundViolationError

    def explode(*args, **kwargs):
        raise BoundViolationError("measured 1.0 exceeds certified 0.5")

    monkeypatch.setattr(cli.vermod, "run_disk_study", explode)
    assert run_cli("disk-study", "--m", "10") == 3
    assert "BOUND VIOLATED" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    out = str(tmp_path / "m5.json")
    proc = subprocess.run(
        [sys.executable, "-m", "certifem.cli", "mesh", "gen", "--m", "5", "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.load(open(out))["dim"] == 2


COLD_START = """
import json, os, sys

def loaded():
    return {name: name in sys.modules for name in ("scipy.sparse", "scipy.linalg")}

import certifem
from certifem import cli

tmp = sys.argv[1]
steps = [("import", 0, loaded())]
for argv in (
    ["certify", "--domain", "disk:1", "--generate", "10,1", "--out", os.path.join(tmp, "exact.json")],
    ["certify", "--domain", "disk:1", "--generate", "10,1", "--fh-mode", "barycentric",
     "--out", os.path.join(tmp, "barycentric.json")],
    ["certify", "--domain", "disk:1", "--generate", "10,1", "--fh-mode", "nodal", "--out", os.path.join(tmp, "nodal.json")],
    ["mesh", "gen", "--m", "12", "--refine", "1", "--out", os.path.join(tmp, "fan.node")],
    ["mesh", "stats", "--mesh", os.path.join(tmp, "fan.node"), "--out", os.path.join(tmp, "stats.json")],
    ["mesh", "convert", "--in", os.path.join(tmp, "fan.node"), "--out", os.path.join(tmp, "fan.json")],
    ["verify", "--exact", "disk2d", "--generate", "20,2", "--out", os.path.join(tmp, "verify.json")],
):
    steps.append((" ".join(argv[:2]), cli.main(argv), loaded()))
print(json.dumps(steps))
"""


def test_cold_start_loads_scipy_only_to_solve(tmp_path):
    """A fresh interpreter runs `import certifem`, `certify` (in each f_h
    mode) and the `mesh` commands without loading scipy.sparse or
    scipy.linalg; `verify`, which solves, loads both (at m=20 the fan's rings
    make line-Jacobi call LAPACK; an m=10 fan has no lines, and its plain
    Jacobi solve needs scipy.sparse only)."""
    import certifem

    src = os.path.dirname(os.path.dirname(certifem.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [step[0] for step in steps] == [
        "import", "certify --domain", "certify --domain", "certify --domain", "mesh gen", "mesh stats", "mesh convert",
        "verify --exact",
    ]
    assert all(code == 0 for _, code, _ in steps)
    for name, _, loaded in steps[:-1]:
        assert loaded == {"scipy.sparse": False, "scipy.linalg": False}, name
    assert steps[-1][2] == {"scipy.sparse": True, "scipy.linalg": True}


@pytest.mark.parametrize("source", ["mesh", "generate"])
def test_certify_checks_mesh_boundary_once(tmp_path, monkeypatch, source):
    """One boundary walk per certify, whichever way the mesh arrives."""
    from certifem import mesh as meshmod

    poly_path = str(tmp_path / "square.json")
    json.dump({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, open(poly_path, "w"))
    args = ["certify", "--domain", f"polygon:{poly_path}", "--out", str(tmp_path / "r.json")]
    if source == "mesh":
        mesh_path = str(tmp_path / "square.node")
        meshmod.save(meshmod.build_mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]), mesh_path)
        args += ["--mesh", mesh_path]
    else:
        args += ["--generate", "1"]
    walks = []
    walk = meshmod._boundary_polytope
    monkeypatch.setattr(meshmod, "_boundary_polytope", lambda mesh: walks.append(mesh) or walk(mesh))
    assert run_cli(*args) == 0
    assert len(walks) == 1


def test_certify_mesh_outside_polygon_exits_2(tmp_path, capsys):
    from certifem import mesh as meshmod

    poly_path = str(tmp_path / "square.json")
    json.dump({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, open(poly_path, "w"))
    # the triangle (0, 0), (0.5, 0), (0, 0.5) is inscribed in the square and
    # certifies; moving its last corner into the square leaves the boundary
    for corner, code in (([0, 0.5], 0), ([0.25, 0.5], 2)):
        mesh_path = str(tmp_path / "small.node")
        meshmod.save(meshmod.build_mesh(2, [[0, 0], [0.5, 0], corner], [[0, 1, 2]]), mesh_path)
        assert run_cli("certify", "--domain", f"polygon:{poly_path}", "--mesh", mesh_path) == code
    assert "mesh node 2 does not lie on the domain boundary" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "nodes",
    [[[0, 0], [1], [0, 1]], [[0, 0], ["a", 0], [0, 1]]],
    ids=["ragged", "non-numeric"],
)
def test_bad_json_mesh_exits_1(tmp_path, capsys, nodes):
    mesh_path = tmp_path / "bad.json"
    mesh_path.write_text(json.dumps({"dim": 2, "nodes": nodes, "elements": [[0, 1, 2]]}))
    assert run_cli("mesh", "stats", "--mesh", str(mesh_path)) == 1
    assert "rectangular numeric array" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_certify_permuted_node_file_exits_1(tmp_path, capsys):
    from certifem import mesh as meshmod

    poly_path = tmp_path / "square.json"
    poly_path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    mesh_path = tmp_path / "square.node"
    nodes = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    square = meshmod.build_mesh(2, nodes, [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    meshmod.save(square, str(mesh_path))
    lines = mesh_path.read_text().splitlines(keepends=True)
    lines[1], lines[5] = lines[5], lines[1]
    mesh_path.write_text("".join(lines))
    assert run_cli("certify", "--domain", f"polygon:{poly_path}", "--mesh", str(mesh_path)) == 1
    assert "the index column must read 1..5 in order" in capsys.readouterr().err


@pytest.mark.parametrize("elements", ["[[true, 0, 2], [1, 2, 3]]", "[[0, 1, 2.5], [0, 2, 3]]"], ids=["boolean", "fractional"])
def test_certify_mesh_with_non_integer_indices_exits_1(tmp_path, capsys, elements):
    poly_path = tmp_path / "square.json"
    poly_path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    mesh_path = tmp_path / "bad.json"
    mesh_path.write_text('{"dim": 2, "nodes": [[0, 0], [1, 0], [1, 1], [0, 1]], "elements": %s}' % elements)
    assert run_cli("certify", "--domain", f"polygon:{poly_path}", "--mesh", str(mesh_path)) == 1
    assert "element indices" in capsys.readouterr().err


def _certified_total(tmp_path, *args):
    report = tmp_path / "report.json"
    assert run_cli("certify", *args, "--out", str(report)) == 0
    return json.loads(report.read_text())["total"]


@pytest.mark.parametrize("radius", [1e-12, 1e-9, 1e-6, 1e4, 1e6, 1e8])
def test_certify_scaled_disk_scales_as_radius_cubed(tmp_path, radius):
    """With f = 1 every term is a length cubed (boundary D |Omega|^(1/2)
    delta, fem A_h^2 ||f_h||), so a disk of radius R certifies R^3 times the
    unit disk's total: the geometric checks must not depend on the scale."""
    unit = _certified_total(tmp_path, "--domain", "disk:1", "--generate", "10,1")
    scaled = _certified_total(tmp_path, "--domain", f"disk:{radius!r}", "--generate", "10,1")
    assert scaled == pytest.approx(radius**3 * unit, rel=1e-12)


SCALED_POLYGONS = {
    "square": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    # a rotated 13-gon: its facet offsets round, unlike the square's
    "13-gon": [[math.cos(0.3 + 2 * math.pi * k / 13), math.sin(0.3 + 2 * math.pi * k / 13)] for k in range(13)],
}


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e8])
@pytest.mark.parametrize("shape", sorted(SCALED_POLYGONS))
def test_certify_scaled_polygon_scales_as_size_cubed(tmp_path, shape, scale):
    totals = []
    for size in (1.0, scale):
        poly_path = tmp_path / "polygon.json"
        poly_path.write_text(json.dumps({"vertices": (size * np.array(SCALED_POLYGONS[shape])).tolist()}))
        totals.append(_certified_total(tmp_path, "--domain", f"polygon:{poly_path}", "--generate", "2"))
    assert totals[1] == pytest.approx(scale**3 * totals[0], rel=1e-12)


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_certify_non_finite_radius_exits_2(capsys, radius):
    assert run_cli("certify", "--domain", f"disk:{radius}", "--generate", "10,1") == 2
    assert f"radius must be positive and finite, got {radius}" in capsys.readouterr().err
