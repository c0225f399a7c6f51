import json
import math
import re
import subprocess
import sys

import pytest

from certifem import cli


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


def test_certify_disk_with_mesh_is_rejected_before_loading(tmp_path, capsys):
    assert run_cli("certify", "--domain", "disk:1", "--mesh", str(tmp_path / "missing.node")) == 2
    assert "--generate" in capsys.readouterr().err


def test_certify_disk_with_mesh_names_only_existing_options(tmp_path, capsys):
    from certifem import mesh as meshmod

    mesh_path = str(tmp_path / "m.json")
    meshmod.save(meshmod.build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]]), mesh_path)
    assert run_cli("certify", "--domain", "disk:1", "--mesh", mesh_path) == 2
    err = capsys.readouterr().err
    assert "disk_study_row" in err
    for opt in re.findall(r"--[a-z][a-z-]*", err):
        cli.build_parser().parse_args(["certify", "--domain", "disk:1", opt, "10,1"])  # unknown: SystemExit


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


def test_certify_nonblunt_on_blunt_mesh_exits_2(tmp_path, capsys):
    rc = run_cli(
        "certify", "--domain", "disk:1.0", "--generate", "3,0",
        "--f", "const:1", "--strategy", "nonblunt",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "element" in err  # diagnostic names the worst element


def test_certify_rejects_bad_config():
    assert run_cli("certify", "--domain", "disk:1.0") == 2  # no mesh source
    assert run_cli("certify", "--domain", "blob:1.0", "--generate", "8,0") == 2


def test_verify_square_convergence(tmp_path):
    out = str(tmp_path / "v.json")
    assert run_cli("verify", "--exact", "square2d", "--levels", "8,16,32", "--out", out) == 0
    obj = json.load(open(out))
    assert 1.8 <= obj["slope"] <= 2.2
    for level in obj["levels"]:
        assert level["ratio"] > 1.0


def test_verify_disk_single(tmp_path):
    out = str(tmp_path / "d.json")
    assert run_cli("verify", "--exact", "disk2d", "--m", "16", "--out", out) == 0
    obj = json.load(open(out))
    assert obj["actual"] <= obj["certified"]
    assert obj["actual"] <= obj["predicted"]
    assert obj["ratio"] > 1.0


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


@pytest.mark.parametrize("source", ["mesh", "generate"])
def test_certify_checks_mesh_boundary_once(tmp_path, monkeypatch, source):
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
    checks = []
    check = meshmod.check_boundary_on_poly
    monkeypatch.setattr(meshmod, "check_boundary_on_poly", lambda *a, **k: checks.append(1) or check(*a, **k))
    assert run_cli(*args) == 0
    assert len(checks) == 1


def test_certify_mesh_outside_polygon_exits_2(tmp_path, capsys):
    from certifem import mesh as meshmod

    poly_path = str(tmp_path / "square.json")
    json.dump({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, open(poly_path, "w"))
    mesh_path = str(tmp_path / "small.node")
    meshmod.save(meshmod.build_mesh(2, [[0, 0], [0.5, 0], [0, 0.5]], [[0, 1, 2]]), mesh_path)
    assert run_cli("certify", "--domain", f"polygon:{poly_path}", "--mesh", mesh_path) == 2
    assert "not contained" in capsys.readouterr().err


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
