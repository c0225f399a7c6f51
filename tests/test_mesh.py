import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from certifem import (
    Disk,
    InvalidPolygonError,
    InvertedElementError,
    MeshParseError,
    NonConformingMeshError,
    NotInscribedError,
    angles,
    build_mesh,
    circumradius,
    gap_delta,
    generate_fan_refined,
    inradius,
    inscribed_regular_polygon,
    load,
    measure_sum,
    poly_approx_of_polygon,
    polytope_of_mesh,
    quality,
    refine_uniform,
    save,
)
from certifem import ConvexPolygon, DegenerateSimplexError, Simplex, measure
from conftest import sample_triangle
from oracles import edge_count, element_metrics

UNIT_SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
UNIT_SQUARE_POLY = poly_approx_of_polygon(UNIT_SQUARE)


def test_single_triangle_boundary():
    mesh = build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert mesh.boundary_nodes.tolist() == [0, 1, 2]
    assert mesh.interior_nodes.size == 0
    assert mesh.boundary_facets.shape == (3, 2)


def test_two_triangles_shared_edge():
    mesh = build_mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
    assert mesh.boundary_nodes.tolist() == [0, 1, 2, 3]
    assert mesh.interior_nodes.size == 0
    assert mesh.boundary_facets.shape[0] == 4


def test_index_out_of_range():
    with pytest.raises(MeshParseError):
        build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 5]])


def test_nonconforming_detection():
    with pytest.raises(NonConformingMeshError):
        build_mesh(
            2,
            [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0]],
            [[0, 1, 2], [1, 3, 2], [1, 4, 2]],
        )


N2 = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [-1, 0], [-1, 1], [2, 1]]
NONCONFORMING = {
    # facet [0, 2] is shared by 3 elements and the later [1, 2] by 4: the message names the most shared
    "2d-most-shared": (2, N2, [[1, 2, 0], [1, 2, 3], [1, 2, 4], [1, 2, 7], [0, 2, 5], [0, 2, 6]], "[1, 2] shared by 4"),
    # [0, 2] and [1, 2] are shared by 3 elements each: the first in sorted order is named
    "2d-tie": (2, N2, [[0, 1, 2], [1, 3, 2], [1, 4, 2], [0, 2, 5], [0, 2, 6]], "[0, 2] shared by 3"),
}


@pytest.mark.parametrize("case", sorted(NONCONFORMING))
def test_nonconforming_message_names_the_facet_and_count(case):
    dim, nodes, elements, named = NONCONFORMING[case]
    with pytest.raises(NonConformingMeshError, match=re.escape(f"facet {named} elements")):
        build_mesh(dim, nodes, elements)


def test_orientation_autofix_and_inverted():
    mesh = build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    verts = mesh.nodes[mesh.elements[0]]
    u, w = verts[1] - verts[0], verts[2] - verts[0]
    assert u[0] * w[1] - u[1] * w[0] > 0
    with pytest.raises(InvertedElementError):
        build_mesh(2, [[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("dim, scale", [(2, 1e155)])
def test_overflowing_measures_are_rejected(dim, scale):
    """Finite coordinates whose closed-form measure overflows (inf - inf is
    NaN) are refused by name, not built with NaN measures."""
    verts = np.array([[0, 0], [1, 0.5], [0.5, 1]])
    with pytest.raises(InvertedElementError, match="is not finite: the coordinates overflow its closed form"):
        build_mesh(dim, scale * verts, [[0, 1, 2]])
    assert build_mesh(dim, 1e-3 * scale * verts, [[0, 1, 2]]).element_count == 1


def test_fan_generator_counts():
    sq = generate_fan_refined(UNIT_SQUARE_POLY, 0)
    assert sq.element_count == 4
    assert sq.node_count == 5
    oct8 = inscribed_regular_polygon(Disk(1.0), 8)
    assert generate_fan_refined(oct8, 2).element_count == 128
    with pytest.raises(InvalidPolygonError):
        generate_fan_refined(oct8, -1)


def test_fan_apex_angles():
    for m in (5, 12):
        poly = inscribed_regular_polygon(Disk(1.0), m)
        mesh = generate_fan_refined(poly, 0)
        for el in mesh.elements:
            verts = mesh.nodes[el]
            tri = Simplex(verts)
            order = [i for i, idx in enumerate(el) if idx == 0]
            apex = angles(tri)[order[0]]
            assert apex == pytest.approx(2 * math.pi / m, rel=1e-12)


def test_quality_single_right_triangle():
    mesh = build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    q = quality(mesh)
    assert q.h == pytest.approx(math.sqrt(2), rel=1e-14)
    assert q.max_circumradius == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert q.min_angle == pytest.approx(math.pi / 4, rel=1e-12)
    assert q.nonblunt is True
    assert q.element_count == 1 and q.node_count == 3


def test_quality_sigma_equilateral():
    mesh = build_mesh(2, [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], [[0, 1, 2]])
    q = quality(mesh)
    assert q.sigma == pytest.approx(1.0 / (2 * 0.2886751345948129), rel=1e-10)
    assert q.sigma == pytest.approx(math.sqrt(3), rel=1e-12)


def test_refinement_halves_scales():
    poly = inscribed_regular_polygon(Disk(1.0), 8)
    mesh = generate_fan_refined(poly, 0)
    fine = refine_uniform(mesh)
    q0, q1 = quality(mesh), quality(fine)
    assert q1.h == pytest.approx(q0.h / 2, rel=1e-14)
    assert q1.max_circumradius == pytest.approx(q0.max_circumradius / 2, rel=1e-12)
    assert q1.min_angle == pytest.approx(q0.min_angle, rel=1e-12)
    assert fine.element_count == 4 * mesh.element_count


def test_refinement_preserves_polygon_and_gap():
    disk = Disk(1.0)
    poly = inscribed_regular_polygon(disk, 10)
    for k in (0, 1, 2):
        mesh = generate_fan_refined(poly, k)
        assert np.array_equal(polytope_of_mesh(disk, mesh).vertices, poly.vertices)
        assert measure_sum(mesh) == pytest.approx(10 / 2 * math.sin(2 * math.pi / 10), rel=1e-13)
    delta, _ = gap_delta(disk, poly)
    assert delta == pytest.approx(1 - math.cos(math.pi / 10), rel=1e-13)


@pytest.mark.parametrize("m", [3, 7, 50])
def test_generated_fan_is_validated_once_and_matches_refine_chain(monkeypatch, m):
    """The generator validates the fan and the final level only, and gives
    the same mesh, bit for bit, as validating every level."""
    from certifem import mesh as meshmod

    poly = inscribed_regular_polygon(Disk(1.0), m)
    v = poly.vertices
    fan_nodes = np.vstack([v.mean(axis=0)[None, :], v])
    fan_elements = [[0, 1 + i, 1 + (i + 1) % m] for i in range(m)]
    calls = []
    build = meshmod.build_mesh
    for k in range(5):
        chain = build_mesh(2, fan_nodes, fan_elements)
        for _ in range(k):
            chain = refine_uniform(chain)
        calls.clear()
        monkeypatch.setattr(meshmod, "build_mesh", lambda *a: calls.append(1) or build(*a))
        got = generate_fan_refined(poly, k)
        monkeypatch.setattr(meshmod, "build_mesh", build)
        assert len(calls) == (2 if k else 1)
        for name in ("nodes", "elements", "boundary_facets", "boundary_nodes"):
            a, b = getattr(got, name), getattr(chain, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert not a.flags.writeable
        assert np.array_equal(got.measures, chain.measures)


def test_refined_meshes_carry_their_levels(tmp_path):
    """`generate_fan_refined(poly, k)` carries k level records and
    `refine_uniform` adds one; the coarse nodes are a prefix of the fine
    ones with the same boundary, and each midpoint lies halfway between its
    parents.  Built, loaded and structured meshes carry none."""
    from oracles import structured_square_mesh

    poly = inscribed_regular_polygon(Disk(1.0), 7)
    meshes = [generate_fan_refined(poly, k) for k in range(4)]
    for k, mesh in enumerate(meshes):
        levels = mesh.hierarchy
        assert len(levels) == k
        for level, (coarse_count, parents) in enumerate(levels):
            coarse = meshes[level]
            assert coarse_count == coarse.node_count
            assert not parents.flags.writeable
            fine_count = meshes[level + 1].node_count
            assert parents.shape == (fine_count - coarse_count, 2)
            assert np.array_equal(mesh.nodes[:coarse_count], coarse.nodes)
            midpoints = 0.5 * (mesh.nodes[parents[:, 0]] + mesh.nodes[parents[:, 1]])
            assert np.array_equal(mesh.nodes[coarse_count:fine_count], midpoints)
            assert np.array_equal(mesh.boundary_nodes[mesh.boundary_nodes < coarse_count], coarse.boundary_nodes)
    refined = refine_uniform(meshes[2])
    assert len(refined.hierarchy) == 3
    for (c1, p1), (c2, p2) in zip(refined.hierarchy, meshes[3].hierarchy):
        assert c1 == c2 and np.array_equal(p1, p2)

    path = str(tmp_path / "fan.node")
    save(meshes[3], path)
    assert load(path).hierarchy == ()
    assert structured_square_mesh(4).hierarchy == ()
    assert build_mesh(2, meshes[3].nodes, meshes[3].elements).hierarchy == ()
    assert len(refine_uniform(load(path)).hierarchy) == 1


def test_refined_meshes_equal_their_rebuild_but_for_levels(tmp_path):
    """Attaching the levels changes nothing else: every other field of a
    generated or refined mesh is, bit for bit, the field of
    `build_mesh(2, mesh.nodes, mesh.elements)`, and every array field is
    read-only, the levels' parents included."""
    path = str(tmp_path / "fan.node")
    save(generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 1), path)
    meshes = [generate_fan_refined(inscribed_regular_polygon(Disk(1.0), m), k) for m in (10, 50) for k in (0, 3)]
    for mesh in [*meshes, refine_uniform(load(path))]:
        rebuilt = build_mesh(2, mesh.nodes, mesh.elements)
        for f in dataclasses.fields(mesh):
            if f.name in ("hierarchy", "_cache"):
                continue
            a, b = getattr(mesh, f.name), getattr(rebuilt, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
                assert not a.flags.writeable, f.name
            else:
                assert a == b, f.name
        assert all(not parents.flags.writeable for _, parents in mesh.hierarchy)
    assert [len(mesh.hierarchy) for mesh in meshes] == [0, 3, 0, 3]


def test_meshes_compare_by_identity():
    """`==` between meshes is identity, without comparing their arrays, and
    a mesh hashes, so it can key a dict."""
    fan = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 10), 1)
    rebuilt = build_mesh(2, fan.nodes, fan.elements)
    assert fan == fan and not (fan != fan)
    assert fan != rebuilt and not (fan == rebuilt)
    table = {fan: "fan", rebuilt: "rebuilt"}
    assert table[fan] == "fan" and table[rebuilt] == "rebuilt"


def test_euler_formula():
    for m, k in ((6, 0), (9, 1), (12, 2)):
        mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), m), k)
        assert mesh.node_count - edge_count(mesh) + mesh.element_count == 1


def test_json_round_trip(tmp_path):
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 8), 1)
    path = str(tmp_path / "m8.json")
    save(mesh, path)
    loaded = load(path)
    assert np.array_equal(loaded.nodes, mesh.nodes)
    assert np.array_equal(loaded.elements, mesh.elements)
    assert quality(loaded) == quality(mesh)


def test_node_ele_round_trip(tmp_path):
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 8), 1)
    base = str(tmp_path / "m8")
    save(mesh, base, "node_ele")
    loaded = load(base + ".node")
    assert np.array_equal(loaded.nodes, mesh.nodes)
    assert np.array_equal(loaded.elements, mesh.elements)
    assert loaded.boundary_nodes.tolist() == mesh.boundary_nodes.tolist()
    # node file carries 1-based indices and boundary markers
    first = open(base + ".node").read().splitlines()
    assert first[0].split() == [str(mesh.node_count), "2", "0", "1"]
    assert first[1].split()[0] == "1"


def test_save_unwritable_path():
    mesh = build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    with pytest.raises(OSError):
        save(mesh, "/nonexistent-dir/mesh.json")


def test_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MeshParseError):
        load(str(bad))
    short = tmp_path / "short.node"
    short.write_text("5 2 0 1\n1 0.0 0.0 1\n")
    with pytest.raises(MeshParseError):
        load(str(short))
    out_of_range = tmp_path / "oor.json"
    out_of_range.write_text('{"dim": 2, "nodes": [[0,0],[1,0],[0,1]], "elements": [[0,1,5]]}')
    with pytest.raises(MeshParseError):
        load(str(out_of_range))


def test_element_metrics_match_scalar_geometry(rng):
    tris = [sample_triangle(rng) for _ in range(12)]
    nodes = np.vstack([t.vertices for t in tris])
    elements = np.arange(len(tris) * 3).reshape(-1, 3)
    mesh = build_mesh(2, nodes, elements)
    em = element_metrics(mesh)
    for i in range(mesh.element_count):
        t = Simplex(mesh.nodes[mesh.elements[i]])
        assert em.circumradius[i] == pytest.approx(circumradius(t), rel=1e-10)
        assert em.inradius[i] == pytest.approx(inradius(t), rel=1e-12)
        assert em.min_angle[i] == pytest.approx(min(angles(t)), rel=1e-10)



def test_2d_element_metrics_gather_no_vertices(monkeypatch):
    """The 2D metric blocks that `quality` and `mesh_constants` reduce read
    the cached measures and squared edges and gather no vertices."""
    import dataclasses

    from certifem import geometry
    from certifem import mesh as meshmod
    from certifem.geometry import vertex_metrics
    from certifem.mesh import SimplicialMesh

    kernel_calls = []
    kernel = geometry._element_geometry
    monkeypatch.setattr(meshmod, "_element_geometry", lambda *a: kernel_calls.append(a) or kernel(*a))
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 9), 2)
    assert len(kernel_calls) == 2  # the fan, then the refined mesh
    verts = mesh.element_vertices()
    gathers = []
    gather = SimplicialMesh.element_vertices
    monkeypatch.setattr(SimplicialMesh, "element_vertices", lambda self: gathers.append(self) or gather(self))
    blocks = list(meshmod._metric_blocks(mesh))
    em = type(blocks[0])(*(np.concatenate([getattr(b, f.name) for b in blocks]) for f in dataclasses.fields(blocks[0])))
    assert gathers == [] and len(kernel_calls) == 2
    # bit for bit the metrics of the gathered vertices
    signed, edge_sq = geometry._vertex_geometry(verts)
    ref = vertex_metrics(np.abs(signed), edge_sq)
    for f in dataclasses.fields(em):
        assert np.array_equal(getattr(em, f.name), getattr(ref, f.name)), f.name


@pytest.mark.parametrize("dim", [2])
def test_build_mesh_uses_no_lapack_and_gathers_no_vertices(monkeypatch, dim):
    from certifem.mesh import SimplicialMesh

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(SimplicialMesh, "element_vertices", refuse)
    mesh = _jittered_square(6, seed=3)
    # inverted elements too, so the orientation fix runs
    elements = np.array(mesh.elements)
    flip = np.arange(mesh.element_count) % 3 == 0
    elements[flip, -2:] = elements[flip, :-3:-1]
    build_mesh(dim, mesh.nodes, elements)


@pytest.mark.parametrize("dim", [2])
def test_orientation_fix_negates_measures_and_permutes_edges(dim):
    """Swapping back the last two corners of inverted elements gives the
    measures and squared edges of the positively oriented input bit for
    bit."""
    mesh = _jittered_square(6, seed=3)
    elements = np.array(mesh.elements)
    flip = np.random.default_rng(2).random(mesh.element_count) < 0.5
    elements[flip, -2:] = elements[flip, :-3:-1]
    fixed = build_mesh(dim, mesh.nodes, elements)
    assert np.array_equal(fixed.elements, mesh.elements)
    assert np.array_equal(fixed.measures, mesh.measures)
    assert np.array_equal(element_metrics(fixed).edge_sq, element_metrics(mesh).edge_sq)


# ---------------------------------------------------------------------------
# integer-key dedupe against np.unique(axis=0)


def _jittered_square(n, seed):
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b, c, d = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel(), idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    elements = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])
    interior = ((nodes > 0.0) & (nodes < 1.0)).all(axis=1)
    nodes[interior] += (0.15 / n) * np.random.default_rng(seed).choice([-1.0, 1.0], (int(interior.sum()), 2))
    return build_mesh(2, nodes, elements)


KEY_DEDUPE_MESHES = {
    "fan": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 7), 2),
    "fan-3-4": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 3), 4),
    "jittered": lambda: _jittered_square(6, seed=3),
    "refined-jittered": lambda: refine_uniform(refine_uniform(_jittered_square(5, seed=6))),
}


@pytest.mark.parametrize("name", sorted(KEY_DEDUPE_MESHES))
def test_key_dedupe_matches_row_unique(name):
    from certifem import mesh as meshmod

    mesh = KEY_DEDUPE_MESHES[name]()
    el = mesh.elements
    pairs = np.sort(np.concatenate([el[:, [0, 1]], el[:, [1, 2]], el[:, [0, 2]]]), axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    assert counts.max() == 2 and np.any(counts == 1)
    np.testing.assert_array_equal(mesh.boundary_facets, uniq[counts == 1])
    np.testing.assert_array_equal(mesh.boundary_nodes, np.unique(uniq[counts == 1]))
    assert mesh.boundary_facets.dtype == mesh.boundary_nodes.dtype == np.int64
    assert edge_count(mesh) == uniq.shape[0]

    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    fine = refine_uniform(mesh)
    mid = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    np.testing.assert_array_equal(fine.nodes, np.vstack([mesh.nodes, mid]))
    m01, m12, m02 = (inverse.reshape(3, -1) + mesh.node_count)
    np.testing.assert_array_equal(fine.elements[3 * mesh.element_count :], np.stack([m01, m12, m02], axis=1))
    coarse_count, parents = fine.hierarchy[-1]
    assert coarse_count == mesh.node_count
    assert parents.dtype == np.int32 and np.array_equal(parents, uniq)


def test_key_dedupe_overflow_guard():
    from certifem.mesh import _decode, _keys

    with pytest.raises(MeshParseError, match=r"2\*\*63"):
        _keys(np.array([[0, 1]], dtype=np.int64), 2**32, [(0, 1)])
    with pytest.raises(MeshParseError, match=r"2\*\*63"):
        _keys(np.array([[0, 1]], dtype=np.int64), 3_037_000_500, [(0, 1)])
    # the largest admissible base, floor(2**31.5), still decodes its largest key exactly
    n = 3_037_000_499
    top = np.array([[n - 1] * 2, [0, 1], [n - 1] * 2], dtype=np.int64)
    uniq, counts = np.unique(_keys(top, n, [(0, 1)]), return_counts=True)
    np.testing.assert_array_equal(_decode(uniq, n), top[1:])
    assert counts.tolist() == [1, 2]


# ---------------------------------------------------------------------------
# .node/.ele reader and writer


def _node_ele_lines(mesh):
    """Clean Triangle-style lines, 1-based, as `save` writes them."""
    node = [f"{mesh.node_count} 2 0 0"] + [f"{i + 1} {x!r} {y!r}" for i, (x, y) in enumerate(mesh.nodes.tolist())]
    ele = [f"{mesh.element_count} 3 0"] + [f"{i + 1} {a + 1} {b + 1} {c + 1}" for i, (a, b, c) in enumerate(mesh.elements.tolist())]
    return node, ele


def _write_node_ele(tmp_path, name, node_lines, ele_lines):
    base = tmp_path / name
    (tmp_path / f"{name}.node").write_text("".join(line + "\n" for line in node_lines))
    (tmp_path / f"{name}.ele").write_text("".join(line + "\n" for line in ele_lines))
    return str(base) + ".node"


def _assert_same_mesh(a, b):
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.boundary_facets, b.boundary_facets)


@pytest.mark.filterwarnings("error")
def test_node_ele_reader_skips_comments_extra_columns_and_trailing_lines(tmp_path):
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 6), 1)
    node, ele = _node_ele_lines(mesh)
    clean = load(_write_node_ele(tmp_path, "clean", node, ele))
    _assert_same_mesh(clean, mesh)

    messy_node = ["# Triangle node file", "", f"  {mesh.node_count} 2 1 1   # one attribute, one marker"]
    for i, line in enumerate(node[1:]):
        messy_node.append(f"{line}\t0.5 {i % 2}  # attribute and marker")
        if i % 3 == 0:
            messy_node += ["# comment inside the body", "   "]
    messy_node += ["1 not read", "# trailing comment"]
    messy_ele = ["", f"{mesh.element_count} 3 1 # region attribute"]
    for line in ele[1:]:
        messy_ele += [f"{line} 7", ""]
    messy_ele += ["extra line past the count"]
    _assert_same_mesh(load(_write_node_ele(tmp_path, "messy", messy_node, messy_ele)), clean)


def _swap_node_lines(node, i, j):
    node = list(node)
    node[1 + i], node[1 + j] = node[1 + j], node[1 + i]
    return node


BAD_NODE_ELE = {
    "empty node file": lambda node, ele: ([], ele, ".node"),
    "header without width": lambda node, ele: ([node[0].split()[0]] + node[1:], ele, ".node"),
    "short node file": lambda node, ele: (node[:-1], ele, ".node"),
    "short element file": lambda node, ele: (node, ele[:-1], ".ele"),
    "non-numeric coordinate": lambda node, ele: (node[:3] + [node[3].replace(" ", " x", 1)] + node[4:], ele, ".node"),
    "non-numeric corner": lambda node, ele: (node, ele[:2] + [ele[2] + "q"] + ele[3:], ".ele"),
    "missing coordinate": lambda node, ele: (node[:2] + [node[2].rsplit(" ", 1)[0]] + node[3:], ele, ".node"),
    "wrong corner count": lambda node, ele: (node, [ele[0].replace(" 3 ", " 4 ")] + ele[1:], ".ele"),
    "zero node count": lambda node, ele: (["0 2 0 0"], ele, ".node"),
    "unsupported dimension": lambda node, ele: ([node[0].replace(" 2 ", " 4 ")] + node[1:], ele, ".node"),
    # nodes 0 (the fan centre) and 7 (a spoke midpoint) are interior, 1 and 2 are corners
    "permuted interior lines": lambda node, ele: (_swap_node_lines(node, 0, 7), ele, ".node"),
    "permuted boundary lines": lambda node, ele: (_swap_node_lines(node, 1, 2), ele, ".node"),
    "zero-based index": lambda node, ele: (
        node[:1] + [f"{i} {line.split(' ', 1)[1]}" for i, line in enumerate(node[1:])],
        ele,
        ".node",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_NODE_ELE))
def test_node_ele_reader_rejects(tmp_path, case):
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 6), 1)
    node, ele, culprit = BAD_NODE_ELE[case](*_node_ele_lines(mesh))
    path = _write_node_ele(tmp_path, "bad", node, ele)
    with pytest.raises(MeshParseError, match=re.escape(str(tmp_path / "bad") + culprit)):
        load(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "nodes, elements",
    [
        ([[0, 0], [1], [0, 1]], [[0, 1, 2]]),
        ([[0, 0], ["a", 0], [0, 1]], [[0, 1, 2]]),
        ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1]]),
        ([[0, 0], [1, 0], [0, 1]], [[0, 1, "b"]]),
        ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2**70]]),
    ],
)
def test_build_mesh_rejects_ragged_or_non_numeric(tmp_path, nodes, elements):
    with pytest.raises(MeshParseError, match="rectangular numeric array"):
        build_mesh(2, nodes, elements)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "nodes": nodes, "elements": elements}))
    with pytest.raises(MeshParseError):
        load(str(path))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "elements",
    [[[0.9, 1.5, 2.7]], [[0.0, 1.0, 2.5]], [[True, False, True]], [[float("nan"), 1.0, 2.0]], [[1e300, 1.0, 2.0]]],
    ids=["fractional", "one-fractional", "boolean", "nan", "huge"],
)
def test_build_mesh_rejects_non_integer_indices(elements):
    with pytest.raises(MeshParseError, match="element indices"):
        build_mesh(2, [[0, 0], [1, 0], [0, 1]], elements)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "elements",
    [[[0, 1, 2]], [[0.0, 1.0, 2.0]], np.array([[0, 1, 2]], dtype=np.int32), np.array([[0, 1, 2]], dtype=np.uint8)],
    ids=["list", "integral-floats", "int32", "uint8"],
)
def test_build_mesh_accepts_integral_indices(elements):
    mesh = build_mesh(2, [[0, 0], [1, 0], [0, 1]], elements)
    assert mesh.elements.dtype == np.int64
    assert mesh.elements.tolist() == [[0, 1, 2]]


def test_json_load_rejects_boolean_indices(tmp_path):
    # numpy reads [true, 0, 2] as [1, 0, 2], a valid triangle
    assert np.array([[True, 0, 2]]).tolist() == [[1, 0, 2]]
    path = tmp_path / "bool.json"
    path.write_text('{"dim": 2, "nodes": [[0, 0], [1, 0], [0, 1]], "elements": [[true, 0, 2]]}')
    with pytest.raises(MeshParseError, match="true/false"):
        load(str(path))


@pytest.mark.filterwarnings("error")
def test_node_ele_round_trip_is_bit_exact(tmp_path):
    mesh = _jittered_square(32, seed=5)
    save(mesh, str(tmp_path / "sq"), "node_ele")
    loaded = load(str(tmp_path / "sq.node"))
    _assert_same_mesh(loaded, mesh)
    assert loaded.nodes.tobytes() == mesh.nodes.tobytes()


def test_node_ele_save_bytes(tmp_path):
    mesh = build_mesh(2, [[0, 0], [1, 0], [1, 1], [0.1, 1]], [[0, 1, 2], [0, 2, 3]])
    save(mesh, str(tmp_path / "two.node"))
    assert (tmp_path / "two.node").read_bytes() == (
        b"4 2 0 1\n1 0 0 1\n2 1 0 1\n3 1 1 1\n4 0.10000000000000001 1 1\n"
    )
    assert (tmp_path / "two.ele").read_bytes() == b"2 3 0\n1 1 2 3\n2 1 3 4\n"


def _row_by_row_node_ele(mesh):
    """`.node` and `.ele` bytes formatted by one `%` per row."""
    marker = np.zeros(mesh.node_count, dtype=int)
    marker[mesh.boundary_nodes] = 1
    node_fmt = "%d" + " %.17g" * mesh.dim + " %d\n"
    node = f"{mesh.node_count} {mesh.dim} 0 1\n" + "".join(
        node_fmt % (i + 1, *x, b) for i, (x, b) in enumerate(zip(mesh.nodes.tolist(), marker.tolist()))
    )
    ele_fmt = " ".join(["%d"] * (mesh.dim + 2)) + "\n"
    ele = f"{mesh.element_count} {mesh.dim + 1} 0\n" + "".join(
        ele_fmt % (i + 1, *(c + 1 for c in row)) for i, row in enumerate(mesh.elements.tolist())
    )
    return node.encode(), ele.encode()


@pytest.mark.parametrize("chunk", [5, 100, None], ids=["chunk-5", "chunk-100", "default"])
def test_node_ele_writer_matches_row_by_row_formatting(tmp_path, monkeypatch, chunk):
    """The writer formats a chunk of rows per `%`; over several full chunks
    and a partial one its files equal one `%` per row, byte for byte."""
    from certifem import mesh as meshmod

    if chunk is not None:
        monkeypatch.setattr(meshmod, "_WRITE_CHUNK", chunk)
    size = meshmod._WRITE_CHUNK
    mesh = _jittered_square(48, seed=2)
    for count in (mesh.node_count, mesh.element_count):
        assert count > 2 * size and count % size
    save(mesh, str(tmp_path / "m.node"))
    node, ele = _row_by_row_node_ele(mesh)
    assert (tmp_path / "m.node").read_bytes() == node
    assert (tmp_path / "m.ele").read_bytes() == ele


@pytest.mark.parametrize("chunk", [5, 100, None], ids=["chunk-5", "chunk-100", "default"])
def test_json_writer_matches_json_dump(tmp_path, monkeypatch, chunk):
    """The JSON writer streams _WRITE_CHUNK rows per `json.dumps`; over
    several full chunks and a partial one its file equals one `json.dump`
    of the whole mesh, byte for byte."""
    from certifem import mesh as meshmod

    if chunk is not None:
        monkeypatch.setattr(meshmod, "_WRITE_CHUNK", chunk)
    size = meshmod._WRITE_CHUNK
    mesh = _jittered_square(48, seed=2)
    assert mesh.node_count > 2 * size and mesh.node_count % size
    save(mesh, str(tmp_path / "m.json"))
    obj = {"dim": 2, "nodes": mesh.nodes.tolist(), "elements": mesh.elements.tolist()}
    assert (tmp_path / "m.json").read_text() == json.dumps(obj, separators=(",", ":")) + "\n"


def _traced_peak(run):
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def square256():
    """131,072 triangles; building it also warms up every `build_mesh` path."""
    return _jittered_square(256, seed=1)


def test_build_mesh_temporaries_are_bounded(square256):
    """Beyond its outputs, `build_mesh` allocates at most 40 bytes per
    triangle: one int64 key per facet (24 B) and byte masks over the keys,
    with per-block scratch elsewhere."""
    mesh, peak = _traced_peak(lambda: build_mesh(2, square256.nodes, square256.elements))
    outputs = (mesh.nodes, mesh.elements, mesh.boundary_facets, mesh.boundary_nodes, mesh.measures, mesh.edge_sq)
    assert mesh.element_count >= 100_000
    assert peak - sum(a.nbytes for a in outputs) <= 40 * mesh.element_count


def test_save_streams_in_bounded_memory(tmp_path, square256):
    """`save` holds one chunk of formatted rows at a time, never the file:
    under 8 MiB for the .node/.ele files of 131,072 triangles (a whole-file
    writer takes 30 MiB), and under 1 MiB for the JSON of 8,192 (2 MiB)."""
    for mesh, fmt, limit in ((square256, "node_ele", 8), (_jittered_square(64, seed=1), "json", 1)):
        _, peak = _traced_peak(lambda: save(mesh, str(tmp_path / "sq"), fmt))
        assert peak <= limit * 2**20, fmt


# ---------------------------------------------------------------------------
# boundary containment against the per-facet loop it replaced


def _first_facet_outside(mesh, poly, tol=1e-10):
    for facet in mesh.boundary_facets:
        dist = mesh.nodes[facet] @ poly.normals.T - poly.offsets
        if not np.all(np.abs(dist) <= tol, axis=0).any():
            return facet.tolist()
    return None


def _square_with_right_side_at(x):
    mesh = _jittered_square(8, seed=1)
    nodes = mesh.nodes.copy()
    nodes[nodes[:, 0] == 1.0, 0] = x
    return build_mesh(2, nodes, mesh.elements)


HEPTAGON = inscribed_regular_polygon(Disk(1.0), 7)
# mesh, domain, the polytope the mesh was made for, and what `polytope_of_mesh`
# gives: that polytope ("same"), a different one ("other") or an error
BOUNDARY_CASES = {
    "fan inside": (lambda: generate_fan_refined(HEPTAGON, 2), Disk(1.0), HEPTAGON, "same"),
    "fan in a different polygon": (
        lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 14), 1), Disk(1.0), HEPTAGON, "other",
    ),
    "square inside": (lambda: _jittered_square(8, seed=1), UNIT_SQUARE, UNIT_SQUARE_POLY, "same"),
    "square within tolerance": (
        lambda: _square_with_right_side_at(1.0 + 5e-11), UNIT_SQUARE, UNIT_SQUARE_POLY, "same",
    ),
    "square side outside": (
        lambda: _square_with_right_side_at(1.0 + 1e-9), UNIT_SQUARE, UNIT_SQUARE_POLY, NotInscribedError,
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_check_boundary_on_poly_matches_facet_loop(case):
    """The mesh's own polytope agrees with a loop over the facets of the
    polytope the mesh was made for: it is that polytope (within the
    boundary tolerance) where every boundary facet lies in one of its
    facets, and otherwise another polytope or refused."""
    build, dom, poly, expected = BOUNDARY_CASES[case]
    mesh = build()
    first = _first_facet_outside(mesh, poly)
    assert (first is None) == (expected == "same")
    if expected == NotInscribedError:
        with pytest.raises(NotInscribedError):
            polytope_of_mesh(dom, mesh)
        return
    derived = polytope_of_mesh(dom, mesh)
    same = derived.vertices.shape == poly.vertices.shape and np.abs(derived.vertices - poly.vertices).max() <= 1e-10
    assert same == (expected == "same")
    if same:
        assert sorted(map(sorted, derived.facets.tolist())) == sorted(map(sorted, poly.facets.tolist()))
        assert derived.gap == pytest.approx(poly.gap, abs=1e-10)


@pytest.mark.parametrize("m", [3, 4, 7, 12, 50])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_polytope_of_a_fan_is_its_polygon_bit_for_bit(m, k):
    """A refined fan's corners are the generating polygon's vertices, in its
    order, so its polytope equals the polygon in every array and its gap."""
    poly = inscribed_regular_polygon(Disk(1.0), m)
    _assert_same_polytope(polytope_of_mesh(Disk(1.0), generate_fan_refined(poly, k)), poly)


@pytest.mark.parametrize("n", [1, 8, 64])
def test_polytope_of_a_structured_square_is_the_square_bit_for_bit(n):
    from oracles import structured_square_mesh

    _assert_same_polytope(polytope_of_mesh(UNIT_SQUARE, structured_square_mesh(n)), UNIT_SQUARE_POLY)
    _assert_same_polytope(polytope_of_mesh(UNIT_SQUARE, _jittered_square(n, seed=n)), UNIT_SQUARE_POLY)


def _assert_same_polytope(got, want):
    for name in ("vertices", "facets", "normals", "offsets", "gap_per_facet"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.gap == want.gap


def test_polytope_corners_run_counterclockwise_from_the_lowest_node():
    """Whatever the numbering and the orientation of the node order, the
    corners start at the corner with the lowest node index and run
    counterclockwise; nodes on the edges are merged away."""
    mesh = _jittered_square(4, seed=2)
    for order in (np.arange(mesh.node_count)[::-1], np.random.default_rng(3).permutation(mesh.node_count)):
        inverse = np.argsort(order)
        renumbered = build_mesh(2, mesh.nodes[order], inverse[mesh.elements])
        corners = np.flatnonzero(((renumbered.nodes == 0.0) | (renumbered.nodes == 1.0)).all(axis=1))
        got = polytope_of_mesh(UNIT_SQUARE, renumbered).vertices
        assert np.array_equal(got[0], renumbered.nodes[corners.min()])
        start = [[0, 0], [1, 0], [1, 1], [0, 1]].index(got[0].tolist())
        assert got.tolist() == np.roll(UNIT_SQUARE_POLY.vertices, -start, axis=0).tolist()


def _annulus(hole: bool):
    """A 3 x 3 grid of unit cells on [0, 3]^2 without its middle cell (a
    hole), or without the middle column (two components)."""
    nodes = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
    cells = [(i, j) for i in range(3) for j in range(3) if ((i, j) != (1, 1) if hole else i != 1)]
    elements = []
    for i, j in cells:
        a, b, c, d = 4 * i + j, 4 * (i + 1) + j, 4 * (i + 1) + j + 1, 4 * i + j + 1
        elements += [[a, b, c], [a, c, d]]
    return build_mesh(2, nodes, elements)


def _l_shape():
    """An L in [0, 2]^2 whose corner at (1, 1) is reentrant."""
    nodes = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2], [1, 0], [0, 1]]
    return build_mesh(2, nodes, [[0, 6, 3], [6, 1, 2], [6, 2, 3], [0, 3, 7], [7, 3, 4], [7, 4, 5]])


def _off_circle_fan():
    """A fan of four corners on the unit circle but one, at radius 0.9."""
    return build_mesh(2, [[0, 0], [1, 0], [0, 0.9], [-1, 0], [0, -1]], [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])


SQUARE3 = ConvexPolygon([[0, 0], [3, 0], [3, 3], [0, 3]])


@pytest.mark.parametrize(
    "mesh, dom, error, message",
    [
        (lambda: _annulus(hole=True), SQUARE3, InvalidPolygonError, "not one closed loop"),
        (lambda: _annulus(hole=False), SQUARE3, InvalidPolygonError, "not one closed loop"),
        # two triangles that share one node: four boundary edges meet there
        (lambda: build_mesh(2, [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]], [[0, 1, 2], [2, 3, 4]]),
         SQUARE3, InvalidPolygonError, "node 2 has 4 boundary edges"),
        (_l_shape, ConvexPolygon([[0, 0], [2, 0], [2, 2], [0, 2]]), InvalidPolygonError, "not convex"),
        (_off_circle_fan, Disk(1.0), NotInscribedError, "mesh node 2 does not lie on the domain boundary"),
    ],
    ids=["hole", "two components", "pinched", "reentrant", "corner off the circle"],
)
def test_polytope_of_mesh_refuses_meshes_of_no_inscribed_convex_polygon(mesh, dom, error, message):
    with pytest.raises(error, match=message):
        polytope_of_mesh(dom, mesh())


def test_polytope_of_mesh_checks_each_merged_node_against_its_edge():
    """On a 200 x 1 strip whose bottom bulges out by 1e-8, each bottom node
    lies within 1e-12 of the line through its neighbours and is merged, but
    the merged nodes lie up to 1e-8 off the bottom edge between the two
    corners, node 1 already 1.99e-10, more than 1e-10 times the diagonal:
    refused, as their facets lie in no facet of the square."""
    n = 200
    xs = np.linspace(0.0, 1.0, n + 1)
    bottom = np.stack([xs, -4e-8 * xs * (1.0 - xs)], axis=1)
    top = np.stack([xs, np.ones_like(xs)], axis=1)
    nodes = np.vstack([bottom, top])
    i = np.arange(n)
    elements = np.concatenate([np.stack([i, i + 1, n + 2 + i], axis=1), np.stack([i, n + 2 + i, n + 1 + i], axis=1)])
    mesh = build_mesh(2, nodes, elements)
    with pytest.raises(NotInscribedError, match="boundary node 1 lies 1.990e-10 off the polytope edge from node 0 to node 200"):
        polytope_of_mesh(UNIT_SQUARE, mesh)


def test_polytope_of_mesh_keeps_the_corners_and_revalidates_for_another_domain(monkeypatch):
    """`verify_case` and the `certify` inside it share one validation: the
    polytope is kept with the domain object it was validated for, and only
    another domain object runs `make_poly_approx` again (never the walk)."""
    from certifem import mesh as meshmod

    walks, makes = [], []
    walk, make = meshmod._boundary_polytope, meshmod.make_poly_approx
    monkeypatch.setattr(meshmod, "_boundary_polytope", lambda m: walks.append(m) or walk(m))
    monkeypatch.setattr(meshmod, "make_poly_approx", lambda *a: makes.append(a) or make(*a))
    mesh = generate_fan_refined(HEPTAGON, 1)
    disk = Disk(1.0)
    first = polytope_of_mesh(disk, mesh)
    assert polytope_of_mesh(disk, mesh) is first
    assert (len(walks), len(makes)) == (1, 1)
    _assert_same_polytope(polytope_of_mesh(Disk(1.0), mesh), first)
    assert (len(walks), len(makes)) == (1, 2)
    with pytest.raises(NotInscribedError):
        polytope_of_mesh(Disk(2.0), mesh)
    assert len(walks) == 1
    assert not mesh._cache["polytope"][0].flags.writeable


def test_build_mesh_and_measure_share_the_degeneracy_test():
    # The longest edge (1 to 2) does not touch vertex 0, so a test that
    # measured only the edges at vertex 0 (length 0.5) would accept this sliver.
    verts = [[0.5, 1e-14], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(DegenerateSimplexError):
        measure(Simplex(verts))
    with pytest.raises(InvertedElementError):
        build_mesh(2, verts, [[0, 1, 2]])


@pytest.mark.parametrize(
    "elements",
    [
        np.array([[0, 2, 1], [0, 2, 3]]),  # the first one is clockwise
        np.array([[0, 2, 1], [0, 2, 3]], dtype=np.int32),
        np.array([[0.0, 2.0, 1.0], [0.0, 2.0, 3.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
    ],
    ids=["int64-flipped", "int32-flipped", "float-flipped", "int64-oriented"],
)
def test_build_mesh_leaves_caller_arrays_unchanged_and_writable(elements):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    before = nodes.copy(), elements.copy()
    mesh = build_mesh(2, nodes, elements)
    assert mesh.elements.tolist() == [[0, 1, 2], [0, 2, 3]]
    for given, kept, old in zip((nodes, elements), (mesh.nodes, mesh.elements), before):
        assert np.array_equal(given, old) and given.dtype == old.dtype
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)


def test_load_and_certify_form_no_whole_mesh_metric_arrays(tmp_path):
    """On the 256 x 256 jittered square (131,072 triangles), loading a
    .node/.ele file peaks at most 40 B per triangle above the mesh it
    returns, and certifying it at most 32 B per triangle above the loaded
    mesh, leaving no per-element metric arrays on it."""
    from certifem import SourceTerm, certify

    path = str(tmp_path / "square.node")
    save(_jittered_square(256, seed=1), path, "node_ele")
    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    f = SourceTerm.sin_product()
    certify(square, _jittered_square(8, seed=1), f, "exact")  # warm up

    tracemalloc.start()
    try:
        mesh = load(path)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        certify(square, mesh, f, "exact")
        certify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = mesh.element_count
    assert m == 131_072
    assert (peak - kept) / m <= 40
    assert (certify_peak - kept) / m <= 32
    assert "metrics" not in mesh._cache
    # the nodes are their own array, not a view that keeps the index column
    assert mesh.nodes.base is None and mesh.nodes.flags.c_contiguous
