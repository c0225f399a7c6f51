import itertools
import json
import math
import re

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
    check_boundary_on_poly,
    circumradius,
    edge_count,
    element_metrics,
    gap_delta,
    generate_fan_refined,
    inradius,
    inscribed_regular_polygon,
    load,
    measure_sum,
    poly_approx_of_polygon,
    quality,
    refine_uniform,
    save,
)
from certifem import Ball, ConvexPolygon, DegenerateSimplexError, Simplex, make_poly_approx, measure
from conftest import sample_triangle

UNIT_SQUARE_POLY = poly_approx_of_polygon(ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]))


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


def test_orientation_autofix_and_inverted():
    mesh = build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    verts = mesh.nodes[mesh.elements[0]]
    u, w = verts[1] - verts[0], verts[2] - verts[0]
    assert u[0] * w[1] - u[1] * w[0] > 0
    with pytest.raises(InvertedElementError):
        build_mesh(2, [[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


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
        check_boundary_on_poly(mesh, poly)
        assert measure_sum(mesh) == pytest.approx(10 / 2 * math.sin(2 * math.pi / 10), rel=1e-13)
    delta, _ = gap_delta(disk, poly)
    assert delta == pytest.approx(1 - math.cos(math.pi / 10), rel=1e-13)


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


def _kuhn_cube(n):
    """Unit cube as an n^3 grid of cubes, six tetrahedra each."""
    xs = np.linspace(0.0, 1.0, n + 1)
    nodes = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    idx = np.arange((n + 1) ** 3).reshape(n + 1, n + 1, n + 1)
    elements = []
    for i, j, k in itertools.product(range(n), repeat=3):
        cell = idx[i : i + 2, j : j + 2, k : k + 2]
        for path in itertools.permutations(range(3)):
            step = [0, 0, 0]
            tet = [cell[0, 0, 0]]
            for axis in path:
                step[axis] = 1
                tet.append(cell[tuple(step)])
            elements.append(tet)
    return build_mesh(3, nodes, elements)


KEY_DEDUPE_MESHES = {
    "fan": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 7), 2),
    "jittered": lambda: _jittered_square(6, seed=3),
    "tets": lambda: _kuhn_cube(2),
}


@pytest.mark.parametrize("name", sorted(KEY_DEDUPE_MESHES))
def test_key_dedupe_matches_row_unique(name):
    mesh = KEY_DEDUPE_MESHES[name]()
    dim, el = mesh.dim, mesh.elements
    facets = np.sort(np.concatenate([np.delete(el, j, axis=1) for j in range(dim + 1)]), axis=1)
    uniq, counts = np.unique(facets, axis=0, return_counts=True)
    assert counts.max() == 2 and np.any(counts == 1)
    np.testing.assert_array_equal(mesh.boundary_facets, uniq[counts == 1])
    np.testing.assert_array_equal(mesh.boundary_nodes, np.unique(uniq[counts == 1]))

    corners = [(a, b) for a in range(dim + 1) for b in range(a + 1, dim + 1)]
    edges = np.sort(np.concatenate([el[:, list(c)] for c in corners]), axis=1)
    assert edge_count(mesh) == np.unique(edges, axis=0).shape[0]

    if dim == 2:
        pairs = np.sort(np.concatenate([el[:, [0, 1]], el[:, [1, 2]], el[:, [0, 2]]]), axis=1)
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        fine = refine_uniform(mesh)
        mid = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
        np.testing.assert_array_equal(fine.nodes, np.vstack([mesh.nodes, mid]))
        m01, m12, m02 = (inverse.reshape(3, -1) + mesh.node_count)
        np.testing.assert_array_equal(fine.elements[3 * mesh.element_count :], np.stack([m01, m12, m02], axis=1))


def test_key_dedupe_overflow_guard():
    from certifem.mesh import _unique_rows

    with pytest.raises(MeshParseError, match=r"2\*\*63"):
        _unique_rows(np.array([[0, 1]], dtype=np.int64), 2**32)
    with pytest.raises(MeshParseError, match=r"2\*\*63"):
        _unique_rows(np.array([[0, 1, 2]], dtype=np.int64), 2**21 + 1)
    # the largest admissible base still decodes its largest key exactly
    top = np.array([[2**21 - 1] * 3, [0, 0, 1], [2**21 - 1] * 3], dtype=np.int64)
    uniq, counts = _unique_rows(top, 2**21)
    np.testing.assert_array_equal(uniq, top[1:])
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


# ---------------------------------------------------------------------------
# boundary containment against the per-facet loop it replaced


def _first_facet_outside(mesh, poly, tol=1e-10):
    normals = poly.facet_normals
    offsets = np.einsum("fd,fd->f", normals, poly.facet_barycenters)
    for facet in mesh.boundary_facets:
        dist = mesh.nodes[facet] @ normals.T - offsets
        if not np.all(np.abs(dist) <= tol, axis=0).any():
            return facet.tolist()
    return None


def _square_with_right_side_at(x):
    mesh = _jittered_square(8, seed=1)
    nodes = mesh.nodes.copy()
    nodes[nodes[:, 0] == 1.0, 0] = x
    return build_mesh(2, nodes, mesh.elements)


OCTA_VERTS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
OCTA_FACETS = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]


def _octahedron_mesh(scale):
    nodes = np.vstack([[0.0, 0.0, 0.0], scale * np.array(OCTA_VERTS, dtype=float)])
    return build_mesh(3, nodes, [[0] + [i + 1 for i in f] for f in OCTA_FACETS])


HEPTAGON = inscribed_regular_polygon(Disk(1.0), 7)
OCTAHEDRON = make_poly_approx(Ball(1.0), OCTA_VERTS, OCTA_FACETS)
BOUNDARY_CASES = {
    "fan inside": (lambda: generate_fan_refined(HEPTAGON, 2), HEPTAGON, True),
    "fan in a different polygon": (
        lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 14), 1), HEPTAGON, False,
    ),
    "square inside": (lambda: _jittered_square(8, seed=1), UNIT_SQUARE_POLY, True),
    "square within tolerance": (lambda: _square_with_right_side_at(1.0 + 5e-11), UNIT_SQUARE_POLY, True),
    "square side outside": (lambda: _square_with_right_side_at(1.0 + 1e-9), UNIT_SQUARE_POLY, False),
    "octahedron": (lambda: _octahedron_mesh(1.0), OCTAHEDRON, True),
    "shrunk octahedron": (lambda: _octahedron_mesh(0.5), OCTAHEDRON, False),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_check_boundary_on_poly_matches_facet_loop(case):
    build, poly, inside = BOUNDARY_CASES[case]
    mesh = build()
    first = _first_facet_outside(mesh, poly)
    assert (first is None) == inside
    if inside:
        check_boundary_on_poly(mesh, poly)
    else:
        with pytest.raises(NotInscribedError, match=re.escape(f"mesh boundary facet {first} not contained")):
            check_boundary_on_poly(mesh, poly)


def test_build_mesh_and_measure_share_the_degeneracy_test():
    # The longest edge (1 to 2) does not touch vertex 0, so a test that
    # measured only the edges at vertex 0 (length 0.5) would accept this sliver.
    verts = [[0.5, 1e-14], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(DegenerateSimplexError):
        measure(Simplex(verts))
    with pytest.raises(InvertedElementError):
        build_mesh(2, verts, [[0, 1, 2]])
