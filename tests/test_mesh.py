import numpy as np
import pytest

from decem import mesh


def test_single_triangle_counts(single_triangle):
    s = single_triangle
    assert (s.n_vertices, s.n_edges, s.n_faces) == (3, 3, 1)
    assert len(s.boundary_edges) == 3


def test_single_triangle_d1_row(single_triangle):
    # face (0->1->2->0) over canonical edges e01, e02, e12
    s = single_triangle
    assert s.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert s.d1.toarray().tolist() == [[1, -1, 1]]


def test_d0_head_tail(single_triangle):
    d0 = single_triangle.d0.toarray()
    for row, (tail, head) in zip(d0, single_triangle.edges):
        assert row[tail] == -1 and row[head] == 1
        assert np.abs(row).sum() == 2


def test_icosahedron_obj(icosahedron_path):
    s = mesh.load_obj(icosahedron_path)
    assert (s.n_vertices, s.n_edges, s.n_faces) == (12, 30, 20)
    assert not s.boundary_edges
    assert s.euler_characteristic == 2


def test_dd_zero_exact(icosahedron_path, icosphere1, cavity1):
    for s in (mesh.load_obj(icosahedron_path), icosphere1, cavity1):
        prod = s.d1 @ s.d0
        assert prod.nnz == 0 or np.abs(prod.toarray()).max() == 0


def test_interior_edges_opposite_signs(icosphere1):
    sums = np.asarray(icosphere1.d1.sum(axis=0)).ravel()
    assert np.all(sums == 0)  # closed surface: every edge interior


def test_quad_face_rejected(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(mesh.MeshError, match="non-triangular face"):
        mesh.load_obj(str(p))


def test_nonmanifold_edge_rejected():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    f = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(mesh.MeshError, match="non-manifold edge"):
        mesh.from_arrays(v, f)


def test_inconsistent_winding_rejected():
    v = [[0, 0, 0], [1, 0, 0], [0.5, 0.8, 0], [0.5, -0.8, 0]]
    # second face traverses edge (0,1) in the same direction as the first
    with pytest.raises(mesh.MeshError, match="inconsistent winding.*edge"):
        mesh.from_arrays(v, [[0, 1, 2], [0, 1, 3]])


def test_isolated_vertex_rejected():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]
    with pytest.raises(mesh.MeshError, match="isolated"):
        mesh.from_arrays(v, [[0, 1, 2]])


def test_other_obj_records_ignored(tmp_path):
    p = tmp_path / "extra.obj"
    p.write_text(
        "mtllib foo.mtl\nvn 0 0 1\nvt 0 0\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/1/1 3/1/1\n"
    )
    s = mesh.load_obj(str(p))
    assert s.n_faces == 1


def test_right_triangle_circumcenter():
    s = mesh.from_arrays([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
    cc = mesh.face_circumcenters(s)
    assert np.allclose(cc, [[1.0, 1.0, 0.0]])


def test_circumcenter_equidistance(icosphere1, cavity1):
    for s in (icosphere1, cavity1):
        cc = mesh.face_circumcenters(s)
        p = s.vertices[s.faces]                    # (F,3,3)
        dist = np.linalg.norm(p - cc[:, None, :], axis=2)
        spread = dist.max(axis=1) - dist.min(axis=1)
        assert (spread <= 1e-10 * dist.mean(axis=1)).all()


def test_square_diagonal_zero_dual_edge():
    s = mesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 3]]
    )
    with pytest.raises(mesh.MeshError, match="zero dual edge"):
        mesh.compute_dual_metrics(s, allow_non_well_centered=True)


def test_degenerate_face_rejected():
    s = mesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 1e-16]], [[0, 1, 2]])
    with pytest.raises(mesh.MeshError, match="degenerate face"):
        mesh.compute_dual_metrics(s)


def test_non_well_centered_needs_flag():
    # obtuse triangle next to an acute one: negative dual segment, nonzero sum
    v = [[0, 0, 0], [1, 0, 0], [0.5, 0.15, 0], [0.5, -0.8, 0]]
    s = mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])
    with pytest.raises(mesh.MeshError, match="non-well-centered"):
        mesh.compute_dual_metrics(s)
    m = mesh.compute_dual_metrics(s, allow_non_well_centered=True)
    assert m.signed
    assert not m.well_centered.all()
    # signed tiling identity still exact
    assert np.isclose(m.dual_vertex_area.sum(), m.face_area.sum(), rtol=1e-12)


def test_equilateral_closed_forms(equilateral):
    m = mesh.compute_dual_metrics(equilateral)
    assert np.isclose(m.face_area[0], np.sqrt(3) / 4, rtol=1e-14)
    r = np.linalg.norm(m.circumcenters[0] - equilateral.vertices, axis=1)
    assert np.allclose(r, 1 / np.sqrt(3), rtol=1e-13)
    # the three corner duals tile the face exactly
    assert np.isclose(m.dual_vertex_area.sum(), m.face_area[0], rtol=1e-13)
    # boundary dual edges: single segment = distance from midpoint to center
    seg = np.linalg.norm(m.edge_midpoints - m.circumcenters[0], axis=1)
    assert np.allclose(m.dual_edge_len, seg, rtol=1e-13)


@pytest.mark.parametrize("name", ["icosphere_1.obj", "icosphere_3.obj", "cavity_2.obj"])
def test_dual_tiling_identity(name):
    from decem import bundled

    s = bundled.bundled_surface(name)
    m = mesh.compute_dual_metrics(s)
    total_v = m.dual_vertex_area.sum()
    total_f = m.face_area.sum()
    assert abs(total_v - total_f) <= 1e-10 * total_f


def test_bundled_meshes_well_centered():
    from decem import bundled

    for name in bundled.bundled_names():
        if not name.endswith(".obj"):
            continue
        s = bundled.bundled_surface(name)
        m = mesh.compute_dual_metrics(s)
        assert m.all_well_centered, name
        assert m.dual_edge_len.min() > 0, name


def test_euler_characteristic_closed_genus0():
    from decem import bundled

    for name in ("icosphere_1.obj", "icosphere_2.obj", "icosphere_3.obj"):
        s = bundled.bundled_surface(name)
        assert s.euler_characteristic == 2
        assert not s.boundary_edges


def test_mesh_report_pass(icosphere1):
    rep = mesh.mesh_report(icosphere1)
    assert rep.endswith("PASS")
    assert "euler_characteristic=2" in rep


def test_mesh_report_fail_zero_dual():
    s = mesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 3]]
    )
    rep = mesh.mesh_report(s)
    assert "FAIL" in rep


def test_edge_order_deterministic(icosahedron_path):
    s1 = mesh.load_obj(icosahedron_path)
    s2 = mesh.load_obj(icosahedron_path)
    assert np.array_equal(s1.edges, s2.edges)
    # canonical orientation low -> high
    assert (s1.edges[:, 0] < s1.edges[:, 1]).all()


def test_edges_match_lexicographic_unique(icosahedron_path, icosphere1, cavity1):
    """The integer-key edge search gives the edges and face-edge map of a
    row-wise unique over the sorted (tail, head) pairs, and the map stored
    at construction equals the one computed on demand."""
    shuffled = mesh.from_arrays(
        cavity1.vertices, np.random.default_rng(5).permutation(cavity1.faces))
    for s in (mesh.load_obj(icosahedron_path), icosphere1, cavity1, shuffled):
        f = s.faces
        pairs = np.stack([f, f[:, [1, 2, 0]]], axis=2).reshape(-1, 2)
        edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
        assert np.array_equal(s.edges, edges)
        assert np.array_equal(s.face_edges, inverse.reshape(-1, 3))
        bare = mesh.SimplicialSurface(s.vertices, s.edges, s.faces, s.d0, s.d1,
                                      s.boundary_edges)
        assert np.array_equal(bare.face_edges, s.face_edges)
