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


# The projection code that the cotangent closed forms replaced, kept as the
# oracle: an s/t circumcenter solve and a per-edge perpendicular projection.
def projection_face_geometry(surface):
    v = surface.vertices
    f = surface.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    u = p1 - p0
    w = p2 - p0
    uu = np.einsum("ij,ij->i", u, u)
    ww = np.einsum("ij,ij->i", w, w)
    uw = np.einsum("ij,ij->i", u, w)
    det = uu * ww - uw * uw  # = |u x w|^2
    areas = 0.5 * np.sqrt(np.maximum(det, 0.0))

    longest_sq = np.maximum(uu, np.maximum(ww, np.einsum("ij,ij->i", p2 - p1, p2 - p1)))
    degenerate = np.nonzero(areas < mesh.DEGENERATE_REL * longest_sq)[0]
    if degenerate.size:
        raise mesh.MeshError(f"degenerate face (collinear vertices): face {degenerate[0]}")

    s = 0.5 * (ww * uu - uw * ww) / det
    t = 0.5 * (uu * ww - uw * uu) / det
    cc = p0 + s[:, None] * u + t[:, None] * w

    corners = np.stack([p0, p1, p2], axis=1)  # (F, 3, 3)
    signed = np.empty((f.shape[0], 3))
    for k, (i, j, opp) in enumerate(((0, 1, 2), (1, 2, 0), (2, 0, 1))):
        tail, head, other = corners[:, i], corners[:, j], corners[:, opp]
        mid = 0.5 * (tail + head)
        t_hat = head - tail
        t_hat = t_hat / np.linalg.norm(t_hat, axis=1, keepdims=True)

        def perp(x):
            return x - np.einsum("ij,ij->i", x, t_hat)[:, None] * t_hat

        to_cc = perp(cc - mid)
        to_opp = perp(other - mid)
        dist = np.linalg.norm(to_cc, axis=1)
        side = np.sign(np.einsum("ij,ij->i", to_cc, to_opp))
        signed[:, k] = dist * np.where(side == 0, 1.0, side)
    return cc, areas, signed


def projection_dual_measures(surface, signed):
    """Dual edge lengths and vertex areas summed edge by edge with add.at."""
    v, f, fe = surface.vertices, surface.faces, surface.face_edges
    edge_len = np.linalg.norm(v[surface.edges[:, 1]] - v[surface.edges[:, 0]], axis=1)
    dual_edge_len = np.zeros(surface.n_edges)
    np.add.at(dual_edge_len, fe.reshape(-1), signed.reshape(-1))
    dual_vertex_area = np.zeros(surface.n_vertices)
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        contrib = 0.25 * edge_len[fe[:, k]] * signed[:, k]
        np.add.at(dual_vertex_area, f[:, i], contrib)
        np.add.at(dual_vertex_area, f[:, j], contrib)
    return dual_edge_len, dual_vertex_area


def assert_close_to_scale(new, old, what):
    scale = np.abs(old).max()
    assert np.abs(new - old).max() <= 1e-13 * scale, what


def test_cotangent_geometry_matches_projection_oracle(oracle_surface):
    s = oracle_surface
    cc, areas, signed = projection_face_geometry(s)
    new_cc, new_areas, new_signed = mesh._face_geometry(s)
    for new, old, what in ((new_cc, cc, "circumcenters"), (new_areas, areas, "areas"),
                           (new_signed, signed, "signed distances")):
        assert_close_to_scale(new, old, what)
    assert np.array_equal(np.sign(new_signed), np.sign(signed))

    well_centered = (signed > 0).all(axis=1)
    m = mesh.compute_dual_metrics(s, allow_non_well_centered=not well_centered.all())
    assert np.array_equal(m.well_centered, well_centered)
    assert m.signed == (not well_centered.all())
    dual_edge_len, dual_vertex_area = projection_dual_measures(s, signed)
    for new, old, what in ((m.dual_edge_len, dual_edge_len, "dual_edge_len"),
                           (m.dual_vertex_area, dual_vertex_area, "dual_vertex_area"),
                           (m.circumcenters, cc, "circumcenters"),
                           (m.face_area, areas, "face_area")):
        assert_close_to_scale(new, old, what)
    assert np.array_equal(np.sign(m.dual_edge_len), np.sign(dual_edge_len))


def test_signed_oracle_meshes_are_not_well_centered(obtuse_pair, jittered_cavity):
    for s in (obtuse_pair, jittered_cavity):
        m = mesh.compute_dual_metrics(s, allow_non_well_centered=True)
        assert not m.well_centered.all()
        assert m.dual_edge_len.min() < 0


def test_mesh_errors_match_projection_oracle(obtuse_pair, jittered_cavity, monkeypatch):
    """Each geometry error fires on the same input with the same message, and
    the degenerate check runs before any division."""
    square = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    cases = [
        (mesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]]), True),
        (mesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 1e-16]], [[0, 1, 2]]), True),
        (mesh.from_arrays(square + [[1, 2, 0]], [[0, 1, 2], [0, 2, 3], [1, 4, 2]]), True),
        (mesh.from_arrays(square, [[0, 1, 2], [0, 2, 3]]), True),
        (mesh.from_arrays([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]]), True),
        (obtuse_pair, False),
        (jittered_cavity, False),
    ]
    messages = []
    for s, allow in cases:
        with pytest.raises(mesh.MeshError) as new, np.errstate(all="raise"):
            mesh.compute_dual_metrics(s, allow_non_well_centered=allow)
        messages.append(str(new.value))
    monkeypatch.setattr(mesh, "_face_geometry", projection_face_geometry)
    for (s, allow), message in zip(cases, messages):
        with pytest.raises(mesh.MeshError) as old:
            mesh.compute_dual_metrics(s, allow_non_well_centered=allow)
        assert str(old.value) == message
    assert [m.split(" (")[0] for m in messages[:5]] == [
        "degenerate face", "degenerate face", "degenerate face",
        "zero dual edge at interior edge 1", "zero dual edge at boundary edge 2"]
    assert messages[2].endswith("face 2")
    assert all(m.startswith("non-well-centered faces") for m in messages[5:])
