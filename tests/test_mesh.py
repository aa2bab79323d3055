import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem import mesh, solver


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


def write_obj_text(tmp_path, text, name="mesh.obj"):
    p = tmp_path / name
    p.write_bytes(text.encode())
    return str(p)


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


def test_quad_face_rejected(tmp_path):
    path = write_obj_text(tmp_path, TRIANGLE + "v 1 1 0\nf 1 2 3\n\nf 2 4 3 1\n")
    with pytest.raises(mesh.MeshError) as err:
        mesh.load_obj(path)
    assert str(err.value) == "non-triangular face at face 1 (4 vertices, line 7)"
    path = write_obj_text(tmp_path, TRIANGLE + "f 1 2\n", "short.obj")
    with pytest.raises(mesh.MeshError, match=r"at face 0 \(2 vertices, line 4\)"):
        mesh.load_obj(path)


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
    with pytest.raises(mesh.MeshError) as err:
        mesh.from_arrays(v, [[0, 1, 2]])
    assert str(err.value) == "isolated vertices (no incident face): [3]"


def test_other_obj_records_ignored(tmp_path):
    """Comments and other records are skipped; tabs and CRLF line ends
    separate as spaces and LF do."""
    text = ("# header\r\nmtllib m.mtl\r\no body\r\ng group\r\ns off\r\nusemtl red\r\n"
            "v\t0 0\t0\r\n  v 1.5 0 0   \r\n\tv 0 1 0\r\n#v 9 9 9\r\nvn 0 0 1\r\nvt 0 0\r\n"
            "f\t1/1/1 2/1/1\t3/1/1\r\n#f 1 2 3 4\r\n")
    s = mesh.load_obj(write_obj_text(tmp_path, text))
    assert s.vertices.tolist() == [[0, 0, 0], [1.5, 0, 0], [0, 1, 0]]
    assert s.faces.tolist() == [[0, 1, 2]]
    # a vertex record's tokens after the third coordinate are ignored
    s = mesh.load_obj(write_obj_text(tmp_path, TRIANGLE.replace("v 1 0 0", "v 1 0 0 1 0.5")
                                     + "f 1 2 3\n", "extra.obj"))
    assert s.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


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
        mesh.compute_dual_metrics(s)


def test_degenerate_face_rejected():
    s = mesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 1e-16]], [[0, 1, 2]])
    with pytest.raises(mesh.MeshError, match="degenerate face"):
        mesh.compute_dual_metrics(s)


def test_non_well_centered_mesh_is_accepted():
    """An obtuse triangle next to an acute one needs no option: its shared
    dual edge is negative (nonzero sum), and the signed tiling identity
    stays exact."""
    v = [[0, 0, 0], [1, 0, 0], [0.5, 0.15, 0], [0.5, -0.8, 0]]
    s = mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])
    m = mesh.compute_dual_metrics(s)
    assert m.well_centered.tolist() == [False, True]
    assert m.dual_edge_len[0] < 0 < m.dual_edge_len[1:].min()
    assert np.isclose(m.dual_vertex_area.sum(), m.face_area.sum(), rtol=1e-12)


def test_equilateral_closed_forms(equilateral):
    m = mesh.compute_dual_metrics(equilateral)
    assert np.isclose(m.face_area[0], np.sqrt(3) / 4, rtol=1e-14)
    r = np.linalg.norm(mesh.face_circumcenters(equilateral)[0] - equilateral.vertices, axis=1)
    assert np.allclose(r, 1 / np.sqrt(3), rtol=1e-13)
    # the three corner duals tile the face exactly
    assert np.isclose(m.dual_vertex_area.sum(), m.face_area[0], rtol=1e-13)
    # boundary dual edges: single segment = distance from midpoint to center
    seg = np.linalg.norm(mesh.edge_midpoints(equilateral)
                         - mesh.face_circumcenters(equilateral)[0], axis=1)
    assert np.allclose(m.dual_edge_len, seg, rtol=1e-13)


def test_edge_midpoints(icosphere1, cavity1):
    for s in (icosphere1, cavity1):
        v, e = s.vertices, s.edges
        expected = 0.5 * (v[e[:, 0]] + v[e[:, 1]])
        assert mesh.edge_midpoints(s).tobytes() == expected.tobytes()


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
    new_areas, new_signed = mesh._face_geometry(s)
    new_cc = mesh.face_circumcenters(s)
    for new, old, what in ((new_cc, cc, "circumcenters"), (new_areas, areas, "areas"),
                           (new_signed, signed, "signed distances")):
        assert_close_to_scale(new, old, what)
    assert np.array_equal(np.sign(new_signed), np.sign(signed))

    m = mesh.compute_dual_metrics(s)
    assert np.array_equal(m.well_centered, (signed > 0).all(axis=1))
    dual_edge_len, dual_vertex_area = projection_dual_measures(s, signed)
    for new, old, what in ((m.dual_edge_len, dual_edge_len, "dual_edge_len"),
                           (m.dual_vertex_area, dual_vertex_area, "dual_vertex_area"),
                           (mesh.face_circumcenters(s), cc, "circumcenters"),
                           (m.face_area, areas, "face_area")):
        assert_close_to_scale(new, old, what)
    assert np.array_equal(np.sign(m.dual_edge_len), np.sign(dual_edge_len))


def test_signed_oracle_meshes_are_not_well_centered(obtuse_pair, jittered_cavity):
    for s in (obtuse_pair, jittered_cavity):
        m = mesh.compute_dual_metrics(s)
        assert not m.well_centered.all()
        assert m.dual_edge_len.min() < 0


def test_mesh_errors_match_projection_oracle(obtuse_pair, jittered_cavity, monkeypatch):
    """Each geometry error fires on the same input with the same message, and
    the degenerate check runs before any division.  The two meshes with a
    negative dual edge pass the metrics and get the same refusal, naming the
    same edge, from the stepper."""
    square = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    cases = [
        mesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]]),
        mesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 1e-16]], [[0, 1, 2]]),
        mesh.from_arrays(square + [[1, 2, 0]], [[0, 1, 2], [0, 2, 3], [1, 4, 2]]),
        mesh.from_arrays(square, [[0, 1, 2], [0, 2, 3]]),
        mesh.from_arrays([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]]),
    ]

    def errors():
        messages = []
        for s in cases:
            with pytest.raises(mesh.MeshError) as exc, np.errstate(all="raise"):
                mesh.compute_dual_metrics(s)
            messages.append(str(exc.value))
        for s in (obtuse_pair, jittered_cavity):
            with np.errstate(all="raise"):
                m = mesh.compute_dual_metrics(s)
            mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
            with pytest.raises(solver.SolverError) as exc:
                solver.assemble("TM", s, m, mats, 0.1)
            messages.append(str(exc.value))
        return messages

    messages = errors()
    monkeypatch.setattr(mesh, "_face_geometry", lambda s: projection_face_geometry(s)[1:])
    assert errors() == messages
    assert [m.split(" (")[0] for m in messages[:5]] == [
        "degenerate face", "degenerate face", "degenerate face",
        "zero dual edge at interior edge 1", "zero dual edge at boundary edge 2"]
    assert messages[2].endswith("face 2")
    assert messages[5].startswith("indefinite system: nonpositive dual edge length at edge 0 ")
    assert messages[6].startswith("indefinite system: nonpositive dual edge length at edge ")


# The line-by-line reader that ``load_obj`` replaced, kept as the oracle for
# its vertex and face arrays.
def reference_obj_arrays(path):
    coords, corners = [], []
    with open(path, "r") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] == "v":
                coords += tokens[1:4]
            elif tokens[0] == "f":
                corners += [r.partition("/")[0] for r in tokens[1:]]
    return (np.array(coords, dtype=np.float64).reshape(-1, 3),
            np.array(corners, dtype=np.int64).reshape(-1, 3) - 1)


def assert_bitwise_equal(surface, vertices, faces):
    assert surface.vertices.dtype == np.float64 and surface.faces.dtype == np.int64
    assert np.array_equal(surface.vertices.view(np.uint64), vertices.view(np.uint64))
    assert np.array_equal(surface.faces, faces)


def test_reader_matches_reference_on_bundled_and_generated_meshes(tmp_path, make_assets):
    from decem import bundled

    paths = [bundled.bundled_path(name) for name in bundled.bundled_names()
             if name.endswith(".obj")]
    v, f = make_assets.icosahedron()
    for level in range(1, 6):
        v, f = make_assets.subdivide(v, f, project_unit_sphere=True)
        if level in (3, 5):
            paths.append(str(tmp_path / f"icosphere_{level}.obj"))
            make_assets.write_obj(paths[-1], v, f)
    assert len(f) == 20480
    for path in paths:
        assert_bitwise_equal(mesh.load_obj(path), *reference_obj_arrays(path))


def test_short_vertex_record_names_path_and_line(tmp_path):
    path = write_obj_text(tmp_path, "# a comment\nv 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(mesh.MeshError) as err:
        mesh.load_obj(path)
    assert str(err.value) == f"{path}:3: vertex record needs 3 coordinates"


def test_first_record_error_in_file_order_wins(tmp_path):
    """Record errors are found line by line, before any number is read."""
    path = write_obj_text(tmp_path, "v 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3 4\nv 1\n")
    with pytest.raises(mesh.MeshError, match="non-triangular face at face 0"):
        mesh.load_obj(path)


@pytest.mark.parametrize("refs", ["1//4 2//5 3//6", "1/7 2/8 3/9", "1/ 2/ 3/"])
def test_face_reference_decorations_parse(tmp_path, refs):
    s = mesh.load_obj(write_obj_text(tmp_path, TRIANGLE + f"f {refs}\n"))
    assert s.faces.tolist() == [[0, 1, 2]]


def test_empty_meshes_keep_their_errors(tmp_path):
    path = write_obj_text(tmp_path, "# nothing\nf 1 2 3\n")
    with pytest.raises(mesh.MeshError) as err:
        mesh.load_obj(path)
    assert str(err.value) == f"{path}: no vertices found"
    with pytest.raises(mesh.MeshError, match="^mesh has no faces$"):
        mesh.load_obj(write_obj_text(tmp_path, TRIANGLE, "nofaces.obj"))


@pytest.mark.parametrize("face", ["1 2 x", "1 2 3.0", "1 /2 3", "1 2 0x3"])
def test_malformed_face_index_rejected(tmp_path, face):
    path = write_obj_text(tmp_path, TRIANGLE + f"f {face}\n")
    with pytest.raises(mesh.MeshError) as err:
        mesh.load_obj(path)
    assert str(err.value) == f"{path}: a face vertex reference does not start with an integer"


# A coordinate token and the float it must read as: shortest repr, 17
# significant digits, or an integer-looking literal.
finite = st.floats(allow_nan=False, allow_infinity=False)
coordinate_tokens = st.one_of(
    finite.map(lambda x: (repr(x), x)),
    finite.map(lambda x: ("%.17e" % x, x)),
    st.sampled_from(["1", "-0", "0", "+3", "-7", "1e5", "1E-2"]).map(lambda t: (t, float(t))),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.tuples(coordinate_tokens, coordinate_tokens, coordinate_tokens),
                min_size=3, max_size=12),
       st.lists(st.sampled_from(["", "/1", "//2", "/3/4", "/"]), min_size=36, max_size=36),
       st.sampled_from([" ", "\t", "  "]))
def test_reader_round_trips_tokens(tmp_path_factory, rows, decorations, sep):
    """Written coordinates read back bitwise, decorated faces exactly: a
    strip of triangles over the vertices, consistently wound."""
    faces = [(k, k + 1, k + 2) if k % 2 == 0 else (k + 1, k, k + 2)
             for k in range(len(rows) - 2)]
    suffix = iter(decorations)
    text = "".join(f"v{sep}{sep.join(t for t, _ in row)}\n" for row in rows)
    text += "".join("f" + "".join(f"{sep}{i + 1}{next(suffix)}" for i in face) + "\n"
                    for face in faces)
    path = tmp_path_factory.mktemp("obj") / "strip.obj"
    path.write_text(text)
    expected = np.array([[x for _, x in row] for row in rows], dtype=np.float64)
    surface = mesh.load_obj(str(path))
    assert_bitwise_equal(surface, expected, np.array(faces, dtype=np.int64))
    assert_bitwise_equal(surface, *reference_obj_arrays(str(path)))
