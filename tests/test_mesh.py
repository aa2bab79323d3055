import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem import mesh, solver


def test_single_triangle_counts(single_triangle):
    s = single_triangle
    assert (s.n_vertices, s.n_edges, s.n_faces) == (3, 3, 1)
    assert s.boundary.tolist() == [True, True, True]


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
    assert not s.boundary.any()
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

# The reader's default block, then blocks of a few tokens, so that small
# files cross block boundaries within and between records.
OBJ_BLOCKS = (mesh.OBJ_BLOCK_TOKENS, 1, 4, 7)


def load_obj_each_block(path):
    """``load_obj(path)`` at the default block size, checked to return the
    same arrays, or raise the same error, at every block size of
    ``OBJ_BLOCKS``."""
    outcomes = []
    for block in OBJ_BLOCKS:
        with mock.patch.object(mesh, "OBJ_BLOCK_TOKENS", block):
            try:
                outcomes.append(mesh.load_obj(path))
            except ValueError as exc:
                outcomes.append(exc)
    first = outcomes[0]
    for other in outcomes[1:]:
        if isinstance(first, ValueError):
            assert (type(other), str(other)) == (type(first), str(first))
        else:
            assert_bitwise_equal(other, first.vertices, first.faces)
    if isinstance(first, ValueError):
        raise first
    return first


def test_quad_face_rejected(tmp_path):
    path = write_obj_text(tmp_path, TRIANGLE + "v 1 1 0\nf 1 2 3\n\nf 2 4 3 1\n")
    with pytest.raises(mesh.MeshError) as err:
        load_obj_each_block(path)
    assert str(err.value) == "non-triangular face at face 1 (4 vertices, line 7)"
    path = write_obj_text(tmp_path, TRIANGLE + "f 1 2\n", "short.obj")
    with pytest.raises(mesh.MeshError, match=r"at face 0 \(2 vertices, line 4\)"):
        load_obj_each_block(path)


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


@pytest.mark.parametrize("vertices,faces,message", [
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], "vertices must be an (V, 3) array"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2, 0]],
     "faces must be an (F, 3) array of vertex triples"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]], "face vertex index out of range"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[-1, 1, 2]], "face vertex index out of range"),
], ids=["vertex-shape", "face-shape", "index-above", "index-below"])
def test_from_arrays_refuses_malformed_arrays(vertices, faces, message):
    with pytest.raises(mesh.MeshError) as err:
        mesh.from_arrays(vertices, faces)
    assert str(err.value) == message


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
    s = load_obj_each_block(write_obj_text(tmp_path, text))
    assert s.vertices.tolist() == [[0, 0, 0], [1.5, 0, 0], [0, 1, 0]]
    assert s.faces.tolist() == [[0, 1, 2]]
    # a vertex record's tokens after the third coordinate are ignored
    s = load_obj_each_block(write_obj_text(tmp_path, TRIANGLE.replace("v 1 0 0", "v 1 0 0 1 0.5")
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_vertex_rejected(tmp_path, value):
    """A nan or infinite coordinate is refused at load, naming the first
    such vertex, before any geometry divides by it."""
    vertices = [[0, 0, 0], [1, 0, 0], [0.5, float(value), 0], [0.5, 0, float(value)]]
    message = r"^vertex 2 has a non-finite coordinate: \[0.5, -?(nan|inf), 0.0\]$"
    with pytest.raises(mesh.MeshError, match=message):
        mesh.from_arrays(vertices, [[0, 1, 2], [0, 3, 1]])
    path = write_obj_text(tmp_path, f"{TRIANGLE}v 0.5 {value} 0\nf 1 2 4\nf 1 4 3\n")
    with pytest.raises(mesh.MeshError, match=r"^vertex 3 has a non-finite coordinate"):
        mesh.load_obj(path)


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
        assert not s.boundary.any()


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
    row-wise unique over the sorted (tail, head) pairs, and the boundary
    mask marks the edges that one face alone traverses."""
    shuffled = mesh.from_arrays(
        cavity1.vertices, np.random.default_rng(5).permutation(cavity1.faces))
    for s in (mesh.load_obj(icosahedron_path), icosphere1, cavity1, shuffled):
        f = s.faces
        pairs = np.stack([f, f[:, [1, 2, 0]]], axis=2).reshape(-1, 2)
        edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
        assert np.array_equal(s.edges, edges)
        assert np.array_equal(s.face_edges, inverse.reshape(-1, 3))
        assert np.array_equal(s.boundary, np.bincount(inverse.ravel(), minlength=s.n_edges) == 1)


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
                solver.assemble(s, m, mats, 0.1)
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
    assert surface.vertices.dtype == np.float64 and surface.faces.dtype == np.int32
    assert np.array_equal(surface.vertices.view(np.uint64), vertices.view(np.uint64))
    assert np.array_equal(surface.faces, faces)


@pytest.fixture(scope="module")
def icosphere_objs(tmp_path_factory, make_assets):
    """OBJ files of the icospheres of levels 3 and 5 (20480 faces), as
    ``tools/make_assets.py`` subdivides and writes them."""
    paths = {}
    v, f = make_assets.icosahedron()
    for level in range(1, 6):
        v, f = make_assets.subdivide(v, f, project_unit_sphere=True)
        if level in (3, 5):
            paths[level] = str(tmp_path_factory.mktemp("obj") / f"icosphere_{level}.obj")
            make_assets.write_obj(paths[level], v, f)
    assert len(f) == 20480
    return paths


def test_reader_matches_reference_on_bundled_and_generated_meshes(icosphere_objs):
    from decem import bundled

    paths = [bundled.bundled_path(name) for name in bundled.bundled_names()
             if name.endswith(".obj")]
    for path in paths + list(icosphere_objs.values()):
        assert_bitwise_equal(mesh.load_obj(path), *reference_obj_arrays(path))


def test_bundled_cavities_are_subdivisions_of_cavity_1():
    """cavity_{k+1}.obj is ``subdivide`` of cavity_k.obj, bit for bit, so the
    convergence study, which refines the mesh it is given, runs on cavity_1
    the family that the bundled files hold."""
    from decem import bundled

    for k in (1, 2):
        coarse = bundled.bundled_surface(f"cavity_{k}.obj")
        fine = bundled.bundled_surface(f"cavity_{k + 1}.obj")
        assert_bitwise_equal(fine, *mesh.subdivide(coarse.vertices, coarse.faces,
                                                   project_unit_sphere=False))


def test_bundled_icospheres_are_the_written_subdivision_chain(make_assets, tmp_path):
    """icosphere_k.obj is, byte for byte, ``make_assets.write_obj`` of the
    icosahedron subdivided k times with projection to the unit sphere."""
    from decem import bundled

    v, f = make_assets.icosahedron()
    for level in (1, 2, 3):
        v, f = mesh.subdivide(v, f, project_unit_sphere=True)
        path = tmp_path / f"icosphere_{level}.obj"
        make_assets.write_obj(str(path), v, f)
        with open(bundled.bundled_path(f"icosphere_{level}.obj"), "rb") as fh:
            assert path.read_bytes() == fh.read(), level


# The dict-and-loop refinement that the array form of ``subdivide`` replaced,
# kept as the oracle for its vertex numbering and its bits.
def reference_subdivide(verts, faces, project_unit_sphere):
    verts = list(map(tuple, verts))
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            p = 0.5 * (np.array(verts[i]) + np.array(verts[j]))
            if project_unit_sphere:
                p = p / np.linalg.norm(p)
            cache[key] = len(verts)
            verts.append(tuple(p))
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out, dtype=np.int64)


def assert_same_refinement(verts, faces, project_unit_sphere):
    """``subdivide`` equals the reference bit for bit, with its dtypes."""
    v, f = mesh.subdivide(verts, faces, project_unit_sphere)
    v_ref, f_ref = reference_subdivide(verts, faces, project_unit_sphere)
    assert v.dtype == np.float64 and f.dtype == np.int64
    assert v.shape == v_ref.shape and f.shape == f_ref.shape
    assert np.array_equal(v.view(np.uint64), v_ref.view(np.uint64))
    assert np.array_equal(f, f_ref)
    return v, f


def shuffled_and_rotated(faces, seed):
    """The faces in a random order, each starting at a random corner (same
    winding)."""
    rng = np.random.default_rng(seed)
    faces = rng.permutation(np.asarray(faces))
    shift = rng.integers(0, 3, (len(faces), 1))
    return np.take_along_axis(faces, (np.arange(3) + shift) % 3, axis=1)


def test_subdivide_matches_reference_on_the_icosphere_chain(make_assets):
    """L1 to L5 (20480 faces), each level refined from the one before."""
    v, f = make_assets.icosahedron()
    for _ in range(5):
        v, f = assert_same_refinement(v, f, project_unit_sphere=True)
    assert len(f) == 20480


@pytest.mark.parametrize("name", ["cavity_1.obj", "cavity_2.obj", "cavity_3.obj",
                                  "icosphere_3.obj"])
@pytest.mark.parametrize("project", [False, True])
def test_subdivide_matches_reference_on_bundled_meshes(name, project):
    from decem import bundled

    s = bundled.bundled_surface(name)
    assert_same_refinement(s.vertices, s.faces, project)
    assert_same_refinement(s.vertices, shuffled_and_rotated(s.faces, 7), project)


def test_subdivide_matches_reference_on_plane_points_and_lists(make_assets):
    """The cavity's 2-D base chain, which the asset generator refines
    without a z column, equals the refinement of its z = 0 lift; a single
    triangle may come as lists of ints."""
    v2, f = make_assets.acute8()
    for _ in range(3):
        v3, f3 = mesh.subdivide(np.column_stack([v2, np.zeros(len(v2))]), f, False)
        v2, f = assert_same_refinement(v2, f, project_unit_sphere=False)
        assert np.array_equal(v2.view(np.uint64), v3[:, :2].view(np.uint64))
        assert np.array_equal(f, f3)
    for project in (False, True):
        assert_same_refinement([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], project)


def total_area(v, f):
    """The summed face areas, from cross products: a right-angled face
    refines into a rectangle of two children, whose shared edge has a zero
    dual edge, which the dual metrics refuse."""
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1).sum()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), rotate=st.booleans())
def test_subdivide_refines_delaunay_squares(make_assets, n, seed, rotate):
    """On seeded jittered Delaunay squares: the reference's bits, the counts
    V' = V + E, E' = 2E + 3F, F' = 4F, the total area to roundoff, and a
    result that ``from_arrays`` accepts."""
    verts, faces = make_assets.delaunay_square(n, np.random.default_rng(seed))
    if rotate:
        faces = shuffled_and_rotated(faces, seed)
    coarse = mesh.from_arrays(verts, faces)
    fine = mesh.from_arrays(*assert_same_refinement(verts, faces, project_unit_sphere=False))
    assert fine.n_vertices == coarse.n_vertices + coarse.n_edges
    assert fine.n_edges == 2 * coarse.n_edges + 3 * coarse.n_faces
    assert fine.n_faces == 4 * coarse.n_faces
    area, fine_area = (total_area(s.vertices, s.faces) for s in (coarse, fine))
    assert abs(fine_area - area) <= 1e-13 * area


def test_reader_peak_memory_on_20480_faces(icosphere_objs):
    """The reader holds a block of tokens as Python strings, not the whole
    file's: its traced peak stays below 9 MB (13.4 MB when it held every
    token), for 3.4 MB of surface arrays."""
    tracemalloc.start()
    try:
        surface = mesh.load_obj(icosphere_objs[5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert surface.n_faces == 20480
    assert peak < 9_000_000


def test_short_vertex_record_names_path_and_line(tmp_path):
    path = write_obj_text(tmp_path, "# a comment\nv 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(mesh.MeshError) as err:
        load_obj_each_block(path)
    assert str(err.value) == f"{path}:3: vertex record needs 3 coordinates"


def test_first_record_error_in_file_order_wins(tmp_path):
    """Record errors are found line by line, before any number error is raised."""
    path = write_obj_text(tmp_path, "v 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3 4\nv 1\n")
    with pytest.raises(mesh.MeshError, match="non-triangular face at face 0"):
        load_obj_each_block(path)


def test_record_error_after_the_first_block_wins_over_its_number_error(tmp_path):
    """A malformed coordinate in the first default block, then a quad face
    after it: the quad is reported, with its face and line counted across
    blocks."""
    text = ("v 0 0 x\n" + "v 0 0 0\n" * 2999 + "f 1 2 3\n" * 2100 + "f 1 2 3 4\n"
            + "f 1 2 3\n")
    assert 3 * 3000 > mesh.OBJ_BLOCK_TOKENS and 4 * 2100 > mesh.OBJ_BLOCK_TOKENS
    with pytest.raises(mesh.MeshError) as err:
        load_obj_each_block(write_obj_text(tmp_path, text))
    assert str(err.value) == "non-triangular face at face 2100 (4 vertices, line 5101)"


def test_short_vertex_record_wins_over_a_reference_error_in_an_earlier_block(tmp_path):
    text = TRIANGLE + "f 1 2 x\n" + "f 1 2 3\n" * 2100 + "v 1 0\n"
    path = write_obj_text(tmp_path, text)
    with pytest.raises(mesh.MeshError) as err:
        load_obj_each_block(path)
    assert str(err.value) == f"{path}:2105: vertex record needs 3 coordinates"


@pytest.mark.parametrize("refs", ["1//4 2//5 3//6", "1/7 2/8 3/9", "1/ 2/ 3/"])
def test_face_reference_decorations_parse(tmp_path, refs):
    s = load_obj_each_block(write_obj_text(tmp_path, TRIANGLE + f"f {refs}\n"))
    assert s.faces.tolist() == [[0, 1, 2]]


def test_empty_meshes_keep_their_errors(tmp_path):
    path = write_obj_text(tmp_path, "# nothing\nf 1 2 3\n")
    with pytest.raises(mesh.MeshError) as err:
        load_obj_each_block(path)
    assert str(err.value) == f"{path}: no vertices found"
    with pytest.raises(mesh.MeshError, match="^mesh has no faces$"):
        load_obj_each_block(write_obj_text(tmp_path, TRIANGLE, "nofaces.obj"))


@pytest.mark.parametrize("face", ["1 2 x", "1 2 3.0", "1 /2 3", "1 2 0x3"])
def test_malformed_face_index_rejected(tmp_path, face):
    path = write_obj_text(tmp_path, TRIANGLE + f"f {face}\n")
    with pytest.raises(mesh.MeshError) as err:
        load_obj_each_block(path)
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
    surface = load_obj_each_block(str(path))
    assert_bitwise_equal(surface, expected, np.array(faces, dtype=np.int64))
    assert_bitwise_equal(surface, *reference_obj_arrays(str(path)))
