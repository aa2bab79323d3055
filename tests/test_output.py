import importlib.util
import os
import shutil

import numpy as np

from decem import _text, analysis, bundled, config, mesh, output, solver

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_whitney_reproduces_constant_tangential_field():
    surface = bundled.bundled_surface("cavity_2.obj")   # flat, z = 0
    field = np.array([0.7, -1.3, 0.0])
    v = surface.vertices
    cochain = (v[surface.edges[:, 1]] - v[surface.edges[:, 0]]) @ field
    vectors = output.whitney_face_vectors(surface, cochain)
    assert np.abs(vectors - field).max() <= 1e-12


def test_whitney_zero_cochain_has_no_sign_bit():
    """-0.0 would print as such in the VTK text, and +0.0 columns of a
    state at rest are literal text for the writers."""
    surface = bundled.bundled_surface("icosphere_3.obj")
    vectors = output.whitney_face_vectors(surface, np.zeros(surface.n_edges))
    assert not vectors.any() and not np.signbit(vectors).any()


def test_vtk_at_rest_skips_the_reconstruction(tmp_path, monkeypatch):
    """A zero edge cochain, -0.0 entries included, writes the +0.0 vectors
    the reconstruction would give without computing it."""
    surface = bundled.bundled_surface("icosphere_2.obj")
    rng = np.random.default_rng(6)
    states = [solver.initial_state("TE", surface), solver.initial_state("TM", surface),
              solver.FieldState("TE", np.where(rng.random(surface.n_edges) < 0.5, -0.0, 0.0),
                                rng.normal(size=surface.n_faces), n=2, t=0.1)]
    for k, state in enumerate(states):
        vtk_per_line(str(tmp_path / f"{k}_oracle.vtk"), surface, state)

    def fail(*args):
        raise AssertionError("whitney_face_vectors called at rest")

    monkeypatch.setattr(output, "whitney_face_vectors", fail)
    for k, state in enumerate(states):
        output.write_vtk_snapshot(str(tmp_path / f"{k}.vtk"), surface, state)
        assert (tmp_path / f"{k}.vtk").read_bytes() == (tmp_path / f"{k}_oracle.vtk").read_bytes()


def test_whitney_blocks_match_single_pass(monkeypatch):
    make_assets = load_tool("make_assets")
    ico3 = bundled.bundled_surface("icosphere_3.obj")
    verts, faces = make_assets.subdivide(ico3.vertices, ico3.faces,
                                         project_unit_sphere=True)
    surface = mesh.from_arrays(verts, faces)
    assert surface.n_faces == 5120 > output.WHITNEY_BLOCK_FACES
    cochain = np.random.default_rng(3).normal(size=surface.n_edges)
    blocked = output.whitney_face_vectors(surface, cochain)
    monkeypatch.setattr(output, "WHITNEY_BLOCK_FACES", surface.n_faces)
    single = output.whitney_face_vectors(surface, cochain)
    assert np.array_equal(blocked, single)


# The per-corner-gradient reconstruction that the closed form replaced, kept
# as the oracle.
def whitney_per_corner(surface, edge_values):
    out = np.zeros((surface.n_faces, 3))
    for start in range(0, surface.n_faces, output.WHITNEY_BLOCK_FACES):
        rows = slice(start, start + output.WHITNEY_BLOCK_FACES)
        f = surface.faces[rows]
        p = surface.vertices[f]              # (B,3,3)
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        two_area = np.linalg.norm(normal, axis=1, keepdims=True)
        n_hat = normal / two_area

        grads = np.empty_like(p)             # grad of the barycentric at each corner
        for k in range(3):
            opposite = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
            grads[:, k] = np.cross(n_hat, opposite) / two_area

        block = out[rows]
        fe = surface.face_edges[rows]
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            vals = edge_values[fe[:, k]]
            # canonical edge orientation is low->high vertex index
            swap = f[:, i] > f[:, j]
            gi, gj = grads[:, i].copy(), grads[:, j].copy()
            gi[swap], gj[swap] = grads[swap, j], grads[swap, i]
            block += vals[:, None] * (gj - gi) / 3.0
    return out


def test_whitney_closed_form_matches_per_corner_oracle(oracle_surface):
    s = oracle_surface
    rng = np.random.default_rng(s.n_faces)
    v = s.vertices
    tangent = (v[s.edges[:, 1]] - v[s.edges[:, 0]]) @ np.array([0.3, -1.1, 0.7])
    for cochain in (rng.normal(size=s.n_edges), tangent, np.ones(s.n_edges)):
        old = whitney_per_corner(s, cochain)
        new = output.whitney_face_vectors(s, cochain)
        assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()


# The per-line writers that the block writers replaced, kept as the byte oracle.
def _fmt(x):
    return repr(float(x))


def vtk_per_line(path, surface, state, title="decem snapshot"):
    pol = solver.polarization(state.mode)
    edge_field, face_scalar = pol.place(state.e, state.h)
    vectors = output.whitney_face_vectors(surface, edge_field)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {surface.n_vertices} double\n")
        for p in surface.vertices:
            fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        fh.write(f"CELLS {surface.n_faces} {4 * surface.n_faces}\n")
        for a, b, c in surface.faces:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {surface.n_faces}\n")
        for _ in range(surface.n_faces):
            fh.write("5\n")
        fh.write(f"CELL_DATA {surface.n_faces}\n")
        fh.write(f"SCALARS {pol.face_field} double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for val in face_scalar:
            fh.write(f"{_fmt(val)}\n")
        fh.write(f"VECTORS {pol.edge_field}_vec double\n")
        for vec in vectors:
            fh.write(f"{_fmt(vec[0])} {_fmt(vec[1])} {_fmt(vec[2])}\n")


def csv_per_line(path, state):
    with open(path, "w") as fh:
        fh.write("# integrated cochain values (exact regression contract)\n")
        fh.write(f"# mode={state.mode} n={state.n} t={_fmt(state.t)}\n")
        fh.write("quantity,index,value\n")
        for i, val in enumerate(state.e):
            fh.write(f"e,{i},{_fmt(val)}\n")
        for i, val in enumerate(state.h):
            fh.write(f"h,{i},{_fmt(val)}\n")


def assert_writers_match_oracle(tmp_path, surface, state, tag):
    pairs = [
        (lambda p: output.write_vtk_snapshot(p, surface, state),
         lambda p: vtk_per_line(p, surface, state), "vtk"),
        (lambda p: output.write_csv_snapshot(p, state),
         lambda p: csv_per_line(p, state), "csv"),
    ]
    for write, oracle, ext in pairs:
        new, old = tmp_path / f"{tag}.{ext}", tmp_path / f"{tag}_oracle.{ext}"
        write(str(new))
        oracle(str(old))
        assert new.read_bytes() == old.read_bytes(), (tag, ext)


def stepped_state(mode, surface, metrics, target, support, steps=5):
    mats = solver.MaterialParams.uniform(mode, surface, eps=1.0, mu=1.0, sigma=0.1)
    stepper = solver.assemble(mode, surface, metrics, mats, 0.05)
    source = solver.SourceSpec(kind="gaussian_pulse", target=target, amplitude=1.0,
                               t0=0.1, width=0.05, support=support)
    state = solver.initial_state(mode, surface)
    for _ in range(steps):
        state = solver.step(stepper, state, source)
    return state


def test_writers_match_per_line_oracle_after_steps(tmp_path):
    for mode, name, target in (("TE", "icosphere_2.obj", "jm"), ("TM", "cavity_2.obj", "je")):
        surface = bundled.bundled_surface(name)
        metrics = mesh.compute_dual_metrics(surface)
        state = stepped_state(mode, surface, metrics, target, [3, 4])
        assert np.abs(state.e).max() > 0 and np.abs(state.h).max() > 0
        assert_writers_match_oracle(tmp_path, surface, state, mode)


def special_state(surface):
    specials = np.array([-0.0, 5e-324, 1e16, 0.1, 1.0, -1e-300, np.inf, np.nan])
    e = np.resize(specials, surface.n_edges)
    h = np.resize(specials[::-1], surface.n_faces)
    return solver.FieldState("TE", e, h, n=3, t=0.1)


def test_writers_match_per_line_oracle_on_special_values(tmp_path):
    surface = bundled.bundled_surface("icosphere_2.obj")
    with np.errstate(invalid="ignore"):
        assert_writers_match_oracle(tmp_path, surface, special_state(surface), "special")


def test_writers_match_per_line_oracle_across_short_blocks(tmp_path, monkeypatch):
    surface = bundled.bundled_surface("icosphere_2.obj")
    metrics = mesh.compute_dual_metrics(surface)
    # 23 numbers: several blocks per section (rows of 1, 2 and 3 numbers),
    # each with a short last block; 1 number: a block per row
    assert all(n % (23 // width) for n, width in (
        (surface.n_vertices, 3), (surface.n_faces, 3), (surface.n_faces, 1),
        (surface.n_edges, 2), (surface.n_faces, 2)))
    state = stepped_state("TE", surface, metrics, "jm", [0])
    rest = solver.initial_state("TE", surface)   # its all-zero columns are literal text
    for block in (23, 1):
        monkeypatch.setattr(output, "TEXT_BLOCK_NUMBERS", block)
        fresh = bundled.bundled_surface("icosphere_2.obj")   # its geometry text at this block
        assert_writers_match_oracle(tmp_path, fresh, state, f"blocks{block}")
        assert_writers_match_oracle(tmp_path, fresh, rest, f"rest{block}")


def growth_per_line(path, report):
    with open(path, "w") as fh:
        fh.write("face_id,k,M,xi_mod,dt\n")
        for face_id, k, m, xi, dt in report.rows():
            fh.write(f"{face_id},{_fmt(k)},{_fmt(m)},{_fmt(xi)},{_fmt(dt)}\n")


def test_growth_csv_matches_per_line_oracle(tmp_path, monkeypatch):
    surface = bundled.bundled_surface("icosphere_1.obj")
    metrics = mesh.compute_dual_metrics(surface)
    mats = solver.MaterialParams.uniform("TE", surface, eps=1.0, mu=1.0)
    swept = analysis.stability_sweep(surface, metrics, mats, [1e-3, 0.1, 10.0],
                                     k_samples=5, empirical_steps=0)
    specials = np.array([-0.0, 5e-324, 1e16, 0.1, 1.0, -1e-300, np.inf, np.nan])
    special = analysis.GrowthFactorReport(
        dt_list=[0.5, 1e-300], k_grid=specials[:3], M=np.resize(specials, (2, 4, 3)),
        xi_mod=np.resize(specials[::-1], (2, 4, 3)), c=np.ones(4))
    # one block; many of 7 rows, short last; one row each
    for block in (output.TEXT_BLOCK_NUMBERS, 35, 1):
        monkeypatch.setattr(output, "TEXT_BLOCK_NUMBERS", block)
        for tag, report in (("swept", swept), ("special", special)):
            new, old = tmp_path / f"{tag}{block}.csv", tmp_path / f"{tag}{block}_oracle.csv"
            output.write_growth_csv(str(new), report)
            growth_per_line(str(old), report)
            assert new.read_bytes() == old.read_bytes(), (tag, block)


def test_snapshot_text_kernel_passes(tmp_path, monkeypatch):
    """The kernel passes of the 20480-face snapshots of the sphere_pulse
    benchmark: blocks hold up to ``TEXT_BLOCK_NUMBERS`` numbers, and the
    all-zero columns of a state at rest take none."""
    make_assets = load_tool("make_assets")
    ico3 = bundled.bundled_surface("icosphere_3.obj")
    verts, faces = make_assets.subdivide(ico3.vertices, ico3.faces, project_unit_sphere=True)
    verts, faces = make_assets.subdivide(verts, faces, project_unit_sphere=True)
    surface = mesh.from_arrays(verts, faces)
    assert (surface.n_vertices, surface.n_edges, surface.n_faces) == (10242, 30720, 20480)
    assert output.TEXT_BLOCK_NUMBERS == 8192
    passes = []
    kernel = _text._render
    monkeypatch.setattr(_text, "_render", lambda *args: passes.append(1) or kernel(*args))

    def count(state):
        passes.clear()
        output.write_vtk_snapshot(str(tmp_path / "s.vtk"), surface, state)
        output.write_csv_snapshot(str(tmp_path / "s.csv"), state)
        return len(passes)

    # geometry: 4 blocks of vertices and 8 of cells, formatted once; at rest
    # the CSV's index columns only: 4 blocks of edges and 3 of faces
    assert count(solver.initial_state("TE", surface)) == 12 + 7
    rng = np.random.default_rng(4)
    state = solver.FieldState("TE", rng.normal(size=surface.n_edges),
                              rng.normal(size=surface.n_faces), n=40, t=1.0)
    # VTK: 3 blocks of scalars, 8 of vectors; CSV: 8 of edges, 5 of faces
    assert count(state) == 24


def probes_per_line(path, probes, states):
    with open(path, "w") as fh:
        fh.write("# probe samples of integrated cochain values\n")
        fh.write("# (edge quantities are line integrals: field x length;\n")
        fh.write("#  face quantities are dual-node values)\n")
        fh.write("step,t,probe,quantity,index,value\n")
        for state in states:
            for probe in probes:
                array = state.e if probe.quantity == "e" else state.h
                fh.write(f"{state.n},{_fmt(state.t)},{probe.name},"
                         f"{probe.quantity},{probe.index},{_fmt(array[probe.index])}\n")


def test_probe_writer_matches_per_line_oracle(tmp_path):
    surface = bundled.bundled_surface("icosphere_2.obj")
    first = special_state(surface)
    states = [first, solver.FieldState("TE", -first.e, first.h[::-1], n=4, t=np.float64(0.2))]
    probes = [config.ProbeSpec(name, quantity, index) for name, quantity, index in
              (("p%d", "e", 0), ("{h}", "h", 1), ("x", "e", 6), ("y", "h", 7))]
    writer = output.ProbeWriter(str(tmp_path / "new.csv"), probes)
    with np.errstate(invalid="ignore"):
        for state in states:
            writer.record(state)
    writer.close()
    probes_per_line(str(tmp_path / "old.csv"), probes, states)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_vtk_geometry_is_formatted_once_per_surface(tmp_path):
    surface = bundled.bundled_surface("icosphere_1.obj")
    state = solver.initial_state("TE", surface)
    output.write_vtk_snapshot(str(tmp_path / "a.vtk"), surface, state)
    cached = surface._vtk_geometry
    output.write_vtk_snapshot(str(tmp_path / "b.vtk"), surface, state)
    assert surface._vtk_geometry is cached
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
    # a later snapshot writes the cached text, not a fresh formatting
    object.__setattr__(surface, "_vtk_geometry", ("ASCII\nCACHED GEOMETRY\n",))
    output.write_vtk_snapshot(str(tmp_path / "c.vtk"), surface, state)
    assert "CACHED GEOMETRY" in (tmp_path / "c.vtk").read_text()


def test_vtk_geometry_cache_is_per_surface(tmp_path):
    first = bundled.bundled_surface("icosphere_1.obj")
    moved = mesh.from_arrays(2.0 * first.vertices, first.faces)   # same cells
    for tag, surface in (("first", first), ("moved", moved)):
        metrics = mesh.compute_dual_metrics(surface)
        state = stepped_state("TE", surface, metrics, "jm", [0], steps=2)
        assert_writers_match_oracle(tmp_path, surface, state, tag)
    assert first._vtk_geometry != moved._vtk_geometry


def test_compare_outputs_tool(tmp_path, capsys):
    tool = load_tool("compare_outputs")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    cfg = tmp_path / "a.cfg"
    cfg.write_text(
        "mesh_path = icosphere_1.obj\nmode = TE\ndt = 0.05\nsteps = 4\n"
        "source.kind = gaussian_pulse\nsource.target = jm\nsource.amplitude = 1.0\n"
        "source.t0 = 0.1\nsource.width = 0.05\nsource.support = 0\n"
        "probe.p0.quantity = h\nprobe.p0.index = 0\n"
        "output.cadence = 2\noutput.formats = vtk,csv\n")
    assert tool.main([src, src, str(cfg)]) == 0
    assert "same" in capsys.readouterr().out
    conv = tmp_path / "conv.cfg"
    conv.write_text(
        "mesh_path = cavity_1.obj\nmode = TM\ndt = 0.016\nmaterial.eps = 1\nmaterial.mu = 1\n"
        "convergence.time = 0.064\nconvergence.dt0 = 0.016\nconvergence.levels = 2\n")
    assert tool.main([src, src, str(conv), "--command", "convergence"]) == 0
    assert "2 files" in capsys.readouterr().out
    assert tool.absolute_difference("-0.0", "0.0") == 0.0
    assert tool.absolute_difference("nan", "nan") == 0.0
    assert tool.absolute_difference("nan", "1.0") == float("inf")
    assert tool.absolute_difference("-2.0", "2.0") == 4.0

    def figure(a, b):
        return tool.scale_relative_difference(tool.NUMBER.findall(a), tool.NUMBER.findall(b))

    # a roundoff-level entry next to O(1) ones is 1e-20 / 4 of the largest
    # magnitude; equal numbers give 0 and a column of zeros that differs is
    # infinitely far off
    assert figure("1,0.5,1e-20\n2,4.0,-inf\n", "1,0.5,2e-20\n2,4.0,-inf\n") == 1e-20 / 4.0
    assert figure("x 1.5\n", "x 1.5\n") == 0.0
    assert figure("0.0 0\n", "1e-300 0\n") == float("inf")

    # per column of a CSV: comment lines skipped, text cells ignored
    assert tool.column_differences("# c\nstep,probe,value\n1,p0,2.0\n2,p0,-4.0\n",
                                   "# c\nstep,probe,value\n1,p0,2.5\n2,p0,-4.0\n") == (
        "step 0, value 0.125")

    # a copy whose CSV snapshot header differs is caught, file by file
    mutant = tmp_path / "mutant"
    shutil.copytree(os.path.join(src, "decem"), mutant / "decem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    writer = mutant / "decem" / "output.py"
    writer.write_text(writer.read_text().replace("exact regression contract", "changed"))
    assert tool.main([src, str(mutant), str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line for line in lines if line.startswith("DIFFERS")]
    assert [line.rsplit(": ", 1)[1] for line in differing] == [
        "snapshot_000000.csv", "snapshot_000002.csv", "snapshot_000004.csv"]
    # each is followed by how it differs: in its text, not in its numbers
    details = [line.strip() for line in lines if line.startswith(" ")]
    assert len(details) == 3
    assert all(d.startswith("text differs, 0 of ") for d in details)

    # a copy whose energies are 1e-9 larger differs in run_log.csv numbers only
    scaled = tmp_path / "scaled"
    shutil.copytree(os.path.join(src, "decem"), scaled / "decem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    energy = scaled / "decem" / "solver.py"
    text = energy.read_text()
    assert text.count("return 0.5 * float(uu + ww)") == 1
    energy.write_text(text.replace("return 0.5 * float(uu + ww)",
                                   "return 0.5 * float(uu + ww) * (1 + 1e-9)"))
    assert tool.main([src, str(scaled), str(cfg)]) == 1
    assert [line.strip() for line in capsys.readouterr().out.splitlines()] == [
        f"DIFFERS {cfg}: run_log.csv",
        "text same, 2 of 15 numbers differ",
        # each column is measured against its own largest number
        "per column: step 0, t 0, energy 1e-09, max_gauss_electric 0, "
        "max_gauss_magnetic 0"]

    # a config that fails on both sides with the same exit status differs
    assert tool.main([src, src, str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"DIFFERS {tmp_path}: both exited 2" in lines
    assert not any(line.startswith("same") for line in lines)

