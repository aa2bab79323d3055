import dataclasses
import importlib.util
import os
import re
import shutil
import types

import numpy as np
import pytest

from decem import _text, analysis, bundled, mesh, output, solver

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
    """-0.0 would keep its sign bit in the VTK file, whose state at rest
    writes +0.0 vectors without the reconstruction."""
    surface = bundled.bundled_surface("icosphere_3.obj")
    vectors = output.whitney_face_vectors(surface, np.zeros(surface.n_edges))
    assert not vectors.any() and not np.signbit(vectors).any()


def test_vtk_at_rest_skips_the_reconstruction(tmp_path, monkeypatch, read_vtk):
    """A zero edge cochain, -0.0 entries included, writes the +0.0 vectors
    the reconstruction would give without computing it."""
    rng = np.random.default_rng(6)
    cases = []
    for mode, name in (("TE", "icosphere_2.obj"), ("TM", "cavity_2.obj")):
        surface = bundled.bundled_surface(name)
        signed_zeros = np.where(rng.random(surface.n_edges) < 0.5, -0.0, 0.0)
        signed_zeros[0] = -0.0
        # place orders an (edge, face) pair as (e, h)
        e, h = solver.polarization(mode).place(signed_zeros, rng.normal(size=surface.n_faces))
        cases += [(surface, solver.initial_state(mode, surface)),
                  (surface, solver.FieldState(mode, e, h, n=2, t=0.1))]

    def fail(*args):
        raise AssertionError("the Whitney reconstruction ran at rest")

    monkeypatch.setattr(output, "_whitney_blocks", fail)
    for k, (surface, state) in enumerate(cases):
        output.write_vtk_snapshot(str(tmp_path / f"{k}.vtk"), surface, state)
    monkeypatch.undo()
    for k, (surface, state) in enumerate(cases):
        arrays = read_vtk(str(tmp_path / f"{k}.vtk"))
        assert_vtk_holds(arrays, surface, state)
        vectors = arrays[f"{solver.polarization(state.mode).edge_field}_vec"]
        assert not vectors.tobytes().strip(b"\0")    # +0.0 only


def test_whitney_blocks_match_single_pass(monkeypatch):
    make_assets = load_tool("make_assets")
    ico3 = bundled.bundled_surface("icosphere_3.obj")
    verts, faces = make_assets.subdivide(ico3.vertices, ico3.faces,
                                         project_unit_sphere=True)
    surface = mesh.from_arrays(verts, faces)
    assert surface.n_faces == 5120 > output.TEXT_BLOCK_NUMBERS // 3
    cochain = np.random.default_rng(3).normal(size=surface.n_edges)
    blocked = output.whitney_face_vectors(surface, cochain)
    monkeypatch.setattr(output, "TEXT_BLOCK_NUMBERS", 3 * surface.n_faces)
    single = output.whitney_face_vectors(surface, cochain)
    assert np.array_equal(blocked, single)


# The per-corner-gradient reconstruction that the closed form replaced, kept
# as the oracle.
def whitney_per_corner(surface, edge_values):
    out = np.zeros((surface.n_faces, 3))
    for start in range(0, surface.n_faces, 4096):
        rows = slice(start, start + 4096)
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


def same_bits(read, expected):
    """Whether two float arrays hold the same float64 bit patterns, whatever
    their byte order."""
    read, expected = (np.asarray(a, dtype=np.float64) for a in (read, expected))
    return read.shape == expected.shape and read.tobytes() == expected.tobytes()


def assert_vtk_holds(arrays, surface, state):
    """The arrays of a VTK snapshot, as ``read_vtk`` reads them, are bit for
    bit the surface, its triangle cells and the state's fields."""
    pol = solver.polarization(state.mode)
    edge_field, face_scalar = pol.place(state.e, state.h)
    vector = f"{pol.edge_field}_vec"
    assert arrays.keys() == {"points", "cells", "cell_types", pol.face_field, vector}
    assert same_bits(arrays["points"], surface.vertices)
    assert np.array_equal(arrays["cells"], np.column_stack(
        [np.full(surface.n_faces, 3), surface.faces]))
    assert np.array_equal(arrays["cell_types"], np.full(surface.n_faces, 5))
    assert same_bits(arrays[pol.face_field], face_scalar)
    assert same_bits(arrays[vector], output.whitney_face_vectors(surface, edge_field))


# The per-line writers that the block writers replaced: the CSV one is the
# byte oracle of the CSV snapshot, and the VTK one writes the legacy ASCII
# layout, which the strict VTK reader must refuse.
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


def assert_writers_match_oracle(tmp_path, surface, state, tag, read_vtk):
    """The VTK snapshot holds the surface and the state bit for bit, and the
    CSV snapshot is the per-line oracle's bytes."""
    vtk = tmp_path / f"{tag}.vtk"
    output.write_vtk_snapshot(str(vtk), surface, state)
    assert_vtk_holds(read_vtk(str(vtk)), surface, state)
    new, old = tmp_path / f"{tag}.csv", tmp_path / f"{tag}_oracle.csv"
    output.write_csv_snapshot(str(new), state)
    csv_per_line(str(old), state)
    assert new.read_bytes() == old.read_bytes(), tag


def stepped_state(mode, surface, metrics, target, support, steps=5):
    mats = solver.MaterialParams.uniform(mode, surface, eps=1.0, mu=1.0, sigma=0.1)
    stepper = solver.assemble(surface, metrics, mats, 0.05)
    source = solver.SourceSpec(kind="gaussian_pulse", target=target, amplitude=1.0,
                               t0=0.1, width=0.05, support=support)
    state = solver.initial_state(mode, surface)
    for _ in range(steps):
        state = solver.step(stepper, state, source)
    return state


def test_strict_vtk_reader_refuses_malformed_files(tmp_path, read_vtk):
    """The reader of the VTK tests takes exactly the bytes that each keyword
    line announces: a file one byte short or long, a miscounted header or
    the legacy ASCII layout fails it.  A snapshot's size is that of its
    keyword lines and newlines plus 8 bytes per double and 4 per int."""
    surface = bundled.bundled_surface("icosphere_1.obj")
    metrics = mesh.compute_dual_metrics(surface)
    state = stepped_state("TE", surface, metrics, "jm", [0], steps=2)
    path = tmp_path / "s.vtk"
    output.write_vtk_snapshot(str(path), surface, state)
    good = path.read_bytes()
    keywords = 27 + 15 + 7 + 26 + 17 + 14 + 15 + 14 + 19 + 21 + 22 + 1   # 42 points, 80 faces
    assert len(good) == keywords + 8 * 3 * 42 + 4 * 4 * 80 + 4 * 80 + 8 * 80 + 8 * 3 * 80
    assert_vtk_holds(read_vtk(str(path)), surface, state)
    vtk_per_line(str(tmp_path / "ascii.vtk"), surface, state)
    for tag, data in (("short", good[:-1]), ("long", good + b"\n"),
                      ("cells", good.replace(b"CELLS 80 320", b"CELLS 80 324")),
                      ("ascii", (tmp_path / "ascii.vtk").read_bytes())):
        (tmp_path / f"{tag}.vtk").write_bytes(data)
        with pytest.raises((AssertionError, ValueError)):
            read_vtk(str(tmp_path / f"{tag}.vtk"))


def test_writers_match_per_line_oracle_after_steps(tmp_path, read_vtk):
    for mode, name, target in (("TE", "icosphere_2.obj", "jm"), ("TM", "cavity_2.obj", "je")):
        surface = bundled.bundled_surface(name)
        metrics = mesh.compute_dual_metrics(surface)
        state = stepped_state(mode, surface, metrics, target, [3, 4])
        assert np.abs(state.e).max() > 0 and np.abs(state.h).max() > 0
        assert_writers_match_oracle(tmp_path, surface, state, mode, read_vtk)


def special_state(surface):
    specials = np.array([-0.0, 5e-324, 1e16, 0.1, 1.0, -1e-300, np.inf, np.nan])
    e = np.resize(specials, surface.n_edges)
    h = np.resize(specials[::-1], surface.n_faces)
    return solver.FieldState("TE", e, h, n=3, t=0.1)


def test_writers_match_per_line_oracle_on_special_values(tmp_path, read_vtk):
    surface = bundled.bundled_surface("icosphere_2.obj")
    with np.errstate(invalid="ignore"):
        assert_writers_match_oracle(tmp_path, surface, special_state(surface), "special",
                                    read_vtk)


def test_writers_match_per_line_oracle_across_short_blocks(tmp_path, monkeypatch, read_vtk):
    surface = bundled.bundled_surface("icosphere_2.obj")
    metrics = mesh.compute_dual_metrics(surface)
    # 23 numbers: several CSV blocks per section (rows of 1 number that needs
    # the kernel at rest, of 2 once stepped), each with a short last block;
    # 1 number: a block per row
    assert all(n % (23 // width) for n in (surface.n_edges, surface.n_faces)
               for width in (1, 2))
    state = stepped_state("TE", surface, metrics, "jm", [0])
    rest = solver.initial_state("TE", surface)   # its all-zero columns are literal text
    for block in (23, 1):
        monkeypatch.setattr(output, "TEXT_BLOCK_NUMBERS", block)
        assert_writers_match_oracle(tmp_path, surface, state, f"blocks{block}", read_vtk)
        assert_writers_match_oracle(tmp_path, surface, rest, f"rest{block}", read_vtk)


def test_growth_csv_matches_per_line_oracle(tmp_path):
    """``growth.csv`` has one line per row of the report, and every number
    reads back bit for bit, special values included."""
    surface = bundled.bundled_surface("icosphere_1.obj")
    metrics = mesh.compute_dual_metrics(surface)
    mats = solver.MaterialParams.uniform("TE", surface, eps=1.0, mu=1.0)
    swept = analysis.stability_sweep(surface, metrics, mats, [1e-3, 0.1, 10.0])
    specials = [-0.0, 5e-324, 1e16, 0.1, 1.0, -1e-300, np.inf, np.nan]
    special = [("lowest", *np.roll(specials, i)[:4]) for i in range(8)]
    for tag, rows in (("swept", list(swept.rows())), ("special", special)):
        report = types.SimpleNamespace(
            rows=lambda: iter(rows), summary=lambda: tag, csv_name=f"{tag}.csv",
            csv_header=analysis.GrowthFactorReport.csv_header, text_name=f"{tag}.txt")
        assert output.write_report(str(tmp_path), report) == tag
        assert (tmp_path / f"{tag}.txt").read_text() == tag + "\n"
        lines = (tmp_path / f"{tag}.csv").read_text().splitlines()
        assert lines[0] == "mode,lambda,M,xi_mod,dt"
        assert [line.split(",")[0] for line in lines[1:]] == [row[0] for row in rows]
        read = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
        assert read.tobytes() == np.array([row[1:] for row in rows], dtype=float).tobytes()


@pytest.mark.parametrize("report,layout", [
    (analysis.GrowthFactorReport, ("growth.csv", "mode,lambda,M,xi_mod,dt", "summary.txt")),
    (analysis.ConvergenceReport, ("errors.csv", "study,h,dt,error", "convergence.txt")),
])
def test_a_report_names_its_own_files(report, layout):
    """Each report class carries the CSV name, CSV header and text name that
    ``write_report`` writes, as class attributes that are not fields."""
    assert (report.csv_name, report.csv_header, report.text_name) == layout
    fields = {field.name for field in dataclasses.fields(report)}
    assert fields.isdisjoint({"csv_name", "csv_header", "text_name"})


def test_errors_csv_matches_per_line_oracle(tmp_path):
    """``errors.csv`` has the line that ``decem convergence`` wrote by hand
    for each joint (h, dt, error) and temporal (dt, error) row, every number
    as its ``repr``, special values included, and ``convergence.txt`` holds
    the summary."""
    studied = analysis.convergence_study(bundled.bundled_surface("cavity_1.obj"), 0.016,
                                         time=0.032)
    specials = [-0.0, 5e-324, 1e16, 0.1, 1.0, -1e-300, float("inf"), float("nan")]
    special = analysis.ConvergenceReport(
        joint=[tuple(specials[i:i + 3]) for i in range(6)],
        temporal=[tuple(specials[i:i + 2]) for i in range(7)], joint_order=1.0,
        temporal_order=float("nan"))
    for tag, report in (("studied", studied), ("special", special)):
        out = tmp_path / tag
        assert output.write_report(str(out), report) == report.summary()
        assert (out / "convergence.txt").read_text() == report.summary() + "\n"
        oracle = (["study,h,dt,error"]
                  + [f"joint,{h!r},{dt!r},{err!r}" for h, dt, err in report.joint]
                  + [f"temporal,,{dt!r},{err!r}" for dt, err in report.temporal])
        assert (out / "errors.csv").read_text().splitlines() == oracle


def test_snapshot_text_kernel_passes(tmp_path, monkeypatch):
    """The kernel passes of the 20480-face snapshots of the sphere_pulse
    benchmark, one per ``_text.rows`` call: the CSV's blocks hold up to
    ``TEXT_BLOCK_NUMBERS`` numbers that need the kernel, the all-zero values
    of a state at rest need none, and the VTK, whose arrays are bytes, takes
    none."""
    make_assets = load_tool("make_assets")
    ico3 = bundled.bundled_surface("icosphere_3.obj")
    verts, faces = make_assets.subdivide(ico3.vertices, ico3.faces, project_unit_sphere=True)
    verts, faces = make_assets.subdivide(verts, faces, project_unit_sphere=True)
    surface = mesh.from_arrays(verts, faces)
    assert (surface.n_vertices, surface.n_edges, surface.n_faces) == (10242, 30720, 20480)
    assert output.TEXT_BLOCK_NUMBERS == 8192
    passes = []
    kernel = _text.rows
    monkeypatch.setattr(_text, "rows", lambda *args: passes.append(1) or kernel(*args))

    def count(state):
        passes.clear()
        output.write_vtk_snapshot(str(tmp_path / "s.vtk"), surface, state)
        output.write_csv_snapshot(str(tmp_path / "s.csv"), state)
        return len(passes)

    # at rest the CSV's indices only: 4 blocks of edges and 3 of faces
    assert count(solver.initial_state("TE", surface)) == 7
    rng = np.random.default_rng(4)
    state = solver.FieldState("TE", rng.normal(size=surface.n_edges),
                              rng.normal(size=surface.n_faces), n=40, t=1.0)
    # 8 blocks of edges and 5 of faces
    assert count(state) == 13


def probes_per_line(path, probes, states):
    with open(path, "w") as fh:
        fh.write("# probe samples of integrated cochain values\n")
        fh.write("# (edge quantities are line integrals: field x length;\n")
        fh.write("#  face quantities are dual-node values)\n")
        fh.write("step,t,probe,quantity,index,value\n")
        for state in states:
            for name, probe in probes.items():
                array = state.e if probe["quantity"] == "e" else state.h
                fh.write(f"{state.n},{_fmt(state.t)},{name},{probe['quantity']},"
                         f"{probe['index']},{_fmt(array[probe['index']])}\n")


def test_probe_writer_matches_per_line_oracle(tmp_path):
    surface = bundled.bundled_surface("icosphere_2.obj")
    first = special_state(surface)
    states = [first, solver.FieldState("TE", -first.e, first.h[::-1], n=4, t=np.float64(0.2))]
    probes = {name: {"quantity": quantity, "index": index} for name, quantity, index in
              (("p%d", "e", 0), ("{h}", "h", 1), ("x", "e", 6), ("y", "h", 7))}
    writer = output.ProbeWriter(str(tmp_path / "new.csv"), probes)
    with np.errstate(invalid="ignore"):
        for state in states:
            writer.record(state)
    writer.close()
    probes_per_line(str(tmp_path / "old.csv"), probes, states)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
    out = capsys.readouterr().out
    assert re.search(r"^same    .*: \d+ files, peak RSS \d+\.\d -> \d+\.\d MB$", out, re.M)
    assert out.splitlines()[-1] == "largest scale-relative difference: 0"
    conv = tmp_path / "conv.cfg"
    conv.write_text(
        "mesh_path = cavity_1.obj\nmode = TM\ndt = 0.016\nsteps = 4\nmaterial.eps = 1\n"
        "material.mu = 1\n")
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
                                   "# c\nstep,probe,value\n1,p0,2.5\n2,p0,-4.0\n") == {
        "step": 0.0, "value": 0.125}

    # a text file that is not a CSV counts as one column
    txt_a, txt_b = tmp_path / "a.txt", tmp_path / "b.txt"
    txt_a.write_text("lambda in [0, 4.0]\n")
    txt_b.write_text("lambda in [0, 4.5]\n")
    assert tool.describe_difference(str(txt_a), str(txt_b)) == (
        "text same, 1 of 2 numbers differ", (0.125, ""))

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
    # which is no roundoff
    assert lines[-1] == f"largest scale-relative difference: inf ({cfg}: snapshot_000000.csv)"

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
        "max_gauss_magnetic 0",
        f"largest scale-relative difference: 1e-09 ({cfg}: run_log.csv energy)"]

    # a VTK file is compared by its arrays, read bit for bit from the binary
    # layout, special values included (nan equals nan); a file of another
    # encoding is refused
    surface = bundled.bundled_surface("icosphere_2.obj")
    state = special_state(surface)
    vtk = str(tmp_path / "b.vtk")
    with np.errstate(invalid="ignore"):
        output.write_vtk_snapshot(vtk, surface, state)
        vectors = output.whitney_face_vectors(surface, state.e)
    arrays = tool.read_vtk(vtk)
    assert list(arrays) == ["POINTS", "CELLS", "CELL_TYPES", "SCALARS h", "VECTORS e_vec"]
    assert same_bits(arrays["POINTS"], surface.vertices.ravel())
    assert same_bits(arrays["SCALARS h"], state.h)
    assert same_bits(arrays["VECTORS e_vec"], vectors.ravel())
    assert tool.describe_difference(vtk, vtk) == (
        "arrays equal\n        per array: POINTS: 0 of 486 differ, 0; "
        "CELLS: 0 of 1280 differ, 0; CELL_TYPES: 0 of 320 differ, 0; "
        "SCALARS h: 0 of 320 differ, 0; VECTORS e_vec: 0 of 960 differ, 0", (0.0, ""))
    ascii_vtk = tmp_path / "a.vtk"
    ascii_vtk.write_bytes(b"# vtk DataFile Version 3.0\ndecem snapshot\nASCII\n")
    assert tool.describe_difference(str(ascii_vtk), vtk) == (
        f"{ascii_vtk}: not a legacy binary VTK file", (float("inf"), ""))

    # a copy whose Whitney vectors are 1e-9 larger differs in the VTK
    # vectors only, at the nonzero snapshots
    vectors = tmp_path / "vectors"
    shutil.copytree(os.path.join(src, "decem"), vectors / "decem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    writer = vectors / "decem" / "output.py"
    text = writer.read_text()
    assert text.count("vectors += 0.0") == 1
    writer.write_text(text.replace("vectors += 0.0", "vectors *= 1 + 1e-9"))
    assert tool.main([src, str(vectors), str(cfg)]) == 1
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    *lines, last = lines
    assert lines[0::3] == [f"DIFFERS {cfg}: snapshot_00000{n}.vtk" for n in (2, 4)]
    assert lines[1::3] == ["1 of 5 arrays differ"] * 2
    figures = {}
    for n, detail in zip((2, 4), lines[2::3]):
        assert detail.startswith("per array: POINTS: 0 of 126 differ, 0; CELLS: 0 of 320 "
                                 "differ, 0; CELL_TYPES: 0 of 80 differ, 0; SCALARS h: 0 of "
                                 "80 differ, 0; VECTORS e_vec: ")
        count, figure = re.fullmatch(r".*e_vec: (\d+) of 240 differ, (\S+)", detail).groups()
        assert int(count) > 0 and 0.5e-9 < float(figure) < 2e-9
        figures[f"snapshot_00000{n}.vtk"] = figure
    # the last line is the larger of the two snapshots' figures, and where
    name = max(figures, key=lambda name: float(figures[name]))
    assert last == (f"largest scale-relative difference: {figures[name]} "
                    f"({cfg}: {name} VECTORS e_vec)")

    # a config that fails on both sides with the same exit status differs
    assert tool.main([src, src, str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"DIFFERS {tmp_path}: both exited 2" in lines
    assert not any(line.startswith("same") for line in lines)
    assert lines[-1] == f"largest scale-relative difference: inf ({tmp_path}: both exited 2)"

