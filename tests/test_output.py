import importlib.util
import os

import numpy as np

from decem import bundled, mesh, output

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def load_make_assets():
    spec = importlib.util.spec_from_file_location(
        "make_assets", os.path.join(TOOLS, "make_assets.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_whitney_reproduces_constant_tangential_field():
    surface = bundled.bundled_surface("cavity_2.obj")   # flat, z = 0
    metrics = mesh.compute_dual_metrics(surface)
    field = np.array([0.7, -1.3, 0.0])
    v = surface.vertices
    cochain = (v[surface.edges[:, 1]] - v[surface.edges[:, 0]]) @ field
    vectors = output.whitney_face_vectors(surface, metrics, cochain)
    assert np.abs(vectors - field).max() <= 1e-12


def test_whitney_blocks_match_single_pass(monkeypatch):
    make_assets = load_make_assets()
    ico3 = bundled.bundled_surface("icosphere_3.obj")
    verts, faces = make_assets.subdivide(ico3.vertices, ico3.faces,
                                         project_unit_sphere=True)
    surface = mesh.from_arrays(verts, faces)
    assert surface.n_faces == 5120 > output.WHITNEY_BLOCK_FACES
    metrics = mesh.compute_dual_metrics(surface)
    cochain = np.random.default_rng(3).normal(size=surface.n_edges)
    blocked = output.whitney_face_vectors(surface, metrics, cochain)
    monkeypatch.setattr(output, "WHITNEY_BLOCK_FACES", surface.n_faces)
    single = output.whitney_face_vectors(surface, metrics, cochain)
    assert np.array_equal(blocked, single)
