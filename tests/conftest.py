import gc
import importlib.util
import os

import numpy as np
import pytest

from decem import bundled, mesh


@pytest.fixture(autouse=True)
def unfreeze_gc():
    """``cli.main`` freezes the heap of its process (see there); unfreeze
    after each test so that the suite's own garbage stays collectable."""
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def icosphere1():
    return bundled.bundled_surface("icosphere_1.obj")


@pytest.fixture(scope="session")
def icosphere1_metrics(icosphere1):
    return mesh.compute_dual_metrics(icosphere1)


@pytest.fixture(scope="session")
def cavity1():
    return bundled.bundled_surface("cavity_1.obj")


@pytest.fixture(scope="session")
def cavity1_metrics(cavity1):
    return mesh.compute_dual_metrics(cavity1)


@pytest.fixture
def single_triangle():
    return mesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


@pytest.fixture
def equilateral():
    return mesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]], [[0, 1, 2]]
    )


@pytest.fixture
def two_triangles():
    """Two equilateral triangles sharing the edge (0,1); all faces acute."""
    v = [
        [0, 0, 0],
        [1, 0, 0],
        [0.5, np.sqrt(3) / 2, 0],
        [0.5, -np.sqrt(3) / 2, 0],
    ]
    return mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])


@pytest.fixture(scope="session")
def obtuse_pair():
    """An obtuse triangle next to an acute one: one negative dual segment."""
    v = [[0, 0, 0], [1, 0, 0], [0.5, 0.15, 0], [0.5, -0.8, 0]]
    return mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])


@pytest.fixture(scope="session")
def icosphere4():
    """Icosphere L4 (5120 faces), subdivided in memory from the bundled L3."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_assets.py")
    spec = importlib.util.spec_from_file_location("make_assets", path)
    make_assets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_assets)
    ico3 = bundled.bundled_surface("icosphere_3.obj")
    return mesh.from_arrays(*make_assets.subdivide(ico3.vertices, ico3.faces,
                                                   project_unit_sphere=True))


@pytest.fixture(scope="session")
def jittered_cavity():
    """cavity_2 with its vertices moved in-plane by up to 15% of the shortest
    edge: some faces are obtuse and some dual edges negative, none zero."""
    s = bundled.bundled_surface("cavity_2.obj")
    shortest = mesh.compute_dual_metrics(s).edge_len.min()
    v = s.vertices.copy()
    v[:, :2] += 0.15 * shortest * np.random.default_rng(0).uniform(-1, 1, (len(v), 2))
    return mesh.from_arrays(v, s.faces)


@pytest.fixture(params=[name for name in bundled.bundled_names() if name.endswith(".obj")]
                + ["icosphere4", "obtuse_pair", "jittered_cavity"])
def oracle_surface(request):
    """Every bundled mesh, a finer sphere and two non-well-centered meshes."""
    if request.param.endswith(".obj"):
        return bundled.bundled_surface(request.param)
    return request.getfixturevalue(request.param)


ICOSAHEDRON_OBJ = """\
v -0.5257311121191336 0.85065080835204 0.0
v 0.5257311121191336 0.85065080835204 0.0
v -0.5257311121191336 -0.85065080835204 0.0
v 0.5257311121191336 -0.85065080835204 0.0
v 0.0 -0.5257311121191336 0.85065080835204
v 0.0 0.5257311121191336 0.85065080835204
v 0.0 -0.5257311121191336 -0.85065080835204
v 0.0 0.5257311121191336 -0.85065080835204
v 0.85065080835204 0.0 -0.5257311121191336
v 0.85065080835204 0.0 0.5257311121191336
v -0.85065080835204 0.0 -0.5257311121191336
v -0.85065080835204 0.0 0.5257311121191336
f 1 12 6
f 1 6 2
f 1 2 8
f 1 8 11
f 1 11 12
f 2 6 10
f 6 12 5
f 12 11 3
f 11 8 7
f 8 2 9
f 4 10 5
f 4 5 3
f 4 3 7
f 4 7 9
f 4 9 10
f 5 10 6
f 3 5 12
f 7 3 11
f 9 7 8
f 10 9 2
"""


@pytest.fixture
def icosahedron_path(tmp_path):
    p = tmp_path / "icosahedron.obj"
    p.write_text(ICOSAHEDRON_OBJ)
    return str(p)
