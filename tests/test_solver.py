import dataclasses
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from decem import bundled, dec, mesh, solver


def stars_of(surface, metrics):
    return dec.build_hodge_stars(surface, metrics)


def sphere_stepper(surface, metrics, dt_scale=100.0, kind="direct", **mat_kw):
    mats = solver.MaterialParams.uniform("TE", surface, eps=1.0, mu=1.0, **mat_kw)
    dt = dt_scale * metrics.dual_edge_len.min()
    return solver.assemble(surface, metrics, mats, dt, solver=kind), mats


def face_system(stepper):
    """The face system of a stepper, built by the code ``assemble`` factors;
    a stepper holds its solve, not the matrix."""
    g = stepper.polarization.couple_sign * stepper.edge_couple   # s s g = g
    return solver._face_system(stepper.surface.d1, stepper.face_plus, g)


def face_bump(surface, center=(0.0, 0.0, 1.0), width=0.1):
    d2 = ((mesh.face_circumcenters(surface) - np.asarray(center)) ** 2).sum(axis=1)
    return np.exp(-d2 / width)


# -- assembly ---------------------------------------------------------------


def test_assembled_system_is_spd(two_triangles, icosphere1, icosphere1_metrics):
    m2 = mesh.compute_dual_metrics(two_triangles)
    for surface, metrics, mode in (
        (two_triangles, m2, "TE"),
        (two_triangles, m2, "TM"),
        (icosphere1, icosphere1_metrics, "TE"),
    ):
        mats = solver.MaterialParams.uniform(mode, surface, eps=1.3, mu=0.7,
                                             sigma=0.2, sigma_m=0.1)
        stepper = solver.assemble(surface, metrics, mats, dt=0.3)
        dense = face_system(stepper).toarray()
        assert np.allclose(dense, dense.T, rtol=1e-12)
        assert np.linalg.eigvalsh(dense).min() > 0


def test_assemble_rejects_bad_inputs(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1)
    with pytest.raises(ValueError, match="dt must be positive"):
        solver.assemble(icosphere1, icosphere1_metrics, mats, dt=0.0)
    with pytest.raises(ValueError, match="solver must be"):
        solver.assemble(icosphere1, icosphere1_metrics, mats, dt=0.1,
                        solver="lu")
    # scipy's cg reports success after zero iterations, so a cap of 0 would
    # step by returning the warm start unchanged
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            solver.assemble(icosphere1, icosphere1_metrics, mats, dt=0.1,
                            solver="cg", max_iters=cap)


@pytest.mark.parametrize("call,message", [
    (lambda s, m: solver.step(
        solver.assemble(s, m, solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0), 0.1),
        solver.initial_state("TM", s)),
     "state mode TM does not match stepper TE"),
    (lambda s, m: solver.MaterialParams.from_face_values(
        "TE", s, np.ones(s.n_faces - 1), np.ones(s.n_faces)),
     "eps must be a per-face array"),
], ids=["mode", "eps-length"])
def test_solver_refuses_mismatched_inputs(call, message, icosphere1, icosphere1_metrics):
    with pytest.raises(ValueError) as err:
        call(icosphere1, icosphere1_metrics)
    assert str(err.value) == message


def test_material_validation(icosphere1):
    with pytest.raises(ValueError, match="positive"):
        solver.MaterialParams.uniform("TE", icosphere1, eps=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        solver.MaterialParams.uniform("TE", icosphere1, sigma=-0.5)


def test_nonfinite_inputs_rejected(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1)
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            solver.assemble(icosphere1, icosphere1_metrics, mats, dt=dt)
    for tolerance in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solver.assemble(icosphere1, icosphere1_metrics, mats, dt=0.1,
                            solver="cg", tolerance=tolerance)
    for bad in ({"eps": np.nan}, {"mu": np.inf}, {"sigma": np.nan}, {"sigma_m": np.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            solver.MaterialParams.uniform("TE", icosphere1, **bad)
    for bad in ({"width": np.nan}, {"amplitude": np.inf}, {"t0": np.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            solver.SourceSpec(kind="gaussian_pulse", support=[0], **bad)


def test_repeated_support_index_rejected():
    """A step subtracts the current by one indexed update, which applies a
    repeated index once, so a support that repeats one is an error."""
    with pytest.raises(ValueError, match="source.support lists index 3 more than once"):
        solver.SourceSpec(kind="gaussian_pulse", support=[5, 3, 0, 3])


@pytest.mark.parametrize("support,first", [([-1], -1), ([-1, 79], -1), ([4, -3, -1], -3)])
def test_negative_support_index_rejected(support, first):
    """A negative index would wrap to a carrier counted from the end, so
    that -1 and 79 drive the same face of a mesh with 80: the support
    refuses it, naming the first, without a mesh."""
    with pytest.raises(ValueError, match=f"^source.support: negative index {first}$"):
        solver.SourceSpec(kind="gaussian_pulse", support=support)


def test_indefinite_rejected():
    """A nonpositive active dual edge is refused by every solver: no option
    runs the indefinite system."""
    # the obtuse/acute pair has a negative shared dual edge, edge 0
    v = [[0, 0, 0], [1, 0, 0], [0.5, 0.15, 0], [0.5, -0.8, 0]]
    s = mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])
    m = mesh.compute_dual_metrics(s)
    assert m.dual_edge_len[0] < 0 < m.dual_edge_len[1:].min()
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    for kind in ("direct", "cg"):
        with pytest.raises(solver.SolverError,
                           match="indefinite system: nonpositive dual edge length at edge 0 "):
            solver.assemble(s, m, mats, dt=0.1, solver=kind)


def test_direct_has_no_size_limit_and_agrees_with_cg():
    from decem import analysis

    s = bundled.bundled_surface("cavity_3.obj")  # 2048 faces
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    direct = solver.assemble(s, m, mats, dt=0.1, solver="direct")
    cg = solver.assemble(s, m, mats, dt=0.1, solver="cg")
    assert face_system(direct).shape[0] == 2048
    e0, _ = analysis.cavity_mode_fields(s, 0.0, 1.0, 1.0)
    state = solver.initial_state("TM", s, e=e0)
    a = solver.step(direct, state)
    b = solver.step(cg, state)
    assert np.linalg.norm(a.e - b.e) <= 1e-10 * np.linalg.norm(a.e)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0])
@pytest.mark.parametrize("mode", ["TE", "TM"])
@pytest.mark.parametrize("name", ["cavity_2.obj", "icosphere_2.obj"])
def test_face_system_is_exactly_symmetric(name, mode, dt):
    """Two faces share at most one edge, so each off-diagonal entry of the
    face system is the one term +-g_e of that edge and the matrix equals its
    transpose bit for bit, with any materials and conduction.  The direct
    ``solve`` runs SuperLU's transposed sweeps, so it solves A^T x = b: the
    same system, to roundoff."""
    s = bundled.bundled_surface(name)
    m = mesh.compute_dual_metrics(s)
    rng = np.random.default_rng(31)
    lossy = lambda: np.where(rng.random(s.n_faces) < 0.3, rng.uniform(0, 5, s.n_faces), 0.0)
    mats = solver.MaterialParams.from_face_values(
        mode, s, rng.uniform(1, 4, s.n_faces), rng.uniform(1, 4, s.n_faces), lossy(), lossy())
    stepper = solver.assemble(s, m, mats, dt)
    A = face_system(stepper)
    assert A.nnz > s.n_faces and (A != A.T).nnz == 0
    for _ in range(3):
        rhs = rng.normal(size=s.n_faces)
        x, ref = stepper.solve(rhs, None), spla.spsolve(A.tocsc(), rhs)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


# -- stepping ----------------------------------------------------------------


def test_zero_fields_zero_sources_stay_zero(icosphere1, icosphere1_metrics):
    stepper, _ = sphere_stepper(icosphere1, icosphere1_metrics)
    state = solver.step(stepper, solver.initial_state("TE", icosphere1))
    assert np.abs(state.e).max() == 0.0
    assert np.abs(state.h).max() == 0.0
    assert state.n == 1 and state.t == stepper.dt


def test_uniform_h_is_equilibrium(icosphere1, icosphere1_metrics):
    # every d1 column on a closed surface sums to zero, exactly
    sums = np.asarray(icosphere1.d1.sum(axis=0)).ravel()
    assert np.all(sums == 0)
    stepper, _ = sphere_stepper(icosphere1, icosphere1_metrics)
    state = solver.initial_state("TE", icosphere1, h=np.full(icosphere1.n_faces, 2.5))
    state = solver.step(stepper, state)
    assert np.abs(state.h - 2.5).max() < 1e-11
    assert np.abs(state.e).max() < 1e-12


def test_single_triangle_conduction_update_exact(equilateral):
    m = mesh.compute_dual_metrics(equilateral)
    mats = solver.MaterialParams.uniform("TE", equilateral, eps=2.0, mu=3.0,
                                         sigma_m=0.5)
    dt = 0.7
    stepper = solver.assemble(equilateral, m, mats, dt, solver="direct")
    jm = 1.3
    src = solver.SourceSpec(kind="gaussian_pulse", target="jm", amplitude=jm,
                            t0=0.0, width=1e12, support=[0])
    h0 = 0.4
    state = solver.step(stepper, solver.initial_state("TE", equilateral, h=[h0]), src)
    # all edges are PEC so no curl term survives:
    #   mu (h1 - h0)/dt + sigma_m (h1 + h0)/2 = -jm
    expected = ((3.0 / dt - 0.25) * h0 - jm) / (3.0 / dt + 0.25)
    assert np.isclose(state.h[0], expected, rtol=1e-14)
    assert np.abs(state.e).max() == 0.0


def test_energy_nonincreasing_across_dt_orders(icosphere1, icosphere1_metrics):
    """Source-free lossless energy never grows, for dt over four decades."""
    stars = stars_of(icosphere1, icosphere1_metrics)
    h0 = face_bump(icosphere1)
    base = icosphere1_metrics.dual_edge_len.min()
    for factor in (1e-2, 1.0, 1e2, 1e4):
        stepper, mats = sphere_stepper(icosphere1, icosphere1_metrics,
                                       dt_scale=factor)
        state = solver.initial_state("TE", icosphere1, h=h0)
        e_prev = solver.energy(state, stars, mats)
        e0 = e_prev
        for _ in range(400):
            state = solver.step(stepper, state)
            e_now = solver.energy(state, stars, mats)
            assert e_now <= e0 * (1 + 1e-10)
            e_prev = e_now


def test_dissipation_ordering(icosphere1, icosphere1_metrics):
    """Raising the electric conductivity uniformly never raises the energy at
    any step.  Initial data carries both fields: with an h-only start the
    first step can order the other way (conduction acts on e, which does not
    exist yet, while larger sigma weakens the curl exchange that damps h)."""
    s, m = icosphere1, icosphere1_metrics
    stars = stars_of(s, m)
    dt = 1.0 * m.dual_edge_len.min()
    e0 = divergence_free_edge_field(s, stars, 52)
    e0 *= 0.1 / np.abs(e0).max()
    h0 = face_bump(s)
    trajectories = []
    for sigma in (0.0, 0.3, 0.9, 2.0):
        mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0,
                                             sigma=sigma)
        stepper = solver.assemble(s, m, mats, dt, solver="direct")
        state = solver.initial_state("TE", s, e=e0, h=h0)
        energies = []
        for _ in range(150):
            state = solver.step(stepper, state)
            energies.append(solver.energy(state, stars, mats))
        trajectories.append(np.array(energies))
    for lo, hi in zip(trajectories, trajectories[1:]):
        assert (hi <= lo * (1 + 1e-12)).all()


def test_te_tm_duality(icosphere1, icosphere1_metrics):
    """Swapping eps<->mu, sigma<->sigma_m, fields (e,h)->(h,-e) maps a TE run
    onto a TM run exactly (same linear algebra, mirrored assembly)."""
    rng = np.random.default_rng(7)
    s, m = icosphere1, icosphere1_metrics
    eps_e = rng.uniform(1, 2, s.n_edges)
    mu_f = rng.uniform(1, 2, s.n_faces)
    sig_e = rng.uniform(0, 0.5, s.n_edges)
    sgm_f = rng.uniform(0, 0.5, s.n_faces)
    te = solver.MaterialParams("TE", eps=eps_e, mu=mu_f, sigma=sig_e, sigma_m=sgm_f)
    tm = solver.MaterialParams("TM", eps=mu_f, mu=eps_e, sigma=sgm_f, sigma_m=sig_e)
    st_te = solver.assemble(s, m, te, 0.1, solver="direct")
    st_tm = solver.assemble(s, m, tm, 0.1, solver="direct")
    e0 = rng.normal(size=s.n_edges)
    h0 = rng.normal(size=s.n_faces)
    a = solver.initial_state("TE", s, e=e0, h=h0)
    b = solver.initial_state("TM", s, e=h0, h=-e0)
    for _ in range(10):
        a = solver.step(st_te, a)
        b = solver.step(st_tm, b)
    assert np.abs(b.e - a.h).max() < 1e-12
    assert np.abs(b.h + a.e).max() < 1e-12
    stars = st_te.stars
    en_te, en_tm = solver.energy(a, stars, te), solver.energy(b, stars, tm)
    assert abs(en_tm - en_te) <= 1e-12 * en_te
    ga = solver.gauss_residuals(a, s, stars, te)
    gb = solver.gauss_residuals(b, s, stars, tm)
    scale = solver.gauss_residual_scale(a, s, stars, te)
    assert np.abs(gb + ga).max() <= 1e-12 * scale  # h = -e


def test_pec_boundary_edges_stay_zero(cavity1, cavity1_metrics):
    mats = solver.MaterialParams.uniform("TE", cavity1, eps=1.0, mu=1.0)
    stepper = solver.assemble(cavity1, cavity1_metrics, mats, dt=0.02)
    src = solver.SourceSpec(kind="gaussian_pulse", target="jm", amplitude=1.0,
                            t0=0.1, width=0.05, support=[10])
    state = solver.initial_state("TE", cavity1)
    boundary = np.flatnonzero(cavity1.boundary)
    for _ in range(25):
        state = solver.step(stepper, state, src)
        assert np.abs(state.e[boundary]).max() == 0.0
    assert np.abs(state.h).max() > 0  # the pulse did inject energy


def test_cg_and_direct_agree(icosphere1, icosphere1_metrics):
    h0 = face_bump(icosphere1)
    st_cg, mats = sphere_stepper(icosphere1, icosphere1_metrics, kind="cg")
    st_dir, _ = sphere_stepper(icosphere1, icosphere1_metrics, kind="direct")
    a = solver.initial_state("TE", icosphere1, h=h0)
    b = solver.initial_state("TE", icosphere1, h=h0)
    for _ in range(20):
        a = solver.step(st_cg, a)
        b = solver.step(st_dir, b)
    assert np.abs(a.h - b.h).max() < 1e-7 * max(np.abs(b.h).max(), 1.0)


def test_stepper_is_immutable_and_repeatable(icosphere1, icosphere1_metrics):
    """Stepping never writes to the stepper: two runs from one initial state
    through one cg stepper are bitwise identical."""
    stepper, _ = sphere_stepper(icosphere1, icosphere1_metrics, kind="cg")
    start = solver.initial_state("TE", icosphere1, h=face_bump(icosphere1))
    runs = []
    for _ in range(2):
        state = start
        for _ in range(5):
            state = solver.step(stepper, state)
        runs.append(state)
    assert np.array_equal(runs[0].e, runs[1].e)
    assert np.array_equal(runs[0].h, runs[1].h)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stepper.dt = 1.0


def held_bytes(*roots):
    """Bytes of the distinct numpy arrays and sparse matrices reachable from
    ``roots`` through instance attributes, lists, tuples and function
    closures, each array's memory counted once however many views of it are
    reached.  The closure of a cg stepper's bound ``solve`` holds the face
    system and its preconditioner; a direct one's holds the LU factor, which
    is neither and is not counted."""
    seen, owners, total = set(), set(), 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in owners:
                owners.add(id(obj))
                total += obj.nbytes
        elif sp.issparse(obj):
            stack += [getattr(obj, name) for name in ("data", "indices", "indptr", "offsets")
                      if hasattr(obj, name)]
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack += list(vars(obj).values())
    return total


# What a direct TE stepper on the bundled icosphere_3 (1280 faces) holds
# besides its factor: surface, metrics, materials, stars and the stepper's
# own arrays.  With int64 incidence and its cached float64 copies, and
# circumcenters and edge midpoints in the metrics, it was 704740; with a CSR
# copy of d1^T in the stepper and a Python-int boundary set, 576736; with
# star0 a copy of the dual vertex areas, 524892; with a CSR copy of the
# factored face system in the stepper and int64 edges, faces and face_edges,
# 519756.
HELD_BYTES_ICOSPHERE_3 = 391_752
# The same for a cg stepper, whose bound solve holds the face system and its
# Jacobi preconditioner: 483920 while the system's data and indices were
# views of 25% larger buffers.
HELD_BYTES_ICOSPHERE_3_CG = 468_560


def test_set_up_holds_each_array_once():
    """The incidence is held once, as float64 with +-1 entries, and shared
    with the stepper, whose ``d1t`` is a view of it; the mesh index arrays
    are int32; star0 is the metrics' dual vertex areas; the metrics hold
    measures only; the stepper holds its solve, not the face system; and
    the total that a set-up holds does not grow past
    ``HELD_BYTES_ICOSPHERE_3``, or ``HELD_BYTES_ICOSPHERE_3_CG`` with the
    face system and preconditioner that a cg solve holds."""
    s = mesh.load_obj(bundled.bundled_path("icosphere_3.obj"))
    for index in (s.edges, s.faces, s.face_edges):
        assert index.dtype == np.int32
    for d in (s.d0, s.d1):
        assert d.format == "csr" and d.dtype == np.float64
        assert np.array_equal(np.unique(d.data), [-1.0, 1.0])
    assert s.d0_real is s.d0
    assert (s.d1 @ s.d0).nnz == 0
    m = mesh.compute_dual_metrics(s)
    assert [f.name for f in dataclasses.fields(m)] == [
        "edge_len", "face_area", "dual_edge_len", "dual_vertex_area", "well_centered"]
    mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0)
    stepper = solver.assemble(s, m, mats, 10.0 * m.dual_edge_len.min())
    assert "system" not in [f.name for f in dataclasses.fields(stepper)]
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(stepper.d1t, name), getattr(s.d1, name))
    assert np.shares_memory(stepper.stars.star0, m.dual_vertex_area)
    held = held_bytes(s, m, mats, stepper.stars, stepper)
    print(f"icosphere_3 set-up holds {held} bytes besides the LU factor")
    assert held <= HELD_BYTES_ICOSPHERE_3
    stepper = solver.assemble(s, m, mats, stepper.dt, solver="cg")
    held = held_bytes(s, m, mats, stepper.stars, stepper)
    print(f"icosphere_3 cg set-up holds {held} bytes")
    assert held <= HELD_BYTES_ICOSPHERE_3_CG


def test_cg_iteration_cap_raises(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1, eps=1.0, mu=1.0)
    dt = 1e4 * icosphere1_metrics.dual_edge_len.min()
    stepper = solver.assemble(icosphere1, icosphere1_metrics, mats, dt,
                              solver="cg", max_iters=1, tolerance=1e-14)
    state = solver.initial_state("TE", icosphere1, h=face_bump(icosphere1))
    with pytest.raises(solver.SolverError, match="residual norm"):
        solver.step(stepper, state)


def test_source_validation(icosphere1):
    with pytest.raises(ValueError, match="out of range"):
        solver.check_indices("source.support", [10_000], icosphere1, on_edges=True)
    with pytest.raises(ValueError, match=r"^source.support: edge index 120 out of range"):
        solver.check_indices("source.support", [120], icosphere1, on_edges=True)
    with pytest.raises(ValueError, match=r"^source.support: index 1180591620717411303424 out"):
        solver.SourceSpec(support=[2**70])
    with pytest.raises(ValueError, match="width"):
        solver.SourceSpec(kind="gaussian_pulse", width=0.0)
    with pytest.raises(ValueError, match="target"):
        solver.SourceSpec(target="jx")


@pytest.mark.parametrize("mode", ["TE", "TM"])
@pytest.mark.parametrize("target", ["je", "jm"])
def test_source_carrier_and_jm_sign(mode, target, icosphere1, icosphere1_metrics):
    """je drives e and jm drives h, on whichever carrier the mode gives that
    field; a negated source.amplitude, the other sign convention of the
    magnetic current, negates the response bitwise."""
    s, m = icosphere1, icosphere1_metrics
    mats = solver.MaterialParams.uniform(mode, s, eps=1.0, mu=1.0)
    stepper = solver.assemble(s, m, mats, 1e-3)
    zero = solver.initial_state(mode, s)
    plus, minus = (
        solver.step(stepper, zero, solver.SourceSpec(
            kind="gaussian_pulse", target=target, amplitude=amplitude,
            t0=0.0, width=0.1, support=[2, 5]))
        for amplitude in (1.0, -1.0)
    )
    driven, other = (plus.e, plus.h) if target == "je" else (plus.h, plus.e)
    on_edges = (target == "je") == (mode == "TE")
    assert driven.size == (s.n_edges if on_edges else s.n_faces)
    # to leading order in dt the response sits on the support, in the driven field
    on_support = np.abs(driven[[2, 5]]).min()
    assert on_support > 0
    assert np.abs(np.delete(driven, [2, 5])).max() <= 1e-3 * on_support
    assert np.abs(other).max() <= 1e-2 * on_support
    assert np.array_equal(minus.e, -plus.e)
    assert np.array_equal(minus.h, -plus.h)


def test_initial_state_validation(icosphere1):
    with pytest.raises(ValueError, match="lengths"):
        solver.initial_state("TE", icosphere1, e=np.zeros(3))
    st = solver.initial_state("TM", icosphere1)
    assert st.e.shape == (icosphere1.n_faces,)
    assert st.h.shape == (icosphere1.n_edges,)


ENERGY_SCRIPT = """
import numpy as np
from decem import dec, solver
n_e, n_f = 61440, 40960
out = []
for seed in range(4):
    rng = np.random.default_rng(seed)
    mats = solver.MaterialParams("TE", eps=rng.uniform(1, 2, n_e), mu=rng.uniform(1, 2, n_f),
                                 sigma=np.zeros(n_e), sigma_m=np.zeros(n_f))
    stars = dec.HodgeStars(star0=np.ones(1), star1=rng.uniform(0.5, 1.5, n_e),
                           star2=rng.uniform(1, 3, n_f))
    state = solver.FieldState("TE", rng.normal(size=n_e), rng.normal(size=n_f))
    out.append(repr(solver.energy(state, stars, mats)))
print(" ".join(out))
"""


def test_energy_does_not_depend_on_blas_threads():
    """The energy of states as long as an icosphere L5's edge cochain reads
    the same text with one and with two BLAS threads (a BLAS dot product of
    this length splits its sum across threads).  On a one-CPU machine both
    runs use one thread and the check cannot fail."""
    src = os.path.dirname(os.path.dirname(solver.__file__))
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", ENERGY_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        texts.append(done.stdout)
    assert texts[0] == texts[1]


def test_derived_material_views(icosphere1):
    mats = solver.MaterialParams.uniform("TE", icosphere1, eps=3.0, mu=2.0)
    state = solver.initial_state(
        "TE", icosphere1,
        e=np.ones(icosphere1.n_edges), h=np.full(icosphere1.n_faces, 2.0),
    )
    assert np.allclose(state.d_values(mats), 3.0)
    assert np.allclose(state.b_values(mats), 4.0)


# -- Gauss-law diagnostics ----------------------------------------------------


def divergence_free_edge_field(surface, stars, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=surface.n_faces)
    return (surface.d1.T @ psi) / stars.star1


def test_gauss_residual_zero_fields(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1)
    stars = stars_of(icosphere1, icosphere1_metrics)
    res = solver.gauss_residuals(solver.initial_state("TE", icosphere1),
                                 icosphere1, stars, mats)
    assert res.shape == (icosphere1.n_vertices,)
    assert np.abs(res).max() == 0.0


@pytest.mark.parametrize("kind", ["direct", "cg"])
def test_gauss_residual_preserved_source_free(kind, icosphere1, icosphere1_metrics):
    """The divergence constraint survives 100 steps at the roundoff level
    (the curl update cannot create divergence: the incidence matrices
    compose to zero exactly)."""
    s, m = icosphere1, icosphere1_metrics
    assert s.n_edges <= 500
    stars = stars_of(s, m)
    stepper, mats = sphere_stepper(s, m, dt_scale=10.0, kind=kind)
    e0 = divergence_free_edge_field(s, stars, 50)
    state = solver.initial_state("TE", s, e=e0, h=face_bump(s))
    res0 = solver.gauss_residuals(state, s, stars, mats)
    scale0 = solver.gauss_residual_scale(state, s, stars, mats)
    assert np.abs(res0).max() <= 1e-13 * scale0
    worst = 0.0
    for _ in range(100):
        state = solver.step(stepper, state)
        res = solver.gauss_residuals(state, s, stars, mats)
        scale = max(solver.gauss_residual_scale(state, s, stars, mats), scale0)
        worst = max(worst, np.abs(res).max() / scale)
    assert worst <= 1e-11


def test_gauss_residual_grows_with_bad_source(icosphere1, icosphere1_metrics):
    """Negative control: a current that deposits charge (without a matching
    charge bookkeeping) grows the residual linearly in n."""
    s, m = icosphere1, icosphere1_metrics
    stars = stars_of(s, m)
    stepper, mats = sphere_stepper(s, m, dt_scale=1.0, kind="direct")
    src = solver.SourceSpec(kind="gaussian_pulse", target="je", amplitude=1.0,
                            t0=0.0, width=1e12, support=[0])  # constant in time
    state = solver.initial_state("TE", s)
    norms = []
    for n in range(1, 41):
        state = solver.step(stepper, state, src)
        res = solver.gauss_residuals(state, s, stars, mats)
        norms.append(np.abs(res).max())
    norms = np.array(norms)
    assert norms[-1] > 0
    ratio = norms[39] / norms[19]  # n=40 vs n=20
    assert abs(ratio - 2.0) < 0.05


def test_gauss_residual_tm_mirror(icosphere1, icosphere1_metrics):
    s, m = icosphere1, icosphere1_metrics
    stars = stars_of(s, m)
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    h0 = divergence_free_edge_field(s, stars, 51)
    state = solver.initial_state("TM", s, h=h0)
    res = solver.gauss_residuals(state, s, stars, mats)
    scale = solver.gauss_residual_scale(state, s, stars, mats)
    assert np.abs(res).max() <= 1e-13 * scale


# -- stencil fidelity ---------------------------------------------------------


def test_te_update_matches_pointwise_stencil(two_triangles):
    """The assembled cochain equations, divided through by the measures,
    reproduce the pointwise implicit update with conduction averages,
    coefficient by coefficient."""
    s = two_triangles
    m = mesh.compute_dual_metrics(s)
    rng = np.random.default_rng(60)
    eps = rng.uniform(1.0, 3.0, s.n_edges)
    mu = rng.uniform(1.0, 3.0, s.n_faces)
    sigma = rng.uniform(0.0, 1.0, s.n_edges)
    sigma_m = rng.uniform(0.0, 1.0, s.n_faces)
    dt = 0.37
    mats = solver.MaterialParams("TE", eps=eps, mu=mu, sigma=sigma, sigma_m=sigma_m)
    stepper = solver.assemble(s, m, mats, dt, solver="direct")

    # independent geometry for the shared edge of the equilateral pair
    (e1,) = np.flatnonzero(~s.boundary)
    length = 1.0                      # |e1|
    dual_len = 1.0 / np.sqrt(3.0)     # two segments of 1/(2 sqrt(3))
    area = np.sqrt(3.0) / 4.0
    assert np.isclose(m.edge_len[e1], length, rtol=1e-14)
    assert np.isclose(m.dual_edge_len[e1], dual_len, rtol=1e-14)

    # edge equation row, divided by |*e1|: pointwise
    #   (eps/dt + sigma/2) E1^{n+1} = (eps/dt - sigma/2) E1^n
    #       + (H_plus - H_minus)^{n+1} / |*e1| - J_e1
    lhs = stepper.edge_plus[e1] / dual_len * length
    rhs_old = stepper.edge_minus[e1] / dual_len * length
    assert abs(lhs - (eps[e1] / dt + sigma[e1] / 2)) <= 1e-14 * lhs
    assert abs(rhs_old - (eps[e1] / dt - sigma[e1] / 2)) <= 1e-14 * abs(rhs_old)
    col = s.d1.T[e1].toarray().ravel()
    assert sorted(col.tolist()) == [-1.0, 1.0]
    coup = col / dual_len
    assert np.isclose(np.abs(coup).max(), 1.0 / dual_len, rtol=1e-14)
    # current scaling: star1 * (J |e|) / |*e1| == J exactly
    star1_e1 = stepper.stars.star1[e1]
    assert np.isclose(star1_e1 * length / dual_len, 1.0, rtol=1e-14)

    # face equation row, divided by |P1|: pointwise
    #   (mu/dt + sigma_m/2) H1^{n+1} = (mu/dt - sigma_m/2) H1^n
    #       - (sum +- E_i^{n+1} |e_i|) / |P1| - J_m1
    for f in range(s.n_faces):
        fp = stepper.face_plus[f] / area
        fm = stepper.face_minus[f] / area
        assert abs(fp - (mu[f] / dt + sigma_m[f] / 2)) <= 1e-14 * fp
        assert abs(fm - (mu[f] / dt - sigma_m[f] / 2)) <= 1e-14 * abs(fm)
        row = s.d1[f].toarray().ravel()
        # the oriented sum weights are the edge lengths over the face area
        weights = np.abs(row) * m.edge_len / area
        expect = np.where(row != 0, m.edge_len / area, 0.0)
        assert np.allclose(weights, expect, rtol=1e-14)
        # magnetic current scaling: (J |P|) / |P| == J exactly
        assert np.isclose(m.face_area[f] / area, 1.0, rtol=1e-14)


def test_one_step_matches_full_coupled_solve(two_triangles):
    """Oracle: solve the full (edge+face) implicit block system densely and
    compare with the Schur-complement path."""
    s = two_triangles
    m = mesh.compute_dual_metrics(s)
    rng = np.random.default_rng(61)
    mats = solver.MaterialParams(
        "TE",
        eps=rng.uniform(1, 2, s.n_edges), mu=rng.uniform(1, 2, s.n_faces),
        sigma=rng.uniform(0, 1, s.n_edges), sigma_m=rng.uniform(0, 1, s.n_faces),
    )
    dt = 0.21
    stepper = solver.assemble(s, m, mats, dt, solver="direct")
    e0 = rng.normal(size=s.n_edges)
    e0[s.boundary] = 0.0
    h0 = rng.normal(size=s.n_faces)
    state = solver.step(stepper, solver.initial_state("TE", s, e=e0, h=h0))

    # dense block system over active edges + faces:
    act = stepper.active_edges
    d1 = s.d1.toarray()[:, act]
    n_e, n_f = int(act.sum()), s.n_faces
    K = np.zeros((n_e + n_f, n_e + n_f))
    K[:n_e, :n_e] = np.diag(stepper.edge_plus[act])
    K[:n_e, n_e:] = -d1.T
    K[n_e:, :n_e] = d1
    K[n_e:, n_e:] = np.diag(stepper.face_plus)
    rhs = np.concatenate([stepper.edge_minus[act] * e0[act],
                          stepper.face_minus * h0])
    sol = np.linalg.solve(K, rhs)
    assert np.abs(state.e[act] - sol[:n_e]).max() < 1e-11
    assert np.abs(state.h - sol[n_e:]).max() < 1e-11


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("target", ["je", "jm"])
@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_one_step_matches_coupled_solve_with_sources(mode, target, sign, cavity1,
                                                     cavity1_metrics):
    """Oracle on the 128-face cavity: one step of the folded update equals
    the dense edge+face block solve, with PEC edges (TE), lossy random
    materials and a current of either sign on either carrier."""
    s, m = cavity1, cavity1_metrics
    rng = np.random.default_rng(62)
    mats = solver.MaterialParams.from_face_values(
        mode, s, rng.uniform(1, 2, s.n_faces), rng.uniform(1, 2, s.n_faces),
        rng.uniform(0, 1, s.n_faces), rng.uniform(0, 1, s.n_faces))
    dt = 0.07
    stepper = solver.assemble(s, m, mats, dt)
    pol = solver.polarization(mode)
    src = solver.SourceSpec(kind="gaussian_pulse", target=target, amplitude=-1.7 * sign,
                            t0=0.02, width=0.05, support=[0, 3, 40, 41])
    act = stepper.active_edges
    assert act.all() == (mode == "TM")
    u0 = np.where(act, rng.normal(size=s.n_edges), 0.0)
    w0 = rng.normal(size=s.n_faces)
    state = solver.step(stepper, solver.initial_state(mode, s, *pol.place(u0, w0)), src)
    u1, w1 = pol.place(state.e, state.h)

    # integrated currents at the half step, independently of the stepper
    on_edges = pol.on_edges(target)
    j = np.zeros(s.n_edges if on_edges else s.n_faces)
    measure = m.edge_len if on_edges else m.face_area
    j[src.support] = src.waveform(0.5 * dt) * measure[src.support]
    j_edge, j_face = (j, np.zeros(s.n_faces)) if on_edges else (np.zeros(s.n_edges), j)

    # p_e u' - s d1^T w' = m_e u - star1 j_edge;  s d1 u' + p_f w' = m_f w - j_face
    c = pol.couple_sign
    d1 = s.d1.toarray()[:, act]
    n_e, n_f = int(act.sum()), s.n_faces
    K = np.zeros((n_e + n_f, n_e + n_f))
    K[:n_e, :n_e] = np.diag(stepper.edge_plus[act])
    K[:n_e, n_e:] = -c * d1.T
    K[n_e:, :n_e] = c * d1
    K[n_e:, n_e:] = np.diag(stepper.face_plus)
    rhs = np.concatenate([
        stepper.edge_minus[act] * u0[act] - stepper.stars.star1[act] * j_edge[act],
        stepper.face_minus * w0 - j_face])
    sol = np.linalg.solve(K, rhs)
    scale = np.abs(sol).max()
    assert np.abs(u1[act] - sol[:n_e]).max() <= 1e-12 * scale
    assert np.abs(w1 - sol[n_e:]).max() <= 1e-12 * scale
    assert not u1[~act].any()


def test_pec_edges_stay_positive_zero_under_negative_edge_current(cavity1, cavity1_metrics):
    """A negative je on boundary (and interior) edges leaves every TE PEC edge
    at +0.0, never -0.0, which would print differently in the CSV.  The
    conduction makes edge_minus negative, so a PEC coefficient formed as a
    product with it would be -0.0."""
    s, m = cavity1, cavity1_metrics
    boundary = np.flatnonzero(s.boundary).tolist()
    interior = np.flatnonzero(~s.boundary)[:4].tolist()
    mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0, sigma=150.0)
    stepper = solver.assemble(s, m, mats, dt=0.02)
    assert (stepper.edge_minus < 0).all()
    src = solver.SourceSpec(kind="gaussian_pulse", target="je", amplitude=-2.0,
                            t0=0.05, width=0.05, support=boundary[::2] + interior)
    state = solver.initial_state("TE", s)
    for _ in range(10):
        state = solver.step(stepper, state, src)
        assert not state.e[boundary].any()
        assert not np.signbit(state.e[boundary]).any()
    assert np.abs(state.e).max() > 0 and (state.h < 0).any() and (state.h > 0).any()


# -- the step against its full-array formulas --------------------------------


def reference_step(stepper, state, src, solve):
    """One step by the module docstring's full-array formulas: full-length
    current cochains j_edge/j_face, s g formed from g = 1/p_e, the CSC view
    ``d1.T`` built on the spot, and ``solve`` for the face system."""
    s, m, pol = stepper.surface, stepper.metrics, stepper.polarization
    j_edge, j_face = np.zeros(s.n_edges), np.zeros(s.n_faces)
    if src is not None and src.kind != "none":
        on_edges = pol.on_edges(src.target)
        j = j_edge if on_edges else j_face
        j[src.support] = src.waveform(state.t + 0.5 * stepper.dt)
        j *= m.edge_len if on_edges else m.face_area
    g = np.divide(1.0, stepper.edge_plus, out=np.zeros(s.n_edges),
                  where=stepper.active_edges)
    c, d1 = pol.couple_sign, s.d1
    u, w = pol.place(state.e, state.h)
    hist = stepper.edge_decay * u - stepper.edge_drive * j_edge
    rhs = stepper.face_minus * w - j_face - c * (d1 @ hist)
    w_new = solve(rhs, w)
    u_new = hist + c * g * (d1.T @ w_new)
    return solver.FieldState(state.mode, *pol.place(u_new, w_new), n=state.n + 1,
                             t=(state.n + 1) * stepper.dt)


def lossy_stepper(mode, name, kind="direct"):
    """A stepper on a bundled mesh with random lossy materials, and a random
    start state that is zero on PEC edges."""
    s = bundled.bundled_surface(name)
    m = mesh.compute_dual_metrics(s)
    rng = np.random.default_rng(8)
    mats = solver.MaterialParams.from_face_values(
        mode, s, rng.uniform(1, 2, s.n_faces), rng.uniform(1, 2, s.n_faces),
        rng.uniform(0, 1, s.n_faces), rng.uniform(0, 1, s.n_faces))
    stepper = solver.assemble(s, m, mats, 0.03, solver=kind)
    pol = stepper.polarization
    u0 = np.where(stepper.active_edges, rng.normal(size=s.n_edges), 0.0)
    state = solver.initial_state(mode, s, *pol.place(u0, rng.normal(size=s.n_faces)))
    return stepper, state


@pytest.mark.parametrize("name", ["icosphere_2.obj", "cavity_1.obj"])
@pytest.mark.parametrize("target", ["je", "jm", "none"])
@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_step_bitwise_equals_full_array_reference(mode, target, name):
    """The stored d1^T, the folded s g, the current added on its support
    only and the coupling lines done in place change no bit against the
    full-array formulas written with fresh arrays, on either carrier, on a
    closed sphere and a PEC cavity, and with no source (None or kind =
    none); a step writes nothing into the state it advances."""
    stepper, start = lossy_stepper(mode, name)
    kind = "none" if target == "none" else "gaussian_pulse"
    src = solver.SourceSpec(kind=kind, target="je" if target == "none" else target,
                            amplitude=-1.7, t0=0.1, width=0.08, support=[0, 7, 40])
    for sources in ([src, None] if target == "none" else [src]):
        state = ref = start
        for _ in range(8):
            before = state.e.tobytes(), state.h.tobytes()
            previous, state = state, solver.step(stepper, state, sources)
            assert (previous.e.tobytes(), previous.h.tobytes()) == before
            ref = reference_step(stepper, ref, sources, stepper.solve)
            assert state.e.tobytes() == ref.e.tobytes()
            assert state.h.tobytes() == ref.h.tobytes()
            assert (state.n, state.t) == (ref.n, ref.t)
        assert np.abs(state.e).max() > 0 and np.abs(state.h).max() > 0


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_cg_step_matches_full_array_reference(mode):
    """The cg path agrees with the dense solution of the full-array formulas
    to within the solver tolerance."""
    stepper, start = lossy_stepper(mode, "cavity_1.obj", kind="cg")
    src = solver.SourceSpec(kind="gaussian_pulse", target="jm", amplitude=-2.0,
                            t0=0.1, width=0.08, support=[3, 5])
    dense = face_system(stepper).toarray()
    solve = lambda rhs, w: np.linalg.solve(dense, rhs)
    state = ref = start
    for _ in range(8):
        state = solver.step(stepper, state, src)
        ref = reference_step(stepper, ref, src, solve)
        for a, b in ((state.e, ref.e), (state.h, ref.h)):
            assert np.abs(a - b).max() <= 10 * 1e-10 * np.abs(b).max()
