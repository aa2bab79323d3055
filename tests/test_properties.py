"""Exact identities of the scheme on generated meshes: seeded jittered
Delaunay squares (``make_assets.delaunay_square``), drawn by derandomized
``hypothesis`` strategies with bounded examples and mesh sizes, and the
closed surfaces of genus 0 and 1 (``icosphere_2`` and
``make_assets.staggered_torus``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem import bundled, dec, mesh, solver

squares = st.tuples(st.integers(2, 8), st.integers(0, 2**32 - 1))
coefficients = st.floats(0.25, 4.0)
conductivities = st.floats(0.05, 2.0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(square=squares)
def test_d1_d0_has_no_nonzero_entry(make_assets, square):
    """The boundary of a boundary is empty: every entry of d1 d0 is zero."""
    n, seed = square
    s = mesh.from_arrays(*make_assets.delaunay_square(n, np.random.default_rng(seed)))
    assert (s.d1 @ s.d0).count_nonzero() == 0


@pytest.mark.parametrize("mode", ["TE", "TM"])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(square=squares, eps=coefficients, mu=coefficients, sigma=conductivities,
       sigma_m=conductivities, dt=st.floats(1e-3, 10.0))
def test_lossy_run_keeps_the_vertex_gauss_law(make_assets, mode, square, eps, mu, sigma,
                                              sigma_m, dt):
    """A source-free run with uniform lossy materials keeps the vertex Gauss
    residual within 1e-12 of ``gauss_residual_scale`` over 20 steps, from a
    random face cochain and an edge cochain whose edge flux is d1^T of
    another.  The scale is its largest value so far, since a decaying field
    keeps the roundoff of its larger past.  In TE the PEC wall carries the
    charge of its boundary vertices, so the law is checked on the interior
    ones; in TM every edge is active and every vertex keeps it."""
    n, seed = square
    rng = np.random.default_rng(seed)
    s = mesh.from_arrays(*make_assets.delaunay_square(n, rng))
    mats = solver.MaterialParams.uniform(mode, s, eps=eps, mu=mu, sigma=sigma, sigma_m=sigma_m)
    stepper = solver.assemble(s, mesh.compute_dual_metrics(s), mats, dt)
    pol, stars = stepper.polarization, stepper.stars
    edge_mat, _ = pol.place(mats.eps, mats.mu)
    u = np.where(stepper.active_edges,
                 (s.d1.T @ rng.normal(size=s.n_faces)) / (edge_mat * stars.star1), 0.0)
    e, h = pol.place(u, rng.normal(size=s.n_faces))
    state = solver.initial_state(mode, s, e=e, h=h)
    on_wall = np.zeros(s.n_vertices, dtype=bool)
    if pol.pec_edges:
        on_wall[s.edges[s.boundary]] = True
    scale = solver.gauss_residual_scale(state, s, stars, mats)
    for _ in range(20):
        state = solver.step(stepper, state)
        residual = solver.gauss_residuals(state, s, stars, mats)[~on_wall]
        scale = max(scale, solver.gauss_residual_scale(state, s, stars, mats))
        assert np.abs(residual).max() <= 1e-12 * scale, (state.n, n, seed)


@pytest.fixture(scope="module")
def torus(make_assets):
    """The staggered torus, R = 1 and r = 0.4, 24 x 12 vertices: 576 faces."""
    return mesh.from_arrays(*make_assets.staggered_torus(24, 12, 1.0, 0.4))


def test_staggered_torus_is_a_well_centered_closed_surface_of_genus_one(torus):
    assert (torus.n_vertices, torus.n_edges, torus.n_faces) == (288, 864, 576)
    assert torus.euler_characteristic == 0 and not torus.boundary.any()
    report = mesh.mesh_report(torus)
    assert "non_well_centered_faces=0" in report.splitlines()
    assert report.endswith("PASS")


def test_torus_harmonic_forms_are_fixed_points(torus):
    """The harmonic 1-forms, the null space of [d1; d0^T star1], have
    dimension 2g = 2 on the torus, a space only a surface of genus >= 1
    has.  The lossless TE step keeps each one, its face field at roundoff;
    with a uniform sigma each decays by ((1/dt - sigma/2)/(1/dt + sigma/2))
    per step, eps being 1."""
    metrics = mesh.compute_dual_metrics(torus)
    star1 = dec.build_hodge_stars(torus, metrics).star1
    _, singular, vt = np.linalg.svd(np.vstack([torus.d1.toarray(),
                                               torus.d0.T.toarray() * star1]))
    singular /= singular[0]
    assert (singular <= 1e-12).sum() == 2 and singular[-3] >= 1e-2
    dt = 0.1
    for sigma in (0.0, 0.3):
        mats = solver.MaterialParams.uniform("TE", torus, eps=1.0, mu=1.0, sigma=sigma)
        stepper = solver.assemble(torus, metrics, mats, dt)
        decay = ((1 / dt - sigma / 2) / (1 / dt + sigma / 2)) ** 100
        for form in vt[-2:]:
            state = solver.initial_state("TE", torus, e=form)
            for _ in range(100):
                state = solver.step(stepper, state)
            scale = np.abs(form).max()
            assert np.abs(state.e - decay * form).max() <= 1e-13 * scale, sigma
            assert np.abs(state.h).max() <= 1e-13 * scale, sigma


@pytest.mark.parametrize("solve", ["direct", "cg"])
@pytest.mark.parametrize("surface", ["icosphere_2", "torus"])
def test_te_and_tm_are_dual_on_a_closed_surface(surface, solve, request):
    """On a closed surface TE with (eps, mu, sigma, sigma_m) and TM with
    (mu, eps, sigma_m, sigma), started from the same face field, step the
    same face field and opposite edge fields, bit for bit: the two
    polarizations differ only in the sign of the coupling."""
    if surface == "torus":
        s = request.getfixturevalue("torus")
    else:
        s = bundled.bundled_surface(f"{surface}.obj")
    metrics = mesh.compute_dual_metrics(s)
    rng = np.random.default_rng(5)
    eps, mu = rng.uniform(0.5, 3.0, (2, s.n_faces))
    sigma, sigma_m = rng.uniform(0.0, 1.0, (2, s.n_faces))
    face = rng.normal(size=s.n_faces)
    runs = []
    for mode, values in (("TE", (eps, mu, sigma, sigma_m)), ("TM", (mu, eps, sigma_m, sigma))):
        mats = solver.MaterialParams.from_face_values(mode, s, *values)
        stepper = solver.assemble(s, metrics, mats, 0.05, solver=solve)
        pol = stepper.polarization
        state = solver.initial_state(mode, s, **{pol.face_field: face})
        for _ in range(50):
            state = solver.step(stepper, state)
        runs.append(pol.place(state.e, state.h))   # (edge, face) cochains
    (te_edge, te_face), (tm_edge, tm_face) = runs
    assert np.abs(te_face).max() > 1e-3 * np.abs(face).max()   # not decayed to nothing
    assert np.array_equal(te_face, tm_face)
    assert np.array_equal(te_edge, -tm_edge)
