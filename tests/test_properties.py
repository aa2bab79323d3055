"""Exact identities of the scheme on generated meshes: seeded jittered
Delaunay squares (``make_assets.delaunay_square``), drawn by derandomized
``hypothesis`` strategies with bounded examples and mesh sizes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem import mesh, solver

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
