"""Exact identities of the scheme on generated meshes: seeded jittered
Delaunay squares (``make_assets.delaunay_square``) and jittered icospheres
(``make_assets.jittered_icosphere``), drawn by derandomized ``hypothesis``
strategies with bounded examples and mesh sizes, and the closed surfaces of
genus 0 and 1 (``icosphere_2`` and ``make_assets.staggered_torus``)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decem import bundled, dec, mesh, solver

seeds = st.integers(0, 2**32 - 1)
squares = st.tuples(st.integers(2, 8), seeds)
# (kind, size, seed): a square of n x n cells or an icosphere of level 1 or
# 2 with its vertices moved by up to 0.2 of its shortest edge
meshes = st.one_of(squares.map(lambda drawn: ("square", *drawn)),
                   st.tuples(st.just("icosphere"), st.integers(1, 2), seeds))
coefficients = st.floats(0.25, 4.0)
conductivities = st.floats(0.05, 2.0)


def generated(make_assets, kind, size, seed):
    """The surface that ``meshes`` drew, its dual metrics, and the seeded
    generator that built it, for the fields drawn next.  A draw with a
    nonpositive dual edge, which ``assemble`` may refuse, is discarded."""
    rng = np.random.default_rng(seed)
    if kind == "square":
        s = mesh.from_arrays(*make_assets.delaunay_square(size, rng))
    else:
        s = mesh.from_arrays(*make_assets.jittered_icosphere(size, 0.2, rng))
    metrics = mesh.compute_dual_metrics(s)
    assume((metrics.dual_edge_len > 0).all())
    return s, metrics, rng


@settings(max_examples=30, derandomize=True, deadline=None)
@given(square=squares)
def test_d1_d0_has_no_nonzero_entry(make_assets, square):
    """The boundary of a boundary is empty: every entry of d1 d0 is zero."""
    n, seed = square
    s = mesh.from_arrays(*make_assets.delaunay_square(n, np.random.default_rng(seed)))
    assert (s.d1 @ s.d0).count_nonzero() == 0


@pytest.mark.parametrize("mode", ["TE", "TM"])
@settings(max_examples=16, derandomize=True, deadline=None)
@given(drawn=meshes, eps=coefficients, mu=coefficients, sigma=conductivities,
       sigma_m=conductivities, dt=st.floats(1e-3, 10.0))
def test_lossy_run_keeps_the_vertex_gauss_law(make_assets, mode, drawn, eps, mu, sigma,
                                              sigma_m, dt):
    """A source-free run with uniform lossy materials keeps the vertex Gauss
    residual within 1e-12 of ``gauss_residual_scale`` over 20 steps, from a
    random face cochain and an edge cochain whose edge flux is d1^T of
    another.  The scale is its largest value so far, since a decaying field
    keeps the roundoff of its larger past.  In TE the PEC wall carries the
    charge of its boundary vertices, so the law is checked on the interior
    ones; in TM every edge is active and every vertex keeps it."""
    s, metrics, rng = generated(make_assets, *drawn)
    mats = solver.MaterialParams.uniform(mode, s, eps=eps, mu=mu, sigma=sigma, sigma_m=sigma_m)
    stepper = solver.assemble(s, metrics, mats, dt)
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
        assert np.abs(residual).max() <= 1e-12 * scale, (state.n, drawn)


@pytest.mark.parametrize("solve", ["direct", "cg"])
@pytest.mark.parametrize("mode", ["TE", "TM"])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(drawn=meshes, seed=seeds)
def test_the_discrete_charge_balance_closes(make_assets, mode, solve, drawn, seed):
    """Each step changes a vertex's charge by exactly what conduction and
    the edge current carry: d0^T (p_e u' - m_e u + star1 j) = 0, with j the
    integrated current at the half step.  The edge row makes that sum s
    d1^T w' and d1 d0 = 0, so it holds whatever the face solve's accuracy.
    Checked over 10 steps from a random charged state, with random eps and
    mu in [1, 3], conduction on about 30% of the faces and a pulse on 3
    interior edges (je in TE, jm in TM), to 1e-12 of the largest absolute
    sum, at every vertex off the PEC wall, where the edge row does not
    hold."""
    s, metrics, _ = generated(make_assets, *drawn)
    rng = np.random.default_rng(seed)
    eps, mu = rng.uniform(1.0, 3.0, (2, s.n_faces))
    sigma, sigma_m = rng.uniform(0.0, 2.0, (2, s.n_faces)) * (rng.random((2, s.n_faces)) < 0.3)
    mats = solver.MaterialParams.from_face_values(mode, s, eps, mu, sigma, sigma_m)
    dt = 0.07
    stepper = solver.assemble(s, metrics, mats, dt, solver=solve, tolerance=1e-12,
                              max_iters=5000)
    pol, star1 = stepper.polarization, stepper.stars.star1
    support = rng.choice(np.flatnonzero(~s.boundary), 3, replace=False)
    source = solver.SourceSpec(kind="gaussian_pulse", target=pol.place("je", "jm")[0],
                               amplitude=1.0, t0=0.2, width=0.1, support=support)
    e, h = pol.place(rng.normal(size=s.n_edges), rng.normal(size=s.n_faces))
    state = solver.initial_state(mode, s, e=e, h=h)
    off_wall = np.ones(s.n_vertices, dtype=bool)
    off_wall[s.edges[~stepper.active_edges]] = False
    for _ in range(10):
        new = solver.step(stepper, state, source)
        j = np.zeros(s.n_edges)
        j[support] = source.waveform(state.t + 0.5 * dt) * metrics.edge_len[support]
        terms = (stepper.edge_plus * pol.place(new.e, new.h)[0],
                 -stepper.edge_minus * pol.place(state.e, state.h)[0], star1 * j)
        balance = s.d0.T @ sum(terms)
        scale = abs(s.d0).T @ sum(np.abs(term) for term in terms)
        assert np.abs(balance[off_wall]).max() <= 1e-12 * scale.max(), (new.n, drawn)
        state = new


def dense_step(s, metrics, mats, dt, state, source):
    """One step as the dense (E+F) x (E+F) solve of the coupled rows of
    ``solver``'s module docstring, built from the materials alone:
    p_e u' - s d1^T w' = m_e u - star1 j_e on active edges, u' = 0 on PEC
    edges and s d1 u' + p_f w' = m_f w - j_f.  Returns the state it gives."""
    pol = solver.polarization(mats.mode)
    n_e, n_f = s.n_edges, s.n_faces
    star1 = dec.build_hodge_stars(s, metrics).star1
    edge_mat, face_mat = pol.place(mats.eps, mats.mu)
    edge_cond, face_cond = pol.place(mats.sigma, mats.sigma_m)
    p_e, m_e = ((edge_mat / dt + sign * 0.5 * edge_cond) * star1 for sign in (1, -1))
    p_f, m_f = ((face_mat / dt + sign * 0.5 * face_cond) * metrics.face_area for sign in (1, -1))
    on_edges = pol.on_edges(source.target)
    current = np.zeros(n_e if on_edges else n_f)
    measure = metrics.edge_len if on_edges else metrics.face_area
    current[source.support] = source.waveform(state.t + 0.5 * dt) * measure[source.support]
    j_e, j_f = (current, 0.0) if on_edges else (0.0, current)
    u, w = pol.place(state.e, state.h)
    d1, sign = s.d1.toarray(), pol.couple_sign
    a = np.block([[np.diag(p_e), -sign * d1.T], [sign * d1, np.diag(p_f)]])
    b = np.concatenate([m_e * u - star1 * j_e, m_f * w - j_f])
    pec = np.nonzero(s.boundary)[0] if pol.pec_edges else []
    a[pec], b[pec] = 0.0, 0.0
    a[pec, pec] = 1.0
    x = np.linalg.solve(a, b)
    e, h = pol.place(x[:n_e], x[n_e:])
    return solver.FieldState(mats.mode, e, h, n=state.n + 1, t=(state.n + 1) * dt)


# (kind, size, seed): the squares n = 3, 4, 5, 6 and 8 of seed n, the torus,
# icosphere_1 and the jittered icospheres of ``meshes``
dense_meshes = st.one_of(
    st.sampled_from([("square", n, n) for n in (3, 4, 5, 6, 8)]
                    + [("torus", 0, 0), ("icosphere_1", 1, 0)]),
    st.tuples(st.just("icosphere"), st.integers(1, 2), seeds))


@pytest.mark.parametrize("solve, bound", [("direct", 1e-13), ("cg", 1e-10)])
@settings(max_examples=16, derandomize=True, deadline=None)
@given(drawn=dense_meshes, mode=st.sampled_from(["TE", "TM"]),
       target=st.sampled_from(["je", "jm"]), seed=seeds)
def test_step_equals_the_dense_coupled_solve(make_assets, torus, solve, bound, drawn, mode,
                                             target, seed):
    """Five steps from a random state, with random eps and mu in [1, 3],
    conduction on about 30% of the faces and a pulse on 3 random carriers,
    match the dense solve of the coupled edge and face rows, to ``bound`` of
    each field's largest value: ``direct``, and ``cg`` at tolerance 1e-12.
    This checks the elimination of the edge unknowns that ``assemble`` and
    ``step`` do, without either."""
    kind, size, mesh_seed = drawn
    if kind == "torus":
        s, metrics = torus, mesh.compute_dual_metrics(torus)
    elif kind == "icosphere_1":
        s = bundled.bundled_surface("icosphere_1.obj")
        metrics = mesh.compute_dual_metrics(s)
    else:
        s, metrics, _ = generated(make_assets, kind, size, mesh_seed)
    rng = np.random.default_rng(seed)
    eps, mu = rng.uniform(1.0, 3.0, (2, s.n_faces))
    sigma, sigma_m = rng.uniform(0.0, 2.0, (2, s.n_faces)) * (rng.random((2, s.n_faces)) < 0.3)
    mats = solver.MaterialParams.from_face_values(mode, s, eps, mu, sigma, sigma_m)
    stepper = solver.assemble(s, metrics, mats, 0.07, solver=solve, tolerance=1e-12)
    pol = stepper.polarization
    carriers = s.n_edges if pol.on_edges(target) else s.n_faces
    source = solver.SourceSpec(kind="gaussian_pulse", target=target, amplitude=1.0, t0=0.1,
                               width=0.1, support=rng.choice(carriers, 3, replace=False))
    e, h = pol.place(rng.normal(size=s.n_edges), rng.normal(size=s.n_faces))
    state = dense = solver.initial_state(mode, s, e=e, h=h)
    for _ in range(5):
        state = solver.step(stepper, state, source)
        dense = dense_step(s, metrics, mats, 0.07, dense, source)
        for got, want in ((state.e, dense.e), (state.h, dense.h)):
            assert np.abs(got - want).max() <= bound * np.abs(want).max(), (state.n, drawn)


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
