import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from decem import analysis, bundled, mesh, solver


@pytest.fixture(scope="module")
def sphere():
    s = bundled.bundled_surface("icosphere_1.obj")
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0)
    return s, m, mats


def test_zero_frequency_gives_unit_root(sphere):
    s, m, mats = sphere
    M, (xp, xm) = analysis.growth_factor(0, s, m, mats, dt=0.5, k=0.0)
    assert M == 0.0
    assert xp == 1.0 + 0j and xm == 1.0 + 0j


def test_zero_dt_gives_unit_modulus(sphere):
    s, m, mats = sphere
    M, (xp, xm) = analysis.growth_factor(3, s, m, mats, dt=0.0, k=7.0)
    assert M == 0.0
    assert abs(xp) == 1.0 and abs(xm) == 1.0


def test_modulus_half_when_m_is_three(sphere):
    """|xi| = 1/sqrt(1+M): pick dt to force M = 3 on a face."""
    s, m, mats = sphere
    k = 2.0
    fe = s.face_edges[0]
    geom = ((1 - np.cos(k * m.dual_edge_len[fe]))
            * m.edge_len[fe] / m.dual_edge_len[fe]).sum()
    dt = np.sqrt(3.0 * m.face_area[0] / geom)  # c = 1
    M, (xp, xm) = analysis.growth_factor(0, s, m, mats, dt=dt, k=k)
    assert np.isclose(M, 3.0, rtol=1e-12)
    assert np.isclose(abs(xp), 0.5, rtol=1e-12)
    assert np.isclose(abs(xm), 0.5, rtol=1e-12)


def test_roots_solve_quadratic_and_match_modulus(sphere):
    s, m, mats = sphere
    rng = np.random.default_rng(0)
    for _ in range(200):
        face = rng.integers(0, s.n_faces)
        dt = 10.0 ** rng.uniform(-3, 3)
        k = rng.uniform(0.0, 50.0)
        M, roots = analysis.growth_factor(face, s, m, mats, dt=dt, k=k)
        assert M >= 0.0
        disc = 4.0 - 4.0 * (1.0 + M)
        assert disc <= 0.0
        for xi in roots:
            poly = (1 + M) * xi**2 - 2 * xi + 1
            assert abs(poly) <= 1e-9 * (1 + M)
            assert abs(abs(xi) - 1 / np.sqrt(1 + M)) <= 1e-12
            assert abs(xi) <= 1.0


def test_m_monotone_in_dt_and_modulus_decreasing(sphere):
    s, m, mats = sphere
    k = 5.0
    dts = np.logspace(-3, 3, 13)
    Ms, mods = [], []
    for dt in dts:
        M, (xp, _) = analysis.growth_factor(0, s, m, mats, dt=dt, k=k)
        Ms.append(M)
        mods.append(abs(xp))
    assert (np.diff(Ms) >= 0).all()
    assert (np.diff(mods) <= 0).all()


def test_negative_k_rejected(sphere):
    s, m, mats = sphere
    with pytest.raises(ValueError, match="nonnegative"):
        analysis.growth_factor(0, s, m, mats, dt=0.1, k=-1.0)


def dense_spectrum(surface, metrics, materials):
    """Every generalized eigenvalue of (K, B), built from the stars and the
    materials rather than from a stepper: the oracle of the sweep."""
    pol = solver.polarization(materials.mode)
    edge_mat, face_mat = pol.place(materials.eps, materials.mu)
    star1 = metrics.dual_edge_len / metrics.edge_len
    g = 1.0 / (edge_mat * star1)
    if pol.pec_edges:
        g[surface.boundary] = 0.0
    d1 = surface.d1.toarray()
    return scipy.linalg.eigh((d1 * g) @ d1.T, np.diag(face_mat * metrics.face_area),
                             eigvals_only=True)


@pytest.mark.parametrize("name,mode", [("icosphere_2.obj", "TE"),
                                       ("cavity_1.obj", "TM")])
def test_stability_sweep_bounded(name, mode):
    """The sweep reads the extreme eigenvalues of the assembled operator:
    they match a dense solve, and every |xi| = 1/sqrt(1 + lambda dt^2) <= 1."""
    s = bundled.bundled_surface(name)
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform(mode, s, eps=1.0, mu=1.0)
    base = m.dual_edge_len.min()
    dts = [1e-3 * base, base, 1e3 * base]
    rep = analysis.stability_sweep(s, m, mats, dts)
    lam = dense_spectrum(s, m, mats)
    assert np.allclose(rep.lam, [max(lam[0], 0.0), lam[-1]], rtol=1e-10, atol=1e-9)
    # a closed sphere has the static mode; the TM cavity's lowest is 2 pi^2
    assert rep.lam[0] == 0.0 if mode == "TE" else abs(rep.lam[0] / (2 * np.pi**2) - 1) < 1e-2
    assert rep.M.shape == rep.xi_mod.shape == (3, 2)
    assert np.array_equal(rep.M, np.outer(np.square(dts), rep.lam))
    assert rep.max_xi <= 1.0 and rep.xi_mod.min() > 0.0
    assert "max |xi|" in rep.summary()


def test_stability_sweep_empirical_crosscheck():
    """One ``step`` of the highest mode v, from a zero edge cochain, gives
    v / (1 + lambda dt^2) to roundoff on a sphere and a cavity in both modes,
    for random eps and mu; conduction in the materials does not change the
    analysed (lossless) operator."""
    rng = np.random.default_rng(3)
    for name, mode in itertools.product(("icosphere_3.obj", "cavity_2.obj"), ("TE", "TM")):
        s = bundled.bundled_surface(name)
        m = mesh.compute_dual_metrics(s)
        eps, mu = rng.uniform(1.0, 3.0, (2, s.n_faces))
        mats = solver.MaterialParams.from_face_values(mode, s, eps, mu)
        lossy = solver.MaterialParams.from_face_values(
            mode, s, eps, mu, np.full(s.n_faces, 0.3), np.full(s.n_faces, 0.2))
        for dt in (1e-3, 0.1, 10.0):
            rep = analysis.stability_sweep(s, m, mats, [dt])
            assert rep.one_step <= 1e-15, (name, mode, dt, rep.one_step)
            assert np.array_equal(analysis.stability_sweep(s, m, lossy, [dt]).lam, rep.lam)
        # only the TM cavity (every edge active, a PEC wall) has no static mode
        assert (rep.lam[0] > 0) == ((name, mode) == ("cavity_2.obj", "TM")), (name, mode)


def test_stability_sweep_assembles_one_stepper(sphere, monkeypatch):
    """The sweep reads C from the stepper that takes its one-step check, the
    default (direct) one at its largest dt: one ``assemble`` per sweep.  That
    C is the dt = 1 operator to roundoff."""
    s, m, mats = sphere
    calls, assemble = [], solver.assemble

    def counted(*args, **kwargs):
        calls.append((args[3], kwargs))
        return assemble(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble", counted)
    analysis.stability_sweep(s, m, mats, [1e-3, 10.0, 0.1])
    assert calls == [(10.0, {})]
    (_, unit, _), (_, at_dt, _) = (analysis._modal_operator(s, m, mats, dt) for dt in (1.0, 10.0))
    assert abs(at_dt - unit).max() <= 1e-14 * abs(unit).max()


def test_report_rows_match_csv_columns(sphere):
    s, m, mats = sphere
    rep = analysis.stability_sweep(s, m, mats, [0.1, 2.0])
    rows = list(rep.rows())
    assert [(mode, dt) for mode, _, _, _, dt in rows] == [
        ("lowest", 0.1), ("highest", 0.1), ("lowest", 2.0), ("highest", 2.0)]
    for mode, lam, M, xi, dt in rows:
        assert lam == rep.lam[int(mode == "highest")]
        assert M == dt * dt * lam and xi == 1 / np.sqrt(1 + M)


def test_sweep_needs_two_faces(equilateral):
    """ARPACK needs an operator of order two or more: one face is refused
    by a ``ValueError``, which the CLI reports, not a ``TypeError``."""
    assert equilateral.n_faces == 1
    m = mesh.compute_dual_metrics(equilateral)
    mats = solver.MaterialParams.uniform("TM", equilateral, eps=1.0, mu=1.0)
    with pytest.raises(ValueError, match="needs at least two faces"):
        analysis.stability_sweep(equilateral, m, mats, [0.1])


def test_sphere_eigenvalue_order_is_two(icosphere4):
    """The spatial error is second order: the l = 1 eigenvalues of the
    operator on the unit icospheres L1-L4 approach l(l+1) = 2 at order 2,
    as a threefold degenerate multiplet above the static mode.  Above it,
    l = 2 is one fivefold multiplet, while icosahedral symmetry splits
    l = 3 into a fourfold and a threefold one; their relative split,
    (mean of the 3 - mean of the 4) / 12, falls by at least 3.8x per
    level (measured 6.5x, 4.40x and 4.09x), and l = 4 starts above 16."""
    surfaces = [bundled.bundled_surface(f"icosphere_{level}.obj") for level in (1, 2, 3)]
    errors, splits = [], []
    for s in surfaces + [icosphere4]:
        m = mesh.compute_dual_metrics(s)
        mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0)
        _, C, _ = analysis._modal_operator(s, m, mats)
        lam = np.sort(scipy.sparse.linalg.eigsh(C, k=17, sigma=-0.5, v0=np.ones(s.n_faces),
                                                return_eigenvectors=False))
        assert abs(lam[0]) < 1e-10 and lam[4] > 4.0 and lam[16] > 16.0, lam
        assert np.ptp(lam[1:4]) <= 1e-10 * lam[1], lam
        for multiplet in (lam[4:9], lam[9:13], lam[13:16]):
            assert np.ptp(multiplet) <= 1e-12 * multiplet[0], lam
        errors.append(abs(lam[1:4].mean() - 2.0) / 2.0)
        splits.append((lam[13:16].mean() - lam[9:13].mean()) / 12.0)
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((1.9 <= orders) & (orders <= 2.1)), (errors, orders)
    assert splits[0] > 0 and np.all(np.array(splits[:-1]) >= 3.8 * np.array(splits[1:])), splits


@pytest.mark.parametrize("conduction", [(0.0, 0.0), (0.3, 0.2)], ids=["lossless", "lossy"])
@pytest.mark.parametrize("mode", ["TE", "TM"])
@pytest.mark.parametrize("name", ["icosphere_3.obj", "cavity_2.obj"])
def test_discrete_mode_follows_its_recurrence(name, mode, conduction):
    """The scheme's exact modal analysis.  Let K v = lambda B v with v the
    lowest nonconstant mode (max |v| = 1).  From w = v and a zero edge
    cochain, a step of uniform materials keeps w^n = a_n v and u^n = b_n s g
    d1^T v, with g = 1/(edge material star1), and (a, b) obey

        (1/dt + c_e/2alpha_e) b' - a' = (1/dt - c_e/2alpha_e) b
        lambda b' + (1/dt + c_f/2alpha_f) a' = (1/dt - c_f/2alpha_f) a

    for the edge and face materials alpha_e, alpha_f and conductivities c_e, c_f:
    ``solver.step`` matches it to roundoff over 1000 steps."""
    s = bundled.bundled_surface(name)
    m = mesh.compute_dual_metrics(s)
    sigma, sigma_m = conduction
    mats = solver.MaterialParams.uniform(mode, s, eps=1.3, mu=0.7, sigma=sigma, sigma_m=sigma_m)
    _, C, scale = analysis._modal_operator(s, m, mats)
    lam, vecs = scipy.sparse.linalg.eigsh(C, k=3, sigma=-1e-3, v0=np.ones(s.n_faces))
    first = next(i for i in np.argsort(lam) if lam[i] > 1e-9 * lam.max())
    lam, v = lam[first], scale @ vecs[:, first]
    v /= np.abs(v).max()

    dt, steps = 0.05, 1000
    pol = solver.polarization(mode)
    (alpha_e, alpha_f), (c_e, c_f) = pol.place(1.3, 0.7), pol.place(sigma, sigma_m)
    lhs = np.array([[1 / dt + c_e / (2 * alpha_e), -1.0], [lam, 1 / dt + c_f / (2 * alpha_f)]])
    decay = np.array([1 / dt - c_e / (2 * alpha_e), 1 / dt - c_f / (2 * alpha_f)])
    stepper = solver.assemble(s, m, mats, dt)
    state = solver.initial_state(mode, s, **{pol.face_field: v})
    ba, worst = np.array([0.0, 1.0]), 0.0   # (b_n, a_n)
    for _ in range(steps):
        state = solver.step(stepper, state)
        ba = np.linalg.solve(lhs, decay * ba)
        w = pol.place(state.e, state.h)[1]
        worst = max(worst, float(np.abs(w - ba[1] * v).max()))
    assert worst <= 1e-12, worst


def test_nonpositive_dual_edge_rejected(obtuse_pair):
    """Edge 0 of the obtuse pair has a negative dual edge, so M < 0 on both
    faces (the acute one shares the edge): the per-face law refuses it, and
    the sweep refuses it as ``assemble`` does."""
    s = obtuse_pair
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    for face in (0, 1):
        with pytest.raises(ValueError, match="nonpositive dual edge length at edge 0;"):
            analysis.growth_factor(face, s, m, mats, dt=0.1, k=1.0)
    with pytest.raises(solver.SolverError,
                       match="indefinite system: nonpositive dual edge length at edge 0 "):
        analysis.stability_sweep(s, m, mats, [0.1])


# -- cavity oracle and convergence -----------------------------------------


def test_cavity_oracle_projection_error_is_zero():
    s = bundled.bundled_surface("cavity_1.obj")
    m = mesh.compute_dual_metrics(s)
    e1, h1 = analysis.cavity_mode_fields(s, t=0.37)
    e2, h2 = analysis.cavity_mode_fields(s, t=0.37)
    assert analysis.field_error(e1, e2, m.face_area) == 0.0
    assert analysis.field_error(h1, h2, m.dual_edge_len / m.edge_len) == 0.0


def test_cavity_oracle_satisfies_wave_equation():
    """Independent check of the analytic mode: discrete curl of the exact h
    approximately drives eps de/dt (consistency of the oracle itself)."""
    s = bundled.bundled_surface("cavity_3.obj")
    m = mesh.compute_dual_metrics(s)
    t, dt = 0.2, 1e-6
    e_minus, _ = analysis.cavity_mode_fields(s, t - dt)
    e_plus, _ = analysis.cavity_mode_fields(s, t + dt)
    dedt = (e_plus - e_minus) / (2 * dt)
    _, h = analysis.cavity_mode_fields(s, t)
    curl = (s.d1 @ h) / m.face_area
    interior = np.ones(s.n_faces, dtype=bool)
    # skip faces touching the boundary: one-sided stencils there
    interior[s.d1[:, s.boundary].nonzero()[0]] = False
    err = np.abs(curl[interior] - dedt[interior]).max()
    assert err < 0.05 * np.abs(dedt).max()


def test_delaunay_square_cavity_order_in_criterion_4_band(delaunay_squares):
    """Delaunay squares with non-well-centered faces converge like the
    bundled acute family: the TM cavity-mode error at dt = 0.128 h and
    T = 1.28 over n = 8, 16, 32 has an order in criterion 4's band."""
    hs, errors = [], []
    for n, s in delaunay_squares.items():
        m = mesh.compute_dual_metrics(s)
        assert not m.all_well_centered and m.dual_edge_len.min() > 0
        hs.append(1.0 / n)
        errors.append(analysis._run_cavity(s, m, 0.128 / n, 1.28, 1.0, 1.0,
                                           "direct", 1e-10))
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 0.8 <= order <= 1.5, (errors, order)


def test_convergence_quick_two_levels():
    # over a horizon where the first-order temporal error dominates,
    # halving (h, dt) roughly halves the error
    rep = analysis.convergence_study(bundled.bundled_surface("cavity_1.obj"), 0.016,
                                     time=1.28, levels=2, solver_kind="direct")
    (h1, dt1, err1), (h2, dt2, err2) = rep.joint
    assert (dt1, dt2) == (0.016, 0.008)
    assert err2 < err1
    assert 1.6 < err1 / err2 < 2.6
    assert "observed order" in rep.summary()


def test_convergence_needs_two_meshes():
    with pytest.raises(ValueError, match="at least two levels, got 1"):
        analysis.convergence_study(bundled.bundled_surface("cavity_1.obj"), 0.016,
                                   time=0.1, levels=1)


def test_convergence_level_with_zero_steps_rejected():
    """A coarsest dt that rounds to zero steps is refused before any run; a
    run of zero steps has zero error, whose log the order fit would take."""
    with pytest.raises(ValueError, match=r"dt = 0\.016 takes round\(time / dt\) = 0 steps"):
        analysis.convergence_study(bundled.bundled_surface("cavity_1.obj"), 0.016,
                                   time=0.006, levels=2)


@pytest.mark.parametrize("change", [
    lambda s: bundled.bundled_surface("icosphere_1.obj"),
    lambda s: mesh.from_arrays(s.vertices + [0.0, 0.0, 1e-3], s.faces),
    lambda s: mesh.from_arrays(s.vertices * [2.0, 1.0, 1.0], s.faces),
    lambda s: mesh.from_arrays(s.vertices + [1e-9, 0.0, 0.0], s.faces),
    # a hole: the corners of the face nearest the centre become boundary vertices
    lambda s: mesh.from_arrays(s.vertices, np.delete(s.faces, np.argmin(
        np.linalg.norm(mesh.face_circumcenters(s)[:, :2] - 0.5, axis=1)), axis=0)),
], ids=["sphere", "lifted", "stretched", "shifted", "hole"])
def test_convergence_refuses_a_mesh_that_is_not_the_unit_square(change, monkeypatch):
    """The exact cavity mode lives on the unit square with walls on its
    sides, so any other mesh is refused before any run."""
    monkeypatch.setattr(analysis, "_run_cavity", None)
    surface = change(bundled.bundled_surface("cavity_1.obj"))
    with pytest.raises(ValueError, match=r"the cavity mode needs the unit square"):
        analysis.convergence_study(surface, 0.016, time=0.064, levels=2)


def test_convergence_reuses_the_finest_joint_run(monkeypatch):
    """The finest mesh at the finest dt is both the last joint and the last
    temporal run: three levels take five cavity runs, and the two rows
    carry the same error."""
    calls = []
    run = analysis._run_cavity

    def counted(surface, metrics, dt, *args):
        calls.append((surface.n_faces, dt))
        return run(surface, metrics, dt, *args)

    monkeypatch.setattr(analysis, "_run_cavity", counted)
    rep = analysis.convergence_study(bundled.bundled_surface("cavity_1.obj"), 0.016,
                                     time=0.064)
    assert calls == [(128, 0.016), (512, 0.008), (2048, 0.004),
                     (2048, 0.016), (2048, 0.008)]
    assert rep.temporal[-1] == rep.joint[-1][1:] == (0.004, rep.joint[-1][2])
