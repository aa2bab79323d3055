import numpy as np
import pytest

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


@pytest.mark.parametrize("name,mode", [("icosphere_2.obj", "TE"),
                                       ("cavity_1.obj", "TM")])
def test_stability_sweep_bounded(name, mode):
    s = bundled.bundled_surface(name)
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform(mode, s, eps=1.0, mu=1.0)
    base = m.dual_edge_len.min()
    rep = analysis.stability_sweep(s, m, mats, [1e-3 * base, base, 1e3 * base],
                                   k_samples=64, empirical_steps=0)
    assert rep.max_xi <= 1.0
    assert rep.M.min() >= 0.0
    assert rep.M.shape == (3, s.n_faces, 64)
    # k grid reaches the Nyquist-like ceiling on the coarsest dual length
    assert np.isclose(rep.k_grid.max(), np.pi / base)


def test_stability_sweep_empirical_crosscheck(sphere):
    s, m, mats = sphere
    base = m.dual_edge_len.min()
    rep = analysis.stability_sweep(s, m, mats, [base, 100 * base],
                                   k_samples=16, empirical_steps=150)
    assert rep.empirical["dt"] == 100 * base
    assert rep.empirical["max_energy_ratio"] <= 1.0 + 1e-8
    assert "max |xi|" in rep.summary()


def test_report_rows_match_csv_columns(sphere):
    s, m, mats = sphere
    rep = analysis.stability_sweep(s, m, mats, [0.1], k_samples=4,
                                   empirical_steps=0)
    rows = list(rep.rows())
    assert len(rows) == s.n_faces * 4
    face_id, k, M, xi, dt = rows[1]
    assert face_id == 0 and dt == 0.1
    assert np.isclose(xi, 1 / np.sqrt(1 + M))


def test_nonpositive_dual_edge_rejected(obtuse_pair):
    """Edge 0 of the obtuse pair has a negative dual edge, so M < 0 on both
    faces (the acute one shares the edge): every entry point refuses it."""
    s = obtuse_pair
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    for face in (0, 1):
        with pytest.raises(ValueError, match="nonpositive dual edge length at edge 0;"):
            analysis.growth_factor(face, s, m, mats, dt=0.1, k=1.0)
    with pytest.raises(ValueError, match="nonpositive dual edge length at edge 0;"):
        analysis.stability_sweep(s, m, mats, [0.1], k_samples=4, empirical_steps=0)


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
    curl = (s.d1_real @ h) / m.face_area
    interior = np.ones(s.n_faces, dtype=bool)
    # skip faces touching the boundary: one-sided stencils there
    for b in s.boundary_edges:
        interior[s.d1[:, b].nonzero()[0]] = False
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
        errors.append(analysis._run_cavity(s, m, 0.128 / n, 1.28, 1, 1, 1.0, 1.0,
                                           "direct", 1e-10))
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 0.8 <= order <= 1.5, (errors, order)


def test_nested_family_accepted():
    analysis.check_nested_family(bundled.cavity_family(3))


def test_non_nested_family_rejected():
    fam = bundled.cavity_family(3)
    with pytest.raises(ValueError, match="non-nested"):
        analysis.check_nested_family([fam[0], fam[2]])
    with pytest.raises(ValueError, match="non-nested"):
        analysis.check_nested_family([fam[0], fam[0]])


def test_convergence_quick_two_levels():
    # over a horizon where the first-order temporal error dominates,
    # halving (h, dt) roughly halves the error
    fam = bundled.cavity_family(2)
    rep = analysis.convergence_study(fam, [0.016, 0.008], time=1.28,
                                     solver_kind="direct")
    (h1, dt1, err1), (h2, dt2, err2) = rep.joint
    assert err2 < err1
    assert 1.6 < err1 / err2 < 2.6
    assert "observed order" in rep.summary()


def test_convergence_mismatched_lengths():
    fam = bundled.cavity_family(2)
    with pytest.raises(ValueError, match="equal length"):
        analysis.convergence_study(fam, [0.01], time=0.1)


def test_convergence_needs_two_meshes():
    fam = bundled.cavity_family(1)
    with pytest.raises(ValueError, match="at least two meshes"):
        analysis.convergence_study(fam, [0.016], time=0.1)


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
    rep = analysis.convergence_study(bundled.cavity_family(3), [0.016, 0.008, 0.004],
                                     time=0.064)
    assert calls == [(128, 0.016), (512, 0.008), (2048, 0.004),
                     (2048, 0.016), (2048, 0.008)]
    assert rep.temporal[-1] == rep.joint[-1][1:] == (0.004, rep.joint[-1][2])
