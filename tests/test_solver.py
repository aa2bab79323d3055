import dataclasses

import numpy as np
import pytest

from decem import dec, mesh, solver


def stars_of(surface, metrics):
    return dec.build_hodge_stars(surface, metrics)


def sphere_stepper(surface, metrics, dt_scale=100.0, kind="direct", **mat_kw):
    mats = solver.MaterialParams.uniform("TE", surface, eps=1.0, mu=1.0, **mat_kw)
    dt = dt_scale * metrics.dual_edge_len.min()
    return solver.assemble("TE", surface, metrics, mats, dt, solver=kind), mats


def face_bump(metrics, center=(0.0, 0.0, 1.0), width=0.1):
    d2 = ((metrics.circumcenters - np.asarray(center)) ** 2).sum(axis=1)
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
        stepper = solver.assemble(mode, surface, metrics, mats, dt=0.3)
        dense = stepper.system.toarray()
        assert np.allclose(dense, dense.T, rtol=1e-12)
        assert np.linalg.eigvalsh(dense).min() > 0


def test_assemble_rejects_bad_inputs(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1)
    with pytest.raises(ValueError, match="dt must be positive"):
        solver.assemble("TE", icosphere1, icosphere1_metrics, mats, dt=0.0)
    with pytest.raises(ValueError, match="placed for a different mode"):
        solver.assemble("TM", icosphere1, icosphere1_metrics, mats, dt=0.1)
    with pytest.raises(ValueError, match="solver must be"):
        solver.assemble("TE", icosphere1, icosphere1_metrics, mats, dt=0.1,
                        solver="lu")


def test_material_validation(icosphere1):
    with pytest.raises(ValueError, match="positive"):
        solver.MaterialParams.uniform("TE", icosphere1, eps=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        solver.MaterialParams.uniform("TE", icosphere1, sigma=-0.5)


def test_indefinite_rejected_then_allowed():
    # obtuse/acute pair in signed mode has a negative shared dual edge
    v = [[0, 0, 0], [1, 0, 0], [0.5, 0.15, 0], [0.5, -0.8, 0]]
    s = mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])
    m = mesh.compute_dual_metrics(s, allow_non_well_centered=True)
    assert m.dual_edge_len.min() < 0
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    with pytest.raises(solver.SolverError, match="indefinite system"):
        solver.assemble("TM", s, m, mats, dt=0.1)
    stepper = solver.assemble("TM", s, m, mats, dt=0.1, allow_indefinite=True)
    assert stepper.indefinite
    assert stepper.solver == "direct"  # the path that actually runs
    e0 = np.array([1.0, -1.0])
    state = solver.step(stepper, solver.initial_state("TM", s, e=e0))
    assert np.isfinite(state.e).all() and np.isfinite(state.h).all()
    # h starts at zero, so the face right-hand side is face_minus * e0
    dense = np.linalg.solve(stepper.system.toarray(), stepper.face_minus * e0)
    assert np.abs(state.e - dense).max() <= 1e-12 * np.abs(dense).max()


def test_direct_has_no_size_limit_and_agrees_with_cg():
    from decem import analysis, bundled

    s = bundled.bundled_surface("cavity_3.obj")  # 2048 faces
    m = mesh.compute_dual_metrics(s)
    mats = solver.MaterialParams.uniform("TM", s, eps=1.0, mu=1.0)
    direct = solver.assemble("TM", s, m, mats, dt=0.1, solver="direct")
    cg = solver.assemble("TM", s, m, mats, dt=0.1, solver="cg")
    assert direct.n_unknowns == 2048
    e0, _ = analysis.cavity_mode_fields(s, m, 0.0, 1, 1, 1.0, 1.0)
    state = solver.initial_state("TM", s, e=e0)
    a = solver.step(direct, state)
    b = solver.step(cg, state)
    assert np.linalg.norm(a.e - b.e) <= cg.tolerance * np.linalg.norm(a.e)


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
    stepper = solver.assemble("TE", equilateral, m, mats, dt, solver="direct")
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
    h0 = face_bump(icosphere1_metrics)
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
    h0 = face_bump(m)
    trajectories = []
    for sigma in (0.0, 0.3, 0.9, 2.0):
        mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0,
                                             sigma=sigma)
        stepper = solver.assemble("TE", s, m, mats, dt, solver="direct")
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
    st_te = solver.assemble("TE", s, m, te, 0.1, solver="direct")
    st_tm = solver.assemble("TM", s, m, tm, 0.1, solver="direct")
    e0 = rng.normal(size=s.n_edges)
    h0 = rng.normal(size=s.n_faces)
    a = solver.initial_state("TE", s, e=e0, h=h0)
    b = solver.initial_state("TM", s, e=h0, h=-e0)
    for _ in range(10):
        a = solver.step(st_te, a)
        b = solver.step(st_tm, b)
    assert np.abs(b.e - a.h).max() < 1e-12
    assert np.abs(b.h + a.e).max() < 1e-12


def test_pec_boundary_edges_stay_zero(cavity1, cavity1_metrics):
    mats = solver.MaterialParams.uniform("TE", cavity1, eps=1.0, mu=1.0)
    stepper = solver.assemble("TE", cavity1, cavity1_metrics, mats, dt=0.02)
    src = solver.SourceSpec(kind="gaussian_pulse", target="jm", amplitude=1.0,
                            t0=0.1, width=0.05, support=[10])
    state = solver.initial_state("TE", cavity1)
    boundary = sorted(cavity1.boundary_edges)
    for _ in range(25):
        state = solver.step(stepper, state, src)
        assert np.abs(state.e[boundary]).max() == 0.0
    assert np.abs(state.h).max() > 0  # the pulse did inject energy


def test_cg_and_direct_agree(icosphere1, icosphere1_metrics):
    h0 = face_bump(icosphere1_metrics)
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
    start = solver.initial_state("TE", icosphere1, h=face_bump(icosphere1_metrics))
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


def test_cg_iteration_cap_raises(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1, eps=1.0, mu=1.0)
    dt = 1e4 * icosphere1_metrics.dual_edge_len.min()
    stepper = solver.assemble("TE", icosphere1, icosphere1_metrics, mats, dt,
                              solver="cg", max_iters=1, tolerance=1e-14)
    state = solver.initial_state("TE", icosphere1, h=face_bump(icosphere1_metrics))
    with pytest.raises(solver.SolverError, match="residual norm"):
        solver.step(stepper, state)


def test_source_validation(icosphere1):
    src = solver.SourceSpec(kind="gaussian_pulse", target="je", amplitude=1.0,
                            width=0.1, support=[10_000])
    with pytest.raises(ValueError, match="out of range"):
        src.validate(icosphere1, "TE")
    with pytest.raises(ValueError, match="width"):
        solver.SourceSpec(kind="gaussian_pulse", width=0.0)
    with pytest.raises(ValueError, match="target"):
        solver.SourceSpec(target="jx")


def test_initial_state_validation(icosphere1):
    with pytest.raises(ValueError, match="lengths"):
        solver.initial_state("TE", icosphere1, e=np.zeros(3))
    st = solver.initial_state("TM", icosphere1)
    assert st.e.shape == (icosphere1.n_faces,)
    assert st.h.shape == (icosphere1.n_edges,)


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
    return (surface.d1_real.T @ psi) / stars.star1


def test_gauss_residual_zero_fields(icosphere1, icosphere1_metrics):
    mats = solver.MaterialParams.uniform("TE", icosphere1)
    stars = stars_of(icosphere1, icosphere1_metrics)
    res = solver.gauss_residuals(solver.initial_state("TE", icosphere1),
                                 icosphere1, stars, mats)
    assert np.abs(res.electric).max() == 0.0
    assert np.abs(res.magnetic).max() == 0.0


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
    state = solver.initial_state("TE", s, e=e0, h=face_bump(m))
    res0 = solver.gauss_residuals(state, s, stars, mats)
    scale0 = solver.gauss_residual_scale(state, s, stars, mats)
    assert np.abs(res0.electric).max() <= 1e-13 * scale0
    worst = 0.0
    for _ in range(100):
        state = solver.step(stepper, state)
        res = solver.gauss_residuals(state, s, stars, mats)
        scale = max(solver.gauss_residual_scale(state, s, stars, mats), scale0)
        worst = max(worst, np.abs(res.electric).max() / scale)
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
        norms.append(np.abs(res.electric).max())
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
    assert np.abs(res.magnetic).max() <= 1e-13 * scale
    assert np.abs(res.electric).max() == 0.0  # structural zero


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
    stepper = solver.assemble("TE", s, m, mats, dt, solver="direct")

    # independent geometry for the shared edge of the equilateral pair
    shared = [i for i in range(s.n_edges) if i not in s.boundary_edges]
    assert len(shared) == 1
    e1 = shared[0]
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
    col = s.d1_real.T[e1].toarray().ravel()
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
        row = s.d1_real[f].toarray().ravel()
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
    stepper = solver.assemble("TE", s, m, mats, dt, solver="direct")
    e0 = rng.normal(size=s.n_edges)
    e0[list(s.boundary_edges)] = 0.0
    h0 = rng.normal(size=s.n_faces)
    state = solver.step(stepper, solver.initial_state("TE", s, e=e0, h=h0))

    # dense block system over active edges + faces:
    act = stepper.active_edges
    d1 = s.d1_real.toarray()[:, act]
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
