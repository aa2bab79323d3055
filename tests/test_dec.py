import numpy as np
import pytest

from decem import dec, mesh


@pytest.fixture
def sphere_setup(icosphere1, icosphere1_metrics):
    h = dec.build_hodge_stars(icosphere1, icosphere1_metrics)
    return icosphere1, icosphere1_metrics, h


def rand_cochain(surface, degree, placement, seed):
    rng = np.random.default_rng(seed)
    n = surface.count_carriers(degree, placement)
    return dec.Cochain(surface, degree, placement, rng.normal(size=n))


def test_dd_zero_primal(sphere_setup):
    s, _, _ = sphere_setup
    f = rand_cochain(s, 0, "primal", 0)
    assert np.abs(dec.d(dec.d(f)).values).max() < 1e-12


def test_dd_zero_dual(sphere_setup):
    s, _, _ = sphere_setup
    g = rand_cochain(s, 0, "dual", 1)
    assert np.abs(dec.d(dec.d(g)).values).max() < 1e-12


def test_d_constant_is_zero(sphere_setup):
    s, _, _ = sphere_setup
    c = dec.Cochain(s, 0, "primal", np.ones(s.n_vertices))
    assert np.abs(dec.d(c).values).max() == 0.0


def test_d_single_triangle(single_triangle):
    A = dec.Cochain(single_triangle, 1, "primal", np.array([3.0, 5.0, 7.0]))
    # edges e01, e02, e12 with d1 row [+1, -1, +1]
    assert dec.d(A).values.tolist() == [3.0 - 5.0 + 7.0]


def test_d_degree2_errors(sphere_setup):
    s, _, _ = sphere_setup
    with pytest.raises(dec.DecError, match="no 3-cells"):
        dec.d(rand_cochain(s, 2, "primal", 2))
    with pytest.raises(dec.DecError, match="no 3-cells"):
        dec.d(rand_cochain(s, 2, "dual", 3))


def test_cochain_length_validated(single_triangle):
    with pytest.raises(dec.DecError, match="needs 3 values"):
        dec.Cochain(single_triangle, 1, "primal", np.zeros(5))


def test_star_componentwise_ratio(single_triangle):
    # an edge value of 1 with |e| = 2 and |*e| = 0.5 maps to 0.25
    h = dec.HodgeStars(
        star0=np.ones(3), star1=np.array([0.5 / 2.0, 1.0, 1.0]),
        star2=np.ones(1),
    )
    c = dec.Cochain(single_triangle, 1, "primal", np.ones(3))
    assert dec.star(c, h).values[0] == 0.25


def test_star_star_signs(sphere_setup):
    s, _, h = sphere_setup
    for degree, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        c = rand_cochain(s, degree, "primal", 10 + degree)
        back = dec.star(dec.star(c, h), h)
        assert np.allclose(back.values, sign * c.values, rtol=1e-13, atol=0)


def test_star_placement_toggles(sphere_setup):
    s, _, h = sphere_setup
    c = rand_cochain(s, 1, "primal", 20)
    sc = dec.star(c, h)
    assert (sc.degree, sc.placement) == (1, "dual")
    c0 = rand_cochain(s, 0, "primal", 21)
    assert dec.star(c0, h).degree == 2


def test_star0_ones_totals_surface_area(sphere_setup):
    s, m, h = sphere_setup
    ones = dec.Cochain(s, 0, "primal", np.ones(s.n_vertices))
    total = dec.star(ones, h).values.sum()
    assert np.isclose(total, m.face_area.sum(), rtol=1e-12)


def test_zero_star1_rejected(equilateral):
    m = mesh.compute_dual_metrics(equilateral)
    bad = mesh.DualMetrics(
        edge_len=m.edge_len, face_area=m.face_area,
        dual_edge_len=np.array([0.0, 1.0, 1.0]),
        dual_vertex_area=m.dual_vertex_area, well_centered=m.well_centered,
    )
    with pytest.raises(dec.DecError, match="zero"):
        dec.build_hodge_stars(equilateral, bad)


# -- gauge-theoretic operators -------------------------------------------


def test_pure_gauge_curvature_vanishes(sphere_setup):
    s, _, _ = sphere_setup
    f = rand_cochain(s, 0, "primal", 30)
    A = dec.Cochain(s, 1, "primal", dec.d(f).values)
    assert np.abs(dec.curvature(A).values).max() < 1e-12


def test_gauge_invariance(sphere_setup):
    s, _, _ = sphere_setup
    A = rand_cochain(s, 1, "primal", 31)
    f = rand_cochain(s, 0, "primal", 32)
    F1 = dec.curvature(A)
    F2 = dec.curvature(dec.gauge_transform(A, f))
    scale = np.abs(F1.values).max()
    assert np.abs(F2.values - F1.values).max() <= 1e-13 * max(scale, 1.0)


def test_curvature_sums_to_zero_on_closed_surface(sphere_setup):
    # Stokes: the total curvature of any connection on a closed oriented
    # surface vanishes (every edge appears twice with opposite signs)
    s, _, _ = sphere_setup
    A = rand_cochain(s, 1, "primal", 33)
    assert abs(dec.curvature(A).values.sum()) < 1e-12


def test_bianchi_structurally_zero(sphere_setup):
    s, _, _ = sphere_setup
    F = dec.curvature(rand_cochain(s, 1, "primal", 34))
    assert dec.bianchi_defect(F) == 0.0


def test_gauge_field_container(sphere_setup):
    s, _, _ = sphere_setup
    A = rand_cochain(s, 1, "primal", 35)
    gf = dec.GaugeField(A=A)
    assert np.array_equal(gf.F.values, dec.d(A).values)
    with pytest.raises(dec.DecError, match="F does not equal dA"):
        dec.GaugeField(A=A, F=dec.Cochain(s, 2, "primal", np.ones(s.n_faces)))


# -- static residual and its oracle --------------------------------------


def test_residual_zero_for_pure_gauge(two_triangles):
    m = mesh.compute_dual_metrics(two_triangles)
    h = dec.build_hodge_stars(two_triangles, m)
    f = rand_cochain(two_triangles, 0, "primal", 40)
    A = dec.Cochain(two_triangles, 1, "primal", dec.d(f).values)
    J = dec.Cochain(two_triangles, 1, "primal", np.zeros(two_triangles.n_edges))
    assert np.abs(dec.maxwell_residual(A, J, h).values).max() < 1e-12


def test_residual_is_action_gradient(two_triangles):
    """Central finite differences of the action recover the residual."""
    m = mesh.compute_dual_metrics(two_triangles)
    h = dec.build_hodge_stars(two_triangles, m)
    A = rand_cochain(two_triangles, 1, "primal", 41)
    J = rand_cochain(two_triangles, 1, "primal", 42)
    res = dec.maxwell_residual(A, J, h).values
    delta = 1e-6
    fd = np.empty_like(res)
    for i in range(res.size):
        up, down = A.copy(), A.copy()
        up.values[i] += delta
        down.values[i] -= delta
        fd[i] = (dec.field_action(up, J, h) - dec.field_action(down, J, h)) / (2 * delta)
    assert np.abs(fd - res).max() < 1e-6


def test_residual_operator_symmetric(sphere_setup):
    s, _, h = sphere_setup
    rng = np.random.default_rng(43)
    u = rng.normal(size=s.n_edges)
    v = rng.normal(size=s.n_edges)
    zero = dec.Cochain(s, 1, "primal", np.zeros(s.n_edges))
    op_u = dec.maxwell_residual(dec.Cochain(s, 1, "primal", u), zero, h).values
    op_v = dec.maxwell_residual(dec.Cochain(s, 1, "primal", v), zero, h).values
    lhs, rhs = u @ op_v, v @ op_u
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_residual_gauge_orthogonality(sphere_setup):
    # pairing the residual with any pure-gauge direction measures exactly
    # the continuity defect of the current
    s, _, h = sphere_setup
    A = rand_cochain(s, 1, "primal", 44)
    J = rand_cochain(s, 1, "primal", 45)
    f = rand_cochain(s, 0, "primal", 46)
    res = dec.maxwell_residual(A, J, h).values
    pairing = res @ dec.d(f).values
    defect = dec.continuity_defect(J, h)
    assert np.isclose(pairing, -(f.values @ defect), rtol=1e-10)

    # divergence-free current: the pairing vanishes
    psi = rand_cochain(s, 0, "dual", 47)
    J_free = dec.Cochain(s, 1, "primal", (s.d1.T @ psi.values) / h.star1)
    assert np.abs(dec.continuity_defect(J_free, h)).max() < 1e-12
    res2 = dec.maxwell_residual(A, J_free, h).values
    assert abs(res2 @ dec.d(f).values) < 1e-10


def test_continuity_violation_detected(sphere_setup):
    s, _, h = sphere_setup
    J = dec.Cochain(s, 1, "primal", np.zeros(s.n_edges))
    J.values[0] = 1.0  # a lone edge current deposits charge at its endpoints
    defect = dec.continuity_defect(J, h)
    assert np.abs(defect).max() > 1e-3
