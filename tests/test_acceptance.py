"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import os
import time

import numpy as np
import pytest

from decem import analysis, bundled, cli, dec, mesh, solver

BUNDLED_MESHES = [n for n in bundled.bundled_names() if n.endswith(".obj")]


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {label}")
        raise
    print(f"[criterion {num}] PASS: {label}")


def random_triangle_soup(n, seed):
    """n random acute (hence well-centered) triangles as one disjoint surface."""
    rng = np.random.default_rng(seed)
    tris = []
    while len(tris) < n:
        batch = rng.uniform(-1, 1, size=(4 * (n - len(tris)) + 64, 3, 3))
        good = np.ones(batch.shape[0], dtype=bool)
        for k in range(3):
            a = batch[:, (k + 1) % 3] - batch[:, k]
            b = batch[:, (k + 2) % 3] - batch[:, k]
            cosv = np.einsum("ij,ij->i", a, b) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            good &= cosv > 0.05  # strictly acute with margin
        tris.extend(batch[good])
    tris = np.asarray(tris[:n])
    verts = tris.reshape(-1, 3)
    faces = np.arange(3 * n).reshape(-1, 3)
    return mesh.from_arrays(verts, faces)


def test_criterion_1_growth_factor_law():
    """Roots of the per-face quadratic keep |xi| = 1/sqrt(1+M) <= 1 over 1e5
    random (face geometry, dt, k) samples in under 5 seconds."""
    with criterion(1, "growth-factor law on 1e5 random samples, < 5 s"):
        n = 100_000
        start = time.time()
        soup = random_triangle_soup(n, seed=42)
        metrics = mesh.compute_dual_metrics(soup)
        assert metrics.all_well_centered
        rng = np.random.default_rng(43)
        dt = 10.0 ** rng.uniform(-3.0, 3.0, n)
        k = rng.uniform(0.0, 100.0, n)

        fe = soup.face_edges
        le = metrics.edge_len[fe]
        lde = metrics.dual_edge_len[fe]
        geom = ((1.0 - np.cos(k[:, None] * lde)) * (le / lde)).sum(axis=1)
        M = (dt ** 2) / metrics.face_area * geom
        assert (M >= 0).all()

        sq = np.sqrt(np.asarray(-4.0 * M, dtype=complex))
        roots = np.stack([(2.0 + sq), (2.0 - sq)], axis=0) / (2.0 * (1.0 + M))
        target = 1.0 / np.sqrt(1.0 + M)
        assert np.abs(np.abs(roots) - target).max() <= 1e-12
        assert np.abs(roots).max() <= 1.0 + 1e-15

        # the quadratic is actually satisfied
        residual = (1.0 + M) * roots**2 - 2.0 * roots + 1.0
        assert np.abs(residual).max() <= 1e-9 * (1.0 + M.max())

        # production operator agrees on a subsample
        mats = solver.MaterialParams.uniform("TE", soup, eps=1.0, mu=1.0)
        for i in rng.integers(0, n, size=100):
            Mi, (xp, xm) = analysis.growth_factor(
                int(i), soup, metrics, mats, dt=float(dt[i]), k=float(k[i])
            )
            assert np.isclose(Mi, M[i], rtol=1e-12)
            assert np.isclose(abs(xp), target[i], rtol=1e-12)
        elapsed = time.time() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_unconditional_stability_long_run():
    """Source-free lossless TE run on the 1280-face icosphere at 100x the
    CFL-like step for 10^4 steps never gains energy."""
    with criterion(2, "energy bounded over 10^4 steps at 100x CFL-scale dt"):
        s = bundled.bundled_surface("icosphere_3.obj")
        assert s.n_faces == 1280
        m = mesh.compute_dual_metrics(s)
        stars = dec.build_hodge_stars(s, m)
        mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0)
        c = 1.0
        dt = 100.0 * m.dual_edge_len.min() / c
        stepper = solver.assemble(s, m, mats, dt, solver="direct")
        d2 = ((mesh.face_circumcenters(s) - [0.0, 0.0, 1.0]) ** 2).sum(axis=1)
        state = solver.initial_state("TE", s, h=np.exp(-d2 / 0.05))
        e0 = solver.energy(state, stars, mats)
        bound = e0 * (1.0 + 1e-8)
        for _ in range(10_000):
            state = solver.step(stepper, state)
            assert solver.energy(state, stars, mats) <= bound
        assert state.n == 10_000


def test_criterion_3_gauss_law_preservation():
    """On a <=500-edge mesh with the direct solver the electric divergence
    constraint holds to 1e-11 (relative) after 100 source-free steps, and a
    continuity-violating current grows it linearly (negative control)."""
    with criterion(3, "divergence constraint preserved; violating source grows it"):
        s = bundled.bundled_surface("icosphere_1.obj")
        assert s.n_edges <= 500
        m = mesh.compute_dual_metrics(s)
        stars = dec.build_hodge_stars(s, m)
        mats = solver.MaterialParams.uniform("TE", s, eps=1.0, mu=1.0)
        dt = 10.0 * m.dual_edge_len.min()
        stepper = solver.assemble(s, m, mats, dt, solver="direct")

        rng = np.random.default_rng(5)
        psi = rng.normal(size=s.n_faces)
        e0 = (s.d1.T @ psi) / stars.star1        # exactly divergence-free
        d2 = ((mesh.face_circumcenters(s) - [0.0, 0.0, 1.0]) ** 2).sum(axis=1)
        state = solver.initial_state("TE", s, e=e0, h=np.exp(-d2 / 0.1))
        scale0 = solver.gauss_residual_scale(state, s, stars, mats)
        worst = 0.0
        for _ in range(100):
            state = solver.step(stepper, state)
            res = solver.gauss_residuals(state, s, stars, mats)
            scale = max(solver.gauss_residual_scale(state, s, stars, mats), scale0)
            worst = max(worst, float(np.abs(res).max()) / scale)
        assert worst <= 1e-11, f"relative residual {worst:.3e}"

        # negative control: constant current with nonzero discrete divergence
        src = solver.SourceSpec(kind="gaussian_pulse", target="je", amplitude=1.0,
                                t0=0.0, width=1e12, support=[0])
        state = solver.initial_state("TE", s)
        norms = []
        for _ in range(40):
            state = solver.step(stepper, state, src)
            res = solver.gauss_residuals(state, s, stars, mats)
            norms.append(float(np.abs(res).max()))
        assert norms[-1] > 1e3 * worst
        assert abs(norms[39] / norms[19] - 2.0) < 0.1   # linear growth in n


def test_criterion_4_first_order_accuracy():
    """Unit-square cavity (1, 1) mode, joint and dt-only refinement over three
    levels: observed orders inside [0.8, 1.5], in under 10 minutes."""
    with criterion(4, "cavity-mode convergence orders in [0.8, 1.5]"):
        start = time.time()
        report = analysis.convergence_study(
            bundled.bundled_surface("cavity_1.obj"), 0.016, time=1.28,
        )
        assert 0.8 <= report.joint_order <= 1.5, report.summary()
        assert 0.8 <= report.temporal_order <= 1.5, report.summary()
        # refinement halves the error within the expected band
        errs = [r[2] for r in report.joint]
        for a, b in zip(errs, errs[1:]):
            assert 1.6 <= a / b <= 2.6
        assert time.time() - start < 600.0


def test_criterion_5_structural_identities():
    """d1 d0 = 0 exactly on every bundled mesh; gauge invariance to 1e-13;
    dual tiling to 1e-10; static residual matches the finite-difference
    action gradient to 1e-6."""
    with criterion(5, "incidence, gauge, tiling and action-gradient identities"):
        rng = np.random.default_rng(11)
        for name in BUNDLED_MESHES:
            s = bundled.bundled_surface(name)
            assert (s.d1 @ s.d0).nnz == 0

            A = dec.Cochain(s, 1, "primal", rng.normal(size=s.n_edges))
            f = dec.Cochain(s, 0, "primal", rng.normal(size=s.n_vertices))
            F1 = dec.curvature(A)
            F2 = dec.curvature(dec.gauge_transform(A, f))
            scale = max(np.abs(F1.values).max(), 1.0)
            assert np.abs(F2.values - F1.values).max() <= 1e-13 * scale

            m = mesh.compute_dual_metrics(s)
            assert abs(m.dual_vertex_area.sum() - m.face_area.sum()) \
                <= 1e-10 * m.face_area.sum()

        v = [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0],
             [0.5, -np.sqrt(3) / 2, 0]]
        s2 = mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])
        m2 = mesh.compute_dual_metrics(s2)
        h2 = dec.build_hodge_stars(s2, m2)
        A = dec.Cochain(s2, 1, "primal", rng.normal(size=s2.n_edges))
        J = dec.Cochain(s2, 1, "primal", rng.normal(size=s2.n_edges))
        res = dec.maxwell_residual(A, J, h2).values
        delta = 1e-6
        for i in range(s2.n_edges):
            up, down = A.copy(), A.copy()
            up.values[i] += delta
            down.values[i] -= delta
            fd = (dec.field_action(up, J, h2)
                  - dec.field_action(down, J, h2)) / (2 * delta)
            assert abs(fd - res[i]) <= 1e-6


def test_criterion_6_stencil_fidelity():
    """On the two-triangle mesh the assembled TE update divided by the
    measures reproduces the pointwise implicit stencil coefficient by
    coefficient to 1e-14."""
    with criterion(6, "TE stencil matches the pointwise scheme to 1e-14"):
        v = [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0],
             [0.5, -np.sqrt(3) / 2, 0]]
        s = mesh.from_arrays(v, [[0, 1, 2], [0, 3, 1]])
        m = mesh.compute_dual_metrics(s)
        rng = np.random.default_rng(21)
        eps = rng.uniform(1, 3, s.n_edges)
        mu = rng.uniform(1, 3, s.n_faces)
        sigma = rng.uniform(0, 1, s.n_edges)
        sigma_m = rng.uniform(0, 1, s.n_faces)
        dt = 0.29
        mats = solver.MaterialParams("TE", eps=eps, mu=mu, sigma=sigma,
                                     sigma_m=sigma_m)
        stepper = solver.assemble(s, m, mats, dt, solver="direct")

        # hand-computed measures of the equilateral pair
        length, area = 1.0, np.sqrt(3.0) / 4.0
        dual_shared = 1.0 / np.sqrt(3.0)
        (e1,) = np.flatnonzero(~s.boundary)

        def close(a, b):
            assert abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1.0)

        # edge row / |*e1| --> (eps/dt + s/2) E1' = (eps/dt - s/2) E1
        #                       + (H_+ - H_-)/|*e1| - J_e1
        close(stepper.edge_plus[e1] * length / dual_shared, eps[e1] / dt + sigma[e1] / 2)
        close(stepper.edge_minus[e1] * length / dual_shared, eps[e1] / dt - sigma[e1] / 2)
        col = s.d1.T[e1].toarray().ravel()
        assert sorted(col.tolist()) == [-1.0, 1.0]
        close(stepper.stars.star1[e1] * length / dual_shared, 1.0)  # J term
        close(m.dual_edge_len[e1], dual_shared)

        # face rows / |P| --> (mu/dt + sm/2) H1' = (mu/dt - sm/2) H1
        #                      - (sum +- E_i |e_i|)/|P| - J_m1
        for f in range(s.n_faces):
            close(stepper.face_plus[f] / area, mu[f] / dt + sigma_m[f] / 2)
            close(stepper.face_minus[f] / area, mu[f] / dt - sigma_m[f] / 2)
            row = s.d1[f].toarray().ravel()
            for e in np.nonzero(row)[0]:
                close(abs(row[e]) * m.edge_len[e] / area, length / area)
            close(m.face_area[f] / area, 1.0)  # J_m scaling (J |P|)/|P|


def test_criterion_7_pulse_on_sphere(tmp_path, read_vtk):
    """The bundled Gaussian-pulse-on-icosphere demo completes with finite
    outputs, bounded energy, and well-formed VTK snapshots."""
    with criterion(7, "Gaussian pulse on the icosphere: finite and bounded"):
        from decem.config import load_config

        cfg = load_config(bundled.bundled_path("demo_sphere_te.cfg"))
        cfg.output_dir = str(tmp_path / "sphere")
        state = cli.run_simulation(cfg, echo=None)
        assert state.n == cfg.steps
        assert np.isfinite(state.e).all() and np.isfinite(state.h).all()

        with open(os.path.join(cfg.output_dir, "run_log.csv")) as fh:
            log_rows = [line.split(",") for line in fh][1:]
        energies = np.array([float(r[2]) for r in log_rows])
        times = np.array([float(r[1]) for r in log_rows])
        assert np.isfinite(energies).all()
        # after the pulse has passed, energy never grows again
        off = times > cfg.source.t0 + 5 * cfg.source.width
        tail = energies[off]
        assert (np.diff(tail) <= 1e-8 * tail[:-1]).all()
        assert energies.max() > 0

        # VTK snapshots are structurally valid: every keyword in order, each
        # array exactly the bytes its keyword line announces
        vtks = sorted(p for p in os.listdir(cfg.output_dir) if p.endswith(".vtk"))
        assert len(vtks) == cfg.steps // cfg.cadence + 1
        arrays = read_vtk(os.path.join(cfg.output_dir, vtks[-1]))
        assert arrays["points"].shape == (642, 3) and np.isfinite(arrays["points"]).all()
        assert arrays["cells"].shape == (1280, 4) and (arrays["cell_types"] == 5).all()
        assert arrays["h"].shape == (1280,) and np.isfinite(arrays["h"]).all()
        assert np.isfinite(arrays["e_vec"]).all()


def test_criterion_8_determinism(tmp_path):
    """Identical configs produce byte-identical CSV outputs."""
    with criterion(8, "byte-identical CSV outputs across repeated runs"):
        cfg_text = (
            "mesh_path = icosphere_2.obj\nmode = TE\ndt = 0.05\nsteps = 40\n"
            "material.eps = 1.0\nmaterial.mu = 1.0\n"
            "source.kind = gaussian_pulse\nsource.target = jm\n"
            "source.amplitude = 1.0\nsource.t0 = 0.4\nsource.width = 0.1\n"
            "source.support = 7\n"
            "probe.a.quantity = h\nprobe.a.index = 7\n"
            "probe.b.quantity = e\nprobe.b.index = 100\n"
            "output.cadence = 10\nsolver.kind = cg\n"
        )
        outs = []
        for tag in ("one", "two"):
            cfg_path = tmp_path / f"{tag}.cfg"
            cfg_path.write_text(cfg_text + f"output.directory = {tmp_path / tag}\n")
            assert cli.main(["run", str(cfg_path), "--quiet"]) == 0
            outs.append(tmp_path / tag)
        names1 = sorted(p for p in os.listdir(outs[0]) if p.endswith(".csv"))
        names2 = sorted(p for p in os.listdir(outs[1]) if p.endswith(".csv"))
        assert names1 == names2 and names1
        for name in names1:
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"{name} differs between runs"
