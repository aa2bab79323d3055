"""Growth-factor stability analysis and convergence verification.

The per-face growth factor comes from a plane-wave-like ansatz in the
implicit update: one time step multiplies the mode amplitude by a root of

    (1 + M) xi^2 - 2 xi + 1 = 0,

where the dimensionless face quantity

    M = (c dt)^2 / |P| * sum_i (1 - cos(k |*e_i|)) |e_i| / |*e_i|

collects the face's three edge/dual-edge ratios, the local wave speed
c = 1/sqrt(eps mu), the time step and a spatial frequency k.  The modal
weight multiplying each term is taken as one.  On a mesh whose dual edges
are all positive (the Delaunay condition), M >= 0, the discriminant -4M is
<= 0, and the two roots are complex conjugates with |xi| = 1/sqrt(1 + M)
<= 1 for every dt and k: the scheme is unconditionally stable.  M is then
non-decreasing in dt and in each (1 - cos) factor, so |xi| never grows with
the step size.  A nonpositive dual edge is refused with a ``ValueError``.

The convergence study runs the TM stepper on the nested unit-square cavity
family against the exact standing mode

    E_z = sin(m pi x) sin(n pi y) cos(w t),   w = c pi sqrt(m^2 + n^2),

projected to cochains by midpoint quadrature, and fits observed orders from
star-weighted discrete L2 errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver as sv
from .mesh import (DualMetrics, SimplicialSurface, compute_dual_metrics, edge_midpoints,
                   face_circumcenters)

__all__ = [
    "GrowthFactorReport",
    "ConvergenceReport",
    "growth_factor",
    "stability_sweep",
    "cavity_mode_fields",
    "field_error",
    "convergence_study",
    "check_nested_family",
]


def _face_wave_speed(surface, materials: sv.MaterialParams) -> np.ndarray:
    """Per-face wave speed 1/sqrt(eps mu); the edge-placed coefficient is
    averaged over the face's three edges (exact for uniform materials)."""
    edge_mat, face_mat = sv.polarization(materials.mode).place(materials.eps, materials.mu)
    return 1.0 / np.sqrt(edge_mat[surface.face_edges].mean(axis=1) * face_mat)


def _growth_m(surface, metrics: DualMetrics, c, faces, dt, k) -> np.ndarray:
    """M of the module docstring for ``faces`` (an index list or slice) with
    per-face wave speeds ``c``, each dt in ``dt`` and k in ``k``: (D, F, K).
    Raises ``ValueError`` naming the first nonpositive dual edge of those
    faces, where M is undefined or negative."""
    fe = surface.face_edges[faces]
    le, lde = metrics.edge_len[fe], metrics.dual_edge_len[fe]     # (F,3)
    if (lde <= 0).any():
        raise ValueError(f"nonpositive dual edge length at edge {fe[lde <= 0].min()}; "
                         "the growth factor needs positive dual edges")
    geom = ((1.0 - np.cos(lde[None, :, :] * k[:, None, None]))
            * (le / lde)[None, :, :]).sum(axis=-1)                # (K,F)
    base = geom.T / metrics.face_area[faces][:, None]             # (F,K)
    return (c[faces][None, :, None] ** 2) * (dt[:, None, None] ** 2) * base[None, :, :]


def growth_factor(face, surface, metrics: DualMetrics, materials, dt, k):
    """Growth factor data for one face: returns ``(M, (xi_plus, xi_minus))``.

    ``k`` may be a scalar or an array of spatial frequencies (rad/m).  The
    roots are computed from the quadratic formula with complex discriminant;
    both have modulus 1/sqrt(1+M).  ``dt = 0`` gives M = 0 and the double
    root 1.
    """
    k = np.asarray(k, dtype=float)
    if (k < 0).any():
        raise ValueError("spatial frequency k must be nonnegative")
    c = _face_wave_speed(surface, materials)
    M = _growth_m(surface, metrics, c, [face], np.ravel(dt), k.ravel())
    M = M.reshape(np.shape(dt) + k.shape)[()]
    disc = np.asarray(-4.0 * M, dtype=complex)
    sq = np.sqrt(disc)
    xi_plus = (2.0 + sq) / (2.0 * (1.0 + M))
    xi_minus = (2.0 - sq) / (2.0 * (1.0 + M))
    return M, (xi_plus, xi_minus)


@dataclass
class GrowthFactorReport:
    """Growth factors of every face over a (dt, k) grid.

    ``M`` and ``xi_mod`` have shape (len(dt_list), n_faces, len(k_grid)).
    ``empirical`` optionally records the cross-check run of the actual
    stepper at the largest dt (max per-step energy ratio over the run).
    """

    dt_list: np.ndarray
    k_grid: np.ndarray
    M: np.ndarray
    xi_mod: np.ndarray
    empirical: dict | None = None

    @property
    def max_xi(self) -> float:
        return float(self.xi_mod.max())

    def rows(self):
        """Yield (face_id, k, M, xi_mod, dt) tuples in deterministic order."""
        for di, dt in enumerate(self.dt_list):
            for f in range(self.M.shape[1]):
                for ki, k in enumerate(self.k_grid):
                    yield f, k, self.M[di, f, ki], self.xi_mod[di, f, ki], dt

    def summary(self) -> str:
        lines = [
            "growth-factor stability sweep",
            f"faces={self.M.shape[1]} k_samples={len(self.k_grid)} "
            f"k_max={self.k_grid.max():.6g}",
            f"dt_list={[float(x) for x in self.dt_list]}",
            "modal weighting: unit",
            f"max M={self.M.max():.6g}",
            f"max |xi|={self.max_xi:.15f} (stable iff <= 1)",
            f"min |xi|={self.xi_mod.min():.6g}",
        ]
        if self.empirical is not None:
            e = self.empirical
            lines.append(
                f"empirical cross-check: dt={e['dt']:.6g} steps={e['steps']} "
                f"max energy ratio={e['max_energy_ratio']:.12f}"
            )
        return "\n".join(lines)


def stability_sweep(
    surface: SimplicialSurface,
    metrics: DualMetrics,
    materials: sv.MaterialParams,
    dt_list,
    k_samples: int = 64,
    empirical_steps: int = 200,
) -> GrowthFactorReport:
    """Evaluate growth factors for every face over a uniform k grid.

    The k grid spans [0, pi / min |*e|].  When ``empirical_steps`` is
    positive, a source-free run of the assembled stepper at the largest dt
    cross-checks that per-step energy never grows beyond roundoff.
    """
    dt_list = np.atleast_1d(np.asarray(dt_list, dtype=float))
    k_grid = np.linspace(0.0, np.pi / metrics.dual_edge_len.min(), k_samples)
    c = _face_wave_speed(surface, materials)
    M = _growth_m(surface, metrics, c, slice(None), dt_list, k_grid)
    xi_mod = 1.0 / np.sqrt(1.0 + M)

    empirical = None
    if empirical_steps > 0:
        dt_max = float(dt_list.max())
        stepper = sv.assemble(surface, metrics, materials, dt_max)
        stars = stepper.stars
        # canned smooth bump on the face carrier, zero edge field
        cc = face_circumcenters(surface)
        bump = np.exp(
            -((cc - cc[0]) ** 2).sum(axis=1)
            / max(metrics.face_area.sum() / 20.0, 1e-30)
        )
        face_field = sv.polarization(materials.mode).face_field
        state = sv.initial_state(materials.mode, surface, **{face_field: bump})
        prev = sv.energy(state, stars, materials)
        worst = 0.0
        for _ in range(empirical_steps):
            state = sv.step(stepper, state)
            cur = sv.energy(state, stars, materials)
            if prev > 0:
                worst = max(worst, cur / prev)
            prev = cur
        empirical = {
            "dt": dt_max,
            "steps": empirical_steps,
            "max_energy_ratio": worst,
        }

    return GrowthFactorReport(dt_list=dt_list, k_grid=k_grid, M=M, xi_mod=xi_mod,
                              empirical=empirical)


# ----------------------------------------------------------------------
# convergence against the analytic cavity mode
# ----------------------------------------------------------------------

def cavity_mode_fields(
    surface: SimplicialSurface,
    t: float,
    m: int = 1,
    n: int = 1,
    eps: float = 1.0,
    mu: float = 1.0,
):
    """Exact TM standing-mode cochains on the unit-square cavity at time t.

    Returns ``(e_faces, h_edges)``: the out-of-plane electric value at each
    face circumcenter and the tangential magnetic line integral along each
    edge (midpoint quadrature).
    """
    c = 1.0 / np.sqrt(eps * mu)
    w = c * np.pi * np.sqrt(float(m * m + n * n))
    mp, npi = m * np.pi, n * np.pi

    cc = face_circumcenters(surface)
    e_faces = np.sin(mp * cc[:, 0]) * np.sin(npi * cc[:, 1]) * np.cos(w * t)

    mid = edge_midpoints(surface)
    hx = -(npi / (mu * w)) * np.sin(mp * mid[:, 0]) * np.cos(npi * mid[:, 1])
    hy = (mp / (mu * w)) * np.cos(mp * mid[:, 0]) * np.sin(npi * mid[:, 1])
    tangent = surface.vertices[surface.edges[:, 1]] - surface.vertices[surface.edges[:, 0]]
    h_edges = (hx * tangent[:, 0] + hy * tangent[:, 1]) * np.sin(w * t)
    return e_faces, h_edges


def field_error(values, exact, weights) -> float:
    """Weighted discrete L2 distance sqrt(sum w (v - v_exact)^2)."""
    dv = np.asarray(values) - np.asarray(exact)
    return float(np.sqrt((weights * dv * dv).sum()))


def check_nested_family(surfaces) -> None:
    """Verify each mesh refines the previous by midpoint subdivision.

    Checks the 1:4 face count, that the coarse vertices are a prefix of the
    fine ones, and that every coarse edge midpoint appears as a fine vertex.
    Raises ``ValueError`` for a non-nested family.
    """
    for k in range(len(surfaces) - 1):
        coarse, fine = surfaces[k], surfaces[k + 1]
        if fine.n_faces != 4 * coarse.n_faces:
            raise ValueError(
                f"non-nested mesh family: level {k + 1} has {fine.n_faces} faces, "
                f"expected {4 * coarse.n_faces}"
            )
        nv = coarse.n_vertices
        if fine.n_vertices < nv or not np.allclose(
            fine.vertices[:nv], coarse.vertices, atol=1e-12, rtol=0.0
        ):
            raise ValueError(
                f"non-nested mesh family: level {k} vertices are not a prefix "
                f"of level {k + 1}"
            )
        mids = edge_midpoints(coarse)
        fine_set = {tuple(np.round(v, 9)) for v in fine.vertices}
        missing = [
            i for i, p in enumerate(np.round(mids, 9)) if tuple(p) not in fine_set
        ]
        if missing:
            raise ValueError(
                f"non-nested mesh family: midpoint of level-{k} edge {missing[0]} "
                f"is not a level-{k + 1} vertex"
            )


@dataclass
class ConvergenceReport:
    """Observed orders from the cavity-mode study.

    ``joint`` rows: (h, dt, error) for simultaneous refinement with dt
    proportional to h; ``temporal`` rows: (dt, error) at the finest mesh.
    Orders are least-squares log-log slopes.
    """

    joint: list
    temporal: list
    joint_order: float
    temporal_order: float

    def summary(self) -> str:
        lines = ["cavity-mode convergence study", "joint refinement (dt ~ h):"]
        for h, dt, err in self.joint:
            lines.append(f"  h={h:.6g} dt={dt:.6g} error={err:.6e}")
        lines.append(f"  observed order: {self.joint_order:.3f}")
        lines.append("temporal refinement (finest mesh):")
        for dt, err in self.temporal:
            lines.append(f"  dt={dt:.6g} error={err:.6e}")
        lines.append(f"  observed order: {self.temporal_order:.3f}")
        return "\n".join(lines)


def _run_cavity(surface, metrics, dt, time, m, n, eps, mu, solver_kind, tolerance):
    mats = sv.MaterialParams.uniform("TM", surface, eps=eps, mu=mu)
    stepper = sv.assemble(surface, metrics, mats, dt, solver=solver_kind,
                          tolerance=tolerance)
    e0, _ = cavity_mode_fields(surface, 0.0, m, n, eps, mu)
    state = sv.initial_state("TM", surface, e=e0)
    steps = int(round(time / dt))
    for _ in range(steps):
        state = sv.step(stepper, state)
    t_end = steps * dt
    e_exact, _ = cavity_mode_fields(surface, t_end, m, n, eps, mu)
    weights = metrics.face_area
    err = field_error(state.e, e_exact, weights)
    ref = float(np.sqrt((weights * e_exact * e_exact).sum()))
    return err / max(ref, 1e-300)


def convergence_study(
    mesh_family,
    dt_family,
    time: float,
    m: int = 1,
    n: int = 1,
    eps: float = 1.0,
    mu: float = 1.0,
    solver_kind: str = "direct",
    tolerance: float = 1e-10,
) -> ConvergenceReport:
    """Observed convergence orders for the TM cavity mode.

    ``mesh_family`` is a nested refinement family (coarse to fine) of the
    unit-square cavity; ``dt_family`` the matching time steps (dt ~ h).  The
    joint order comes from running level i with dt_i; the temporal order from
    running every dt on the finest mesh, whose finest-dt run is the last
    joint one; at least two levels are needed.  Errors are area-weighted
    relative L2 errors of the face field at the final time.  Each run factors its
    system once with the sparse LU (``solver_kind="direct"``); ``"cg"``
    solves every step with Jacobi CG instead.
    """
    surfaces = list(mesh_family)
    dts = [float(x) for x in dt_family]
    if len(surfaces) != len(dts):
        raise ValueError("mesh_family and dt_family must have equal length")
    if len(surfaces) < 2:
        raise ValueError("a convergence study needs at least two meshes")
    check_nested_family(surfaces)
    metrics = [compute_dual_metrics(s) for s in surfaces]

    joint = []
    for s, met, dt in zip(surfaces, metrics, dts):
        h = float(met.edge_len.max())
        err = _run_cavity(s, met, dt, time, m, n, eps, mu, solver_kind, tolerance)
        joint.append((h, dt, err))

    # the finest mesh at the finest dt is the last joint run: reuse its error
    temporal = []
    s_fine, met_fine = surfaces[-1], metrics[-1]
    for dt in dts[:-1]:
        err = _run_cavity(s_fine, met_fine, dt, time, m, n, eps, mu, solver_kind, tolerance)
        temporal.append((dt, err))
    temporal.append(joint[-1][1:])

    joint_order = float(
        np.polyfit(np.log([r[1] for r in joint]), np.log([r[2] for r in joint]), 1)[0]
    )
    temporal_order = float(
        np.polyfit(np.log([r[0] for r in temporal]), np.log([r[1] for r in temporal]), 1)[0]
    )
    return ConvergenceReport(
        joint=joint, temporal=temporal,
        joint_order=joint_order, temporal_order=temporal_order,
    )
