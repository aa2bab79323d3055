"""Stability of the assembled operator and convergence verification.

Eliminating the edge cochain of the lossless scheme (``decem.solver``)
leaves the face operator K w = lambda B w, with K = d1 diag(g) d1^T, g =
1/(edge material * star1) (0 on PEC edges) and B = diag(face material *
|P|).  K is positive semidefinite exactly when star1 > 0 on every active
edge, which ``assemble`` enforces (Hirani, Kalyanaraman & VanderZee,
"Delaunay Hodge star", 2013).  A generalized eigenvector v is a discrete
mode: from w = v and a zero edge cochain one step gives v / (1 + M), M =
lambda dt^2, and each later step multiplies the mode by a root of

    (1 + M) xi^2 - 2 xi + 1 = 0,   |xi| = 1/sqrt(1 + M) <= 1,

for any dt and eps/mu layout; conduction only adds damping.  The lowest and
highest lambda so bound the growth of every mode.  ``growth_factor`` keeps
the per-face plane-wave estimate of M.

The convergence study runs the TM stepper on a unit-square cavity mesh and
its midpoint refinements against the exact (1, 1) standing mode

    E_z = sin(pi x) sin(pi y) cos(w t),   w = c pi sqrt(2),

projected to cochains by midpoint quadrature, and fits observed orders from
star-weighted discrete L2 errors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import solver as sv
from .mesh import (DualMetrics, MeshError, SimplicialSurface, compute_dual_metrics,
                   edge_midpoints, face_circumcenters, from_arrays, subdivide)

__all__ = [
    "GrowthFactorReport",
    "ConvergenceReport",
    "growth_factor",
    "stability_sweep",
    "cavity_mode_fields",
    "field_error",
    "convergence_study",
]


def growth_factor(face, surface, metrics: DualMetrics, materials, dt, k):
    """Per-face plane-wave growth factor: returns ``(M, (xi_plus, xi_minus))``.

    M = (c dt)^2 / |P| * sum_i (1 - cos(k |*e_i|)) |e_i| / |*e_i| over the
    face's edges, with unit modal weights and c = 1/sqrt(eps mu) the face's
    wave speed (its edge-placed coefficient averaged over the three edges,
    exact for uniform materials), for each dt
    in ``dt`` and k (rad/m, nonnegative) in ``k``: shape ``dt.shape +
    k.shape``.  Both roots of the quadratic have modulus 1/sqrt(1+M); ``dt =
    0`` gives M = 0 and the double root 1.  Raises ``ValueError`` naming the
    face's first nonpositive dual edge.
    """
    k = np.asarray(k, dtype=float)
    if (k < 0).any():
        raise ValueError("spatial frequency k must be nonnegative")
    fe = surface.face_edges[face]
    le, lde = metrics.edge_len[fe], metrics.dual_edge_len[fe]
    if (lde <= 0).any():
        raise ValueError(f"nonpositive dual edge length at edge {fe[lde <= 0].min()}; "
                         "the growth factor needs positive dual edges")
    geom = ((1.0 - np.cos(k[..., None] * lde)) * (le / lde)).sum(axis=-1)
    edge_mat, face_mat = sv.polarization(materials.mode).place(materials.eps, materials.mu)
    c = 1.0 / np.sqrt(edge_mat[fe].mean() * face_mat[face])
    M = np.multiply.outer(c ** 2 * np.asarray(dt, dtype=float) ** 2,
                          geom / metrics.face_area[face])
    sq = np.sqrt(np.asarray(-4.0 * M, dtype=complex))
    xi_plus = (2.0 + sq) / (2.0 * (1.0 + M))
    xi_minus = (2.0 - sq) / (2.0 * (1.0 + M))
    return M, (xi_plus, xi_minus)


def _modal_operator(surface, metrics, materials, dt=1.0, **solve):
    """The stepper of the lossless copy of ``materials`` at ``dt``, assembled with
    ``assemble``'s ``solve`` keywords, and, from its coupling dt g and face diagonal
    B / dt (exact at dt = 1), C = B^-1/2 K B^-1/2 and B^-1/2 (module docstring);
    ``assemble`` refuses a nonpositive active dual edge, as for a run."""
    lossless = dataclasses.replace(materials, sigma=np.zeros_like(materials.sigma),
                                   sigma_m=np.zeros_like(materials.sigma_m))
    stepper = sv.assemble(surface, metrics, lossless, dt, **solve)
    g = stepper.polarization.couple_sign * stepper.edge_couple / dt
    scale = sp.diags(1.0 / np.sqrt(stepper.face_plus * dt))
    return stepper, (scale @ surface.d1 @ sp.diags(g) @ stepper.d1t @ scale).tocsr(), scale


@dataclass(frozen=True)
class GrowthFactorReport:
    """Growth factors of the operator's lowest and highest modes.

    ``lam`` holds their eigenvalues; ``M`` and ``xi_mod`` have shape
    (len(dt_list), 2).  ``one_step`` is max |w1 - v/(1+M)| after one ``step``
    of the highest mode v (max |v| = 1) at the largest dt: roundoff with the
    ``direct`` solve, within the CG tolerance with ``cg``, if the run steps
    the analysed operator.  The rest depends on the coefficients only, not
    on the solve: ``growth.csv`` is the same with either.
    """

    # the files and CSV header that output.write_report writes (not fields)
    csv_name, csv_header, text_name = "growth.csv", "mode,lambda,M,xi_mod,dt", "summary.txt"

    mode: str
    dt_list: np.ndarray
    lam: np.ndarray
    one_step: float

    @property
    def M(self) -> np.ndarray:
        return np.outer(self.dt_list ** 2, self.lam)

    @property
    def xi_mod(self) -> np.ndarray:
        return 1.0 / np.sqrt(1.0 + self.M)

    @property
    def max_xi(self) -> float:
        return float(self.xi_mod.max())

    def rows(self):
        """Yield (mode, lambda, M, xi_mod, dt) tuples, lowest mode first."""
        for dt, M, xi in zip(self.dt_list, self.M, self.xi_mod):
            for i, name in enumerate(("lowest", "highest")):
                yield name, self.lam[i], M[i], xi[i], dt

    def summary(self) -> str:
        lines = [
            "operator stability analysis: K v = lambda B v",
            f"mode={self.mode} lambda in [{self.lam[0]:.6g}, {self.lam[1]:.6g}]",
        ]
        for dt, xi in zip(self.dt_list, self.xi_mod):
            lines.append(f"dt={dt:.6g}: |xi| in [{xi[1]:.6g}, {xi[0]:.6g}]")
        lines.append(f"max |xi|={self.max_xi:.15f} (stable iff <= 1)")
        lines.append(f"one step of the highest mode at dt={self.dt_list.max():.6g}: "
                     f"max |w1 - v/(1+M)|={self.one_step:.1e}")
        return "\n".join(lines)


def stability_sweep(
    surface: SimplicialSurface,
    metrics: DualMetrics,
    materials: sv.MaterialParams,
    dt_list,
    **solve,
) -> GrowthFactorReport:
    """Growth factors of the lossless operator's lowest and highest modes
    at each dt of ``dt_list``.

    C is read from the one lossless stepper, at the largest dt, that takes
    the one-step check; ``solve``, ``assemble``'s keywords ``solver``,
    ``tolerance`` and ``max_iters``, goes to its ``assemble`` as it is.
    lambda_max comes from ``eigsh(C, which="LA")`` with a Lanczos basis of
    up to 40 vectors (ARPACK's default of 20 stalls on the 5120-face
    icosphere), lambda_min by shift-invert at -1e-3
    lambda_max, both from a vector of ones, so that they are reproducible;
    an ARPACK failure of either raises ``SolverError``.  A lambda_min within
    1e-12 lambda_max of zero is roundoff on the static mode and becomes
    0.0.  A lower one raises ``SolverError``: ``assemble`` refuses every
    operator that has one.  A zero K (TE with no interior edge) makes every
    mode static, lambda = 0.
    """
    dt_list = np.atleast_1d(np.asarray(dt_list, dtype=float))
    dt_max = float(dt_list.max())
    stepper, C, scale = _modal_operator(surface, metrics, materials, dt_max, **solve)
    if C.shape[0] < 2:
        raise ValueError("the operator analysis needs at least two faces")
    v0 = np.ones(C.shape[0])
    if C.data.any():
        try:
            (lam_max,), top = spla.eigsh(C, k=1, which="LA", v0=v0, ncv=min(C.shape[0], 40))
            lam_min = spla.eigsh(C, k=1, sigma=-1e-3 * lam_max, v0=v0,
                                 return_eigenvectors=False)[0]
        except spla.ArpackError as exc:
            raise sv.SolverError(f"operator eigensolve failed: {exc}") from None
    else:   # K = 0 (TE with every edge PEC): every face mode is static
        lam_max, lam_min, top = 0.0, 0.0, v0[:, None]
    if lam_min < -1e-12 * lam_max:
        raise sv.SolverError(f"indefinite operator: lambda_min {lam_min:.6g} "
                             f"< -1e-12 lambda_max {lam_max:.6g}")
    if lam_min <= 1e-12 * lam_max:
        lam_min = 0.0

    v = scale @ top[:, 0]
    v /= np.abs(v).max()
    pol = stepper.polarization
    state = sv.initial_state(pol.mode, surface, **{pol.face_field: v})
    stepped = sv.step(stepper, state)
    w1 = pol.place(stepped.e, stepped.h)[1]
    one_step = float(np.abs(w1 - v / (1.0 + lam_max * dt_max ** 2)).max())
    return GrowthFactorReport(mode=pol.mode, dt_list=dt_list,
                              lam=np.array([lam_min, lam_max]), one_step=one_step)


# ----------------------------------------------------------------------
# convergence against the analytic cavity mode
# ----------------------------------------------------------------------

def cavity_mode_fields(
    surface: SimplicialSurface,
    t: float,
    eps: float = 1.0,
    mu: float = 1.0,
):
    """Exact cochains of the TM (1, 1) standing mode on the unit-square
    cavity at time t (module docstring).

    Returns ``(e_faces, h_edges)``: the out-of-plane electric value at each
    face circumcenter and the tangential magnetic line integral along each
    edge (midpoint quadrature).
    """
    c = 1.0 / np.sqrt(eps * mu)
    w = c * np.pi * np.sqrt(2.0)

    cc = face_circumcenters(surface)
    e_faces = np.sin(np.pi * cc[:, 0]) * np.sin(np.pi * cc[:, 1]) * np.cos(w * t)

    mid = edge_midpoints(surface)
    hx = -(np.pi / (mu * w)) * np.sin(np.pi * mid[:, 0]) * np.cos(np.pi * mid[:, 1])
    hy = (np.pi / (mu * w)) * np.cos(np.pi * mid[:, 0]) * np.sin(np.pi * mid[:, 1])
    tangent = surface.vertices[surface.edges[:, 1]] - surface.vertices[surface.edges[:, 0]]
    h_edges = (hx * tangent[:, 0] + hy * tangent[:, 1]) * np.sin(w * t)
    return e_faces, h_edges


def field_error(values, exact, weights) -> float:
    """Weighted discrete L2 distance sqrt(sum w (v - v_exact)^2)."""
    dv = np.asarray(values) - np.asarray(exact)
    return float(np.sqrt((weights * dv * dv).sum()))


@dataclass
class ConvergenceReport:
    """Observed orders from the cavity-mode study.

    ``joint`` rows: (h, dt, error) for simultaneous refinement with dt
    proportional to h; ``temporal`` rows: (dt, error) at the finest mesh.
    Orders are least-squares log-log slopes.
    """

    csv_name, csv_header, text_name = "errors.csv", "study,h,dt,error", "convergence.txt"

    joint: list
    temporal: list
    joint_order: float
    temporal_order: float

    def rows(self):
        """Yield (study, h, dt, error) tuples, the joint rows first; a
        temporal row's h is the empty text."""
        for h, dt, err in self.joint:
            yield "joint", h, dt, err
        for dt, err in self.temporal:
            yield "temporal", "", dt, err

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


def _run_cavity(surface, metrics, dt, time, eps, mu, **solve):
    mats = sv.MaterialParams.uniform("TM", surface, eps=eps, mu=mu)
    stepper = sv.assemble(surface, metrics, mats, dt, **solve)
    e0, _ = cavity_mode_fields(surface, 0.0, eps, mu)
    state = sv.initial_state("TM", surface, e=e0)
    steps = int(round(time / dt))
    for _ in range(steps):
        state = sv.step(stepper, state)
    e_exact, _ = cavity_mode_fields(surface, steps * dt, eps, mu)
    weights = metrics.face_area
    return (field_error(state.e, e_exact, weights)
            / max(field_error(0.0, e_exact, weights), 1e-300))


def convergence_study(
    surface: SimplicialSurface,
    dt: float,
    time: float,
    levels: int = 3,
    eps: float = 1.0,
    mu: float = 1.0,
    **solve,
) -> ConvergenceReport:
    """Observed convergence orders for the TM (1, 1) cavity mode.

    Level i is ``surface`` midpoint-subdivided i times, run at ``dt / 2**i``,
    so the family is nested and dt ~ h by construction; at least two
    ``levels`` are needed.  ``surface`` must be the cavity mode's domain:
    flat (z = 0), with a vertex bounding box of exactly [0, 1]^2 and every
    boundary vertex on a side.  The joint order comes from running each
    level at its dt; the temporal order from running every dt on the finest
    mesh, whose finest-dt run is the last joint one.  Errors are
    area-weighted relative L2 errors of the face field at the final time
    ``time`` (``decem convergence`` takes steps * dt), which the coarsest dt
    must reach in at least one step.  ``solve``, ``assemble``'s keywords
    ``solver``, ``tolerance`` and ``max_iters``, goes to each run's
    ``assemble`` as it is.  Every refusal, a level's nonpositive dual edge
    (``assemble``'s in TM, where every edge is active) included, is a
    ``ValueError`` raised before any run.
    """
    if not time > 0:
        raise ValueError(f"the convergence time (steps * dt) must be positive, got {time!r}")
    if levels < 2:
        raise ValueError(f"a convergence study needs at least two levels, got {levels!r}")
    if round(time / dt) == 0:
        raise ValueError(f"dt = {dt!r} takes round(time / dt) = 0 steps to time {time!r}")
    z, xy = surface.vertices[:, 2], surface.vertices[:, :2]
    on_side = ((xy == 0.0) | (xy == 1.0)).any(axis=1)
    if ((z != 0.0).any() or (xy.min(axis=0) != 0.0).any() or (xy.max(axis=0) != 1.0).any()
            or not on_side[surface.edges[surface.boundary]].all()):
        raise ValueError("the cavity mode needs the unit square: a flat mesh (z = 0) whose "
                         "vertices span exactly [0, 1]^2, with every boundary vertex on a side")
    surfaces, metrics = [], []
    for i in range(levels):
        s = from_arrays(*subdivide(s.vertices, s.faces, False)) if i else surface
        try:
            metrics.append(compute_dual_metrics(s))
            if (bad := np.flatnonzero(metrics[-1].dual_edge_len <= 0)).size:
                raise MeshError(f"nonpositive dual edge length at edge {bad[0]}; "
                                "the mesh is not Delaunay there")
        except MeshError as exc:
            refined = {0: "itself", 1: "refined once"}.get(i, f"refined {i} times")
            raise MeshError(f"level {i} of {levels} (the mesh {refined}): {exc}") from None
        surfaces.append(s)
    dts = [dt / 2**i for i in range(levels)]

    joint = []
    for s, met, dt_i in zip(surfaces, metrics, dts):
        h = float(met.edge_len.max())
        err = _run_cavity(s, met, dt_i, time, eps, mu, **solve)
        joint.append((h, dt_i, err))

    # the finest mesh at the finest dt is the last joint run: reuse its error
    temporal = []
    s_fine, met_fine = surfaces[-1], metrics[-1]
    for dt_i in dts[:-1]:
        err = _run_cavity(s_fine, met_fine, dt_i, time, eps, mu, **solve)
        temporal.append((dt_i, err))
    temporal.append(joint[-1][1:])

    order = lambda dts, errors: float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    (_, joint_dts, joint_errors), (temporal_dts, temporal_errors) = zip(*joint), zip(*temporal)
    return ConvergenceReport(joint=joint, temporal=temporal,
                             joint_order=order(joint_dts, joint_errors),
                             temporal_order=order(temporal_dts, temporal_errors))
