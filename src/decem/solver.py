"""Implicit time steppers for the two surface-Maxwell polarizations.

TE keeps the electric field as a primal edge cochain and the magnetizing
field on face dual nodes; TM swaps the roles.  Both polarizations advance by
the same fully implicit update: the two coupled cochain equations

    edge:  p_e u^{n+1} = m_e u^n + s * d1^T w^{n+1} - star1 * j_edge
    face:  p_f w^{n+1} = m_f w^n - s * d1   u^{n+1} - j_face

with the per-element diagonals

    p_e/m_e = (edge material / dt +- edge conduction / 2) * star1
    p_f/m_f = (face material / dt +- face conduction / 2) * |P|

and the coupling sign s = +1 (TE) or -1 (TM).  Eliminating the edge unknown
(its block is diagonal) yields one symmetric positive definite face system
per step,

    [diag(p_f) + d1 diag(1/p_e) d1^T] w^{n+1} = rhs(u^n, w^n, currents),

which is factored once by a sparse LU (SuperLU) or solved each step by
Jacobi-preconditioned CG warm-started from the current face cochain.  The
conduction terms use the time-average of the two levels; the curl coupling is
fully implicit, which makes the update a contraction in the energy norm for
any dt (unconditional stability).

Boundary condition is PEC: in TE the tangential electric unknowns on boundary
edges are held at zero and removed from the system; in TM the missing-face
contribution in the d1^T rows is zero, which pins the out-of-plane electric
field to zero at boundary edge midpoints (the dual polyline endpoint lies on
the wall).

Currents are supplied as pointwise densities on their carrier elements and
converted to integrated cochains internally (edge carriers multiply by |e|,
face carriers by |P|).  Sources are sampled at the half step t + dt/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dec import HodgeStars, build_hodge_stars
from .mesh import DualMetrics, SimplicialSurface

__all__ = [
    "EPS0",
    "MU0",
    "SolverError",
    "MaterialParams",
    "FieldState",
    "SourceSpec",
    "ImplicitStepper",
    "GaussResiduals",
    "assemble",
    "step",
    "initial_state",
    "energy",
    "gauss_residuals",
    "gauss_residual_scale",
]

EPS0 = 8.8541878128e-12   # F/m
MU0 = 1.25663706212e-6    # H/m


class SolverError(RuntimeError):
    """Raised for indefinite systems and solver breakdowns."""


def _edge_values_from_faces(surface: SimplicialSurface, face_values: np.ndarray):
    """Average a per-face quantity onto edges (mean of incident faces)."""
    absd1 = abs(surface.d1)
    total = absd1.T @ face_values
    count = absd1.T @ np.ones(surface.n_faces)
    return total / count


@dataclass(frozen=True)
class MaterialParams:
    """Per-element material coefficients, placed for one polarization.

    TE places permittivity and electric conductivity on edges (with the
    electric field) and permeability and magnetic conductivity on faces; TM
    swaps the placements.  ``eps0``/``mu0`` record the vacuum constants used
    for defaults.
    """

    mode: str
    eps: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    sigma_m: np.ndarray
    eps0: float = EPS0
    mu0: float = MU0

    def __post_init__(self):
        if self.mode not in ("TE", "TM"):
            raise ValueError(f"mode must be TE or TM, got {self.mode!r}")
        if (self.eps <= 0).any() or (self.mu <= 0).any():
            raise ValueError("eps and mu must be positive everywhere")
        if (self.sigma < 0).any() or (self.sigma_m < 0).any():
            raise ValueError("conductivities must be nonnegative")

    @classmethod
    def uniform(cls, mode, surface, eps=EPS0, mu=MU0, sigma=0.0, sigma_m=0.0):
        n_edge, n_face = surface.n_edges, surface.n_faces
        n_eps, n_mu = (n_edge, n_face) if mode == "TE" else (n_face, n_edge)
        return cls(
            mode=mode,
            eps=np.full(n_eps, float(eps)),
            mu=np.full(n_mu, float(mu)),
            sigma=np.full(n_eps, float(sigma)),
            sigma_m=np.full(n_mu, float(sigma_m)),
        )

    @classmethod
    def from_face_values(cls, mode, surface, eps, mu, sigma=None, sigma_m=None):
        """Build from per-face arrays; edge-placed quantities take the mean
        of their incident faces."""
        eps = np.asarray(eps, dtype=float)
        mu = np.asarray(mu, dtype=float)
        sigma = np.zeros(surface.n_faces) if sigma is None else np.asarray(sigma, float)
        sigma_m = np.zeros(surface.n_faces) if sigma_m is None else np.asarray(sigma_m, float)
        for name, arr in (("eps", eps), ("mu", mu), ("sigma", sigma), ("sigma_m", sigma_m)):
            if arr.shape != (surface.n_faces,):
                raise ValueError(f"{name} must be a per-face array")
        to_edges = lambda a: _edge_values_from_faces(surface, a)
        if mode == "TE":
            return cls(mode, to_edges(eps), mu.copy(), to_edges(sigma), sigma_m.copy())
        return cls(mode, eps.copy(), to_edges(mu), sigma.copy(), to_edges(sigma_m))


@dataclass
class FieldState:
    """Field unknowns at one time index.

    ``e`` and ``h`` hold integrated cochain values: in TE, ``e`` is the
    primal edge cochain (field times length) and ``h`` the per-face dual-node
    values; in TM the placements swap.  ``t`` always equals ``n * dt`` of the
    run that produced the state.
    """

    mode: str
    e: np.ndarray
    h: np.ndarray
    n: int = 0
    t: float = 0.0

    def d_values(self, materials: MaterialParams) -> np.ndarray:
        """Electric displacement view D = eps * E (same carrier as e)."""
        return materials.eps * self.e

    def b_values(self, materials: MaterialParams) -> np.ndarray:
        """Magnetic flux view B = mu * H (same carrier as h)."""
        return materials.mu * self.h


def initial_state(mode: str, surface: SimplicialSurface, e=None, h=None) -> FieldState:
    """Zero (or given) fields at n = 0; arrays are validated and copied."""
    n_edge, n_face = surface.n_edges, surface.n_faces
    n_e, n_h = (n_edge, n_face) if mode == "TE" else (n_face, n_edge)
    e = np.zeros(n_e) if e is None else np.array(e, dtype=float)
    h = np.zeros(n_h) if h is None else np.array(h, dtype=float)
    if e.shape != (n_e,) or h.shape != (n_h,):
        raise ValueError(f"wrong field lengths for mode {mode}: {e.shape}, {h.shape}")
    return FieldState(mode=mode, e=e, h=h, n=0, t=0.0)


@dataclass
class SourceSpec:
    """Gaussian-pulse current density on a set of carrier elements.

    ``target`` selects the electric ("je") or magnetic ("jm") current; the
    carrier follows the polarization (TE: je on edges, jm on faces; TM the
    converse).  ``amplitude`` is a pointwise density; the stepper integrates
    it over the carrier measure.  The pulse is
    ``amplitude * exp(-(t - t0)^2 / (2 width^2))``, evaluated at half steps.
    """

    kind: str = "none"
    target: str = "je"
    amplitude: float = 0.0
    t0: float = 0.0
    width: float = 1.0
    support: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        if self.kind not in ("none", "gaussian_pulse"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.target not in ("je", "jm"):
            raise ValueError(f"source target must be je or jm, got {self.target!r}")
        if self.kind != "none" and self.width <= 0:
            raise ValueError("source width must be positive")
        self.support = np.asarray(self.support, dtype=int)

    def waveform(self, t: float) -> float:
        if self.kind == "none":
            return 0.0
        arg = (t - self.t0) / self.width
        return self.amplitude * float(np.exp(-0.5 * arg * arg))

    def validate(self, surface: SimplicialSurface, mode: str) -> None:
        if self.kind == "none" or self.support.size == 0:
            return
        on_edges = (self.target == "je") == (mode == "TE")
        limit = surface.n_edges if on_edges else surface.n_faces
        bad = (self.support < 0) | (self.support >= limit)
        if bad.any():
            carrier = "edge" if on_edges else "face"
            raise ValueError(
                f"source support {carrier} index {int(self.support[bad][0])} "
                f"out of range (mesh has {limit})"
            )


class GaussResiduals(NamedTuple):
    electric: np.ndarray
    magnetic: np.ndarray


@dataclass(frozen=True)
class ImplicitStepper:
    """Pre-assembled per-step linear system for one polarization.

    Holds the diagonal update coefficients, the face Schur system with its
    sparse LU factor (``direct``) or Jacobi preconditioner (``cg``), and the
    solver configuration.  A stepper is immutable: stepping never changes it,
    so one stepper can serve any number of runs.
    """

    mode: str
    surface: SimplicialSurface
    metrics: DualMetrics
    stars: HodgeStars
    materials: MaterialParams
    dt: float
    jm_sign: float
    couple_sign: float
    edge_plus: np.ndarray
    edge_minus: np.ndarray
    face_plus: np.ndarray
    face_minus: np.ndarray
    active_edges: np.ndarray
    system: sp.csr_matrix
    solver: str
    tolerance: float
    max_iters: int
    indefinite: bool = False
    _factor: spla.SuperLU | None = None
    _precond: sp.dia_matrix | None = None

    @property
    def n_unknowns(self) -> int:
        return self.system.shape[0]

    # -- linear solve -----------------------------------------------------

    def _solve(self, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
        if self.solver == "direct":
            return self._factor.solve(rhs)
        x, info = spla.cg(
            self.system, rhs, x0=x0, rtol=self.tolerance, atol=0.0,
            maxiter=self.max_iters, M=self._precond,
        )
        if info != 0:
            res = np.linalg.norm(self.system @ x - rhs)
            raise SolverError(
                f"iterative solve failed to converge in {self.max_iters} "
                f"iterations (info={info}, residual norm {res:.3e})"
            )
        return x

    # -- time step --------------------------------------------------------

    def advance(self, state: FieldState, sources: SourceSpec | None = None) -> FieldState:
        if state.mode != self.mode:
            raise ValueError(f"state mode {state.mode} does not match stepper {self.mode}")
        j_edge, j_face = self._currents(state.t + 0.5 * self.dt, sources)
        return self._advance_with_currents(state, j_edge, j_face)

    def _currents(self, t_half: float, sources: SourceSpec | None):
        """Integrated current cochains (edge carrier, face carrier) at t+dt/2."""
        n_e, n_f = self.surface.n_edges, self.surface.n_faces
        j_edge = np.zeros(n_e)
        j_face = np.zeros(n_f)
        if sources is None or sources.kind == "none":
            return j_edge, j_face
        g = sources.waveform(t_half)
        on_edges = (sources.target == "je") == (self.mode == "TE")
        if on_edges:
            j_edge[sources.support] = g
            j_edge *= self.metrics.edge_len
        else:
            j_face[sources.support] = g
            j_face *= self.metrics.face_area
        # the magnetic current enters with the configurable sign
        if sources.target == "jm":
            if self.mode == "TE":
                j_face *= self.jm_sign
            else:
                j_edge *= self.jm_sign
        return j_edge, j_face

    def _advance_with_currents(self, state, j_edge, j_face) -> FieldState:
        u = state.e if self.mode == "TE" else state.h   # edge cochain
        w = state.h if self.mode == "TE" else state.e   # face cochain
        s = self.couple_sign
        d1 = self.surface.d1_real
        act = self.active_edges

        star1_j = self.stars.star1 * j_edge
        edge_hist = self.edge_minus * u - star1_j

        rhs = self.face_minus * w - j_face
        rhs -= s * (d1 @ np.where(act, edge_hist / self.edge_plus, 0.0))

        w_new = self._solve(rhs, x0=w)

        u_new = np.zeros_like(u)
        coup = d1.T @ w_new
        u_new[act] = (edge_hist[act] + s * coup[act]) / self.edge_plus[act]

        e_new, h_new = (u_new, w_new) if self.mode == "TE" else (w_new, u_new)
        return FieldState(
            mode=self.mode, e=e_new, h=h_new, n=state.n + 1,
            t=(state.n + 1) * self.dt,
        )


def assemble(
    mode: str,
    surface: SimplicialSurface,
    metrics: DualMetrics,
    materials: MaterialParams,
    dt: float,
    *,
    solver: str = "direct",
    tolerance: float = 1e-10,
    max_iters: int | None = None,
    jm_sign: float = 1.0,
    allow_indefinite: bool = False,
) -> ImplicitStepper:
    """Build the per-step system for one polarization.

    ``solver="direct"`` (the default) factors the face system here, once;
    ``"cg"`` keeps no factor and runs Jacobi CG every step, using less memory.
    The face system ``diag(p_f) + d1 diag(1/p_e) d1^T`` is symmetric positive
    definite whenever every diagonal entry is positive; nonpositive entries
    (possible only with signed dual metrics or extreme conduction) raise
    ``SolverError`` unless ``allow_indefinite`` is set, in which case the
    stepper is flagged ``indefinite`` and always uses the sparse LU
    (``solver`` becomes ``"direct"``), whose partial pivoting needs no
    definiteness.
    """
    if mode not in ("TE", "TM"):
        raise ValueError(f"mode must be TE or TM, got {mode!r}")
    if materials.mode != mode:
        raise ValueError("materials were placed for a different mode")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if solver not in ("cg", "direct"):
        raise ValueError(f"solver must be cg or direct, got {solver!r}")

    stars = build_hodge_stars(surface, metrics)
    star1 = stars.star1
    areas = metrics.face_area

    if mode == "TE":
        edge_mat, edge_cond = materials.eps, materials.sigma
        face_mat, face_cond = materials.mu, materials.sigma_m
        couple_sign = 1.0
        active = surface.interior_edge_mask  # PEC: boundary electric unknowns fixed at 0
    else:
        edge_mat, edge_cond = materials.mu, materials.sigma_m
        face_mat, face_cond = materials.eps, materials.sigma
        couple_sign = -1.0
        active = np.ones(surface.n_edges, dtype=bool)

    edge_plus = (edge_mat / dt + 0.5 * edge_cond) * star1
    edge_minus = (edge_mat / dt - 0.5 * edge_cond) * star1
    face_plus = (face_mat / dt + 0.5 * face_cond) * areas
    face_minus = (face_mat / dt - 0.5 * face_cond) * areas

    indefinite = bool((edge_plus[active] <= 0).any() or (face_plus <= 0).any())
    if indefinite and not allow_indefinite:
        raise SolverError(
            "indefinite system: nonpositive diagonal coefficient "
            "(signed dual metrics or extreme conduction); "
            "rerun with allow_indefinite to use the sparse LU solver"
        )

    d1a = surface.d1_real[:, active].tocsr()
    inv_edge = sp.diags(1.0 / edge_plus[active])
    system = (sp.diags(face_plus) + d1a @ inv_edge @ d1a.T).tocsr()

    if max_iters is None:
        max_iters = int(np.ceil(10.0 * np.sqrt(system.shape[0])))

    factor = precond = None
    if solver == "direct" or indefinite:
        solver = "direct"
        # MMD on A^T + A: COLAMD roughly doubles the fill on these meshes.
        # A definite system is diagonally dominant, so the default threshold
        # keeps every pivot on the diagonal; an indefinite one may pivot.
        # panel_size=1 keeps the same fill with a smaller factor-time
        # workspace (about 6 MB less peak at 20480 faces).
        factor = spla.splu(
            system.tocsc(), permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True}, panel_size=1,
        )
    else:
        precond = sp.diags(1.0 / system.diagonal())

    return ImplicitStepper(
        mode=mode, surface=surface, metrics=metrics, stars=stars,
        materials=materials, dt=dt, jm_sign=jm_sign, couple_sign=couple_sign,
        edge_plus=edge_plus, edge_minus=edge_minus,
        face_plus=face_plus, face_minus=face_minus,
        active_edges=active, system=system, solver=solver,
        tolerance=tolerance, max_iters=max_iters, indefinite=indefinite,
        _factor=factor, _precond=precond,
    )


def step(stepper: ImplicitStepper, state: FieldState,
         sources: SourceSpec | None = None) -> FieldState:
    """Advance one time level, sampling sources at the half step."""
    return stepper.advance(state, sources)


def energy(state: FieldState, stars: HodgeStars, materials: MaterialParams) -> float:
    """Discrete electromagnetic energy of a state.

    Edge cochains are weighted by their material times star1, face cochains
    by material times face area, which reduces to the usual sum of
    (eps E^2 + mu H^2)/2 times element area on flat meshes.
    """
    if state.mode == "TE":
        ee = state.e @ (materials.eps * stars.star1 * state.e)
        hh = state.h @ (materials.mu / stars.star2 * state.h)
    else:
        ee = state.e @ (materials.eps / stars.star2 * state.e)
        hh = state.h @ (materials.mu * stars.star1 * state.h)
    return 0.5 * float(ee + hh)


def gauss_residuals(
    state: FieldState,
    surface: SimplicialSurface,
    stars: HodgeStars,
    materials: MaterialParams,
    charge: np.ndarray | None = None,
) -> GaussResiduals:
    """Discrete Gauss-law residuals of a state.

    The divergence constraint on the edge-carried flux lives on vertices
    (dual 2-cells): in TE the electric law ``d0^T star1 (eps e) - |*v| rho``,
    in TM the magnetic law with ``mu h``.  The complementary constraint acts
    on a top-degree form and has no carriers on a surface; it is reported as
    a structural zero array over faces.  ``charge`` is a pointwise per-vertex
    density for the vertex-based law (zero by default).
    """
    rho = np.zeros(surface.n_vertices) if charge is None else np.asarray(charge, float)
    if state.mode == "TE":
        flux = materials.eps * state.e
    else:
        flux = materials.mu * state.h
    vertex_law = surface.d0_real.T @ (stars.star1 * flux) - stars.star0 * rho
    structural = np.zeros(surface.n_faces)
    if state.mode == "TE":
        return GaussResiduals(electric=vertex_law, magnetic=structural)
    return GaussResiduals(electric=structural, magnetic=vertex_law)


def gauss_residual_scale(
    state: FieldState,
    surface: SimplicialSurface,
    stars: HodgeStars,
    materials: MaterialParams,
) -> float:
    """Natural cancellation scale for the vertex Gauss law (for relative
    residuals): the same divergence sum with absolute values taken."""
    if state.mode == "TE":
        flux = materials.eps * state.e
    else:
        flux = materials.mu * state.h
    scale = abs(surface.d0_real).T @ np.abs(stars.star1 * flux)
    return float(scale.max()) if scale.size else 0.0
