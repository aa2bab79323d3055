"""Implicit time steppers for the two surface-Maxwell polarizations.

TE keeps the electric field as a primal edge cochain and the magnetizing
field on face dual nodes; TM swaps the roles (``Polarization``).  Both
polarizations advance by one fully implicit update, the coupled equations

    edge:  p_e u^{n+1} = m_e u^n + s * d1^T w^{n+1} - star1 * j_edge
    face:  p_f w^{n+1} = m_f w^n - s * d1   u^{n+1} - j_face

with the per-element diagonals

    p_e/m_e = (edge material / dt +- edge conduction / 2) * star1
    p_f/m_f = (face material / dt +- face conduction / 2) * |P|

and the coupling sign s = +1 (TE) or -1 (TM).  The edge block is diagonal,
so ``assemble`` folds its inverse and the PEC mask into g = 1/p_e (0 on PEC
edges), and a step is two incidence products around one face solve:

    hist    = g m_e u^n - g star1 j_edge
    [diag(p_f) + d1 diag(g) d1^T] w^{n+1} = m_f w^n - j_face - s d1 hist
    u^{n+1} = hist + s g d1^T w^{n+1}

``assemble`` also stores d1^T, the CSC view that shares d1's arrays, and s g
as one diagonal, so a step builds no operator: it allocates only the new
state, hist, the right-hand side and one product for the d1 hist term, does
the two coupling lines in place, and adds a current on its support only
(off the support the full-array formulas above subtract +0.0); each
in-place line rounds exactly as the formula written with fresh arrays.
``assemble`` also binds the face solve once, as the stepper's ``solve``:
the back-substitution of a sparse LU (SuperLU) factored there, or
Jacobi-preconditioned CG warm-started from the current face cochain, so a
step never dispatches on the solver's name.  The face matrix is exactly
symmetric as assembled: two faces share at most one edge, so each
off-diagonal entry is the single term +-g_e of that edge in both triangles.
A^T x = b is therefore the same system, and the back-substitution runs
SuperLU's transposed sweeps, which read the factor by gathers instead of
column scatters and agree with the plain sweeps to roundoff.  The
conduction terms use the time-average of the two levels; the curl coupling
is fully implicit, which makes the update a contraction in the energy norm
for any dt (unconditional stability).

Boundary condition is PEC: in TE the tangential electric unknowns on boundary
edges are held at zero (g = 0 removes them from the system); in TM the
missing-face contribution in the d1^T rows is zero, which pins the
out-of-plane electric field to zero at boundary edge midpoints (the dual
polyline endpoint lies on the wall).

Currents are supplied as pointwise densities on their carrier elements and
converted to integrated cochains internally (edge carriers multiply by |e|,
face carriers by |P|).  Sources are sampled at the half step t + dt/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dec import HodgeStars, build_hodge_stars
from .mesh import DualMetrics, SimplicialSurface

__all__ = [
    "EPS0",
    "MU0",
    "SolverError",
    "Polarization",
    "polarization",
    "MaterialParams",
    "FieldState",
    "SourceSpec",
    "check_indices",
    "ImplicitStepper",
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


@dataclass(frozen=True)
class Polarization:
    """Placement table of one polarization, the only TE/TM difference.

    ``edge_field`` ("e"/"h") is the edge cochain u, ``face_field`` the face
    cochain w; each field brings its material pair (e: eps/sigma, h:
    mu/sigma_m) and current (je/jm).  ``couple_sign`` is s in the update;
    ``pec_edges`` holds the boundary edge unknowns at zero.
    """

    mode: str
    edge_field: str
    face_field: str
    couple_sign: float
    pec_edges: bool

    def on_edges(self, quantity: str) -> bool:
        """Whether a field ("e"/"h") or a current ("je"/"jm") lives on edges:
        an electric one does exactly when ``e`` does."""
        return (quantity in ("e", "je")) == (self.edge_field == "e")

    def place(self, a, b):
        """Order an electric/magnetic pair, e.g. (e, h) or (eps, mu), as (edge,
        face), or an (edge, face) pair as (electric, magnetic)."""
        return (a, b) if self.edge_field == "e" else (b, a)


_POLARIZATIONS = {
    "TE": Polarization("TE", "e", "h", couple_sign=1.0, pec_edges=True),
    "TM": Polarization("TM", "h", "e", couple_sign=-1.0, pec_edges=False),
}


def polarization(mode: str) -> Polarization:
    """The placement table of a mode; raises ``ValueError`` for any other."""
    if mode not in _POLARIZATIONS:
        raise ValueError(f"mode must be TE or TM, got {mode!r}")
    return _POLARIZATIONS[mode]


def _as_indices(key: str, indices, error: type[Exception] = ValueError) -> np.ndarray:
    """``indices`` as an int array; ``error`` naming ``key`` for an int that
    int64 cannot hold, which indexes no mesh either."""
    try:
        return np.asarray(indices, dtype=int)
    except OverflowError:
        raise error(f"{key}: index {max(indices, key=abs)} out of range") from None


def check_indices(key: str, indices, surface: SimplicialSurface, on_edges: bool,
                  error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``key`` if an index is no edge (``on_edges``) or face."""
    limit, carrier = (surface.n_edges, "edge") if on_edges else (surface.n_faces, "face")
    indices = _as_indices(key, indices, error)
    bad = indices[(indices < 0) | (indices >= limit)]
    if bad.size:
        raise error(f"{key}: {carrier} index {int(bad[0])} out of range (mesh has {limit})")


def _edge_values_from_faces(surface: SimplicialSurface, face_values: np.ndarray):
    """Average a per-face quantity onto edges (mean of incident faces)."""
    edges = surface.face_edges.ravel()
    total = np.bincount(edges, np.repeat(face_values, 3), surface.n_edges)
    return total / np.bincount(edges, minlength=surface.n_edges)


@dataclass(frozen=True)
class MaterialParams:
    """Per-element material coefficients, placed for one polarization.

    TE places permittivity and electric conductivity on edges (with the
    electric field) and permeability and magnetic conductivity on faces; TM
    swaps the placements.
    """

    mode: str
    eps: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    sigma_m: np.ndarray

    def __post_init__(self):
        polarization(self.mode)
        materials = (self.eps, self.mu, self.sigma, self.sigma_m)
        if not all(np.isfinite(a).all() for a in materials):
            raise ValueError("material coefficients must be finite")
        if not ((self.eps > 0).all() and (self.mu > 0).all()):
            raise ValueError("eps and mu must be positive everywhere")
        if not ((self.sigma >= 0).all() and (self.sigma_m >= 0).all()):
            raise ValueError("conductivities must be nonnegative")

    @classmethod
    def uniform(cls, mode, surface, eps=EPS0, mu=MU0, sigma=0.0, sigma_m=0.0):
        """Constant coefficients (the edge mean of equal values is exact)."""
        full = [np.full(surface.n_faces, float(v)) for v in (eps, mu, sigma, sigma_m)]
        return cls.from_face_values(mode, surface, *full)

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
        place_e, place_h = polarization(mode).place(to_edges, np.copy)
        return cls(mode, place_e(eps), place_h(mu), place_e(sigma), place_h(sigma_m))


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
    n_e, n_h = polarization(mode).place(surface.n_edges, surface.n_faces)
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
    ``support`` lists distinct nonnegative carrier indices, since a step's one
    indexed update would apply a repeated index once and wrap a negative one;
    a pulse needs at least one, else it drives nothing.
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
        if not np.isfinite([self.amplitude, self.t0, self.width]).all():
            raise ValueError("source amplitude, t0 and width must be finite")
        if self.kind != "none" and not self.width > 0:
            raise ValueError("source width must be positive")
        self.support = _as_indices("source.support", self.support)
        if self.kind != "none" and not self.support.size:
            raise ValueError("source.support: a gaussian_pulse needs at least one carrier index")
        negative = self.support[self.support < 0]
        if negative.size:
            raise ValueError(f"source.support: negative index {int(negative[0])}")
        index, count = np.unique(self.support, return_counts=True)
        if (count > 1).any():
            raise ValueError(
                f"source.support lists index {int(index[count > 1][0])} more than once")

    def waveform(self, t: float) -> float:
        if self.kind == "none":
            return 0.0
        arg = (t - self.t0) / self.width
        return self.amplitude * float(np.exp(-0.5 * arg * arg))


@dataclass(frozen=True)
class ImplicitStepper:
    """Pre-assembled per-step linear system for one polarization.

    Holds the diagonal update coefficients and ``solve(rhs, x0)``, the face
    solve that ``assemble`` bound once: the transposed back-substitution of
    a sparse LU factor, held without the matrix it factored, which is valid
    because that matrix equals its transpose (``direct``), or Jacobi CG
    warm-started from ``x0`` on the matrix it closes over (``cg``).
    ``edge_couple`` is s g, and ``edge_decay``/``edge_drive`` are g m_e and
    g star1 (module docstring); all three are +0.0 on PEC edges, so a PEC
    unknown at +0.0 stays +0.0.  ``d1t`` is the transpose of the surface's
    incidence matrix ``surface.d1``, the CSC view that shares its arrays,
    taken once here rather than each step.  A stepper is immutable:
    stepping never changes it, so one stepper can serve any number of runs.
    """

    polarization: Polarization
    surface: SimplicialSurface
    metrics: DualMetrics
    stars: HodgeStars
    dt: float
    edge_plus: np.ndarray
    edge_minus: np.ndarray
    face_plus: np.ndarray
    face_minus: np.ndarray
    active_edges: np.ndarray
    edge_couple: np.ndarray
    edge_decay: np.ndarray
    edge_drive: np.ndarray
    d1t: sp.csc_matrix
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _face_system(d1, face_plus, g) -> sp.csr_matrix:
    """The face system ``diag(p_f) + d1 diag(g) d1^T`` that ``assemble`` solves."""
    return (sp.diags(face_plus) + d1 @ sp.diags(g) @ d1.T).tocsr()


def assemble(
    surface: SimplicialSurface,
    metrics: DualMetrics,
    materials: MaterialParams,
    dt: float,
    *,
    solver: str = "direct",
    tolerance: float = 1e-10,
    max_iters: int | None = None,
) -> ImplicitStepper:
    """Build the per-step system for the polarization of ``materials``.

    The face solve is chosen here, once, and bound as the stepper's
    ``solve``: ``solver="direct"`` (the default) factors the face system
    here, drops the matrix and back-substitutes each step through the
    factor's transposed sweeps (``trans="T"``, the faster direction), which
    solve A^T x = b, the same system: each off-diagonal entry of A is the
    one term of the one edge two faces share, so A equals its transpose bit
    for bit; ``"cg"`` keeps the matrix, no factor, and runs Jacobi CG each
    step, to the relative residual ``tolerance`` within ``max_iters``
    iterations (default 10 sqrt(unknowns); at least 1), using less memory.

    The face system ``diag(p_f) + d1 diag(g) d1^T`` is symmetric positive
    definite whenever every diagonal entry ``(material / dt + conduction / 2)
    * measure`` is positive.  With material, dt > 0 and conduction >= 0, only
    a nonpositive dual edge (star1 <= 0, a mesh not Delaunay there) on an
    active edge makes one nonpositive; that raises ``SolverError`` naming
    the first such edge.
    """
    pol = polarization(materials.mode)
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if not (tolerance > 0 and np.isfinite(tolerance)):
        raise ValueError("tolerance must be positive and finite")
    if solver not in ("cg", "direct"):
        raise ValueError(f"solver must be cg or direct, got {solver!r}")
    if max_iters is not None and max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")

    stars = build_hodge_stars(surface, metrics)
    star1 = stars.star1
    areas = metrics.face_area

    edge_mat, face_mat = pol.place(materials.eps, materials.mu)
    edge_cond, face_cond = pol.place(materials.sigma, materials.sigma_m)
    active = ~surface.boundary if pol.pec_edges else np.ones(surface.n_edges, dtype=bool)

    edge_plus = (edge_mat / dt + 0.5 * edge_cond) * star1
    edge_minus = (edge_mat / dt - 0.5 * edge_cond) * star1
    face_plus = (face_mat / dt + 0.5 * face_cond) * areas
    face_minus = (face_mat / dt - 0.5 * face_cond) * areas

    bad = np.nonzero(active & (edge_plus <= 0))[0]
    if bad.size:
        raise SolverError(
            f"indefinite system: nonpositive dual edge length at edge {bad[0]} "
            f"(star1 = {star1[bad[0]]:.6g}); "
            "the mesh is not Delaunay there (see decem check-mesh)"
        )

    def on_active(num):
        """num / edge_plus on active edges, +0.0 on PEC edges."""
        return np.divide(num, edge_plus, out=np.zeros(surface.n_edges), where=active)

    system = _face_system(surface.d1, face_plus, on_active(1.0))

    if solver == "direct":
        # MMD on A^T + A: COLAMD roughly doubles the fill on these meshes.
        # The system is diagonally dominant, so the default threshold keeps
        # every pivot on the diagonal.  panel_size=1 keeps the same fill
        # with a smaller factor-time workspace (about 6 MB less peak at
        # 20480 faces).
        factor = spla.splu(
            system.tocsc(), permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True}, panel_size=1,
        )
        solve = lambda rhs, x0: factor.solve(rhs, trans="T")
    else:
        # the sum's data and indices are views of 25% larger buffers; a copy
        # holds exactly nnz entries, in the same order, so SpMV sums are kept
        system = system.copy()
        if max_iters is None:
            max_iters = int(np.ceil(10.0 * np.sqrt(system.shape[0])))
        precond = sp.diags(1.0 / system.diagonal())

        def solve(rhs, x0):
            x, info = spla.cg(system, rhs, x0=x0, rtol=tolerance, atol=0.0,
                              maxiter=max_iters, M=precond)
            if info != 0:
                res = np.linalg.norm(system @ x - rhs)
                raise SolverError(
                    f"iterative solve failed to converge in {max_iters} "
                    f"iterations (info={info}, residual norm {res:.3e})"
                )
            return x

    return ImplicitStepper(
        polarization=pol, surface=surface, metrics=metrics, stars=stars, dt=dt,
        edge_plus=edge_plus, edge_minus=edge_minus,
        face_plus=face_plus, face_minus=face_minus,
        active_edges=active, edge_couple=on_active(pol.couple_sign),
        edge_decay=on_active(edge_minus), edge_drive=on_active(star1),
        d1t=surface.d1.T, solve=solve,
    )


def step(stepper: ImplicitStepper, state: FieldState,
         sources: SourceSpec | None = None) -> FieldState:
    """Advance one time level, sampling sources at the half step."""
    pol = stepper.polarization
    if state.mode != pol.mode:
        raise ValueError(f"state mode {state.mode} does not match stepper {pol.mode}")
    u, w = pol.place(state.e, state.h)   # edge, face cochains
    hist = stepper.edge_decay * u
    rhs = stepper.face_minus * w
    if sources is not None and sources.kind != "none":
        # integrated current at t + dt/2, subtracted on its support only
        on_edges = pol.on_edges(sources.target)
        support = sources.support
        measure = stepper.metrics.edge_len if on_edges else stepper.metrics.face_area
        j = sources.waveform(state.t + 0.5 * stepper.dt) * measure[support]
        if on_edges:
            hist[support] -= stepper.edge_drive[support] * j
        else:
            rhs[support] -= j
    coupling = stepper.surface.d1 @ hist
    coupling *= pol.couple_sign
    rhs -= coupling
    w_new = stepper.solve(rhs, w)
    u_new = stepper.d1t @ w_new
    u_new *= stepper.edge_couple
    u_new += hist

    e_new, h_new = pol.place(u_new, w_new)
    return FieldState(pol.mode, e_new, h_new, n=state.n + 1, t=(state.n + 1) * stepper.dt)


def energy(state: FieldState, stars: HodgeStars, materials: MaterialParams) -> float:
    """Discrete electromagnetic energy of a state.

    Edge cochains are weighted by their material times star1, face cochains
    by material times face area, which reduces to the usual sum of
    (eps E^2 + mu H^2)/2 times element area on flat meshes.  The sums are
    numpy's, not BLAS dot products, so no digit depends on the thread count.
    """
    pol = polarization(state.mode)
    u, w = pol.place(state.e, state.h)
    edge_mat, face_mat = pol.place(materials.eps, materials.mu)
    uu = np.sum(u * (edge_mat * stars.star1 * u))
    ww = np.sum(w * (face_mat / stars.star2 * w))
    return 0.5 * float(uu + ww)


def _edge_flux(state: FieldState, materials: MaterialParams) -> np.ndarray:
    """The edge-carried flux: eps e in TE, mu h in TM."""
    pol = polarization(state.mode)
    edge_mat, _ = pol.place(materials.eps, materials.mu)
    u, _ = pol.place(state.e, state.h)
    return edge_mat * u


def gauss_residuals(
    state: FieldState,
    surface: SimplicialSurface,
    stars: HodgeStars,
    materials: MaterialParams,
) -> np.ndarray:
    """Discrete Gauss-law residual of a state, one value per vertex.

    The divergence constraint on the edge-carried flux lives on vertices
    (dual 2-cells): in TE the electric law ``d0^T star1 (eps e)``, in TM the
    magnetic law with ``mu h``, both charge-free.  The complementary law
    acts on a top-degree form and has no carriers on a surface, so it has no
    residual.
    """
    return surface.d0.T @ (stars.star1 * _edge_flux(state, materials))


def gauss_residual_scale(
    state: FieldState,
    surface: SimplicialSurface,
    stars: HodgeStars,
    materials: MaterialParams,
) -> float:
    """Natural cancellation scale for the vertex Gauss law (for relative
    residuals): the same divergence sum with absolute values taken."""
    scale = abs(surface.d0).T @ np.abs(stars.star1 * _edge_flux(state, materials))
    return float(scale.max()) if scale.size else 0.0
