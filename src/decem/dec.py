"""Cochains, the discrete exterior derivative, diagonal Hodge stars, and the
gauge-theoretic operators (curvature, static field residual, gauge transform).

A cochain assigns one real number to every k-cell, primal (vertices, edges,
faces) or dual (circumcentric cells: faces carry dual 0-cells, edges dual
1-cells, vertices dual 2-cells).  Values are *integrated* quantities: an edge
cochain of an electric field carries field times length.  The exterior
derivative on primal cochains is the incidence matrix of the next degree; on
dual cochains it is the plain transpose of the complementary primal incidence
matrix.  The Hodge star is the diagonal ratio of dual to primal measures.

All operators are pure functions over immutable mesh data and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import DualMetrics, SimplicialSurface

__all__ = [
    "Cochain",
    "HodgeStars",
    "GaugeField",
    "DecError",
    "build_hodge_stars",
    "d",
    "star",
    "curvature",
    "bianchi_defect",
    "gauge_transform",
    "maxwell_residual",
    "continuity_defect",
    "field_action",
]


class DecError(ValueError):
    """Raised for unsupported degree/placement combinations."""


@dataclass
class Cochain:
    """A degree-k array of values over the k-cells of a surface.

    Parameters
    ----------
    surface : SimplicialSurface
    degree : int
        0, 1 or 2.
    placement : str
        ``"primal"`` or ``"dual"``.
    values : array
        One value per carrier cell; length is validated.
    """

    surface: SimplicialSurface
    degree: int
    placement: str
    values: np.ndarray

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise DecError(f"degree must be 0, 1 or 2, got {self.degree}")
        if self.placement not in ("primal", "dual"):
            raise DecError(f"placement must be primal or dual, got {self.placement!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = self.surface.count_carriers(self.degree, self.placement)
        if self.values.shape != (expected,):
            raise DecError(
                f"{self.placement} {self.degree}-cochain needs {expected} values, "
                f"got shape {self.values.shape}"
            )

    def copy(self) -> "Cochain":
        return Cochain(self.surface, self.degree, self.placement, self.values.copy())


@dataclass(frozen=True)
class HodgeStars:
    """Diagonal Hodge star factors of a surface.

    ``star0`` maps primal vertex values to dual 2-cells (factor ``|*v|``),
    ``star1`` primal edge values to dual edges (``|*e|/|e|``), and ``star2``
    primal face values to dual vertices (``1/|P|``).  ``star2`` is positive;
    ``star1`` is positive where the mesh is Delaunay (see
    :class:`~decem.mesh.DualMetrics`), and ``star0`` can be negative at a
    vertex next to non-well-centered faces.
    """

    star0: np.ndarray
    star1: np.ndarray
    star2: np.ndarray


def build_hodge_stars(surface: SimplicialSurface, metrics: DualMetrics) -> HodgeStars:
    """Assemble the diagonal star factors from dual metrics."""
    if np.any(metrics.dual_edge_len == 0.0):
        raise DecError("star1 contains a zero entry (zero dual edge length)")
    return HodgeStars(
        star0=metrics.dual_vertex_area,
        star1=metrics.dual_edge_len / metrics.edge_len,
        star2=1.0 / metrics.face_area,
    )


def d(c: Cochain) -> Cochain:
    """Discrete exterior derivative.

    Primal degree k goes to k+1 through the degree-k incidence matrix; dual
    degree k goes to dual k+1 through the transpose of the complementary
    primal incidence matrix (d1^T for dual 0 -> 1, d0^T for dual 1 -> 2).
    Degree-2 input has no carriers one degree up and is an error.
    """
    s = c.surface
    if c.degree == 2:
        raise DecError("d of a degree-2 cochain: no 3-cells on a surface")
    if c.placement == "primal":
        mat = s.d0 if c.degree == 0 else s.d1
    else:
        mat = s.d1.T if c.degree == 0 else s.d0.T
    return Cochain(s, c.degree + 1, c.placement, mat @ c.values)


# star-star on a 2-manifold gives (-1)^(k(2-k)): -1 for degree 1 only
_STAR_SIGN = {0: 1.0, 1: -1.0, 2: 1.0}


def star(c: Cochain, h: HodgeStars) -> Cochain:
    """Diagonal Hodge star: primal k <-> dual 2-k.

    Componentwise scaling by the star factors; the inverse direction divides
    and carries the degree-1 sign so that applying the star twice returns the
    original values times -1 for degree 1 (+1 otherwise).
    """
    factors = {0: h.star0, 1: h.star1, 2: h.star2}
    if c.placement == "primal":
        return Cochain(c.surface, 2 - c.degree, "dual", factors[c.degree] * c.values)
    primal_degree = 2 - c.degree
    sign = _STAR_SIGN[primal_degree]
    return Cochain(
        c.surface, primal_degree, "primal", sign * c.values / factors[primal_degree]
    )


def curvature(A: Cochain) -> Cochain:
    """Curvature two-form F = dA of a connection edge cochain.

    On a surface the identity dF = 0 has no carriers (no 3-cells), so the
    Bianchi check is trivially satisfied; :func:`bianchi_defect` reports it
    as structurally zero.
    """
    if A.degree != 1 or A.placement != "primal":
        raise DecError("curvature expects a primal 1-cochain")
    return d(A)


def bianchi_defect(F: Cochain) -> float:
    """Norm of dF, structurally zero on a surface (no 3-cells)."""
    if F.degree != 2 or F.placement != "primal":
        raise DecError("bianchi_defect expects a primal 2-cochain")
    return 0.0


def gauge_transform(A: Cochain, f: Cochain) -> Cochain:
    """Gauge change A -> A + df for a primal 0-cochain f."""
    if A.degree != 1 or A.placement != "primal":
        raise DecError("gauge_transform expects a primal 1-cochain A")
    if f.degree != 0 or f.placement != "primal":
        raise DecError("gauge parameter must be a primal 0-cochain")
    return Cochain(A.surface, 1, "primal", A.values + d(f).values)


@dataclass
class GaugeField:
    """Connection edge cochain A with its derived curvature F = dA and an
    optional current J on edges."""

    A: Cochain
    J: Cochain | None = None
    F: Cochain = None

    def __post_init__(self):
        if self.F is None:
            self.F = curvature(self.A)
        elif not np.array_equal(self.F.values, (d(self.A)).values):
            raise DecError("F does not equal dA")


def maxwell_residual(A: Cochain, J: Cochain, h: HodgeStars) -> Cochain:
    """Residual of the static field equation, d^T * d A - * J, per edge.

    This is the gradient of :func:`field_action`; a zero residual means A is
    a stationary point, i.e. solves the static equation.  The time steppers
    do not use this operator; it is the spatial elliptic core used for
    verification.
    """
    if A.degree != 1 or A.placement != "primal":
        raise DecError("maxwell_residual expects a primal 1-cochain A")
    if J.degree != 1 or J.placement != "primal":
        raise DecError("current must be a primal 1-cochain")
    s = A.surface
    dA = s.d1 @ A.values
    res = s.d1.T @ (h.star2 * dA) - h.star1 * J.values
    return Cochain(s, 1, "primal", res)


def continuity_defect(J: Cochain, h: HodgeStars) -> np.ndarray:
    """Per-vertex defect of the discrete continuity condition d^T * J = 0."""
    if J.degree != 1 or J.placement != "primal":
        raise DecError("continuity_defect expects a primal 1-cochain")
    return J.surface.d0.T @ (h.star1 * J.values)


def field_action(A: Cochain, J: Cochain, h: HodgeStars) -> float:
    """Quadratic action <dA, dA>/2 - <A, J> whose gradient is the residual."""
    s = A.surface
    dA = s.d1 @ A.values
    return float(0.5 * dA @ (h.star2 * dA) - A.values @ (h.star1 * J.values))
