"""Oriented triangle meshes with circumcentric-dual metrics.

A :class:`SimplicialSurface` is a triangulated 2-manifold embedded in 3-space,
stored with canonical edge orientations and its incidence matrices, whose
+-1 entries are stored as float64 (exact: every sum of their products is a
small integer).  The companion :class:`DualMetrics` carries only the primal
and circumcentric-dual measures the diagonal Hodge stars and the time
steppers need: edge lengths, face areas, dual edge (polyline) lengths and
dual vertex-cell areas.  Positions are computed on demand, by
:func:`face_circumcenters` and :func:`edge_midpoints`.

Conventions
-----------
* Edges are canonically oriented from the lower vertex index to the higher.
* ``d0[e, v]`` is +1 at the edge head, -1 at the tail.
* ``d1[f, e]`` is +1 when the edge's canonical orientation agrees with the
  face's boundary traversal, -1 otherwise, so ``d1 @ d0`` has no nonzero
  entry.
* Circumcenters are computed in each face's own plane in 3D; the dual of an
  edge is the polyline joining the circumcenters of its (one or two) incident
  faces through the edge midpoint, so dual lengths are correct on curved
  surfaces.  In closed form, with theta the angle opposite edge e in a face,
  e's dual segment there is ``|e| cot(theta) / 2`` and the circumcenter has
  barycentric weights ``|e|^2 cot(theta)``.

Construction is pure: a surface and its metrics are immutable after creation
and safe for concurrent read-only use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MeshError",
    "SimplicialSurface",
    "DualMetrics",
    "from_arrays",
    "load_obj",
    "compute_dual_metrics",
    "face_circumcenters",
    "edge_midpoints",
    "mesh_report",
]

# Face considered degenerate when area < DEGENERATE_REL * (longest edge)^2.
DEGENERATE_REL = 1e-14
# Interior dual edge shorter than ZERO_DUAL_REL * primal edge length is
# treated as zero (cocircular adjacent triangles).
ZERO_DUAL_REL = 1e-12


class MeshError(ValueError):
    """Raised for invalid, degenerate or non-orientable mesh input."""


@dataclass(frozen=True)
class SimplicialSurface:
    """Oriented triangle mesh with edge/vertex incidence structure.

    Attributes
    ----------
    vertices : (V, 3) float array
        Vertex positions.
    edges : (E, 2) int array
        Canonically oriented edges, ``edges[:, 0] < edges[:, 1]``, sorted
        lexicographically (deterministic, independent of face order).
    faces : (F, 3) int array
        Vertex triples in the winding order of the input file.
    d0 : (E, V) float64 CSR matrix
        Vertex-to-edge incidence, entries +-1.
    d1 : (F, E) float64 CSR matrix
        Edge-to-face incidence, entries +-1.
    boundary_edges : frozenset of int
        Indices of edges with exactly one incident face.
    """

    vertices: np.ndarray
    edges: np.ndarray
    faces: np.ndarray
    d0: sp.csr_matrix
    d1: sp.csr_matrix
    boundary_edges: frozenset = field(default_factory=frozenset)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def d0_real(self) -> sp.csr_matrix:
        """``d0`` itself, which is already float64."""
        return self.d0

    @property
    def d1_real(self) -> sp.csr_matrix:
        """``d1`` itself, which is already float64."""
        return self.d1

    @property
    def interior_edge_mask(self) -> np.ndarray:
        mask = np.ones(self.n_edges, dtype=bool)
        if self.boundary_edges:
            mask[list(self.boundary_edges)] = False
        return mask

    @property
    def face_edges(self) -> np.ndarray:
        """(F, 3) edge indices per face, in (a,b),(b,c),(c,a) local order
        (kept by ``from_arrays``, else computed once and cached)."""
        if not hasattr(self, "_face_edges"):
            _, fe = _canonical_edges(self.faces, self.n_vertices)
            object.__setattr__(self, "_face_edges", fe)
        return self._face_edges

    def count_carriers(self, degree: int, placement: str) -> int:
        """Number of cells carrying a cochain of the given degree/placement."""
        primal = (self.n_vertices, self.n_edges, self.n_faces)
        if placement == "primal":
            return primal[degree]
        if placement == "dual":
            # dual 0-cells sit on faces, dual 1-cells on edges, dual 2-cells
            # on vertices
            return primal[2 - degree]
        raise ValueError(f"unknown placement {placement!r}")


def _canonical_edges(faces: np.ndarray, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Return unique sorted edges and a (F, 3) map of face-edge indices.

    The k-th directed boundary edge of face (a, b, c) is (a,b), (b,c), (c,a).
    An undirected edge lo < hi is found by the one integer key
    ``lo * n_vertices + hi``, whose order is the lexicographic order of
    (lo, hi).
    """
    tails = np.asarray(faces, dtype=np.int64)
    heads = tails[:, [1, 2, 0]]
    lo = np.minimum(tails, heads).reshape(-1)
    hi = np.maximum(tails, heads).reshape(-1)
    n = np.int64(n_vertices)
    keys, inverse = np.unique(lo * n + hi, return_inverse=True)
    edges = np.stack([keys // n, keys % n], axis=1)
    return edges, inverse.reshape(-1, 3)


def _incidence(vertices, faces):
    """Derive edges and the incidence matrices d0, d1 from face triples.

    Returns ``(edges, d0, d1, boundary_edges, face_edge)``, the last the
    (F, 3) face-edge map.  Raises :class:`MeshError` on non-manifold edges
    (more than two incident faces), edges traversed in the same direction by
    two faces (inconsistent winding), or isolated vertices.
    """
    n_v = vertices.shape[0]
    n_f = faces.shape[0]
    edges, face_edge = _canonical_edges(faces, n_v)
    n_e = edges.shape[0]

    # d0: one -1 at the tail (low index), +1 at the head (high index)
    rows = np.repeat(np.arange(n_e), 2)
    cols = edges.reshape(-1)
    vals = np.tile([-1.0, 1.0], n_e)
    d0 = sp.csr_matrix((vals, (rows, cols)), shape=(n_e, n_v))

    isolated = np.nonzero(np.bincount(faces.ravel(), minlength=n_v) == 0)[0]
    if isolated.size:
        raise MeshError(f"isolated vertices (no incident face): {isolated.tolist()}")

    # d1: sign +1 when the directed traversal matches the canonical (low->high)
    # orientation of the edge
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    directed_tails = np.stack([a, b, c], axis=1)  # tails of (a,b),(b,c),(c,a)
    signs = np.where(directed_tails == edges[face_edge, 0], 1.0, -1.0)
    rows = np.repeat(np.arange(n_f), 3)
    d1 = sp.csr_matrix(
        (signs.reshape(-1), (rows, face_edge.reshape(-1))), shape=(n_f, n_e)
    )

    counts = np.bincount(face_edge.reshape(-1), minlength=n_e)
    bad = np.nonzero(counts > 2)[0]
    if bad.size:
        raise MeshError(f"non-manifold edge (more than two incident faces): edge {bad[0]}")

    # Interior edges must be traversed in opposite directions by their two
    # faces, i.e. the signed d1 column sums to zero there.
    signed_sums = np.asarray(d1.sum(axis=0)).ravel()
    interior = counts == 2
    inconsistent = np.nonzero(interior & (signed_sums != 0))[0]
    if inconsistent.size:
        raise MeshError(
            f"inconsistent winding across interior edge {inconsistent[0]}: "
            "the surface must be consistently oriented"
        )

    boundary = frozenset(np.nonzero(counts == 1)[0].tolist())
    return edges, d0, d1, boundary, face_edge


def from_arrays(vertices, faces) -> SimplicialSurface:
    """Build a surface from raw vertex/face arrays (used by loaders and tests)."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    faces = np.ascontiguousarray(faces, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError("vertices must be an (V, 3) array")
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise MeshError("faces must be an (F, 3) array of vertex triples")
    if faces.size and (faces.min() < 0 or faces.max() >= vertices.shape[0]):
        raise MeshError("face vertex index out of range")
    if faces.size == 0:
        raise MeshError("mesh has no faces")
    edges, d0, d1, boundary, face_edge = _incidence(vertices, faces)
    surface = SimplicialSurface(
        vertices=vertices, edges=edges, faces=faces, d0=d0, d1=d1,
        boundary_edges=boundary,
    )
    object.__setattr__(surface, "_face_edges", face_edge)
    return surface


def load_obj(path) -> SimplicialSurface:
    """Load a Wavefront OBJ file with triangular faces.

    Only ``v x y z`` and ``f i j k`` records are honoured (1-based indices;
    ``i/t/n`` vertex references are accepted, everything after the first
    slash is ignored).  Other record types are skipped.  Face orientation is
    taken from the file's winding order.  Coordinates are read as Python's
    ``float`` reads them, vertex indices as decimal integers.
    """
    coords, refs = [], []   # the v x y z tokens, and every f record's tokens
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            kind = tokens[0] if tokens else ""
            if kind == "v":
                if len(tokens) < 4:
                    raise MeshError(f"{path}:{lineno}: vertex record needs 3 coordinates")
                coords += tokens[1:4]
            elif kind == "f":
                if len(tokens) != 4:
                    raise MeshError(
                        f"non-triangular face at face {len(refs) // 4} "
                        f"({len(tokens) - 1} vertices, line {lineno})"
                    )
                refs += tokens
    if not coords:
        raise MeshError(f"{path}: no vertices found")
    vertices = np.array(coords, dtype=np.float64).reshape(-1, 3)
    del refs[::4]   # the "f" of each record
    text = re.sub(r"/\S*", "", " ".join(refs))   # i/t/n -> i
    try:
        corners = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:   # (older numpy only warns, and returns the numbers before it)
        corners = np.empty(0, dtype=np.int64)
    if corners.size != len(refs):
        raise MeshError(f"{path}: a face vertex reference does not start with an integer")
    return from_arrays(vertices, corners.reshape(-1, 3) - 1)


@dataclass(frozen=True)
class DualMetrics:
    """Primal and circumcentric-dual measures of a surface.

    ``dual_edge_len[e]`` is the length of the polyline joining the
    circumcenters of the faces incident to edge ``e`` through the edge
    midpoint (a single segment for boundary edges).  ``dual_vertex_area[v]``
    is the area of the circumcentric dual 2-cell of vertex ``v``, assembled
    from the per-corner kite triangles (vertex, edge midpoint, face
    circumcenter).  Both are signed: a face whose circumcenter lies beyond
    one of its edges contributes negatively there.  An interior dual edge is
    positive exactly when the two angles opposite the edge sum to less than
    pi (the Delaunay condition), a boundary one when its opposite angle is
    acute; the time stepper needs that on its active edges.
    ``well_centered[f]``, whether face ``f`` contains its circumcenter, is
    information only.  The metrics hold measures only: the positions they
    are built from are :func:`face_circumcenters` and :func:`edge_midpoints`.
    """

    edge_len: np.ndarray
    face_area: np.ndarray
    dual_edge_len: np.ndarray
    dual_vertex_area: np.ndarray
    well_centered: np.ndarray

    @property
    def all_well_centered(self) -> bool:
        return bool(self.well_centered.all())


def _cotangents(surface: SimplicialSurface):
    """Per-face areas, and per face and local edge k (order (a,b),(b,c),(c,a))
    the squared edge length and the cotangent of the opposite angle.

    Returns ``(areas, edge_sq, cot)``.  With the edge vectors e_k = p_{k+1} -
    p_k, taken once, the angle theta_k at p_{k+2} has ``cot theta_k =
    (p_k - p_{k+2}).(p_{k+1} - p_{k+2}) / |N| = -e_{k+2}.e_{k+1} / |N|``, and
    the normal N = (p1 - p0) x (p2 - p0) = -e_0 x e_2 is twice the area.
    Degenerate faces raise :class:`MeshError` before any division.
    """
    p = surface.vertices[surface.faces]          # (F, corner, xyz)
    e = np.empty_like(p)
    np.subtract(p[:, 1:], p[:, :2], out=e[:, :2])
    np.subtract(p[:, 0], p[:, 2], out=e[:, 2])
    del p
    edge_sq = np.einsum("fkx,fkx->fk", e, e)
    two_area = np.linalg.norm(np.cross(e[:, 0], e[:, 2]), axis=1)
    areas = 0.5 * two_area

    degenerate = np.nonzero(areas < DEGENERATE_REL * edge_sq.max(axis=1))[0]
    if degenerate.size:
        raise MeshError(f"degenerate face (collinear vertices): face {degenerate[0]}")

    # e_{j+1}.e_j for each j, then rolled so that entry k is e_{k+2}.e_{k+1}
    dots = np.einsum("fkx,fkx->fk", e[:, [1, 2, 0]], e)[:, [1, 2, 0]]
    return areas, edge_sq, dots / -two_area[:, None]


def _face_geometry(surface: SimplicialSurface):
    """Per-face areas and signed circumcenter-edge distances.

    Returns ``(areas, signed_dist)`` where ``signed_dist[f, k]`` is the
    distance from the circumcenter of face ``f`` to its k-th edge (local
    order (a,b),(b,c),(c,a)), positive when the circumcenter lies on the same
    side of the edge as the opposite vertex (i.e. inside for well-centered
    faces): ``|e_k| cot theta_k / 2``.
    """
    areas, edge_sq, cot = _cotangents(surface)
    return areas, 0.5 * np.sqrt(edge_sq) * cot


def face_circumcenters(surface: SimplicialSurface) -> np.ndarray:
    """Circumcenters of all faces, computed in each face's own 3D plane: the
    corners weighted by ``|e_k|^2 cot theta_k`` on the vertex opposite edge k."""
    _, edge_sq, cot = _cotangents(surface)
    weights = edge_sq * cot
    opp = surface.vertices[surface.faces[:, [2, 0, 1]]]
    return np.einsum("fk,fkx->fx", weights, opp) / weights.sum(axis=1, keepdims=True)


def edge_midpoints(surface: SimplicialSurface) -> np.ndarray:
    """Midpoints of all edges, in edge order."""
    ends = surface.vertices[surface.edges]       # (E, tail/head, xyz)
    return 0.5 * (ends[:, 0] + ends[:, 1])


def compute_dual_metrics(surface: SimplicialSurface) -> DualMetrics:
    """Compute circumcentric dual measures for every mesh element.

    Dual edge segments and kite areas carry signs (negative where a
    circumcenter falls beyond the edge), which keeps the dual-tiling
    identity ``sum |*v| == sum |P|`` exact on every mesh.  A negative dual
    edge is not an error here: ``solver.assemble`` refuses one on an active
    edge, and :func:`mesh_report` fails on any.

    Raises :class:`MeshError` for degenerate faces and for (near-)zero dual
    edges, which would break the diagonal Hodge star.
    """
    areas, signed = _face_geometry(surface)
    ends = surface.vertices[surface.edges]       # (E, tail/head, xyz)
    edge_len = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    del ends

    # face-local edge indices in the (a,b),(b,c),(c,a) order used by signed[]
    face_edge = surface.face_edges
    dual_edge_len = np.bincount(face_edge.ravel(), signed.ravel(), surface.n_edges)

    zero = np.abs(dual_edge_len) <= ZERO_DUAL_REL * edge_len
    if zero.any():
        which = np.nonzero(zero)[0]
        kind = "interior" if surface.interior_edge_mask[which[0]] else "boundary"
        raise MeshError(
            f"zero dual edge at {kind} edge {which[0]} "
            "(adjacent triangles cocircular or circumcenter on the edge); "
            "the diagonal Hodge star would divide by zero"
        )

    # kite triangles: for each (face, local edge k) the tail and the head
    # corner each receive area |e|/4 * signed_dist
    kite = (0.25 * edge_len[face_edge] * signed).ravel()
    f, n_v = surface.faces, surface.n_vertices
    dual_vertex_area = (np.bincount(f.ravel(), kite, n_v)
                        + np.bincount(f[:, [1, 2, 0]].ravel(), kite, n_v))

    return DualMetrics(
        edge_len=edge_len,
        face_area=areas,
        dual_edge_len=dual_edge_len,
        dual_vertex_area=dual_vertex_area,
        well_centered=(signed > 0.0).all(axis=1),
    )


def mesh_report(surface: SimplicialSurface, path=None) -> str:
    """Plain-text well-formedness report (the ``check-mesh`` output).

    Problems are reported instead of raised.  The returned text lists
    counts, the Euler characteristic, edge length extremes, the minimum
    (signed) dual edge length and the number of non-well-centered faces,
    and ends ``status: PASS`` exactly when every dual edge is positive.
    """
    lines = [f"mesh: {path}" if path else "mesh: <in-memory>"]
    lines.append(
        f"vertices={surface.n_vertices} edges={surface.n_edges} "
        f"faces={surface.n_faces} boundary_edges={len(surface.boundary_edges)}"
    )
    lines.append(f"euler_characteristic={surface.euler_characteristic}")
    try:
        metrics = compute_dual_metrics(surface)
    except MeshError as exc:
        lines.append(f"geometry: ERROR {exc}")
        lines.append("status: FAIL")
        return "\n".join(lines)
    lines.append(
        f"edge_len: min={metrics.edge_len.min():.6g} max={metrics.edge_len.max():.6g}"
    )
    lines.append(f"min_dual_edge_len={metrics.dual_edge_len.min():.6g}")
    lines.append(f"non_well_centered_faces={int((~metrics.well_centered).sum())}")
    bad = np.nonzero(metrics.dual_edge_len <= 0)[0]
    lines.append(f"status: FAIL (nonpositive dual edge length at edge {bad[0]})"
                 if bad.size else "status: PASS")
    return "\n".join(lines)
