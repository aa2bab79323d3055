"""Snapshot, probe and report writers.

VTK files are legacy ASCII unstructured grids for external viewers; the
per-element CSV files are the exact regression contract (floats written with
shortest round-trip repr, fixed iteration order, no timestamps, so identical
runs produce byte-identical files).
"""

from __future__ import annotations

import os

import numpy as np

from .mesh import SimplicialSurface
from .solver import FieldState, polarization

__all__ = [
    "whitney_face_vectors",
    "write_vtk_snapshot",
    "write_csv_snapshot",
    "write_growth_csv",
    "ProbeWriter",
    "RunLogWriter",
    "write_manifest",
]


# Faces per block of the Whitney reconstruction, and numbers per block of
# text (one kernel pass) in the writers: both bound their temporaries.
WHITNEY_BLOCK_FACES = 4096
TEXT_BLOCK_NUMBERS = 8192


def _fmt(x: float) -> str:
    return repr(float(x))


def whitney_face_vectors(surface: SimplicialSurface, edge_values: np.ndarray) -> np.ndarray:
    """Per-face 3-vector reconstruction of an edge cochain.

    Lowest-order Whitney interpolation evaluated at the barycenter b: the
    edge from corner k to corner k+1 contributes value * (grad lambda_{k+1} -
    grad lambda_k) / 3 = value * N x (b - p_{k+2}) / |N|^2, with N the face
    normal (p1 - p0) x (p2 - p0) and the sign of the value flipped where the
    canonical (low->high) orientation runs from k+1 to k.  This reproduces
    constant tangential fields exactly.  Faces are processed in blocks of
    ``WHITNEY_BLOCK_FACES`` so that the (faces, 3, 3) temporaries stay small;
    every face's arithmetic is the same as in one pass over all faces.
    """
    out = np.empty((surface.n_faces, 3))
    for start in range(0, surface.n_faces, WHITNEY_BLOCK_FACES):
        rows = slice(start, start + WHITNEY_BLOCK_FACES)
        f = surface.faces[rows]
        p = surface.vertices[f]              # (B, corner, xyz)
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        values = edge_values[surface.face_edges[rows]] * np.where(f < f[:, [1, 2, 0]], 1, -1)
        # the barycenter, summed as p.mean sums it, at a fraction of its cost
        arms = ((p[:, 0] + p[:, 1] + p[:, 2]) / 3)[:, None] - p[:, [2, 0, 1]]
        out[rows] = (np.cross(normal, np.einsum("fk,fkx->fx", values, arms))
                     / np.einsum("fx,fx->f", normal, normal)[:, None])
    out += 0.0   # +0.0 where a component is -0.0, which would print as -0.0
    return out


def _blocks(row: str, *columns):
    """``row`` %-formatted over the rows of the 1-D arrays ``columns`` by
    ``_text.render`` (``%r`` gives ``_fmt``'s text, ``%d`` an int's ``str``),
    one string per block of at most ``TEXT_BLOCK_NUMBERS`` numbers that need
    the kernel: a ``%r`` column of +0.0 only is literal text."""
    # imported here, so that a run that writes no snapshot does not load (or,
    # without a bytecode cache, compile) the kernel
    from ._text import fold, render

    step = max(1, TEXT_BLOCK_NUMBERS // max(1, len(fold(row, columns)[1])))
    for start in range(0, len(columns[0]), step):
        yield render(row, *(column[start:start + step] for column in columns))


def _vtk_geometry(surface: SimplicialSurface) -> tuple[str, ...]:
    """The ``ASCII`` ... ``CELL_TYPES`` text of a snapshot.  It depends only
    on the surface, so it is formatted at the first snapshot and cached on
    the (immutable) surface for the later ones."""
    if not hasattr(surface, "_vtk_geometry"):
        nf = surface.n_faces
        parts = [f"ASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {surface.n_vertices} double\n"]
        parts += _blocks("%r %r %r\n", *np.asarray(surface.vertices, dtype=np.float64).T)
        parts.append(f"CELLS {nf} {4 * nf}\n")
        parts += _blocks("3 %d %d %d\n", *np.asarray(surface.faces, dtype=np.int64).T)
        parts.append(f"CELL_TYPES {nf}\n" + "5\n" * nf)
        object.__setattr__(surface, "_vtk_geometry", tuple(parts))
    return surface._vtk_geometry


def write_vtk_snapshot(
    path,
    surface: SimplicialSurface,
    state: FieldState,
    title: str = "decem snapshot",
) -> None:
    """Legacy ASCII VTK unstructured grid with the face scalar (TE: h,
    TM: e) and the Whitney vector reconstruction of the edge field."""
    pol = polarization(state.mode)
    edge_field, face_scalar = pol.place(state.e, state.h)
    # a state at rest: the +0.0 vectors that the reconstruction would give
    vectors = (whitney_face_vectors(surface, edge_field) if np.any(edge_field)
               else np.zeros((surface.n_faces, 3)))

    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\n")
        fh.writelines(_vtk_geometry(surface))
        fh.write(f"CELL_DATA {surface.n_faces}\n"
                 f"SCALARS {pol.face_field} double 1\nLOOKUP_TABLE default\n")
        fh.writelines(_blocks("%r\n", np.asarray(face_scalar, dtype=np.float64)))
        fh.write(f"VECTORS {pol.edge_field}_vec double\n")
        fh.writelines(_blocks("%r %r %r\n", *vectors.T))


def write_csv_snapshot(path, state: FieldState) -> None:
    """Raw integrated cochain values, one row per element."""
    with open(path, "w") as fh:
        fh.write("# integrated cochain values (exact regression contract)\n")
        fh.write(f"# mode={state.mode} n={state.n} t={_fmt(state.t)}\n")
        fh.write("quantity,index,value\n")
        for quantity, values in (("e", state.e), ("h", state.h)):
            fh.writelines(_blocks(f"{quantity},%d,%r\n", np.arange(len(values)),
                                  np.asarray(values, dtype=np.float64)))


def write_growth_csv(path, report) -> None:
    """One row per (dt, face, k) in the order of ``report.rows()``."""
    n_dt, n_faces, n_k = report.M.shape
    columns = (
        np.tile(np.repeat(np.arange(n_faces), n_k), n_dt),
        np.tile(np.asarray(report.k_grid, dtype=np.float64), n_dt * n_faces),
        np.asarray(report.M, dtype=np.float64).ravel(),
        np.asarray(report.xi_mod, dtype=np.float64).ravel(),
        np.repeat(np.asarray(report.dt_list, dtype=np.float64), n_faces * n_k),
    )
    with open(path, "w") as fh:
        fh.write("face_id,k,M,xi_mod,dt\n")
        fh.writelines(_blocks("%d,%r,%r,%r,%r\n", *columns))


class ProbeWriter:
    """Streams probe samples (integrated cochain values) to CSV."""

    def __init__(self, path, probes):
        # each probe's array, index and constant ",name,quantity,index," text
        self._probes = [(p.quantity == "e", p.index, f",{p.name},{p.quantity},{p.index},")
                         for p in probes]
        self.fh = open(path, "w")
        self.fh.write("# probe samples of integrated cochain values\n")
        self.fh.write("# (edge quantities are line integrals: field x length;\n")
        self.fh.write("#  face quantities are dual-node values)\n")
        self.fh.write("step,t,probe,quantity,index,value\n")

    def record(self, state: FieldState) -> None:
        head = f"{state.n},{_fmt(state.t)}"
        for on_e, index, text in self._probes:
            value = (state.e if on_e else state.h)[index]
            self.fh.write(f"{head}{text}{_fmt(value)}\n")

    def close(self):
        self.fh.close()


class RunLogWriter:
    """Energy and Gauss-residual trace, one row per cadence."""

    def __init__(self, path, echo=print):
        self.fh = open(path, "w")
        self.fh.write("step,t,energy,max_gauss_electric,max_gauss_magnetic\n")
        self.echo = echo

    def record(self, state, en, residuals) -> None:
        ge = float(np.abs(residuals.electric).max()) if residuals.electric.size else 0.0
        gm = float(np.abs(residuals.magnetic).max()) if residuals.magnetic.size else 0.0
        self.fh.write(f"{state.n},{_fmt(state.t)},{_fmt(en)},{_fmt(ge)},{_fmt(gm)}\n")
        if self.echo is not None:
            self.echo(
                f"step {state.n:8d}  t={state.t:.6e}  energy={en:.6e}  "
                f"gauss(e)={ge:.3e}  gauss(m)={gm:.3e}"
            )

    def close(self):
        self.fh.close()


def write_manifest(path, entries: dict) -> None:
    """Plain-text run manifest; always reflects the last completed step.

    The text goes to a temporary file beside ``path`` that then replaces it,
    so a failed write leaves the previous manifest intact.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            for key, value in entries.items():
                fh.write(f"{key} = {value}\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
