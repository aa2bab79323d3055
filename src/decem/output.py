"""Snapshot, probe and report writers.

VTK files are legacy ASCII unstructured grids for external viewers; the
per-element CSV files are the exact regression contract (floats written with
shortest round-trip repr, fixed iteration order, no timestamps, so identical
runs produce byte-identical files).
"""

from __future__ import annotations

import os

import numpy as np

from .mesh import DualMetrics, SimplicialSurface
from .solver import FieldState

__all__ = [
    "whitney_face_vectors",
    "write_vtk_snapshot",
    "write_csv_snapshot",
    "write_growth_csv",
    "ProbeWriter",
    "RunLogWriter",
    "write_manifest",
]


WHITNEY_BLOCK_FACES = 4096


def _fmt(x: float) -> str:
    return repr(float(x))


def whitney_face_vectors(
    surface: SimplicialSurface, metrics: DualMetrics, edge_values: np.ndarray
) -> np.ndarray:
    """Per-face 3-vector reconstruction of an edge cochain.

    Lowest-order Whitney interpolation evaluated at the barycenter: each
    edge (u, v) of the face contributes value * (grad lambda_v -
    grad lambda_u) / 3, which reproduces constant tangential fields exactly.
    Faces are processed in blocks of ``WHITNEY_BLOCK_FACES`` so that the
    (faces, 3, 3) temporaries stay small; every face's arithmetic is the
    same as in one pass over all faces.
    """
    out = np.zeros((surface.n_faces, 3))
    for start in range(0, surface.n_faces, WHITNEY_BLOCK_FACES):
        rows = slice(start, start + WHITNEY_BLOCK_FACES)
        f = surface.faces[rows]
        p = surface.vertices[f]              # (B,3,3)
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        two_area = np.linalg.norm(normal, axis=1, keepdims=True)
        n_hat = normal / two_area

        grads = np.empty_like(p)             # grad of the barycentric at each corner
        for k in range(3):
            opposite = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
            grads[:, k] = np.cross(n_hat, opposite) / two_area

        block = out[rows]
        fe = surface.face_edges[rows]
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            vals = edge_values[fe[:, k]]
            # canonical edge orientation is low->high vertex index
            swap = f[:, i] > f[:, j]
            gi, gj = grads[:, i].copy(), grads[:, j].copy()
            gi[swap], gj[swap] = grads[swap, j], grads[swap, i]
            block += vals[:, None] * (gj - gi) / 3.0
    return out


def write_vtk_snapshot(
    path,
    surface: SimplicialSurface,
    metrics: DualMetrics,
    state: FieldState,
    title: str = "decem snapshot",
) -> None:
    """Legacy ASCII VTK unstructured grid with the face scalar (TE: h,
    TM: e) and the Whitney vector reconstruction of the edge field."""
    face_scalar = state.h if state.mode == "TE" else state.e
    edge_field = state.e if state.mode == "TE" else state.h
    scalar_name = "h" if state.mode == "TE" else "e"
    vector_name = "e_vec" if state.mode == "TE" else "h_vec"
    vectors = whitney_face_vectors(surface, metrics, edge_field)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {surface.n_vertices} double\n")
        for p in surface.vertices:
            fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        fh.write(f"CELLS {surface.n_faces} {4 * surface.n_faces}\n")
        for a, b, c in surface.faces:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {surface.n_faces}\n")
        for _ in range(surface.n_faces):
            fh.write("5\n")
        fh.write(f"CELL_DATA {surface.n_faces}\n")
        fh.write(f"SCALARS {scalar_name} double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for val in face_scalar:
            fh.write(f"{_fmt(val)}\n")
        fh.write(f"VECTORS {vector_name} double\n")
        for vec in vectors:
            fh.write(f"{_fmt(vec[0])} {_fmt(vec[1])} {_fmt(vec[2])}\n")


def write_csv_snapshot(path, state: FieldState) -> None:
    """Raw integrated cochain values, one row per element."""
    with open(path, "w") as fh:
        fh.write("# integrated cochain values (exact regression contract)\n")
        fh.write(f"# mode={state.mode} n={state.n} t={_fmt(state.t)}\n")
        fh.write("quantity,index,value\n")
        for i, val in enumerate(state.e):
            fh.write(f"e,{i},{_fmt(val)}\n")
        for i, val in enumerate(state.h):
            fh.write(f"h,{i},{_fmt(val)}\n")


def write_growth_csv(path, report) -> None:
    with open(path, "w") as fh:
        fh.write("face_id,k,M,xi_mod,dt\n")
        for face_id, k, m, xi, dt in report.rows():
            fh.write(f"{face_id},{_fmt(k)},{_fmt(m)},{_fmt(xi)},{_fmt(dt)}\n")


class ProbeWriter:
    """Streams probe samples (integrated cochain values) to CSV."""

    def __init__(self, path, probes):
        self.probes = probes
        self.fh = open(path, "w")
        self.fh.write("# probe samples of integrated cochain values\n")
        self.fh.write("# (edge quantities are line integrals: field x length;\n")
        self.fh.write("#  face quantities are dual-node values)\n")
        self.fh.write("step,t,probe,quantity,index,value\n")

    def record(self, state: FieldState) -> None:
        for probe in self.probes:
            array = state.e if probe.quantity == "e" else state.h
            self.fh.write(
                f"{state.n},{_fmt(state.t)},{probe.name},"
                f"{probe.quantity},{probe.index},{_fmt(array[probe.index])}\n"
            )

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
