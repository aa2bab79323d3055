"""Snapshot, probe and report writers.

VTK files are legacy binary unstructured grids (big-endian, as VTK's
legacy reader expects) for external viewers; the per-element CSV files are
the exact regression contract (floats written with shortest round-trip repr,
fixed iteration order, no timestamps, so identical runs produce
byte-identical files).
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
    "write_report",
    "ProbeWriter",
    "RunLogWriter",
    "write_manifest",
]


# Numbers per block of CSV text (one kernel pass), and so faces per block of
# Whitney vectors: it bounds every temporary.
TEXT_BLOCK_NUMBERS = 8192


def _fmt(x: float) -> str:
    return repr(float(x))


def _whitney_blocks(surface: SimplicialSurface, edge_values: np.ndarray):
    """``whitney_face_vectors`` a block of ``TEXT_BLOCK_NUMBERS // 3`` faces
    at a time."""
    faces = max(1, TEXT_BLOCK_NUMBERS // 3)
    for start in range(0, surface.n_faces, faces):
        rows = slice(start, start + faces)
        f = surface.faces[rows]
        p = surface.vertices[f]              # (B, corner, xyz)
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        values = edge_values[surface.face_edges[rows]] * np.where(f < f[:, [1, 2, 0]], 1, -1)
        # the barycenter, summed as p.mean sums it, at a fraction of its cost
        arms = ((p[:, 0] + p[:, 1] + p[:, 2]) / 3)[:, None] - p[:, [2, 0, 1]]
        vectors = (np.cross(normal, np.einsum("fk,fkx->fx", values, arms))
                   / np.einsum("fx,fx->f", normal, normal)[:, None])
        vectors += 0.0   # +0.0 for -0.0: the bits that a state at rest writes
        del f, p, normal, values, arms   # not held while the caller writes the block
        yield vectors


def whitney_face_vectors(surface: SimplicialSurface, edge_values: np.ndarray) -> np.ndarray:
    """Per-face 3-vector reconstruction of an edge cochain.

    Lowest-order Whitney interpolation evaluated at the barycenter b: the
    edge from corner k to corner k+1 contributes value * (grad lambda_{k+1} -
    grad lambda_k) / 3 = value * N x (b - p_{k+2}) / |N|^2, with N the face
    normal (p1 - p0) x (p2 - p0) and the sign of the value flipped where the
    canonical (low->high) orientation runs from k+1 to k.  This reproduces
    constant tangential fields exactly.  Faces are processed in blocks of
    ``TEXT_BLOCK_NUMBERS // 3``, as the VTK writer writes them, so that the
    (faces, 3, 3) temporaries stay small; every face's arithmetic is the same
    as in one pass over all faces.
    """
    return np.concatenate(list(_whitney_blocks(surface, edge_values)))


def write_vtk_snapshot(path, surface: SimplicialSurface, state: FieldState) -> None:
    """Legacy binary VTK unstructured grid with the face scalar (TE: h,
    TM: e) and the Whitney vector reconstruction of the edge field.

    Each array follows its keyword line as big-endian bytes (``double`` as
    float64, ``int`` as int32) and one newline.  The vectors are computed
    and written a block of ``TEXT_BLOCK_NUMBERS // 3`` faces at a time, so
    that no (faces, 3) array is held; their bits are those of
    ``whitney_face_vectors``."""
    pol = polarization(state.mode)
    edge_field, face_scalar = pol.place(state.e, state.h)
    nf = surface.n_faces
    cells = np.empty((nf, 4), dtype=">i4")
    cells[:, 0] = 3
    cells[:, 1:] = surface.faces
    with open(path, "wb") as fh:
        fh.write(f"# vtk DataFile Version 3.0\ndecem snapshot\nBINARY\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {surface.n_vertices} double\n".encode())
        fh.write(np.asarray(surface.vertices, dtype=">f8"))
        fh.write(f"\nCELLS {nf} {4 * nf}\n".encode())
        fh.write(cells)
        fh.write(f"\nCELL_TYPES {nf}\n".encode())
        fh.write(np.full(nf, 5, dtype=">i4"))
        fh.write(f"\nCELL_DATA {nf}\nSCALARS {pol.face_field} double 1\n"
                 f"LOOKUP_TABLE default\n".encode())
        fh.write(np.asarray(face_scalar, dtype=">f8"))
        fh.write(f"\nVECTORS {pol.edge_field}_vec double\n".encode())
        if np.any(edge_field):
            for vectors in _whitney_blocks(surface, edge_field):
                fh.write(vectors.astype(">f8"))
        else:   # a state at rest: the +0.0 vectors that the reconstruction would give
            fh.write(bytes(24 * nf))
        fh.write(b"\n")


def write_csv_snapshot(path, state: FieldState) -> None:
    """Raw integrated cochain values, one row per element.

    The rows are written by ``_text.rows``, one kernel pass per block: a
    block holds ``TEXT_BLOCK_NUMBERS`` rows where the values are all +0.0
    (only their indices need the kernel), else half as many."""
    # imported here, so that a run that writes no CSV snapshot does not load
    # (or, without a bytecode cache, compile) the kernel
    from ._text import rows

    with open(path, "w") as fh:
        fh.write("# integrated cochain values (exact regression contract)\n")
        fh.write(f"# mode={state.mode} n={state.n} t={_fmt(state.t)}\n")
        fh.write("quantity,index,value\n")
        for quantity, values in (("e", state.e), ("h", state.h)):
            values = np.asarray(values, dtype=np.float64)
            step = max(1, TEXT_BLOCK_NUMBERS // (1 + bool(values.view(np.uint64).any())))
            for start in range(0, len(values), step):
                fh.write(rows(quantity, start, values[start:start + step]))


def write_report(directory, report) -> str:
    """Write a report to ``directory``, made if missing, and return its
    summary.  A report names its own files and header: ``report.summary()``
    goes to ``report.text_name``, and ``report.rows()`` under the header
    ``report.csv_header`` to ``report.csv_name`` (text as it is, a number
    as its ``repr``)."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, report.csv_name), "w") as fh:
        fh.write(report.csv_header + "\n")
        for row in report.rows():
            fh.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")
    summary = report.summary()
    with open(os.path.join(directory, report.text_name), "w") as fh:
        fh.write(summary + "\n")
    return summary


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

    def record(self, state, en, residual) -> None:
        """``residual`` is the vertex Gauss residual; the law without
        carriers (magnetic in TE, electric in TM) is written as 0.0."""
        worst = float(np.abs(residual).max())
        ge, gm = polarization(state.mode).place(worst, 0.0)
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
