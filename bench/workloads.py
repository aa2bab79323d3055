"""Benchmark workloads: the seed-driven generator of meshes and run configs.

Each workload is one ``decem run`` configuration shape.  The seed picks the
source face (from a fixed list of candidates) and which edge of that face the
edge probe watches; the meshes, step counts and output cadence are fixed per
workload.  The program sees only the OBJ and cfg files written here.

On the icospheres the candidates are the centre faces of the 20 icosahedron
faces, which the icosahedral rotations map onto one another: the seed moves
the source and the probes through the index space without changing the
amount of work.  Candidates that were not images of one another changed the
CG iteration count, and with it the run time, by about 20% between seeds.

Meshes come from the ladder: icospheres are built from the icosahedron and
refined with ``tools/make_assets.subdivide`` (imported, not copied).

A third workload, ``cavity_snapshots`` (TM pulse on the level-5 cavity,
vtk+csv every 2nd step, writer-bound), was dropped: its run times varied
the most from run to run and the speed calibration tracked them the least,
so its ``sim_steps_per_s`` spread 0.10 to 0.31 over 5 to 10 seeds, against
a bound of 0.25.

The reference probe values in ``reference.json`` were recorded with the
program at the commit named in that file's provenance block (see
``make_reference.py``): one row per candidate source, holding the final
value on the source face and on each of its three edges.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import make_assets
from decem import mesh

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

FORMATS = "vtk,csv"
SOLVER_TOLERANCE = 1e-10
# A final probe value may differ from its reference by this many solver
# tolerances, relative to the largest reference value of the same source.
# Measured when the references were recorded: CG at tolerance 1e-10
# against CG at 1e-13 differs by up to one tolerance; a factor of 1e3 still
# catches any change of the answer that is not a solver-accuracy effect.
PROBE_TOL_FACTOR = 1e3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mesh: tuple          # ("icosphere", level)
    mode: str            # TE | TM
    target: str          # je | jm
    dt: tuple            # ("dual", k): k * min|*e|;  ("abs", value)
    steps: int
    cadence: int
    pulse: tuple         # (t0, width) in units of dt
    solver: str | None   # None: the program's default solver


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sphere_pulse",
            why="TE jm pulse, icosphere L5 (20480 faces), dt=10*min|*e|, 40 steps, "
                "default solver, vtk+csv at steps 0 and 40: the large-dt face solve dominates",
            mesh=("icosphere", 5), mode="TE", target="jm", dt=("dual", 10.0),
            steps=40, cadence=40, pulse=(4.0, 1.0), solver=None,
        ),
        Workload(
            name="sphere_long",
            why="TE jm pulse, icosphere L3 (1280 faces), dt=0.02, 800 steps, direct, "
                "2 probes each step, vtk+csv every 200: per-step overhead dominates",
            mesh=("icosphere", 3), mode="TE", target="jm", dt=("abs", 0.02),
            steps=800, cadence=200, pulse=(25.0, 7.5), solver="direct",
        ),
    )
}


def build_mesh(kind: str, level: int):
    """Vertices and faces of a ladder mesh, refined by midpoint subdivision."""
    if kind != "icosphere":
        raise ValueError(f"unknown mesh kind {kind!r}")
    v, f = make_assets.icosahedron()
    for _ in range(level):
        v, f = make_assets.subdivide(v, f, project_unit_sphere=True)
    return v, f


def candidate_sources(kind: str, level: int) -> np.ndarray:
    """Face indices the seed may choose as the source."""
    # subdivide puts the centre child of face i at 4 i + 3
    block = 4**level
    return np.arange(20) * block + block - 1


def choose(seed: int, n_candidates: int) -> tuple[int, int]:
    """(candidate number, edge slot 0..2) picked by the seed."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(n_candidates)), int(rng.integers(3))


@dataclass
class Inputs:
    """Generated inputs of one workload and what a correct run must show."""

    workload: Workload
    cfg: str                 # the timed run
    setup_cfg: str           # same set-up, no steps and no snapshots
    source: int
    source_edges: list       # the source face's edges, by local slot
    probes: dict             # name -> (quantity, index)
    reference: dict | None   # name -> final value, None while recording
    probe_atol: float
    decay_time: float        # pulse is negligible after t0 + 5 width
    abs_d0t: sp.csr_matrix   # |d0|^T, for the Gauss residual scale
    star1: np.ndarray
    edge_quantity: str       # which snapshot quantity lives on edges


def _cfg_text(w: Workload, mesh_file: str, dt: float, source: int,
              probes: dict, steps: int, formats: str) -> str:
    t0, width = w.pulse
    lines = [
        f"mesh_path = {mesh_file}",
        f"mode = {w.mode}",
        f"dt = {dt!r}",
        f"steps = {steps}",
        "material.eps = 1.0",
        "material.mu = 1.0",
        "source.kind = gaussian_pulse",
        f"source.target = {w.target}",
        "source.amplitude = 1.0",
        f"source.t0 = {t0 * dt!r}",
        f"source.width = {width * dt!r}",
        f"source.support = {source}",
    ]
    for name, (quantity, index) in probes.items():
        lines += [f"probe.{name}.quantity = {quantity}", f"probe.{name}.index = {index}"]
    lines += [
        "output.directory = out",
        f"output.cadence = {w.cadence}",
        f"output.formats = {formats}",
        f"solver.tolerance = {SOLVER_TOLERANCE!r}",
    ]
    if w.solver:
        lines.append(f"solver.kind = {w.solver}")
    return "\n".join(lines) + "\n"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def generate(name: str, seed: int, workdir: str, candidate: int | None = None,
             reference: dict | None = None) -> Inputs:
    """Write the mesh and configs of one workload into ``workdir``.

    ``candidate`` overrides the seed's choice of source (used when recording
    references); ``reference`` is the parsed ``reference.json``, or None to
    generate without expected probe values.
    """
    w = WORKLOADS[name]
    v, f = build_mesh(*w.mesh)
    os.makedirs(workdir, exist_ok=True)
    mesh_file = f"{w.mesh[0]}_{w.mesh[1]}.obj"
    make_assets.write_obj(os.path.join(workdir, mesh_file), v, f)

    surface = mesh.from_arrays(v, f)
    metrics = mesh.compute_dual_metrics(surface)
    kind, value = w.dt
    dt = value * float(metrics.dual_edge_len.min()) if kind == "dual" else value

    cands = candidate_sources(*w.mesh)
    k, slot = choose(seed, len(cands))
    if candidate is not None:
        k = candidate
    source = int(cands[k])
    source_edges = [int(e) for e in surface.face_edges[source]]
    face_q, edge_q = ("h", "e") if w.mode == "TE" else ("e", "h")
    probes = {"face": (face_q, source), "edge": (edge_q, source_edges[slot])}

    cfg = os.path.join(workdir, "run.cfg")
    setup_cfg = os.path.join(workdir, "setup.cfg")
    with open(cfg, "w") as fh:
        fh.write(_cfg_text(w, mesh_file, dt, source, probes, w.steps, FORMATS))
    with open(setup_cfg, "w") as fh:
        fh.write(_cfg_text(w, mesh_file, dt, source, probes, 0, ""))

    expected, atol = None, 0.0
    if reference is not None:
        ref = reference["workloads"][name]
        if ref["candidates"] != cands.tolist():
            raise ValueError(f"{name}: candidate sources differ from reference.json")
        row = ref["values"][k]      # [face, edge slot 0, edge slot 1, edge slot 2]
        expected = {"face": row[0], "edge": row[1 + slot]}
        atol = PROBE_TOL_FACTOR * SOLVER_TOLERANCE * max(abs(x) for x in row)

    return Inputs(
        workload=w, cfg=cfg, setup_cfg=setup_cfg, source=source,
        source_edges=source_edges, probes=probes, reference=expected, probe_atol=atol,
        decay_time=(w.pulse[0] + 5.0 * w.pulse[1]) * dt,
        abs_d0t=abs(surface.d0_real).T.tocsr(),
        star1=metrics.dual_edge_len / metrics.edge_len,
        edge_quantity=edge_q,
    )
