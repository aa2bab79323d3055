"""Record the reference probe values that the correctness gate compares to.

Usage, from the repository root::

    python3 bench/make_reference.py

For every workload and every candidate source face it runs ``decem run``
once (the same child process the benchmark times) and stores the final
value on the source face and on its three edges in ``reference.json``.
Run it only when the program's answer is meant to change; the file records
the commit it was made at.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gate
import launch
import run

sys.path[:0] = [run.SRC, run.TOOLS]
import workloads  # noqa: E402


def record(name: str, workdir: str) -> dict:
    w = workloads.WORKLOADS[name]
    rows = []
    cands = workloads.candidate_sources(*w.mesh).tolist()
    for k in range(len(cands)):
        inputs = workloads.generate(name, 0, os.path.join(workdir, f"{name}-{k}"),
                                    candidate=k)
        outdir = os.path.join(workdir, f"{name}-{k}", "out")
        log = os.path.join(workdir, "stderr.txt")
        argv = [sys.executable, "-m", "decem.cli", "run", inputs.cfg, "--quiet",
                "--output-dir", outdir]
        code, wall, _, _ = launch.run_child(argv, workdir, run.child_env(), log,
                                            run.CHILD_TIMEOUT_S)
        if code:
            raise SystemExit(f"{name} candidate {k}: decem run exited {code}")
        snap = os.path.join(outdir, f"snapshot_{inputs.workload.steps:06d}.csv")
        face_q, edge_q = inputs.probes["face"][0], inputs.probes["edge"][0]
        face = gate.read_snapshot_values(snap, face_q)
        edge = gate.read_snapshot_values(snap, edge_q)
        rows.append([float(face[inputs.source])]
                    + [float(edge[e]) for e in inputs.source_edges])
        print(f"{name} candidate {k}: source {inputs.source}, {wall:.2f} s", file=sys.stderr)
    return {"candidates": cands, "values": rows}


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    try:
        table = {name: record(name, workdir) for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"provenance": run.provenance(seed=None), "workloads": table}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
