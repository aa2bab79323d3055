"""Correctness gate applied to the output directory of every benchmark run.

A run counts only when all of these hold:

* the manifest says ``status = complete`` and names the last requested step;
* every energy in ``run_log.csv`` is finite;
* once the source pulse has decayed, the energy never increases (the
  scheme's contraction), to 1e-12 relative;
* the vertex Gauss residual stays at roundoff of its cancellation scale;
* the final probe values agree with the recorded reference values.

The exit status and output determinism are checked by the caller.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

ENERGY_RTOL = 1e-12
# Roundoff bound on the vertex Gauss residual relative to its scale.  The
# residual accumulates one rounding per step; measured ratios stay below
# 2e-14 on every workload.
GAUSS_RTOL = 1e-11


def read_manifest(outdir: str) -> dict:
    out = {}
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _read_csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_run_log(outdir: str) -> list[dict]:
    header, rows = _read_csv_rows(os.path.join(outdir, "run_log.csv"))
    return [dict(zip(header, (float(x) for x in row))) for row in rows]


def read_snapshot_values(path: str, quantity: str) -> np.ndarray:
    """Values of one quantity from a CSV snapshot, in index order."""
    _, rows = _read_csv_rows(path)
    return np.array([row[2] for row in rows if row[0] == quantity], dtype=float)


def final_probe_values(outdir: str, step: int) -> dict:
    header, rows = _read_csv_rows(os.path.join(outdir, "probes.csv"))
    col = {name: i for i, name in enumerate(header)}
    return {
        row[col["probe"]]: float(row[col["value"]])
        for row in rows if int(row[col["step"]]) == step
    }


def check_outputs(outdir: str, inputs) -> list[str]:
    """Reasons the run in ``outdir`` is wrong; empty when it passes."""
    steps = inputs.workload.steps
    try:
        manifest = read_manifest(outdir)
        log = read_run_log(outdir)
        probes = final_probe_values(outdir, steps)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"]

    problems = []
    if manifest.get("status") != "complete":
        problems.append(f"manifest status {manifest.get('status')!r}")
    if manifest.get("last_completed_step") != str(steps):
        problems.append(
            f"manifest last_completed_step {manifest.get('last_completed_step')!r}, "
            f"expected {steps}"
        )

    energies = [row["energy"] for row in log]
    if not energies or not all(math.isfinite(e) for e in energies):
        problems.append("non-finite or missing energy in run_log.csv")
    else:
        decayed = [row for row in log if row["t"] > inputs.decay_time]
        for a, b in zip(decayed, decayed[1:]):
            if b["energy"] > a["energy"] * (1.0 + ENERGY_RTOL):
                problems.append(
                    f"energy grew after the pulse: step {int(a['step'])} "
                    f"{a['energy']!r} -> step {int(b['step'])} {b['energy']!r}"
                )

    for row in log:
        step = int(row["step"])
        snap = os.path.join(outdir, f"snapshot_{step:06d}.csv")
        try:
            edge_values = read_snapshot_values(snap, inputs.edge_quantity)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"snapshot of step {step} unreadable: {exc!r}")
            continue
        # eps = mu = 1 in every workload, so the flux is the edge value
        scale = float((inputs.abs_d0t @ np.abs(inputs.star1 * edge_values)).max())
        residual = max(row["max_gauss_electric"], row["max_gauss_magnetic"])
        if not residual <= GAUSS_RTOL * scale:
            problems.append(
                f"Gauss residual {residual!r} at step {step} exceeds "
                f"{GAUSS_RTOL} x scale {scale!r}"
            )

    for name, ref in (inputs.reference or {}).items():
        got = probes.get(name)
        if got is None or not abs(got - ref) <= inputs.probe_atol:
            problems.append(
                f"probe {name} final value {got!r}, reference {ref!r} "
                f"(tolerance {inputs.probe_atol!r})"
            )
    return problems


def output_hashes(outdir: str) -> dict:
    """SHA-256 of every CSV output (the byte-identical contract)."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
