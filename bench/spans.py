"""Span tracing of one ``decem run`` from outside the program.

Run as a script, this is the traced child process::

    python3 bench/spans.py <config> <spans.json> [decem run flags...]

It imports ``decem.cli`` inside an ``import`` span, wraps the public
functions of the layers by patching module and class attributes in this
process only, runs ``decem run`` in a ``cli.main`` span and writes the span
list as JSON.  Spans are kept in memory until the end.  Byte and size
counts are read from arguments, return values and the files written, never
from inside the program.  A wrapped name the program no longer has is
skipped, and its metrics read zero.

``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

# (metric name, unit, better) in the order they are printed.
PER_LAYER = [
    ("import.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("mesh.load_obj.s", "s", "lower"),
    ("mesh.load_obj.bytes", "bytes", "lower"),
    ("mesh.compute_dual_metrics.s", "s", "lower"),
    ("dec.build_hodge_stars.s", "s", "lower"),
    ("solver.assemble.s", "s", "lower"),
    ("solver.unknowns", "count", "lower"),
    ("solver.system_nnz", "count", "lower"),
    ("solver.spmv_bytes_computed", "bytes", "lower"),
    ("solver.step.count", "count", "lower"),
    ("solver.step.s", "s", "lower"),
    ("solver.step.p50_ms", "ms", "lower"),
    ("solver.step.tail_ms", "ms", "lower"),
    ("solver.energy.s", "s", "lower"),
    ("solver.gauss_residuals.s", "s", "lower"),
    ("output.write_vtk_snapshot.count", "count", "lower"),
    ("output.write_vtk_snapshot.s", "s", "lower"),
    ("output.write_vtk_snapshot.bytes", "bytes", "lower"),
    ("output.write_csv_snapshot.count", "count", "lower"),
    ("output.write_csv_snapshot.s", "s", "lower"),
    ("output.write_csv_snapshot.bytes", "bytes", "lower"),
    ("output.ProbeWriter.record.count", "count", "lower"),
    ("output.ProbeWriter.record.s", "s", "lower"),
    ("output.RunLogWriter.record.s", "s", "lower"),
    ("output.write_manifest.count", "count", "lower"),
    ("output.write_manifest.s", "s", "lower"),
    ("cli.run_simulation.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records spans (name, start, end, parent index, extra counts)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``counts(args, result)`` returns extra fields for the span; it runs
        after the span has ended, so it is not timed.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(args, result))
            return result

        setattr(owner, attr, traced)


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _system_counts(args, stepper):
    system = getattr(stepper, "system", None)
    if system is None:
        return {}
    n, nnz = system.shape[0], system.nnz
    # CSR SpMV reads values, column indices and row pointers once, reads x
    # and writes y: a computed figure, not a measured one.
    spmv = (nnz * (system.data.itemsize + system.indices.itemsize)
            + (n + 1) * system.indptr.itemsize + 2 * n * 8)
    return {"unknowns": n, "nnz": nnz, "spmv_bytes": spmv}


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer exposes to ``decem run``."""
    import decem.cli as cli
    import decem.output as output
    import decem.solver as solver

    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "load_obj", "mesh.load_obj", _file_bytes)
    tracer.wrap(cli, "compute_dual_metrics", "mesh.compute_dual_metrics")
    tracer.wrap(cli, "run_simulation", "cli.run_simulation")
    # wrapped where assemble looks it up, so it nests under assemble
    tracer.wrap(solver, "build_hodge_stars", "dec.build_hodge_stars")
    tracer.wrap(solver, "assemble", "solver.assemble", _system_counts)
    for name in ("step", "energy", "gauss_residuals"):
        tracer.wrap(solver, name, f"solver.{name}")
    tracer.wrap(output, "write_vtk_snapshot", "output.write_vtk_snapshot", _file_bytes)
    tracer.wrap(output, "write_csv_snapshot", "output.write_csv_snapshot", _file_bytes)
    tracer.wrap(output, "write_manifest", "output.write_manifest")
    tracer.wrap(output.ProbeWriter, "record", "output.ProbeWriter.record")
    tracer.wrap(output.RunLogWriter, "record", "output.RunLogWriter.record")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    out = []
    for i, rec in enumerate(spans):
        covered, reach = 0.0, rec["start"]
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach, rec["start"]), min(end, rec["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(rec["end"] - rec["start"] - covered)
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it
    (the median when n < 20)."""
    return max(50, int(100 * (1 - 10 / n))) if n else 50


def percentile(values: list[float], p: float) -> float:
    """Linearly interpolated percentile (numpy's default rule).

    Written out so that the traced child imports numpy only inside the
    ``import`` span, through ``decem``.
    """
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(spans: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics from a span list, as {name: value}."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    for rec, s in zip(spans, selfs):
        name = rec["name"]
        total[name] = total.get(name, 0.0) + rec["end"] - rec["start"]
        own[name] = own.get(name, 0.0) + s
        count[name] = count.get(name, 0) + 1
        nbytes[name] = nbytes.get(name, 0) + rec.get("bytes", 0)
    assemble = next((r for r in spans if r["name"] == "solver.assemble"), {})
    steps_ms = [1e3 * (r["end"] - r["start"]) for r in spans if r["name"] == "solver.step"]

    m = {"import.s": total.get("import", 0.0)}
    for name in ("config.load_config", "mesh.load_obj", "mesh.compute_dual_metrics",
                 "dec.build_hodge_stars", "solver.step", "solver.energy",
                 "solver.gauss_residuals", "output.write_vtk_snapshot",
                 "output.write_csv_snapshot", "output.ProbeWriter.record",
                 "output.RunLogWriter.record", "output.write_manifest"):
        m[f"{name}.s"] = total.get(name, 0.0)
        m[f"{name}.count"] = count.get(name, 0)
        m[f"{name}.bytes"] = nbytes.get(name, 0)
    m["solver.assemble.s"] = own.get("solver.assemble", 0.0)
    m["solver.unknowns"] = assemble.get("unknowns", 0)
    m["solver.system_nnz"] = assemble.get("nnz", 0)
    m["solver.spmv_bytes_computed"] = assemble.get("spmv_bytes", 0)
    m["solver.step.p50_ms"] = percentile(steps_ms, 50) if steps_ms else 0.0
    m["solver.step.tail_ms"] = (
        percentile(steps_ms, tail_percentile(len(steps_ms))) if steps_ms else 0.0
    )
    m["cli.run_simulation.self_s"] = own.get("cli.run_simulation", 0.0)
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name, _, _ in PER_LAYER}


def main(argv: list[str]) -> int:
    cfg, spans_path, flags = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    with tracer.span("import"):
        import decem.cli
    install(tracer)
    with tracer.span("cli.main"):
        rc = decem.cli.main(["run", cfg, "--quiet", *flags])
    with open(spans_path, "w") as fh:
        json.dump({"exit": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
