"""End-to-end benchmark of ``decem run``.

Usage, from the repository root::

    python3 bench/run.py --workload sphere_pulse --seed 1 --seconds 35 --trace 0

One invocation generates the workload's mesh and config from the seed, then
for about ``--seconds`` alternates two fresh processes:

* a set-up run: ``decem run`` of the same config with zero steps and no
  snapshots, i.e. import, config, OBJ load, dual metrics, materials and
  assembly (plus one probe row and the manifest);
* the timed run: ``python -m decem.cli run <cfg> --quiet``, spawn to exit,
  with wall time, user+sys CPU and peak RSS of that child from ``os.wait4``.

Both are spawned by the lean helper process of ``launch.py``, so that the
peak RSS is the child's own and not this process's (see there).

Every run is checked by ``gate.check_outputs`` and its CSV outputs must hash
identically to the first run's; a run that fails counts against the number
attempted and its time is not used.  End-to-end metrics are medians over
the passing runs.  With ``--trace 1`` one more run is made under
``spans.py`` and the per-layer metrics are reported instead.

BLAS and OpenMP pools are pinned to one thread in every child: on a shared
two-core machine the default two OpenBLAS threads made the large-mesh runs
slower and their timings far noisier.  The setting is part of the
provenance block.

Times are reported at a nominal CPU speed.  On a shared virtual machine the
speed of a vCPU drifts by up to 1.6x, in phases from under a second to
minutes, so the median wall times of two invocations minutes apart differed
by up to a third while the program did the same work.  Between consecutive
children the benchmark times a fixed mix of work (``calibrate``); each
child's wall and CPU times are multiplied by ``CAL_NOMINAL_S`` over the mean
of the calibration times just before and just after it.  The calibration
and the program run on the same interpreter, and the ratio cancels the
machine's current speed, not the program's: the calibration is benchmark
code and does not change when the program does.  Raw wall and CPU times and
every calibration time are kept in the results file.

The last line of standard output is the JSON result; a results file with
every sample and the provenance goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import gate
import spans
from launch import Launcher

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TOOLS = os.path.join(ROOT, "tools")
WORK = os.path.join(ROOT, ".bench_work")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PAIRS = 3
CHILD_TIMEOUT_S = 150.0
# Time of one ``calibrate`` call at the nominal speed: about the fastest it
# ran on a 2-vCPU "Intel Xeon Processor" VM (CPython 3.11, numpy 2).  Only
# the ratio matters; the constant merely keeps reported times near wall times.
CAL_NOMINAL_S = 0.19

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_s", "s", "lower"),
]


@dataclass
class Sample:
    kind: str            # setup | run | traced
    exit: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list
    cal_s: float         # mean calibration time just before and after the child

    @property
    def speed(self) -> float:
        """Factor from this child's measured times to nominal-speed times."""
        return CAL_NOMINAL_S / self.cal_s


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work takes now: the CPU's speed.

    The mix is the kind of work that dominates a run: an integer loop, float
    formatting, and iterating a numpy array element by element to format it
    as the writers do.  Measured against runs of a writer-bound workload (TM
    pulse on a 32768-face cavity, vtk+csv every 2nd step), these tracked the
    program's slowdowns best (correlation 0.9 together); scattered reads from
    a table past the caches and filling fresh memory tracked them worse (0.1
    to 0.7) and were left out.
    """
    rows = np.random.default_rng(0).random((10_000, 3))
    values = rows[:, 0].tolist()
    t0 = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i
    for _ in range(4):
        "\n".join("%.17g" % v for v in values)
    for _ in range(2):
        "".join(f"{p[0]!r} {p[1]!r} {p[2]!r}\n" for p in rows)
    return time.perf_counter() - t0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)


def _stderr_tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-600:].decode(errors="replace")


class Session:
    """Runs children for one invocation and applies the gate to each."""

    def __init__(self, inputs, workdir: str, launcher: Launcher):
        self.inputs = inputs
        self.workdir = workdir
        self.launcher = launcher
        self.samples: list[Sample] = []
        self.first_hashes: dict | None = None
        self.n = 0
        self.last_cal = calibrate()

    def _run(self, kind: str, argv: list[str], check) -> Sample:
        self.n += 1
        outdir = os.path.join(self.workdir, f"out{self.n}")
        log = os.path.join(self.workdir, f"stderr{self.n}.txt")
        code, wall, cpu, rss = self.launcher.run(argv + ["--output-dir", outdir], self.workdir,
                                                 child_env(), log, CHILD_TIMEOUT_S)
        cal_before, self.last_cal = self.last_cal, calibrate()
        problems = [f"exit status {code}: {_stderr_tail(log)}"] if code else []
        if not problems:
            problems = check(outdir)
        sample = Sample(kind, code, wall, cpu, rss, problems, (cal_before + self.last_cal) / 2)
        self.samples.append(sample)
        if problems:
            print(f"{kind} run {self.n} FAILED: " + "; ".join(problems), file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        os.remove(log)
        return sample

    def _check_setup(self, outdir: str) -> list[str]:
        manifest = gate.read_manifest(outdir)
        if manifest.get("status") != "complete" or manifest.get("last_completed_step") != "0":
            return [f"set-up manifest {manifest!r}"]
        return []

    def _check_run(self, outdir: str) -> list[str]:
        problems = gate.check_outputs(outdir, self.inputs)
        hashes = gate.output_hashes(outdir)
        if not problems and self.first_hashes is None:
            self.first_hashes = hashes
        elif self.first_hashes is not None and hashes != self.first_hashes:
            differ = sorted(k for k in set(hashes) | set(self.first_hashes)
                            if hashes.get(k) != self.first_hashes.get(k))
            problems.append(f"outputs differ from the first run: {differ}")
        return problems

    def setup(self) -> Sample:
        cmd = [sys.executable, "-m", "decem.cli", "run", self.inputs.setup_cfg, "--quiet"]
        return self._run("setup", cmd, self._check_setup)

    def run(self) -> Sample:
        cmd = [sys.executable, "-m", "decem.cli", "run", self.inputs.cfg, "--quiet"]
        return self._run("run", cmd, self._check_run)

    def traced(self, spans_path: str) -> Sample:
        cmd = [sys.executable, os.path.join(HERE, "spans.py"), self.inputs.cfg, spans_path]
        return self._run("traced", cmd, self._check_run)


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "calibration_nominal_s": CAL_NOMINAL_S,
        "commit": _git_commit(),
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(inputs, samples: list[Sample]) -> dict:
    """Medians of nominal-speed times over the (set-up, run) pairs that passed."""
    setups = [s for s in samples if s.kind == "setup"]
    runs = [s for s in samples if s.kind == "run"]
    pairs = [(a, b) for a, b in zip(setups, runs) if not (a.problems or b.problems)]
    pairs = pairs or list(zip(setups, runs))
    run_s = _median([b.wall_s * b.speed for _, b in pairs])
    setup_s = _median([a.wall_s * a.speed for a, _ in pairs])
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "sim_steps_per_s": inputs.workload.steps / (run_s - setup_s),
        "peak_rss_mb": _median([b.peak_rss_mb for _, b in pairs]),
        "cpu_s": _median([b.cpu_s * b.speed for _, b in pairs]),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [os.path.join(SRC, "decem", "cli.py"), os.path.join(TOOLS, "make_assets.py"),
              os.path.join(HERE, "reference.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: benchmark needs the decem source tree; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TOOLS]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        with Launcher() as launcher:
            inputs = workloads.generate(args.workload, args.seed, workdir,
                                        reference=workloads.load_reference())
            session = Session(inputs, workdir, launcher)
            start = time.perf_counter()
            pairs = 0
            while True:
                session.setup()
                session.run()
                pairs += 1
                elapsed = time.perf_counter() - start
                if pairs >= MIN_PAIRS and elapsed * (pairs + 1) / pairs > args.seconds:
                    break
            e2e = end_to_end(inputs, session.samples)

            layers, trace_note = None, None
            if args.trace:
                spans_path = os.path.join(workdir, "spans.json")
                traced = session.traced(spans_path)
                span_list = []
                if os.path.isfile(spans_path):   # absent when the traced run failed
                    with open(spans_path) as fh:
                        span_list = json.load(fh)["spans"]
                    shutil.copy(spans_path, os.path.join(
                        results, f"spans-{args.workload}-seed{args.seed}.json"))
                overhead = traced.wall_s * traced.speed - e2e["run_s"]
                layers = spans.layer_metrics(span_list, overhead)
                n_steps = int(layers["solver.step.count"])
                trace_note = (f"solver.step.tail_ms is p{spans.tail_percentile(n_steps)} "
                              f"of n={n_steps} steps")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in session.samples if s.problems)
    table = spans.PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}

    prov = provenance(args.seed)
    record = {
        "workload": args.workload, "why": inputs.workload.why, "provenance": prov,
        "source_face": inputs.source, "probes": inputs.probes,
        "samples": [vars(s) for s in session.samples],
        "end_to_end": e2e, "per_layer": layers, "trace_note": trace_note,
    }
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    n_runs = sum(1 for s in session.samples if s.kind == "run")
    print(f"workload {args.workload}: {inputs.workload.why}")
    print("provenance " + json.dumps(prov))
    print(f"{n_runs} timed runs, each after a set-up run; medians over passing pairs "
          f"of times at nominal speed (calibration {CAL_NOMINAL_S} s)")
    for name, unit, _ in table:
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    if trace_note:
        print(f"  ({trace_note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(session.samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
