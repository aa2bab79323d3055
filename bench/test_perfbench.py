"""Tests of the benchmark's own machinery: generator, span self times, gate,
speed calibration and the child launcher."""

import json
import os
import resource
import sys

import pytest

import gate
import run
import spans
from launch import Launcher

sys.path[:0] = [run.SRC, run.TOOLS]
import workloads  # noqa: E402
from decem import bundled, cli, mesh  # noqa: E402


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_generator_is_deterministic_per_seed_and_varies_across_seeds(tmp_path):
    a = workloads.generate("sphere_long", 7, str(tmp_path / "a"))
    b = workloads.generate("sphere_long", 7, str(tmp_path / "b"))
    for name in ("run.cfg", "setup.cfg", "icosphere_3.obj"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)
    assert (a.source, a.probes) == (b.source, b.probes)

    cfgs = set()
    for seed in range(6):
        inputs = workloads.generate("sphere_long", seed, str(tmp_path / f"s{seed}"))
        cfgs.add(_read(inputs.cfg))
    assert len(cfgs) > 1


def test_generated_sphere_matches_the_bundled_mesh():
    v, f = workloads.build_mesh("icosphere", 3)
    bundled_surface = bundled.bundled_surface("icosphere_3.obj")
    assert (f == bundled_surface.faces).all()
    assert (v == bundled_surface.vertices).all()


def test_self_time_subtracts_children_on_a_hand_built_tree():
    tree = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "a.x", "start": 1.5, "end": 2.0, "parent": 1},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0},
        {"name": "b", "start": 7.0, "end": 9.5, "parent": 0},
    ]
    assert spans.self_times(tree) == pytest.approx([3.5, 2.5, 0.5, 1.0, 2.5])


def test_layer_metrics_report_every_per_layer_name():
    tree = [
        {"name": "import", "start": 0.0, "end": 0.3, "parent": None},
        {"name": "cli.run_simulation", "start": 1.0, "end": 5.0, "parent": None},
        {"name": "solver.assemble", "start": 1.0, "end": 1.5, "parent": 1,
         "unknowns": 4, "nnz": 10, "spmv_bytes": 200},
        {"name": "dec.build_hodge_stars", "start": 1.1, "end": 1.2, "parent": 2},
    ] + [
        {"name": "solver.step", "start": 2.0 + 0.1 * i, "end": 2.05 + 0.1 * i, "parent": 1}
        for i in range(20)
    ]
    m = spans.layer_metrics(tree, overhead_s=0.01)
    assert list(m) == [name for name, _, _ in spans.PER_LAYER]
    assert m["solver.assemble.s"] == pytest.approx(0.4)
    assert m["solver.step.count"] == 20
    assert m["solver.step.p50_ms"] == pytest.approx(50.0)
    assert m["cli.run_simulation.self_s"] == pytest.approx(4.0 - 0.5 - 20 * 0.05)
    assert spans.tail_percentile(20) == 50 and spans.tail_percentile(1000) == 99


def test_end_to_end_rescales_times_by_the_neighbouring_calibrations():
    nominal = run.CAL_NOMINAL_S
    w = workloads.WORKLOADS["sphere_pulse"]

    def sample(kind, wall, cal, problems=()):
        return run.Sample(kind, 0, wall, wall, 90.0, list(problems), cal)

    samples = [
        sample("setup", 1.0, nominal), sample("run", 3.0, nominal),
        # a pair at half speed: its calibration took twice as long too
        sample("setup", 2.0, 2 * nominal), sample("run", 6.0, 2 * nominal),
        sample("setup", 1.0, nominal), sample("run", 3.0, nominal),
        # a failed pair is left out
        sample("setup", 9.0, nominal), sample("run", 9.0, nominal, ["bad"]),
    ]
    e2e = run.end_to_end(workloads.Inputs(w, *[None] * 11), samples)
    assert e2e["run_s"] == pytest.approx(3.0) and e2e["cpu_s"] == pytest.approx(3.0)
    assert e2e["setup_s"] == pytest.approx(1.0)
    assert e2e["sim_steps_per_s"] == pytest.approx(w.steps / 2.0)
    assert run.calibrate() > 0


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    # a child forked from this process would report at least this process's peak
    own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with Launcher() as launcher:
        code, wall, cpu, rss = launcher.run(
            [sys.executable, "-c", "pass"], str(tmp_path), dict(os.environ),
            str(tmp_path / "log"), 60.0)
        code2 = launcher.run([sys.executable, "-c", "raise SystemExit(3)"], str(tmp_path),
                             dict(os.environ), str(tmp_path / "log"), 60.0)[0]
    assert launcher.proc.returncode == 0
    assert (code, code2) == (0, 3) and wall > 0 and cpu >= 0
    assert 0 < rss < min(own_peak_mb, 40.0)


@pytest.fixture
def tiny_run(tmp_path):
    """A real small ``decem run`` and the Inputs the gate needs for it."""
    w = workloads.Workload(
        name="tiny", why="", mesh=("icosphere", 1), mode="TE", target="jm",
        dt=("abs", 0.1), steps=20, cadence=5, pulse=(3.0, 1.0), solver="direct",
    )
    surface = bundled.bundled_surface("icosphere_1.obj")
    metrics = mesh.compute_dual_metrics(surface)
    source, edge = 7, int(surface.face_edges[7, 1])
    probes = {"face": ("h", source), "edge": ("e", edge)}
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(workloads._cfg_text(
        w, bundled.bundled_path("icosphere_1.obj"), 0.1, source, probes, w.steps,
        workloads.FORMATS))
    outdir = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--quiet", "--output-dir", outdir]) == 0
    inputs = workloads.Inputs(
        workload=w, cfg=str(cfg), setup_cfg="", source=source,
        source_edges=[], probes=probes, reference=None, probe_atol=1e-12,
        decay_time=0.8, abs_d0t=abs(surface.d0_real).T.tocsr(),
        star1=metrics.dual_edge_len / metrics.edge_len, edge_quantity="e",
    )
    inputs.reference = gate.final_probe_values(outdir, w.steps)
    return outdir, inputs


def test_gate_accepts_a_good_run(tiny_run):
    outdir, inputs = tiny_run
    assert gate.check_outputs(outdir, inputs) == []


def test_gate_rejects_a_truncated_manifest(tiny_run):
    outdir, inputs = tiny_run
    path = os.path.join(outdir, "manifest.txt")
    text = _read(path)
    with open(path, "wb") as fh:
        fh.write(text[: text.index(b"last_completed_step")])
    assert gate.check_outputs(outdir, inputs)


def test_gate_rejects_an_incomplete_manifest(tiny_run):
    outdir, inputs = tiny_run
    path = os.path.join(outdir, "manifest.txt")
    text = _read(path).replace(b"status = complete", b"status = incomplete")
    with open(path, "wb") as fh:
        fh.write(text)
    assert any("status" in p for p in gate.check_outputs(outdir, inputs))


def test_gate_rejects_a_nan_energy(tiny_run):
    outdir, inputs = tiny_run
    path = os.path.join(outdir, "run_log.csv")
    lines = _read(path).decode().splitlines()
    fields = lines[2].split(",")
    fields[2] = "nan"
    lines[2] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("non-finite" in p for p in gate.check_outputs(outdir, inputs))


def test_gate_rejects_energy_growth_after_the_pulse(tiny_run):
    outdir, inputs = tiny_run
    path = os.path.join(outdir, "run_log.csv")
    lines = _read(path).decode().splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) * 10.0)
    lines[-1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("energy grew" in p for p in gate.check_outputs(outdir, inputs))


def test_gate_rejects_a_probe_off_its_reference(tiny_run):
    outdir, inputs = tiny_run
    ref = inputs.reference["face"]
    inputs.reference["face"] = ref + 1e3 * inputs.probe_atol
    problems = gate.check_outputs(outdir, inputs)
    assert len(problems) == 1 and "probe face" in problems[0]


def test_gate_rejects_a_gauss_violation(tiny_run):
    outdir, inputs = tiny_run
    path = os.path.join(outdir, "run_log.csv")
    lines = _read(path).decode().splitlines()
    fields = lines[-1].split(",")
    fields[3] = "1e-3"
    lines[-1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("Gauss" in p for p in gate.check_outputs(outdir, inputs))
