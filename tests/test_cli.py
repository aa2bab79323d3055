import dataclasses
import gc
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import decem
from decem import analysis, bundled, cli, config, mesh, output, solver


def write_cfg(path, **overrides):
    base = {
        "mesh_path": "icosphere_1.obj",
        "mode": "TE",
        "dt": "0.05",
        "steps": "12",
        "material.eps": "1.0",
        "material.mu": "1.0",
        "source.kind": "gaussian_pulse",
        "source.target": "jm",
        "source.amplitude": "1.0",
        "source.t0": "0.2",
        "source.width": "0.08",
        "source.support": "0",
        "probe.p0.quantity": "h",
        "probe.p0.index": "0",
        "output.cadence": "4",
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# overrides that drop write_cfg's source and probe, which decem stability
# and decem convergence refuse
UNDRIVEN = {"source.kind": None, "probe.p0.quantity": None, "probe.p0.index": None}
# and that turn its config into one decem convergence runs: the TM cavity
CAVITY = {**UNDRIVEN, "mesh_path": "cavity_1.obj", "mode": "TM"}


def test_config_parsing_roundtrip(tmp_path):
    cfg = config.load_config(write_cfg(tmp_path / "a.cfg"))
    assert cfg.mode == "TE"
    assert cfg.dt == 0.05
    assert cfg.source.kind == "gaussian_pulse"
    assert cfg.probes[0].name == "p0"
    assert os.path.exists(cfg.mesh_path)


def test_config_unknown_key(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", **{"solver.tol": "1"})
    with pytest.raises(config.ConfigError, match="unknown config keys"):
        config.load_config(path)


def test_config_requires_mesh(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("dt = 0.1\nsteps = 1\n")
    with pytest.raises(config.ConfigError, match="mesh_path is required"):
        config.load_config(str(p))


def test_config_duplicate_key(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("mesh_path = x.obj\nmesh_path = y.obj\n")
    with pytest.raises(config.ConfigError, match="duplicate"):
        config.load_config(str(p))


def test_config_bad_values(tmp_path):
    with pytest.raises(config.ConfigError, match="dt must be positive"):
        config.load_config(write_cfg(tmp_path / "a.cfg", dt="0"))
    # values that do not convert name their key, and source errors are
    # config errors too
    cases = [
        ({"dt": "abc"}, "dt: expected float, got 'abc'"),
        ({"steps": "1.5"}, "steps: expected int, got '1.5'"),
        ({"probe.p0.index": "x"}, "probe.p0.index: expected int, got 'x'"),
        ({"output.cadence": "two"}, "output.cadence: expected int, got 'two'"),
        ({"material.eps": "?"}, "material.eps: expected float"),
        ({"region.r.faces": "0", "region.r.mu": "hot"},
         "region.r.mu: expected float, got 'hot'"),
        ({"source.amplitude": "big"}, "source.amplitude: expected float"),
        ({"source.kind": "foo"}, "unknown source kind 'foo'"),
        ({"source.target": "jx"}, "source target must be je or jm"),
        ({"source.width": "0"}, "source width must be positive"),
        ({"source.width": "-1"}, "source width must be positive"),
        ({"source.support": "3,7,3"}, "source.support lists index 3 more than once"),
        ({"output.formats": "vtk,png"}, "output.formats: unknown output format 'png'"),
        # a comma would split the probe's name into two fields of probes.csv
        ({"probe.p0.quantity": None, "probe.p0.index": None, "probe.a,b.quantity": "h",
          "probe.a,b.index": "7"}, "probe.a,b: a probe name cannot hold ','"),
        # non-finite and out-of-range numbers name their key before any compute
        ({"dt": "nan"}, "dt: expected a finite number, got 'nan'"),
        ({"dt": "inf"}, "dt: expected a finite number, got 'inf'"),
        ({"material.eps": "nan"}, "material.eps: expected a finite number"),
        ({"material.mu": "inf"}, "material.mu: expected a finite number"),
        ({"material.eps": "0"}, "material.eps must be positive"),
        ({"material.sigma": "-1"}, "material.sigma must be nonnegative"),
        ({"region.r.faces": "0", "region.r.sigma": "nan"},
         "region.r.sigma: expected a finite number"),
        ({"region.r.faces": "0", "region.r.mu": "-2"}, "region.r.mu must be positive"),
        ({"source.width": "nan"}, "source.width: expected a finite number"),
        ({"source.amplitude": "-inf"}, "source.amplitude: expected a finite number"),
        ({"source.t0": "nan"}, "source.t0: expected a finite number"),
        ({"solver.tolerance": "-1"}, "solver.tolerance must be positive"),
        ({"solver.tolerance": "nan"}, "solver.tolerance: expected a finite number"),
        # the solver's own cap is the key left out: 0 is not a second spelling
        ({"solver.max_iters": "-3"}, "solver.max_iters must be at least 1"),
        ({"solver.max_iters": "0"}, "solver.max_iters must be at least 1"),
    ]
    for i, (overrides, message) in enumerate(cases):
        with pytest.raises(config.ConfigError, match=re.escape(message)):
            config.load_config(write_cfg(tmp_path / f"d{i}.cfg", **overrides))


@pytest.mark.parametrize("lines,message", [
    ["nonsense", "c.cfg:3: expected 'key = value'"],
    ["= 5", "c.cfg:3: empty key"],
    ["source.support = 1,x", "source.support: expected comma-separated integers, got '1,x'"],
    ["mode = xy", "mode must be TE or TM, got 'XY'"],
    ["region.a.eps = 2", "region.a: missing region.a.faces"],
    ["region.a.faces = 0\nregion.a.foo = 1", "region.a.foo: unknown material quantity"],
    ["probe.p.quantity = x\nprobe.p.index = 0", "probe.p.quantity must be e or h"],
    ["probe.p.quantity = e", "probe.p: missing probe.p.index"],
], ids=["no-equals", "empty-key", "support", "mode", "region-faces", "region-quantity",
        "probe-quantity", "probe-index"])
def test_config_refusals(lines, message, tmp_path):
    """Each malformed line or missing part is one ``ConfigError`` whose text
    names it; a line error gives the file and the line number."""
    path = tmp_path / "c.cfg"
    path.write_text(f"mesh_path = icosphere_1.obj\ndt = 0.1\n{lines}\n")
    with pytest.raises(config.ConfigError) as err:
        config.load_config(str(path))
    assert str(err.value) == message.replace("c.cfg", str(path))


def test_config_key_table(tmp_path):
    # a key left out keeps the RunConfig (or SourceSpec) field default
    p = tmp_path / "a.cfg"
    p.write_text("mesh_path = icosphere_1.obj\ndt = 0.1\n")
    cfg = config.load_config(str(p))
    assert repr(cfg) == repr(config.RunConfig(mesh_path=cfg.mesh_path, dt=0.1))
    # every table entry names a field of the dataclass it sets
    for key, (owner, name, _) in config._KEYS.items():
        assert name in {f.name for f in dataclasses.fields(owner)}, key
    # a cap left out is the solver's own; a given one is kept as given
    assert cfg.max_iters is None
    cfg = config.load_config(write_cfg(tmp_path / "c.cfg", **{"solver.max_iters": "1"}))
    assert cfg.max_iters == 1
    # the table holds the run's keys only: no command has keys of its own
    assert len(config._KEYS) == 20
    assert not [key for key in config._KEYS if key.startswith(("stability.", "convergence."))]
    # the removed initial-state knob, magnetic-current sign, indefinite
    # opt-in, stability k grid and dt factors, and convergence time, step,
    # levels and mode numbers (now steps * dt, dt, 3 and the (1, 1) mode)
    # are unknown keys
    for i, (key, value) in enumerate((("flags.initial_constraint", "warn"),
                                      ("flags.jm_sign", "-1"),
                                      ("flags.allow_indefinite", "true"),
                                      ("stability.k_samples", "64"),
                                      ("stability.dt_factors", "1e-3,1,1e3"),
                                      ("convergence.time", "1.28"),
                                      ("convergence.dt0", "0.016"),
                                      ("convergence.levels", "3"),
                                      ("convergence.m", "1"),
                                      ("convergence.n", "1"))):
        with pytest.raises(config.ConfigError, match="unknown config keys"):
            config.load_config(write_cfg(tmp_path / f"b{i}.cfg", **{key: value}))


def test_readme_config_block_names_every_key(tmp_path):
    """README's "Configuration format" block loads as a config and names
    every key of the key table, so the docs and the table stay in step."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Configuration format", 1)[1]
    block = section.split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    config.load_config(str(path))
    assert set(config._KEYS) <= set(config.parse_kv_file(str(path)))


def test_removed_second_spellings(tmp_path, icosphere1, icosphere1_metrics):
    """Each setting has one spelling: the solver's CLI flag, the magnetic
    current's sign, the indefinite opt-in and the unread vacuum constants
    of a material are gone."""
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(tmp_path / "out")})
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--quiet", "--direct-solver"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    mats = solver.MaterialParams.uniform("TE", icosphere1, eps=1.0, mu=1.0)
    with pytest.raises(TypeError, match="jm_sign"):
        solver.assemble(icosphere1, icosphere1_metrics, mats, 0.1, jm_sign=-1.0)
    with pytest.raises(TypeError, match="allow_indefinite"):
        solver.assemble(icosphere1, icosphere1_metrics, mats, 0.1, allow_indefinite=True)
    with pytest.raises(TypeError, match="eps0"):
        solver.MaterialParams("TE", mats.eps, mats.mu, mats.sigma, mats.sigma_m, eps0=1.0)


def test_range_rules_fail_before_output(tmp_path, capsys):
    for i, (command, overrides, message) in enumerate((
            ("run", {"solver.max_iters": "0"}, "solver.max_iters must be at least 1"),
            ("stability", {**UNDRIVEN, "solver.max_iters": "0"},
             "solver.max_iters must be at least 1"),
            # no steps would fit an order through errors of zero
            ("convergence", {**CAVITY, "steps": "0"},
             "the convergence time (steps * dt) must be positive, got 0.0"))):
        out = tmp_path / f"{command}{i}"
        path = write_cfg(tmp_path / f"{command}{i}.cfg", **overrides)
        assert cli.main([command, path, "--output-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("cadence", ["4", "12"])
def test_run_attaches_nothing_to_the_surface(tmp_path, monkeypatch, cadence):
    """A run that writes VTK and CSV snapshots leaves its surface holding
    its dataclass fields and nothing else: no cache is attached to it."""
    loaded = []

    def load(path):
        loaded.append(mesh.load_obj(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_obj", load)
    cfg = config.load_config(write_cfg(tmp_path / "a.cfg", **{
        "output.cadence": cadence, "output.formats": "vtk,csv",
        "output.directory": str(tmp_path / "out")}))
    cli.run_simulation(cfg, echo=None)
    (surface,) = loaded
    assert len(list((tmp_path / "out").glob("*.vtk"))) == 1 + 12 // int(cadence)
    assert vars(surface).keys() == {f.name for f in dataclasses.fields(surface)}


def test_run_simulation_initial_state(tmp_path, monkeypatch):
    cfg = config.load_config(write_cfg(tmp_path / "a.cfg", steps="4"))
    surface = bundled.bundled_surface("icosphere_1.obj")
    metrics = mesh.compute_dual_metrics(surface)
    star1 = metrics.dual_edge_len / metrics.edge_len
    rng = np.random.default_rng(7)

    # e = d1^T psi / star1 has star1 e = d1^T psi, so d0^T star1 e = 0: it
    # satisfies the vertex Gauss law, runs, and is the step-0 snapshot
    cfg.output_dir = str(tmp_path / "good")
    e = (surface.d1.T @ rng.normal(size=surface.n_faces)) / star1
    state = cli.run_simulation(cfg, initial=solver.initial_state("TE", surface, e=e), echo=None)
    assert state.n == 4
    rows = (tmp_path / "good" / "snapshot_000000.csv").read_text().splitlines()
    assert [float(r.split(",")[2]) for r in rows if r.startswith("e,")] == e.tolist()

    # a random edge field violates it: the run aborts before any output
    cfg.output_dir = str(tmp_path / "bad")
    bad = solver.initial_state("TE", surface, e=rng.normal(size=surface.n_edges))
    with pytest.raises(solver.SolverError, match="divergence constraint"):
        cli.run_simulation(cfg, initial=bad, echo=None)
    assert not (tmp_path / "bad").exists()

    # a state of the other mode is refused, naming both, before any compute
    cfg.output_dir = str(tmp_path / "tm")
    other = solver.initial_state("TM", surface)
    with pytest.raises(config.ConfigError, match="initial state is TM but the run is TE"):
        cli.run_simulation(cfg, initial=other, echo=None)
    assert not (tmp_path / "tm").exists()

    # a run from a saved state advances cfg.steps more steps and writes its
    # last one; its first manifest names the saved state's step
    cfg.output_dir, cfg.steps, cfg.cadence = str(tmp_path / "first"), 12, 5
    saved = cli.run_simulation(cfg, echo=None)
    assert saved.n == 12
    assert "first_step = 0" in (tmp_path / "first" / "manifest.txt").read_text().splitlines()
    manifests = []
    write_manifest = output.write_manifest

    def record(path, entries):
        assert entries["first_step"] == 12
        manifests.append((entries["status"], entries["last_completed_step"]))
        write_manifest(path, entries)

    monkeypatch.setattr(output, "write_manifest", record)
    cfg.output_dir = str(tmp_path / "resumed")
    assert cli.run_simulation(cfg, initial=saved, echo=None).n == 24
    resumed = tmp_path / "resumed"
    assert sorted(p.name for p in resumed.glob("snapshot_*.csv")) == [
        f"snapshot_{n:06d}.csv" for n in (12, 15, 20, 24)]
    log = np.loadtxt(resumed / "run_log.csv", delimiter=",", skiprows=1, ndmin=2)
    assert log[:, 0].tolist() == [12, 15, 20, 24]
    assert manifests == [("incomplete", 12), ("incomplete", 15), ("incomplete", 20),
                         ("incomplete", 24), ("complete", 24)]


def test_config_region_materials(tmp_path):
    path = write_cfg(
        tmp_path / "a.cfg",
        # the four children of one subdivided face: the middle child shares
        # all three of its edges inside the region
        **{"region.hot.faces": "0,1,2,3", "region.hot.eps": "4.0"},
    )
    cfg = config.load_config(path)
    surface = bundled.bundled_surface("icosphere_1.obj")
    mats = cfg.materials(surface)
    # edges entirely inside the region average to 4, far edges stay at 1,
    # interface edges take the two-face mean
    assert mats.eps.max() == pytest.approx(4.0)
    assert mats.eps.min() == pytest.approx(1.0)
    assert 2.5 in np.round(mats.eps, 12)


def test_check_mesh_pass(capsys):
    rc = cli.main(["check-mesh", bundled.bundled_path("icosphere_1.obj")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: PASS" in out


def test_check_mesh_fail_zero_dual(tmp_path, capsys):
    p = tmp_path / "diag.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 3 4\n"
    )
    rc = cli.main(["check-mesh", str(p)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_mesh_acute_strip_passes(tmp_path, capsys):
    # two acute triangles over a rectangle strip
    p = tmp_path / "strip.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0.5 0.866 0\nv 1.5 0.866 0\nf 1 2 3\nf 3 2 4\n"
    )
    rc = cli.main(["check-mesh", str(p)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_mesh_passes_exactly_on_positive_dual_edges(
        tmp_path, capsys, delaunay_square, jittered_cavity):
    """The Delaunay square passes although some of its faces are not
    well-centered; the jittered cavity fails, naming its first negative dual
    edge."""
    rc = cli.main(["check-mesh", str(write_obj(tmp_path / "square.obj", delaunay_square))])
    out = capsys.readouterr().out
    assert rc == 0 and out.endswith("status: PASS\n")
    assert int(re.search(r"non_well_centered_faces=(\d+)", out).group(1)) > 0

    rc = cli.main(["check-mesh", str(write_obj(tmp_path / "jittered.obj", jittered_cavity))])
    edge = np.argmax(mesh.compute_dual_metrics(jittered_cavity).dual_edge_len <= 0)
    assert rc == 1
    assert capsys.readouterr().out.endswith(
        f"status: FAIL (nonpositive dual edge length at edge {edge})\n")


def test_check_mesh_load_error(tmp_path, capsys):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    rc = cli.main(["check-mesh", str(p)])
    assert rc == 2
    assert "non-triangular" in capsys.readouterr().err


def test_check_mesh_malformed_number(tmp_path, capsys):
    for name, text in (("coordinate", "v 0 0 0\nv 1 0 zero\nv 0 1 0\nf 1 2 3\n"),
                       ("index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 three\n")):
        p = tmp_path / f"{name}.obj"
        p.write_text(text)
        assert cli.main(["check-mesh", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_run_zero_steps_writes_initial_snapshot(tmp_path, capsys):
    path = write_cfg(tmp_path / "a.cfg", steps="0",
                     **{"output.directory": str(tmp_path / "out")})
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert "snapshot_000000.vtk" in names
    assert "snapshot_000000.csv" in names
    assert not any(n.startswith("snapshot_000001") for n in names)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "status = complete" in manifest
    assert "last_completed_step = 0" in manifest


def test_run_invalid_probe_index_fails_before_compute(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "probe.p0.index": "99999", "output.directory": str(out)})
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()  # validation error before any compute


def test_run_nonfinite_value_fails_before_compute(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "material.mu": "inf", "output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 2
    assert "material.mu: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_run_repeated_support_index_fails_before_compute(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "source.support": "3,7,3", "output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 2
    assert "source.support lists index 3" in capsys.readouterr().err
    assert not out.exists()


def test_run_invalid_source_index(tmp_path, capsys):
    path = write_cfg(tmp_path / "a.cfg", **{"source.support": "123456"})
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_run_produces_finite_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out)})
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 0
    manifest = (out / "manifest.txt").read_text()
    assert "status = complete" in manifest
    assert "last_completed_step = 12" in manifest
    probes = (out / "probes.csv").read_text().splitlines()
    assert probes[3] == "step,t,probe,quantity,index,value"
    assert len([l for l in probes if l and not l.startswith("#")]) == 1 + 13
    for name in os.listdir(out):
        if name.endswith(".csv"):
            body = (out / name).read_text()
            assert "nan" not in body and "inf" not in body


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_run_log_energy_and_gauss(mode, tmp_path):
    """The vertex law's column holds its residual; the column of the law
    without carriers on a surface (magnetic in TE, electric in TM) reads
    exactly 0.0 on every row."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", mode=mode, **{"output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 0
    lines = (out / "run_log.csv").read_text().splitlines()
    assert lines[0] == "step,t,energy,max_gauss_electric,max_gauss_magnetic"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0", "4", "8", "12"]
    energies = np.array([float(r[2]) for r in rows])
    assert (energies >= 0).all() and np.isfinite(energies).all()
    vertex_law, no_carriers = (3, 4) if mode == "TE" else (4, 3)
    assert all(r[no_carriers] == "0.0" for r in rows)
    assert np.isfinite([float(r[vertex_law]) for r in rows]).all()


def test_vtk_snapshot_structure(tmp_path, read_vtk):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", steps="4",
                     **{"output.directory": str(out), "output.cadence": "4"})
    assert cli.main(["run", path, "--quiet"]) == 0
    vtk = out / "snapshot_000004.vtk"
    assert vtk.read_bytes().split(b"\n")[2] == b"BINARY"
    arrays = read_vtk(str(vtk))   # the keywords in order, each array's bytes exactly
    assert {name: a.shape for name, a in arrays.items()} == {
        "points": (42, 3), "cells": (80, 4), "cell_types": (80,), "h": (80,),
        "e_vec": (80, 3)}
    assert np.isfinite(arrays["h"]).all() and np.abs(arrays["e_vec"]).max() > 0


def test_run_determinism(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    p1 = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out1)})
    p2 = write_cfg(tmp_path / "b.cfg", **{"output.directory": str(out2)})
    assert cli.main(["run", p1, "--quiet"]) == 0
    assert cli.main(["run", p2, "--quiet"]) == 0
    for name in sorted(os.listdir(out1)):
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_direct_solver_flag(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "output.directory": str(out), "solver.kind": "direct"})
    assert cli.main(["run", path, "--quiet"]) == 0
    assert "solver = direct" in (out / "manifest.txt").read_text()


def test_default_run_uses_direct_solver(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 0
    assert "solver = direct" in (out / "manifest.txt").read_text().splitlines()


def test_stability_command(tmp_path, capsys):
    """Two rows per dt, the lowest and highest mode, and two runs write the
    same bytes."""
    outputs = []
    for run in ("stab1", "stab2"):
        rc = cli.main([
            "stability", bundled.bundled_path("stability_sphere.cfg"),
            "--output-dir", str(tmp_path / run),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max |xi|" in out
        outputs.append([(tmp_path / run / name).read_bytes()
                        for name in ("growth.csv", "summary.txt")])
    assert outputs[0] == outputs[1]
    growth = outputs[0][0].decode().splitlines()
    assert growth[0] == "mode,lambda,M,xi_mod,dt"
    assert [line.split(",")[0] for line in growth[1:]] == ["lowest", "highest"] * 3
    assert outputs[0][1].decode() == out


def test_stability_sweeps_multiples_of_the_run_dt(tmp_path, capsys):
    """growth.csv's dt column is dt/1000, dt and 1000 dt for the config's
    dt, exactly, so the middle one is the step that ``decem run`` takes."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{**UNDRIVEN, "output.directory": str(out)})
    assert cli.main(["stability", path]) == 0
    rows = (out / "growth.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[-1]) for row in rows] == [
        f * 0.05 for f in (1e-3, 1.0, 1e3) for _ in ("lowest", "highest")]


@pytest.mark.parametrize("overrides,named", [
    ({"probe.p0.quantity": None, "probe.p0.index": None, "source.support": "99999"},
     "source.kind = gaussian_pulse"),
    ({"source.kind": None, "probe.p0.index": "99999"}, "probe.p0"),
    ({"source.support": "99999", "probe.p0.index": "99999"},
     "source.kind = gaussian_pulse, probe.p0"),
], ids=["source", "probe", "both"])
def test_stability_refuses_settings_it_cannot_run(overrides, named, tmp_path, capsys):
    """The analysis steps no source and records no probes, so a source or a
    probe it would ignore, here with indices that no run would take, is one
    error, naming each setting, before any output."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out), **overrides})
    assert cli.main(["stability", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: decem stability analyses the source-free operator")
    assert err.rstrip().endswith(f"it cannot take {named}")
    assert not out.exists()


@pytest.mark.parametrize("ratio,code", [(-1e-13, 0), (-1e-11, 2)])
def test_stability_refuses_a_negative_lowest_eigenvalue(ratio, code, tmp_path, capsys,
                                                        monkeypatch):
    """A lambda_min within 1e-12 lambda_max below zero is the static mode's
    roundoff and is written as 0.0; a lower one is an indefinite operator
    that ``assemble`` should have refused, so the command exits 2 and
    writes no growth.csv."""
    eigsh, lam_max = analysis.spla.eigsh, []

    def shifted(C, k, **kwargs):
        if "sigma" in kwargs:   # the lowest mode, found second
            return np.array([ratio * lam_max[0]])
        found = eigsh(C, k, **kwargs)
        lam_max.append(found[0][0])
        return found

    monkeypatch.setattr(analysis.spla, "eigsh", shifted)
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{**UNDRIVEN, "output.directory": str(out)})
    assert cli.main(["stability", path]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: indefinite operator: lambda_min ")
        assert not (out / "growth.csv").exists()
    else:
        rows = (out / "growth.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows[::2]} == {"0.0"}


def test_convergence_command_quick(tmp_path, capsys):
    """Three levels, each run at its dt, and the two coarser dts again on
    the finest mesh."""
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(
        "mesh_path = cavity_1.obj\nmode = TM\ndt = 0.016\nsteps = 80\n"
        "material.eps = 1.0\nmaterial.mu = 1.0\nsolver.kind = direct\n"
    )
    rc = cli.main(["convergence", str(cfg), "--output-dir", str(tmp_path / "conv")])
    assert rc == 0
    assert "observed order" in capsys.readouterr().out
    table = (tmp_path / "conv" / "errors.csv").read_text().splitlines()
    assert table[0] == "study,h,dt,error"
    assert len(table) == 1 + 3 + 3


@pytest.mark.parametrize("overrides,named", [
    ({"mode": "TE"}, "mode = TE"),
    ({"material.sigma": "0.3"}, "material.sigma = 0.3"),
    ({"material.sigma_m": "0.2"}, "material.sigma_m = 0.2"),
    ({"region.lens.faces": "3,4", "region.lens.eps": "2.5"}, "region.lens"),
    ({"source.kind": "gaussian_pulse", "source.support": "5"}, "source.kind = gaussian_pulse"),
    ({"probe.p.quantity": "e", "probe.p.index": "99999"}, "probe.p"),
], ids=["mode", "sigma", "sigma_m", "region", "source", "probe"])
def test_convergence_refuses_settings_it_cannot_run(overrides, named, tmp_path, capsys):
    """The study always runs the source-free lossless TM cavity with uniform
    eps and mu and no probes, so a mode, conduction, region, source or probe
    it would ignore is one error, naming the setting, before any output."""
    out = tmp_path / "conv"
    path = write_cfg(tmp_path / "conv.cfg", **{
        **CAVITY, "output.directory": str(out), **overrides})
    assert cli.main(["convergence", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: decem convergence runs the lossless TM cavity")
    assert err.rstrip().endswith(f"it cannot take {named}")
    assert not out.exists()


def test_convergence_passes_the_cg_cap(tmp_path, capsys):
    """solver.max_iters reaches every cavity run: one CG iteration cannot
    converge, so the command exits 2 before any output exists."""
    out = tmp_path / "conv"
    path = write_cfg(tmp_path / "conv.cfg", **{
        **CAVITY, "solver.kind": "cg", "solver.max_iters": "1", "output.directory": str(out)})
    assert cli.main(["convergence", path]) == 2
    assert "iterative solve failed to converge in 1 iterations" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_refines_the_configured_mesh(tmp_path, capsys):
    """Level 0 is mesh_path itself: a sphere is refused before any output,
    and cavity_2 runs the levels cavity_2, cavity_3 and cavity_3 refined."""
    out = tmp_path / "sphere"
    path = write_cfg(tmp_path / "sphere.cfg", **{
        **CAVITY, "mesh_path": "icosphere_1.obj", "output.directory": str(out)})
    assert cli.main(["convergence", path]) == 2
    assert "the cavity mode needs the unit square" in capsys.readouterr().err
    assert not out.exists()

    out = tmp_path / "cavity_2"
    path = write_cfg(tmp_path / "cavity_2.cfg", **{
        **CAVITY, "mesh_path": "cavity_2.obj", "dt": "0.016", "steps": "2",
        "output.directory": str(out)})
    assert cli.main(["convergence", path]) == 0
    rows = (out / "errors.csv").read_text().splitlines()[1:4]
    cavity_3 = bundled.bundled_surface("cavity_3.obj")
    levels = [bundled.bundled_surface("cavity_2.obj"), cavity_3,
              mesh.from_arrays(*mesh.subdivide(cavity_3.vertices, cavity_3.faces, False))]
    h = [float(mesh.compute_dual_metrics(s).edge_len.max()) for s in levels]
    assert [row.split(",")[:3] for row in rows] == [
        ["joint", repr(h[0]), "0.016"], ["joint", repr(h[1]), "0.008"],
        ["joint", repr(h[2]), "0.004"]]


def test_convergence_direct_matches_cg_orders(tmp_path, capsys):
    bundled_cfg = bundled.bundled_path("cavity_convergence.cfg")  # 3 levels, 2048 faces
    orders = {}
    for kind in ("cg", "direct"):
        cfg = tmp_path / f"cavity_convergence_{kind}.cfg"  # mesh_path falls back to bundled
        with open(bundled_cfg) as fh:
            cfg.write_text(fh.read() + f"solver.kind = {kind}\n")
        rc = cli.main(["convergence", str(cfg), "--output-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        orders[kind] = [l for l in out.splitlines() if "observed order" in l]
    assert orders["cg"] == orders["direct"]
    assert orders["cg"][-1].strip() == "observed order: 0.954"


def test_run_failure_marks_manifest_failed(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "output.directory": str(out), "solver.kind": "cg",
        "solver.max_iters": "1", "solver.tolerance": "1e-14"})
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 2
    assert "failed to converge" in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = failed" in manifest
    assert "last_completed_step = 0" in manifest
    errors = [l for l in manifest if l.startswith("error = ")]
    assert len(errors) == 1 and "failed to converge" in errors[0]


def write_obj(path, surface):
    path.write_text(
        "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in surface.vertices.tolist())
        + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in surface.faces))
    return path


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_indefinite_system_fails_in_set_up(mode, tmp_path, capsys, jittered_cavity):
    """A mesh with a negative interior dual edge makes an indefinite system:
    the run exits 2 in set-up, naming the first nonpositive active edge and
    ``decem check-mesh`` and creating no output directory, and an existing
    one ends with a failed manifest.  The removed opt-in key fails as an
    unknown key, also before any output exists."""
    obj = write_obj(tmp_path / "jittered.obj", jittered_cavity)
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", mode=mode, **{
        "mesh_path": str(obj), "output.directory": str(out)})
    nonpositive = mesh.compute_dual_metrics(jittered_cavity).dual_edge_len <= 0
    if mode == "TE":   # PEC: boundary edges are not active
        nonpositive &= ~jittered_cavity.boundary
    message = f"indefinite system: nonpositive dual edge length at edge {np.argmax(nonpositive)} "
    argv = ["run", path, "--quiet"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "decem check-mesh" in err
    assert not out.exists()
    opted = write_cfg(tmp_path / "b.cfg", mode=mode, **{
        "mesh_path": str(obj), "output.directory": str(out),
        "flags.allow_indefinite": "true"})
    assert cli.main(["run", opted, "--quiet"]) == 2
    assert "unknown config keys: ['flags.allow_indefinite']" in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = failed" in manifest
    assert "files = " in manifest
    assert any(l.startswith("error = SolverError: " + message) for l in manifest)


def test_convergence_names_the_level_it_refuses(tmp_path, capsys, monkeypatch,
                                                delaunay_squares):
    """The n = 8 Delaunay square has right-angled corner faces, which the
    midpoint refinement splits into rectangles of two children, so the mesh
    refined once has a zero dual edge.  The study refuses it before any run,
    exit 2, with an error that names the level whose edge index it gives,
    and writes no errors.csv."""
    runs = []
    monkeypatch.setattr(analysis, "_run_cavity", lambda *args: runs.append(args))
    obj = write_obj(tmp_path / "square.obj", delaunay_squares[8])
    out = tmp_path / "conv"
    path = write_cfg(tmp_path / "conv.cfg", **{
        **CAVITY, "mesh_path": str(obj), "dt": "0.016", "steps": "80",
        "output.directory": str(out)})
    assert cli.main(["convergence", path]) == 2
    assert re.match(r"error: level 1 of 3 \(the mesh refined once\): "
                    r"zero dual edge at interior edge \d+ ", capsys.readouterr().err)
    assert runs == [] and not out.exists()


def test_convergence_refuses_an_obtuse_face_before_any_run(tmp_path, capsys, monkeypatch):
    """cavity_1 with its interior vertices moved in-plane by up to a quarter
    of the shortest edge has 12 faces that are not well-centred, passes
    check-mesh, and runs.  Midpoint refinement gives each obtuse angle a
    negative dual edge, which ``assemble`` refuses in TM, so the study
    refuses the mesh refined once before any run, naming the level, exit 2,
    and writes no errors.csv."""
    s = bundled.bundled_surface("cavity_1.obj")
    interior = np.ones(s.n_vertices, dtype=bool)
    interior[s.edges[s.boundary]] = False
    v = s.vertices.copy()
    v[interior, :2] += (0.25 * mesh.compute_dual_metrics(s).edge_len.min()
                        * np.random.default_rng(2).uniform(-1, 1, (interior.sum(), 2)))
    s = mesh.from_arrays(v, s.faces)
    assert (~mesh.compute_dual_metrics(s).well_centered).sum() == 12
    assert mesh.mesh_report(s).endswith("PASS")
    runs = []
    monkeypatch.setattr(analysis, "_run_cavity", lambda *args, **kw: runs.append(args))
    out = tmp_path / "conv"
    path = write_cfg(tmp_path / "conv.cfg", **{
        **CAVITY, "mesh_path": write_obj(tmp_path / "obtuse.obj", s), "dt": "0.016",
        "steps": "80", "output.directory": str(out)})
    assert cli.main(["convergence", path]) == 2
    assert capsys.readouterr().err.startswith(
        "error: level 1 of 3 (the mesh refined once): "
        "nonpositive dual edge length at edge 422;")
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("command,overrides,written", [
    ("run", {}, "manifest.txt"),
    ("stability", UNDRIVEN, "growth.csv"),
    ("convergence", {**CAVITY, "dt": "0.016", "steps": "4"}, "errors.csv"),
])
def test_each_config_command_loads_its_config_once(command, overrides, written, tmp_path,
                                                    monkeypatch, capsys):
    """``main`` loads the config of ``run``, ``stability`` and
    ``convergence`` once per call, through ``cli.load_config``, and
    ``--output-dir`` replaces ``output.directory`` for each."""
    loads = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: loads.append(path) or load(path))
    configured, flagged = tmp_path / "configured", tmp_path / "flagged"
    path = write_cfg(tmp_path / "a.cfg", **overrides, **{"output.directory": str(configured)})
    argv = [command, path, *(["--quiet"] if command == "run" else [])]
    assert cli.main([*argv, "--output-dir", str(flagged)]) == 0
    assert loads == [path] and (flagged / written).exists() and not configured.exists()
    assert cli.main(argv) == 0
    assert loads == [path, path]
    assert sorted(os.listdir(configured)) == sorted(os.listdir(flagged))


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_delaunay_square_runs_with_default_flags(mode, tmp_path, delaunay_square):
    """Non-well-centered faces need no option: every dual edge of the
    Delaunay square is positive, so the system is definite and a run with
    default flags completes."""
    assert not mesh.compute_dual_metrics(delaunay_square).all_well_centered
    obj = write_obj(tmp_path / "square.obj", delaunay_square)
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", mode=mode, **{
        "mesh_path": str(obj), "output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = complete" in manifest
    assert "last_completed_step = 12" in manifest
    log = np.loadtxt(out / "run_log.csv", delimiter=",", skiprows=1, ndmin=2)
    assert log[-1, 0] == 12 and np.isfinite(log).all()


def test_stability_refuses_a_nonpositive_dual_edge(tmp_path, capsys, jittered_cavity):
    """A negative active dual edge makes the operator indefinite: in both
    modes the sweep exits 2 with ``assemble``'s error, as a run does, warns
    of no invalid value, and writes no growth.csv."""
    obj = write_obj(tmp_path / "jittered.obj", jittered_cavity)
    out = tmp_path / "out"
    nonpositive = mesh.compute_dual_metrics(jittered_cavity).dual_edge_len <= 0
    for mode in ("TE", "TM"):
        path = write_cfg(tmp_path / f"{mode}.cfg", mode=mode, **{
            **UNDRIVEN, "mesh_path": str(obj), "output.directory": str(out)})
        active = nonpositive & ~jittered_cavity.boundary if mode == "TE" else nonpositive
        assert np.argmax(active) == np.argmax(nonpositive) == 274
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["stability", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: indefinite system: nonpositive dual edge length at edge 274 ")
        assert cli.main(["run", path, "--quiet"]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_stability_and_run_accept_the_same_meshes(mode, tmp_path, capsys):
    """Three triangles whose only negative dual edge is boundary edge 5:
    TE holds that edge at zero, so both commands accept the mesh, and TM
    makes it active, so both refuse it naming edge 5."""
    obj = tmp_path / "three.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0.5 0.6 0\nv 0.5 -0.6 0\nv 0.9 1.4 0\n"
                   "f 1 2 3\nf 1 4 2\nf 2 5 3\n")
    surface = mesh.load_obj(str(obj))
    dual = mesh.compute_dual_metrics(surface).dual_edge_len
    assert surface.boundary[5] and np.flatnonzero(dual <= 0).tolist() == [5]
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", mode=mode, **{
        **UNDRIVEN, "mesh_path": str(obj), "output.directory": str(out)})
    code = 0 if mode == "TE" else 2
    assert cli.main(["stability", path]) == code
    captured = capsys.readouterr()
    assert cli.main(["run", path, "--quiet"]) == code
    if mode == "TE":
        rows = (out / "growth.csv").read_text().splitlines()[1:]
        lam = sorted({float(row.split(",")[1]) for row in rows})
        assert lam[0] == 0.0 and abs(lam[1] - 37.83) < 0.01, lam
    else:
        message = "error: indefinite system: nonpositive dual edge length at edge 5 "
        assert captured.err.startswith(message)
        assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("mode,lam", [("TE", 0.0), ("TM", 26.2564)])
def test_stability_on_a_mesh_with_no_interior_edge(mode, lam, tmp_path, capsys):
    """Two disjoint triangles: in TE every edge is PEC, so K = 0 and every
    face mode is static (lambda = 0, |xi| = 1) without an eigensolve; in TM
    both modes have the one lambda of the two equal faces.  Both commands
    accept the mesh in both modes."""
    obj = tmp_path / "two.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0.5 0.8 0\nv 3 0 0\nv 4 0 0\nv 3.5 0.8 0\n"
                   "f 1 2 3\nf 4 5 6\n")
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", mode=mode, **{
        **UNDRIVEN, "mesh_path": str(obj), "output.directory": str(out)})
    assert cli.main(["stability", path]) == 0
    summary = capsys.readouterr().out
    assert f"lambda in [{lam:.6g}, {lam:.6g}]" in summary
    rows = [row.split(",") for row in (out / "growth.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6 and {round(float(row[1]), 4) for row in rows} == {lam}
    if mode == "TE":
        assert {row[3] for row in rows} == {"1.0"}
        assert "max |w1 - v/(1+M)|=0.0e+00" in summary
    assert cli.main(["run", path, "--quiet"]) == 0


def test_stability_converges_on_the_5120_face_icosphere(tmp_path, capsys):
    """ARPACK's default basis of 20 vectors did not converge on lambda_max of
    the once-subdivided icosphere_3 (about 43 s, then a traceback); the sweep's
    basis of 40 finds it, to the digits of a dense ``eigvalsh``."""
    icosphere_3 = bundled.bundled_surface("icosphere_3.obj")
    surface = mesh.from_arrays(*mesh.subdivide(icosphere_3.vertices, icosphere_3.faces,
                                               project_unit_sphere=True))
    assert surface.n_faces == 5120
    obj = write_obj(tmp_path / "icosphere_4.obj", surface)
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        **UNDRIVEN, "mesh_path": str(obj), "dt": "0.03", "output.directory": str(out)})
    assert cli.main(["stability", path]) == 0
    rows = [row.split(",") for row in (out / "growth.csv").read_text().splitlines()[1:]]
    assert {round(float(row[1]), 6) for row in rows[1::2]} == {4909.876541}
    assert {row[1] for row in rows[::2]} == {"0.0"}


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_stability_on_the_icosahedron(mode, icosahedron_path, tmp_path, capsys):
    """20 faces, fewer than the 40 vectors of the lambda_max basis: the basis
    shrinks to the operator's size, and both extreme eigenvalues match a dense
    ``eigvalsh`` of the same operator."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", mode=mode, **{
        **UNDRIVEN, "mesh_path": icosahedron_path, "output.directory": str(out)})
    assert cli.main(["stability", path]) == 0
    rows = [row.split(",") for row in (out / "growth.csv").read_text().splitlines()[1:]]
    surface = mesh.load_obj(icosahedron_path)
    materials = config.load_config(path).materials(surface)
    _, C, _ = analysis._modal_operator(surface, mesh.compute_dual_metrics(surface), materials)
    dense = np.linalg.eigvalsh(C.toarray())
    assert {row[1] for row in rows[::2]} == {"0.0"} and abs(dense[0]) < 1e-12 * dense[-1]
    assert {abs(float(row[1]) / dense[-1] - 1) < 1e-12 for row in rows[1::2]} == {True}


@pytest.mark.parametrize("call", ["lambda_max", "lambda_min"])
def test_stability_turns_an_arpack_failure_into_an_error(call, tmp_path, capsys,
                                                         monkeypatch):
    """An eigensolve that ARPACK gives up on, for either extreme mode, exits 2
    with one ``error:`` line and writes no growth.csv, as an indefinite
    operator does."""
    eigsh = analysis.spla.eigsh

    def failing(C, k, **kwargs):
        if ("sigma" in kwargs) == (call == "lambda_min"):
            raise analysis.spla.ArpackNoConvergence(
                "No convergence (300 iterations, 0/1 eigenvectors converged)", [], [])
        return eigsh(C, k, **kwargs)

    monkeypatch.setattr(analysis.spla, "eigsh", failing)
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{**UNDRIVEN, "output.directory": str(out)})
    assert cli.main(["stability", path]) == 2
    assert capsys.readouterr().err == (
        "error: operator eigensolve failed: ARPACK error -1: No convergence "
        "(300 iterations, 0/1 eigenvectors converged)\n")
    assert not (out / "growth.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_vertex_is_one_error(value, tmp_path, capsys):
    """A non-finite coordinate fails ``check-mesh`` and ``run`` with one
    ``error:`` line, before ``run`` creates its output directory."""
    obj = tmp_path / "bad.obj"
    obj.write_text(f"v 0 0 0\nv 1 0 0\nv 0.5 {value} 0\nf 1 2 3\n")
    message = f"error: vertex 2 has a non-finite coordinate: [0.5, {value}, 0.0]\n"
    assert cli.main(["check-mesh", str(obj)]) == 2
    assert capsys.readouterr() == ("", message)
    out = tmp_path / "out"
    for mode in ("TE", "TM"):
        path = write_cfg(tmp_path / "a.cfg", mode=mode, **{
            **UNDRIVEN, "mesh_path": str(obj), "output.directory": str(out)})
        assert cli.main(["run", path, "--quiet"]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def modules_loaded_by_run(path):
    """Whether ``decem._text`` and ``decem.analysis`` are loaded after
    ``decem run <path>`` in a fresh process."""
    script = ("import sys; from decem import cli; cli.main(sys.argv[1:]); "
              "print('decem._text' in sys.modules, 'decem.analysis' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run([sys.executable, "-c", script, "run", path, "--quiet"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    return done.stdout.split()[-2:]


def test_run_without_snapshots_imports_no_text_kernel(tmp_path):
    """A zero-step run that writes no snapshot, the shape of the benchmark's
    set-up runs, does not import the number-formatting kernel in a fresh
    process, so that set-up time never pays for building its tables."""
    path = write_cfg(tmp_path / "none.cfg", steps="0", **{
        "output.formats": "", "output.directory": str(tmp_path / "out_none")})
    assert modules_loaded_by_run(path) == ["False", "False"]


def test_vtk_only_run_imports_no_text_kernel(tmp_path):
    """The VTK snapshots are bytes: a run that writes only them never loads
    the number-formatting kernel, which the CSV snapshots use."""
    out = tmp_path / "out_vtk"
    path = write_cfg(tmp_path / "vtk.cfg", **{
        "output.formats": "vtk", "output.directory": str(out)})
    assert modules_loaded_by_run(path) == ["False", "False"]
    assert len(list(out.glob("*.vtk"))) == 4 and not list(out.glob("snapshot_*.csv"))


def test_package_exposes_analysis_names_on_first_use():
    """``decem`` imports ``decem.analysis`` only when one of its names is
    asked for, and still lists and exports them all."""
    names = ["ConvergenceReport", "GrowthFactorReport", "cavity_mode_fields",
             "convergence_study", "growth_factor", "stability_sweep"]
    script = ("import sys, decem; before = 'decem.analysis' in sys.modules; "
              "listed = [n for n in %r if n in dir(decem)]; "
              "from decem import convergence_study; "
              "print(before, len(listed), decem.stability_sweep.__module__, "
              "convergence_study.__module__)" % names)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "6", "decem.analysis", "decem.analysis"]
    for name in names:
        assert getattr(decem, name) is getattr(analysis, name)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        decem.nonexistent


def test_setup_failure_replaces_earlier_manifest(tmp_path, capsys):
    """A run that fails in set-up (here a bad source index) marks the output
    directory of an earlier good run failed instead of leaving its manifest
    saying complete."""
    out = tmp_path / "out"
    good = write_cfg(tmp_path / "good.cfg", steps="4", **{"output.directory": str(out)})
    assert cli.main(["run", good, "--quiet"]) == 0
    assert "status = complete" in (out / "manifest.txt").read_text().splitlines()
    bad = write_cfg(tmp_path / "bad.cfg", **{
        "source.support": "999", "output.directory": str(out)})
    assert cli.main(["run", bad, "--quiet"]) == 2
    assert "out of range" in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = failed" in manifest
    assert "last_completed_step = 0" in manifest
    assert "files = " in manifest   # no file belongs to the failed run
    errors = [l for l in manifest if l.startswith("error = ")]
    assert len(errors) == 1 and "ConfigError" in errors[0] and "999" in errors[0]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_nonfinite_energy_aborts_with_step(tmp_path, capsys):
    # fields of order 1e200 are finite, but their energy overflows to inf
    # at the first cadence after the pulse starts (step 4)
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "output.directory": str(out), "source.amplitude": "1e200"})
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 2
    assert "non-finite energy at step 4" in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = failed" in manifest
    assert "error = SolverError: non-finite energy at step 4" in manifest
    log = (out / "run_log.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in log[1:]] == ["0", "4"]
    assert log[-1].split(",")[2] == "inf"


def test_keyboard_interrupt_marks_manifest_interrupted(tmp_path, monkeypatch):
    """An interrupt in step 7 leaves a manifest that says interrupted at
    step 6, lists exactly the files on disk, and carries no error line; the
    interrupt itself still propagates."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out)})
    real_step = solver.step

    def step(stepper, state, sources=None):
        if state.n == 6:
            raise KeyboardInterrupt
        return real_step(stepper, state, sources)

    monkeypatch.setattr(cli.sv, "step", step)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", path, "--quiet"])
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = interrupted" in manifest
    assert "last_completed_step = 6" in manifest
    assert not any(line.startswith("error") for line in manifest)
    files = next(l for l in manifest if l.startswith("files = "))[len("files = "):]
    assert sorted(files.split(",")) == sorted(set(os.listdir(out)) - {"manifest.txt"})
    assert "snapshot_000004.csv" in files and "snapshot_000008.csv" not in files
    rows = (out / "probes.csv").read_text().splitlines()[4:]   # after the header
    assert [row.split(",")[0] for row in rows] == [str(n) for n in range(7)]


def test_manifest_write_error_keeps_previous(tmp_path):
    class Unwritable:
        def __format__(self, spec):
            raise OSError("disk full")

    path = tmp_path / "manifest.txt"
    output.write_manifest(str(path), {"status": "incomplete", "last_completed_step": 3})
    before = path.read_text()
    with pytest.raises(OSError, match="disk full"):
        output.write_manifest(
            str(path), {"status": "complete", "last_completed_step": Unwritable()}
        )
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["manifest.txt"]


def test_demo_sphere_config_loads():
    cfg = config.load_config(bundled.bundled_path("demo_sphere_te.cfg"))
    assert cfg.mode == "TE"
    surface = bundled.bundled_surface("icosphere_3.obj")
    assert cfg.materials(surface).mode == "TE"


def no_metrics(*args, **kwargs):
    raise AssertionError("dual metrics computed before the index check")


def test_region_range_error_names_offending_index(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "mesh_path": "icosphere_3.obj", "region.x.faces": "-1,3",
        "region.x.sigma": "0.5", "output.directory": str(out)})
    cfg = config.load_config(path)
    surface = bundled.bundled_surface("icosphere_3.obj")
    with pytest.raises(config.ConfigError, match=r"face index -1 out of range \(mesh has 1280\)"):
        cfg.materials(surface)
    monkeypatch.setattr(cli, "compute_dual_metrics", no_metrics)
    assert cli.main(["run", path, "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key,index,message", [
    ("source.support", "-1", "negative index -1"),
    ("source.support", "80", "face index 80 out of range (mesh has 80)"),
    ("probe.p0.index", "-1", "edge index -1 out of range (mesh has 120)"),
    ("probe.p0.index", "120", "edge index 120 out of range (mesh has 120)"),
    ("region.x.faces", "-1", "face index -1 out of range (mesh has 80)"),
    ("region.x.faces", "80", "face index 80 out of range (mesh has 80)"),
    # beyond int64
    ("source.support", "99999999999999999999", "index 99999999999999999999 out of range"),
    ("probe.p0.index", "99999999999999999999", "index 99999999999999999999 out of range"),
    ("region.x.faces", "99999999999999999999", "index 99999999999999999999 out of range"),
])
def test_index_out_of_range_names_its_key(key, index, message, tmp_path, capsys, monkeypatch):
    """Each index a config names, at -1, at its carrier's count on
    icosphere_1 (80 faces, 120 edges; a TE e probe is on edges) and beyond
    what int64 holds, is refused
    by one error that names its key, before the dual metrics and before
    any output exists."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        "probe.p0.quantity": "e", "region.x.sigma": "0.5", "region.x.faces": "3",
        key: index, "output.directory": str(out)})
    monkeypatch.setattr(cli, "compute_dual_metrics", no_metrics)
    assert cli.main(["run", path, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {key}: {message}\n"
    assert not out.exists()


def test_stability_checks_region_indices_before_the_metrics(tmp_path, capsys, monkeypatch):
    """``decem stability`` meets its mesh as a run does: a region index out
    of range is refused before the dual metrics and before any output."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{
        **UNDRIVEN, "region.x.faces": "0,80", "region.x.eps": "2.0",
        "output.directory": str(out)})
    monkeypatch.setattr(cli, "compute_dual_metrics", no_metrics)
    assert cli.main(["stability", path]) == 2
    assert capsys.readouterr().err == (
        "error: region.x.faces: face index 80 out of range (mesh has 80)\n")
    assert not out.exists()


def test_run_builds_materials_once(tmp_path, monkeypatch):
    calls = []
    build = solver.MaterialParams.from_face_values

    def counted(cls, *args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(solver.MaterialParams, "from_face_values", classmethod(counted))
    path = write_cfg(tmp_path / "a.cfg", steps="2", **{
        "region.x.faces": "0,1", "region.x.eps": "2.0",
        "output.directory": str(tmp_path / "out")})
    assert cli.main(["run", path, "--quiet"]) == 0
    assert calls == ["TE"]


def test_tm_run_end_to_end(tmp_path, read_vtk):
    """TM on the cavity: je pulse on faces, a lossy region, an e and an h probe."""
    out = tmp_path / "out"
    surface = bundled.bundled_surface("cavity_2.obj")
    path = write_cfg(tmp_path / "tm.cfg", steps="40", **{
        "mesh_path": "cavity_2.obj", "mode": "TM", "dt": "0.02",
        "source.target": "je", "source.support": "100,101",
        "source.t0": "0.1", "source.width": "0.03",
        "region.lossy.faces": ",".join(str(f) for f in range(0, 512, 4)),
        "region.lossy.sigma": "0.5", "region.lossy.sigma_m": "0.2",
        "probe.p0.quantity": "e", "probe.p0.index": "100",
        "probe.p1.quantity": "h", "probe.p1.index": "7",
        "output.cadence": "5", "output.formats": "vtk,csv",
        "output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 0
    assert "status = complete" in (out / "manifest.txt").read_text()

    vtk = read_vtk(str(out / "snapshot_000040.vtk"))
    assert vtk.keys() == {"points", "cells", "cell_types", "e", "h_vec"}
    rows = (out / "snapshot_000040.csv").read_text().splitlines()[3:]
    quantities = [r.split(",")[0] for r in rows]
    assert quantities.count("e") == surface.n_faces
    assert quantities.count("h") == surface.n_edges

    log = [r.split(",") for r in (out / "run_log.csv").read_text().splitlines()[1:]]
    after = np.array([float(r[2]) for r in log if float(r[1]) >= 0.1 + 5 * 0.03])
    assert len(after) >= 5 and after[0] > 0
    assert (np.diff(after) <= 1e-12 * after[0]).all()

    probes = [r.split(",") for r in (out / "probes.csv").read_text().splitlines()[4:]]
    assert {r[2] for r in probes} == {"p0", "p1"}
    values = np.array([float(r[5]) for r in probes])
    assert len(values) == 2 * 41 and np.isfinite(values).all() and np.abs(values).max() > 0


def test_source_index_error_is_config_error(tmp_path):
    """A support index off the mesh is an error whether or not the source
    is switched on, as a negative or repeated one is."""
    surface = bundled.bundled_surface("icosphere_1.obj")
    for kind in ("gaussian_pulse", "none"):
        cfg = config.load_config(write_cfg(tmp_path / "a.cfg", **{
            "source.kind": kind, "source.support": "999"}))
        with pytest.raises(config.ConfigError,
                           match=r"^source\.support: face index 999 out of range \(mesh has 80\)$"):
            cfg.materials(surface)


def test_main_freezes_the_import_graph(tmp_path):
    assert gc.get_freeze_count() == 0   # the suite unfreezes after each test
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(tmp_path / "out")})
    assert cli.main(["run", path, "--quiet"]) == 0
    assert gc.get_freeze_count() > 0


def test_main_outputs_equal_run_simulation(tmp_path):
    """The frozen heap changes no output byte: the CLI's files equal those
    of ``run_simulation`` on the same config."""
    via_main, via_library = tmp_path / "main", tmp_path / "library"
    path = write_cfg(tmp_path / "a.cfg", **{
        "probe.p1.quantity": "e", "probe.p1.index": "5"})
    assert cli.main(["run", path, "--quiet", "--output-dir", str(via_main)]) == 0
    cfg = config.load_config(path)
    cfg.output_dir = str(via_library)
    cli.run_simulation(cfg, echo=None)
    names = sorted(os.listdir(via_main))
    assert names == sorted(os.listdir(via_library))
    assert {"snapshot_000012.vtk", "snapshot_000012.csv", "probes.csv",
            "run_log.csv", "manifest.txt"} <= set(names)
    for name in names:
        assert (via_main / name).read_bytes() == (via_library / name).read_bytes(), name
