import os

import numpy as np
import pytest

from decem import bundled, cli, config, output


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
    with pytest.raises(config.ConfigError, match="jm_sign"):
        config.load_config(write_cfg(tmp_path / "b.cfg", **{"flags.jm_sign": "2"}))
    with pytest.raises(config.ConfigError, match="boolean"):
        config.load_config(
            write_cfg(tmp_path / "c.cfg", **{"flags.allow_indefinite": "maybe"})
        )


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


def test_check_mesh_load_error(tmp_path, capsys):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    rc = cli.main(["check-mesh", str(p)])
    assert rc == 2
    assert "non-triangular" in capsys.readouterr().err


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


def test_run_log_energy_and_gauss(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 0
    lines = (out / "run_log.csv").read_text().splitlines()
    assert lines[0] == "step,t,energy,max_gauss_electric,max_gauss_magnetic"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0", "4", "8", "12"]
    energies = np.array([float(r[2]) for r in rows])
    assert (energies >= 0).all() and np.isfinite(energies).all()


def test_vtk_snapshot_structure(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", steps="4",
                     **{"output.directory": str(out), "output.cadence": "4"})
    assert cli.main(["run", path, "--quiet"]) == 0
    text = (out / "snapshot_000004.vtk").read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "ASCII" in text[2]
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    n_points = int(text[4].split()[1])
    assert n_points == 42
    idx = text.index(f"CELLS 80 320", 5)
    assert text[idx + 81].startswith("CELL_TYPES")
    assert "CELL_DATA 80" in text
    assert any(l.startswith("SCALARS h double") for l in text)
    assert any(l.startswith("VECTORS e_vec double") for l in text)


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
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out)})
    assert cli.main(["run", path, "--quiet", "--direct-solver"]) == 0
    assert "solver = direct" in (out / "manifest.txt").read_text()


def test_default_run_uses_direct_solver(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "a.cfg", **{"output.directory": str(out)})
    assert cli.main(["run", path, "--quiet"]) == 0
    assert "solver = direct" in (out / "manifest.txt").read_text().splitlines()


def test_stability_command(tmp_path, capsys):
    rc = cli.main([
        "stability", bundled.bundled_path("stability_sphere.cfg"),
        "--output-dir", str(tmp_path / "stab"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |xi|" in out
    growth = (tmp_path / "stab" / "growth.csv").read_text().splitlines()
    assert growth[0] == "face_id,k,M,xi_mod,dt"
    assert (tmp_path / "stab" / "summary.txt").exists()


def test_convergence_command_quick(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(
        "mesh_path = cavity_1.obj\nmode = TM\ndt = 0.016\nsteps = 0\n"
        "material.eps = 1.0\nmaterial.mu = 1.0\n"
        "convergence.time = 1.28\nconvergence.dt0 = 0.016\n"
        "convergence.levels = 2\nsolver.kind = direct\n"
    )
    rc = cli.main(["convergence", str(cfg), "--output-dir", str(tmp_path / "conv")])
    assert rc == 0
    assert "observed order" in capsys.readouterr().out
    table = (tmp_path / "conv" / "errors.csv").read_text().splitlines()
    assert table[0] == "study,h,dt,error"
    assert len(table) == 1 + 2 + 2


def test_convergence_direct_matches_cg_orders(tmp_path, capsys):
    direct_cfg = bundled.bundled_path("cavity_convergence.cfg")  # 3 levels, 2048 faces
    cg_cfg = tmp_path / "cavity_convergence_cg.cfg"  # mesh_path falls back to bundled
    with open(direct_cfg) as fh:
        cg_cfg.write_text(fh.read() + "solver.kind = cg\n")
    orders = {}
    for flags in ([], ["--direct-solver"]):
        cfg = direct_cfg if flags else str(cg_cfg)
        rc = cli.main(["convergence", cfg, "--output-dir", str(tmp_path), *flags])
        assert rc == 0
        out = capsys.readouterr().out
        orders[tuple(flags)] = [l for l in out.splitlines() if "observed order" in l]
    assert orders[()] == orders[("--direct-solver",)]
    assert orders[()][-1].strip() == "observed order: 0.954"


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
    cfg.validate_against(surface)
