"""Command-line entry point: ``run``, ``check-mesh``, ``stability``,
``convergence``.

Every simulation is one invocation; snapshots, probe CSVs and the run log go
to the output directory together with a manifest that always names the last
completed step and lists only the files written in full (so a run that
stops early leaves usable partial outputs: marked interrupted after a
``KeyboardInterrupt``, failed with its error after any other exception).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from . import output
from . import solver as sv
from .config import ConfigError, RunConfig, load_config
from .mesh import compute_dual_metrics, load_obj, mesh_report

__all__ = ["main", "run_simulation"]


def _solve(cfg: RunConfig) -> dict:
    """``assemble``'s solve keywords, as the config's ``solver.*`` keys set them."""
    return {"solver": cfg.solver_kind, "tolerance": cfg.tolerance, "max_iters": cfg.max_iters}


def run_simulation(cfg: RunConfig, initial: sv.FieldState | None = None, echo=print):
    """Execute a configured run; returns the final state.

    The loop keeps only the current state in memory (snapshots are
    streamed).  It advances ``cfg.steps`` steps from the initial state's
    step, writes a probe row for each state, and records (snapshots, a log
    row, the manifest naming the first step and the last completed one)
    the first, the last and each step a multiple of the cadence.  A supplied
    initial state must be of the configured mode (else a ``ConfigError``)
    and satisfy the vertex Gauss law to within 1e-8 of its cancellation
    scale (else a ``SolverError``) off the vertices of PEC edges, whose
    residual is the wall's induced charge; either error aborts the run
    before it creates the output directory.  A non-finite energy at a
    cadence aborts the run with a ``SolverError`` naming the step.
    """
    outdir = cfg.output_dir
    written: list[str] = []
    state = probe_writer = log_writer = None

    def manifest(status, last_step, **extra):
        output.write_manifest(os.path.join(outdir, "manifest.txt"), {
            "status": status,
            "mesh": os.path.basename(cfg.mesh_path),
            "mode": cfg.mode,
            "dt": repr(cfg.dt),
            "steps_requested": cfg.steps,
            "first_step": 0 if initial is None else initial.n,
            "last_completed_step": last_step,
            "solver": cfg.solver_kind,
            "files": ",".join(written),
            **extra,
        })

    try:
        if initial is not None and initial.mode != cfg.mode:
            raise ConfigError(f"initial state is {initial.mode} but the run is {cfg.mode}")
        surface = load_obj(cfg.mesh_path)
        materials = cfg.materials(surface)
        metrics = compute_dual_metrics(surface)
        stepper = sv.assemble(surface, metrics, materials, cfg.dt, **_solve(cfg))
        stars = stepper.stars

        if initial is not None:
            res = sv.gauss_residuals(initial, surface, stars, materials)
            res[surface.edges[~stepper.active_edges]] = 0.0   # the wall's induced charge
            scale = sv.gauss_residual_scale(initial, surface, stars, materials)
            worst = np.abs(res).max()
            if worst > 1e-8 * max(scale, 1e-300):
                raise sv.SolverError(
                    f"initial data violates the divergence constraint "
                    f"(residual {worst:.3e}, scale {scale:.3e})"
                )

        os.makedirs(outdir, exist_ok=True)
        probe_writer = output.ProbeWriter(os.path.join(outdir, "probes.csv"), cfg.probes)
        log_writer = output.RunLogWriter(os.path.join(outdir, "run_log.csv"), echo=echo)
        written += ["probes.csv", "run_log.csv"]
        state = initial if initial is not None else sv.initial_state(cfg.mode, surface)

        for i in range(cfg.steps + 1):
            if i > 0:
                state = sv.step(stepper, state, cfg.source)
            probe_writer.record(state)
            if i in (0, cfg.steps) or state.n % cfg.cadence == 0:
                stem = f"snapshot_{state.n:06d}"
                if "vtk" in cfg.formats:
                    output.write_vtk_snapshot(os.path.join(outdir, stem + ".vtk"), surface, state)
                    written.append(stem + ".vtk")
                if "csv" in cfg.formats:
                    output.write_csv_snapshot(os.path.join(outdir, stem + ".csv"), state)
                    written.append(stem + ".csv")
                en = sv.energy(state, stars, materials)
                log_writer.record(state, en, sv.gauss_residuals(state, surface, stars, materials))
                if not np.isfinite(en):
                    raise sv.SolverError(f"non-finite energy at step {state.n}")
                manifest("incomplete", state.n)
        manifest("complete", state.n)
    except (Exception, KeyboardInterrupt) as exc:
        if os.path.isdir(outdir):   # a set-up error creates no directory
            last = 0 if state is None else state.n
            if isinstance(exc, KeyboardInterrupt):
                manifest("interrupted", last)
            else:
                error = " ".join(f"{type(exc).__name__}: {exc}".split())  # one line
                manifest("failed", last, error=error)
        raise
    finally:
        for writer in filter(None, (probe_writer, log_writer)):
            writer.close()
    return state


def _cmd_run(cfg: RunConfig, args) -> int:
    run_simulation(cfg, echo=None if args.quiet else print)
    print(f"run complete: {cfg.steps} steps, outputs in {cfg.output_dir}")
    return 0


def _cmd_check_mesh(path) -> int:
    surface = load_obj(path)
    report = mesh_report(surface, path=path)
    print(report)
    return 0 if report.endswith("PASS") else 1


# the multiples of the run's dt at which decem stability reports growth
STABILITY_DT_FACTORS = (1e-3, 1.0, 1e3)


def _refuse(cfg: RunConfig, runs: str, settings=(), names=()) -> None:
    """One ``ConfigError``, raised before any output, that starts with
    ``runs`` and names each setting a command would ignore: every (key,
    value, the one value it takes) of ``settings`` set otherwise, each of
    ``names``, a source and each probe."""
    refused = [f"{key} = {value}" for key, value, taken in
               (*settings, ("source.kind", cfg.source.kind, "none")) if value != taken]
    refused += [*names, *(f"probe.{name}" for name in cfg.probes)]
    if refused:
        raise ConfigError(f"{runs}; it cannot take {', '.join(refused)}")


def _cmd_stability(cfg: RunConfig, args) -> int:
    from . import analysis   # here, so that a run does not import it

    _refuse(cfg, "decem stability analyses the source-free operator and records no probes")
    surface = load_obj(cfg.mesh_path)
    materials = cfg.materials(surface)
    report = analysis.stability_sweep(surface, compute_dual_metrics(surface), materials,
                                      [f * cfg.dt for f in STABILITY_DT_FACTORS], **_solve(cfg))
    print(output.write_report(cfg.output_dir, report))
    return 0


def _cmd_convergence(cfg: RunConfig, args) -> int:
    from . import analysis

    _refuse(cfg, "decem convergence runs the lossless TM cavity with uniform eps and mu",
            settings=(("mode", cfg.mode, "TM"), ("material.sigma", cfg.sigma, 0.0),
                      ("material.sigma_m", cfg.sigma_m, 0.0)),
            names=[f"region.{name}" for name in cfg.regions])
    report = analysis.convergence_study(
        load_obj(cfg.mesh_path), cfg.dt, time=cfg.steps * cfg.dt, eps=cfg.eps, mu=cfg.mu,
        **_solve(cfg))
    print(output.write_report(cfg.output_dir, report))
    return 0


def main(argv=None) -> int:
    # A CLI process ends when main returns, so the objects that importing
    # numpy and scipy made are never garbage.  Freezing them keeps every
    # full collection, during the run and at exit, from walking them again.
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="decem",
        description="implicit DEC time-domain Maxwell solver on triangulated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a simulation from a config file")
    p_run.add_argument("--quiet", action="store_true", help="suppress the per-cadence log")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check-mesh", help="geometry and duality report for an OBJ mesh")
    p_check.add_argument("mesh")

    p_stab = sub.add_parser("stability", help="growth factors of the operator's extreme modes")
    p_stab.set_defaults(func=_cmd_stability)

    p_conv = sub.add_parser("convergence", help="cavity-mode convergence orders")
    p_conv.set_defaults(func=_cmd_convergence)

    for p in (p_run, p_stab, p_conv):
        p.add_argument("config")
        p.add_argument("--output-dir", help="override output.directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "check-mesh":
            return _cmd_check_mesh(args.mesh)
        cfg = load_config(args.config)
        cfg.output_dir = args.output_dir or cfg.output_dir
        return args.func(cfg, args)
    except (ValueError, sv.SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
