"""Flat ``key = value`` run configuration with dotted section prefixes.

Example::

    mesh_path = icosphere_3.obj
    mode = TE
    dt = 2e-2
    steps = 400
    material.eps = 1.0
    material.mu = 1.0
    source.kind = gaussian_pulse
    source.target = jm
    source.support = 0,1,2
    probe.center.quantity = h
    probe.center.index = 0
    output.cadence = 50
    solver.kind = direct      # default: sparse LU; cg needs no factor in memory

``#`` starts a comment; unknown keys are rejected so typos fail fast.
Relative mesh paths resolve against the config file's directory, falling
back to the bundled data directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import bundled
from .solver import EPS0, MU0, MaterialParams, SourceSpec

__all__ = ["ConfigError", "RunConfig", "ProbeSpec", "parse_kv_file", "load_config"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration."""


def parse_kv_file(path) -> dict:
    """Parse ``key = value`` lines into an ordered dict of strings."""
    out: dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _as_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _as_int_list(value: str, key: str):
    if not value:
        return []
    try:
        return [int(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {value!r}")


def _as_float_list(value: str, key: str):
    try:
        return [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated floats, got {value!r}")


@dataclass
class ProbeSpec:
    name: str
    quantity: str   # "e" | "h"
    index: int


@dataclass
class RunConfig:
    """Validated simulation configuration (see module docstring for keys)."""

    mesh_path: str
    mode: str = "TE"
    dt: float = 0.0
    steps: int = 0
    eps: float = EPS0
    mu: float = MU0
    sigma: float = 0.0
    sigma_m: float = 0.0
    regions: list = field(default_factory=list)  # (name, faces, overrides dict)
    source: SourceSpec = field(default_factory=SourceSpec)
    probes: list = field(default_factory=list)
    output_dir: str = "out"
    cadence: int = 1
    formats: tuple = ("vtk", "csv")
    solver_kind: str = "direct"
    tolerance: float = 1e-10
    max_iters: int | None = None
    allow_non_well_centered: bool = False
    allow_indefinite: bool = False
    jm_sign: float = 1.0
    initial_constraint: str = "abort"   # abort | warn
    # stability / convergence command settings
    stability_dt_factors: list = field(default_factory=lambda: [1e-3, 1.0, 1e3])
    stability_k_samples: int = 64
    convergence_time: float = 1.28
    convergence_dt0: float = 0.016
    convergence_levels: int = 3
    convergence_m: int = 1
    convergence_n: int = 1

    def materials(self, surface) -> MaterialParams:
        """Per-face material arrays from uniform values plus region overrides,
        placed for the configured polarization."""
        nf = surface.n_faces
        eps = np.full(nf, self.eps)
        mu = np.full(nf, self.mu)
        sigma = np.full(nf, self.sigma)
        sigma_m = np.full(nf, self.sigma_m)
        for name, faces, over in self.regions:
            faces = np.asarray(faces, dtype=int)
            if faces.size and (faces.min() < 0 or faces.max() >= nf):
                raise ConfigError(
                    f"region.{name}.faces: face index {int(faces.max())} out of "
                    f"range (mesh has {nf})"
                )
            for quantity, value in over.items():
                {"eps": eps, "mu": mu, "sigma": sigma, "sigma_m": sigma_m}[
                    quantity
                ][faces] = value
        return MaterialParams.from_face_values(
            self.mode, surface, eps, mu, sigma, sigma_m
        )

    def validate_against(self, surface) -> None:
        """Index validation before any compute."""
        self.source.validate(surface, self.mode)
        for probe in self.probes:
            on_edges = (probe.quantity == "e") == (self.mode == "TE")
            limit = surface.n_edges if on_edges else surface.n_faces
            if not (0 <= probe.index < limit):
                carrier = "edge" if on_edges else "face"
                raise ConfigError(
                    f"probe {probe.name}: {carrier} index {probe.index} out of "
                    f"range (mesh has {limit})"
                )
        _ = self.materials(surface)


_SCALAR_KEYS = {
    "mesh_path", "mode", "dt", "steps",
    "material.eps", "material.mu", "material.sigma", "material.sigma_m",
    "source.kind", "source.target", "source.amplitude", "source.t0",
    "source.width", "source.support",
    "output.directory", "output.cadence", "output.formats",
    "solver.kind", "solver.tolerance", "solver.max_iters",
    "flags.allow_non_well_centered", "flags.allow_indefinite",
    "flags.jm_sign", "flags.initial_constraint",
    "stability.dt_factors", "stability.k_samples",
    "convergence.time", "convergence.dt0", "convergence.levels",
    "convergence.m", "convergence.n",
}


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    raw = parse_kv_file(path)
    base = os.path.dirname(os.path.abspath(path))

    regions: dict[str, dict] = {}
    probes: dict[str, dict] = {}
    for key in list(raw):
        parts = key.split(".")
        if parts[0] == "region" and len(parts) == 3:
            regions.setdefault(parts[1], {})[parts[2]] = raw.pop(key)
        elif parts[0] == "probe" and len(parts) == 3:
            probes.setdefault(parts[1], {})[parts[2]] = raw.pop(key)

    unknown = set(raw) - _SCALAR_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "mesh_path" not in raw:
        raise ConfigError("mesh_path is required")

    mesh_path = raw["mesh_path"]
    if not os.path.isabs(mesh_path):
        cand = os.path.join(base, mesh_path)
        if os.path.exists(cand):
            mesh_path = cand
        else:
            try:
                mesh_path = bundled.bundled_path(mesh_path)
            except KeyError:
                mesh_path = cand  # keep for the error message at load time

    cfg = RunConfig(mesh_path=mesh_path)
    cfg.mode = raw.get("mode", "TE").upper()
    if cfg.mode not in ("TE", "TM"):
        raise ConfigError(f"mode must be TE or TM, got {cfg.mode!r}")
    cfg.dt = float(raw.get("dt", 0.0))
    cfg.steps = int(raw.get("steps", 0))
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.steps < 0:
        raise ConfigError("steps must be nonnegative")
    cfg.eps = float(raw.get("material.eps", EPS0))
    cfg.mu = float(raw.get("material.mu", MU0))
    cfg.sigma = float(raw.get("material.sigma", 0.0))
    cfg.sigma_m = float(raw.get("material.sigma_m", 0.0))

    for name in sorted(regions):
        spec = regions[name]
        if "faces" not in spec:
            raise ConfigError(f"region.{name}: missing region.{name}.faces")
        faces = _as_int_list(spec.pop("faces"), f"region.{name}.faces")
        over = {}
        for quantity, value in spec.items():
            if quantity not in ("eps", "mu", "sigma", "sigma_m"):
                raise ConfigError(f"region.{name}.{quantity}: unknown material quantity")
            over[quantity] = float(value)
        cfg.regions.append((name, faces, over))

    cfg.source = SourceSpec(
        kind=raw.get("source.kind", "none"),
        target=raw.get("source.target", "je"),
        amplitude=float(raw.get("source.amplitude", 0.0)),
        t0=float(raw.get("source.t0", 0.0)),
        width=float(raw.get("source.width", 1.0)),
        support=_as_int_list(raw.get("source.support", ""), "source.support"),
    )

    for name in sorted(probes):
        spec = probes[name]
        quantity = spec.get("quantity", "")
        if quantity not in ("e", "h"):
            raise ConfigError(f"probe.{name}.quantity must be e or h")
        if "index" not in spec:
            raise ConfigError(f"probe.{name}: missing probe.{name}.index")
        cfg.probes.append(ProbeSpec(name=name, quantity=quantity, index=int(spec["index"])))

    cfg.output_dir = raw.get("output.directory", "out")
    cfg.cadence = int(raw.get("output.cadence", 1))
    if cfg.cadence < 1:
        raise ConfigError("output.cadence must be >= 1")
    formats = tuple(
        tok.strip() for tok in raw.get("output.formats", "vtk,csv").split(",") if tok.strip()
    )
    for fmt in formats:
        if fmt not in ("vtk", "csv"):
            raise ConfigError(f"unknown output format {fmt!r}")
    cfg.formats = formats

    cfg.solver_kind = raw.get("solver.kind", "direct")
    if cfg.solver_kind not in ("cg", "direct"):
        raise ConfigError("solver.kind must be cg or direct")
    cfg.tolerance = float(raw.get("solver.tolerance", 1e-10))
    max_iters = int(raw.get("solver.max_iters", 0))
    cfg.max_iters = max_iters if max_iters > 0 else None

    cfg.allow_non_well_centered = _as_bool(
        raw.get("flags.allow_non_well_centered", "false"), "flags.allow_non_well_centered"
    )
    cfg.allow_indefinite = _as_bool(
        raw.get("flags.allow_indefinite", "false"), "flags.allow_indefinite"
    )
    cfg.jm_sign = float(raw.get("flags.jm_sign", 1.0))
    if cfg.jm_sign not in (1.0, -1.0):
        raise ConfigError("flags.jm_sign must be +1 or -1")
    cfg.initial_constraint = raw.get("flags.initial_constraint", "abort")
    if cfg.initial_constraint not in ("abort", "warn"):
        raise ConfigError("flags.initial_constraint must be abort or warn")

    cfg.stability_dt_factors = _as_float_list(
        raw.get("stability.dt_factors", "1e-3,1,1e3"), "stability.dt_factors"
    )
    cfg.stability_k_samples = int(raw.get("stability.k_samples", 64))
    cfg.convergence_time = float(raw.get("convergence.time", 1.28))
    cfg.convergence_dt0 = float(raw.get("convergence.dt0", 0.016))
    cfg.convergence_levels = int(raw.get("convergence.levels", 3))
    cfg.convergence_m = int(raw.get("convergence.m", 1))
    cfg.convergence_n = int(raw.get("convergence.n", 1))
    if not (1 <= cfg.convergence_levels <= 3):
        raise ConfigError("convergence.levels must be 1, 2 or 3")
    return cfg
