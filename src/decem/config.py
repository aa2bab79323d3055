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
from .solver import EPS0, MU0, MaterialParams, SourceSpec, polarization

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


def _number(raw: dict, key: str, default, kind=float, prefix: str = ""):
    """``kind(raw.get(key, default))``; a value that does not convert, or a
    float that is nan or infinite, is a ``ConfigError`` naming
    ``prefix + key``."""
    value = raw.get(key, default)
    try:
        number = kind(value)
    except ValueError:
        raise ConfigError(f"{prefix}{key}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not np.isfinite(number):
        raise ConfigError(f"{prefix}{key}: expected a finite number, got {value!r}")
    return number


def _material(raw: dict, key: str, default, prefix: str = "") -> float:
    """A material value: eps and mu positive, conductivities nonnegative."""
    value = _number(raw, key, default, prefix=prefix)
    if key.endswith(("eps", "mu")):
        if not value > 0:
            raise ConfigError(f"{prefix}{key} must be positive")
    elif not value >= 0:
        raise ConfigError(f"{prefix}{key} must be nonnegative")
    return value


def _as_int_list(value: str, key: str):
    if not value:
        return []
    try:
        return [int(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {value!r}")


def _as_float_list(value: str, key: str):
    try:
        out = [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated floats, got {value!r}")
    if not np.isfinite(out).all():
        raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
    return out


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
        values = {q: np.full(nf, getattr(self, q)) for q in ("eps", "mu", "sigma", "sigma_m")}
        for name, faces, over in self.regions:
            faces = np.asarray(faces, dtype=int)
            bad = faces[(faces < 0) | (faces >= nf)]
            if bad.size:
                raise ConfigError(
                    f"region.{name}.faces: face index {int(bad[0])} out of "
                    f"range (mesh has {nf})"
                )
            for quantity, value in over.items():
                values[quantity][faces] = value
        return MaterialParams.from_face_values(self.mode, surface, **values)

    def validate_against(self, surface) -> MaterialParams:
        """Index validation before any compute; returns ``materials(surface)``
        so that a run builds its materials once."""
        try:
            self.source.validate(surface, self.mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for probe in self.probes:
            on_edges = polarization(self.mode).on_edges(probe.quantity)
            limit = surface.n_edges if on_edges else surface.n_faces
            if not (0 <= probe.index < limit):
                carrier = "edge" if on_edges else "face"
                raise ConfigError(
                    f"probe {probe.name}: {carrier} index {probe.index} out of "
                    f"range (mesh has {limit})"
                )
        return self.materials(surface)


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
    try:
        polarization(cfg.mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg.dt = _number(raw, "dt", 0.0)
    cfg.steps = _number(raw, "steps", 0, int)
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.steps < 0:
        raise ConfigError("steps must be nonnegative")
    cfg.eps = _material(raw, "material.eps", EPS0)
    cfg.mu = _material(raw, "material.mu", MU0)
    cfg.sigma = _material(raw, "material.sigma", 0.0)
    cfg.sigma_m = _material(raw, "material.sigma_m", 0.0)

    for name in sorted(regions):
        spec = regions[name]
        if "faces" not in spec:
            raise ConfigError(f"region.{name}: missing region.{name}.faces")
        faces = _as_int_list(spec.pop("faces"), f"region.{name}.faces")
        over = {}
        for quantity in spec:
            if quantity not in ("eps", "mu", "sigma", "sigma_m"):
                raise ConfigError(f"region.{name}.{quantity}: unknown material quantity")
            over[quantity] = _material(spec, quantity, None, prefix=f"region.{name}.")
        cfg.regions.append((name, faces, over))

    source = dict(
        kind=raw.get("source.kind", "none"),
        target=raw.get("source.target", "je"),
        amplitude=_number(raw, "source.amplitude", 0.0),
        t0=_number(raw, "source.t0", 0.0),
        width=_number(raw, "source.width", 1.0),
        support=_as_int_list(raw.get("source.support", ""), "source.support"),
    )
    try:
        cfg.source = SourceSpec(**source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for name in sorted(probes):
        spec = probes[name]
        quantity = spec.get("quantity", "")
        if quantity not in ("e", "h"):
            raise ConfigError(f"probe.{name}.quantity must be e or h")
        if "index" not in spec:
            raise ConfigError(f"probe.{name}: missing probe.{name}.index")
        index = _number(spec, "index", None, int, f"probe.{name}.")
        cfg.probes.append(ProbeSpec(name=name, quantity=quantity, index=index))

    cfg.output_dir = raw.get("output.directory", "out")
    cfg.cadence = _number(raw, "output.cadence", 1, int)
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
    cfg.tolerance = _number(raw, "solver.tolerance", 1e-10)
    if not cfg.tolerance > 0:
        raise ConfigError("solver.tolerance must be positive")
    max_iters = _number(raw, "solver.max_iters", 0, int)
    cfg.max_iters = max_iters if max_iters > 0 else None

    cfg.allow_non_well_centered = _as_bool(
        raw.get("flags.allow_non_well_centered", "false"), "flags.allow_non_well_centered"
    )
    cfg.allow_indefinite = _as_bool(
        raw.get("flags.allow_indefinite", "false"), "flags.allow_indefinite"
    )
    cfg.jm_sign = _number(raw, "flags.jm_sign", 1.0)
    if cfg.jm_sign not in (1.0, -1.0):
        raise ConfigError("flags.jm_sign must be +1 or -1")
    cfg.initial_constraint = raw.get("flags.initial_constraint", "abort")
    if cfg.initial_constraint not in ("abort", "warn"):
        raise ConfigError("flags.initial_constraint must be abort or warn")

    cfg.stability_dt_factors = _as_float_list(
        raw.get("stability.dt_factors", "1e-3,1,1e3"), "stability.dt_factors"
    )
    cfg.stability_k_samples = _number(raw, "stability.k_samples", 64, int)
    cfg.convergence_time = _number(raw, "convergence.time", 1.28)
    cfg.convergence_dt0 = _number(raw, "convergence.dt0", 0.016)
    cfg.convergence_levels = _number(raw, "convergence.levels", 3, int)
    cfg.convergence_m = _number(raw, "convergence.m", 1, int)
    cfg.convergence_n = _number(raw, "convergence.n", 1, int)
    if not (1 <= cfg.convergence_levels <= 3):
        raise ConfigError("convergence.levels must be 1, 2 or 3")
    return cfg
