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
``_KEYS`` lists each scalar key once, with the ``RunConfig`` (or
``SourceSpec``) field it sets and its parser; a key left out keeps that
field's default.  Relative mesh paths resolve against the config file's
directory, falling back to the bundled data directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import bundled
from .solver import EPS0, MU0, MaterialParams, SourceSpec, check_indices, polarization

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


# Parsers: each takes a value's text and its full key, which every error names.
def _text(value: str, key: str) -> str:
    return value


def _upper(value: str, key: str) -> str:
    return value.upper()


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected int, got {value!r}") from None


def _float(value: str, key: str) -> float:
    """A finite float: nan and infinities are rejected too."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected float, got {value!r}") from None
    if not np.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _material(value: str, key: str) -> float:
    """A material value: eps and mu positive, conductivities nonnegative."""
    number = _float(value, key)
    if key.endswith(("eps", "mu")):
        if not number > 0:
            raise ConfigError(f"{key} must be positive")
    elif not number >= 0:
        raise ConfigError(f"{key} must be nonnegative")
    return number


def _as_int_list(value: str, key: str):
    try:
        return [int(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {value!r}")


def _formats(value: str, key: str) -> tuple:
    formats = tuple(tok.strip() for tok in value.split(",") if tok.strip())
    for fmt in formats:
        if fmt not in ("vtk", "csv"):
            raise ConfigError(f"{key}: unknown output format {fmt!r}")
    return formats


@dataclass
class ProbeSpec:
    name: str
    quantity: str   # "e" | "h"
    index: int


@dataclass
class RunConfig:
    """Validated simulation configuration; ``_KEYS`` names each field's key."""

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

    def materials(self, surface) -> MaterialParams:
        """Per-face material arrays from uniform values plus region overrides,
        placed for the configured polarization.  This is where a config meets
        its mesh: first every source, probe and region index is checked
        against its carrier, by one ``ConfigError`` that names the key."""
        pol, source = polarization(self.mode), self.source
        carried = [("source.support", source.support, pol.on_edges(source.target))]
        carried += [(f"probe.{p.name}.index", [p.index], pol.on_edges(p.quantity))
                    for p in self.probes]
        carried += [(f"region.{name}.faces", faces, False) for name, faces, _ in self.regions]
        for key, indices, on_edges in carried:
            check_indices(key, indices, surface, on_edges, ConfigError)
        values = {q: np.full(surface.n_faces, getattr(self, q))
                  for q in ("eps", "mu", "sigma", "sigma_m")}
        for _, faces, over in self.regions:
            for quantity, value in over.items():
                values[quantity][faces] = value
        return MaterialParams.from_face_values(self.mode, surface, **values)


# key: (the dataclass it sets, its field, the parser of its text)
_KEYS = {
    "mesh_path": (RunConfig, "mesh_path", _text),
    "mode": (RunConfig, "mode", _upper),
    "dt": (RunConfig, "dt", _float),
    "steps": (RunConfig, "steps", _int),
    "material.eps": (RunConfig, "eps", _material),
    "material.mu": (RunConfig, "mu", _material),
    "material.sigma": (RunConfig, "sigma", _material),
    "material.sigma_m": (RunConfig, "sigma_m", _material),
    "source.kind": (SourceSpec, "kind", _text),
    "source.target": (SourceSpec, "target", _text),
    "source.amplitude": (SourceSpec, "amplitude", _float),
    "source.t0": (SourceSpec, "t0", _float),
    "source.width": (SourceSpec, "width", _float),
    "source.support": (SourceSpec, "support", _as_int_list),
    "output.directory": (RunConfig, "output_dir", _text),
    "output.cadence": (RunConfig, "cadence", _int),
    "output.formats": (RunConfig, "formats", _formats),
    "solver.kind": (RunConfig, "solver_kind", _text),
    "solver.tolerance": (RunConfig, "tolerance", _float),
    "solver.max_iters": (RunConfig, "max_iters", _int),
}


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    raw = parse_kv_file(path)

    regions: dict[str, dict] = {}
    probes: dict[str, dict] = {}
    for key in list(raw):
        parts = key.split(".")
        if parts[0] == "region" and len(parts) == 3:
            regions.setdefault(parts[1], {})[parts[2]] = raw.pop(key)
        elif parts[0] == "probe" and len(parts) == 3:
            probes.setdefault(parts[1], {})[parts[2]] = raw.pop(key)

    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "mesh_path" not in raw:
        raise ConfigError("mesh_path is required")
    values: dict = {RunConfig: {}, SourceSpec: {}}
    for key, text in raw.items():
        owner, name, parse = _KEYS[key]
        values[owner][name] = parse(text, key)
    try:
        source = SourceSpec(**values[SourceSpec])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(source=source, **values[RunConfig])
    # the range rules, on the final values (defaults included)
    try:
        polarization(cfg.mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for ok, message in (
        (cfg.dt > 0, "dt must be positive"),
        (cfg.steps >= 0, "steps must be nonnegative"),
        (cfg.cadence >= 1, "output.cadence must be >= 1"),
        (cfg.solver_kind in ("cg", "direct"), "solver.kind must be cg or direct"),
        (cfg.tolerance > 0, "solver.tolerance must be positive"),
        (cfg.max_iters is None or cfg.max_iters >= 1, "solver.max_iters must be at least 1"),
    ):
        if not ok:
            raise ConfigError(message)
    # a relative mesh path that names no file beside the config may name a
    # bundled mesh; else it stays for the error at load time
    mesh = os.path.join(os.path.dirname(os.path.abspath(path)), cfg.mesh_path)
    if not os.path.exists(mesh) and cfg.mesh_path in bundled.bundled_names():
        mesh = bundled.bundled_path(cfg.mesh_path)
    cfg.mesh_path = mesh

    for name, spec in sorted(regions.items()):
        if "faces" not in spec:
            raise ConfigError(f"region.{name}: missing region.{name}.faces")
        faces = _as_int_list(spec.pop("faces"), f"region.{name}.faces")
        over = {}
        for quantity, text in spec.items():
            if quantity not in ("eps", "mu", "sigma", "sigma_m"):
                raise ConfigError(f"region.{name}.{quantity}: unknown material quantity")
            over[quantity] = _material(text, f"region.{name}.{quantity}")
        cfg.regions.append((name, faces, over))

    for name, spec in sorted(probes.items()):
        if "," in name:
            raise ConfigError(f"probe.{name}: a probe name cannot hold ',', "
                              "which separates the fields of probes.csv")
        quantity = spec.get("quantity", "")
        if quantity not in ("e", "h"):
            raise ConfigError(f"probe.{name}.quantity must be e or h")
        if "index" not in spec:
            raise ConfigError(f"probe.{name}: missing probe.{name}.index")
        index = _int(spec["index"], f"probe.{name}.index")
        cfg.probes.append(ProbeSpec(name=name, quantity=quantity, index=index))
    return cfg
