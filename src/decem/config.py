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
field's default.  ``_FIELDS`` gives the parser of each field of a
``region.<name>.<field>`` and ``probe.<name>.<field>`` key; a key that
neither table knows is refused.  Relative mesh paths resolve against the
config file's directory, falling back to the bundled data directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import bundled
from .solver import EPS0, MU0, MaterialParams, SourceSpec, check_indices, polarization

__all__ = ["ConfigError", "RunConfig", "parse_kv_file", "load_config"]


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


def _quantity(value: str, key: str) -> str:
    if value not in ("e", "h"):
        raise ConfigError(f"{key} must be e or h")
    return value


def _formats(value: str, key: str) -> tuple:
    formats = tuple(tok.strip() for tok in value.split(",") if tok.strip())
    for fmt in formats:
        if fmt not in ("vtk", "csv"):
            raise ConfigError(f"{key}: unknown output format {fmt!r}")
    return formats


@dataclass
class RunConfig:
    """Validated simulation configuration; ``_KEYS`` names each field's key,
    ``_FIELDS`` the fields of each entry of ``regions`` and ``probes``."""

    mesh_path: str
    mode: str = "TE"
    dt: float = 0.0
    steps: int = 0
    eps: float = EPS0
    mu: float = MU0
    sigma: float = 0.0
    sigma_m: float = 0.0
    regions: dict = field(default_factory=dict)  # name: {field: value}, by name
    source: SourceSpec = field(default_factory=SourceSpec)
    probes: dict = field(default_factory=dict)   # name: {field: value}, by name
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
        against its carrier, and a TE je support against the PEC wall, by
        one ``ConfigError`` that names the key."""
        pol, source = polarization(self.mode), self.source
        carried = [("source.support", source.support, pol.on_edges(source.target))]
        carried += [(f"probe.{name}.index", [p["index"]], pol.on_edges(p["quantity"]))
                    for name, p in self.probes.items()]
        carried += [(f"region.{name}.faces", r["faces"], False)
                    for name, r in self.regions.items()]
        for key, indices, on_edges in carried:
            check_indices(key, indices, surface, on_edges, ConfigError)
        if pol.pec_edges and pol.on_edges(source.target):
            wall = source.support[surface.boundary[source.support]]
            if wall.size:
                raise ConfigError(f"source.support: edge {int(wall[0])} is on the PEC wall, "
                                  "where a TE je current drives nothing")
        values = {q: np.full(surface.n_faces, getattr(self, q))
                  for q in ("eps", "mu", "sigma", "sigma_m")}
        for region in self.regions.values():
            for quantity, face_values in values.items():
                if quantity in region:
                    face_values[region["faces"]] = region[quantity]
        return MaterialParams.from_face_values(self.mode, surface, **values)


# key: (the dataclass it sets, its field, the parser of its text)
_KEYS = {
    "mesh_path": (RunConfig, "mesh_path", _text),
    "mode": (RunConfig, "mode", _text),
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


# section: {field: its parser}, for the keys <section>.<name>.<field>; each
# entry of a section needs the fields of _REQUIRED
_FIELDS = {
    "region": {"faces": _as_int_list, "eps": _material, "mu": _material,
               "sigma": _material, "sigma_m": _material},
    "probe": {"quantity": _quantity, "index": _int},
}
_REQUIRED = {"region": ("faces",), "probe": ("quantity", "index")}


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    values: dict = {RunConfig: {}, SourceSpec: {}, "region": {}, "probe": {}}
    unknown = []
    for key, text in parse_kv_file(path).items():
        parts = key.split(".")
        if key in _KEYS:
            owner, attr, parse = _KEYS[key]
            values[owner][attr] = parse(text, key)
        elif len(parts) == 3 and parts[2] in _FIELDS.get(parts[0], ()):
            section, name, fld = parts
            values[section].setdefault(name, {})[fld] = _FIELDS[section][fld](text, key)
        else:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "mesh_path" not in values[RunConfig]:
        raise ConfigError("mesh_path is required")
    sections = {section: dict(sorted(values[section].items())) for section in _FIELDS}
    for section, entries in sections.items():
        for name, entry in entries.items():
            if section == "probe" and "," in name:
                raise ConfigError(f"probe.{name}: a probe name cannot hold ',', "
                                  "which separates the fields of probes.csv")
            missing = [fld for fld in _REQUIRED[section] if fld not in entry]
            if missing:
                raise ConfigError(f"{section}.{name}: missing {section}.{name}.{missing[0]}")
            if section == "region" and not entry["faces"]:
                raise ConfigError(f"region.{name}.faces: lists no face, "
                                  "so the region would set nothing")
    try:
        source = SourceSpec(**values[SourceSpec])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(source=source, regions=sections["region"], probes=sections["probe"],
                    **values[RunConfig])
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
    return cfg
