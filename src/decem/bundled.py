"""Access to the bundled mesh and example-config assets."""

from __future__ import annotations

from importlib import resources

__all__ = ["bundled_path", "bundled_names", "bundled_surface"]


def bundled_names() -> list[str]:
    root = resources.files("decem") / "data"
    return sorted(p.name for p in root.iterdir() if p.is_file())


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled asset; KeyError if unknown."""
    root = resources.files("decem") / "data"
    p = root / name
    if not p.is_file():
        raise KeyError(f"no bundled asset named {name!r}; have {bundled_names()}")
    return str(p)


def bundled_surface(name: str):
    from .mesh import load_obj

    return load_obj(bundled_path(name))

