"""Time-domain Maxwell solver on triangulated surfaces via discrete exterior calculus.

The package couples a circumcentric-dual DEC discretization of a triangulated
2-manifold with a fully implicit, unconditionally stable time integrator for
the two surface polarizations (TE: electric field on edges, magnetic on
faces; TM: the reverse), plus growth-factor stability analysis, conservation
diagnostics and a small CLI (``decem run|check-mesh|stability|convergence``).
"""

from .bundled import bundled_names, bundled_path, bundled_surface
from .config import ConfigError, RunConfig, load_config
from .dec import (
    Cochain,
    DecError,
    GaugeField,
    HodgeStars,
    bianchi_defect,
    build_hodge_stars,
    continuity_defect,
    curvature,
    d,
    field_action,
    gauge_transform,
    maxwell_residual,
    star,
)
from .mesh import (
    DualMetrics,
    MeshError,
    SimplicialSurface,
    compute_dual_metrics,
    edge_midpoints,
    face_circumcenters,
    from_arrays,
    load_obj,
    mesh_report,
)
from .solver import (
    EPS0,
    MU0,
    FieldState,
    ImplicitStepper,
    MaterialParams,
    SolverError,
    SourceSpec,
    assemble,
    energy,
    gauss_residual_scale,
    gauss_residuals,
    initial_state,
    step,
)

__version__ = "0.1.0"

# ``decem.analysis`` is imported on first use of one of its names, so that a
# ``decem run`` never loads (or, without a bytecode cache, compiles) it.
_ANALYSIS_NAMES = (
    "ConvergenceReport",
    "GrowthFactorReport",
    "cavity_mode_fields",
    "convergence_study",
    "growth_factor",
    "stability_sweep",
)


def __getattr__(name):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_ANALYSIS_NAMES])
