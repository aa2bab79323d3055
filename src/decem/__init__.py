"""Time-domain Maxwell solver on triangulated surfaces via discrete exterior calculus.

The package couples a circumcentric-dual DEC discretization of a triangulated
2-manifold with a fully implicit, unconditionally stable time integrator for
the two surface polarizations (TE: electric field on edges, magnetic on
faces; TM: the reverse), plus conservation diagnostics and a small CLI
(``decem run|check-mesh|stability|convergence``).  The growth-factor stability
analysis and the convergence study live in ``decem.analysis``, which
``import decem`` does not load, so that a ``decem run`` never compiles it.
"""

from .bundled import bundled_names, bundled_path, bundled_surface
from .config import ConfigError, RunConfig, load_config
from .dec import (
    Cochain,
    DecError,
    HodgeStars,
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
