"""Connection, curvature and the static field equation on a closed surface.

An edge cochain A plays the role of a connection; its exterior derivative
F = dA is the curvature per face.  Shifting A by the gradient of any vertex
function leaves F untouched (gauge invariance), and the static field
equation is the stationarity condition of the quadratic action
<dA, dA>/2 - <A, J>, which we verify here against finite differences.
"""

import numpy as np

from decem import (
    Cochain, bundled, build_hodge_stars, compute_dual_metrics,
    continuity_defect, curvature, d, field_action, gauge_transform,
    maxwell_residual,
)

surface = bundled.bundled_surface("icosphere_1.obj")
metrics = compute_dual_metrics(surface)
stars = build_hodge_stars(surface, metrics)
rng = np.random.default_rng(2)

A = Cochain(surface, 1, "primal", rng.normal(size=surface.n_edges))
F = curvature(A)
print(f"random connection: max |F| = {np.abs(F.values).max():.4f}")
print(f"total curvature on the closed surface = {F.values.sum():+.2e} (zero by Stokes)")

f = Cochain(surface, 0, "primal", rng.normal(size=surface.n_vertices))
F2 = curvature(gauge_transform(A, f))
print(f"gauge shift changes F by {np.abs(F2.values - F.values).max():.2e}")

# a divergence-free current: the circulation of a random face potential
psi = rng.normal(size=surface.n_faces)
J = Cochain(surface, 1, "primal", (surface.d1.T @ psi) / stars.star1)
print(f"continuity defect of the crafted current: "
      f"{np.abs(continuity_defect(J, stars)).max():.2e}")

res = maxwell_residual(A, J, stars)
print(f"static-equation residual of the random A: |r| = {np.abs(res.values).max():.4f}")

# the residual is the gradient of the action: check one random direction
direction = rng.normal(size=surface.n_edges)
delta = 1e-6
up = Cochain(surface, 1, "primal", A.values + delta * direction)
down = Cochain(surface, 1, "primal", A.values - delta * direction)
fd = (field_action(up, J, stars) - field_action(down, J, stars)) / (2 * delta)
print(f"directional derivative: finite difference {fd:+.8f} "
      f"vs residual pairing {res.values @ direction:+.8f}")
