"""Generate the bundled mesh assets (run from the repo root).

Produces, under src/decem/data/:
  icosphere_1.obj / _2.obj / _3.obj   unit spheres, 80/320/1280 faces
  cavity_1.obj / _2.obj / _3.obj      nested acute triangulations of the
                                      unit square (midpoint refinement)

The cavity base mesh is built by Delaunay + optimal-Delaunay smoothing and
then polished with a direct max-angle descent until every triangle is acute
with margin; midpoint refinement preserves triangle shapes, so the finer
levels are acute too and are exactly nested in the coarse one.

Deterministic: no randomness anywhere in the bundled assets.  The test
meshes of ``delaunay_square`` and ``jittered_icosphere`` draw from the
generator they are given; ``staggered_torus`` gives the tests a closed
surface of genus 1.
"""

import os
import sys

import numpy as np


sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from decem import mesh  # noqa: E402
from decem.mesh import subdivide  # noqa: E402  (also imported from here by bench/)

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "decem", "data")


# ----------------------------------------------------------------------
# icosphere
# ----------------------------------------------------------------------

def icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def make_icospheres():
    v, f = icosahedron()
    for level in (1, 2, 3):
        v, f = subdivide(v, f, project_unit_sphere=True)
        write_obj(os.path.join(OUT, f"icosphere_{level}.obj"), v, f)
        s = mesh.from_arrays(v, f)
        m = mesh.compute_dual_metrics(s)
        assert s.euler_characteristic == 2
        assert m.all_well_centered
        print(
            f"icosphere_{level}: V={s.n_vertices} E={s.n_edges} F={s.n_faces} "
            f"min|*e|={m.dual_edge_len.min():.4f}"
        )


# ----------------------------------------------------------------------
# acute unit-square cavity
# ----------------------------------------------------------------------

# Acute 8-triangle dissection of the unit square: two points on the left and
# right sides plus two interior points; all angles <= 85.39 degrees.  Found
# by direct min-max-angle optimization of this (combinatorially forced)
# structure; frozen here for determinism.
ACUTE8_PARAMS = (0.50000001, 0.50000211, 0.81008227, 0.43464391, 0.81008227, 0.56535609)
ACUTE8_FACES = np.array(
    [
        (0, 1, 6), (0, 6, 4), (1, 5, 6), (4, 6, 7),
        (6, 5, 7), (2, 3, 7), (2, 7, 5), (3, 4, 7),
    ],
    dtype=np.int64,
)


def acute8():
    ly, ry, px, py, qx, qy = ACUTE8_PARAMS
    verts = np.array(
        [(0, 0), (1, 0), (1, 1), (0, 1), (0, ly), (1, ry), (px, py), (qx, qy)],
        dtype=float,
    )
    return verts, ACUTE8_FACES.copy()


def angles_of(points, faces):
    p = points[faces]  # (F,3,2)
    out = np.empty((faces.shape[0], 3))
    for k in range(3):
        a = p[:, k] - p[:, (k + 1) % 3]
        b = p[:, k] - p[:, (k + 2) % 3]
        cosv = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        out[:, k] = np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))
    return out


def boundary_kind(p):
    """0 free interior, 1 slide-x (bottom/top), 2 slide-y (left/right), 3 corner."""
    on_x = (abs(p[0]) < 1e-12) or (abs(p[0] - 1) < 1e-12)
    on_y = (abs(p[1]) < 1e-12) or (abs(p[1] - 1) < 1e-12)
    if on_x and on_y:
        return 3
    if on_y:
        return 1
    if on_x:
        return 2
    return 0


def _angle_penalty_grad(pts, faces, cos_hi, cos_lo, w_lo=0.25):
    """Two-sided penalty on corner-angle cosines with exact gradient.

    Penalizes angles above acos(cos_hi) (near-right) and, with weight
    ``w_lo``, below acos(cos_lo) (slivers).
    """
    grad = np.zeros_like(pts)
    total = 0.0
    p = pts[faces]  # (F,3,2)
    for k in range(3):
        A, B, C = p[:, k], p[:, (k + 1) % 3], p[:, (k + 2) % 3]
        a, b = B - A, C - A
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        ah, bh = a / na[:, None], b / nb[:, None]
        cosv = np.einsum("ij,ij->i", ah, bh)
        # penalty gradient wrt cosv
        hi = np.maximum(cos_hi - cosv, 0.0)   # too large an angle
        lo = np.maximum(cosv - cos_lo, 0.0)   # too small an angle
        total += float((hi**2).sum() + w_lo * (lo**2).sum())
        dpen = -2.0 * hi + 2.0 * w_lo * lo
        if not np.any(dpen):
            continue
        coef = dpen[:, None]
        dB = (bh - cosv[:, None] * ah) / na[:, None]
        dC = (ah - cosv[:, None] * bh) / nb[:, None]
        dA = -dB - dC
        for slot, d in ((k, dA), ((k + 1) % 3, dB), ((k + 2) % 3, dC)):
            np.add.at(grad, faces[:, slot], coef * d)
    return total, grad


def improve_fixed_topology(pts, faces, kinds, iters=6000, step=2e-4,
                           hi_deg=80.0, lo_deg=28.0, max_allowed=85.5):
    """Gradient descent on vertex positions with the topology held fixed.

    Keeps the best iterate by (max angle, -min angle); never accepts a mesh
    whose max angle exceeds ``max_allowed`` (the base mesh is already acute).
    """
    cos_hi, cos_lo = np.cos(np.radians(hi_deg)), np.cos(np.radians(lo_deg))
    best = pts.copy()
    ang = angles_of(best, faces)
    best_key = (ang.max(), -ang.min())
    cur = pts.copy()
    for _ in range(iters):
        _, grad = _angle_penalty_grad(cur, faces, cos_hi, cos_lo)
        gn = np.linalg.norm(grad)
        if gn < 1e-14:
            break
        move = -step * grad / gn * np.sqrt(len(cur))
        for i, kind in enumerate(kinds):
            if kind == 3:
                move[i] = 0.0
            elif kind == 1:
                move[i, 1] = 0.0
            elif kind == 2:
                move[i, 0] = 0.0
        cur = np.clip(cur + move, 0.0, 1.0)
        ang = angles_of(cur, faces)
        key = (ang.max(), -ang.min())
        if key < best_key and ang.max() < max_allowed:
            best, best_key = cur.copy(), key
    return best, best_key


def make_cavities():
    v2, f = acute8()
    for _ in range(2):
        v2, f = subdivide(v2, f, project_unit_sphere=False)
    kinds = [boundary_kind(p) for p in v2]
    v2, (amax, neg_amin) = improve_fixed_topology(v2, f, kinds)
    print(f"cavity base: {len(v2)} points, angles in [{-neg_amin:.2f}, {amax:.2f}] deg")
    assert amax < 88.0, "cavity base is not acute"

    # consistent CCW orientation
    p0, p1, p2 = v2[f[:, 0]], v2[f[:, 1]], v2[f[:, 2]]
    det = (p1 - p0)[:, 0] * (p2 - p0)[:, 1] - (p1 - p0)[:, 1] * (p2 - p0)[:, 0]
    flip = det < 0
    f = f.copy()
    f[flip] = f[flip][:, [0, 2, 1]]

    v = np.column_stack([v2, np.zeros(len(v2))])
    for level in (1, 2, 3):
        write_obj(os.path.join(OUT, f"cavity_{level}.obj"), v, f)
        s = mesh.from_arrays(v, f)
        m = mesh.compute_dual_metrics(s)
        assert m.all_well_centered
        print(
            f"cavity_{level}: V={s.n_vertices} E={s.n_edges} F={s.n_faces} "
            f"min|*e|={m.dual_edge_len.min():.5f} "
            f"maxang={angles_of(v[:, :2], f).max():.2f}"
        )
        if level < 3:
            v, f = subdivide(v, f, project_unit_sphere=False)


def delaunay_square(n, rng):
    """``scipy.spatial.Delaunay`` triangulation of the (n+1)^2 grid on the
    unit square, its interior points moved by up to 0.3 h = 0.3 / n in each
    coordinate by ``rng``, every face wound counter-clockwise.  Returns
    ``(vertices, faces)``, the vertices in the plane z = 0."""
    from scipy.spatial import Delaunay

    g = np.linspace(0.0, 1.0, n + 1)
    p = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    inner = ((p > 0) & (p < 1)).all(axis=1)
    p[inner] += (0.3 / n) * rng.uniform(-1.0, 1.0, (inner.sum(), 2))
    faces = Delaunay(p).simplices
    u, w = p[faces[:, 1]] - p[faces[:, 0]], p[faces[:, 2]] - p[faces[:, 0]]
    clockwise = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0] < 0
    faces[clockwise] = faces[clockwise][:, ::-1]
    return np.column_stack([p, np.zeros(len(p))]), faces


def jittered_icosphere(level, fraction, rng):
    """The level-``level`` icosphere with each vertex moved by ``rng`` in a
    random tangential direction, by a length uniform in [0, ``fraction`` x
    the icosphere's shortest edge], then put back on the unit sphere.  Returns
    ``(vertices, faces)``.  At fraction 0.2 most seeds keep every dual edge
    positive at levels 1 and 2, with a few faces not well-centered."""
    v, f = icosahedron()
    for _ in range(level):
        v, f = subdivide(v, f, project_unit_sphere=True)
    shortest = np.linalg.norm(v[f] - v[np.roll(f, 1, axis=1)], axis=2).min()
    direction = rng.normal(size=v.shape)
    direction -= np.sum(direction * v, axis=1, keepdims=True) * v   # |v| = 1: tangential
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    v = v + fraction * shortest * rng.uniform(0.0, 1.0, (len(v), 1)) * direction
    return v / np.linalg.norm(v, axis=1, keepdims=True), f


def staggered_torus(nu, nv, R, r):
    """Torus of major radius ``R`` and minor radius ``r``: ``nv`` rings, one
    per step of the angle around the tube, of ``nu`` vertices around the
    axis, each odd ring turned by half a step, so that neighbouring rings
    zigzag into near-equilateral triangles (``nv`` even closes the zigzag).
    Every face is wound with its normal pointing out of the tube.  Returns
    ``(vertices, faces)``."""
    j, i = np.divmod(np.arange(nu * nv), nu)
    u = 2.0 * np.pi * (i + 0.5 * (j % 2)) / nu
    v = 2.0 * np.pi * j / nv
    ring = R + r * np.cos(v)
    vertices = np.column_stack([ring * np.cos(u), ring * np.sin(u), r * np.sin(v)])
    i, j = np.meshgrid(np.arange(nu), np.arange(nv))
    a, b = j * nu + i, j * nu + (i + 1) % nu              # ring j
    c, d = (j + 1) % nv * nu + i, (j + 1) % nv * nu + (i + 1) % nu   # ring j + 1
    odd = (j % 2 == 1)[..., None]
    first = np.where(odd, np.stack([a, b, d], -1), np.stack([a, b, c], -1))
    second = np.where(odd, np.stack([a, d, c], -1), np.stack([b, d, c], -1))
    return vertices, np.concatenate([first.reshape(-1, 3), second.reshape(-1, 3)])


def write_obj(path, verts, faces):
    with open(path, "w") as fh:
        fh.write("# generated by tools/make_assets.py\n")
        for p in verts:
            fh.write(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        for a, b, c in faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    make_icospheres()
    make_cavities()
