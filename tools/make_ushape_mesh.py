"""Offline generator for the U-shaped-obstacle start mesh.

Builds an unstructured triangulation of B_3 minus a U-shaped obstacle
(opening toward +x, bounding box [-2, 2.2] x [-0.7, 0.7]) from a graded
point cloud: Delaunay, filter triangles inside the obstacle or outside
the circle, smooth interior points, and validate against the library's
mesh invariants before writing the fixture.

Usage: python tools/make_ushape_mesh.py [out_path]

Runs from any working directory; out_path defaults to the shipped
fixture, src/elastodtn/data/ushape_mesh.txt.
"""

import pathlib
import sys

import numpy as np
from scipy.spatial import Delaunay

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from elastodtn.mesh import INTERIOR, OBSTACLE, OUTER, Mesh, save_mesh  # noqa: E402

R = 3.0

# U outline, counterclockwise; interior of this polygon is the obstacle
U_POLY = np.array(
    [
        (-2.0, -0.7),
        (2.2, -0.7),
        (2.2, -0.1),
        (-1.4, -0.1),
        (-1.4, 0.1),
        (2.2, 0.1),
        (2.2, 0.7),
        (-2.0, 0.7),
    ]
)

H_OBSTACLE = 0.1  # boundary spacing along the U
N_CIRCLE = 110


def point_in_poly(pts, poly):
    """Even-odd ray casting, vectorized over pts."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(poly)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            crosses = ((y1 > y) != (y2 > y)) & (
                x < (x2 - x1) * (y - y1) / (y2 - y1) + x1
            )
            inside ^= crosses
    return inside


def dist_to_poly(pts, poly):
    d = np.full(len(pts), np.inf)
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.minimum(d, np.linalg.norm(pts - proj, axis=1))
    return d


def boundary_points():
    """Fixed points: U outline subdivided, circle ring."""
    upts = []
    seg_of = []
    for i in range(len(U_POLY)):
        a, b = U_POLY[i], U_POLY[(i + 1) % len(U_POLY)]
        length = np.linalg.norm(b - a)
        k = max(1, int(round(length / H_OBSTACLE)))
        for j in range(k):
            upts.append(a + (b - a) * j / k)
            seg_of.append(i)
    upts = np.array(upts)
    th = 2 * np.pi * np.arange(N_CIRCLE) / N_CIRCLE
    cpts = R * np.stack([np.cos(th), np.sin(th)], axis=1)
    return upts, np.array(seg_of), cpts


def interior_seed_points(upts, cpts):
    pts = []
    # graded hexagonal lattices; finer near the obstacle
    for step, d_lo, d_hi in [(0.11, 0.06, 0.50), (0.20, 0.50, 1.05), (0.30, 1.05, 99.0)]:
        xs = np.arange(-R, R + step, step)
        ys = np.arange(-R, R + step * 0.866, step * 0.866)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        xx[:, 1::2] += step / 2
        cand = np.stack([xx.ravel(), yy.ravel()], axis=1)
        r = np.linalg.norm(cand, axis=1)
        d = dist_to_poly(cand, U_POLY)
        keep = (
            (r < R - 0.55 * step)
            & ~point_in_poly(cand, U_POLY)
            & (d >= d_lo)
            & (d < d_hi)
            & (d > 0.6 * step)
        )
        pts.append(cand[keep])
    pts = np.concatenate(pts)
    # drop seeds crowding the circle ring
    dc = R - np.linalg.norm(pts, axis=1)
    return pts[dc > 0.10]


def triangulate(fixed, movable):
    pts = np.concatenate([fixed, movable])
    tri = Delaunay(pts).simplices
    cent = pts[tri].mean(axis=1)
    keep = ~point_in_poly(cent, U_POLY) & (np.linalg.norm(cent, axis=1) < R)
    tri = tri[keep]
    # enforce ccw
    p = pts[tri]
    cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    flip = cross < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return pts, tri


def smooth(fixed, movable, rounds=6):
    for _ in range(rounds):
        pts, tri = triangulate(fixed, movable)
        neigh_sum = np.zeros((len(pts), 2))
        neigh_cnt = np.zeros(len(pts))
        for k in range(3):
            a = tri[:, k]
            b = tri[:, (k + 1) % 3]
            np.add.at(neigh_sum, a, pts[b])
            np.add.at(neigh_sum, b, pts[a])
            np.add.at(neigh_cnt, a, 1)
            np.add.at(neigh_cnt, b, 1)
        target = neigh_sum / np.maximum(neigh_cnt, 1)[:, None]
        idx = np.arange(len(fixed), len(pts))
        moved = pts[idx] + 0.8 * (target[idx] - pts[idx])
        # keep smoothed points out of the obstacle and inside the circle
        bad = point_in_poly(moved, U_POLY) | (
            dist_to_poly(moved, U_POLY) < 0.045
        ) | (np.linalg.norm(moved, axis=1) > R - 0.12)
        moved[bad] = pts[idx][bad]
        movable = moved
    return fixed, movable


def main(out_path=SRC / "elastodtn" / "data" / "ushape_mesh.txt"):
    upts, seg_of, cpts = boundary_points()
    fixed = np.concatenate([upts, cpts])
    movable = interior_seed_points(upts, cpts)
    fixed, movable = smooth(fixed, movable)
    pts, tri = triangulate(fixed, movable)

    tags = np.full(len(pts), INTERIOR, dtype=np.int8)
    tags[: len(upts)] = OBSTACLE
    tags[len(upts) : len(upts) + N_CIRCLE] = OUTER

    mesh = Mesh(pts, tri, tags, 0, outer_radius=R, obstacle_radius=None)
    c = mesh.counts()
    min_angle = mesh.min_angle()
    print("counts:", c, "euler:", mesh.euler_characteristic(), f"min angle: {min_angle:.2f} deg")

    # every obstacle boundary edge must lie on a U segment
    obs_edges = mesh.edges[mesh.edge_tags == OBSTACLE]
    d = np.maximum(
        dist_to_poly(mesh.vertices[obs_edges[:, 0]], U_POLY),
        dist_to_poly(mesh.vertices[obs_edges[:, 1]], U_POLY),
    )
    mids = 0.5 * (mesh.vertices[obs_edges[:, 0]] + mesh.vertices[obs_edges[:, 1]])
    d = np.maximum(d, dist_to_poly(mids, U_POLY))
    assert d.max() < 1e-9, f"obstacle edge off the polygon: {d.max()}"
    assert c["obstacle_edges"] == len(upts), (c["obstacle_edges"], len(upts))
    assert c["outer_edges"] == N_CIRCLE
    assert min_angle >= 18.0, min_angle

    save_mesh(mesh, out_path)
    print("wrote", out_path)


if __name__ == "__main__":
    main(*sys.argv[1:])
