"""Conforming triangulations of the annular computational domain.

Triangles are stored counterclockwise and peak-first: the refinement edge
of newest-vertex bisection is always the edge opposite the first vertex.
Bisecting (p, a, b) at the midpoint m of (a, b) yields children
(m, p, a) and (m, b, p), which keeps both conventions intact for the
children, so the similarity classes stay bounded under repeated
refinement.

New vertices created on the outer boundary are projected radially onto
the circle r = R (the DtN circle is treated as exact); midpoints on a
circular obstacle boundary are projected the same way, while polygonal
obstacle edges keep their straight midpoints.

Vertex tags: 0 interior, 1 obstacle boundary, 2 outer boundary.  The
text format round-trips: header ``vertices V triangles T``, then V lines
``x y tag``, then T lines ``i j k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidRadii,
    NonConforming,
    OrientationError,
    ParseError,
    ThetaOutOfRange,
)

INTERIOR, OBSTACLE, OUTER = 0, 1, 2

MarkedSet = np.ndarray

_CIRCLE_RTOL = 1e-12


@dataclass
class Mesh:
    vertices: np.ndarray
    triangles: np.ndarray
    vertex_tags: np.ndarray
    generation: int = 0
    outer_radius: float = 0.0
    obstacle_radius: float | None = None

    # derived connectivity, filled by _build
    edges: np.ndarray = field(init=False, repr=False)
    edge_tags: np.ndarray = field(init=False, repr=False)
    tri_edges: np.ndarray = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.vertex_tags = np.asarray(self.vertex_tags, dtype=np.int8)
        self._build()
        self._validate()

    # -- connectivity -------------------------------------------------

    def _build(self):
        t = self.triangles
        pairs = np.concatenate(
            [t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=0
        )
        pairs_sorted = np.sort(pairs, axis=1)
        # a * n + b orders the pairs (a, b) lexicographically, as a row-wise
        # unique would, at the cost of a 1-D sort
        n = int(pairs_sorted.max(initial=0)) + 1
        keys, inverse = np.unique(
            pairs_sorted[:, 0] * n + pairs_sorted[:, 1], return_inverse=True
        )
        self.edges = np.column_stack([keys // n, keys % n])
        n_tri = t.shape[0]
        self.tri_edges = inverse.reshape(3, n_tri).T.copy()
        counts = np.bincount(inverse, minlength=len(self.edges))
        if np.any(counts > 2):
            bad = self.edges[np.argmax(counts > 2)]
            raise NonConforming(f"edge {tuple(bad)} is shared by more than 2 triangles")
        self.edge_tris = np.full((len(self.edges), 2), -1, dtype=np.int64)
        order = np.argsort(inverse, kind="stable")
        tri_of = np.tile(np.arange(n_tri), 3)[order]
        edge_of = inverse[order]
        first = np.ones(len(edge_of), dtype=bool)
        first[1:] = edge_of[1:] != edge_of[:-1]
        self.edge_tris[edge_of[first], 0] = tri_of[first]
        self.edge_tris[edge_of[~first], 1] = tri_of[~first]

        boundary = self.edge_tris[:, 1] < 0
        tag_a = self.vertex_tags[self.edges[:, 0]]
        tag_b = self.vertex_tags[self.edges[:, 1]]
        etags = np.zeros(len(self.edges), dtype=np.int8)
        same = tag_a == tag_b
        etags[boundary & same & (tag_a == OBSTACLE)] = OBSTACLE
        etags[boundary & same & (tag_a == OUTER)] = OUTER
        if np.any(boundary & (~same | (tag_a == INTERIOR))):
            k = int(np.argmax(boundary & (~same | (tag_a == INTERIOR))))
            raise NonConforming(
                f"boundary edge {tuple(self.edges[k])} has inconsistent vertex tags"
            )
        self.edge_tags = etags

    def _validate(self):
        s = np.sort(self.triangles, axis=1)
        s = s[np.lexsort(s.T[::-1])]
        if np.any(np.all(s[1:] == s[:-1], axis=1)):
            raise NonConforming("mesh contains a duplicated triangle")
        if np.any(self.signed_areas() <= 0.0):
            k = int(np.argmax(self.signed_areas() <= 0.0))
            raise OrientationError(f"triangle {k} is not counterclockwise")
        if self.outer_radius > 0.0:
            r = np.linalg.norm(self.vertices[self.vertex_tags == OUTER], axis=1)
            if r.size and np.max(np.abs(r - self.outer_radius)) > _CIRCLE_RTOL * self.outer_radius:
                raise NonConforming("an outer vertex is off the circle r = R")
        if self.obstacle_radius is not None:
            r = np.linalg.norm(self.vertices[self.vertex_tags == OBSTACLE], axis=1)
            if r.size and np.max(np.abs(r - self.obstacle_radius)) > _CIRCLE_RTOL * self.obstacle_radius:
                raise NonConforming("an obstacle vertex is off the circle r = R_hat")

    # -- geometry helpers ---------------------------------------------

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return np.linalg.norm(d, axis=1)

    def triangle_diameters(self) -> np.ndarray:
        """Longest edge per triangle (the h_K convention used throughout)."""
        return self.edge_lengths()[self.tri_edges].max(axis=1)

    def min_angle(self) -> float:
        p = self.vertices[self.triangles]
        worst = math.inf
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cosang = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            worst = min(worst, float(np.min(np.degrees(np.arccos(np.clip(cosang, -1, 1))))))
        return worst

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    def outer_vertex_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Outer-boundary vertex indices and angles, sorted by angle."""
        idx = np.flatnonzero(self.vertex_tags == OUTER)
        th = np.mod(np.arctan2(self.vertices[idx, 1], self.vertices[idx, 0]), 2 * np.pi)
        order = np.argsort(th, kind="stable")
        return idx[order], th[order]

    def counts(self) -> dict:
        return {
            "vertices": len(self.vertices),
            "triangles": len(self.triangles),
            "edges": len(self.edges),
            "obstacle_edges": int(np.sum(self.edge_tags == OBSTACLE)),
            "outer_edges": int(np.sum(self.edge_tags == OUTER)),
        }


def _peak_first(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Rotate each triangle so the longest edge is opposite vertex 0.

    Ties go to the candidate peak with the lowest global vertex index,
    which makes the assignment deterministic.
    """
    p = vertices[tris]
    L = np.stack(
        [np.linalg.norm(p[:, (k + 2) % 3] - p[:, (k + 1) % 3], axis=1) for k in range(3)],
        axis=1,
    )
    is_max = L == L.max(axis=1, keepdims=True)
    candidates = np.where(is_max, tris, np.iinfo(np.int64).max)
    peak = np.argmin(candidates, axis=1)
    rows = np.arange(len(tris))
    return np.stack(
        [tris[rows, peak], tris[rows, (peak + 1) % 3], tris[rows, (peak + 2) % 3]],
        axis=1,
    )


def generate_annulus(
    R_hat_inner: float, R: float, angular_segments: int, radial_layers: int
) -> Mesh:
    """Structured triangulation of the annulus R_hat_inner < r < R.

    Vertices sit on concentric circles; each quadrilateral cell is split
    along the diagonal from its inner-first corner.  Node count is
    angular_segments * (radial_layers + 1).
    """
    if not (0.0 < R_hat_inner < R):
        raise InvalidRadii(f"need 0 < inner < R, got inner={R_hat_inner}, R={R}")
    if angular_segments < 8:
        raise ValueError("angular_segments must be at least 8")
    if radial_layers < 1:
        raise ValueError("radial_layers must be at least 1")
    ns, nl = angular_segments, radial_layers
    radii = np.linspace(R_hat_inner, R, nl + 1)
    theta = 2.0 * np.pi * np.arange(ns) / ns
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    vertices = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=1)
    tags = np.full(len(vertices), INTERIOR, dtype=np.int8)
    tags[:ns] = OBSTACLE
    tags[-ns:] = OUTER

    tris = []
    for j in range(nl):
        for i in range(ns):
            a = j * ns + i
            b = (j + 1) * ns + i
            c = (j + 1) * ns + (i + 1) % ns
            d = j * ns + (i + 1) % ns
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris = _peak_first(vertices, np.asarray(tris, dtype=np.int64))
    return Mesh(vertices, tris, tags, 0, outer_radius=R, obstacle_radius=R_hat_inner)


def check_radii(mesh: Mesh, R_hat: float, R: float) -> None:
    """Raise InvalidRadii unless the mesh fits the DtN radii.

    The outer boundary must be the circle r = R, and every obstacle vertex
    must lie in r <= R_hat: the truncation bound eps_N assumes the
    obstacle inside the disk of radius R_hat.
    """
    if abs(mesh.outer_radius - R) > _CIRCLE_RTOL * R:
        raise InvalidRadii(
            f"the mesh's outer radius {mesh.outer_radius:.12g} differs from R = {R:.12g}"
        )
    r = np.linalg.norm(mesh.vertices[mesh.vertex_tags == OBSTACLE], axis=1)
    if r.size and r.max() > R_hat * (1.0 + _CIRCLE_RTOL):
        raise InvalidRadii(
            f"an obstacle vertex lies at r = {r.max():.12g}, outside r <= R_hat = {R_hat:.12g}"
        )


def mark(etas, theta: float) -> MarkedSet:
    """Maximum marking: indices with eta_K > theta * max eta."""
    etas = np.asarray(etas, dtype=np.float64)
    if not (0.0 < theta < 1.0):
        raise ThetaOutOfRange(f"theta must lie in (0, 1), got {theta}")
    if etas.size == 0:
        raise ValueError("need at least one triangle")
    if np.any(etas < 0.0):
        raise ValueError("estimator values must be nonnegative")
    top = etas.max()
    if top == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(etas > theta * top)


def _propagate(mesh: Mesh, edge_marked: np.ndarray):
    """Close the marked-edge set: a triangle with any marked edge must
    have its refinement edge marked too (terminates; edges only gain)."""
    ref_edge = mesh.tri_edges[:, 0]
    while True:
        tri_any = edge_marked[mesh.tri_edges].any(axis=1)
        need = tri_any & ~edge_marked[ref_edge]
        if not need.any():
            return
        edge_marked[ref_edge[need]] = True


def _midpoints(mesh: Mesh, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = 0.5 * (
        mesh.vertices[mesh.edges[edge_ids, 0]] + mesh.vertices[mesh.edges[edge_ids, 1]]
    )
    tags = mesh.edge_tags[edge_ids].copy()
    on_outer = tags == OUTER
    if on_outer.any():
        r = np.linalg.norm(p[on_outer], axis=1)
        p[on_outer] *= (mesh.outer_radius / r)[:, None]
    if mesh.obstacle_radius is not None:
        on_obs = tags == OBSTACLE
        if on_obs.any():
            r = np.linalg.norm(p[on_obs], axis=1)
            p[on_obs] *= (mesh.obstacle_radius / r)[:, None]
    return p, tags


def refine(mesh: Mesh, marked: MarkedSet) -> Mesh:
    """Newest-vertex bisection of the marked triangles, with closure."""
    marked = np.asarray(marked)
    if marked.dtype == bool:
        marked = np.flatnonzero(marked)
    marked = marked.astype(np.int64).ravel()
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= len(mesh.triangles):
        raise ValueError("marked triangle index out of range")
    edge_marked = np.zeros(len(mesh.edges), dtype=bool)
    edge_marked[mesh.tri_edges[marked, 0]] = True
    _propagate(mesh, edge_marked)
    return _split(mesh, edge_marked)


def refine_all(mesh: Mesh) -> Mesh:
    """Split every edge; every triangle becomes four children."""
    return _split(mesh, np.ones(len(mesh.edges), dtype=bool))


def _split(mesh: Mesh, edge_marked: np.ndarray) -> Mesh:
    split_ids = np.flatnonzero(edge_marked)
    mid_xy, mid_tags = _midpoints(mesh, split_ids)
    mid_index = np.full(len(mesh.edges), -1, dtype=np.int64)
    mid_index[split_ids] = len(mesh.vertices) + np.arange(len(split_ids))

    vertices = np.concatenate([mesh.vertices, mid_xy], axis=0)
    tags = np.concatenate([mesh.vertex_tags, mid_tags.astype(np.int8)])

    new_tris = []
    tri = mesh.triangles
    te = mesh.tri_edges
    for t in range(len(tri)):
        e0, e1, e2 = te[t]
        if not (edge_marked[e0] or edge_marked[e1] or edge_marked[e2]):
            new_tris.append(tuple(tri[t]))
            continue
        v0, v1, v2 = tri[t]
        m0 = mid_index[e0]
        # closure guarantees the refinement edge is split
        if edge_marked[e2]:
            m2 = mid_index[e2]
            new_tris.append((m2, m0, v0))
            new_tris.append((m2, v1, m0))
        else:
            new_tris.append((m0, v0, v1))
        if edge_marked[e1]:
            m1 = mid_index[e1]
            new_tris.append((m1, m0, v2))
            new_tris.append((m1, v0, m0))
        else:
            new_tris.append((m0, v2, v0))
    return Mesh(
        vertices,
        np.asarray(new_tris, dtype=np.int64),
        tags,
        mesh.generation + 1,
        outer_radius=mesh.outer_radius,
        obstacle_radius=mesh.obstacle_radius,
    )


# -- text format ----------------------------------------------------------


def format_rows(row_fmt: str, *columns) -> str:
    """row_fmt applied to every row of the given columns in one % operation.

    Gives the same bytes as formatting row by row, in a fraction of the
    time; the columns keep their Python types, so %d sees integers.
    """
    k = len(columns)
    n = len(columns[0])
    flat = [None] * (n * k)
    for j, col in enumerate(columns):
        flat[j::k] = np.asarray(col).tolist()
    return (row_fmt * n) % tuple(flat)


def save_mesh(mesh: Mesh, path):
    x, y = mesh.vertices.T
    i, j, k = mesh.triangles.T
    with open(path, "w") as fh:
        fh.write(f"vertices {len(mesh.vertices)} triangles {len(mesh.triangles)}\n")
        fh.write(format_rows("%.17g %.17g %d\n", x, y, mesh.vertex_tags))
        fh.write(format_rows("%d %d %d\n", i, j, k))


def save_triangle_scalars(path, values):
    """Companion export ``triangle_index value`` for plotting."""
    with open(path, "w") as fh:
        fh.write(format_rows("%d %.17g\n", np.arange(len(values)), values))


def load_mesh(path, fix_orientation: bool = False) -> Mesh:
    """Read the text format and rebuild all derived structure.

    Raises ParseError with a line number on malformed input,
    OrientationError on a clockwise triangle (unless fix_orientation),
    NonConforming on duplicated triangles or broken adjacency.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty mesh file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "vertices" or head[2] != "triangles":
        raise ParseError(f"{path}:1: expected header 'vertices V triangles T'")
    try:
        nv, nt = int(head[1]), int(head[3])
    except ValueError:
        raise ParseError(f"{path}:1: non-integer counts in header") from None
    if len(lines) < 1 + nv + nt:
        raise ParseError(f"{path}: file truncated, need {1 + nv + nt} lines")

    vertices = np.empty((nv, 2))
    tags = np.empty(nv, dtype=np.int8)
    for i in range(nv):
        parts = lines[1 + i].split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{2 + i}: expected 'x y tag'")
        try:
            vertices[i] = (float(parts[0]), float(parts[1]))
            tags[i] = int(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{2 + i}: malformed vertex line") from None
        if tags[i] not in (INTERIOR, OBSTACLE, OUTER):
            raise ParseError(f"{path}:{2 + i}: unknown tag {tags[i]}")

    tris = np.empty((nt, 3), dtype=np.int64)
    for i in range(nt):
        parts = lines[1 + nv + i].split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{2 + nv + i}: expected 'i j k'")
        try:
            tris[i] = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}:{2 + nv + i}: malformed triangle line") from None
        if tris[i].min() < 0 or tris[i].max() >= nv:
            raise ParseError(f"{path}:{2 + nv + i}: vertex index out of range")

    if fix_orientation:
        p = vertices[tris]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        flipped = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) < 0
        tris[flipped] = tris[flipped][:, [0, 2, 1]]

    outer_r = _common_radius(vertices, tags, OUTER)
    if outer_r is None:
        raise ParseError(
            f"{path}: no outer-tagged vertices, or they are not on a common circle"
        )
    obstacle_r = _common_radius(vertices, tags, OBSTACLE)
    return Mesh(
        vertices,
        _peak_first(vertices, tris),
        tags,
        0,
        outer_radius=outer_r,
        obstacle_radius=obstacle_r,
    )


def _common_radius(vertices, tags, which) -> float | None:
    r = np.linalg.norm(vertices[tags == which], axis=1)
    if r.size == 0:
        return None
    mean = float(r.mean())
    if mean > 0.0 and np.max(np.abs(r - mean)) <= _CIRCLE_RTOL * mean:
        return mean
    return None
