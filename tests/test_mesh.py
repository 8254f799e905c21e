"""Mesh generation, refinement, marking, and the text format."""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodtn import example1_config, example1_mesh, example2_mesh
from elastodtn.assembly import SolutionField, element_matrices
from elastodtn.driver import RunHistory, _write_run_outputs
from elastodtn.errors import (
    InvalidParameter,
    InvalidRadii,
    NonConforming,
    OrientationError,
    ParseError,
    SingularElement,
    ThetaOutOfRange,
)
from elastodtn.mesh import (
    INTERIOR,
    OBSTACLE,
    OUTER,
    Mesh,
    _midpoints,
    _propagate,
    generate_annulus,
    load_mesh,
    mark,
    refine,
    refine_all,
    save_mesh,
)


class TestGenerateAnnulus:
    def test_coarse_counts(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        c = m.counts()
        assert c["vertices"] == 16
        assert c["triangles"] == 16
        assert c["obstacle_edges"] == 8
        assert c["outer_edges"] == 8

    def test_euler_characteristic_64x4(self):
        m = generate_annulus(0.5, 1.0, 64, 4)
        c = m.counts()
        assert c["vertices"] == 320
        assert c["triangles"] == 512
        assert c["edges"] == 832
        assert m.euler_characteristic() == 0  # annulus: one hole

    def test_invalid_radii(self):
        with pytest.raises(InvalidRadii):
            generate_annulus(1.0, 1.0, 8, 1)
        with pytest.raises(InvalidRadii):
            generate_annulus(2.0, 1.0, 8, 1)

    def test_node_count_formula(self):
        m = generate_annulus(0.5, 1.0, 16, 3)
        assert len(m.vertices) == 16 * 4

    def test_boundary_vertices_on_circles(self):
        m = generate_annulus(0.5, 1.0, 32, 2)
        r_outer = np.linalg.norm(m.vertices[m.vertex_tags == OUTER], axis=1)
        r_inner = np.linalg.norm(m.vertices[m.vertex_tags == OBSTACLE], axis=1)
        assert np.max(np.abs(r_outer - 1.0)) <= 1e-12
        assert np.max(np.abs(r_inner - 0.5)) <= 1e-12


class TestMark:
    def test_direct_comparison(self):
        assert list(mark([1.0, 0.6, 0.4], 0.5)) == [0, 1]

    def test_all_equal_marks_everything(self):
        assert list(mark([0.3, 0.3, 0.3], 0.5)) == [0, 1, 2]

    def test_all_zero_marks_nothing(self):
        assert len(mark([0.0, 0.0], 0.5)) == 0

    def test_theta_out_of_range(self):
        for theta in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ThetaOutOfRange):
                mark([1.0], theta)


class TestRefine:
    def test_mark_all_splits_every_triangle(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        r = refine(m, np.arange(16))
        assert len(r.vertices) > len(m.vertices)
        assert r.euler_characteristic() == 0
        assert r.generation == 1
        # every original triangle was bisected at least once
        assert len(r.triangles) >= 2 * 16

    def test_single_interior_mark_stays_local(self):
        m = generate_annulus(0.5, 1.0, 16, 4)
        interior_tris = [
            t
            for t in range(len(m.triangles))
            if np.all(m.vertex_tags[m.triangles[t]] == 0)
        ]
        r = refine(m, np.array([interior_tris[0]]))
        assert r.euler_characteristic() == 0
        # closure refines a bounded neighbourhood, not the whole mesh
        assert len(r.triangles) < len(m.triangles) + 12

    def test_outer_edge_midpoint_projected(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        outer_tris = np.flatnonzero(
            (m.edge_tags[m.tri_edges] == OUTER).any(axis=1)
        )
        r = refine(m, outer_tris[:1])
        new_outer = np.flatnonzero(r.vertex_tags == OUTER)
        radii = np.linalg.norm(r.vertices[new_outer], axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-12

    def test_obstacle_midpoints_projected(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        r = refine_all(m)
        radii = np.linalg.norm(r.vertices[r.vertex_tags == OBSTACLE], axis=1)
        assert np.max(np.abs(radii - 0.5)) <= 1e-12

    def test_uniform_two_rounds_quadruple(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        r = refine_all(refine_all(m))
        assert len(r.triangles) == 256

    def test_conformity_and_euler_across_six_rounds(self, rng):
        m = generate_annulus(0.5, 1.0, 16, 2)
        for _ in range(6):
            n = len(m.triangles)
            marked = rng.choice(n, size=max(1, n // 4), replace=False)
            m = refine(m, marked)  # Mesh.__post_init__ re-validates conformity
            assert m.euler_characteristic() == 0
        r_outer = np.linalg.norm(m.vertices[m.vertex_tags == OUTER], axis=1)
        assert np.max(np.abs(r_outer - 1.0)) <= 1e-12

    def test_min_angle_bounded_across_rounds(self, rng):
        """Shape regularity: bisection cycles through finitely many
        similarity classes, so the angle cannot degenerate."""
        m = generate_annulus(0.5, 1.0, 64, 4)
        initial = m.min_angle()
        for _ in range(6):
            n = len(m.triangles)
            marked = rng.choice(n, size=max(1, n // 5), replace=False)
            m = refine(m, marked)
            assert m.min_angle() >= 10.0
        # on this mesh family the class bound sits essentially at the
        # initial angle; allow a small drop, not a drift
        assert m.min_angle() >= initial - 0.5

    def test_min_angle_stabilizes_under_uniform(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        angles = []
        for _ in range(7):
            m = refine_all(m)
            angles.append(m.min_angle())
        assert all(a >= 10.0 for a in angles)
        # decrements shrink as similarity classes saturate
        drops = [angles[i] - angles[i + 1] for i in range(len(angles) - 1)]
        assert drops[-1] <= 0.25 * drops[0] + 1e-12

    def test_empty_marking_is_identity(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        assert refine(m, np.array([], dtype=int)) is m

    def test_mesh_without_radii_refines_with_straight_midpoints(self):
        """An outer radius of 0 and no obstacle radius mean straight
        boundaries, for the refinement as for the validation."""
        m = generate_annulus(0.5, 1.0, 16, 2)
        bare = Mesh(m.vertices, m.triangles, m.vertex_tags)
        r = refine_all(bare)
        straight = 0.5 * (m.vertices[bare.edges[:, 0]] + m.vertices[bare.edges[:, 1]])
        assert np.array_equal(r.vertices[len(m.vertices):], straight)
        assert len(r.triangles) == 4 * len(m.triangles)

    def test_boolean_mask_accepted(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        mask = np.zeros(16, dtype=bool)
        mask[3] = True
        r = refine(m, mask)
        assert len(r.triangles) > 16


class TestTextFormat:
    def canonical(self, m):
        order = np.lexsort((m.vertices[:, 1], m.vertices[:, 0]))
        remap = np.empty(len(order), dtype=int)
        remap[order] = np.arange(len(order))
        tris = {tuple(sorted(remap[t])) for t in m.triangles}
        return np.round(m.vertices[order], 12).tolist(), tris

    def test_round_trip_against_generator(self, tmp_path):
        m = generate_annulus(0.5, 1.0, 8, 1)
        path = tmp_path / "annulus.txt"
        save_mesh(m, path)
        loaded = load_mesh(path)
        assert self.canonical(m) == self.canonical(loaded)
        assert loaded.outer_radius == pytest.approx(1.0)
        assert loaded.obstacle_radius == pytest.approx(0.5)

    def test_duplicated_triangle_rejected(self, tmp_path):
        m = generate_annulus(0.5, 1.0, 8, 1)
        path = tmp_path / "dup.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        lines[0] = "vertices 16 triangles 17"
        lines.append(lines[-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonConforming):
            load_mesh(path)

    def test_clockwise_triangle_rejected_by_default(self, tmp_path):
        m = generate_annulus(0.5, 1.0, 8, 1)
        path = tmp_path / "cw.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        i, j, k = lines[-1].split()
        lines[-1] = f"{i} {k} {j}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(OrientationError):
            load_mesh(path)

    def test_non_finite_vertex_rejected(self, tmp_path):
        m = generate_annulus(0.5, 1.0, 8, 2)
        path = tmp_path / "nan.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        assert lines[1 + 9].endswith(" 0")  # vertex 9 is interior
        lines[1 + 9] = "nan 0.75 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameter, match=r"vertex 9 is not finite: \(nan, 0.75\)"):
            load_mesh(path)

    @pytest.mark.parametrize(
        "mutation, message_part",
        [
            (lambda lines: ["nonsense"] + lines[1:], "header"),
            (lambda lines: lines[:1] + ["1 2"] + lines[2:], "x y tag"),
            (lambda lines: lines[:-1] + ["0 1 99"], "out of range"),
            (lambda lines: lines[:8], "truncated"),
            (lambda lines: ["vertices -1 triangles 0"], ":1: negative counts"),
        ],
    )
    def test_parse_errors_carry_position(self, tmp_path, mutation, message_part):
        m = generate_annulus(0.5, 1.0, 8, 1)
        path = tmp_path / "bad.txt"
        save_mesh(m, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutation(lines)) + "\n")
        with pytest.raises(ParseError, match=message_part):
            load_mesh(path)

    def test_triangle_scalar_export(self, tmp_path):
        # |(0.75, 1j)| = 1.25 on every triangle, exact in binary
        m = generate_annulus(0.5, 1.0, 8, 1)
        values = np.tile([0.75, 1j], (len(m.vertices), 1))
        field = SolutionField(m, example1_config(), values, np.zeros(len(m.vertices), dtype=bool))
        report = types.SimpleNamespace(eta=np.zeros(len(m.triangles)))
        _write_run_outputs(RunHistory([], None, field, 0.0, report, "rounds"), tmp_path)
        lines = (tmp_path / "magnitude_final.txt").read_text().splitlines()
        assert lines == [f"{i} 1.25" for i in range(16)]


def lexicographic_connectivity(triangles):
    """Edges by a row-wise unique of the sorted vertex pairs; each edge's
    triangles in order of first appearance, local edge k before k + 1."""
    pairs = np.concatenate(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]]
    )
    edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    tri_edges = inverse.reshape(3, -1).T
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    for k in range(3):
        for t, e in enumerate(tri_edges[:, k]):
            edge_tris[e, 0 if edge_tris[e, 0] < 0 else 1] = t
    return edges, tri_edges, edge_tris


class TestMeshClassInvariants:
    @pytest.mark.parametrize("mesh_name", ["ex1-0", "ex1-1", "ex1-2", "ushape"])
    def test_connectivity_matches_lexicographic_build(self, mesh_name):
        if mesh_name == "ushape":
            m = example2_mesh()
        else:
            m = example1_mesh()
            for _ in range(int(mesh_name[-1])):
                m = refine_all(m)
        edges, tri_edges, edge_tris = lexicographic_connectivity(m.triangles)
        assert np.array_equal(m.edges, edges)
        assert np.array_equal(m.tri_edges, tri_edges)
        assert np.array_equal(m.edge_tris, edge_tris)

    def test_duplicated_triangle_direct_construction(self):
        # every edge is shared by exactly the two copies, so only the
        # duplicate-triangle check can reject this
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [1, 2, 0]])
        with pytest.raises(NonConforming, match="duplicated triangle"):
            Mesh(verts, tris, np.zeros(3, dtype=np.int8))

    def test_nonconforming_direct_construction(self):
        verts = np.array([[0, 0], [1, 0], [0, 1], [0, -1], [1, 1]])
        tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])  # (0,1) in three triangles
        with pytest.raises(NonConforming) as exc:
            Mesh(verts, tris, np.zeros(5, dtype=np.int8), outer_radius=0.0)
        assert str(exc.value) == "edge (0, 1) is shared by more than 2 triangles"

    def test_refinement_edge_is_longest(self):
        m = generate_annulus(0.5, 1.0, 8, 1)
        lengths = m.edge_lengths
        tri_lengths = lengths[m.tri_edges]
        assert np.allclose(tri_lengths[:, 0], tri_lengths.max(axis=1))

    @pytest.mark.parametrize("name", ["areas", "gradients", "edge_lengths", "diameters"])
    def test_cached_geometry_is_read_only(self, name):
        m = generate_annulus(0.5, 1.0, 8, 1)
        cached = getattr(m, name)
        assert getattr(m, name) is cached
        with pytest.raises(ValueError):
            cached[0] = 1.0

    def test_non_finite_vertex_direct_construction(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]])
        with pytest.raises(InvalidParameter, match=r"vertex 2 is not finite: \(0.0, inf\)"):
            Mesh(verts, np.array([[0, 1, 2]]), np.full(3, OUTER, dtype=np.int8))

    def test_overflowing_area_is_rejected(self):
        # finite vertices whose cross product overflows: inf - inf = nan
        verts = np.array([[0.0, 0.0], [2e200, 1e200], [1e200, 2e200]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OrientationError, match="triangle 0 .* signed area nan"):
            Mesh(verts, np.array([[0, 1, 2]]), np.full(3, OUTER, dtype=np.int8))

    def test_singular_element(self):
        # counterclockwise, so the mesh is accepted, but with area 5e-18
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-17]])
        m = Mesh(verts, np.array([[0, 1, 2]]), np.full(3, OUTER, dtype=np.int8))
        assert 0.0 < m.areas[0] < 1e-16
        with pytest.raises(SingularElement):
            m.gradients
        with pytest.raises(SingularElement):
            element_matrices(m, example1_config(N=0))


def loop_split(mesh, edge_marked):
    """Bisection of the triangles with split edges, one triangle at a time:
    the reference for the vectorized refinement."""
    split_ids = np.flatnonzero(edge_marked)
    mid_xy, mid_tags = _midpoints(mesh, split_ids)
    mid_index = np.full(len(mesh.edges), -1, dtype=np.int64)
    mid_index[split_ids] = len(mesh.vertices) + np.arange(len(split_ids))
    new_tris = []
    for t in range(len(mesh.triangles)):
        e0, e1, e2 = mesh.tri_edges[t]
        if not (edge_marked[e0] or edge_marked[e1] or edge_marked[e2]):
            new_tris.append(tuple(mesh.triangles[t]))
            continue
        v0, v1, v2 = mesh.triangles[t]
        m0 = mid_index[e0]
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
    return (
        np.concatenate([mesh.vertices, mid_xy]),
        np.asarray(new_tris, dtype=np.int64),
        np.concatenate([mesh.vertex_tags, mid_tags.astype(np.int8)]),
    )


class TestSplitMatchesLoop:
    @staticmethod
    def assert_same(refined, reference):
        vertices, triangles, tags = reference
        assert np.array_equal(refined.vertices, vertices)
        assert np.array_equal(refined.triangles, triangles)
        assert np.array_equal(refined.vertex_tags, tags)

    @pytest.mark.parametrize("make_mesh", [example1_mesh, example2_mesh])
    def test_random_marks(self, make_mesh):
        rng = np.random.default_rng(7)
        m = make_mesh()
        for _ in range(7):
            marked = rng.choice(len(m.triangles), size=len(m.triangles) // 10, replace=False)
            edge_marked = np.zeros(len(m.edges), dtype=bool)
            edge_marked[m.tri_edges[marked, 0]] = True
            _propagate(m, edge_marked)
            refined = refine(m, marked)
            self.assert_same(refined, loop_split(m, edge_marked))
            m = refined

    @pytest.mark.parametrize("make_mesh", [example1_mesh, example2_mesh])
    def test_refine_all(self, make_mesh):
        m = make_mesh()
        self.assert_same(refine_all(m), loop_split(m, np.ones(len(m.edges), dtype=bool)))


# -- refinement properties over random marking sequences ---------------------


@functools.cache
def initial_mesh(example):
    return example1_mesh() if example == 1 else example2_mesh()


def cap_area(a, m, b):
    """Area of the triangle (a, m, b), one row per edge."""
    u, v = m - a, b - a
    return 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


@settings(max_examples=50, deadline=None, database=None)
@given(example=st.sampled_from([1, 2]), data=st.data())
def test_refinement_properties(example, data):
    """Random marking sequences keep the mesh conforming with a constant
    Euler characteristic, change the area only by the caps of projected
    boundary midpoints, and put a new vertex first in every child."""
    m = initial_mesh(example)
    euler = m.euler_characteristic()
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        n = len(m.triangles)
        marked = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40), label="marked")
        )
        edge_marked = np.zeros(len(m.edges), dtype=bool)
        edge_marked[m.tri_edges[marked, 0]] = True
        _propagate(m, edge_marked)
        refined = refine(m, marked)

        # (a) conforming: every edge with one triangle lies on the boundary
        on_boundary = refined.edge_tris[:, 1] < 0
        assert np.all(refined.edge_tags[on_boundary] != INTERIOR)
        assert np.all(refined.edge_tags[~on_boundary] == INTERIOR)
        assert refined.euler_characteristic() == euler

        # (b) the area moves by the caps between chord and projected midpoint
        split = np.flatnonzero(edge_marked)
        a = m.vertices[m.edges[split, 0]]
        b = m.vertices[m.edges[split, 1]]
        mid = refined.vertices[len(m.vertices):]
        assert len(mid) == len(split)
        caps = cap_area(a, mid, b)
        tags = m.edge_tags[split]
        gain = caps[tags == OUTER].sum()
        if m.obstacle_radius is not None:
            gain -= caps[tags == OBSTACLE].sum()
        total = m.areas.sum()
        assert refined.areas.sum() - total == pytest.approx(gain, abs=1e-12 * total)

        # (c) vertex 0 of every child is the new midpoint
        children = (refined.triangles >= len(m.vertices)).any(axis=1)
        assert np.all(refined.triangles[children, 0] >= len(m.vertices))
        m = refined
