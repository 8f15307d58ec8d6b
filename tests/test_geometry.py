import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from fracscale.geometry import Box, clip_vertices, disc_vertices, discs_intersect_many, vertex_area

from conftest import clip_loop, clipped_area, intersects, loop_area, make_disc, polygon


def inscribed_area(m, r=1.0):
    return 0.5 * m * np.sin(2.0 * np.pi / m) * r * r


vectors = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
normals = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda n: np.linalg.norm(n) > 0.1)
discs = st.builds(make_disc, vectors, normals, st.floats(0.1, 3.0))


def square(side=1.0, z=0.0):
    h = side / 2.0
    return np.array([[-h, -h, z], [h, -h, z], [h, h, z], [-h, h, z]])


class TestDiscVertices:
    def test_area_matches_inscribed_polygon_formula(self):
        poly = polygon(make_disc((0, 0, 0), (0, 0, 1), 1.0), 32)
        assert loop_area(poly) == pytest.approx(inscribed_area(32), rel=1e-12)
        assert loop_area(poly) == pytest.approx(3.1214, abs=5e-4)

    def test_vertices_lie_in_plane(self):
        poly = polygon(make_disc((0, 0, 0), (0, 0, 1), 1.0), 32)
        assert np.all(np.abs(poly[:, 2]) < 1e-15)

    def test_vertices_on_circle_for_tilted_disc(self):
        f = make_disc((1.0, -2.0, 3.0), (1, 1, 1), 2.5)
        poly = polygon(f, 40)
        radii = np.linalg.norm(poly - f.center, axis=1)
        assert np.allclose(radii, 2.5, rtol=1e-12)
        assert np.all(np.abs((poly - f.center) @ f.normal) < 1e-12)

    def test_monotone_convergence_from_below(self):
        f = make_disc((0, 0, 0), (0, 0, 1), 1.0)
        a32 = loop_area(polygon(f, 32))
        a64 = loop_area(polygon(f, 64))
        assert a32 < a64 < np.pi

    def test_quadratic_convergence_rate(self):
        f = make_disc((0, 0, 0), (0, 1, 0), 1.0)
        err = [np.pi - loop_area(polygon(f, m)) for m in (32, 64, 128)]
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.02)
        assert err[1] / err[2] == pytest.approx(4.0, rel=0.02)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            polygon(make_disc((0, 0, 0), (0, 0, 1), 1.0), 4)


class TestClipOneLoop:
    @pytest.mark.parametrize("tilt", [1e-13, 1e-12, 2e-12, 1e-11, 1e-9])
    def test_nearly_in_plane_polygon_split_once(self, tilt):
        # a polygon within a hair of the shared face z = 0 is cut on it, not
        # kept whole on both sides
        poly = polygon(make_disc((0.1, 0, 0), (tilt, 0.3 * tilt, 1), 1.0), 32)
        below = clipped_area(poly, (-5, -5, -5), (5, 5, 0))
        above = clipped_area(poly, (-5, -5, 0), (5, 5, 5))
        assert below + above == pytest.approx(loop_area(poly), rel=1e-12)

    def test_polygon_inside_box_unchanged(self):
        poly = square(1.0)
        box = Box.cube(10.0)
        assert np.array_equal(clip_loop(poly, box.lo, box.hi), poly)

    def test_polygon_outside_halfspace_is_empty(self):
        box = Box.cube(10.0)
        verts, count = clip_vertices(square(1.0, z=20.0), [4], box.lo, box.hi)
        assert verts.shape == (0, 3) and count.tolist() == [0]
        assert vertex_area(verts, count).tolist() == [0.0]

    def test_quadrant_clip_area(self):
        assert clipped_area(square(1.0), (0, 0, -1), (10, 10, 10)) == pytest.approx(0.25, rel=1e-12)

    def test_idempotent(self):
        box = Box.cube(2.0)
        poly = polygon(make_disc((0.7, 0.2, 0.1), (1, 2, 3), 1.7), 32)
        once = clip_loop(poly, box.lo, box.hi)
        twice = clip_loop(once, box.lo, box.hi)
        assert len(once) == len(twice)
        assert np.allclose(once, twice, atol=1e-12)

    def test_octant_area_additivity(self):
        box = Box.cube(2.0)
        poly = polygon(make_disc((0.2, -0.1, 0.05), (1, 1, 2), 1.4), 32)
        whole = clipped_area(poly, box.lo, box.hi)
        total = 0.0
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    lo = box.lo + np.array([dx, dy, dz])
                    total += clipped_area(poly, lo, lo + 1.0)
        assert total == pytest.approx(whole, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(discs, vectors, st.floats(0.2, 4.0))
    def test_clipping_never_adds_area(self, disc, center, edge):
        poly = polygon(disc, 32)
        box = Box.cube(edge, center)
        assert clipped_area(poly, box.lo, box.hi) <= loop_area(poly) * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(discs.filter(lambda d: np.abs(d.normal).max() <= 0.999), vectors,
           st.floats(0.2, 4.0))
    def test_octant_areas_sum_to_box_area(self, disc, center, edge):
        # axis-aligned planes are excluded: the clipper's boxes are closed, so
        # a polygon lying in an octant face counts in both octants (the octree
        # gives such a polygon to the upper cell only)
        box = Box.cube(edge, center)
        poly = polygon(disc, 32)
        whole = clipped_area(poly, box.lo, box.hi)
        mid = box.center
        total = 0.0
        for upper in np.indices((2, 2, 2)).reshape(3, -1).T.astype(bool):
            total += clipped_area(poly, np.where(upper, mid, box.lo), np.where(upper, box.hi, mid))
        # rounding leaves slivers with areas near 1e-12
        assert total == pytest.approx(whole, rel=1e-9, abs=1e-12)


def reference_clip(loop, lo, hi):
    """Per-loop Sutherland-Hodgman with the kernel's per-vertex arithmetic."""
    for axis in range(3):
        for bound, keep_below in ((lo[axis], False), (hi[axis], True)):
            out = []
            n = len(loop)
            for i in range(n):
                v, w = loop[i], loop[(i + 1) % n]
                d = bound - v[axis] if keep_below else v[axis] - bound
                dw = bound - w[axis] if keep_below else w[axis] - bound
                if d >= 0.0:
                    out.append(v)
                if (d >= 0.0) != (dw >= 0.0):
                    denom = d - dw
                    t = d / (1.0 if denom == 0.0 else denom)
                    out.append(v + t * (w - v))
            loop = np.array(out).reshape(-1, 3)
            if len(loop) < 3:
                return loop[:0]
    return loop


def reference_area(loop):
    """Newell's formula on one unpadded loop."""
    if len(loop) < 3:
        return 0.0
    return 0.5 * float(np.linalg.norm(np.cross(loop, np.roll(loop, -1, axis=0)).sum(axis=0)))


def _axis_normal(axis):
    return np.eye(3)[axis]


@st.composite
def loop_and_box(draw):
    """One convex loop and one box: general, lying in a face, wholly inside,
    wholly outside, or touching the box along one edge only."""
    lo = np.array(draw(vectors))
    hi = lo + np.array(draw(st.tuples(*[st.floats(0.1, 3.0)] * 3)))
    m = draw(st.integers(8, 24))
    kind = draw(st.sampled_from(["general", "face", "inside", "outside", "edge"]))
    if kind == "general":
        disc = draw(discs)
        return disc_vertices(disc.center, disc.normal, [disc.radius], m)[0], lo, hi
    if kind == "face":
        # in the plane of the box's lower or upper face on one axis
        axis = draw(st.integers(0, 2))
        center = np.array(draw(vectors))
        center[axis] = (hi if draw(st.booleans()) else lo)[axis]
        radius = draw(st.floats(0.1, 3.0))
        return disc_vertices(center, _axis_normal(axis), [radius], m)[0], lo, hi
    if kind == "inside":
        disc = draw(discs)
        radius = 0.45 * (hi - lo).min()
        return disc_vertices(0.5 * (lo + hi), disc.normal, [radius], m)[0], lo, hi
    if kind == "outside":
        disc = draw(discs)
        return disc_vertices(hi + disc.radius + 1.0, disc.normal, [disc.radius], m)[0], lo, hi
    # a square in a plane z = const through the box, outside it in x except
    # for its edge on the face x = hi
    z = lo[2] + draw(st.floats(0.0, 1.0)) * (hi[2] - lo[2])
    y0, y1 = lo[1], hi[1]
    x0 = hi[0]
    return np.array([[x0, y0, z], [x0 + 1.0, y0, z], [x0 + 1.0, y1, z], [x0, y1, z]]), lo, hi


def _ragged(loops):
    """The loops back to back and their vertex counts: the kernel's layout."""
    return (np.concatenate([np.reshape(loop, (-1, 3)) for loop in loops]),
            np.array([len(loop) for loop in loops]))


def _split(flat, count):
    """One array per loop of the back-to-back layout."""
    assert len(flat) == count.sum()
    return np.split(flat, np.cumsum(count)[:-1])


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(loop_and_box(), min_size=1, max_size=12))
    def test_rows_equal_single_calls_bit_for_bit(self, rows):
        loops, lo, hi = zip(*rows)
        got, got_count = clip_vertices(*_ragged(loops), np.array(lo), np.array(hi))
        areas = vertex_area(got, got_count)
        for k, (loop, clipped) in enumerate(zip(loops, _split(got, got_count))):
            one, one_count = clip_vertices(loop, [len(loop)], lo[k], hi[k])
            want = reference_clip(loop, lo[k], hi[k])
            assert got_count[k] == one_count[0] == len(want)
            assert np.array_equal(clipped, one)
            assert np.array_equal(clipped, want)
            assert areas[k] == vertex_area(one, one_count)[0] == reference_area(want)

    def test_mixed_batch_equals_per_loop_reference(self):
        # rows that die at each of the six half-spaces, rows no half-space
        # touches and rows cut by several, with input counts 3 to M
        M = 12
        lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 1.5, 0.75])
        mid = 0.5 * (lo + hi)
        rng = np.random.default_rng(7)
        loops, dies_at = [], []

        def polygon(center, radius, m):
            n = rng.normal(size=3)
            e1 = np.cross(n, rng.normal(size=3))
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n / np.linalg.norm(n), e1)
            theta = 2.0 * np.pi * np.arange(m) / m
            return center + radius * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)

        for m in range(3, M + 1):
            for axis in range(3):
                for side, bound in ((0, lo), (1, hi)):
                    # wholly beyond one face and inside every earlier plane
                    center = mid.copy()
                    center[axis] = bound[axis] + (0.3 if side else -0.3)
                    loops.append(polygon(center, 0.1, m))
                    dies_at.append(2 * axis + side)
            loops.append(polygon(mid, 0.1, m))        # untouched
            dies_at.append(None)
            for corner in (lo, hi, np.array([lo[0], hi[1], lo[2]])):
                # centred just inside a corner, so it keeps some area
                inward = np.sign(mid - corner) * rng.uniform(0.05, 0.15, 3)
                loops.append(polygon(corner + inward, 0.6, m))
                dies_at.append(-1)                    # cut by several planes
        order = rng.permutation(len(loops))
        loops = [loops[k] for k in order]
        dies_at = [dies_at[k] for k in order]
        verts, count = _ragged(loops)
        assert count.max() == M and count.min() == 3
        got, got_count = clip_vertices(verts, count, np.tile(lo, (len(loops), 1)),
                                       np.tile(hi, (len(loops), 1)))
        areas = vertex_area(got, got_count)
        clipped = _split(got, got_count)
        for k, (loop, fate) in enumerate(zip(loops, dies_at)):
            want = reference_clip(loop, lo, hi)
            assert got_count[k] == len(want)
            assert np.array_equal(clipped[k], want)
            assert areas[k] == reference_area(want)
            if fate is None:
                assert np.array_equal(want, loop)
            elif fate >= 0:
                assert got_count[k] == 0
        cut = [k for k, fate in enumerate(dies_at) if fate == -1]
        assert all(got_count[k] and not np.array_equal(clipped[k], loops[k]) for k in cut)

    def test_short_loops_between_live_loops(self):
        # loops of 0, 1 and 2 vertices sit between live loops: each live
        # loop still gets its single-call vertices and area, and a short
        # loop's cross products stay out of its neighbours' sums
        box = np.full(3, -0.5), np.full(3, 0.5)
        live = [disc_vertices([0.2, 0.1, 0.3], [1, 2, 3], [0.9], m)[0] for m in (8, 32, 12)]
        none, one = np.zeros((0, 3)), np.array([[0.1, 0.2, 0.3]])
        two = np.array([[0.1, 0.2, 0.3], [0.3, -0.2, 0.1]])
        loops = [live[0], none, live[1], one, two, live[2], two, none]
        flat, count = _ragged(loops)
        got, got_count = clip_vertices(flat, count, *box)
        areas = vertex_area(got, got_count)
        whole = vertex_area(flat, count)
        for k, (loop, clipped) in enumerate(zip(loops, _split(got, got_count))):
            single, single_count = clip_vertices(loop, [len(loop)], *box)
            assert got_count[k] == single_count[0] == len(single)
            assert np.array_equal(clipped, single)
            assert areas[k] == vertex_area(single, single_count)[0]
            assert whole[k] == vertex_area(loop, [len(loop)])[0] == reference_area(loop)
        assert got_count[[0, 2, 5]].min() >= 3 and areas[[0, 2, 5]].min() > 0.0

    def test_lying_in_box_faces(self):
        # closed boxes: a loop in the top face is kept whole, one in no face
        # of the box is dropped; a (K, m, 3) stack is the same rows
        loop = disc_vertices([0.5, 0.5, 1.0], [0, 0, 1], [0.3], 16)
        verts, count = clip_vertices(np.repeat(loop, 2, axis=0), [16, 16],
                                     [[0, 0, 0], [0, 0, 2]], [[1, 1, 1], [1, 1, 3]])
        assert count.tolist() == [16, 0]
        assert np.array_equal(verts, loop[0])

    def test_edge_contact_has_no_area(self):
        loop = np.array([[1.0, 0, 0.5], [2.0, 0, 0.5], [2.0, 1, 0.5], [1.0, 1, 0.5]])
        verts, count = clip_vertices(loop, [4], np.zeros(3), np.ones(3))
        assert vertex_area(verts, count)[0] == 0.0

    def test_no_rows_and_short_loops(self):
        verts, count = clip_vertices(np.zeros((0, 3)), np.zeros(0, dtype=int),
                                     np.zeros((0, 3)), np.ones((0, 3)))
        assert verts.shape == (0, 3) and count.shape == (0,)
        assert vertex_area(verts, count).shape == (0,)
        two = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
        verts, count = clip_vertices(two, [2], np.zeros(3), np.ones(3))
        assert verts.shape == (0, 3) and count.tolist() == [0]
        assert vertex_area(two, [2]).tolist() == [0.0]


class TestDiscsIntersectMany:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(discs, discs), min_size=1, max_size=20))
    def test_rows_equal_single_pairs(self, pairs):
        a, b = zip(*pairs)
        got = discs_intersect_many(
            [f.center for f in a], [f.normal for f in a], [f.radius for f in a],
            [f.center for f in b], [f.normal for f in b], [f.radius for f in b])
        assert got.dtype == bool
        assert got.tolist() == [intersects(f, g) for f, g in pairs]

    def test_parallel_rows_do_not_poison_the_batch(self):
        flat = make_disc((0, 0, 0), (0, 0, 1), 1.0)
        parallel = make_disc((0, 0, 1e-3), (0, 0, 1), 1.0)
        crossing = make_disc((0, 0, 0), (1, 0, 0), 1.0)
        got = discs_intersect_many(
            [flat.center] * 2, [flat.normal] * 2, [1.0, 1.0],
            [parallel.center, crossing.center], [parallel.normal, crossing.normal], [1.0, 1.0])
        assert got.tolist() == [False, True]


class TestPolygonArea:
    def test_unit_square(self):
        assert loop_area(square(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_32gon_radius_two(self):
        poly = polygon(make_disc((0, 0, 0), (0, 0, 1), 2.0), 32)
        assert loop_area(poly) == pytest.approx(inscribed_area(32, 2.0), rel=1e-12)
        assert loop_area(poly) == pytest.approx(12.4855, abs=2e-3)


class TestDiscsIntersect:
    def test_nearly_parallel_planes_do_not_divide_by_zero(self):
        # 1 - cos^2 rounds to 0 here although |n1 x n2|^2 = 1e-18 is not
        a = make_disc((0, 0, 0), (0, 0, 1), 1.0)
        b = make_disc((0, 0, 0), (0, 1e-9, 1), 1.0)
        assert intersects(a, b)
        assert intersects(b, a)

    def test_tangent_disc_verdict_continuous_in_eps(self):
        # b touches a's plane in one point of a: zero overlap
        a = make_disc((0, 0, 0), (0, 0, 1), 1.0)
        b = make_disc((0, 0, 1), (1, 0, 0), 1.0)
        assert not intersects(a, b, 1e-9)
        assert intersects(a, b, -1e-9)

    def test_separated_discs(self):
        a = make_disc((0, 0, 0), (1, 0, 0), 1.0)
        b = make_disc((0, 0, 3), (0, 1, 0), 1.0)
        assert not intersects(a, b)

    def test_orthogonal_discs_through_common_center(self):
        a = make_disc((0, 0, 0), (0, 0, 1), 1.0)
        b = make_disc((0, 0, 0), (1, 0, 0), 1.0)
        assert intersects(a, b)

    def test_chord_overlap_vanishes_at_separation_two(self):
        a = make_disc((0, 0, 0), (0, 0, 1), 1.0)
        near = make_disc((0, 1.999, 0), (1, 0, 0), 1.0)
        far = make_disc((0, 2.001, 0), (1, 0, 0), 1.0)
        assert intersects(a, near)
        assert not intersects(a, far)

    def test_parallel_planes_never_intersect(self):
        a = make_disc((0, 0, 0), (0, 0, 1), 5.0)
        b = make_disc((0, 0, 1e-6), (0, 0, 1), 5.0)
        assert not intersects(a, b)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c1, c2 = rng.normal(size=3), rng.normal(size=3)
            n1, n2 = rng.normal(size=3), rng.normal(size=3)
            a = make_disc(c1, n1, rng.uniform(0.2, 2.0))
            b = make_disc(c2, n2, rng.uniform(0.2, 2.0))
            assert intersects(a, b) == intersects(b, a)

    @settings(max_examples=200, deadline=None)
    @given(discs, discs, st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: np.linalg.norm(q) > 0.1), st.tuples(*[st.floats(-10.0, 10.0)] * 3))
    def test_symmetric_and_rigid_motion_invariant(self, a, b, q, shift):
        eps = 1e-9
        # skip pairs whose chord overlap lies within 1e-6 of eps
        assume(intersects(a, b, eps - 1e-6) == intersects(a, b, eps + 1e-6))
        rotation = Rotation.from_quat(q).as_matrix()

        def moved(f):
            return make_disc(rotation @ f.center + np.asarray(shift),
                             rotation @ f.normal, f.radius, f.aperture)

        verdict = intersects(a, b, eps)
        assert intersects(b, a, eps) == verdict
        assert intersects(moved(a), moved(b), eps) == verdict


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(np.ones(3), np.zeros(3))

    def test_volume_and_center(self):
        box = Box(np.array([0.0, 0.0, 0.0]), np.array([2.0, 3.0, 4.0]))
        assert box.volume == pytest.approx(24.0)
        assert np.allclose(box.center, [1.0, 1.5, 2.0])
