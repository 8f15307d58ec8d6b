import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from fracscale.geometry import (
    Box,
    PlanarPolygon,
    clip_polygon_to_box,
    disc_to_polygon,
    discs_intersect,
    polygon_area,
    polygon_intersects_box,
)

from conftest import make_disc


def inscribed_area(m, r=1.0):
    return 0.5 * m * np.sin(2.0 * np.pi / m) * r * r


vectors = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
normals = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda n: np.linalg.norm(n) > 0.1)
discs = st.builds(lambda c, n, r: make_disc(0, c, n, r), vectors, normals, st.floats(0.1, 3.0))


def square_polygon(side=1.0, z=0.0):
    h = side / 2.0
    verts = np.array([[-h, -h, z], [h, -h, z], [h, h, z], [-h, h, z]])
    return PlanarPolygon(verts, np.array([0.0, 0.0, 1.0]))


class TestDiscToPolygon:
    def test_area_matches_inscribed_polygon_formula(self):
        poly = disc_to_polygon(make_disc(0, (0, 0, 0), (0, 0, 1), 1.0), 32)
        assert polygon_area(poly) == pytest.approx(inscribed_area(32), rel=1e-12)
        assert polygon_area(poly) == pytest.approx(3.1214, abs=5e-4)

    def test_vertices_lie_in_plane(self):
        poly = disc_to_polygon(make_disc(0, (0, 0, 0), (0, 0, 1), 1.0), 32)
        assert np.all(np.abs(poly.vertices[:, 2]) < 1e-15)

    def test_vertices_on_circle_for_tilted_disc(self):
        f = make_disc(0, (1.0, -2.0, 3.0), (1, 1, 1), 2.5)
        poly = disc_to_polygon(f, 40)
        radii = np.linalg.norm(poly.vertices - f.center, axis=1)
        assert np.allclose(radii, 2.5, rtol=1e-12)
        assert np.all(np.abs((poly.vertices - f.center) @ f.normal) < 1e-12)

    def test_monotone_convergence_from_below(self):
        f = make_disc(0, (0, 0, 0), (0, 0, 1), 1.0)
        a32 = polygon_area(disc_to_polygon(f, 32))
        a64 = polygon_area(disc_to_polygon(f, 64))
        assert a32 < a64 < np.pi

    def test_quadratic_convergence_rate(self):
        f = make_disc(0, (0, 0, 0), (0, 1, 0), 1.0)
        err = [np.pi - polygon_area(disc_to_polygon(f, m)) for m in (32, 64, 128)]
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.02)
        assert err[1] / err[2] == pytest.approx(4.0, rel=0.02)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            disc_to_polygon(make_disc(0, (0, 0, 0), (0, 0, 1), 1.0), 4)


class TestClipPolygonToBox:
    @pytest.mark.parametrize("tilt", [1e-13, 1e-12, 2e-12, 1e-11, 1e-9])
    def test_nearly_in_plane_polygon_split_once(self, tilt):
        # a polygon within a hair of the shared face z = 0 is cut on it, not
        # kept whole on both sides
        poly = disc_to_polygon(make_disc(0, (0.1, 0, 0), (tilt, 0.3 * tilt, 1), 1.0), 32)
        below = polygon_area(clip_polygon_to_box(poly, Box((-5, -5, -5), (5, 5, 0))))
        above = polygon_area(clip_polygon_to_box(poly, Box((-5, -5, 0), (5, 5, 5))))
        assert below + above == pytest.approx(polygon_area(poly), rel=1e-12)

    def test_polygon_inside_box_unchanged(self):
        poly = square_polygon(1.0)
        out = clip_polygon_to_box(poly, Box.cube(10.0))
        assert np.array_equal(out.vertices, poly.vertices)

    def test_polygon_outside_halfspace_is_empty(self):
        poly = square_polygon(1.0, z=20.0)
        out = clip_polygon_to_box(poly, Box.cube(10.0))
        assert out.is_empty
        assert polygon_area(out) == 0.0

    def test_quadrant_clip_area(self):
        poly = square_polygon(1.0)
        out = clip_polygon_to_box(poly, Box(np.zeros(3) - np.array([0, 0, 1.0]), np.full(3, 10.0)))
        assert polygon_area(out) == pytest.approx(0.25, rel=1e-12)

    def test_idempotent(self):
        box = Box.cube(2.0)
        poly = disc_to_polygon(make_disc(0, (0.7, 0.2, 0.1), (1, 2, 3), 1.7), 32)
        once = clip_polygon_to_box(poly, box)
        twice = clip_polygon_to_box(once, box)
        assert len(once.vertices) == len(twice.vertices)
        assert np.allclose(once.vertices, twice.vertices, atol=1e-12)

    def test_octant_area_additivity(self):
        box = Box.cube(2.0)
        poly = disc_to_polygon(make_disc(0, (0.2, -0.1, 0.05), (1, 1, 2), 1.4), 32)
        whole = polygon_area(clip_polygon_to_box(poly, box))
        total = 0.0
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    lo = box.lo + np.array([dx, dy, dz])
                    total += polygon_area(clip_polygon_to_box(poly, Box(lo, lo + 1.0)))
        assert total == pytest.approx(whole, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(discs, vectors, st.floats(0.2, 4.0))
    def test_clipping_never_adds_area(self, disc, center, edge):
        poly = disc_to_polygon(disc, 32)
        clipped = polygon_area(clip_polygon_to_box(poly, Box.cube(edge, center)))
        assert clipped <= polygon_area(poly) * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(discs.filter(lambda d: np.abs(d.normal).max() <= 0.999), vectors,
           st.floats(0.2, 4.0))
    def test_octant_areas_sum_to_box_area(self, disc, center, edge):
        # axis-aligned planes are excluded: the clipper's boxes are closed, so
        # a polygon lying in an octant face counts in both octants (the octree
        # gives such a polygon to the upper cell only)
        box = Box.cube(edge, center)
        poly = disc_to_polygon(disc, 32)
        whole = polygon_area(clip_polygon_to_box(poly, box))
        mid = box.center
        total = 0.0
        for upper in np.indices((2, 2, 2)).reshape(3, -1).T.astype(bool):
            octant = Box(np.where(upper, mid, box.lo), np.where(upper, box.hi, mid))
            total += polygon_area(clip_polygon_to_box(poly, octant))
        # rounding leaves slivers with areas near 1e-12
        assert total == pytest.approx(whole, rel=1e-9, abs=1e-12)


class TestPolygonArea:
    def test_empty_polygon(self):
        assert polygon_area(PlanarPolygon.empty()) == 0.0

    def test_unit_square(self):
        assert polygon_area(square_polygon(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_32gon_radius_two(self):
        poly = disc_to_polygon(make_disc(0, (0, 0, 0), (0, 0, 1), 2.0), 32)
        assert polygon_area(poly) == pytest.approx(inscribed_area(32, 2.0), rel=1e-12)
        assert polygon_area(poly) == pytest.approx(12.4855, abs=2e-3)


class TestDiscsIntersect:
    def test_nearly_parallel_planes_do_not_divide_by_zero(self):
        # 1 - cos^2 rounds to 0 here although |n1 x n2|^2 = 1e-18 is not
        a = make_disc(0, (0, 0, 0), (0, 0, 1), 1.0)
        b = make_disc(1, (0, 0, 0), (0, 1e-9, 1), 1.0)
        assert discs_intersect(a, b)
        assert discs_intersect(b, a)

    def test_tangent_disc_verdict_continuous_in_eps(self):
        # b touches a's plane in one point of a: zero overlap
        a = make_disc(0, (0, 0, 0), (0, 0, 1), 1.0)
        b = make_disc(1, (0, 0, 1), (1, 0, 0), 1.0)
        assert not discs_intersect(a, b, 1e-9)
        assert discs_intersect(a, b, -1e-9)

    def test_separated_discs(self):
        a = make_disc(0, (0, 0, 0), (1, 0, 0), 1.0)
        b = make_disc(1, (0, 0, 3), (0, 1, 0), 1.0)
        assert not discs_intersect(a, b)

    def test_orthogonal_discs_through_common_center(self):
        a = make_disc(0, (0, 0, 0), (0, 0, 1), 1.0)
        b = make_disc(1, (0, 0, 0), (1, 0, 0), 1.0)
        assert discs_intersect(a, b)

    def test_chord_overlap_vanishes_at_separation_two(self):
        a = make_disc(0, (0, 0, 0), (0, 0, 1), 1.0)
        near = make_disc(1, (0, 1.999, 0), (1, 0, 0), 1.0)
        far = make_disc(2, (0, 2.001, 0), (1, 0, 0), 1.0)
        assert discs_intersect(a, near)
        assert not discs_intersect(a, far)

    def test_parallel_planes_never_intersect(self):
        a = make_disc(0, (0, 0, 0), (0, 0, 1), 5.0)
        b = make_disc(1, (0, 0, 1e-6), (0, 0, 1), 5.0)
        assert not discs_intersect(a, b)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c1, c2 = rng.normal(size=3), rng.normal(size=3)
            n1, n2 = rng.normal(size=3), rng.normal(size=3)
            a = make_disc(0, c1, n1, rng.uniform(0.2, 2.0))
            b = make_disc(1, c2, n2, rng.uniform(0.2, 2.0))
            assert discs_intersect(a, b) == discs_intersect(b, a)

    @settings(max_examples=200, deadline=None)
    @given(discs, discs, st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: np.linalg.norm(q) > 0.1), st.tuples(*[st.floats(-10.0, 10.0)] * 3))
    def test_symmetric_and_rigid_motion_invariant(self, a, b, q, shift):
        eps = 1e-9
        # skip pairs whose chord overlap lies within 1e-6 of eps
        assume(discs_intersect(a, b, eps - 1e-6) == discs_intersect(a, b, eps + 1e-6))
        rotation = Rotation.from_quat(q).as_matrix()

        def moved(f):
            return make_disc(f.id, rotation @ f.center + np.asarray(shift),
                             rotation @ f.normal, f.radius, f.aperture)

        verdict = discs_intersect(a, b, eps)
        assert discs_intersect(b, a, eps) == verdict
        assert discs_intersect(moved(a), moved(b), eps) == verdict


class TestPolygonIntersectsBox:
    def test_inside(self):
        assert polygon_intersects_box(square_polygon(1.0), Box.cube(10.0))

    def test_plane_disjoint(self):
        assert not polygon_intersects_box(square_polygon(1.0, z=7.0), Box.cube(10.0))

    def test_corner_point_contact_does_not_count(self):
        # square touching the box only at the corner (1,1,*): zero-area contact
        h = 0.5
        verts = np.array([[1, 1, 0], [2, 1, 0], [2, 2, 0], [1, 2, 0]], dtype=float)
        poly = PlanarPolygon(verts, np.array([0.0, 0.0, 1.0]))
        box = Box(np.array([0.0, 0.0, -h]), np.array([1.0, 1.0, h]))
        assert not polygon_intersects_box(poly, box)

    def test_consistent_with_clip(self):
        rng = np.random.default_rng(11)
        box = Box.cube(3.0)
        for _ in range(100):
            f = make_disc(0, rng.normal(scale=2.0, size=3), rng.normal(size=3), rng.uniform(0.3, 2.0))
            poly = disc_to_polygon(f, 24)
            clipped_area = polygon_area(clip_polygon_to_box(poly, box))
            assert polygon_intersects_box(poly, box) == (clipped_area > 1e-12)


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(np.ones(3), np.zeros(3))

    def test_volume_and_center(self):
        box = Box(np.array([0.0, 0.0, 0.0]), np.array([2.0, 3.0, 4.0]))
        assert box.volume == pytest.approx(24.0)
        assert np.allclose(box.center, [1.0, 1.5, 2.0])
