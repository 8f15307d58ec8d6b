"""Planar-polygon / box geometry kernel.

Fracture discs are polygonized once (regular m-gon inscribed in the circle)
and every area-against-a-box question is answered by Sutherland-Hodgman
clipping of that polygon.  Disc-disc connectivity uses the exact circular
test instead, so network topology never depends on the polygonization.

Each computation is one kernel over K stacked inputs: disc_vertices,
clip_vertices (K vertex loops against K boxes), vertex_area and
discs_intersect_many.  Every row gets the arithmetic it would get alone, so
a result does not depend on the batch it was computed in; disc_to_polygon,
clip_polygon_to_box, polygon_area and discs_intersect are the K = 1 calls.
A batch of K vertex loops has one layout: the loops back to back in one
flat (sum(count), 3) array, with count (K,) giving each loop's vertex
count; a (K, m, 3) stack of m-gons is the same rows.  clip_vertices takes
and returns it, so a pass costs the vertices still alive and loops that
die drop out of later passes; vertex_area reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The minimum area regarded as a real (positive-area) intersection.
AREA_EPS = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its two extreme corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if not np.all(self.lo < self.hi):
            raise ValueError(f"box min corner must be < max corner, got {self.lo} / {self.hi}")

    @classmethod
    def cube(cls, edge: float, center=(0.0, 0.0, 0.0)) -> "Box":
        c = np.asarray(center, dtype=float)
        h = 0.5 * float(edge)
        return cls(c - h, c + h)

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


@dataclass
class PlanarPolygon:
    """Ordered coplanar vertices with the plane's unit normal.

    An empty polygon (no intersection) keeps its plane normal and carries a
    (0, 3) vertex array.
    """

    vertices: np.ndarray
    plane_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.plane_normal = np.asarray(self.plane_normal, dtype=float)

    @classmethod
    def empty(cls, normal=(0.0, 0.0, 1.0)) -> "PlanarPolygon":
        return cls(np.zeros((0, 3)), np.asarray(normal, dtype=float))

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) < 3


def disc_to_polygon(disc, m_vertices: int = 32) -> PlanarPolygon:
    """Inscribe a regular m-gon in a disc, any object with center, normal and
    radius (wound CCW about the normal)."""
    n = np.asarray(disc.normal, dtype=float)
    verts = disc_vertices(np.asarray(disc.center, dtype=float)[None], n[None],
                          np.array([disc.radius], dtype=float), m_vertices)
    return PlanarPolygon(verts[0], n)


def disc_vertices(centers, normals, radii, m_vertices: int = 32) -> np.ndarray:
    """(K, m, 3) vertices of the regular m-gons inscribed in K discs."""
    if m_vertices < 8:
        raise ValueError("need at least 8 vertices to polygonize a disc")
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    normals = np.asarray(normals, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1, 1, 1)
    # deterministic in-plane frame; cross(e1, e2) == normal
    ref = np.where((np.abs(normals[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(ref, normals)
    e1 /= np.sqrt(np.vecdot(e1, e1))[:, None]
    e2 = np.cross(normals, e1)
    theta = 2.0 * np.pi * np.arange(m_vertices) / m_vertices
    return (
        centers[:, None, :]
        + radii * (np.cos(theta)[None, :, None] * e1[:, None, :])
        + radii * (np.sin(theta)[None, :, None] * e2[:, None, :])
    )


def _successor(count) -> np.ndarray:
    """Index of each vertex's successor around its loop, for loops of count[l]
    vertices stored back to back; a loop's last vertex wraps to its first."""
    end = np.cumsum(count)[count > 0]
    nxt = np.arange(1, count.sum() + 1)
    nxt[end - 1] = end - count[count > 0]
    return nxt


def _clip_halfspace(flat, count, d, inside):
    """One Sutherland-Hodgman pass of the loops stored back to back in flat,
    count[l] >= 3 vertices each, against the half-space d >= 0 (d per
    vertex).  Returns the clipped loops, still back to back, their vertex
    counts and which loops kept 3 vertices or more (only those are returned).

    Each vertex emits itself when inside, then its edge's crossing point when
    the edge changes side: the output is one compress of the vertices
    interleaved with their crossing slots.  The side test is exact, with no
    slack: a slack keeps vertices just outside the plane while edges are
    still cut on it, which extrapolates the cut beyond the edge and, for a
    polygon nearly parallel to the plane, counts a strip of it in the boxes
    on both sides.
    """
    nxt = _successor(count)
    cross = inside != inside[nxt]
    new_count = np.add.reduceat(inside.astype(np.intp) + cross, np.cumsum(count) - count)
    kept = new_count >= 3
    slots = np.empty((len(flat), 2, 3))
    slots[:, 0] = flat
    j = np.flatnonzero(cross)
    jn = nxt[j]
    dj = d[j]
    denom = dj - d[jn]
    t = dj / np.where(denom == 0.0, 1.0, denom)
    v = flat.take(j, axis=0)
    slots[j, 1] = v + t[:, None] * (flat.take(jn, axis=0) - v)
    # a loop either emits nothing or at least 3 vertices (an inside vertex
    # with an outside one brings two crossings), so every emitted vertex
    # belongs to a kept loop
    emit = np.stack((inside, cross), axis=1).ravel()
    return np.compress(emit, slots.reshape(-1, 3), axis=0), new_count[kept], kept


def clip_vertices(flat, count, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman of K vertex loops against K boxes [lo[k], hi[k]].

    flat (sum(count), 3) holds the loops back to back, count[k] vertices for
    loop k; a (K, m, 3) stack of m-gons is the same rows.  lo and hi are
    (K, 3), or (3,) for one box for every loop.  Returns the clipped loops
    in the same layout (flat itself when nothing is cut) and their counts;
    a loop with fewer than 3 vertices, before or after clipping, has none.

    Each half-space pass costs the vertices still alive, and is skipped when
    all of them are inside.  Every loop sees the arithmetic it would see
    alone, so a loop's result does not depend on the others.
    """
    flat = np.asarray(flat, dtype=float).reshape(-1, 3)
    count = np.asarray(count, dtype=np.intp)
    rows = len(count)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float).reshape(-1, 3), (rows, 3))
              for b in (lo, hi))
    alive = count >= 3
    if not alive.all():
        flat = flat[np.repeat(alive, count)]
    live = np.flatnonzero(alive)   # loops still alive
    n = count[live]
    for axis in range(3):
        for bound, keep_below in ((lo[:, axis], False), (hi[:, axis], True)):
            if not len(live):
                break
            b = np.repeat(bound[live], n)
            x = flat[:, axis]
            d = b - x if keep_below else x - b
            inside = d >= 0.0
            if inside.all():
                continue
            flat, n, kept = _clip_halfspace(flat, n, d, inside)
            live = live[kept]
    count = np.zeros(rows, dtype=np.intp)
    count[live] = n
    return flat, count


def clip_polygon_to_box(poly: PlanarPolygon, box: Box) -> PlanarPolygon:
    """Clip against the box's six half-spaces; <3 surviving vertices counts as empty."""
    flat, count = clip_vertices(poly.vertices, [len(poly.vertices)], box.lo, box.hi)
    if not count[0]:
        return PlanarPolygon.empty(poly.plane_normal)
    return PlanarPolygon(flat, poly.plane_normal)


def vertex_area(flat, count) -> np.ndarray:
    """Single-sided planar areas of K vertex loops stored back to back, count[k]
    vertices for loop k (Newell's formula; exact for simple planar polygons);
    loops of fewer than 3 vertices have area 0.

    Each loop's cross products are summed in vertex order (np.bincount; a
    reduceat sums pairwise, which rounds differently), and the norm is a dot
    product per loop, so an area does not depend on the other loops.
    """
    flat = np.asarray(flat, dtype=float).reshape(-1, 3)
    count = np.asarray(count, dtype=np.intp)
    loop = np.repeat(np.arange(len(count)), count)
    s = np.cross(flat, flat[_successor(count)])
    s = np.stack([np.bincount(loop, s[:, c], len(count)) for c in range(3)], axis=1)
    return np.where(count >= 3, 0.5 * np.sqrt(np.vecdot(s, s)), 0.0)


def polygon_area(poly: PlanarPolygon) -> float:
    return float(vertex_area(poly.vertices, [len(poly.vertices)])[0])


def discs_intersect(f1, f2, eps: float = 1e-9) -> bool:
    """Exact disc-disc intersection of two discs, each any object with center,
    normal and radius: the one-pair case of discs_intersect_many."""
    return bool(discs_intersect_many(f1.center, f1.normal, f1.radius,
                                     f2.center, f2.normal, f2.radius, eps)[0])


def discs_intersect_many(c1, n1, r1, c2, n2, r2, eps: float = 1e-9) -> np.ndarray:
    """Exact intersection of K disc pairs: (centers, unit normals, radii) of
    the first and of the second discs, (K, 3), (K, 3), (K,) each.

    Intersect the two carrier planes; each disc cuts a chord interval out of
    that line, and the discs intersect iff the intervals overlap by more
    than eps.  A disc that misses the line gets an inverted interval of
    half-length -sqrt(h^2 - r^2), so the overlap is negative and the verdict
    moves continuously with eps.  Parallel (and coplanar) planes are declared
    non-intersecting: that configuration has probability zero under
    continuous orientations.
    """
    c1, n1, c2, n2 = (np.asarray(a, dtype=float).reshape(-1, 3) for a in (c1, n1, c2, n2))
    r1, r2 = (np.asarray(r, dtype=float).reshape(-1) for r in (r1, r2))
    # work relative to c1, so a common translation cannot cost precision
    offset = c2 - c1

    direction = np.cross(n1, n2)
    norm2 = np.vecdot(direction, direction)
    parallel = norm2 < 1e-24
    norm2[parallel] = 1.0
    u = direction / np.sqrt(norm2)[:, None]

    # point on the intersection line: p0 = s * (n2 - (n1 . n2) n1) satisfies
    # n1 . p0 = 0, and n2 . p0 = n2 . offset for s = n2 . offset / |n1 x n2|^2
    # (unit normals), which never rounds to 0 / 0 as 1 - (n1 . n2)^2 can
    p0 = (np.vecdot(n2, offset) / norm2)[:, None] * (n2 - np.vecdot(n1, n2)[:, None] * n1)

    ends = []
    for rel, r in ((-p0, r1), (offset - p0, r2)):   # center - p0
        t = np.vecdot(u, rel)
        h = rel - t[:, None] * u
        half = r * r - np.vecdot(h, h)
        s = np.copysign(np.sqrt(np.abs(half)), half)
        ends.append((t - s, t + s))

    overlap = np.minimum(ends[0][1], ends[1][1]) - np.maximum(ends[0][0], ends[1][0])
    return (overlap > eps) & ~parallel
