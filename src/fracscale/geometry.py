"""Planar-polygon / box geometry kernel.

Fracture discs are polygonized once (regular m-gon inscribed in the circle)
and every area-against-a-box question is answered by Sutherland-Hodgman
clipping of that polygon.  Disc-disc connectivity uses the exact circular
test instead, so network topology never depends on the polygonization.
"""

from __future__ import annotations

import math
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


def disc_to_polygon(fracture, m_vertices: int = 32) -> PlanarPolygon:
    """Inscribe a regular m-gon in the fracture disc (wound CCW about the normal)."""
    if m_vertices < 8:
        raise ValueError("need at least 8 vertices to polygonize a disc")
    n = np.asarray(fracture.normal, dtype=float)
    e1, e2 = _tangent_basis(n)
    theta = 2.0 * np.pi * np.arange(m_vertices) / m_vertices
    verts = (
        np.asarray(fracture.center, dtype=float)
        + fracture.radius * np.outer(np.cos(theta), e1)
        + fracture.radius * np.outer(np.sin(theta), e2)
    )
    return PlanarPolygon(verts, n)


def _tangent_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # deterministic in-plane frame; cross(e1, e2) == normal
    ref = np.array([0.0, 0.0, 1.0]) if abs(normal[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(ref, normal)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return e1, e2


def _clip_halfspace(verts: np.ndarray, axis: int, bound: float, keep_below: bool) -> np.ndarray:
    """One Sutherland-Hodgman pass against x[axis] <= bound (or >= when keep_below=False).

    The side test is exact, with no slack: a slack keeps vertices just
    outside the plane while edges are still cut on it, which extrapolates
    the cut beyond the edge and, for a polygon nearly parallel to the plane,
    counts a strip of it in the boxes on both sides.
    """
    d = bound - verts[:, axis] if keep_below else verts[:, axis] - bound
    inside = d >= 0.0
    if inside.all():
        return verts
    if not inside.any():
        return verts[:0]
    nxt = np.roll(np.arange(len(verts)), -1)
    cross = inside != inside[nxt]
    denom = d - d[nxt]
    t = np.where(cross, d / np.where(denom == 0.0, 1.0, denom), 0.0)
    inter = verts + t[:, None] * (verts[nxt] - verts)

    counts = inside.astype(int) + cross.astype(int)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    out = np.empty((counts.sum(), 3))
    out[starts[inside]] = verts[inside]
    out[(starts + inside)[cross]] = inter[cross]
    return out


def clip_vertices(verts: np.ndarray, lo, hi) -> np.ndarray:
    """Raw Sutherland-Hodgman of a vertex loop against [lo, hi] bounds."""
    for axis in range(3):
        verts = _clip_halfspace(verts, axis, lo[axis], keep_below=False)
        if len(verts) < 3:
            return verts[:0]
        verts = _clip_halfspace(verts, axis, hi[axis], keep_below=True)
        if len(verts) < 3:
            return verts[:0]
    return verts


def clip_polygon_to_box(poly: PlanarPolygon, box: Box) -> PlanarPolygon:
    """Clip against the box's six half-spaces; <3 surviving vertices counts as empty."""
    if len(poly.vertices) < 3:
        return PlanarPolygon.empty(poly.plane_normal)
    verts = clip_vertices(poly.vertices, box.lo, box.hi)
    if len(verts) < 3:
        return PlanarPolygon.empty(poly.plane_normal)
    return PlanarPolygon(verts, poly.plane_normal)


def vertex_area(verts: np.ndarray) -> float:
    """Single-sided planar area (Newell's formula; exact for simple planar polygons)."""
    if len(verts) < 3:
        return 0.0
    s = np.cross(verts, np.roll(verts, -1, axis=0)).sum(axis=0)
    return 0.5 * float(np.linalg.norm(s))


def polygon_area(poly: PlanarPolygon) -> float:
    return vertex_area(poly.vertices)


def polygon_intersects_box(poly: PlanarPolygon, box: Box) -> bool:
    """Positive-area intersection test (touching a corner or edge does not count)."""
    return polygon_area(clip_polygon_to_box(poly, box)) > AREA_EPS


def discs_intersect(f1, f2, eps: float = 1e-9) -> bool:
    """Exact disc-disc intersection.

    Intersect the two carrier planes; each disc cuts a chord interval out of
    that line, and the discs intersect iff the intervals overlap by more
    than eps.  A disc that misses the line gets an inverted interval of
    half-length -sqrt(h^2 - r^2), so the overlap is negative and the verdict
    moves continuously with eps.  Parallel (and coplanar) planes are declared
    non-intersecting: that configuration has probability zero under
    continuous orientations.
    """
    n1 = np.asarray(f1.normal, dtype=float)
    n2 = np.asarray(f2.normal, dtype=float)
    # work relative to c1, so a common translation cannot cost precision
    offset = np.asarray(f2.center, dtype=float) - np.asarray(f1.center, dtype=float)

    direction = np.cross(n1, n2)
    norm2 = float(direction @ direction)
    if norm2 < 1e-24:
        return False
    u = direction / np.sqrt(norm2)

    # point on the intersection line: p0 = s * (n2 - (n1 . n2) n1) satisfies
    # n1 . p0 = 0, and n2 . p0 = n2 . offset for s = n2 . offset / |n1 x n2|^2
    # (unit normals), which never rounds to 0 / 0 as 1 - (n1 . n2)^2 can
    p0 = float(n2 @ offset) / norm2 * (n2 - float(n1 @ n2) * n1)

    intervals = []
    for rel, r in ((-p0, f1.radius), (offset - p0, f2.radius)):   # center - p0
        t = float(u @ rel)
        h = rel - t * u
        half = r * r - float(h @ h)
        s = math.copysign(math.sqrt(abs(half)), half)
        intervals.append((t - s, t + s))

    overlap = min(intervals[0][1], intervals[1][1]) - max(intervals[0][0], intervals[1][0])
    return overlap > eps
