"""Graded octree hexahedral control-volume mesh.

A uniform level-0 grid of edge l is refined near fractures: at each pass,
every fracture-tagged leaf and each of its face neighbors splits into eight
children of half edge, children re-tagged by clipping; after orl passes the
finest fracture cells have edge l / 2^orl.  Each leaf keeps the in-cell
area of every fracture it holds, so upscaling never clips again.  An
optional 2:1 balancing sweep limits face-level jumps to one, which keeps
two-point flux stencils sane.
Leaves are addressed by integer coordinates (level, i, j, k); neighbor
resolution walks that index lattice instead of storing pointers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import AREA_EPS, Box, clip_vertices, vertex_area

logger = logging.getLogger(__name__)

_SQRT3_HALF = np.sqrt(3.0) / 2.0


class MeshError(RuntimeError):
    pass


@dataclass(frozen=True)
class MeshParams:
    """Initial cell edge l [m], refinement levels, and 2:1 balancing flag."""

    l: float = 5.0
    orl: int = 1
    balance_2to1: bool = True

    def __post_init__(self):
        if self.l <= 0:
            raise ValueError("initial cell edge must be positive")
        if self.orl < 0:
            raise ValueError("orl must be >= 0")


def equivalent_hex_count(L: float, l: float, orl: int) -> int:
    """Vertex-counted size (L/dx + 1)^3 of a uniform grid at edge dx = l/2^orl."""
    if orl < 0:
        raise ValueError("orl must be >= 0")
    per_edge = _exact_divisions(L, l) * 2**orl
    return (per_edge + 1) ** 3


def _exact_divisions(extent: float, l: float) -> int:
    n = extent / l
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise MeshError(f"cell edge {l} does not divide extent {extent}")
    return int(round(n))


class _Leaf:
    __slots__ = ("fracture_ids", "fracture_areas")

    def __init__(self, fracture_ids: tuple = (), fracture_areas: tuple = ()):
        self.fracture_ids = fracture_ids
        self.fracture_areas = fracture_areas   # in-cell polygon area per id [m^2]

    @property
    def is_fracture(self) -> bool:
        return bool(self.fracture_ids)


class _PolyCache:
    """Per-fracture polygon vertices with AABB and plane quick-rejects."""

    def __init__(self, network, m_vertices: int = 32):
        self.verts = []
        self.lo = []
        self.hi = []
        self.point = []
        self.normal = []
        for frac, poly in zip(network.fractures, network.polygons(m_vertices)):
            self.verts.append(poly.vertices)
            lo, hi = poly.aabb()
            self.lo.append(lo)
            self.hi.append(hi)
            self.point.append(frac.center)
            self.normal.append(frac.normal)

    def area_in(self, fid: int, lo, hi, center, edge: float) -> float:
        plo, phi = self.lo[fid], self.hi[fid]
        if (plo[0] > hi[0] or phi[0] < lo[0] or plo[1] > hi[1] or phi[1] < lo[1]
                or plo[2] > hi[2] or phi[2] < lo[2]):
            return 0.0
        # the plane must pass within the cell's circumscribed sphere
        if abs(float(self.normal[fid] @ (center - self.point[fid]))) > edge * _SQRT3_HALF:
            return 0.0
        return vertex_area(clip_vertices(self.verts[fid], lo, hi))


@dataclass
class FaceSet:
    """Flat arrays describing every leaf-leaf and leaf-boundary contact."""

    cell_a: np.ndarray
    cell_b: np.ndarray   # -1 on boundary faces
    area: np.ndarray
    d_a: np.ndarray      # perpendicular distance, cell_a center to face plane
    d_b: np.ndarray
    axis: np.ndarray
    btag: np.ndarray     # -1 interior, else boundary plane code

    def __len__(self) -> int:
        return len(self.cell_a)


class OctreeMesh:
    """Leaf store plus, after finalize(), flat per-cell arrays and faces."""

    BTAG_INTERIOR = -1
    BTAG_XMIN, BTAG_XMAX = 0, 1
    BTAG_YMIN, BTAG_YMAX = 2, 3
    BTAG_ZMIN, BTAG_ZMAX = 4, 5

    def __init__(self, domain: Box, l: float):
        self.domain = domain
        self.l = float(l)
        self.n0 = tuple(_exact_divisions(domain.hi[a] - domain.lo[a], l) for a in range(3))
        self.leaves: dict[tuple, _Leaf] = {}
        self.max_level = 0
        self.m_vertices = None   # disc polygonization the leaf areas were clipped from
        self._final = False

    # -- index geometry ----------------------------------------------------

    def cell_edge(self, level: int) -> float:
        return self.l / 2**level

    def grid_dims(self, level: int) -> tuple:
        return tuple(n * 2**level for n in self.n0)

    def cell_bounds(self, key) -> tuple[np.ndarray, np.ndarray]:
        level, i, j, k = key
        edge = self.cell_edge(level)
        lo = self.domain.lo + edge * np.array([i, j, k], dtype=float)
        return lo, lo + edge

    def cell_box(self, key) -> Box:
        lo, hi = self.cell_bounds(key)
        return Box(lo, hi)

    @property
    def num_cells(self) -> int:
        return len(self.keys) if self._final else len(self.leaves)

    # -- construction ------------------------------------------------------

    def split(self, key, cache: _PolyCache | None = None) -> list:
        """Replace a leaf by its 8 children, re-tagging and re-measuring by clipping."""
        leaf = self.leaves.pop(key)
        if leaf.is_fracture and cache is None:
            raise MeshError("splitting a fracture leaf requires the polygon cache")
        level, i, j, k = key
        child_level = level + 1
        edge = self.cell_edge(child_level)
        out = []
        for dk, dj, di in product((0, 1), repeat=3):
            ck = (child_level, 2 * i + di, 2 * j + dj, 2 * k + dk)
            if leaf.is_fracture:
                lo = self.domain.lo + edge * np.array(ck[1:], dtype=float)
                hi = lo + edge
                center = lo + 0.5 * edge
                ids, areas = [], []
                for fid in leaf.fracture_ids:
                    area = cache.area_in(fid, lo, hi, center, edge)
                    if area > AREA_EPS:
                        ids.append(fid)
                        areas.append(area)
                self.leaves[ck] = _Leaf(tuple(ids), tuple(areas))
            else:
                self.leaves[ck] = _Leaf()
            out.append(ck)
        self.max_level = max(self.max_level, child_level)
        return out

    def _resolve_neighbors(self, level: int, idx: tuple, axis: int, side: int) -> list:
        """Leaf keys covering the neighbor region of a same-level index."""
        key = (level, *idx)
        if key in self.leaves:
            return [key]
        lvl, ii = level, idx
        while lvl > 0:
            lvl -= 1
            ii = tuple(x >> 1 for x in ii)
            up = (lvl, *ii)
            if up in self.leaves:
                return [up]
        found = []
        stack = [(level, idx)]
        while stack:
            lvl, ii = stack.pop()
            if lvl >= self.max_level:
                continue
            for child in self._face_children(ii, axis, side):
                ck = (lvl + 1, *child)
                if ck in self.leaves:
                    found.append(ck)
                else:
                    stack.append((lvl + 1, child))
        return found

    @staticmethod
    def _face_children(idx: tuple, axis: int, side: int):
        """Children of a cell index lying on the face that looks back toward -side."""
        lohi = [(0, 1)] * 3
        lohi[axis] = (0,) if side > 0 else (1,)
        for da in lohi[0]:
            for db in lohi[1]:
                for dc in lohi[2]:
                    yield (2 * idx[0] + da, 2 * idx[1] + db, 2 * idx[2] + dc)

    def face_neighbor_keys(self, key) -> list:
        level, i, j, k = key
        dims = self.grid_dims(level)
        out = []
        for axis in range(3):
            for side in (-1, 1):
                idx = [i, j, k]
                idx[axis] += side
                if idx[axis] < 0 or idx[axis] >= dims[axis]:
                    continue
                out.extend(self._resolve_neighbors(level, tuple(idx), axis, side))
        return out

    def balance(self, cache: _PolyCache | None = None) -> None:
        """Split leaves until no face joins cells more than one level apart."""
        while True:
            to_split = []
            for key in self.leaves:
                level = key[0]
                for nb in self.face_neighbor_keys(key):
                    if nb[0] - level >= 2:
                        to_split.append(key)
                        break
            if not to_split:
                return
            for key in sorted(to_split):
                self.split(key, cache)

    # -- finalized arrays ----------------------------------------------------

    def finalize(self) -> "OctreeMesh":
        keys = sorted(self.leaves)
        self.keys = keys
        self.key_index = {k: n for n, k in enumerate(keys)}
        self.level = np.array([k[0] for k in keys], dtype=int)
        self.edge = self.l / 2.0 ** self.level
        ijk = np.array([k[1:] for k in keys], dtype=float) if keys else np.zeros((0, 3))
        self.center = self.domain.lo + self.edge[:, None] * (ijk + 0.5)
        self.volume = self.edge**3
        self.is_fracture = np.array([self.leaves[k].is_fracture for k in keys], dtype=bool)
        self.fracture_ids = [self.leaves[k].fracture_ids for k in keys]
        self.fracture_areas = [self.leaves[k].fracture_areas for k in keys]
        self._final = True
        return self

    @property
    def faces(self) -> FaceSet:
        if not hasattr(self, "_faces"):
            raise MeshError("call build_face_adjacency(mesh) first")
        return self._faces


def build_initial_grid(domain: Box, l: float) -> OctreeMesh:
    """Uniform level-0 grid; every domain edge must be an integer multiple of l."""
    mesh = OctreeMesh(domain, l)
    nx, ny, nz = mesh.n0
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                mesh.leaves[(0, i, j, k)] = _Leaf()
    return mesh


def tag_fracture_cells(mesh: OctreeMesh, network, m_vertices: int = 32) -> OctreeMesh:
    """Mark level-0 cells with positive-area fracture intersections.

    Point or edge contacts (zero area) do not tag a cell; a fracture lying
    exactly on a shared cell face tags both cells.  Each tagged leaf stores
    the clipped area of every fracture it holds.
    """
    if any(key[0] != 0 for key in mesh.leaves):
        raise MeshError("tag_fracture_cells expects the unrefined initial grid")
    cache = _PolyCache(network, m_vertices)
    edge = mesh.cell_edge(0)
    dims = mesh.grid_dims(0)
    hits: dict[tuple, tuple[list, list]] = {}
    for fid in range(len(cache.verts)):
        lo_idx = np.floor((cache.lo[fid] - mesh.domain.lo) / edge).astype(int)
        hi_idx = np.floor((cache.hi[fid] - mesh.domain.lo) / edge).astype(int)
        lo_idx = np.maximum(lo_idx, 0)
        hi_idx = np.minimum(hi_idx, np.array(dims) - 1)
        for i in range(lo_idx[0], hi_idx[0] + 1):
            for j in range(lo_idx[1], hi_idx[1] + 1):
                for k in range(lo_idx[2], hi_idx[2] + 1):
                    key = (0, i, j, k)
                    lo, hi = mesh.cell_bounds(key)
                    area = cache.area_in(fid, lo, hi, lo + 0.5 * edge, edge)
                    if area > AREA_EPS:
                        ids, areas = hits.setdefault(key, ([], []))
                        ids.append(fid)
                        areas.append(area)
    for key, (ids, areas) in hits.items():
        mesh.leaves[key] = _Leaf(tuple(ids), tuple(areas))
    mesh._cache = cache
    mesh.m_vertices = m_vertices
    return mesh


def build_mesh(domain: Box, network, params: MeshParams, m_vertices: int = 32) -> OctreeMesh:
    """Grid, tag, refine, balance, and build faces in one call."""
    mesh = build_initial_grid(domain, params.l)
    tag_fracture_cells(mesh, network, m_vertices)
    refine(mesh, network, params.orl, params.balance_2to1, m_vertices)
    build_face_adjacency(mesh)
    return mesh


def refine(mesh: OctreeMesh, network, orl: int, balance: bool = True,
           m_vertices: int = 32) -> OctreeMesh:
    """Apply orl fracture-neighborhood refinement passes, then balance.

    Each pass recomputes the fracture leaves and their face neighbors from
    the current mesh, so newly produced children participate in later
    passes.  Balancing only ever splits matrix cells (fracture leaves are
    already at the finest level) and never un-tags anything.
    """
    if orl < 0:
        raise ValueError("orl must be >= 0")
    cache = getattr(mesh, "_cache", None) or _PolyCache(network, m_vertices)
    for sweep in range(orl):
        frac_keys = [k for k, leaf in mesh.leaves.items() if leaf.is_fracture]
        to_split = set(frac_keys)
        for key in frac_keys:
            to_split.update(mesh.face_neighbor_keys(key))
        for key in sorted(to_split):
            mesh.split(key, cache)
        logger.debug("refinement pass %d: %d leaves", sweep + 1, len(mesh.leaves))
    if balance:
        mesh.balance(cache)
    return mesh.finalize()


_BOUNDARY_TAGS = {
    (0, -1): OctreeMesh.BTAG_XMIN, (0, 1): OctreeMesh.BTAG_XMAX,
    (1, -1): OctreeMesh.BTAG_YMIN, (1, 1): OctreeMesh.BTAG_YMAX,
    (2, -1): OctreeMesh.BTAG_ZMIN, (2, 1): OctreeMesh.BTAG_ZMAX,
}


def build_face_adjacency(mesh: OctreeMesh) -> FaceSet:
    """Enumerate every positive-area leaf contact once, plus boundary faces.

    Across a graded interface the coarse cell sees one face per finer
    neighbor, each with the finer cell's face area; distances are exact
    center-to-plane distances.  Requires a 2:1-balanced mesh.
    """
    if not mesh._final:
        mesh.finalize()
    cell_a, cell_b, area, d_a, d_b, axes, btag = [], [], [], [], [], [], []

    for ia, key in enumerate(mesh.keys):
        level, i, j, k = key
        dims = mesh.grid_dims(level)
        edge = mesh.cell_edge(level)
        for axis in range(3):
            for side in (-1, 1):
                idx = [i, j, k]
                idx[axis] += side
                if idx[axis] < 0 or idx[axis] >= dims[axis]:
                    cell_a.append(ia)
                    cell_b.append(-1)
                    area.append(edge * edge)
                    d_a.append(0.5 * edge)
                    d_b.append(0.0)
                    axes.append(axis)
                    btag.append(_BOUNDARY_TAGS[(axis, side)])
                    continue
                if side < 0:
                    continue  # interior contacts are built from the low side only
                for nb in mesh._resolve_neighbors(level, tuple(idx), axis, side):
                    ib = mesh.key_index[nb]
                    if abs(nb[0] - level) > 1:
                        raise MeshError(
                            f"face between levels {level} and {nb[0]} violates 2:1 balance"
                        )
                    fine_edge = min(edge, mesh.cell_edge(nb[0]))
                    cell_a.append(ia)
                    cell_b.append(ib)
                    area.append(fine_edge * fine_edge)
                    d_a.append(0.5 * edge)
                    d_b.append(0.5 * mesh.cell_edge(nb[0]))
                    axes.append(axis)
                    btag.append(OctreeMesh.BTAG_INTERIOR)

    faces = FaceSet(
        cell_a=np.asarray(cell_a, dtype=int),
        cell_b=np.asarray(cell_b, dtype=int),
        area=np.asarray(area, dtype=float),
        d_a=np.asarray(d_a, dtype=float),
        d_b=np.asarray(d_b, dtype=float),
        axis=np.asarray(axes, dtype=int),
        btag=np.asarray(btag, dtype=int),
    )
    mesh._faces = faces
    return faces


# ---------------------------------------------------------------------------
# export

_HEX_OFFSETS = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)


def write_vtk(mesh: OctreeMesh, path, cell_data: dict | None = None,
              title: str = "octree continuum mesh") -> None:
    """Legacy-ASCII VTK unstructured grid with hexahedral cells."""
    n = mesh.num_cells
    data = {"level": mesh.level.astype(int), "is_fracture": mesh.is_fracture.astype(int)}
    data.update(cell_data or {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {8 * n} double\n")
        for idx in range(n):
            lo = mesh.center[idx] - 0.5 * mesh.edge[idx]
            for off in _HEX_OFFSETS:
                pt = lo + mesh.edge[idx] * off
                fh.write(f"{pt[0]:.10g} {pt[1]:.10g} {pt[2]:.10g}\n")
        fh.write(f"CELLS {n} {9 * n}\n")
        for idx in range(n):
            base = 8 * idx
            fh.write("8 " + " ".join(str(base + v) for v in range(8)) + "\n")
        fh.write(f"CELL_TYPES {n}\n")
        fh.writelines("12\n" for _ in range(n))
        fh.write(f"CELL_DATA {n}\n")
        for name, values in data.items():
            values = np.asarray(values)
            kind = "int" if values.dtype.kind in "iub" else "double"
            fh.write(f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n")
            if kind == "int":
                fh.writelines(f"{int(v)}\n" for v in values)
            else:
                fh.writelines(f"{v:.17g}\n" for v in values)


def write_cell_csv(mesh: OctreeMesh, path, props=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = "id,level,cx,cy,cz,edge,is_fracture,n_fractures"
        if props is not None:
            header += ",permeability,porosity,fracture_porosity"
        fh.write(header + "\n")
        for idx in range(mesh.num_cells):
            row = (
                f"{idx},{mesh.level[idx]},{mesh.center[idx][0]:.17g},"
                f"{mesh.center[idx][1]:.17g},{mesh.center[idx][2]:.17g},"
                f"{mesh.edge[idx]:.17g},{int(mesh.is_fracture[idx])},"
                f"{len(mesh.fracture_ids[idx])}"
            )
            if props is not None:
                row += (
                    f",{props.permeability[idx]:.17g},{props.porosity[idx]:.17g},"
                    f"{props.fracture_porosity[idx]:.17g}"
                )
            fh.write(row + "\n")


def write_face_csv(mesh: OctreeMesh, path) -> None:
    faces = mesh.faces
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cell_a,cell_b,axis,area,d_a,d_b,btag\n")
        for n in range(len(faces)):
            fh.write(
                f"{faces.cell_a[n]},{faces.cell_b[n]},{faces.axis[n]},"
                f"{faces.area[n]:.17g},{faces.d_a[n]:.17g},{faces.d_b[n]:.17g},"
                f"{faces.btag[n]}\n"
            )
