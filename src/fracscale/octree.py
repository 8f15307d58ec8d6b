"""Graded octree hexahedral control-volume mesh.

A uniform level-0 grid of edge l is refined near fractures: at each pass,
every fracture-tagged leaf and each of its face neighbors splits into eight
children of half edge, children re-tagged by clipping; after orl passes the
finest fracture cells have edge l / 2^orl.  Each leaf keeps the in-cell
area of every fracture it holds, so upscaling never clips again.  The
(cell, fracture) candidates that pass the bounding-box and plane rejects
are clipped and measured CLIP_BLOCK at a time, one batched
geometry.clip_vertices and vertex_area call per block.  An optional 2:1
balancing sweep limits face-level jumps to one, which keeps two-point flux
stencils sane.

A clipped area is a pure function of (fracture, level, i, j, k) once the
disc polygons, the domain and l are fixed.  Every area measured is kept on
the network the polygons came from (a subset's root, see
FractureNetwork.origin), so the meshes of one network at every orl, and of
its subsets such as the one remove_isolated returns, clip each candidate
once: a later build looks its candidates up and clips only the misses.

The leaves are flat arrays kept sorted in (level, i, j, k) order, with the
(cell, fracture id, clipped area) pairs cell-major and ids ascending.  Every
neighbor question is answered by one owner map: an int array on the lattice
of the finest level present that gives each voxel the index of the leaf
covering it.  Comparing the map with itself shifted one voxel along an axis
yields every face contact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import AREA_EPS, Box, clip_vertices, vertex_area
from .topology import fracture_clusters

logger = logging.getLogger(__name__)

_SQRT3_HALF = np.sqrt(3.0) / 2.0

# (cell, fracture) candidates clipped per kernel call: large enough that
# numpy dispatch per candidate is negligible, small enough to bound the
# kernel's temporaries (with the ragged kernel, 8,192 ran no faster and
# peaked 15 MB higher on the desk grid)
CLIP_BLOCK = 4096

# child index offsets (di, dj, dk) of the eight octants
_OCTANTS = np.indices((2, 2, 2)).reshape(3, -1).T


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


def _area_keys(rid, n_root: int, level, ijk, n0) -> np.ndarray:
    """One int64 per (root fracture id, lattice cell of any level): the cells
    numbered level by level, times the root fracture count."""
    cells0 = int(np.prod(n0))
    top = int(level.max(initial=0)) + 1
    if cells0 * (8**top - 1) // 7 * n_root >= 2**63:
        raise MeshError(f"level {top - 1} is too deep for int64 area keys")
    level = level.astype(np.int64)
    dims = np.array(n0, dtype=np.int64) << level[:, None]
    cell = (ijk[:, 0] * dims[:, 1] + ijk[:, 1]) * dims[:, 2] + ijk[:, 2]
    return (cells0 * ((1 << 3 * level) - 1) // 7 + cell) * n_root + rid


class _Polygons:
    """Stacked fracture polygon vertices with vectorised AABB and plane quick-rejects."""

    def __init__(self, network, m_vertices: int):
        self.verts = network.polygon_vertices(m_vertices)
        self.lo = self.verts.min(axis=1)
        self.hi = self.verts.max(axis=1)
        self.point, self.normal = network.center, network.normal
        self.root, self.root_ids = network.origin()

    def areas(self, fid, lo, hi, edge, top) -> np.ndarray:
        """Clipped area of polygon fid[n] in box [lo[n], hi[n]] of edge edge[n].

        The boxes are half-open: a polygon lying at or above hi on some axis
        is left to the box above, unless top[n] marks that face as the
        domain's upper boundary.  So a polygon lying in a face shared by two
        boxes is measured once, in the upper one.  The candidates that pass
        the quick-rejects are clipped and measured CLIP_BLOCK at a time.
        """
        above = np.where(top, self.lo[fid] > hi, self.lo[fid] >= hi)
        near = ~(above | (self.hi[fid] < lo)).any(axis=1)
        # the plane must pass within the cell's circumscribed sphere
        d = lo + 0.5 * edge[:, None] - self.point[fid]
        n = self.normal[fid]
        dist = d[:, 0] * n[:, 0] + d[:, 1] * n[:, 1] + d[:, 2] * n[:, 2]
        near &= np.abs(dist) <= edge * _SQRT3_HALF
        out = np.zeros(len(fid))
        rows = np.flatnonzero(near)
        m = self.verts.shape[1]
        for start in range(0, len(rows), CLIP_BLOCK):
            block = rows[start:start + CLIP_BLOCK]
            flat, count = clip_vertices(self.verts[fid[block]], np.full(len(block), m),
                                        lo[block], hi[block])
            out[block] = vertex_area(flat, count)
        return out


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
    """Leaves as sorted flat arrays, their fracture pairs, and (once built) faces.

    level, ijk: leaf level and integer lattice index at that level, sorted
    in (level, i, j, k) order; pair_cell, pair_fid, pair_area: every
    (leaf, fracture id, clipped area) with positive area, cell-major with
    ids ascending.  edge, center, volume and is_fracture follow from them.
    """

    BTAG_INTERIOR = -1
    BTAG_XMIN, BTAG_XMAX = 0, 1
    BTAG_YMIN, BTAG_YMAX = 2, 3
    BTAG_ZMIN, BTAG_ZMAX = 4, 5

    def __init__(self, domain: Box, l: float):
        """Uniform level-0 grid; every domain edge must be an integer multiple of l."""
        self.domain = domain
        self.l = float(l)
        self.n0 = tuple(_exact_divisions(domain.hi[a] - domain.lo[a], l) for a in range(3))
        self.m_vertices = None   # disc polygonization the pair areas were clipped from
        ijk = np.indices(self.n0).reshape(3, -1).T
        self._set_leaves(np.zeros(len(ijk), dtype=int), ijk,
                         np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))

    def _set_leaves(self, level, ijk, pair_cell, pair_fid, pair_area) -> None:
        """Store leaves and pairs in canonical order and derive the per-cell arrays."""
        order = np.lexsort((ijk[:, 2], ijk[:, 1], ijk[:, 0], level))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        pair_cell = rank[pair_cell]
        pair_order = np.lexsort((pair_fid, pair_cell))
        self.level = level[order]
        self.ijk = ijk[order]
        self.pair_cell = pair_cell[pair_order]
        self.pair_fid = pair_fid[pair_order]
        self.pair_area = pair_area[pair_order]
        self.edge = self.l / 2.0 ** self.level
        self.center = self.domain.lo + self.edge[:, None] * (self.ijk + 0.5)
        self.volume = self.edge**3
        self.is_fracture = np.zeros(self.num_cells, dtype=bool)
        self.is_fracture[self.pair_cell] = True
        self._faces = None
        self._contacts = None
        for name in ("fracture_ids", "clusters"):
            self.__dict__.pop(name, None)

    # -- index geometry ----------------------------------------------------

    def cell_edge(self, level: int) -> float:
        return self.l / 2**level

    def grid_dims(self, level: int) -> tuple:
        return tuple(n * 2**level for n in self.n0)

    def cell_box(self, idx: int) -> Box:
        edge = self.cell_edge(int(self.level[idx]))
        lo = self.domain.lo + edge * self.ijk[idx].astype(float)
        return Box(lo, lo + edge)

    @property
    def num_cells(self) -> int:
        return len(self.level)

    @cached_property
    def fracture_ids(self) -> list:
        """Per-cell fracture ids, ascending: views into pair_fid."""
        return np.split(self.pair_fid, self._pair_bounds())

    def _pair_bounds(self) -> np.ndarray:
        return np.searchsorted(self.pair_cell, np.arange(1, self.num_cells))

    @cached_property
    def clusters(self):
        """Cells x clusters indicators of the face-connected fracture-cell
        clusters (topology.fracture_clusters), labelled once per mesh."""
        return fracture_clusters(self.faces, self.is_fracture)

    # -- construction ------------------------------------------------------

    def _measure(self, fid, level, ijk, polys: _Polygons) -> np.ndarray:
        """Clipped area of fracture fid[n] in the lattice cell (level[n], ijk[n]).

        Looked up in the clipped_areas of polys' root network, under the
        root fracture id and the cell, when any earlier build measured it;
        the rest are measured by polys.areas and added there.
        """
        edge = self.l / 2.0 ** level
        # both bounds from the lattice index, so a face shared by two cells
        # is the same float in each
        lo = self.domain.lo + edge[:, None] * ijk.astype(float)
        hi = self.domain.lo + edge[:, None] * (ijk + 1).astype(float)
        top = ijk + 1 == np.array(self.n0) * 2 ** level[:, None]
        keys = _area_keys(polys.root_ids[fid], len(polys.root), level, ijk, self.n0)
        memo = polys.root.clipped_areas
        at = (polys.verts.shape[1], self.l, tuple(self.domain.lo), tuple(self.domain.hi))
        known, known_area = memo.get(at, (np.zeros(0, dtype=np.int64), np.zeros(0)))
        pos = np.searchsorted(known, keys)
        found = pos < len(known)
        found[found] = known[pos[found]] == keys[found]
        out = np.zeros(len(fid))
        out[found] = known_area[pos[found]]
        miss = np.flatnonzero(~found)
        if len(miss):
            out[miss] = polys.areas(fid[miss], lo[miss], hi[miss], edge[miss], top[miss])
            keys = np.concatenate((known, keys[miss]))
            order = np.argsort(keys, kind="stable")
            memo[at] = keys[order], np.concatenate((known_area, out[miss]))[order]
        return out

    def split(self, cells, polys: _Polygons | None = None) -> None:
        """Replace the given leaves by their 8 children, re-tagging and re-measuring by clipping."""
        split = np.zeros(self.num_cells, dtype=bool)
        split[cells] = True
        on_split = split[self.pair_cell]
        if on_split.any() and polys is None:
            raise MeshError("splitting a fracture leaf requires the fracture polygons")
        parents = np.flatnonzero(split)
        child_level = np.repeat(self.level[parents] + 1, 8)
        child_ijk = (2 * self.ijk[parents][:, None, :] + _OCTANTS).reshape(-1, 3)
        # every child inherits its parent's fractures as candidates
        cand = (8 * np.searchsorted(parents, self.pair_cell[on_split])[:, None]
                + np.arange(8)).ravel()
        cand_fid = np.repeat(self.pair_fid[on_split], 8)
        area = (self._measure(cand_fid, child_level[cand], child_ijk[cand], polys)
                if len(cand) else np.zeros(0))
        hit = area > AREA_EPS
        kept = ~split
        new_index = np.cumsum(kept) - 1
        n_kept = int(kept.sum())
        self._set_leaves(
            np.concatenate((self.level[kept], child_level)),
            np.concatenate((self.ijk[kept], child_ijk)),
            np.concatenate((new_index[self.pair_cell[~on_split]], n_kept + cand[hit])),
            np.concatenate((self.pair_fid[~on_split], cand_fid[hit])),
            np.concatenate((self.pair_area[~on_split], area[hit])),
        )

    def contacts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair of leaves sharing a face, once: (low-side leaf, high-side leaf, axis).

        Built from the owner map on the finest lattice present; sorted by
        axis, then low-side leaf, then high-side leaf.  Kept until the leaves
        change or the faces are built, so refine's last balance check serves both.
        """
        if self._contacts is not None:
            return self._contacts
        owner = np.full(self.n0, -1)
        for level in range(int(self.level.max(initial=0)) + 1):
            if level:
                owner = owner.repeat(2, axis=0).repeat(2, axis=1).repeat(2, axis=2)
            at = np.flatnonzero(self.level == level)
            i, j, k = self.ijk[at].T
            owner[i, j, k] = at
        n = self.num_cells
        low, high, axes = [], [], []
        for axis in range(3):
            shifted = np.moveaxis(owner, axis, 0)
            a, b = shifted[:-1].ravel(), shifted[1:].ravel()
            differ = a != b
            pairs = np.unique(a[differ] * n + b[differ])
            low.append(pairs // n)
            high.append(pairs % n)
            axes.append(np.full(len(pairs), axis))
        self._contacts = np.concatenate(low), np.concatenate(high), np.concatenate(axes)
        return self._contacts

    @property
    def faces(self) -> FaceSet:
        if self._faces is None:
            raise MeshError("call build_face_adjacency(mesh) first")
        return self._faces


def build_initial_grid(domain: Box, l: float) -> OctreeMesh:
    """Uniform level-0 grid; every domain edge must be an integer multiple of l."""
    return OctreeMesh(domain, l)


def tag_fracture_cells(mesh: OctreeMesh, network, m_vertices: int = 32) -> OctreeMesh:
    """Mark level-0 cells with positive-area fracture intersections.

    Point or edge contacts (zero area) do not tag a cell; a fracture lying
    exactly in a shared cell face tags only the cell above it.  Each tagged
    leaf stores the clipped area of every fracture it holds.
    """
    if mesh.level.any():
        raise MeshError("tag_fracture_cells expects the unrefined initial grid")
    polys = _Polygons(network, m_vertices)
    edge = mesh.cell_edge(0)
    dims = np.array(mesh.grid_dims(0))
    # candidates: the level-0 cells within each polygon's index box, widened
    # by a hair so that rounding cannot drop a cell the polygon lies on
    lo_idx = np.maximum(np.floor((polys.lo - mesh.domain.lo) / edge - 1e-9).astype(int), 0)
    hi_idx = np.minimum(np.floor((polys.hi - mesh.domain.lo) / edge + 1e-9).astype(int), dims - 1)
    # every box's cells, fracture by fracture and in C order within a box:
    # each candidate's offset within its box decoded into (i, j, k)
    shape = np.maximum(hi_idx - lo_idx + 1, 0)
    size = shape.prod(axis=1)
    fid = np.repeat(np.arange(len(size)), size)
    offset = np.arange(len(fid)) - np.repeat(np.cumsum(size) - size, size)
    ny, nz = shape[fid, 1], shape[fid, 2]
    i = lo_idx[fid, 0] + offset // (ny * nz)
    j = lo_idx[fid, 1] + offset // nz % ny
    k = lo_idx[fid, 2] + offset % nz
    cell = (i * mesh.n0[1] + j) * mesh.n0[2] + k
    area = mesh._measure(fid, mesh.level[cell], mesh.ijk[cell], polys)
    hit = area > AREA_EPS
    mesh._set_leaves(mesh.level, mesh.ijk, cell[hit], fid[hit], area[hit])
    mesh.m_vertices = m_vertices
    return mesh


def build_mesh(domain: Box, network, params: MeshParams, m_vertices: int = 32) -> OctreeMesh:
    """Grid, tag, refine, balance, and build faces in one call.

    Meshes of one network (any orl, the network or a subset of it) clip
    each (fracture, cell) candidate once between them; each is identical
    to the mesh a fresh copy of the network would give.
    """
    mesh = build_initial_grid(domain, params.l)
    tag_fracture_cells(mesh, network, m_vertices)
    refine(mesh, network, params.orl, params.balance_2to1)
    build_face_adjacency(mesh)
    return mesh


def refine(mesh: OctreeMesh, network, orl: int, balance: bool = True) -> OctreeMesh:
    """Apply orl fracture-neighborhood refinement passes, then balance.

    Each pass recomputes the fracture leaves and their face neighbors from
    the current mesh, so newly produced children participate in later
    passes.  Balancing only ever splits matrix cells (fracture leaves are
    already at the finest level) and never un-tags anything.  Children are
    clipped from the mesh.m_vertices polygonization the mesh was tagged
    with, or looked up in the network's clipped_areas when an earlier build
    (any orl, the network or a subset of it) already measured them.
    """
    if orl < 0:
        raise ValueError("orl must be >= 0")
    polys = _Polygons(network, mesh.m_vertices) if mesh.m_vertices else None
    for sweep in range(orl):
        split = mesh.is_fracture.copy()
        low, high, _ = mesh.contacts()
        split[high[mesh.is_fracture[low]]] = True
        split[low[mesh.is_fracture[high]]] = True
        mesh.split(np.flatnonzero(split), polys)
        logger.debug("refinement pass %d: %d leaves", sweep + 1, mesh.num_cells)
    while balance:
        low, high, _ = mesh.contacts()
        jump = mesh.level[high] - mesh.level[low]
        coarse = np.union1d(low[jump >= 2], high[jump <= -2])
        if not len(coarse):
            break
        mesh.split(coarse, polys)
    return mesh


_BOUNDARY_TAGS = {
    (0, -1): OctreeMesh.BTAG_XMIN, (0, 1): OctreeMesh.BTAG_XMAX,
    (1, -1): OctreeMesh.BTAG_YMIN, (1, 1): OctreeMesh.BTAG_YMAX,
    (2, -1): OctreeMesh.BTAG_ZMIN, (2, 1): OctreeMesh.BTAG_ZMAX,
}


def build_face_adjacency(mesh: OctreeMesh) -> FaceSet:
    """Enumerate every positive-area leaf contact once, plus boundary faces.

    Across a graded interface the coarse cell sees one face per finer
    neighbor, each with the finer cell's face area; distances are exact
    center-to-plane distances.  Requires a 2:1-balanced mesh.  Faces are
    ordered by cell_a, then axis, then side (low before high), then cell_b.
    """
    low, high, axis = mesh.contacts()
    mesh._contacts = None
    if np.any(np.abs(mesh.level[low] - mesh.level[high]) > 1):
        raise MeshError("a face joins cells more than one level apart: mesh is not 2:1 balanced")
    edge = mesh.edge
    cells, axes, sides, btags = [], [], [], []
    for (ax, side), tag in _BOUNDARY_TAGS.items():
        last = mesh.n0[ax] * 2**mesh.level - 1
        at = np.flatnonzero(mesh.ijk[:, ax] == (0 if side < 0 else last))
        cells.append(at)
        axes.append(np.full(len(at), ax))
        sides.append(np.full(len(at), side))
        btags.append(np.full(len(at), tag))
    bnd = np.concatenate(cells)
    fine = np.minimum(edge[low], edge[high])
    cell_a = np.concatenate((bnd, low))
    cell_b = np.concatenate((np.full(len(bnd), -1), high))
    side = np.concatenate(sides + [np.ones(len(low), dtype=int)])
    axes = np.concatenate(axes + [axis])
    order = np.lexsort((cell_b, side, axes, cell_a))
    faces = FaceSet(
        cell_a=cell_a[order],
        cell_b=cell_b[order],
        area=np.concatenate((edge[bnd] * edge[bnd], fine * fine))[order],
        d_a=(0.5 * edge[cell_a])[order],
        d_b=np.concatenate((np.zeros(len(bnd)), 0.5 * edge[high]))[order],
        axis=axes[order],
        btag=np.concatenate(btags + [np.full(len(low), OctreeMesh.BTAG_INTERIOR)])[order],
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
    """Legacy-ASCII VTK unstructured grid with hexahedral cells.

    Each section is one printf-style format over the whole array, which
    prints every value as ``format(v, ".10g")`` or ``".17g"`` would.
    """
    n = mesh.num_cells
    data = {"level": mesh.level.astype(int), "is_fracture": mesh.is_fracture.astype(int)}
    data.update(cell_data or {})
    lo = mesh.center - 0.5 * mesh.edge[:, None]
    corners = lo[:, None, :] + mesh.edge[:, None, None] * _HEX_OFFSETS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {8 * n} double\n")
        fh.write("%.10g %.10g %.10g\n" * (8 * n) % tuple(corners.ravel().tolist()))
        fh.write(f"CELLS {n} {9 * n}\n")
        fh.write("8 %d %d %d %d %d %d %d %d\n" * n % tuple(range(8 * n)))
        fh.write(f"CELL_TYPES {n}\n")
        fh.write("12\n" * n)
        fh.write(f"CELL_DATA {n}\n")
        for name, values in data.items():
            values = np.asarray(values)
            kind = "int" if values.dtype.kind in "iub" else "double"
            fh.write(f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n")
            line = "%d\n" if kind == "int" else "%.17g\n"
            fh.write(line * len(values) % tuple(values.tolist()))
