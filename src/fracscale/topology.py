"""Connectivity analysis of fracture networks and of upscaled meshes.

The intersection graph has one node per fracture plus two virtual nodes for
the inflow (x = -L/2) and outflow (x = +L/2) domain faces, held as read-only
int64 arrays and labelled into connected components once.  A network
percolates when the virtual nodes are connected.  On the mesh side, two
fractures that never intersect can still be upscaled into one control
volume; those pairs are the false connections counted here, and chains of
them can make the mesh percolate when the network does not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geometry import discs_intersect_many
from .network import FractureNetwork

logger = logging.getLogger(__name__)

_OVERLAP_EPS = 1e-9     # chord overlap two discs need to count as intersecting
_FACE_TOUCH_EPS = 1e-9


@dataclass(eq=False)
class IntersectionGraph:
    """Undirected fracture intersection graph with boundary attachments.  The
    arrays are read-only copies, so the labels computed on first use stay
    valid.  == is identity."""

    n_fractures: int
    edges: np.ndarray         # (E, 2) fracture-fracture pairs, i < j, ascending
    source_ids: np.ndarray    # fractures touching the inflow plane, ascending
    sink_ids: np.ndarray      # fractures touching the outflow plane, ascending

    def __post_init__(self):
        for name in ("edges", "source_ids", "sink_ids"):
            column = np.array(getattr(self, name), dtype=np.int64)
            column.flags.writeable = False
            setattr(self, name, column)

    @cached_property
    def labels(self) -> np.ndarray:
        """Component label of every node: fractures 0..n-1, inflow plane n, outflow plane n + 1."""
        n, source, sink = self.n_fractures, self.source_ids, self.sink_ids
        a = np.concatenate((self.edges[:, 0], source, sink))
        b = np.concatenate((self.edges[:, 1], np.full(len(source), n), np.full(len(sink), n + 1)))
        return _labels(n + 2, a, b)

    def subset(self, keep_ids) -> "IntersectionGraph":
        """Graph of network.subset(keep_ids): kept fractures re-indexed in id order.

        Equal to building the graph of the subset network afresh, because
        every edge and boundary attachment is decided per pair or per fracture.
        """
        keep = np.unique(np.fromiter(keep_ids, dtype=np.int64))
        new_id = np.full(self.n_fractures, -1, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        # increasing on the kept ids, so every ascending order is kept
        edges, source, sink = new_id[self.edges], new_id[self.source_ids], new_id[self.sink_ids]
        return IntersectionGraph(
            len(keep), edges[(edges >= 0).all(axis=1)], source[source >= 0], sink[sink >= 0])


def build_intersection_graph(network: FractureNetwork, *, m_vertices: int = 32) -> IntersectionGraph:
    """All intersecting disc pairs, pruned by a KD-tree on the disc centers.

    A fracture attaches to the inflow (outflow) plane when its polygon,
    clipped to the domain, reaches the x = lo (x = hi) face.
    """
    n = len(network)
    domain = network.domain
    centers, normals, radii = network.center, network.normal, network.radius

    # candidates: center distance within the largest possible radius sum,
    # then within this pair's radius sum; ascending (i, j) order
    edges = np.empty((0, 2), dtype=np.int64)
    if n > 1:
        pairs = cKDTree(centers).query_pairs(2.0 * radii.max(), output_type="ndarray")
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        a, b = pairs[:, 0], pairs[:, 1]
        gap = np.linalg.norm(centers[a] - centers[b], axis=1)
        near = gap <= radii[a] + radii[b]
        a, b = a[near], b[near]
        hit = discs_intersect_many(centers[a], normals[a], radii[a],
                                   centers[b], normals[b], radii[b], _OVERLAP_EPS)
        edges = np.column_stack((a[hit], b[hit]))

    flat, count = network.clipped_to_domain(m_vertices)
    x = flat[:, 0]
    loop = np.repeat(np.arange(n), count)
    source_ids = np.unique(loop[x <= domain.lo[0] + _FACE_TOUCH_EPS])
    sink_ids = np.unique(loop[x >= domain.hi[0] - _FACE_TOUCH_EPS])

    return IntersectionGraph(n, edges, source_ids, sink_ids)


def _labels(n_nodes: int, a, b) -> np.ndarray:
    """Connected-component label of every node of the undirected graph with edges a-b."""
    adjacency = coo_matrix((np.ones(len(a)), (a, b)), shape=(n_nodes, n_nodes))
    return connected_components(adjacency, directed=False)[1]


def dfn_percolates(graph: IntersectionGraph) -> bool:
    """True when a fracture path joins the inflow and outflow planes."""
    return bool(graph.labels[-2] == graph.labels[-1])


def percolating_cluster(graph: IntersectionGraph) -> np.ndarray:
    """Ids of the fractures connecting both boundary planes, ascending (empty if none do)."""
    labels = graph.labels
    return np.flatnonzero((labels[:-2] == labels[-2]) & (labels[-2] == labels[-1]))


def remove_isolated(network: FractureNetwork, graph: IntersectionGraph) -> FractureNetwork:
    """Keep only the cluster connecting both boundary planes (possibly nothing)."""
    keep = percolating_cluster(graph)
    if len(keep):
        logger.info("retained %d / %d fractures", len(keep), len(network))
    else:
        logger.info("network does not percolate; all %d fractures removed", len(network))
    return network.subset(keep)


@dataclass
class FalseConnectionReport:
    """Counts of fracture pairs sharing a control volume without intersecting."""

    num_false_pairs: int        # network-wide unique pairs (#f)
    cells_with_false: int       # fracture cells containing at least one such pair (fc)
    total_fracture_cells: int
    total_cells: int            # vc
    equivalent_cells: int       # uniform-mesh cell count at the same resolution (n)

    @property
    def fc_over_vc(self) -> float:
        return 100.0 * self.cells_with_false / self.total_cells if self.total_cells else 0.0

    @property
    def vc_over_n(self) -> float:
        return 100.0 * self.total_cells / self.equivalent_cells if self.equivalent_cells else 0.0


def count_false_connections(
    cell_fracture_map,
    graph: IntersectionGraph,
    *,
    total_cells: int,
    equivalent_cells: int,
) -> FalseConnectionReport:
    """Count co-located non-intersecting fracture pairs on the finest fracture cells.

    cell_fracture_map is an OctreeMesh, whose (cell, fracture id) pairs are
    read from pair_cell and pair_fid, or an iterable of per-cell fracture id
    sequences (duplicates and order within a cell are ignored; an empty
    sequence still counts as a fracture cell).  A pair sharing several cells
    counts once network-wide.
    """
    # unique (cell, id) pairs, cell-major with ids ascending, as a mesh keeps them
    if hasattr(cell_fracture_map, "pair_cell"):
        cell = cell_fracture_map.pair_cell
        ids = np.asarray(cell_fracture_map.pair_fid, dtype=np.int64)
        n_cells = int(cell_fracture_map.is_fracture.sum())
    else:
        seqs = [np.asarray(cell_ids, dtype=np.int64).ravel() for cell_ids in cell_fracture_map]
        ids = np.concatenate([np.empty(0, dtype=np.int64), *seqs])
        cell = np.repeat(np.arange(len(seqs)), [len(q) for q in seqs])
        n_cells = len(seqs)
        order = np.lexsort((ids, cell))
        cell, ids = cell[order], ids[order]
        keep = np.ones(len(ids), dtype=bool)
        keep[1:] = (cell[1:] != cell[:-1]) | (ids[1:] != ids[:-1])
        cell, ids = cell[keep], ids[keep]
    # every element pairs with the later elements of its cell
    end = np.searchsorted(cell, cell, side="right")
    partners = end - np.arange(len(ids)) - 1
    first = np.repeat(np.arange(len(ids)), partners)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(partners) - partners, partners)
    second = first + offset + 1

    # pair key i * n + j, with n large enough that keys cannot collide
    n = max(graph.n_fractures, int(ids.max(initial=-1)) + 1)
    false = ~np.isin(ids[first] * n + ids[second], graph.edges[:, 0] * n + graph.edges[:, 1])
    return FalseConnectionReport(
        num_false_pairs=len(np.unique(ids[first[false]] * n + ids[second[false]])),
        cells_with_false=len(np.unique(cell[first[false]])),
        total_fracture_cells=n_cells,
        total_cells=total_cells,
        equivalent_cells=equivalent_cells,
    )


def fracture_clusters(faces, is_fracture) -> csr_matrix:
    """Cells x clusters indicators of the face-connected fracture-cell clusters.

    Face adjacency only (consistent with two-point flux coupling); corner
    and edge contacts do not connect.
    """
    is_frac = np.asarray(is_fracture, dtype=bool)
    n = len(is_frac)
    interior = faces.cell_b >= 0
    fa = faces.cell_a[interior]
    fb = faces.cell_b[interior]
    both = is_frac[fa] & is_frac[fb]
    cells = np.flatnonzero(is_frac)
    cluster = np.unique(_labels(n, fa[both], fb[both])[cells], return_inverse=True)[1]
    return csr_matrix(
        (np.ones(len(cells)), (cells, cluster)), shape=(n, cluster.max(initial=-1) + 1))


def mesh_percolates(mesh) -> bool:
    """True when one face-connected cluster of fracture cells touches both
    the inflow and the outflow plane."""
    faces = mesh.faces
    inlet, outlet = (mesh.clusters[faces.cell_a[faces.btag == tag]].indices
                     for tag in (mesh.BTAG_XMIN, mesh.BTAG_XMAX))
    return bool(np.intersect1d(inlet, outlet).size)
