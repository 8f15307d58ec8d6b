"""Connectivity analysis of fracture networks and of upscaled meshes.

The intersection graph has one node per fracture plus two virtual nodes for
the inflow (x = -L/2) and outflow (x = +L/2) domain faces.  A network
percolates when the virtual nodes are connected.  On the mesh side, two
fractures that never intersect can still be upscaled into one control
volume; those pairs are the false connections counted here, and chains of
them can make the mesh percolate when the network does not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import clip_polygon_to_box, discs_intersect
from .network import FractureNetwork

logger = logging.getLogger(__name__)

SOURCE = -1  # inflow plane x = -L/2
SINK = -2    # outflow plane x = +L/2

_FACE_TOUCH_EPS = 1e-9


@dataclass
class IntersectionGraph:
    """Undirected fracture intersection graph with boundary attachments."""

    n_fractures: int
    edges: list[tuple[int, int]]          # fracture-fracture pairs, i < j
    source_ids: list[int]                 # fractures touching the inflow plane
    sink_ids: list[int]                   # fractures touching the outflow plane

    @property
    def edge_set(self) -> set[tuple[int, int]]:
        if not hasattr(self, "_edge_set"):
            self._edge_set = set(self.edges)
        return self._edge_set

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edge_set

    def subset(self, keep_ids) -> "IntersectionGraph":
        """Graph of network.subset(keep_ids): kept fractures re-indexed in id order.

        Equal to building the graph of the subset network afresh, because
        every edge and boundary attachment is decided per pair or per fracture.
        """
        new_id = {old: new for new, old in enumerate(sorted(keep_ids))}
        return IntersectionGraph(
            len(new_id),
            [(new_id[i], new_id[j]) for i, j in self.edges if i in new_id and j in new_id],
            [new_id[i] for i in self.source_ids if i in new_id],
            [new_id[i] for i in self.sink_ids if i in new_id],
        )


def build_intersection_graph(
    network: FractureNetwork, *, eps: float = 1e-9, m_vertices: int = 32
) -> IntersectionGraph:
    """All intersecting disc pairs, pruned by a uniform spatial hash.

    Boundary edges attach a fracture to SOURCE/SINK when its polygon,
    clipped to the domain, reaches the respective x face.
    """
    fracs = network.fractures
    n = len(fracs)
    domain = network.domain

    # spatial hash on disc bounding boxes; bucket edge = max possible radius
    edges: list[tuple[int, int]] = []
    if n:
        cell = max(f.radius for f in fracs)
        buckets: dict[tuple[int, int, int], list[int]] = {}
        for idx, f in enumerate(fracs):
            lo = np.floor((f.center - f.radius) / cell).astype(int)
            hi = np.floor((f.center + f.radius) / cell).astype(int)
            for ix in range(lo[0], hi[0] + 1):
                for iy in range(lo[1], hi[1] + 1):
                    for iz in range(lo[2], hi[2] + 1):
                        buckets.setdefault((ix, iy, iz), []).append(idx)

        candidates: set[tuple[int, int]] = set()
        for members in buckets.values():
            for i, j in combinations(members, 2):
                candidates.add((i, j) if i < j else (j, i))

        for i, j in sorted(candidates):
            fi, fj = fracs[i], fracs[j]
            gap = np.linalg.norm(fi.center - fj.center)
            if gap > fi.radius + fj.radius:
                continue
            if discs_intersect(fi, fj, eps):
                edges.append((i, j))

    source_ids, sink_ids = [], []
    for idx, poly in enumerate(network.polygons(m_vertices)):
        clipped = clip_polygon_to_box(poly, domain)
        if clipped.is_empty:
            continue
        x = clipped.vertices[:, 0]
        if x.min() <= domain.lo[0] + _FACE_TOUCH_EPS:
            source_ids.append(idx)
        if x.max() >= domain.hi[0] - _FACE_TOUCH_EPS:
            sink_ids.append(idx)

    return IntersectionGraph(n, edges, source_ids, sink_ids)


def _labels(n_nodes: int, a, b) -> np.ndarray:
    """Connected-component label of every node of the undirected graph with edges a-b."""
    adjacency = coo_matrix((np.ones(len(a)), (a, b)), shape=(n_nodes, n_nodes))
    return connected_components(adjacency, directed=False)[1]


def _components(graph: IntersectionGraph) -> np.ndarray:
    # nodes 0..n-1 fractures, n = SOURCE, n+1 = SINK
    n = graph.n_fractures
    edges = np.array(graph.edges, dtype=int).reshape(-1, 2)
    source = np.asarray(graph.source_ids, dtype=int)
    sink = np.asarray(graph.sink_ids, dtype=int)
    return _labels(
        n + 2,
        np.concatenate((edges[:, 0], source, sink)),
        np.concatenate((edges[:, 1], np.full(len(source), n), np.full(len(sink), n + 1))),
    )


def dfn_percolates(graph: IntersectionGraph) -> bool:
    """True when a fracture path joins the inflow and outflow planes."""
    labels = _components(graph)
    return bool(labels[-2] == labels[-1])


def percolating_cluster(graph: IntersectionGraph) -> list[int]:
    """Ids of the fractures connecting both boundary planes, ascending (empty if none do)."""
    labels = _components(graph)
    if labels[-2] != labels[-1]:
        return []
    return np.flatnonzero(labels[:-2] == labels[-2]).tolist()


def remove_isolated(network: FractureNetwork, graph: IntersectionGraph) -> FractureNetwork:
    """Keep only the cluster connecting both boundary planes (possibly nothing)."""
    keep = percolating_cluster(graph)
    if not keep:
        logger.info("network does not percolate; all %d fractures removed", len(network))
    else:
        logger.info("retained %d / %d fractures", len(keep), len(network))
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

    def csv_row(self, p_prime: float) -> str:
        return (
            f"{p_prime},{self.num_false_pairs},{self.cells_with_false},"
            f"{self.total_cells},{self.fc_over_vc:.2f},{self.vc_over_n:.2f}"
        )


def count_false_connections(
    cell_fracture_map,
    graph: IntersectionGraph,
    *,
    total_cells: int,
    equivalent_cells: int,
    pair_per_cell: bool = False,
) -> FalseConnectionReport:
    """Count co-located non-intersecting fracture pairs on the finest fracture cells.

    cell_fracture_map is an iterable of per-cell fracture id sequences.  A
    pair sharing several cells counts once network-wide by default;
    pair_per_cell=True counts every (pair, cell) incidence instead.
    """
    false_pairs: set[tuple[int, int]] = set()
    incidences = 0
    cells_with_false = 0
    n_fracture_cells = 0
    for ids in cell_fracture_map:
        n_fracture_cells += 1
        found = False
        for i, j in combinations(sorted(set(ids)), 2):
            if not graph.has_edge(i, j):
                false_pairs.add((i, j))
                incidences += 1
                found = True
        if found:
            cells_with_false += 1
    return FalseConnectionReport(
        num_false_pairs=incidences if pair_per_cell else len(false_pairs),
        cells_with_false=cells_with_false,
        total_fracture_cells=n_fracture_cells,
        total_cells=total_cells,
        equivalent_cells=equivalent_cells,
    )


def mesh_percolates(mesh, props=None) -> bool:
    """True when face-adjacent fracture cells join the inflow and outflow planes.

    Face adjacency only (consistent with two-point flux coupling); corner
    and edge contacts do not connect.
    """
    is_frac = np.asarray(props.is_fracture if props is not None else mesh.is_fracture)
    if not is_frac.any():
        return False
    faces = mesh.faces
    n = mesh.num_cells
    interior = faces.cell_b >= 0
    fa = faces.cell_a[interior]
    fb = faces.cell_b[interior]
    both = is_frac[fa] & is_frac[fb]
    inlet = faces.cell_a[(faces.btag == mesh.BTAG_XMIN) & is_frac[faces.cell_a]]
    outlet = faces.cell_a[(faces.btag == mesh.BTAG_XMAX) & is_frac[faces.cell_a]]
    labels = _labels(
        n + 2,
        np.concatenate((fa[both], inlet, outlet)),
        np.concatenate((fb[both], np.full(len(inlet), n), np.full(len(outlet), n + 1))),
    )
    return bool(labels[n] == labels[n + 1])
