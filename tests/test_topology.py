from itertools import combinations

import numpy as np
import pytest

from fracscale.geometry import AREA_EPS, Box
from fracscale.network import FractureNetwork, GenerationParams, generate_network
from fracscale.topology import (
    IntersectionGraph,
    build_intersection_graph,
    count_false_connections,
    dfn_percolates,
    fracture_clusters,
    mesh_percolates,
    percolating_cluster,
    remove_isolated,
)

from conftest import (cell_bounds, clip_loop, clipped_area, cube_mesh, disc, intersects, make_disc,
                      make_network, polygon, two_plate_network)


def chain_network(L=10.0, with_bridge=True, with_outlier=False):
    """Three discs chained inlet-to-outlet plus an optional isolated one.

    A reaches x = -L/2, C reaches x = +L/2, and B straddles both carrier
    planes so the chain is connected only through it.
    """
    discs = [
        make_disc((-3.5, 0.0, 0.1), (0, 0, 1), 2.0),     # touches inflow
        make_disc((3.2, 0.0, -0.1), (0, 0, 1), 2.0),     # touches outflow
    ]
    if with_bridge:
        discs.insert(1, make_disc((-1.0, 0.0, 0.0), (0, 1, 0), 3.0))
    if with_outlier:
        discs.append(make_disc((0.0, 3.0, 3.0), (0, 0, 1), 0.5))
    return make_network(discs, L)


def edge_set(graph):
    """The graph's edges as a set of (i, j) tuples."""
    return set(map(tuple, graph.edges.tolist()))


def assert_graphs_equal(got, want):
    assert got.n_fractures == want.n_fractures
    for name in ("edges", "source_ids", "sink_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestIntersectionGraph:
    def test_empty_network(self):
        graph = build_intersection_graph(make_network([], 10.0))
        assert graph.edges.shape == (0, 2)
        assert not dfn_percolates(graph)

    def test_chain_spans_source_to_sink(self):
        graph = build_intersection_graph(chain_network())
        assert {(0, 1), (1, 2)} <= edge_set(graph)
        assert 0 in graph.source_ids
        assert 2 in graph.sink_ids
        assert dfn_percolates(graph)

    def test_disjoint_discs_have_no_edge(self):
        net = make_network([
            make_disc((-2.0, 0.0, 1.0), (0, 0, 1), 1.0),
            make_disc((2.0, 0.0, -1.0), (0, 0, 1), 1.0),
        ], 10.0)
        graph = build_intersection_graph(net)
        assert len(graph.edges) == 0

    def test_removing_bridge_breaks_percolation(self):
        graph = build_intersection_graph(chain_network(with_bridge=False))
        assert not dfn_percolates(graph)

    def test_matches_brute_force_on_random_network(self):
        net = generate_network(GenerationParams(L=15.0, n_fractures=40, seed=3))
        graph = build_intersection_graph(net)
        brute = {
            (i, j)
            for i in range(len(net))
            for j in range(i + 1, len(net))
            if intersects(disc(net, i), disc(net, j))
        }
        assert edge_set(graph) == brute

    @pytest.mark.parametrize("corner", [False, True])
    def test_boundary_ids_match_single_clips(self, corner):
        # the batched domain clip attaches the same fractures as clipping
        # each polygon alone, also in a domain with a face on x = 0, where a
        # zero pad row would read as touching it
        net = generate_network(GenerationParams(L=15.0, n_fractures=60, seed=7))
        if corner:
            shift = -net.domain.lo
            net = FractureNetwork(net.center + shift, net.normal, net.radius, net.aperture,
                                  Box(np.zeros(3), net.domain.hi + shift), net.params)
        graph = build_intersection_graph(net)
        source, sink = [], []
        for idx in range(len(net)):
            clipped = clip_loop(polygon(disc(net, idx)), net.domain.lo, net.domain.hi)
            if not len(clipped):
                continue
            x = clipped[:, 0]
            if x.min() <= net.domain.lo[0] + 1e-9:
                source.append(idx)
            if x.max() >= net.domain.hi[0] - 1e-9:
                sink.append(idx)
        assert source and sink
        assert np.array_equal(graph.source_ids, source)
        assert np.array_equal(graph.sink_ids, sink)

    def test_arrays_are_read_only_int64_in_ascending_order(self):
        net = generate_network(GenerationParams(L=15.0, n_fractures=80, seed=2))
        graph = build_intersection_graph(net)
        assert graph.edges.shape == (len(graph.edges), 2) and len(graph.edges) > 10
        i, j = graph.edges.T
        assert (i < j).all()
        assert np.array_equal(np.lexsort((j, i)), np.arange(len(i)))
        for ids in (graph.source_ids, graph.sink_ids):
            assert len(ids) and (np.diff(ids) > 0).all()
        for column in (graph.edges, graph.source_ids, graph.sink_ids):
            assert column.dtype == np.int64 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_arrays_are_copies(self):
        edges, source, sink = np.array([[0, 1]]), np.array([0]), np.array([1])
        graph = IntersectionGraph(2, edges, source, sink)
        assert dfn_percolates(graph)
        edges[0] = source[0] = sink[0] = 2
        assert edge_set(graph) == {(0, 1)}
        assert graph.source_ids.tolist() == [0] and graph.sink_ids.tolist() == [1]

    def test_equality_is_identity(self):
        net = chain_network()
        a, b = build_intersection_graph(net), build_intersection_graph(net)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_percolation_frequency_increases_with_density(self):
        # desk-scale counts bracketing the threshold (critical count ~250 at L=25)
        frequencies = []
        for n in (125, 250, 500):
            hits = 0
            for seed in range(12):
                net = generate_network(GenerationParams(L=25.0, n_fractures=n, seed=seed))
                if dfn_percolates(build_intersection_graph(net)):
                    hits += 1
            frequencies.append(hits)
        assert frequencies[0] <= frequencies[1] <= frequencies[2]
        assert frequencies[0] < frequencies[2]


class TestRemoveIsolated:
    def test_nonpercolating_network_empties(self):
        net = chain_network(with_bridge=False)
        graph = build_intersection_graph(net)
        kept = remove_isolated(net, graph)
        assert len(kept) == 0
        assert not dfn_percolates(build_intersection_graph(kept))

    def test_keeps_spanning_cluster_only(self):
        net = chain_network(with_outlier=True)
        graph = build_intersection_graph(net)
        kept = remove_isolated(net, graph)
        assert len(kept) == 3
        radii = sorted(kept.radius.tolist())
        assert radii == [2.0, 2.0, 3.0]

    def test_idempotent(self):
        net = chain_network(with_outlier=True)
        once = remove_isolated(net, build_intersection_graph(net))
        twice = remove_isolated(once, build_intersection_graph(once))
        assert len(once) == len(twice)

    def test_preserves_percolation_verdict(self):
        for seed in (2, 6):
            net = generate_network(GenerationParams(L=15.0, n_fractures=80, seed=seed))
            graph = build_intersection_graph(net)
            kept = remove_isolated(net, graph)
            assert dfn_percolates(build_intersection_graph(kept)) == dfn_percolates(graph)

    def test_relabelled_graph_equals_fresh_build(self):
        networks = [chain_network(with_outlier=True), chain_network(with_bridge=False)]
        networks += [generate_network(GenerationParams(L=15.0, n_fractures=n, seed=seed))
                     for n in (40, 80) for seed in (2, 3, 6)]
        sizes = []
        for net in networks:
            graph = build_intersection_graph(net)
            keep = percolating_cluster(graph)
            kept = remove_isolated(net, graph)
            assert len(kept) == len(keep)
            assert_graphs_equal(graph.subset(keep), build_intersection_graph(kept))
            sizes.append(len(keep))
        assert 0 in sizes and max(sizes) > 3

    @pytest.mark.parametrize("n, seed", [(40, 4), (60, 5), (80, 8)])
    def test_any_subset_equals_fresh_build(self, n, seed):
        net = generate_network(GenerationParams(L=15.0, n_fractures=n, seed=seed))
        graph = build_intersection_graph(net)
        assert len(graph.edges) and len(graph.source_ids) and len(graph.sink_ids)
        rng = np.random.default_rng(seed)
        subsets = [[], range(n), [int(rng.integers(n))], set(rng.permutation(n)[: n // 2])]
        subsets += [rng.permutation(n)[: rng.integers(2, n)] for _ in range(6)]
        # repeated ids are kept once by both
        subsets += [[3, 3, 5], rng.integers(n, size=n), np.repeat(rng.permutation(n)[:5], 3)]
        for keep in subsets:
            assert_graphs_equal(graph.subset(keep), build_intersection_graph(net.subset(keep)))
        assert len(net.subset([3, 3, 5])) == 2

    def test_one_labelling_per_graph(self, labellings):
        net = generate_network(GenerationParams(L=15.0, n_fractures=80, seed=2))
        graph = build_intersection_graph(net)
        assert dfn_percolates(graph)
        keep = percolating_cluster(graph)
        kept = remove_isolated(net, graph)
        assert dfn_percolates(graph) and len(kept) == len(keep) > 0
        assert len(labellings) == 1


def reference_false_connections(cell_map, graph):
    """(false pairs network-wide, cells holding one) by looping over cells and pairs."""
    edges = edge_set(graph)
    pairs, cells = set(), 0
    for ids in cell_map:
        found = [p for p in combinations(sorted(set(ids)), 2) if p not in edges]
        pairs.update(found)
        cells += bool(found)
    return len(pairs), cells


class TestFalseConnections:
    def test_all_intersecting_pairs_give_zero(self):
        net = chain_network()
        graph = build_intersection_graph(net)
        report = count_false_connections(
            [(0, 1), (1, 2)], graph, total_cells=10, equivalent_cells=100
        )
        assert report.num_false_pairs == 0
        assert report.cells_with_false == 0

    def test_parallel_discs_in_coarse_cells(self):
        # two non-intersecting parallel plates 0.4 m apart, 2.5 m cells
        L = 10.0
        net = make_network([
            make_disc((0.6, 0.6, 0.55), (0, 0, 1), 1.0),
            make_disc((0.6, 0.6, 0.95), (0, 0, 1), 1.0),
        ], L)
        graph = build_intersection_graph(net)
        assert len(graph.edges) == 0
        mesh = cube_mesh(L, 2.5, net, orl=0)
        cell_map = [mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]]
        report = count_false_connections(
            cell_map, graph, total_cells=mesh.num_cells, equivalent_cells=mesh.num_cells
        )
        assert report.num_false_pairs == 1
        # oracle: enumerate cells both discs reach with positive area
        polys = [polygon(disc(net, i)) for i in range(len(net))]
        shared = 0
        for idx in range(mesh.num_cells):
            lo, hi = cell_bounds(mesh, idx)
            if all(clipped_area(p, lo, hi) > AREA_EPS for p in polys):
                shared += 1
        assert shared >= 1
        assert report.cells_with_false == shared

    def test_fine_cells_separate_the_pair(self):
        # same plates, 0.15625 m cells: no cell can hold both
        L = 5.0
        net = make_network([
            make_disc((0.0, 0.0, -2.43), (0, 0, 1), 1.0),
            make_disc((0.0, 0.0, -2.03), (0, 0, 1), 1.0),
        ], L)
        graph = build_intersection_graph(net)
        mesh = cube_mesh(L, 5.0, net, orl=5)
        cell_map = [mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]]
        report = count_false_connections(
            cell_map, graph, total_cells=mesh.num_cells, equivalent_cells=mesh.num_cells
        )
        assert report.num_false_pairs == 0

    @pytest.mark.parametrize("orl", [0, 1, 2])
    def test_matches_pairwise_reference(self, orl):
        net = generate_network(GenerationParams(L=15.0, n_fractures=40, seed=3))
        graph = build_intersection_graph(net)
        mesh = cube_mesh(15.0, 5.0, net, orl=orl)
        cell_map = [mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]]
        # order and repeats within a cell are ignored; an empty cell still counts
        noisy = [tuple(ids[::-1]) + tuple(ids[:1]) for ids in cell_map] + [()]
        report = count_false_connections(
            iter(noisy), graph, total_cells=mesh.num_cells, equivalent_cells=mesh.num_cells
        )
        expected = reference_false_connections(cell_map, graph)
        assert expected[0] > 0
        assert (report.num_false_pairs, report.cells_with_false) == expected
        assert report.total_fracture_cells == len(cell_map) + 1

    @pytest.mark.parametrize("orl", [0, 1, 2])
    def test_mesh_form_equals_per_cell_form(self, orl):
        net = generate_network(GenerationParams(L=15.0, n_fractures=40, seed=3))
        graph = build_intersection_graph(net)
        mesh = cube_mesh(15.0, 5.0, net, orl=orl)
        per_cell = count_false_connections(
            (mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]), graph,
            total_cells=mesh.num_cells, equivalent_cells=7 * mesh.num_cells)
        from_mesh = count_false_connections(
            mesh, graph, total_cells=mesh.num_cells, equivalent_cells=7 * mesh.num_cells)
        assert per_cell.num_false_pairs > 0
        assert from_mesh == per_cell

    def test_report_percentages(self):
        net = chain_network()
        graph = build_intersection_graph(net)
        report = count_false_connections(
            [(0, 2)], graph, total_cells=50, equivalent_cells=200
        )
        assert report.num_false_pairs == 1  # 0 and 2 never intersect directly
        assert report.fc_over_vc == pytest.approx(2.0)
        assert report.vc_over_n == pytest.approx(25.0)
        assert report.cells_with_false <= report.total_cells


class TestMeshPercolation:
    def test_all_matrix_mesh(self):
        mesh = cube_mesh(10.0, 2.5)
        assert not mesh_percolates(mesh)

    def test_single_through_going_fracture(self):
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 10.0)], 10.0)
        mesh = cube_mesh(10.0, 2.5, net, orl=1)
        assert mesh_percolates(mesh)

    def test_bridged_then_separated_by_refinement(self):
        net = two_plate_network()
        graph = build_intersection_graph(net)
        assert not dfn_percolates(graph)
        coarse = cube_mesh(25.0, 5.0, net, orl=1)
        fine = cube_mesh(25.0, 5.0, net, orl=3)
        assert mesh_percolates(coarse)
        assert not mesh_percolates(fine)

    def test_invariant_to_cell_relabeling(self):
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 10.0)], 10.0)
        mesh = cube_mesh(10.0, 2.5, net, orl=1)
        verdict = mesh_percolates(mesh)
        # relabel by reversing the cell order
        order = np.arange(mesh.num_cells)[::-1]
        inverse = np.argsort(order)

        class Shuffled:
            BTAG_XMIN = mesh.BTAG_XMIN
            BTAG_XMAX = mesh.BTAG_XMAX
            num_cells = mesh.num_cells
            is_fracture = mesh.is_fracture[order]

            class faces:
                cell_a = inverse[mesh.faces.cell_a]
                cell_b = np.where(mesh.faces.cell_b >= 0, inverse[mesh.faces.cell_b], -1)
                btag = mesh.faces.btag

            clusters = fracture_clusters(faces, is_fracture)

        assert mesh_percolates(Shuffled) == verdict
