from itertools import combinations

import numpy as np
import pytest

from fracscale.geometry import AREA_EPS, clip_polygon_to_box, polygon_area
from fracscale.network import GenerationParams, generate_network
from fracscale.topology import (
    build_intersection_graph,
    count_false_connections,
    dfn_percolates,
    mesh_percolates,
    percolating_cluster,
    remove_isolated,
)

from conftest import cube_mesh, make_disc, make_network, two_plate_network


def chain_network(L=10.0, with_bridge=True, with_outlier=False):
    """Three discs chained inlet-to-outlet plus an optional isolated one.

    A reaches x = -L/2, C reaches x = +L/2, and B straddles both carrier
    planes so the chain is connected only through it.
    """
    discs = [
        make_disc(0, (-3.5, 0.0, 0.1), (0, 0, 1), 2.0),     # touches inflow
        make_disc(2, (3.2, 0.0, -0.1), (0, 0, 1), 2.0),     # touches outflow
    ]
    if with_bridge:
        discs.insert(1, make_disc(1, (-1.0, 0.0, 0.0), (0, 1, 0), 3.0))
    if with_outlier:
        discs.append(make_disc(9, (0.0, 3.0, 3.0), (0, 0, 1), 0.5))
    return make_network([make_disc(i, f.center, f.normal, f.radius) for i, f in enumerate(discs)], L)


class TestIntersectionGraph:
    def test_empty_network(self):
        graph = build_intersection_graph(make_network([], 10.0))
        assert graph.edges == []
        assert not dfn_percolates(graph)

    def test_chain_spans_source_to_sink(self):
        graph = build_intersection_graph(chain_network())
        assert {(0, 1), (1, 2)} <= set(graph.edges)
        assert 0 in graph.source_ids
        assert 2 in graph.sink_ids
        assert dfn_percolates(graph)

    def test_disjoint_discs_have_no_edge(self):
        net = make_network([
            make_disc(0, (-2.0, 0.0, 1.0), (0, 0, 1), 1.0),
            make_disc(1, (2.0, 0.0, -1.0), (0, 0, 1), 1.0),
        ], 10.0)
        graph = build_intersection_graph(net)
        assert graph.edges == []

    def test_removing_bridge_breaks_percolation(self):
        graph = build_intersection_graph(chain_network(with_bridge=False))
        assert not dfn_percolates(graph)

    def test_matches_brute_force_on_random_network(self):
        from fracscale.geometry import discs_intersect

        net = generate_network(GenerationParams(L=15.0, n_fractures=40, seed=3))
        graph = build_intersection_graph(net)
        brute = {
            (i, j)
            for i in range(len(net))
            for j in range(i + 1, len(net))
            if discs_intersect(net.fractures[i], net.fractures[j])
        }
        assert set(graph.edges) == brute

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
        radii = sorted(f.radius for f in kept.fractures)
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
            assert graph.subset(keep) == build_intersection_graph(kept)
            sizes.append(len(keep))
        assert 0 in sizes and max(sizes) > 3


def reference_false_connections(cell_map, graph):
    """(false pairs network-wide, cells holding one) by looping over cells and pairs."""
    edges = set(graph.edges)
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
            make_disc(0, (0.6, 0.6, 0.55), (0, 0, 1), 1.0),
            make_disc(1, (0.6, 0.6, 0.95), (0, 0, 1), 1.0),
        ], L)
        graph = build_intersection_graph(net)
        assert graph.edges == []
        mesh = cube_mesh(L, 2.5, net, orl=0)
        cell_map = [mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]]
        report = count_false_connections(
            cell_map, graph, total_cells=mesh.num_cells, equivalent_cells=mesh.num_cells
        )
        assert report.num_false_pairs == 1
        # oracle: enumerate cells both discs reach with positive area
        polys = net.polygons()
        shared = 0
        for idx in range(mesh.num_cells):
            box = mesh.cell_box(idx)
            if all(polygon_area(clip_polygon_to_box(p, box)) > AREA_EPS for p in polys):
                shared += 1
        assert shared >= 1
        assert report.cells_with_false == shared

    def test_fine_cells_separate_the_pair(self):
        # same plates, 0.15625 m cells: no cell can hold both
        L = 5.0
        net = make_network([
            make_disc(0, (0.0, 0.0, -2.43), (0, 0, 1), 1.0),
            make_disc(1, (0.0, 0.0, -2.03), (0, 0, 1), 1.0),
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
        net = make_network([make_disc(0, (0.0, 0.0, 0.3), (0, 0, 1), 10.0)], 10.0)
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
        net = make_network([make_disc(0, (0.0, 0.0, 0.3), (0, 0, 1), 10.0)], 10.0)
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

        assert mesh_percolates(Shuffled) == verdict
