import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracscale.geometry import Box, clip_polygon_to_box, disc_to_polygon, polygon_area
from fracscale.network import GenerationParams, generate_network
from fracscale.octree import (
    MeshError,
    MeshParams,
    build_face_adjacency,
    build_initial_grid,
    equivalent_hex_count,
    refine,
    tag_fracture_cells,
    write_cell_csv,
    write_face_csv,
    write_vtk,
)
from fracscale.upscale import upscale_mesh

from conftest import box_mesh, cube_mesh, make_disc, make_network


class TestInitialGrid:
    def test_cell_counts(self):
        assert build_initial_grid(Box.cube(50.0), 5.0).num_cells == 1000
        assert build_initial_grid(Box.cube(10.0), 5.0).num_cells == 8

    def test_total_volume_exact(self):
        mesh = cube_mesh(50.0, 5.0)
        assert mesh.volume.sum() == pytest.approx(125000.0, rel=1e-12)

    def test_non_integer_division_rejected(self):
        with pytest.raises(MeshError):
            build_initial_grid(Box.cube(50.0), 7.0)

    def test_mesh_params_validation(self):
        with pytest.raises(ValueError):
            MeshParams(l=-1.0)
        with pytest.raises(ValueError):
            MeshParams(orl=-1)


class TestTagging:
    def test_empty_network_all_matrix(self):
        mesh = cube_mesh(50.0, 5.0)
        assert not mesh.is_fracture.any()

    def test_interior_disc_tags_exactly_one_cell(self):
        net = make_network([make_disc(0, (2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = build_initial_grid(Box.cube(50.0), 5.0)
        tag_fracture_cells(mesh, net)
        assert sum(leaf.is_fracture for leaf in mesh.leaves.values()) == 1

    def test_disc_spanning_face_tags_both_cells(self):
        net = make_network([make_disc(0, (0.0, 2.5, 2.2), (0, 0, 1), 1.0)], 50.0)
        mesh = build_initial_grid(Box.cube(50.0), 5.0)
        tag_fracture_cells(mesh, net)
        assert sum(leaf.is_fracture for leaf in mesh.leaves.values()) == 2

    def test_tagging_requires_initial_grid(self):
        net = make_network([make_disc(0, (2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = cube_mesh(50.0, 5.0, net, orl=1)
        with pytest.raises(MeshError):
            tag_fracture_cells(mesh, net)


class TestRefine:
    def test_orl_zero_leaves_mesh_unchanged(self):
        net = make_network([make_disc(0, (2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = cube_mesh(50.0, 5.0, net, orl=0)
        assert mesh.num_cells == 1000

    def test_single_interior_disc_oracle_count(self):
        # one fracture cell and its 6 face neighbors split: 1000 - 7 + 56
        net = make_network([make_disc(0, (2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = cube_mesh(50.0, 5.0, net, orl=1)
        assert mesh.num_cells == 1049

    def test_cell_count_strictly_increases_with_orl(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=4))
        counts = [cube_mesh(20.0, 5.0, net, orl=k).num_cells for k in range(3)]
        assert counts[0] < counts[1] < counts[2]

    def test_fracture_leaves_reach_finest_level(self):
        net = make_network([make_disc(0, (0.0, 0.0, 0.3), (0, 0, 1), 3.0)], 20.0)
        for orl in (1, 2):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            assert np.all(mesh.level[mesh.is_fracture] == orl)
            assert np.all(mesh.edge[mesh.is_fracture] == 5.0 / 2**orl)

    def test_volume_partition_preserved(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=25, seed=9))
        for orl in (1, 2, 3):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            assert mesh.volume.sum() == pytest.approx(20.0**3, rel=1e-9)

    def test_leaves_do_not_overlap(self):
        net = make_network([make_disc(0, (0.0, 0.0, 0.3), (0, 0, 1), 4.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        # project every leaf onto the finest index lattice and count coverage
        finest = mesh.max_level
        covered = set()
        for key in mesh.keys:
            level, i, j, k = key
            scale = 2 ** (finest - level)
            for di in range(scale):
                for dj in range(scale):
                    for dk in range(scale):
                        idx = (i * scale + di, j * scale + dj, k * scale + dk)
                        assert idx not in covered
                        covered.add(idx)
        nx, ny, nz = mesh.grid_dims(finest)
        assert len(covered) == nx * ny * nz

    def test_fracture_polygons_covered_by_fracture_leaves(self):
        net = make_network([make_disc(0, (0.1, -0.2, 0.3), (1, 2, 3), 4.0)], 20.0)
        for orl in (1, 2):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            poly = disc_to_polygon(net.fractures[0], 32)
            domain_area = polygon_area(clip_polygon_to_box(poly, mesh.domain))
            tagged_area = sum(
                polygon_area(clip_polygon_to_box(poly, mesh.cell_box(mesh.keys[i])))
                for i in np.nonzero(mesh.is_fracture)[0]
            )
            assert tagged_area == pytest.approx(domain_area, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.tuples(*[st.floats(-12.0, 12.0)] * 3),
            st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
                lambda n: np.linalg.norm(n) > 0.1),
            st.floats(0.5, 12.0),
        ),
        min_size=1, max_size=3,
    ))
    def test_leaf_areas_sum_to_domain_clipped_area(self, discs):
        net = make_network(
            [make_disc(i, c, n, r) for i, (c, n, r) in enumerate(discs)], 20.0)
        for orl in (0, 1, 2):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            stored = np.zeros(len(net))
            for ids, areas in zip(mesh.fracture_ids, mesh.fracture_areas):
                stored[list(ids)] += areas
            for fid, poly in enumerate(net.polygons(32)):
                domain_area = polygon_area(clip_polygon_to_box(poly, mesh.domain))
                # cells cut by a sliver of at most AREA_EPS store nothing
                assert stored[fid] == pytest.approx(domain_area, rel=1e-9, abs=1e-9)

    def test_two_to_one_balance_holds(self):
        net = make_network([make_disc(0, (0.3, -0.4, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=3, balance=True)
        faces = mesh.faces
        interior = faces.cell_b >= 0
        jump = np.abs(mesh.level[faces.cell_a[interior]] - mesh.level[faces.cell_b[interior]])
        assert jump.max() <= 1

    def test_unbalanced_mesh_rejected_by_face_builder(self):
        net = make_network([make_disc(0, (0.3, -0.4, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = build_initial_grid(Box.cube(20.0), 5.0)
        tag_fracture_cells(mesh, net)
        refine(mesh, net, 3, balance=False)
        with pytest.raises(MeshError):
            build_face_adjacency(mesh)


class TestFaceAdjacency:
    def test_two_cell_mesh(self):
        mesh = box_mesh((10.0, 5.0, 5.0), 5.0)
        faces = mesh.faces
        interior = faces.cell_b >= 0
        assert interior.sum() == 1
        assert faces.area[interior][0] == pytest.approx(25.0)
        assert faces.d_a[interior][0] == pytest.approx(2.5)
        assert faces.d_b[interior][0] == pytest.approx(2.5)
        assert (~interior).sum() == 10

    def test_coarse_cell_against_four_children(self):
        mesh_obj = build_initial_grid(Box(np.zeros(3), np.array([10.0, 5.0, 5.0])), 5.0)
        mesh_obj.split((0, 1, 0, 0))
        mesh_obj.finalize()
        faces = build_face_adjacency(mesh_obj)
        interior = faces.cell_b >= 0
        assert interior.sum() == 4 + 12  # coarse-fine interface + sibling contacts
        coarse_fine = faces.area[interior][np.abs(
            mesh_obj.level[faces.cell_a[interior]] - mesh_obj.level[faces.cell_b[interior]]
        ) == 1]
        assert len(coarse_fine) == 4
        assert np.allclose(coarse_fine, 6.25)
        assert coarse_fine.sum() == pytest.approx(25.0)

    def test_every_contact_appears_exactly_once(self):
        net = make_network([make_disc(0, (0.3, 0.2, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        faces = mesh.faces
        interior = faces.cell_b >= 0
        pairs = list(zip(faces.cell_a[interior], faces.cell_b[interior]))
        normalized = {(min(a, b), max(a, b), ax) for (a, b), ax in zip(pairs, faces.axis[interior])}
        assert len(normalized) == len(pairs)

    def test_cell_surface_area_closes(self):
        # faces referencing each cell (either side) must tile its whole surface
        net = make_network([make_disc(0, (0.3, 0.2, 0.3), (1, 1, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        faces = mesh.faces
        per_cell = np.zeros(mesh.num_cells)
        np.add.at(per_cell, faces.cell_a, faces.area)
        interior = faces.cell_b >= 0
        np.add.at(per_cell, faces.cell_b[interior], faces.area[interior])
        assert np.allclose(per_cell, 6.0 * mesh.edge**2, rtol=1e-12)

    def test_graded_interface_areas_sum_to_coarse_face(self):
        mesh_obj = build_initial_grid(Box(np.zeros(3), np.array([10.0, 5.0, 5.0])), 5.0)
        mesh_obj.split((0, 1, 0, 0))
        mesh_obj.finalize()
        faces = build_face_adjacency(mesh_obj)
        interior = faces.cell_b >= 0
        coarse_id = mesh_obj.key_index[(0, 0, 0, 0)]
        graded = interior & ((faces.cell_a == coarse_id) | (faces.cell_b == coarse_id))
        assert faces.area[graded].sum() == pytest.approx(25.0, rel=1e-12)


class TestEquivalentHexCount:
    @pytest.mark.parametrize("orl,expected", [(1, 9261), (2, 68921), (3, 531441), (4, 4173281)])
    def test_reference_values(self, orl, expected):
        assert equivalent_hex_count(50.0, 5.0, orl) == expected

    def test_leaf_count_never_exceeds_equivalent(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=40, seed=6))
        for orl in (1, 2):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            assert mesh.num_cells <= equivalent_hex_count(20.0, 5.0, orl)


class TestExport:
    def test_vtk_output_structure(self, tmp_path):
        net = make_network([make_disc(0, (0.0, 0.0, 0.3), (0, 0, 1), 2.0)], 10.0)
        mesh = cube_mesh(10.0, 5.0, net, orl=1)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        path = tmp_path / "mesh.vtk"
        write_vtk(mesh, path, {"permeability": props.permeability, "porosity": props.porosity})
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {8 * mesh.num_cells} double" in text
        assert f"CELLS {mesh.num_cells} {9 * mesh.num_cells}" in text
        assert sum(1 for line in text if line == "12") == mesh.num_cells
        assert "SCALARS permeability double 1" in text

    def test_csv_dumps(self, tmp_path):
        net = make_network([make_disc(0, (0.0, 0.0, 0.3), (0, 0, 1), 2.0)], 10.0)
        mesh = cube_mesh(10.0, 5.0, net, orl=1)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        cells = tmp_path / "cells.csv"
        write_cell_csv(mesh, cells, props)
        assert len(cells.read_text().splitlines()) == mesh.num_cells + 1
        fcsv = tmp_path / "faces.csv"
        write_face_csv(mesh, fcsv)
        assert len(fcsv.read_text().splitlines()) == len(mesh.faces) + 1
