import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracscale.geometry import Box, clip_polygon_to_box, clip_vertices, disc_to_polygon, polygon_area
from fracscale.network import FractureNetwork, GenerationParams, generate_network
from fracscale import octree
from fracscale.octree import (
    MeshError,
    MeshParams,
    build_face_adjacency,
    build_initial_grid,
    build_mesh,
    equivalent_hex_count,
    refine,
    tag_fracture_cells,
    write_vtk,
)
from fracscale.topology import build_intersection_graph, remove_isolated
from fracscale.upscale import upscale_mesh

from conftest import box_mesh, cube_mesh, disc, make_disc, make_network


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
        net = make_network([make_disc((2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = build_initial_grid(Box.cube(50.0), 5.0)
        tag_fracture_cells(mesh, net)
        assert mesh.is_fracture.sum() == 1
        assert len(mesh.pair_cell) == 1

    def test_disc_spanning_face_tags_both_cells(self):
        net = make_network([make_disc((0.0, 2.5, 2.2), (0, 0, 1), 1.0)], 50.0)
        mesh = build_initial_grid(Box.cube(50.0), 5.0)
        tag_fracture_cells(mesh, net)
        assert mesh.is_fracture.sum() == 2
        assert list(mesh.pair_fid) == [0, 0]

    @pytest.mark.parametrize("z", [0.0, -6.567614197116788e-53, 2.5, -1e-13])
    @pytest.mark.parametrize("orl", [0, 1, 2])
    def test_disc_in_cell_face_stored_once(self, z, orl):
        # z = 0 is a level-0 face, z = 2.5 a level-1 face; the other two lie
        # within rounding of z = 0
        net = make_network([make_disc((0.0, 0.0, z), (0, 0, 1), 1.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=orl)
        poly = disc_to_polygon(disc(net, 0), 32)
        assert mesh.pair_area.sum() == pytest.approx(polygon_area(poly), rel=1e-12)

    def test_disc_in_domain_top_face_is_kept(self):
        net = make_network([make_disc((0.0, 0.0, 10.0), (0, 0, 1), 1.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=1)
        poly = disc_to_polygon(disc(net, 0), 32)
        assert mesh.pair_area.sum() == pytest.approx(polygon_area(poly), rel=1e-12)

    def test_candidates_equal_per_fracture_enumeration(self, monkeypatch):
        # generated discs, some cut by a domain face, plus discs whose index
        # box is empty: beyond one face, and beyond a domain edge (two axes
        # empty, whose sizes multiply to a positive count)
        gen = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=4))
        net = make_network([disc(gen, i) for i in range(len(gen))] + [
            make_disc((16.0, 0.0, 0.0), (0, 0, 1), 2.0),
            make_disc((-22.0, 22.0, 0.0), (1, 1, 0), 2.0),
            make_disc((0.0, -22.0, 22.0), (0, 1, 1), 2.0),
            make_disc((9.5, -9.5, 0.0), (1, 0, 1), 2.0),
        ], 20.0)
        seen = []
        measure = octree.OctreeMesh._measure

        def spy(mesh, fid, level, ijk, polys):
            seen.append((fid, ijk))
            return measure(mesh, fid, level, ijk, polys)

        monkeypatch.setattr(octree.OctreeMesh, "_measure", spy)
        mesh = tag_fracture_cells(build_initial_grid(net.domain, 5.0), net)
        (fid, ijk), = seen
        # the per-fracture enumeration: np.ix_ over each polygon's index box
        polys = octree._Polygons(net, 32)
        dims = np.array(mesh.n0)
        lo = np.maximum(np.floor((polys.lo - mesh.domain.lo) / 5.0 - 1e-9).astype(int), 0)
        hi = np.minimum(np.floor((polys.hi - mesh.domain.lo) / 5.0 + 1e-9).astype(int), dims - 1)
        boxes = [np.ravel_multi_index(np.ix_(*(np.arange(a, b + 1) for a, b in zip(bl, bh))),
                                      mesh.n0).ravel() for bl, bh in zip(lo, hi)]
        assert [len(box) for box in boxes[30:33]] == [0, 0, 0] and len(boxes[33]) > 0
        assert (hi[31] < lo[31]).sum() == (hi[32] < lo[32]).sum() == 2
        assert np.prod(hi[31] - lo[31] + 1) > 0
        cell = np.concatenate(boxes)
        assert np.array_equal(fid, np.repeat(np.arange(len(boxes)), [len(b) for b in boxes]))
        assert np.array_equal(ijk, mesh.ijk[cell])
        assert fid.dtype == np.int64 and ijk.dtype == mesh.ijk.dtype

    def test_tagging_requires_initial_grid(self):
        net = make_network([make_disc((2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = cube_mesh(50.0, 5.0, net, orl=1)
        with pytest.raises(MeshError):
            tag_fracture_cells(mesh, net)


class TestRefine:
    def test_orl_zero_leaves_mesh_unchanged(self):
        net = make_network([make_disc((2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = cube_mesh(50.0, 5.0, net, orl=0)
        assert mesh.num_cells == 1000

    def test_single_interior_disc_oracle_count(self):
        # one fracture cell and its 6 face neighbors split: 1000 - 7 + 56
        net = make_network([make_disc((2.5, 2.5, 2.2), (0, 0, 1), 0.5)], 50.0)
        mesh = cube_mesh(50.0, 5.0, net, orl=1)
        assert mesh.num_cells == 1049

    def test_cell_count_strictly_increases_with_orl(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=4))
        counts = [cube_mesh(20.0, 5.0, net, orl=k).num_cells for k in range(3)]
        assert counts[0] < counts[1] < counts[2]

    def test_fracture_leaves_reach_finest_level(self):
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 3.0)], 20.0)
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
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 4.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        # project every leaf onto the finest index lattice and count coverage
        finest = mesh.level.max()
        coverage = np.zeros(mesh.grid_dims(finest), dtype=int)
        for level, (i, j, k) in zip(mesh.level, mesh.ijk):
            scale = 2 ** (finest - level)
            coverage[i * scale:(i + 1) * scale, j * scale:(j + 1) * scale,
                     k * scale:(k + 1) * scale] += 1
        assert np.all(coverage == 1)

    def test_fracture_polygons_covered_by_fracture_leaves(self):
        net = make_network([make_disc((0.1, -0.2, 0.3), (1, 2, 3), 4.0)], 20.0)
        for orl in (1, 2):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            poly = disc_to_polygon(disc(net, 0), 32)
            domain_area = polygon_area(clip_polygon_to_box(poly, mesh.domain))
            tagged_area = sum(
                polygon_area(clip_polygon_to_box(poly, mesh.cell_box(i)))
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
            [make_disc(c, n, r) for c, n, r in discs], 20.0)
        for orl in (0, 1, 2):
            mesh = cube_mesh(20.0, 5.0, net, orl=orl)
            stored = np.bincount(mesh.pair_fid, mesh.pair_area, len(net))
            for fid in range(len(net)):
                domain_area = polygon_area(
                    clip_polygon_to_box(disc_to_polygon(disc(net, fid), 32), mesh.domain))
                # cells cut by a sliver of at most AREA_EPS store nothing
                assert stored[fid] == pytest.approx(domain_area, rel=1e-9, abs=1e-9)

    def test_two_to_one_balance_holds(self):
        net = make_network([make_disc((0.3, -0.4, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=3, balance=True)
        faces = mesh.faces
        interior = faces.cell_b >= 0
        jump = np.abs(mesh.level[faces.cell_a[interior]] - mesh.level[faces.cell_b[interior]])
        assert jump.max() <= 1

    def test_faces_from_the_balance_contacts_equal_fresh_faces(self):
        net = make_network([make_disc((0.3, -0.4, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        reused = mesh.faces
        assert mesh._contacts is None   # dropped once the faces are built
        fresh = build_face_adjacency(mesh)
        for f in dataclasses.fields(fresh):
            assert np.array_equal(getattr(reused, f.name), getattr(fresh, f.name))

    def test_unbalanced_mesh_rejected_by_face_builder(self):
        net = make_network([make_disc((0.3, -0.4, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = build_initial_grid(Box.cube(20.0), 5.0)
        tag_fracture_cells(mesh, net)
        refine(mesh, net, 3, balance=False)
        with pytest.raises(MeshError):
            build_face_adjacency(mesh)


def _level_candidates(mesh, net, level):
    """Every (cell at this level, fracture) pair as _Polygons.areas arguments."""
    dims = mesh.grid_dims(level)
    ijk = np.indices(dims).reshape(3, -1).T
    cell = np.repeat(np.arange(len(ijk)), len(net))
    fid = np.tile(np.arange(len(net)), len(ijk))
    edge = np.full(len(cell), mesh.cell_edge(level))
    lo = mesh.domain.lo + edge[:, None] * ijk[cell]
    hi = mesh.domain.lo + edge[:, None] * (ijk[cell] + 1)
    return fid, lo, hi, edge, ijk[cell] + 1 == np.array(dims)


class TestPolygonAreas:
    """_Polygons.areas clips the candidates that pass the quick-rejects in
    blocks of CLIP_BLOCK, one kernel call per block."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def clip(flat, count, lo, hi):
            calls.append(len(count))
            return clip_vertices(flat, count, lo, hi)

        monkeypatch.setattr(octree, "clip_vertices", clip)
        return calls

    def test_blocks_do_not_change_areas(self, monkeypatch, counted):
        # a generated network plus a disc lying in the domain's top face
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=4))
        net = make_network([disc(net, i) for i in range(len(net))]
                           + [make_disc((1.0, 2.0, 10.0), (0, 0, 1), 3.0)], 20.0)
        mesh = build_initial_grid(net.domain, 5.0)
        args = _level_candidates(mesh, net, 1)
        polys = octree._Polygons(net, 32)
        whole = polys.areas(*args)
        survivors = counted.pop()
        assert counted == [] and survivors % 7 and survivors > 7
        assert whole[args[0] == 30].sum() == pytest.approx(
            polygon_area(disc_to_polygon(disc(net, 30), 32)), rel=1e-12)
        for block in (7, 1):
            monkeypatch.setattr(octree, "CLIP_BLOCK", block)
            assert np.array_equal(polys.areas(*args), whole)
            assert counted == [block] * (survivors // block) + [survivors % block] * (block > 1)
            counted.clear()

    def test_no_survivors_make_no_kernel_call(self, counted):
        net = make_network([make_disc((7.5, 7.5, 7.5), (0, 0, 1), 0.5)], 20.0)
        mesh = build_initial_grid(net.domain, 5.0)
        fid, lo, hi, edge, top = _level_candidates(mesh, net, 0)
        far = np.all(hi <= 5.0, axis=1)
        polys = octree._Polygons(net, 32)
        assert np.array_equal(polys.areas(fid[far], lo[far], hi[far], edge[far], top[far]),
                              np.zeros(far.sum()))
        assert polys.areas(fid[:0], lo[:0], hi[:0], edge[:0], top[:0]).shape == (0,)
        assert counted == []


MESH_ARRAYS = ("level", "ijk", "pair_cell", "pair_fid", "pair_area")
FACE_ARRAYS = ("cell_a", "cell_b", "area", "d_a", "d_b", "axis", "btag")


def _assert_same_mesh(a, b):
    for obj_a, obj_b, names in ((a, b, MESH_ARRAYS), (a.faces, b.faces, FACE_ARRAYS)):
        for name in names:
            x, y = getattr(obj_a, name), getattr(obj_b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


class _Forgetful(dict):
    """clipped_areas that keeps nothing: every build clips every candidate."""

    def __setitem__(self, key, value):
        pass


def _fresh(net, forgetful=False):
    """A copy of net with nothing measured on it and no root but itself."""
    out = FractureNetwork(net.center, net.normal, net.radius, net.aperture, net.domain, net.params)
    if forgetful:
        out.clipped_areas = _Forgetful()
    return out


@pytest.fixture(scope="module")
def desk_modes():
    """Desk-family networks (L = 25 m, p_c = 250) at seed 2, the ids of the
    fractures remove_isolated keeps, and the orl 1-3 meshes of both isolated
    modes, each built on its own fresh network that keeps no areas.  At
    p' 0.5 the network does not percolate, so its removed network is empty."""
    out = {}
    for n in (125, 250):
        net = generate_network(GenerationParams(L=25.0, n_fractures=n, seed=2))
        keep = remove_isolated(net, build_intersection_graph(net)).origin()[1]
        meshes = {}
        for orl in (1, 2, 3):
            for mode, fresh in (("retained", _fresh(net, forgetful=True)),
                                ("removed", _fresh(net.subset(keep), forgetful=True))):
                meshes[mode, orl] = build_mesh(net.domain, fresh, MeshParams(orl=orl))
        out[n] = net, keep, meshes
    assert len(out[125][1]) == 0 < len(out[250][1]) < 250
    return out


def _modes(net, keep):
    """Both isolated modes of a fresh copy of net: they share one root."""
    fresh = _fresh(net)
    return {"retained": fresh, "removed": fresh.subset(keep)}


class TestClippedAreas:
    """The meshes of a network and its subsets clip each candidate once
    between them, and each equals the mesh of a fresh network."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """Edge of every box clipped through octree.clip_vertices, one per row."""
        edges = []

        def clip(flat, count, lo, hi):
            edges.extend(np.broadcast_to(hi - lo, (len(count), 3))[:, 0])
            return clip_vertices(flat, count, lo, hi)

        monkeypatch.setattr(octree, "clip_vertices", clip)
        return edges

    @pytest.mark.parametrize("n", [125, 250])
    @pytest.mark.parametrize("orls", [(1, 2, 3), (3, 2, 1)])
    @pytest.mark.parametrize("modes", [("retained", "removed"), ("removed", "retained")])
    def test_shared_builds_equal_separate_builds(self, desk_modes, n, orls, modes):
        net, keep, meshes = desk_modes[n]
        nets = _modes(net, keep)
        for mode in modes:
            for orl in orls:
                mesh = build_mesh(net.domain, nets[mode], MeshParams(orl=orl))
                _assert_same_mesh(mesh, meshes[mode, orl])

    def test_repeated_build_clips_nothing(self, desk_modes, rows):
        net = _fresh(desk_modes[250][0])
        build_mesh(net.domain, net, MeshParams(orl=2))
        assert len(rows) > 0
        rows.clear()
        build_mesh(net.domain, net, MeshParams(orl=2))
        assert rows == []

    def test_deepest_retained_build_leaves_nothing_to_clip(self, desk_modes, rows):
        nets = _modes(*desk_modes[250][:2])
        build_mesh(nets["retained"].domain, nets["retained"], MeshParams(orl=3))
        rows.clear()
        for mode in ("removed", "retained"):
            for orl in (1, 2, 3):
                build_mesh(nets[mode].domain, nets[mode], MeshParams(orl=orl))
        assert rows == []

    def test_deeper_build_clips_only_its_new_level(self, desk_modes, rows):
        net = desk_modes[250][0]
        build_mesh(net.domain, _fresh(net, forgetful=True), MeshParams(orl=2))
        level2 = sum(edge == 5.0 / 4 for edge in rows)
        net = _fresh(net)
        build_mesh(net.domain, net, MeshParams(orl=1))
        rows.clear()
        build_mesh(net.domain, net, MeshParams(orl=2))
        assert level2 > 0 and rows == [5.0 / 4] * level2

    def test_removed_only_builds_clip_only_kept_fractures(self, desk_modes):
        net, keep, meshes = desk_modes[250]
        removed = _modes(net, keep)["removed"]
        _assert_same_mesh(build_mesh(net.domain, removed, MeshParams(orl=2)),
                          meshes["removed", 2])
        root = removed.origin()[0]
        assert root is not removed and list(root.clipped_areas) == [
            (32, 5.0, tuple(net.domain.lo), tuple(net.domain.hi))]
        (keys, _), = root.clipped_areas.values()
        assert set((keys % len(net)).tolist()) == set(keep.tolist())

    def test_other_polygonisations_and_lattices_measure_afresh(self, desk_modes):
        net, keep, meshes = desk_modes[250]
        nets = _modes(net, keep)
        build_mesh(net.domain, nets["retained"], MeshParams(orl=1))
        shifted = Box(net.domain.lo + 5.0, net.domain.hi + 5.0)
        for domain, params, m in ((net.domain, MeshParams(orl=1), 16),
                                  (net.domain, MeshParams(l=2.5, orl=1), 32),
                                  (shifted, MeshParams(orl=1), 32)):
            for sub in nets.values():
                _assert_same_mesh(build_mesh(domain, sub, params, m),
                                  build_mesh(domain, _fresh(sub, forgetful=True), params, m))
        assert len(nets["retained"].clipped_areas) == 4
        assert nets["removed"].clipped_areas == {}
        _assert_same_mesh(build_mesh(net.domain, nets["removed"], MeshParams(orl=1)),
                          meshes["removed", 1])

    def test_keys_too_deep_for_int64_raise(self):
        rid, ijk = np.zeros(1, dtype=int), np.zeros((1, 3), dtype=int)
        # 64 level-0 cells: the cells of levels 0-18 fit in int64, of 0-19 not
        assert octree._area_keys(rid, 1, np.array([18]), ijk, (4, 4, 4))[0] > 0
        with pytest.raises(MeshError, match="too deep"):
            octree._area_keys(rid, 1, np.array([19]), ijk, (4, 4, 4))


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
        mesh_obj.split([1])  # the leaf (level 0, i 1, j 0, k 0)
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
        net = make_network([make_disc((0.3, 0.2, 0.3), (0, 0, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        faces = mesh.faces
        interior = faces.cell_b >= 0
        pairs = list(zip(faces.cell_a[interior], faces.cell_b[interior]))
        normalized = {(min(a, b), max(a, b), ax) for (a, b), ax in zip(pairs, faces.axis[interior])}
        assert len(normalized) == len(pairs)

    def test_cell_surface_area_closes(self):
        # faces referencing each cell (either side) must tile its whole surface
        net = make_network([make_disc((0.3, 0.2, 0.3), (1, 1, 1), 2.0)], 20.0)
        mesh = cube_mesh(20.0, 5.0, net, orl=2)
        faces = mesh.faces
        per_cell = np.zeros(mesh.num_cells)
        np.add.at(per_cell, faces.cell_a, faces.area)
        interior = faces.cell_b >= 0
        np.add.at(per_cell, faces.cell_b[interior], faces.area[interior])
        assert np.allclose(per_cell, 6.0 * mesh.edge**2, rtol=1e-12)

    def test_graded_interface_areas_sum_to_coarse_face(self):
        mesh_obj = build_initial_grid(Box(np.zeros(3), np.array([10.0, 5.0, 5.0])), 5.0)
        mesh_obj.split([1])
        faces = build_face_adjacency(mesh_obj)
        interior = faces.cell_b >= 0
        coarse_id = int(np.flatnonzero(mesh_obj.level == 0)[0])
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
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 2.0)], 10.0)
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

    def test_vtk_bytes_match_per_cell_writer(self, tmp_path):
        # mixed levels, corners that need all 10 digits (cells of edge 20/3
        # and its halves), int, bool and float data, and floats whose
        # shortest form needs all 17 digits
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=4))
        mesh = cube_mesh(20.0, 20.0 / 3.0, net, orl=2)
        assert len(np.unique(mesh.level)) > 1
        rng = np.random.default_rng(7)
        data = {
            "permeability": upscale_mesh(mesh, net, 1e-16, 0.01).permeability,
            "noise": rng.standard_normal(mesh.num_cells) * 10.0 ** rng.integers(-300, 300, mesh.num_cells),
            "label": rng.integers(-9, 9, mesh.num_cells),
            "flag": rng.random(mesh.num_cells) < 0.5,
        }
        data["noise"][:5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
        write_vtk(mesh, tmp_path / "got.vtk", data, title="mixed")
        _per_cell_vtk(mesh, tmp_path / "want.vtk", data, title="mixed")
        assert (tmp_path / "got.vtk").read_bytes() == (tmp_path / "want.vtk").read_bytes()


def _per_cell_vtk(mesh, path, cell_data, title):
    """The per-cell writer write_vtk replaced, kept as its byte reference."""
    n = mesh.num_cells
    data = {"level": mesh.level.astype(int), "is_fracture": mesh.is_fracture.astype(int)}
    data.update(cell_data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {8 * n} double\n")
        for idx in range(n):
            lo = mesh.center[idx] - 0.5 * mesh.edge[idx]
            for off in octree._HEX_OFFSETS:
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


# (leaves, pairs, faces) counts and sha256 digests of the leaf (level, i, j, k),
# pair (cell, id, area) and seven FaceSet arrays, cast to little-endian int64 /
# float64, of cube_mesh(20, 5, network, orl) for the generated network
# (n_fractures, seed); recorded from the dict-of-leaves octree the flat arrays
# replaced, which they reproduce bit for bit
OCTREE_DIGESTS = {
    (30, 4, 0): (64, 62, 240,
        "d000abf1945cb4f41864aeaa50df310eabf4bc7bfd0b3cdaad15186e7f8d9aed",
        "1b373e579a3cdc394cab243c12ba34cfbf911b41c5782b9acbb36191e9c36435",
        "84533b6b753388e643cd6a39dc31c75c190d4415e4726bac1428dc14a7b7391b"),
    (30, 4, 1): (512, 146, 1728,
        "9785828851c85aef0c27a1ee94ffcdab2438c8122cae618d1198ca16545e7d1f",
        "27906d670537fd02496fb39043e47797cbfab613e397bac1b361f939f4ee5e52",
        "39bacd88973f4a5c58f3781aae9b6d01effece7602984cc0c0d15955425202ee"),
    (30, 4, 2): (2766, 417, 9399,
        "684de10ff180cc0fdbb8360218bcc677ffd21025a1859f476a2a24eed2a4a9bc",
        "ac9e17af0591fe3fc4ed13c6efde4cfd69dec8304df9ebac0aba1775af393d44",
        "6708a7c7037173f9a40507bd001d4990a3f9d189302e68a97c9c5dcaf3292a20"),
    (30, 4, 3): (10193, 1337, 34572,
        "1c6f2cbe426c93d79dc1d759972f300939824254fd737419966881622a5fd288",
        "d5f6b374518a73e4ec032f8d67e77fbfc24a011c0a781e639309258429024fc4",
        "62095a877bb51c69473860702d9da445a8f1cb67aa32bf0a2918e23a276c0ab7"),
    (25, 9, 0): (64, 75, 240,
        "d000abf1945cb4f41864aeaa50df310eabf4bc7bfd0b3cdaad15186e7f8d9aed",
        "8f9e3e630b238d2f1e73291f384eb65bc419670a6f0fa28bf303313ba6328561",
        "84533b6b753388e643cd6a39dc31c75c190d4415e4726bac1428dc14a7b7391b"),
    (25, 9, 1): (491, 160, 1665,
        "e07f2b9212be9a367c293cacb4657d7550689b6cd98aba3d72f46a39f036ec0c",
        "e9e6ffb00122e90e078aebff6034da3334b1074adb378d88b917c38c7402c924",
        "0b1a37d190e3820219309a2ed89b77a4ab485e4814cb1f27e9e3214c5ce10a69"),
    (25, 9, 2): (2920, 430, 9687,
        "ec4664e861c5084bab87f5d1f5aaeb226807c40f5eff1b25cd4f0cd6d7617070",
        "6cad2e4eefeeed4ab2babbd4dbda4f07748f9d7471fba37e78a9f1247ba7df4c",
        "87d10c7e7c0b091fa92223bb528165844597d9141d69df1850b264f64d3430b7"),
    (25, 9, 3): (10928, 1372, 36513,
        "26a132f1b22ddb18192e67ce02b83195f561434e5261c241c7e395275c0786c4",
        "825a665254f78607a4608de18a62de3babb2818158cd8dc2d2a81fdf419a5c26",
        "d93dc188409ec295b93b29ac00a30b7ba62af8fbf4a40247079cd38893a14ef2"),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


class TestRegression:
    @pytest.mark.parametrize("n,seed,orl", sorted(OCTREE_DIGESTS))
    def test_arrays_match_recorded_digests(self, n, seed, orl):
        net = generate_network(GenerationParams(L=20.0, n_fractures=n, seed=seed))
        mesh = cube_mesh(20.0, 5.0, net, orl=orl)
        f = mesh.faces
        n_leaves, n_pairs, n_faces, *digests = OCTREE_DIGESTS[n, seed, orl]
        assert (mesh.num_cells, len(mesh.pair_cell), len(f)) == (n_leaves, n_pairs, n_faces)
        assert [
            _digest(mesh.level, mesh.ijk),
            _digest(mesh.pair_cell, mesh.pair_fid, mesh.pair_area),
            _digest(f.cell_a, f.cell_b, f.area, f.d_a, f.d_b, f.axis, f.btag),
        ] == digests
