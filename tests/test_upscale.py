import numpy as np
import pytest

from fracscale.geometry import AREA_EPS, clip_polygon_to_box, disc_to_polygon, polygon_area
from fracscale.network import GenerationParams, generate_network
from fracscale.upscale import UpscaleError, spectral_radius, transformation_tensor, upscale_mesh

from conftest import box_mesh, cube_mesh, disc, make_disc, make_network, two_plate_network

# one cell of edge 15.625 m cut across by a disc of aperture 5e-4 m holds
# fracture porosity 15.625^2 * 5e-4 / 15.625^3 = 3.2e-5
EDGE = 15.625
PHI_F = 3.2e-5
APERTURE = 5e-4


def one_cell(discs, edge=EDGE):
    """A single-cell mesh [0, edge]^3 tagged by the given discs, and their network."""
    net = make_network(discs, edge)
    return box_mesh((edge, edge, edge), edge, net), net


def cross_disc(normal=(0, 0, 1), aperture=APERTURE, edge=EDGE):
    """A disc through the cell center wide enough to cut the whole cell."""
    return make_disc((0.5 * edge,) * 3, normal, 2.0 * edge, aperture=aperture)


def fracture_permeability(discs):
    """k_F of the single cell: the permeability minus its matrix share."""
    props = upscale_mesh(*one_cell(discs), 1e-16, 0.01)
    return props.permeability[0] - (1.0 - props.fracture_porosity[0]) * 1e-16


def reference_upscale(mesh, network, k_m, phi_m, *, m_vertices=32,
                      strict_fracture_porosity=False):
    """The per-cell path upscale_mesh replaced: re-clip every tagged pair, cell by cell."""
    n = mesh.num_cells
    k, phi = np.full(n, float(k_m)), np.full(n, float(phi_m))
    phi_F, tag = np.zeros(n), np.zeros(n, dtype=bool)
    for idx in range(n):
        cell = mesh.cell_box(idx)
        v_c = cell.volume
        v_F, K = 0.0, np.zeros((3, 3))
        for fid in mesh.fracture_ids[idx]:
            f = disc(network, fid)
            a_f = polygon_area(clip_polygon_to_box(disc_to_polygon(f, m_vertices), cell))
            if a_f <= AREA_EPS:
                continue
            v_f = a_f * f.aperture
            v_F += v_f
            normal = np.asarray(f.normal, dtype=float)
            K += v_f / v_c * (np.eye(3) - np.outer(normal, normal)) * f.aperture**2
        if v_F == 0.0:
            continue
        cell_phi_F = v_F / v_c
        k_F = float(np.max(np.abs(np.linalg.eigvalsh(K / 12.0))))
        k[idx] = (1.0 - cell_phi_F) * k_m + k_F
        phi[idx] = (cell_phi_F if strict_fracture_porosity
                    else cell_phi_F + (1.0 - cell_phi_F) * phi_m)
        phi_F[idx] = cell_phi_F
        tag[idx] = True
    return k, phi, phi_F, tag


class TestTransformationTensor:
    def test_axis_aligned_normals(self):
        assert np.allclose(transformation_tensor((0, 0, 1)), np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(transformation_tensor((1, 0, 0)), np.diag([0.0, 1.0, 1.0]))

    def test_diagonal_normal(self):
        s = 1.0 / np.sqrt(2.0)
        expected = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(transformation_tensor((s, s, 0.0)), expected)

    def test_eigenvalues_are_one_one_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            eig = np.sort(np.linalg.eigvalsh(transformation_tensor(n)))
            assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-12)

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            transformation_tensor((0.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            transformation_tensor([(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)])

    def test_stack_equals_single_normals(self):
        rng = np.random.default_rng(3)
        normals = rng.normal(size=(20, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        stack = transformation_tensor(normals)
        assert stack.shape == (20, 3, 3)
        for n, P in zip(normals, stack):
            assert np.array_equal(P, transformation_tensor(n))


class TestCellFractureData:
    def test_volume_and_porosity_arithmetic(self):
        disc = make_disc((1.25, 1.25, 1.2), (0, 0, 1), 0.8, aperture=5e-4)
        mesh, net = one_cell([disc], edge=2.5)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        poly_area = polygon_area(disc_to_polygon(disc, 32))
        assert [list(ids) for ids in mesh.fracture_ids] == [[0]]
        assert mesh.pair_cell.tolist() == [0]
        assert mesh.pair_area[0] == pytest.approx(poly_area, rel=1e-12)
        volume = props.fracture_porosity[0] * mesh.volume[0]
        assert volume == pytest.approx(poly_area * 5e-4, rel=1e-12)
        assert props.fracture_porosity[0] == pytest.approx(poly_area * 5e-4 / 15.625, rel=1e-12)

    def test_no_fractures_gives_empty_list(self):
        mesh, _ = one_cell([], edge=2.5)
        assert [list(ids) for ids in mesh.fracture_ids] == [[]]
        assert len(mesh.pair_cell) == len(mesh.pair_area) == 0

    def test_disc_spanning_two_cells_conserves_area(self):
        disc = make_disc((2.5, 1.0, 1.2), (0, 0, 1), 0.8)
        mesh = box_mesh((5.0, 2.5, 2.5), 2.5, make_network([disc], 5.0))
        assert [list(ids) for ids in mesh.fracture_ids] == [[0], [0]]
        assert mesh.pair_cell.tolist() == [0, 1]
        assert mesh.pair_area.sum() == pytest.approx(polygon_area(disc_to_polygon(disc, 32)), rel=1e-9)


class TestPermeabilityTensor:
    def test_single_fracture_reference_values(self):
        k_F = fracture_permeability([cross_disc()])
        expected = PHI_F * APERTURE**2 / 12.0
        assert k_F == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.667e-13, rel=1e-3)

    def test_no_fractures_zero_tensor(self):
        assert fracture_permeability([]) == 0.0

    def test_coincident_fractures_add_linearly(self):
        one = fracture_permeability([cross_disc((0, 1, 0), 4e-4)])
        two = fracture_permeability(
            [cross_disc((0, 1, 0), 4e-4), cross_disc((0, 1, 0), 4e-4)])
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_aperture_cubed_scaling(self):
        # porosity tracks aperture, so doubling b multiplies the tensor by 8
        base = fracture_permeability([cross_disc((1, 0, 0), 4e-4)])
        doubled = fracture_permeability([cross_disc((1, 0, 0), 8e-4)])
        assert doubled == pytest.approx(8.0 * base, rel=1e-14)


class TestSpectralRadius:
    def test_diagonal_tensor(self):
        assert spectral_radius(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0)

    def test_zero_tensor(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_rank_deficient_projector_spectrum(self):
        K = PHI_F * transformation_tensor((0, 0, 1)) * APERTURE**2 / 12.0
        assert spectral_radius(K) == pytest.approx(PHI_F * APERTURE**2 / 12.0, rel=1e-12)

    def test_homogeneous_scaling(self):
        K = 2e-5 * transformation_tensor(np.ones(3) / np.sqrt(3)) * 3e-4**2 / 12.0
        assert spectral_radius(0.0 * K) == 0.0
        for c in (0.5, 7.0):
            assert spectral_radius(c * K) == pytest.approx(c * spectral_radius(K), rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        K = (2e-5 * transformation_tensor((0, 0, 1)) * 3e-4**2
             + 1e-5 * transformation_tensor((1, 0, 0)) * 2e-4**2) / 12.0
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            assert spectral_radius(q @ K @ q.T) == pytest.approx(spectral_radius(K), rel=1e-10)

    def test_asymmetric_tensor_rejected(self):
        bad = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            spectral_radius(bad)
        with pytest.raises(ValueError):
            spectral_radius(np.stack([np.eye(3), bad]))

    def test_stack_equals_single_tensors(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(15, 3, 3))
        stack = A + np.swapaxes(A, 1, 2)
        radii = spectral_radius(stack)
        assert radii.shape == (15,)
        for K, r in zip(stack, radii):
            assert r == spectral_radius(K)


class TestUpscaleCell:
    """Formula checks on one-cell meshes."""

    def test_matrix_cell_gets_background_values(self):
        props = upscale_mesh(*one_cell([]), 1e-16, 0.01)
        assert props.permeability[0] == 1e-16
        assert props.porosity[0] == 0.01
        assert not props.is_fracture[0]

    def test_single_fracture_reference_permeability(self):
        props = upscale_mesh(*one_cell([cross_disc()]), 1e-16, 0.01)
        expected = (1.0 - PHI_F) * 1e-16 + PHI_F * APERTURE**2 / 12.0
        assert props.permeability[0] == pytest.approx(expected, rel=1e-12)
        assert props.permeability[0] == pytest.approx(6.668e-13, rel=1e-3)
        assert props.is_fracture[0]

    def test_aperture_squared_as_a_python_float(self):
        # Python's a**2 goes through libm pow; with glibc it is one bit off
        # numpy's a*a for this aperture, and the permeability must keep it
        a = 0.001103708361335831
        mesh, net = one_cell([cross_disc(aperture=a)])
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        k_F = mesh.pair_area[0] * a / mesh.volume[0] * a**2 / 12.0
        assert props.permeability[0] == (1.0 - props.fracture_porosity[0]) * 1e-16 + k_F

    def test_porosity_blend_and_strict_mode(self):
        mesh, net = one_cell([cross_disc()])
        blended = upscale_mesh(mesh, net, 1e-16, 0.01)
        assert blended.porosity[0] == pytest.approx(PHI_F + (1 - PHI_F) * 0.01, rel=1e-12)
        strict = upscale_mesh(mesh, net, 1e-16, 0.01, strict_fracture_porosity=True)
        assert strict.porosity[0] == pytest.approx(PHI_F, rel=1e-12)
        assert blended.fracture_porosity[0] == strict.fracture_porosity[0]
        assert strict.fracture_porosity[0] == pytest.approx(PHI_F, rel=1e-12)

    def test_overfull_cell_rejected(self):
        mesh, net = one_cell([cross_disc(aperture=1.5, edge=1.0)], edge=1.0)
        with pytest.raises(UpscaleError):
            upscale_mesh(mesh, net, 1e-16, 0.01)

    def test_invalid_background_rejected(self):
        mesh, net = one_cell([])
        with pytest.raises(ValueError):
            upscale_mesh(mesh, net, 0.0, 0.01)
        with pytest.raises(ValueError):
            upscale_mesh(mesh, net, 1e-16, 1.5)


class TestUpscaleMesh:
    def test_empty_network_uniform_field(self):
        mesh = cube_mesh(10.0, 2.5)
        net = make_network([], 10.0)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        assert np.all(props.permeability == 1e-16)
        assert np.all(props.porosity == 0.01)
        assert not props.is_fracture.any()

    def test_fracture_volume_conserved_across_refinement(self):
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 20.0)], 10.0)
        volumes = []
        for orl in (1, 2, 3):
            mesh = cube_mesh(10.0, 2.5, net, orl=orl)
            props = upscale_mesh(mesh, net, 1e-16, 0.01)
            volumes.append(float((props.fracture_porosity * mesh.volume).sum()))
        exact = 10.0 * 10.0 * net.aperture[0]
        for v in volumes:
            assert v == pytest.approx(exact, rel=1e-6)

    def test_permeability_never_below_matrix(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=12))
        mesh = cube_mesh(20.0, 5.0, net, orl=1)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        assert np.all(props.permeability >= 1e-16 * (1.0 - 1e-12))
        frac = props.is_fracture
        assert np.all(props.permeability[frac] > 1e-16)
        assert np.all(props.permeability[~frac] == 1e-16)

    def test_summary_and_cell_accessors(self):
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 2.0)], 10.0)
        mesh = cube_mesh(10.0, 2.5, net, orl=1)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        stats = props.summary()
        assert stats["n_cells"] == mesh.num_cells
        assert stats["n_fracture_cells"] == int(mesh.is_fracture.sum())
        assert stats["k_max"] == props.permeability.max()
        idx = int(np.nonzero(props.is_fracture)[0][0])
        assert props.permeability[idx] > props.k_m
        assert props.porosity[idx] > props.phi_m

    def test_m_vertices_must_match_mesh(self):
        net = make_network([make_disc((0.0, 0.0, 0.3), (0, 0, 1), 2.0)], 10.0)
        mesh = cube_mesh(10.0, 2.5, net, orl=1)
        upscale_mesh(mesh, net, 1e-16, 0.01, m_vertices=32)
        with pytest.raises(ValueError):
            upscale_mesh(mesh, net, 1e-16, 0.01, m_vertices=16)

    @pytest.mark.parametrize("orl", [0, 1, 2])
    def test_tags_agree_with_mesh(self, orl):
        net = generate_network(GenerationParams(L=20.0, n_fractures=40, seed=6))
        mesh = cube_mesh(20.0, 5.0, net, orl=orl)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        assert mesh.is_fracture.any()
        assert np.array_equal(mesh.is_fracture, props.is_fracture)

    @pytest.mark.parametrize("case", ["generated-orl1", "generated-orl2",
                                      "two-plate-orl1", "two-plate-orl2"])
    def test_matches_per_cell_reference(self, case):
        kind, orl = case.rsplit("-orl", 1)
        if kind == "generated":
            L, net = 20.0, generate_network(GenerationParams(L=20.0, n_fractures=30, seed=12))
        else:
            L, net = 25.0, two_plate_network()
        mesh = cube_mesh(L, 5.0, net, orl=int(orl))
        for strict in (False, True):
            props = upscale_mesh(mesh, net, 1e-16, 0.01, strict_fracture_porosity=strict)
            ref = reference_upscale(mesh, net, 1e-16, 0.01, strict_fracture_porosity=strict)
            got = (props.permeability, props.porosity, props.fracture_porosity,
                   props.is_fracture)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
