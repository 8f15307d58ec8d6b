import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import fracscale
from fracscale import network as network_module
from fracscale.network import (
    FractureNetwork,
    GenerationParams,
    GenerationError,
    aperture_from_radius,
    critical_fracture_count,
    expected_min_radius,
    fracture_intensity,
    generate_network,
    load_network,
    make_rng,
    percolation_parameter,
    radius_cdf,
    radius_pdf,
    sample_orientation,
    sample_radius,
    save_network,
)

from conftest import clipped_area, disc, make_disc, make_network, polygon

COLUMNS = ("center", "normal", "radius", "aperture")


def bisect_inverse_cdf(u, params, tol=1e-10):
    """Independent oracle: numerically invert the radius CDF."""
    lo, hi = params.r0, params.ru
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if radius_cdf(mid, params) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSampleRadius:
    def test_cdf_endpoints(self, reference_params):
        assert sample_radius(0.0, reference_params) == pytest.approx(1.0, abs=1e-14)
        assert sample_radius(1.0 - 1e-13, reference_params) == pytest.approx(10.0, abs=1e-9)

    def test_median_against_bisection_oracle(self, reference_params):
        oracle = bisect_inverse_cdf(0.5, reference_params)
        value = float(sample_radius(0.5, reference_params))
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(1.457, abs=1e-3)

    def test_random_quantiles_against_bisection_oracle(self, reference_params):
        for u in np.random.default_rng(3).random(25):
            assert float(sample_radius(u, reference_params)) == pytest.approx(
                bisect_inverse_cdf(u, reference_params), abs=1e-8
            )

    def test_outputs_never_leave_cutoffs(self, reference_params):
        u = np.random.default_rng(1).random(20000)
        r = sample_radius(u, reference_params)
        assert r.min() >= reference_params.r0
        assert r.max() <= reference_params.ru

    def test_ks_distance_below_one_percent(self, reference_params):
        u = make_rng(42).random(100000)
        r = np.sort(sample_radius(u, reference_params))
        grid = np.arange(len(r))
        cdf = radius_cdf(r, reference_params)
        ks = max(
            np.abs(cdf - (grid + 1) / len(r)).max(),
            np.abs(cdf - grid / len(r)).max(),
        )
        assert ks < 0.01


class TestSampleOrientation:
    def test_concentration_limit_returns_mean_direction(self):
        rng = make_rng(9)
        v = sample_orientation(rng, 1e9, (0.0, 0.0, 1.0))
        assert np.linalg.norm(v - np.array([0.0, 0.0, 1.0])) < 1e-3

    def test_unit_norm_and_reproducibility(self):
        v1 = sample_orientation(make_rng(4), 0.7, (0.0, 1.0, 0.0))
        v2 = sample_orientation(make_rng(4), 0.7, (0.0, 1.0, 0.0))
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(v1, v2)

    def test_weak_concentration_mean_resultant_length(self):
        rng = make_rng(7)
        vs = np.array([sample_orientation(rng, 0.1, (0, 0, 1)) for _ in range(100000)])
        # uniform-sphere expectation for kappa = 0.1 is about kappa / 3
        assert np.linalg.norm(vs.mean(axis=0)) < 0.05

    def test_kappa_zero_is_uniform_on_sphere(self):
        rng = make_rng(8)
        vs = np.array([sample_orientation(rng, 0.0, (0, 0, 1)) for _ in range(100000)])
        bound = 3.0 * np.sqrt(3.0) / np.sqrt(3.0e5)
        assert np.all(np.abs(vs.mean(axis=0)) < bound)


class TestAperture:
    @pytest.mark.parametrize("r,expected", [(1.0, 5.0e-4), (4.0, 1.0e-3), (10.0, 1.5811e-3)])
    def test_square_root_law(self, r, expected):
        assert float(aperture_from_radius(r)) == pytest.approx(expected, rel=1e-4)


class TestGenerateNetwork:
    def test_zero_fractures_gives_empty_network(self):
        net = generate_network(GenerationParams(L=10.0, n_fractures=0, seed=1))
        assert len(net) == 0

    def test_fixed_seed_is_bit_identical(self):
        params = GenerationParams(L=20.0, n_fractures=40, seed=77)
        a = generate_network(params)
        b = generate_network(params)
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_apertures_equal_the_one_radius_law(self):
        # one array call gives each disc the bits of its own scalar call
        net = generate_network(GenerationParams(L=20.0, n_fractures=200, seed=5))
        one_at_a_time = [float(aperture_from_radius(r)) for r in net.radius.tolist()]
        assert np.array_equal(net.aperture, one_at_a_time)

    @pytest.mark.parametrize("mean_dir", [(0.6, 0.0, 0.8), (1.0, 0.0, 0.0)])
    def test_normals_equal_sample_orientation_draws(self, mean_dir):
        # the first batch draws n candidates in order (center, radius, normal);
        # the kept ones must carry the normal sample_orientation gives
        params = GenerationParams(L=20.0, n_fractures=40, seed=12, kappa=2.0, mean_dir=mean_dir)
        rng = make_rng(params.seed)
        gen = params.generation_domain
        drawn = []
        for _ in range(params.n_fractures):
            center = gen.lo + rng.random(3) * (gen.hi - gen.lo)
            rng.random()
            drawn.append((center, sample_orientation(rng, params.kappa, mean_dir)))
        net = generate_network(params)
        matched = 0
        for i in range(len(net)):
            for center, normal in drawn:
                if np.array_equal(net.center[i], center):
                    assert np.array_equal(net.normal[i], normal)
                    matched += 1
        assert 0 < matched <= len(net)

    def test_every_fracture_touches_inner_domain(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=60, seed=5))
        assert len(net) == 60
        assert fracture_intensity(net) > 0

    def test_expanded_domain_counting_keeps_fewer(self):
        params = GenerationParams(L=20.0, n_fractures=60, seed=5)
        literal = generate_network(params, count_in_expanded_domain=True)
        assert 0 < len(literal) <= 60

    def test_generation_cap_raises(self):
        # radii far smaller than the buffer make inner-domain hits rare
        params = GenerationParams(
            r0=0.01, ru=0.02, L=1.0, buffer=50.0, n_fractures=10, seed=3
        )
        with pytest.raises(GenerationError):
            generate_network(params, max_attempts_factor=2)

    def test_p32_stable_across_seeds_at_reference_scale(self, reference_params):
        values = []
        for seed in range(20):
            params = GenerationParams(L=50.0, n_fractures=1000, seed=seed)
            values.append(fracture_intensity(generate_network(params)))
        values = np.asarray(values)
        assert np.all(values > 0) and np.all(np.isfinite(values))
        assert np.all(np.abs(values - values.mean()) < 0.2 * values.mean())


class TestDensityMetrics:
    def test_expected_radius_closed_form_vs_quadrature(self, reference_params):
        oracle, _ = quad(lambda r: r * radius_pdf(r, reference_params), 1.0, 10.0,
                         epsabs=1e-12, epsrel=1e-12)
        closed = expected_min_radius(reference_params, 50.0)  # alpha L = 90 > ru
        assert closed == pytest.approx(oracle, rel=1e-10)
        assert closed == pytest.approx(1.9239, abs=1e-4)

    def test_quadrature_branch_when_cutoff_bites(self, reference_params):
        # alpha L < ru forces the min() under the integral
        L = 3.0
        cut = reference_params.alpha * L
        oracle, _ = quad(lambda r: min(r, cut) * radius_pdf(r, reference_params),
                         1.0, 10.0, points=[cut], epsabs=1e-12, epsrel=1e-12)
        assert expected_min_radius(reference_params, L) == pytest.approx(oracle, rel=1e-9)

    def test_package_import_leaves_quadrature_unloaded(self):
        # scipy.integrate is imported only by the quadrature branch, which
        # the closed form (alpha L >= ru) never takes; multiprocessing only
        # by run_pipeline when it starts a worker pool
        code = ("import importlib, pkgutil, sys, fracscale\n"
                "for m in pkgutil.iter_modules(fracscale.__path__):\n"
                "    importlib.import_module('fracscale.' + m.name)\n"
                "print([name in sys.modules for name in ('scipy.integrate', 'multiprocessing')])")
        src = str(Path(fracscale.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[False, False]"

    def test_percolation_parameter_examples(self, reference_params):
        assert percolation_parameter(0, reference_params, 50.0) == 0.0
        assert percolation_parameter(1000, reference_params, 50.0) == pytest.approx(0.7696, abs=1e-4)

    def test_percolation_parameter_linear_in_count(self, reference_params):
        p1 = percolation_parameter(700, reference_params, 50.0)
        p2 = percolation_parameter(1400, reference_params, 50.0)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.2, 1.8, 2.6])
    @pytest.mark.parametrize("L", [10.0, 15.0, 20.0, 25.0, 50.0, 100.0])
    def test_critical_count_from_density(self, reference_params, L, alpha):
        params = dataclasses.replace(reference_params, alpha=alpha)
        n_c = critical_fracture_count(params, L)
        if (L, alpha) == (50.0, 1.8):
            assert n_c == 1300  # ceil(2500 / 1.9239)
        assert percolation_parameter(n_c, params, L) >= 1.0
        assert percolation_parameter(n_c - 1, params, L) < 1.0

    def test_critical_count_pin_reproduces_density_count_pairs(self, reference_params):
        n_c = critical_fracture_count(reference_params, 50.0, override=1000)
        assert n_c == 1000
        assert round(0.5 * n_c) == 500
        assert round(2.0 * n_c) == 2000


class TestFractureIntensity:
    def test_empty_network(self):
        assert fracture_intensity(make_network([], 50.0)) == 0.0

    def test_single_interior_disc(self):
        net = make_network([make_disc((0, 0, 0.3), (0, 0, 1), 1.0)], 50.0)
        assert fracture_intensity(net) == pytest.approx(np.pi / 125000.0, rel=0.01)

    def test_half_disc_on_domain_face(self):
        # disc centered on the inflow face, plane cutting across it
        net = make_network([make_disc((-25.0, 0.0, 0.0), (0, 0, 1), 2.0)], 50.0)
        assert fracture_intensity(net) == pytest.approx(2.0 * np.pi / 125000.0, rel=0.01)

    def test_additive_over_partitions(self):
        discs = [
            make_disc(c, n, r)
            for c, n, r in [
                ((0, 0, 1.0), (0, 0, 1), 2.0),
                ((3, -2, 0.0), (1, 1, 0), 1.5),
                ((-20, 10, 5.0), (1, 0, 1), 3.0),
            ]
        ]
        whole = fracture_intensity(make_network(discs, 50.0))
        parts = sum(fracture_intensity(make_network([d], 50.0)) for d in discs)
        assert whole == pytest.approx(parts, rel=1e-12)


class TestPolygonVertices:
    def test_computed_once_per_vertex_count(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=25, seed=9))
        verts = net.polygon_vertices(32)
        assert verts.shape == (25, 32, 3) and not verts.flags.writeable
        assert net.polygon_vertices(32) is verts
        assert net.polygon_vertices(16).shape == (25, 16, 3)
        for i, row in enumerate(verts):
            assert np.array_equal(row, polygon(disc(net, i), 32))

    def test_empty_network(self):
        net = make_network([], 50.0)
        assert net.polygon_vertices(32).shape == (0, 32, 3)
        verts, count = net.clipped_to_domain(32)
        assert verts.shape[0] == 0 and count.shape == (0,)

    def test_intensity_equals_sum_of_single_clips(self):
        # one batched clip per network, summed in fracture order as one
        # polygon at a time was
        net = generate_network(GenerationParams(L=20.0, n_fractures=40, seed=3))
        total = 0.0
        for i in range(len(net)):
            total += clipped_area(polygon(disc(net, i), 32), net.domain.lo, net.domain.hi)
        assert fracture_intensity(net) == total / net.domain.volume


class TestSubset:
    def test_origin_maps_to_the_first_network(self):
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=6))
        root, ids = net.origin()
        assert root is net and np.array_equal(ids, np.arange(30))
        sub = net.subset({27, 3, 11, 20, 5})
        subsub = sub.subset([4, 1, 2])
        for child, expected in ((sub, [3, 5, 11, 20, 27]), (subsub, [5, 11, 27])):
            root, ids = child.origin()
            assert root is net and ids.tolist() == expected
            for name in COLUMNS:
                assert np.array_equal(getattr(child, name), getattr(net, name)[ids])
        assert net.subset([]).origin()[1].shape == (0,)

    def test_polygons_are_the_roots(self, monkeypatch):
        net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=6))
        net.polygon_vertices(16)
        sub = net.subset([27, 3, 11]).subset([0, 2])
        monkeypatch.setattr(network_module, "disc_vertices", None)
        verts = sub.polygon_vertices(16)
        assert np.array_equal(verts, net.polygon_vertices(16)[[3, 27]])
        assert not verts.flags.writeable and net.subset([]).polygon_vertices(16).shape == (0, 16, 3)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = generate_network(GenerationParams(L=20.0, n_fractures=25, seed=13))
        path = tmp_path / "net.jsonl"
        save_network(net, path)
        loaded = load_network(path)
        assert len(loaded) == len(net)
        for name in COLUMNS:
            assert np.array_equal(getattr(net, name), getattr(loaded, name))
        second = tmp_path / "net2.jsonl"
        save_network(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_carries_params_and_seed(self, tmp_path):
        params = GenerationParams(L=20.0, n_fractures=5, seed=21)
        path = tmp_path / "net.jsonl"
        save_network(generate_network(params), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["params"]["seed"] == 21
        assert header["params"]["L"] == 20.0

    def rewritten(self, tmp_path, row, **changes):
        """Path of a saved 5-fracture network whose fracture record row has the
        given fields changed."""
        path = tmp_path / "net.jsonl"
        save_network(generate_network(GenerationParams(L=20.0, n_fractures=5, seed=2)), path)
        lines = path.read_text().splitlines()
        lines[1 + row] = json.dumps({**json.loads(lines[1 + row]), **changes})
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("row,fid", [(0, 1), (2, 3), (4, 5), (3, 3.5)])
    def test_ids_out_of_order_rejected(self, tmp_path, row, fid):
        with pytest.raises(ValueError, match="ids are not 0, 1, 2"):
            load_network(self.rewritten(tmp_path, row, id=fid))

    @pytest.mark.parametrize("changes,message", [
        ({"nz": 2.0}, "fracture 3: normal must be unit length"),
        ({"radius": 0.0}, "fracture 3: radius and aperture must be positive"),
        ({"radius": -1.0}, "fracture 3: radius and aperture must be positive"),
        ({"aperture": 0.0}, "fracture 3: radius and aperture must be positive"),
    ])
    def test_invalid_disc_rejected(self, tmp_path, changes, message):
        with pytest.raises(ValueError, match=message):
            load_network(self.rewritten(tmp_path, 3, **changes))

    def test_truncated_file_rejected(self, tmp_path):
        net = generate_network(GenerationParams(L=20.0, n_fractures=5, seed=2))
        path = tmp_path / "net.jsonl"
        save_network(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_network(path)


class TestValidation:
    def test_parameter_invariants(self):
        with pytest.raises(ValueError):
            GenerationParams(alpha=0.0)
        with pytest.raises(ValueError):
            GenerationParams(r0=2.0, ru=1.0)
        with pytest.raises(ValueError):
            GenerationParams(kappa=-0.1)
        with pytest.raises(ValueError):
            GenerationParams(mean_dir=(0.0, 0.0, 2.0))

    @staticmethod
    def columns(n=4):
        """center, normal, radius and aperture of n valid discs, as lists."""
        return ([[float(i), 0.0, 0.0] for i in range(n)], [[0.0, 0.0, 1.0]] * n,
                [1.0] * n, [1e-4] * n)

    def network(self, center, normal, radius, aperture):
        params = GenerationParams(L=10.0, n_fractures=len(radius), seed=0)
        return FractureNetwork(center, normal, radius, aperture, params.domain, params)

    def test_columns_are_read_only_copies(self):
        center, normal, radius, aperture = map(np.array, self.columns())
        net = self.network(center, normal, radius, aperture)
        center[0, 0] = 9.0
        assert net.center[0, 0] == 0.0 and len(net) == 4
        for name in COLUMNS:
            assert not getattr(net, name).flags.writeable

    @pytest.mark.parametrize("column,value", [
        (0, [[0.0, 0.0, 0.0]] * 3), (1, [[0.0, 0.0, 1.0]] * 5), (3, [1e-4] * 3),
        (0, [0.0] * 12), (1, [[0.0, 1.0]] * 4),
    ])
    def test_one_row_per_fracture(self, column, value):
        columns = list(self.columns())
        columns[column] = value
        with pytest.raises(ValueError, match="for 4 fractures"):
            self.network(*columns)

    @pytest.mark.parametrize("column,value,message", [
        (1, [0.0, 0.0, 0.5], "normal must be unit length"),
        (1, [0.0, 0.0, 1.0 + 2e-12], "normal must be unit length"),
        (1, [np.nan, 0.0, 1.0], "normal must be unit length"),
        (2, -1.0, "radius and aperture must be positive"),
        (2, 0.0, "radius and aperture must be positive"),
        (3, 0.0, "radius and aperture must be positive"),
        (3, np.nan, "radius and aperture must be positive"),
    ])
    def test_disc_invariants_name_the_first_bad_row(self, column, value, message):
        columns = [list(c) for c in self.columns()]
        columns[column][2] = columns[column][3] = value
        with pytest.raises(ValueError, match=f"^fracture 2: {message}$"):
            self.network(*columns)

    def test_normal_within_rounding_of_unit_length_accepted(self):
        columns = list(self.columns())
        columns[1] = [[0.0, 0.0, 1.0 + 5e-13]] * 4
        assert len(self.network(*columns)) == 4

    def test_equality_is_identity(self):
        a = generate_network(GenerationParams(L=20.0, n_fractures=10, seed=4))
        b = generate_network(GenerationParams(L=20.0, n_fractures=10, seed=4))
        assert a == a and a != b and a.subset(range(10)) != a
        assert len({a, b}) == 2
