"""End-to-end acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a `[acceptance] criterion N: PASS/FAIL` line (run with -s to see
them).  Desk-scale settings: 25 m domain, 5 m initial cells, fracture
count pinned to 250 at the percolation threshold (the 50 m reference
count scaled by the domain-area ratio).
"""

import shutil
from contextlib import contextmanager

import numpy as np
import pytest

from fracscale.flow import FlowBC, solve_steady_flow, wiener_bounds
from fracscale.network import (
    GenerationParams,
    aperture_from_radius,
    generate_network,
    make_rng,
    radius_cdf,
    sample_orientation,
    sample_radius,
)
from fracscale.octree import (
    build_face_adjacency,
    build_initial_grid,
    equivalent_hex_count,
    refine,
    tag_fracture_cells,
)
from fracscale.pipeline import RunConfig, run_pipeline
from fracscale.topology import (
    build_intersection_graph,
    count_false_connections,
    dfn_percolates,
    mesh_percolates,
    remove_isolated,
)
from fracscale.transport import (
    YEAR_SECONDS,
    TracerParams,
    decay_constant,
    detect_peaks,
    prepare_transport,
    run_transport,
    step_transport,
)
from fracscale.upscale import upscale_mesh

from conftest import box_mesh, cube_mesh, two_plate_network, uniform_props

DESK_L = 25.0
DESK_SEED = 2          # percolating realization at the threshold density
DESK_N = 250           # pinned critical count at L = 25
MATRIX_K = 1e-16
MATRIX_PHI = 0.01


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def build_run(network, orl, k_m, bc=None):
    mesh = build_initial_grid(network.domain, 5.0)
    tag_fracture_cells(mesh, network)
    refine(mesh, network, orl, True)
    build_face_adjacency(mesh)
    props = upscale_mesh(mesh, network, k_m, MATRIX_PHI)
    flow = solve_steady_flow(mesh, props, bc or FlowBC(1000.0, 0.0))
    return mesh, props, flow


@pytest.fixture(scope="module")
def desk_network():
    params = GenerationParams(L=DESK_L, n_fractures=DESK_N, seed=DESK_SEED)
    network = generate_network(params)
    graph = build_intersection_graph(network)
    assert dfn_percolates(graph)
    return network, graph


@pytest.fixture(scope="module")
def desk_runs(desk_network):
    network, graph = desk_network
    runs = {}
    for orl in (1, 2, 3):
        mesh, props, flow = build_run(network, orl, MATRIX_K)
        report = count_false_connections(
            (mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]),
            graph,
            total_cells=mesh.num_cells,
            equivalent_cells=equivalent_hex_count(DESK_L, 5.0, orl),
        )
        runs[orl] = {"mesh": mesh, "flow": flow, "false": report}
    return runs


@pytest.fixture(scope="module")
def mismatch_runs():
    network = two_plate_network(DESK_L)
    graph = build_intersection_graph(network)
    assert not dfn_percolates(graph)
    out = {}
    for orl in (1, 3):
        mesh, props, flow = build_run(network, orl, 1e-18)
        out[orl] = {"mesh": mesh, "props": props, "flow": flow}
    return out


def test_criterion_01_equivalent_hex_counts():
    with criterion(1, "equivalent hex counts"):
        expected = {1: 9261, 2: 68921, 3: 531441, 4: 4173281}
        for orl, n in expected.items():
            assert equivalent_hex_count(50.0, 5.0, orl) == n


def test_criterion_02_sampling_fidelity():
    with criterion(2, "sampling fidelity"):
        params = GenerationParams(L=50.0, n_fractures=0, seed=0)
        r = np.sort(sample_radius(make_rng(42).random(100000), params))
        cdf = radius_cdf(r, params)
        grid = np.arange(len(r))
        ks = max(
            np.abs(cdf - (grid + 1) / len(r)).max(),
            np.abs(cdf - grid / len(r)).max(),
        )
        assert ks < 0.01

        rng = make_rng(7)
        directions = np.array([sample_orientation(rng, 0.1, (0, 0, 1)) for _ in range(100000)])
        assert np.linalg.norm(directions.mean(axis=0)) < 0.05


def test_criterion_03_single_fracture_upscaling():
    with criterion(3, "single-fracture upscaling"):
        radius = 20.0  # spans the whole 25 m cross-section once clipped
        aperture = float(aperture_from_radius(radius))
        from conftest import make_disc, make_network

        network = make_network(
            [make_disc((0.0, 0.0, 0.3), (0, 0, 1), radius, aperture)], DESK_L
        )
        exact_volume = DESK_L * DESK_L * aperture
        composite_keff = (1.0 - aperture / DESK_L) * MATRIX_K + aperture**3 / (12.0 * DESK_L)

        volumes, keffs = [], []
        for orl in (1, 2, 3):
            mesh, props, flow = build_run(network, orl, MATRIX_K)
            volumes.append(float((props.fracture_porosity * mesh.volume).sum()))
            keffs.append(flow.k_eff)
        for v in volumes:
            assert abs(v - exact_volume) / exact_volume < 0.01
        spread = (max(volumes) - min(volumes)) / exact_volume
        assert spread < 0.01
        for k in keffs:
            assert abs(k - composite_keff) / composite_keff < 0.05


def test_criterion_04_flow_solver_oracles():
    with criterion(4, "flow solver oracles"):
        mesh = cube_mesh(10.0, 2.5)

        props = uniform_props(mesh, 4.2e-16, MATRIX_PHI)
        flow = solve_steady_flow(mesh, props, FlowBC(1000.0, 0.0))
        assert abs(flow.k_eff - 4.2e-16) / 4.2e-16 < 1e-8

        x, y = mesh.center[:, 0], mesh.center[:, 1]
        series = uniform_props(mesh, 1e-15, MATRIX_PHI)
        series.permeability = np.where(x < 0.0, 1e-15, 4e-15)
        flow = solve_steady_flow(mesh, series, FlowBC(1000.0, 0.0))
        harmonic = 2.0 / (1.0 / 1e-15 + 1.0 / 4e-15)
        assert abs(flow.k_eff - harmonic) / harmonic < 1e-6

        parallel = uniform_props(mesh, 1e-15, MATRIX_PHI)
        parallel.permeability = np.where(y < 0.0, 1e-15, 4e-15)
        flow = solve_steady_flow(mesh, parallel, FlowBC(1000.0, 0.0))
        arithmetic = 0.5 * (1e-15 + 4e-15)
        assert abs(flow.k_eff - arithmetic) / arithmetic < 1e-6

        rng = np.random.default_rng(0)
        for _ in range(3):
            random_field = uniform_props(mesh, 1e-16, MATRIX_PHI)
            random_field.permeability = np.exp(
                rng.uniform(np.log(1e-16), np.log(1e-12), mesh.num_cells)
            )
            flow = solve_steady_flow(mesh, random_field, FlowBC(1000.0, 0.0))
            k_h, k_a = wiener_bounds(random_field, mesh.volume)
            assert k_h * (1 - 1e-6) <= flow.k_eff <= k_a * (1 + 1e-6)


def test_criterion_05_monotone_refinement_trends(desk_runs):
    with criterion(5, "monotone refinement trends"):
        false_counts = [desk_runs[orl]["false"].num_false_pairs for orl in (1, 2, 3)]
        assert false_counts[0] >= false_counts[1] >= false_counts[2]

        keffs = [desk_runs[orl]["flow"].k_eff for orl in (1, 2, 3)]
        assert keffs[0] >= keffs[1] >= keffs[2]

        reference = keffs[2]
        errors = [abs(k - reference) / reference for k in keffs[:2]]
        assert errors[0] > errors[1]


def test_criterion_06_global_topology_mismatch(mismatch_runs):
    with criterion(6, "global topology mismatch"):
        coarse, fine = mismatch_runs[1], mismatch_runs[3]
        assert mesh_percolates(coarse["mesh"])
        assert not mesh_percolates(fine["mesh"])
        assert coarse["flow"].k_eff / fine["flow"].k_eff >= 1e2


def test_criterion_07_false_early_breakthrough(mismatch_runs):
    with criterion(7, "false early breakthrough"):
        tracer = TracerParams(kind="conservative")
        curves = {}
        for orl in (1, 3):
            run = mismatch_runs[orl]
            curves[orl] = run_transport(
                run["mesh"], run["props"], run["flow"], tracer, 1e8,
                n_outputs=192, dt0_yr=1e-8,
            )
        # normalize by the arrival through the matrix: the peak of the
        # topology-matched (fine) mesh curve
        t_matrix = curves[3].peak_time_yr()
        coarse_peaks = [
            curves[1].times_yr[i] / t_matrix
            for i in detect_peaks(curves[1].times_yr, curves[1].mass_rate_mol_per_yr, 1e-6)
        ]
        fine_peaks = [
            curves[3].times_yr[i] / t_matrix
            for i in detect_peaks(curves[3].times_yr, curves[3].mass_rate_mol_per_yr, 1e-6)
        ]
        assert any(t < 0.1 for t in coarse_peaks)
        assert not any(t < 0.1 for t in fine_peaks)


def test_criterion_08_transport_ledgers():
    with criterion(8, "transport ledgers"):
        mesh = box_mesh((25.0, 0.25, 0.25), 0.25)
        props = uniform_props(mesh, 1e-12, MATRIX_PHI)
        flow = solve_steady_flow(mesh, props, FlowBC(1000.0, 0.0))
        outputs = np.geomspace(1e-3, 1e5, 600)

        conservative = run_transport(
            mesh, props, flow, TracerParams(kind="conservative"), 1e5,
            output_times_yr=outputs, dt0_yr=1e-5,
        )
        closure = np.abs(
            conservative.in_domain_mol + conservative.cumulative_mol
            + conservative.metadata["other_exit_mol"] - conservative.initial_total_mass
        )
        assert closure.max() < 1e-6 * conservative.injected_mass

        decaying = run_transport(
            mesh, props, flow,
            TracerParams(kind="decaying", decay=decay_constant(100.0)), 1e5,
            output_times_yr=outputs, dt0_yr=1e-5,
        )
        closure = np.abs(
            decaying.in_domain_mol + decaying.cumulative_mol + decaying.decayed_mol
            + decaying.metadata["other_exit_mol"] - decaying.initial_total_mass
        )
        assert closure.max() < 1e-6 * decaying.injected_mass
        assert decaying.decayed_mol[-1] > 0

        # discrete time-rescaling symmetry on the 1D mesh
        R = 4000.0
        cons = prepare_transport(mesh, props, flow, TracerParams(kind="conservative"))
        sorb = prepare_transport(mesh, props, flow, TracerParams(kind="sorbing", retardation=R))
        dt = 1e-3 * YEAR_SECONDS
        for _ in range(40):
            step_transport(cons, dt)
            step_transport(sorb, R * dt)
        assert np.allclose(sorb.concentration, cons.concentration, rtol=1e-8, atol=0.0)

        sorbing = run_transport(
            mesh, props, flow, TracerParams(kind="sorbing", retardation=R), 1e8,
            output_times_yr=np.geomspace(1e-3, 1e8, 900), dt0_yr=1e-5,
        )
        delay = sorbing.peak_time_yr() / conservative.peak_time_yr()
        assert abs(delay - R) / R < 0.10


def test_criterion_09_cell_count_economy(desk_network):
    with criterion(9, "cell count economy"):
        network, graph = desk_network
        removed = remove_isolated(network, graph)
        assert len(removed) > 0
        mesh = build_initial_grid(network.domain, 5.0)
        tag_fracture_cells(mesh, removed)
        refine(mesh, removed, 3, True)
        ratio = mesh.num_cells / equivalent_hex_count(DESK_L, 5.0, 3)
        assert ratio <= 0.60


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns"):
        def run(out):
            config = RunConfig(
                L=10.0, l=5.0, buffer=2.0, p_primes=(1.0,), p_c=12, seeds=(11,),
                orls=(1, 2), k_m=(1e-15,), isolated_modes=("retained",),
                transport_enabled=False, output_dir=str(out),
            )
            manifest = run_pipeline(config, upto="flow")
            assert manifest["failures"] == []
            return manifest

        # identical config rerun: every artifact byte-identical, manifest included
        out = tmp_path / "same"
        run(out)
        net_path = out / "networks" / "seed11_p1_retained.jsonl"
        first = {"net": net_path.read_bytes(), "manifest": (out / "manifest.json").read_bytes()}
        run(out)
        assert net_path.read_bytes() == first["net"]
        assert (out / "manifest.json").read_bytes() == first["manifest"]

        # identical seed into a fresh directory: same rows, same network bytes
        other = tmp_path / "other"
        manifest = run(other)
        assert (other / "networks" / "seed11_p1_retained.jsonl").read_bytes() == first["net"]
        same_rows = run(out)
        for key in ("network_rows", "topology_rows", "flow_rows"):
            assert manifest[key] == same_rows[key]
        shutil.rmtree(tmp_path)
