import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracscale import transport
from fracscale.flow import FlowBC, solve_steady_flow
from fracscale.network import GenerationParams, generate_network
from fracscale.transport import (
    YEAR_SECONDS,
    TRACER_KINDS,
    BreakthroughCurve,
    TracerParams,
    decay_constant,
    detect_peaks,
    initialize_pulse,
    normalize_btc,
    prepare_transport,
    retardation_factor,
    run_transport,
    step_transport,
    write_btc_csv,
)

from fracscale.upscale import upscale_mesh

from conftest import box_mesh, cube_mesh, uniform_props


def channel(nx=100, l=0.25, k=1e-12, phi=0.01, delta_p=1000.0):
    """1D flow setup: nx cells along x, unit-ish cross-section."""
    mesh = box_mesh((nx * l, l, l), l)
    props = uniform_props(mesh, k, phi)
    flow = solve_steady_flow(mesh, props, FlowBC(delta_p, 0.0))
    return mesh, props, flow


def zero_flow(mesh):
    from fracscale.flow import FlowField

    return FlowField(
        pressure=np.zeros(mesh.num_cells),
        face_flux=np.zeros(len(mesh.faces)),
        q_in=0.0, q_out=0.0, k_eff=0.0, iterations=0, residual=0.0,
        k_harmonic=0.0, k_arithmetic=0.0,
    )


class TestRetardation:
    def test_no_sorption(self):
        assert retardation_factor(0.0, 0.01) == 1.0

    def test_reference_inversion(self):
        # K_D chosen so that R = 4000 at phi = 0.01, s_l = 1, rho_w = 1000
        assert retardation_factor(39990.0, 0.01, 1.0, 1000.0) == pytest.approx(4000.0)

    def test_linear_in_distribution_coefficient(self):
        r1 = retardation_factor(100.0, 0.02)
        r2 = retardation_factor(200.0, 0.02)
        assert (r2 - 1.0) == pytest.approx(2.0 * (r1 - 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            retardation_factor(1.0, 0.0)


class TestTracerParams:
    def test_kind_consistency(self):
        with pytest.raises(ValueError):
            TracerParams(kind="plasma")
        with pytest.raises(ValueError):
            TracerParams(kind="conservative", decay=1e-9)
        with pytest.raises(ValueError):
            TracerParams(kind="conservative", retardation=2.0)
        with pytest.raises(ValueError):
            TracerParams(kind="decaying", diffusion=-1.0)

    def test_half_life_conversion(self):
        lam = decay_constant(100.0)
        assert lam == pytest.approx(np.log(2.0) / (100.0 * YEAR_SECONDS))


class TestInitializePulse:
    def test_exact_dissolved_mass(self):
        mesh, props, _ = channel(20)
        c0 = initialize_pulse(mesh, props, 2.5)
        assert float((props.porosity * mesh.volume * c0).sum()) == pytest.approx(2.5, rel=1e-14)

    def test_interior_cells_start_empty(self):
        mesh, props, _ = channel(20)
        c0 = initialize_pulse(mesh, props, 1.0)
        inlet = np.unique(mesh.faces.cell_a[mesh.faces.btag == mesh.BTAG_XMIN])
        mask = np.zeros(mesh.num_cells, dtype=bool)
        mask[inlet] = True
        assert np.all(c0[~mask] == 0.0)
        assert len(np.unique(c0[mask])) == 1  # uniform concentration over the inlet


class TestStepTransport:
    def test_zero_flux_no_diffusion_is_identity(self):
        mesh, props, _ = channel(10)
        flow = zero_flow(mesh)
        params = TracerParams(kind="conservative", diffusion=0.0)
        state = prepare_transport(mesh, props, flow, params)
        before = state.concentration.copy()
        step_transport(state, YEAR_SECONDS)
        assert np.allclose(state.concentration, before, rtol=1e-14)

    def test_pure_decay_halves_over_half_life(self):
        mesh, props, _ = channel(10)
        flow = zero_flow(mesh)
        params = TracerParams(kind="decaying", diffusion=0.0, decay=decay_constant(100.0))
        state = prepare_transport(mesh, props, flow, params)
        m0 = state.in_domain_mass()
        nsub = 3000  # backward Euler needs substeps for 1e-4 accuracy
        for _ in range(nsub):
            step_transport(state, 100.0 * YEAR_SECONDS / nsub)
        assert state.in_domain_mass() / m0 == pytest.approx(0.5, rel=1e-4)
        assert state.decayed == pytest.approx(m0 - state.in_domain_mass(), rel=1e-12)

    def test_decay_ledger_closes_each_step(self):
        mesh, props, flow = channel(30)
        params = TracerParams(kind="decaying", decay=decay_constant(1.0))
        state = prepare_transport(mesh, props, flow, params)
        for _ in range(50):
            total_before = state.in_domain_mass() + state.outflow + state.other_exit + state.decayed
            step_transport(state, 0.05 * YEAR_SECONDS)
            total_after = state.in_domain_mass() + state.outflow + state.other_exit + state.decayed
            assert total_after == pytest.approx(total_before, rel=1e-12)

    def test_plug_speed_conservative_and_retarded(self):
        mesh, props, flow = channel(100)
        v = flow.q_in / (0.25 * 0.25) / 0.01  # pore velocity
        for retardation in (1.0, 4.0):
            kind = "conservative" if retardation == 1.0 else "sorbing"
            params = TracerParams(kind=kind, diffusion=0.0, retardation=retardation)
            state = prepare_transport(mesh, props, flow, params)
            pv = props.porosity * mesh.volume
            x = mesh.center[:, 0]
            com0 = float((x * pv * state.concentration).sum() / (pv * state.concentration).sum())
            t_total = 0.3 * (25.0 / (v / retardation))
            for _ in range(400):
                step_transport(state, t_total / 400)
            com = float((x * pv * state.concentration).sum() / (pv * state.concentration).sum())
            expected = com0 + (v / retardation) * t_total
            assert com == pytest.approx(expected, rel=0.02)

    def test_upwind_monotone_no_negative_concentrations(self):
        mesh, props, flow = channel(60)
        params = TracerParams(kind="conservative", diffusion=0.0)
        state = prepare_transport(mesh, props, flow, params)
        c_max = state.concentration.max()
        for _ in range(200):
            step_transport(state, 0.003 * YEAR_SECONDS)
            assert state.concentration.min() >= -1e-12 * c_max

    def test_sorbing_time_rescaling_symmetry(self):
        # with storage scaled by R and steps scaled by R, the discrete
        # solutions coincide exactly
        mesh, props, flow = channel(50)
        R = 4000.0
        cons = prepare_transport(mesh, props, flow, TracerParams(kind="conservative"))
        sorb = prepare_transport(
            mesh, props, flow, TracerParams(kind="sorbing", retardation=R)
        )
        dt = 0.01 * YEAR_SECONDS
        for _ in range(30):
            step_transport(cons, dt)
            step_transport(sorb, R * dt)
        assert np.allclose(sorb.concentration, cons.concentration, rtol=1e-8, atol=0.0)

    def test_rejects_nonpositive_dt(self):
        mesh, props, flow = channel(10)
        state = prepare_transport(mesh, props, flow, TracerParams())
        with pytest.raises(ValueError):
            step_transport(state, 0.0)


class TestRunTransport:
    def test_conservative_mass_balance_at_every_output(self):
        mesh, props, flow = channel(50)
        btc = run_transport(
            mesh, props, flow, TracerParams(kind="conservative"), 10.0,
            output_times_yr=np.geomspace(1e-3, 10.0, 60), dt0_yr=1e-4,
        )
        total = btc.in_domain_mol + btc.cumulative_mol + btc.metadata["other_exit_mol"]
        assert np.all(np.abs(total + btc.decayed_mol - btc.initial_total_mass) < 1e-6)
        assert np.all(np.diff(btc.cumulative_mol) >= 0)
        assert btc.cumulative_mol[-1] <= btc.initial_total_mass * (1 + 1e-6)

    def test_decaying_ledger_includes_sink(self):
        mesh, props, flow = channel(50)
        btc = run_transport(
            mesh, props, flow,
            TracerParams(kind="decaying", decay=decay_constant(0.05)), 10.0,
            output_times_yr=np.geomspace(1e-3, 10.0, 60), dt0_yr=1e-4,
        )
        total = btc.in_domain_mol + btc.cumulative_mol + btc.decayed_mol
        assert np.all(np.abs(total + btc.metadata["other_exit_mol"] - btc.initial_total_mass) < 1e-6)
        assert btc.decayed_mol[-1] > 0

    def test_sorbing_initial_total_is_retarded(self):
        mesh, props, flow = channel(20)
        btc = run_transport(
            mesh, props, flow, TracerParams(kind="sorbing", retardation=100.0), 0.1,
            output_times_yr=[0.05, 0.1], dt0_yr=1e-3,
        )
        assert btc.initial_total_mass == pytest.approx(100.0 * btc.injected_mass, rel=1e-12)

    def test_cellwise_retardation_from_distribution_coefficient(self):
        mesh, props, flow = channel(20)
        params = TracerParams(kind="sorbing", k_d=39990.0)
        state = prepare_transport(mesh, props, flow, params)
        # phi = 0.01 everywhere, so R(phi) = 4000 in every cell
        assert state.in_domain_mass() == pytest.approx(4000.0, rel=1e-12)

    def test_min_concentration_is_lowest_over_the_run(self, monkeypatch):
        btc = run_sign_flipping(monkeypatch)
        assert btc.metadata["steps"] > 2
        assert btc.metadata["min_concentration"] == -0.5

    def test_negative_run_warns_once(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger=transport.__name__):
            run_sign_flipping(monkeypatch)
        assert len(caplog.records) == 1
        assert "-5.000e-01" in caplog.records[0].getMessage()


def run_sign_flipping(monkeypatch):
    """A channel run whose field flips sign and halves every step, so its
    lowest value is half the initial maximum, reached after the first step."""
    mesh, props, flow = channel(20)

    def solve_step(op, c, dt):
        op.steps += 1
        return -0.5 * c

    monkeypatch.setattr(transport.TransportOperator, "solve_step", solve_step)
    return run_transport(mesh, props, flow, TracerParams(), 1.0, n_outputs=4, dt0_yr=0.1)


def reference_system_const(mesh, props, flow, params):
    """Spatial operator plus decay diagonal, assembled block by block: upwind
    advection, then face-harmonic diffusion, then outflow boundary faces."""
    phi = np.asarray(props.porosity, dtype=float)
    n = mesh.num_cells
    faces = mesh.faces
    interior = faces.cell_b >= 0
    a = faces.cell_a[interior]
    b = faces.cell_b[interior]
    q = flow.face_flux[interior]
    q_pos = np.maximum(q, 0.0)
    q_neg = np.maximum(-q, 0.0)
    rows, cols = [a, a, b, b], [a, b, b, a]
    vals = [q_pos, -q_neg, q_neg, -q_pos]
    if params.diffusion > 0:
        phi_d = params.diffusion * phi
        t_d = faces.area[interior] / (
            faces.d_a[interior] / phi_d[a] + faces.d_b[interior] / phi_d[b]
        )
        rows += [a, a, b, b]
        cols += [a, b, b, a]
        vals += [t_d, -t_d, t_d, -t_d]
    boundary = ~interior & (flow.face_flux > 0)
    rows.append(faces.cell_a[boundary])
    cols.append(faces.cell_a[boundary])
    vals.append(flow.face_flux[boundary])
    spatial = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    decay = params.decay * phi * np.asarray(mesh.volume, dtype=float)
    return (spatial + sp.diags(decay)).tocsc()


def desk_tracer(kind):
    return TracerParams(
        kind=kind, diffusion=1e-9,
        decay=decay_constant(100.0) if kind == "decaying" else 0.0,
        retardation=4000.0 if kind == "sorbing" else 1.0,
    )


@pytest.fixture(scope="module")
def generated_flows():
    """Upscaled generated network (30 fractures, L = 20 m, seed 4) and its flow, orl 1 and 2."""
    net = generate_network(GenerationParams(L=20.0, n_fractures=30, seed=4))
    out = {}
    for orl in (1, 2):
        mesh = cube_mesh(20.0, 5.0, net, orl=orl)
        props = upscale_mesh(mesh, net, 1e-16, 0.01)
        out[orl] = (mesh, props, solve_steady_flow(mesh, props, FlowBC(1000.0, 0.0)))
    return out


# the shared face operator sums advection and diffusion per face before
# assembly instead of adding them as separate entries, which moves matrix
# entries and breakthrough values by rounding only (~2e-16 measured)
REFERENCE_RTOL = 1e-13


def _rel_diff(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want) / scale, initial=0.0))


class TestReferenceAssembly:
    @pytest.mark.parametrize("orl", [1, 2])
    @pytest.mark.parametrize("kind", TRACER_KINDS)
    def test_system_matches_per_block_assembly(self, generated_flows, orl, kind):
        mesh, props, flow = generated_flows[orl]
        params = desk_tracer(kind)
        got = prepare_transport(mesh, props, flow, params).operator.system_const
        want = reference_system_const(mesh, props, flow, params)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert _rel_diff(got.data, want.data) <= REFERENCE_RTOL

    @pytest.mark.parametrize("kind", TRACER_KINDS)
    def test_breakthrough_matches_per_block_assembly(self, generated_flows, kind, monkeypatch):
        mesh, props, flow = generated_flows[1]
        params = desk_tracer(kind)

        def run():
            return run_transport(mesh, props, flow, params, 1e8, n_outputs=48, growth=1.5)

        got = run()

        class ReferenceOperator(transport.TransportOperator):
            def __init__(self, mesh, props, flow, params):
                super().__init__(mesh, props, flow, params)
                self.system_const = reference_system_const(mesh, props, flow, params)

        monkeypatch.setattr(transport, "TransportOperator", ReferenceOperator)
        want = run()
        assert got.peak_index() == want.peak_index()
        for name in ("mass_rate_mol_per_yr", "cumulative_mol", "in_domain_mol", "decayed_mol"):
            assert _rel_diff(getattr(got, name), getattr(want, name)) <= REFERENCE_RTOL, name


def counted_splu(monkeypatch):
    """Replace scipy's splu, as transport calls it, with a counting wrapper."""
    calls = []
    real = spla.splu

    def splu(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport.spla, "splu", splu)
    return calls


def lu_step(op, c, dt):
    """One backward-Euler step by a direct sparse LU solve."""
    matrix = (op.system_const + sp.diags(op.storage / dt)).tocsc()
    return spla.splu(matrix).solve(op.storage / dt * c)


def peak_scaled_diff(got, want):
    """Largest entry-wise difference, relative to the largest entry of want."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# GMRES stops once ||b - A x|| <= 1e-14 ||b||, so a step's error is bounded
# relative to its largest entry, not per entry: tiny entries far downstream
# of the pulse carry absolute errors of that size (<= 3.5e-14 measured at
# orl 2, dt = 1 yr; <= 3.6e-16 on the first steps of a pulse)
KRYLOV_STEP_TOL = 1e-13
# a whole run against the LU-only path, per entry above 1e-12 of each
# array's largest value (<= 4.7e-14 measured on the orl-1 fixture)
KRYLOV_RUN_RTOL = 1e-12


class TestStepSolver:
    @pytest.mark.parametrize("dt_yr", [1e-8, 1e-7])
    @pytest.mark.parametrize("orl", [1, 2])
    @pytest.mark.parametrize("kind", TRACER_KINDS)
    def test_first_step_matches_lu_with_one_triangular_factor(
        self, generated_flows, kind, orl, dt_yr, monkeypatch,
    ):
        # the small steps a pulse starts with, whose matrices are strongly
        # diagonally dominant
        mesh, props, flow = generated_flows[orl]
        state = prepare_transport(mesh, props, flow, desk_tracer(kind))
        op, dt = state.operator, dt_yr * YEAR_SECONDS
        want = lu_step(op, state.concentration, dt)
        calls = counted_splu(monkeypatch)
        got = op.solve_step(state.concentration, dt)
        assert len(calls) == 1 and sp.triu(calls[0][0], 1).nnz == 0
        assert (op.factorizations, op.fallbacks) == (1, 0)
        assert got.min() >= -KRYLOV_STEP_TOL * got.max()
        assert peak_scaled_diff(got, want) <= KRYLOV_STEP_TOL

    def test_weakly_dominant_step_factorizes_once_per_dt(self, generated_flows, monkeypatch):
        mesh, props, flow = generated_flows[2]
        state = prepare_transport(mesh, props, flow, desk_tracer("conservative"))
        op, dt = state.operator, YEAR_SECONDS
        c1 = lu_step(op, state.concentration, dt)
        c2 = lu_step(op, c1, dt)
        calls = counted_splu(monkeypatch)
        got1 = op.solve_step(state.concentration, dt)
        got2 = op.solve_step(got1, dt)
        # one Gauss-Seidel factor for the repeated dt, and no LU of the full matrix
        assert len(calls) == 1
        assert all(sp.triu(args[0], 1).nnz == 0 for args in calls)
        assert (op.factorizations, op.fallbacks) == (1, 0)
        assert op.krylov_iterations > 0
        assert peak_scaled_diff(got1, c1) <= KRYLOV_STEP_TOL
        assert peak_scaled_diff(got2, c2) <= KRYLOV_STEP_TOL

    def test_gmres_cap_falls_back_to_direct(self, generated_flows, monkeypatch):
        mesh, props, flow = generated_flows[2]
        state = prepare_transport(mesh, props, flow, desk_tracer("conservative"))
        # one restart cycle is too few at the largest steps a pulse takes
        op, dt = state.operator, 1e8 * YEAR_SECONDS
        want = lu_step(op, state.concentration, dt)
        monkeypatch.setattr(transport, "GMRES_MAX_CYCLES", 1)
        calls = counted_splu(monkeypatch)
        got = op.solve_step(state.concentration, dt)
        assert len(calls) == 2
        assert sp.triu(calls[0][0], 1).nnz == 0 and sp.triu(calls[1][0], 1).nnz > 0
        assert (op.factorizations, op.fallbacks) == (1, 1)
        assert op.krylov_iterations == transport.GMRES_RESTART
        assert np.array_equal(got, want)

    def test_run_records_solver_counts(self, generated_flows):
        mesh, props, flow = generated_flows[1]
        btc = run_transport(
            mesh, props, flow, desk_tracer("conservative"), 1e8, n_outputs=48, growth=1.5,
        )
        meta = btc.metadata
        assert transport.SOLVER_COUNTS == ("steps", "factorizations", "krylov_iterations", "fallbacks")
        assert set(meta) == {"other_exit_mol", "min_concentration", *transport.SOLVER_COUNTS}
        # one Gauss-Seidel factor per distinct dt
        assert 0 < meta["factorizations"] <= meta["steps"]
        assert meta["krylov_iterations"] >= meta["factorizations"]
        assert meta["fallbacks"] == 0
        assert -1e-12 <= meta["min_concentration"] <= 0.0
        assert btc.ledger_closure() < 1e-6

    def test_decaying_run_logs_no_warning(self, generated_flows, monkeypatch, caplog):
        # on the desk schedule the tracer decays through about 1e6 half-lives.
        # At orl 3 a step went negative by ~1e-11 of the previous field's
        # maximum once that was ~1e-143 of the pulse; add the same round-off
        # here, which is far below the pulse and so no reason to warn
        mesh, props, flow = generated_flows[1]
        pulse = initialize_pulse(mesh, props, 1.0).max()
        solve = transport.TransportOperator.solve_step

        def solve_step(op, c, dt):
            x = solve(op, c, dt)
            if x.max() < 1e-100 * pulse:
                x[np.argmin(x)] = -1e-11 * c.max()
            return x

        monkeypatch.setattr(transport.TransportOperator, "solve_step", solve_step)
        with caplog.at_level(logging.WARNING, logger=transport.__name__):
            btc = run_transport(
                mesh, props, flow, desk_tracer("decaying"), 1e8, n_outputs=192, growth=1.2,
            )
        assert btc.in_domain_mol[-1] < 1e-200 * btc.in_domain_mol[0]
        assert -1e-12 <= btc.metadata["min_concentration"] < 0.0
        assert caplog.records == []

    @pytest.mark.parametrize("kind", TRACER_KINDS)
    def test_run_matches_lu_path(self, generated_flows, kind, monkeypatch):
        mesh, props, flow = generated_flows[1]
        params = desk_tracer(kind)

        def run():
            return run_transport(mesh, props, flow, params, 1e8, n_outputs=48, growth=1.5)

        got = run()

        def solve_step_lu(op, c, dt):
            op.steps += 1
            return lu_step(op, c, dt)

        monkeypatch.setattr(transport.TransportOperator, "solve_step", solve_step_lu)
        want = run()
        assert want.metadata["krylov_iterations"] == 0 < got.metadata["krylov_iterations"]
        assert got.peak_index() == want.peak_index()
        for name in ("mass_rate_mol_per_yr", "cumulative_mol", "in_domain_mol", "decayed_mol"):
            g, w = getattr(got, name), getattr(want, name)
            above = np.abs(w) > 1e-12 * np.abs(w).max(initial=0.0)
            assert _rel_diff(g[above], w[above]) <= KRYLOV_RUN_RTOL, name
        assert got.ledger_closure() < 1e-6


class TestBreakthroughAnalysis:
    def make_btc(self, times, rates, m0=1.0):
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        return BreakthroughCurve(
            times_yr=times, mass_rate_mol_per_yr=rates,
            cumulative_mol=np.zeros_like(times), in_domain_mol=np.zeros_like(times),
            decayed_mol=np.zeros_like(times), injected_mass=m0,
            initial_total_mass=m0, tracer_kind="conservative",
        )

    def test_self_normalization_puts_peak_at_one(self):
        btc = self.make_btc([1.0, 2.0, 4.0, 8.0], [0.1, 0.7, 0.3, 0.1])
        normalize_btc(btc, btc)
        assert btc.normalized_time[btc.peak_index()] == pytest.approx(1.0)
        assert btc.normalized_rate.max() == pytest.approx(0.7)

    def test_rate_scaling(self):
        btc = self.make_btc([1.0, 2.0, 4.0], [0.2, 0.6, 0.1], m0=2.0)
        normalize_btc(btc, btc)
        assert btc.normalized_rate.max() == pytest.approx(0.3)

    def test_flat_reference_rejected(self):
        btc = self.make_btc([1.0, 2.0], [0.5, 0.6])
        flat = self.make_btc([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            normalize_btc(btc, flat)

    def test_detect_peaks_finds_local_maxima(self):
        rates = [0.0, 1.0, 0.2, 0.1, 0.6, 0.1, 0.0]
        peaks = detect_peaks(np.arange(7.0), rates)
        assert peaks == [1, 4]

    def test_detect_peaks_threshold(self):
        rates = [0.0, 1.0, 0.2, 0.1, 1e-12, 0.0, 0.0]
        assert detect_peaks(np.arange(7.0), rates, min_rel_height=1e-6) == [1]

    def test_csv_output(self, tmp_path):
        mesh, props, flow = channel(20)
        btc = run_transport(
            mesh, props, flow, TracerParams(kind="conservative"), 1.0,
            output_times_yr=np.geomspace(1e-3, 1.0, 20), dt0_yr=1e-4,
        )
        normalize_btc(btc, btc)
        path = tmp_path / "btc.csv"
        write_btc_csv(btc, path, seed=1, p_prime=1.0, orl=2, k_m=1e-16, isolated_mode="retained")
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "time_yr,mass_rate_mol_per_yr,cumulative_mol,normalized_time,"
            "normalized_rate,tracer_kind,seed,p_prime,orl,k_m,isolated_mode"
        )
        assert len(lines) == 21
        assert lines[1].endswith("conservative,1,1.0,2,1e-16,retained")
