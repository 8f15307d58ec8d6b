"""Eulerian tracer transport on a frozen steady flow field.

Fully implicit (backward Euler) finite volumes with first-order upwind
advection and face-harmonic porosity-weighted diffusion.  Three tracer
kinds share one operator: conservative, first-order decaying, and linearly
sorbing, the latter entering as a storage multiplier R on the accumulation
term (algebraically the same as dividing the flux divergence by R).
Breakthrough curves are the advective mass rate through the outflow plane.

Boundary handling: outflow faces advect mass out at the upwind cell
concentration with no diffusive return; inflow faces carry tracer-free
water and zero diffusive gradient; lateral faces are reflective.

Solving a step: every step matrix A = system_const + diag(storage/dt) is
solved by restarted GMRES in potential order: cells sorted by descending
steady pressure, so that every upwind neighbour comes before its downstream
cell and the advective part of A is lower triangular (Natvig & Lie 2008;
Kwok & Tchelepi 2007).  The permuted spatial operator is assembled once per
flow field and diffusion coefficient, with every diagonal entry stored, and
kept on the field, so the three tracers run on it share one assembly (see
SpatialOperator).  Tracers differ only on the diagonal (decay, and
storage/dt, rewritten when dt changes), so the operator also keeps its
strict triangles, gathered once in the sweeps' padded layout
(flow.GaussSeidelTriangles), and a tracer passes them only a diagonal.  The
preconditioner is symmetric Gauss-Seidel, split into a backward and a
forward sweep of the permuted A (flow.SymmetricGaussSeidel, each sweep one
in-place pass of scipy's CSR product kernel, which factorizes nothing),
split once per distinct dt.  GMRES runs on the split-preconditioned step,
each iteration by Eisenstat's trick (two sweeps and no product with A),
starts from one symmetric Gauss-Seidel sweep of the right-hand side, and
follows each cycle with a few forward Gauss-Seidel steps, which keep the
small entries downstream of the pulse accurate relative to themselves.
The GMRES is flow.gmres through flow.krylov_solve, the iterative solve
flow shares: orthogonalising by classical Gram-Schmidt applied twice, on
the right-hand side scaled by a power of two, so fields decayed to
~1e-170 solve as well as the pulse, and judged by the true residual.  A step that hits the cap falls back to one
direct sparse LU of the permuted step, as a capped pressure solve does;
that is the only LU transport runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .flow import GaussSeidelTriangles, face_conductance, face_operator, krylov_solve

logger = logging.getLogger(__name__)

YEAR_SECONDS = 365.25 * 86400.0

TRACER_KINDS = ("conservative", "decaying", "sorbing")

# GMRES stops once ||b - A x|| <= GMRES_RTOL ||b||; it restarts every
# GMRES_RESTART iterations and hands the step to a direct LU after
# GMRES_MAX_CYCLES restart cycles
GMRES_RTOL = 1e-14
GMRES_RESTART = 50
GMRES_MAX_CYCLES = 20
# deterministic solver counts a TransportOperator keeps and run_transport
# copies into BreakthroughCurve.metadata: steps, symmetric Gauss-Seidel
# splits scaled by the step's diagonal (one per distinct dt; nothing is
# factorized, the name is kept for the manifest's transport_rows), GMRES
# iterations, GMRES restart cycles, and direct LUs after the cap
SOLVER_COUNTS = ("steps", "factorizations", "krylov_iterations", "krylov_cycles", "fallbacks")


def decay_constant(half_life_yr: float) -> float:
    """First-order decay rate [1/s] for a given half life in years."""
    if half_life_yr <= 0:
        raise ValueError("half life must be positive")
    return np.log(2.0) / (half_life_yr * YEAR_SECONDS)


@dataclass(frozen=True)
class TracerParams:
    """Tracer physics: diffusion, decay, retardation, and injected mass.

    The retardation R is one constant storage multiplier over every cell.
    """

    kind: str = "conservative"
    diffusion: float = 1.0e-9        # m^2/s
    decay: float = 0.0               # 1/s
    retardation: float = 1.0
    injected_mass: float = 1.0       # mol

    def __post_init__(self):
        if self.kind not in TRACER_KINDS:
            raise ValueError(f"kind must be one of {TRACER_KINDS}")
        if self.diffusion < 0:
            raise ValueError("diffusion must be >= 0")
        if self.decay < 0 or (self.decay > 0 and self.kind != "decaying"):
            raise ValueError("decay is only valid (and positive) for decaying tracers")
        if self.retardation < 1 or (self.retardation > 1 and self.kind != "sorbing"):
            raise ValueError("retardation > 1 is only valid for sorbing tracers")
        if self.injected_mass <= 0:
            raise ValueError("injected mass must be positive")


@dataclass
class TransportState:
    """Concentration field plus exact discrete mass ledgers [mol]."""

    concentration: np.ndarray
    time: float = 0.0                # seconds
    outflow: float = 0.0             # advected through x = +L/2
    other_exit: float = 0.0          # advected through any other boundary
    decayed: float = 0.0
    min_concentration: float = 0.0   # lowest concentration of the run so far
    operator: "TransportOperator" = None

    def in_domain_mass(self) -> float:
        return float(self.operator.storage @ self.concentration)


@dataclass(eq=False)
class SpatialOperator:
    """The spatial operator of one flow field in potential order, with what
    every tracer run on that field shares.

    FlowField.transport_operators keeps one per diffusion coefficient; mesh
    and porosity are what it was built from, and a tracer on another mesh
    (by identity) or another porosity (by value) rebuilds it.  data holds
    the CSR values with every diagonal entry stored (an explicit zero in a
    cell without flux or diffusion).  triangles holds the positions of the
    diagonal entries and both strict triangles in the sweeps' layout, which
    every tracer on the field splits with its own diagonal; the step matrix
    keeps data's pattern.
    """

    mesh: object
    porosity: np.ndarray
    order: np.ndarray        # the cell of each potential-ordered row
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    triangles: GaussSeidelTriangles
    outflow_weight: np.ndarray      # outward flux through x = +L/2, per cell
    other_exit_weight: np.ndarray   # outward flux through any other boundary


class TransportOperator:
    """Storage and decay diagonals of one tracer on the spatial operator
    its flow field shares between tracers."""

    def __init__(self, mesh, props, flow, params: TracerParams):
        phi = np.asarray(props.porosity, dtype=float)
        vol = np.asarray(mesh.volume, dtype=float)
        pore_volume = phi * vol
        self.storage = params.retardation * pore_volume
        self.decay_diag = params.decay * pore_volume

        spatial = flow.transport_operators.get(params.diffusion)
        if spatial is None or spatial.mesh is not mesh or not np.array_equal(spatial.porosity, phi):
            spatial = self.spatial_operator(mesh, props, flow, params)
            flow.transport_operators[params.diffusion] = spatial
        self._spatial = spatial
        self.outflow_weight = spatial.outflow_weight
        self.other_exit_weight = spatial.other_exit_weight
        # this tracer's diagonal: the decay diagonal added to the stored one,
        # and storage/dt added to that whenever dt changes, when solve_step
        # writes it into the step matrix and splits the shared triangles
        n = mesh.num_cells
        self._step = sp.csr_matrix(
            (spatial.data.copy(), spatial.indices, spatial.indptr), shape=(n, n))
        self._diagonal = spatial.data[spatial.triangles.diagonal] + self.decay_diag[spatial.order]
        self._storage_perm = self.storage[spatial.order]
        self._gs_dt = None
        self._gs = None
        # solver counts, read into BreakthroughCurve.metadata by run_transport
        self.steps = 0
        self.factorizations = 0
        self.krylov_iterations = 0
        self.krylov_cycles = 0
        self.fallbacks = 0

    def spatial_operator(self, mesh, props, flow, params) -> SpatialOperator:
        """Assemble the spatial operator from spatial_entries, in potential order."""
        phi = np.asarray(props.porosity, dtype=float)
        n = mesh.num_cells
        faces = mesh.faces

        boundary = (faces.cell_b < 0) & (flow.face_flux > 0)
        bc_cells = faces.cell_a[boundary]
        bc_flux = flow.face_flux[boundary]
        outflow_weight = np.zeros(n)
        other_exit_weight = np.zeros(n)
        is_outlet = faces.btag[boundary] == mesh.BTAG_XMAX
        np.add.at(outflow_weight, bc_cells[is_outlet], bc_flux[is_outlet])
        np.add.at(other_exit_weight, bc_cells[~is_outlet], bc_flux[~is_outlet])

        # potential order: by descending steady pressure every upwind
        # neighbour precedes its downstream cell, so the advective part of
        # the permuted matrix is lower triangular
        order = np.argsort(-flow.pressure, kind="stable")
        rank = np.empty(n, dtype=np.int32)  # scipy's index type, so nothing is converted
        rank[order] = np.arange(n, dtype=np.int32)
        # one assembly of the permuted operator from its off-diagonal entries
        # and its diagonal, summed apart so nothing is summed in the sort
        rows, cols, vals = self.spatial_entries(mesh, props, flow, params)
        off = rows != cols
        diagonal = np.bincount(rows[~off], vals[~off], minlength=n)
        system = sp.coo_matrix(
            (np.concatenate([vals[off], diagonal]),
             (np.concatenate([rank[rows[off]], rank]), np.concatenate([rank[cols[off]], rank]))),
            shape=(n, n),
        ).tocsr()
        return SpatialOperator(
            mesh, phi.copy(), order, system.data, system.indices, system.indptr,
            GaussSeidelTriangles(system.indptr, system.indices, system.data),
            outflow_weight, other_exit_weight,
        )

    def spatial_entries(self, mesh, props, flow, params):
        """(rows, cols, values) in cell order, duplicates summing, of the spatial
        operator: upwind advection plus porosity-weighted diffusion on interior
        faces; boundary faces with outward flux advect out, with no diffusive
        exchange."""
        phi = np.asarray(props.porosity, dtype=float)
        q_out = np.maximum(flow.face_flux, 0.0)
        q_in = np.maximum(-flow.face_flux, 0.0)
        t_d = face_conductance(mesh.faces, params.diffusion * phi) if params.diffusion > 0 else 0.0
        return face_operator(mesh.faces, q_out + t_d, q_in + t_d, q_out)

    @property
    def system_const(self) -> sp.csc_matrix:
        """The spatial operator plus decay diagonal in cell order, as the step
        solve sees it (the stored zeros dropped)."""
        spatial = self._spatial
        n = len(spatial.order)
        rows = np.repeat(spatial.order, np.diff(spatial.indptr))
        data = spatial.data.copy()
        data[spatial.triangles.diagonal] = self._diagonal
        matrix = sp.coo_matrix(
            (data, (rows, spatial.order[spatial.indices])), shape=(n, n)).tocsc()
        matrix.eliminate_zeros()
        return matrix

    def solve_step(self, c: np.ndarray, dt: float) -> np.ndarray:
        """Solve (system_const + storage/dt) x = storage/dt c.

        GMRES on the step permuted into potential order, split-preconditioned
        by symmetric Gauss-Seidel (the shared triangles split by the step's
        diagonal once per distinct dt) and started from one symmetric
        Gauss-Seidel sweep; one direct LU of the permuted step if GMRES hits
        GMRES_MAX_CYCLES.
        """
        spatial = self._spatial
        self.steps += 1
        if self._gs_dt != dt:
            diagonal = self._diagonal + self._storage_perm / dt
            self._step.data[spatial.triangles.diagonal] = diagonal
            self._gs = spatial.triangles.split(diagonal)
            self._gs_dt = dt
            self.factorizations += 1
        # gmres starts from one symmetric Gauss-Seidel sweep M^-1 b (from
        # zero), not from c: on the small, strongly dominant steps that
        # sweep, which ends on the forward one, is accurate entry by entry,
        # whereas from c the norm-wise stop leaves relative errors above
        # 1e-12 in entries near 1e-12 of the peak
        b = (self.storage / dt * c)[spatial.order]
        x_perm, iterations, cycles, fell_back = krylov_solve(
            self._step, b, self._gs, rtol=GMRES_RTOL, maxiter=GMRES_MAX_CYCLES,
            restart=GMRES_RESTART,
        )
        self.krylov_iterations += iterations
        self.krylov_cycles += cycles
        self.fallbacks += fell_back
        x = np.empty_like(x_perm)
        x[spatial.order] = x_perm
        return x


def initialize_pulse(mesh, props, injected_mass: float) -> np.ndarray:
    """Uniform concentration over inlet-adjacent cells holding the full pulse.

    The injected dissolved mass is exactly injected_mass: C = M0 / sum(phi v)
    over cells with a face on x = -L/2, zero elsewhere.
    """
    faces = mesh.faces
    inlet_cells = np.unique(faces.cell_a[faces.btag == mesh.BTAG_XMIN])
    if len(inlet_cells) == 0:
        raise ValueError("mesh has no inlet-adjacent cells")
    phi_v = np.asarray(props.porosity) * np.asarray(mesh.volume)
    c = np.zeros(mesh.num_cells)
    c[inlet_cells] = injected_mass / phi_v[inlet_cells].sum()
    return c


def prepare_transport(mesh, props, flow, params: TracerParams) -> TransportState:
    """Build the operator and the initial pulse state."""
    op = TransportOperator(mesh, props, flow, params)
    c0 = initialize_pulse(mesh, props, params.injected_mass)
    return TransportState(concentration=c0, min_concentration=float(c0.min()), operator=op)


def step_transport(state: TransportState, dt: float) -> TransportState:
    """One backward-Euler step of length dt [s]; updates ledgers in place."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    op = state.operator
    c_new = op.solve_step(state.concentration, dt)
    state.min_concentration = min(state.min_concentration, float(c_new.min()))
    state.concentration = c_new
    state.time += dt
    state.outflow += dt * float(op.outflow_weight @ c_new)
    state.other_exit += dt * float(op.other_exit_weight @ c_new)
    state.decayed += dt * float(op.decay_diag @ c_new)
    return state


@dataclass
class BreakthroughCurve:
    """Outflow mass rate vs time with the full mass ledger at each output."""

    times_yr: np.ndarray
    mass_rate_mol_per_yr: np.ndarray
    cumulative_mol: np.ndarray
    in_domain_mol: np.ndarray
    decayed_mol: np.ndarray
    injected_mass: float
    initial_total_mass: float
    tracer_kind: str
    normalized_time: np.ndarray | None = None
    normalized_rate: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def peak_index(self) -> int:
        return int(np.argmax(self.mass_rate_mol_per_yr))

    def peak_time_yr(self) -> float:
        return float(self.times_yr[self.peak_index()])

    def ledger_closure(self) -> float:
        """Worst ledger gap over all outputs, relative to the injected mass."""
        gap = np.abs(
            self.in_domain_mol + self.cumulative_mol + self.decayed_mol
            + self.metadata["other_exit_mol"] - self.initial_total_mass
        )
        return float(gap.max() / self.injected_mass)


def run_transport(
    mesh,
    props,
    flow,
    params: TracerParams,
    t_end_yr: float,
    output_times_yr=None,
    *,
    n_outputs: int = 256,
    dt0_yr: float = 1e-8,
    growth: float = 1.2,
) -> BreakthroughCurve:
    """Integrate to t_end with geometrically growing steps, landing on outputs.

    Output times default to log-spaced between 10*dt0 and t_end.  The mass
    ledger (in-domain + outflow + other exits + decayed = initial total) is
    exact for the discrete scheme and recorded at every output.
    """
    if output_times_yr is None:
        output_times_yr = np.geomspace(10.0 * dt0_yr, t_end_yr, n_outputs)
    outputs = np.asarray(output_times_yr, dtype=float) * YEAR_SECONDS

    state = prepare_transport(mesh, props, flow, params)
    initial_total = state.in_domain_mass()
    initial_max = state.concentration.max()

    times, rates, cumulative, in_domain, decayed = [], [], [], [], []
    dt = dt0_yr * YEAR_SECONDS
    for target in outputs:
        while state.time < target * (1.0 - 1e-12):
            step = min(dt, target - state.time)
            step_transport(state, step)
            dt *= growth
        times.append(state.time / YEAR_SECONDS)
        rates.append(float(state.operator.outflow_weight @ state.concentration) * YEAR_SECONDS)
        cumulative.append(state.outflow)
        in_domain.append(state.in_domain_mass())
        decayed.append(state.decayed)

    min_concentration = float(state.min_concentration / initial_max)
    if abs(min_concentration) < np.finfo(float).tiny:
        # a subnormal ratio is round-off near the bottom of the double
        # range, not a step that went negative
        min_concentration = 0.0
    if min_concentration < -1e-12:
        logger.warning(
            "%s transport went negative: lowest concentration %.3e of the initial maximum",
            params.kind, min_concentration,
        )
    btc = BreakthroughCurve(
        times_yr=np.asarray(times),
        mass_rate_mol_per_yr=np.asarray(rates),
        cumulative_mol=np.asarray(cumulative),
        in_domain_mol=np.asarray(in_domain),
        decayed_mol=np.asarray(decayed),
        injected_mass=params.injected_mass,
        initial_total_mass=initial_total,
        tracer_kind=params.kind,
        metadata={
            "other_exit_mol": state.other_exit,
            "min_concentration": min_concentration,
            **{name: getattr(state.operator, name) for name in SOLVER_COUNTS},
        },
    )
    logger.info(
        "%s transport done: %.3g mol out, ledger closes to %.2e of the injected mass",
        params.kind, state.outflow, btc.ledger_closure(),
    )
    return btc


def normalize_btc(btc: BreakthroughCurve, reference: BreakthroughCurve) -> BreakthroughCurve:
    """Times scaled by the reference peak arrival, rates by injected mass."""
    peak_rate = reference.mass_rate_mol_per_yr.max()
    if peak_rate <= 0:
        raise ValueError("reference curve has no positive peak")
    t_peak = reference.peak_time_yr()
    btc.normalized_time = btc.times_yr / t_peak
    btc.normalized_rate = btc.mass_rate_mol_per_yr / btc.injected_mass
    return btc


def detect_peaks(times, rates, min_rel_height: float = 1e-9) -> list[int]:
    """Indices of interior local maxima above a relative height floor."""
    rates = np.asarray(rates, dtype=float)
    top = rates.max()
    if top <= 0:
        return []
    floor = min_rel_height * top
    peaks = []
    for i in range(1, len(rates) - 1):
        if rates[i] > rates[i - 1] and rates[i] >= rates[i + 1] and rates[i] > floor:
            peaks.append(i)
    return peaks


def write_btc_csv(btc: BreakthroughCurve, path, **run_keys) -> None:
    """One row per output time, with run identification columns appended."""
    keys = dict(run_keys)
    extra_names = ",".join(keys)
    extra_vals = ",".join(str(v) for v in keys.values())
    norm_t = btc.normalized_time if btc.normalized_time is not None else np.full_like(btc.times_yr, np.nan)
    norm_r = btc.normalized_rate if btc.normalized_rate is not None else np.full_like(btc.times_yr, np.nan)
    with open(path, "w", encoding="utf-8") as fh:
        header = "time_yr,mass_rate_mol_per_yr,cumulative_mol,normalized_time,normalized_rate,tracer_kind"
        fh.write(header + ("," + extra_names if keys else "") + "\n")
        for i in range(len(btc.times_yr)):
            row = (
                f"{btc.times_yr[i]:.10g},{btc.mass_rate_mol_per_yr[i]:.10g},"
                f"{btc.cumulative_mol[i]:.10g},{norm_t[i]:.10g},{norm_r[i]:.10g},"
                f"{btc.tracer_kind}"
            )
            fh.write(row + ("," + extra_vals if keys else "") + "\n")
