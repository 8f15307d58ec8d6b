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
Kwok & Tchelepi 2007).  The preconditioner is one forward Gauss-Seidel
sweep, the lower triangle of the permuted A factorized without fill and
rebuilt only when dt changes, and GMRES starts from that sweep applied to
the right-hand side.  If GMRES hits its cap, the step falls back to one
direct sparse LU.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .flow import face_conductance, face_operator

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
# copies into BreakthroughCurve.metadata: steps, Gauss-Seidel factors (one
# per distinct dt), GMRES iterations, and direct LUs after the cap
SOLVER_COUNTS = ("steps", "factorizations", "krylov_iterations", "fallbacks")


def decay_constant(half_life_yr: float) -> float:
    """First-order decay rate [1/s] for a given half life in years."""
    if half_life_yr <= 0:
        raise ValueError("half life must be positive")
    return np.log(2.0) / (half_life_yr * YEAR_SECONDS)


def retardation_factor(k_d: float, phi, s_l: float = 1.0, rho_w: float = 1000.0):
    """R = 1 + K_D / (phi * s_l * rho_w); phi may be an array of cell porosities."""
    if np.any(np.asarray(phi) <= 0) or s_l <= 0 or rho_w <= 0:
        raise ValueError("phi, s_l and rho_w must be positive")
    return 1.0 + k_d / (phi * s_l * rho_w)


@dataclass(frozen=True)
class TracerParams:
    """Tracer physics: diffusion, decay, retardation, and injected mass.

    With k_d set (sorbing only), the retardation becomes cell-wise
    R(phi) = 1 + K_D/(phi * s_l * rho_w) instead of the constant R.
    """

    kind: str = "conservative"
    diffusion: float = 1.0e-9        # m^2/s
    decay: float = 0.0               # 1/s
    retardation: float = 1.0
    injected_mass: float = 1.0       # mol
    k_d: float | None = None         # kg/m^3, enables cell-wise retardation
    s_l: float = 1.0
    rho_w: float = 1000.0

    def __post_init__(self):
        if self.kind not in TRACER_KINDS:
            raise ValueError(f"kind must be one of {TRACER_KINDS}")
        if self.diffusion < 0:
            raise ValueError("diffusion must be >= 0")
        if self.decay < 0 or (self.decay > 0 and self.kind != "decaying"):
            raise ValueError("decay is only valid (and positive) for decaying tracers")
        if self.retardation < 1 or (self.retardation > 1 and self.kind != "sorbing"):
            raise ValueError("retardation > 1 is only valid for sorbing tracers")
        if self.k_d is not None and self.kind != "sorbing":
            raise ValueError("k_d only applies to sorbing tracers")
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


class TransportOperator:
    """Frozen spatial operator and storage/decay diagonals for one tracer."""

    def __init__(self, mesh, props, flow, params: TracerParams):
        phi = np.asarray(props.porosity, dtype=float)
        vol = np.asarray(mesh.volume, dtype=float)
        n = mesh.num_cells
        faces = mesh.faces

        if params.k_d is not None:
            r_cell = retardation_factor(params.k_d, phi, params.s_l, params.rho_w)
        else:
            r_cell = np.full(n, params.retardation)

        self.pore_volume = phi * vol
        self.storage = r_cell * self.pore_volume
        self.decay_diag = params.decay * self.pore_volume
        self.params = params
        self.mesh = mesh

        # upwind advection plus porosity-weighted diffusion on interior faces;
        # boundary faces with outward flux advect out, with no diffusive exchange
        q_out = np.maximum(flow.face_flux, 0.0)
        q_in = np.maximum(-flow.face_flux, 0.0)
        t_d = face_conductance(faces, params.diffusion * phi) if params.diffusion > 0 else 0.0
        spatial = face_operator(faces, n, q_out + t_d, q_in + t_d, q_out)

        boundary = (faces.cell_b < 0) & (flow.face_flux > 0)
        bc_cells = faces.cell_a[boundary]
        bc_flux = flow.face_flux[boundary]
        self.outflow_weight = np.zeros(n)
        self.other_exit_weight = np.zeros(n)
        is_outlet = faces.btag[boundary] == mesh.BTAG_XMAX
        np.add.at(self.outflow_weight, bc_cells[is_outlet], bc_flux[is_outlet])
        np.add.at(self.other_exit_weight, bc_cells[~is_outlet], bc_flux[~is_outlet])

        self.system_const = (spatial + sp.diags(self.decay_diag)).tocsc()

        # potential order: by descending steady pressure every upwind
        # neighbour precedes its downstream cell, so the advective part of
        # the permuted matrix is lower triangular
        self._order = np.argsort(-flow.pressure, kind="stable")
        self._system_perm = self.system_const[self._order][:, self._order].tocsr()
        self._storage_perm = self.storage[self._order]
        self._gs_dt = None
        self._gs = None
        # solver counts, read into BreakthroughCurve.metadata by run_transport
        self.steps = 0
        self.factorizations = 0
        self.krylov_iterations = 0
        self.fallbacks = 0

    def solve_step(self, c: np.ndarray, dt: float) -> np.ndarray:
        """Solve (system_const + storage/dt) x = storage/dt c.

        GMRES on the step permuted into potential order, preconditioned by
        forward Gauss-Seidel (the no-fill factor of the lower triangle, kept
        while dt is unchanged) and started from one Gauss-Seidel sweep; one
        direct LU of the unpermuted step if GMRES hits GMRES_MAX_CYCLES.
        """
        self.steps += 1
        rhs = self.storage / dt * c
        matrix = self._system_perm + sp.diags(self._storage_perm / dt)
        if self._gs_dt != dt:
            # a triangular factor in natural order with diagonal pivots has no fill
            lower = spla.splu(
                sp.tril(matrix).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
            self._gs = spla.LinearOperator(matrix.shape, matvec=lower.solve, dtype=float)
            self._gs_dt = dt
            self.factorizations += 1
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        # start from one Gauss-Seidel sweep (from zero), not from c: on the
        # small, strongly dominant steps that sweep is accurate entry by
        # entry, whereas from c the norm-wise stop leaves relative errors
        # above 1e-12 in entries near 1e-12 of the peak
        b = rhs[self._order]
        x_perm, info = spla.gmres(
            matrix, b, x0=self._gs.matvec(b), rtol=GMRES_RTOL, atol=0.0,
            restart=GMRES_RESTART, maxiter=GMRES_MAX_CYCLES, M=self._gs,
            callback=count, callback_type="pr_norm",
        )
        self.krylov_iterations += iterations
        if info != 0:
            self.fallbacks += 1
            logger.warning("GMRES hit its cap at dt = %.3g s; solving the step directly", dt)
            return spla.splu((self.system_const + sp.diags(self.storage / dt)).tocsc()).solve(rhs)
        x = np.empty_like(x_perm)
        x[self._order] = x_perm
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
