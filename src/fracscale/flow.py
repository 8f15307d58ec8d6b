"""Steady Darcy flow by cell-centered two-point flux finite volumes.

Pressure is driven across the x axis (Dirichlet planes at x = +-L/2) with
no-flow lateral boundaries.  Interior face transmissibility is the
distance-weighted harmonic combination of the two cell permeabilities, so
the system is symmetric positive definite and series composites come out
exact.  Effective block permeability inverts Darcy's law on the inlet flux.
The two-point stencil (face_conductance, face_operator) and the Krylov
solve with its direct fallback at the cap (krylov_solve) are shared with
transport.  Pressure is solved by CG, preconditioned by Jacobi plus the
coarse correction Z (Z^T A Z)^-1 Z^T, Z's columns indicating the clusters
of fracture cells (Nicolaides 1987; Graham, Lechner & Scheichl 2007):
without it each cluster's pressure level converges slowly at high contrast.
Transport steps are solved by gmres, restarted GMRES (Saad & Schultz 1986)
preconditioned on the right, orthogonalising by classical Gram-Schmidt
applied twice, on the right-hand side scaled exactly by a power of two,
with forward_sweep's forward substitution (one in-place pass of the CSR
product kernel, no factorization) as the preconditioner.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

logger = logging.getLogger(__name__)

DEFAULT_VISCOSITY = 8.9e-4  # Pa s, water at 20 C


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class FlowBC:
    """Dirichlet pressures on the x faces; everything else is no-flow."""

    p_in: float
    p_out: float
    mu: float = DEFAULT_VISCOSITY

    def __post_init__(self):
        if self.p_in == self.p_out:
            raise ValueError("inlet and outlet pressure must differ")
        if self.mu <= 0:
            raise ValueError("viscosity must be positive")

    @property
    def delta_p(self) -> float:
        return self.p_in - self.p_out


@dataclass
class TpfaSystem:
    """Assembled sparse system plus per-face data needed to rebuild fluxes."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    face_trans: np.ndarray   # transmissibility (0 on no-flow faces)
    face_pbc: np.ndarray     # boundary pressure per face (nan on interior)
    clusters: sp.csr_matrix  # cells x clusters indicators of face-connected fracture cells


def face_conductance(faces, coeff, scale: float = 1.0) -> np.ndarray:
    """Two-point conductance of every face for the cell coefficient coeff.

    Interior faces take the distance-weighted harmonic combination
    area / (scale (d_a / c_a + d_b / c_b)); boundary faces take the
    half-cell value area c_a / (scale d_a).
    """
    interior = faces.cell_b >= 0
    boundary = ~interior
    a = faces.cell_a[interior]
    b = faces.cell_b[interior]
    out = np.empty(len(faces))
    out[interior] = faces.area[interior] / (
        scale * (faces.d_a[interior] / coeff[a] + faces.d_b[interior] / coeff[b])
    )
    out[boundary] = (
        faces.area[boundary] * coeff[faces.cell_a[boundary]] / (scale * faces.d_a[boundary])
    )
    return out


def face_operator(faces, w_ab, w_ba, w_out) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conservative two-point operator from per-face weights (arrays over all faces),
    as (rows, cols, values) triplets whose duplicates sum.

    Interior face i moves w_ab[i] x[a] from cell_a to cell_b and w_ba[i] x[b]
    back; boundary face j drains w_out[j] x[cell_a] out of the domain.  Only
    the interior entries of w_ab and w_ba and the boundary entries of w_out
    are read, and boundary faces with zero weight add no entry.
    """
    interior = faces.cell_b >= 0
    a = faces.cell_a[interior]
    b = faces.cell_b[interior]
    ab = w_ab[interior]
    ba = w_ba[interior]
    drained = ~interior & (w_out != 0)
    cells = faces.cell_a[drained]
    rows = np.concatenate([a, b, a, b, cells])
    cols = np.concatenate([a, b, b, a, cells])
    vals = np.concatenate([ab, ba, -ba, -ab, w_out[drained]])
    return rows, cols, vals


def gmres(A, b, M, *, rtol, maxiter, x0=None, restart):
    """Restarted GMRES(restart) on A M^-1 u = b, x = M^-1 u (right preconditioning).

    Arnoldi orthogonalises by classical Gram-Schmidt applied twice, each
    pass one product with the basis (Giraud, Langou & Rozlozník 2005), and
    Givens rotations keep the Hessenberg least-squares residual, which a
    cycle stops on once it is <= rtol ||b||.  The true residual is checked
    before each of at most maxiter cycles and after the last.  b and x0 are scaled by
    the power of two at max|b|, exactly, so norms of tiny fields do not
    underflow.  Returns (x, Arnoldi steps, converged).
    """
    bmax = np.abs(b).max()
    if bmax == 0.0:
        return np.zeros(len(b)), 0, True
    exponent = np.frexp(bmax)[1]
    b = np.ldexp(b, -exponent)
    x = np.zeros(len(b)) if x0 is None else np.ldexp(x0, -exponent)
    tol = rtol * np.linalg.norm(b)
    m = min(restart, len(b))
    basis = np.empty((m + 1, len(b)))
    hess = np.zeros((m, m))  # upper triangular after the rotations
    steps = 0
    for cycle in range(maxiter + 1):
        r = b - A @ x
        beta = np.linalg.norm(r)
        if beta <= tol or cycle == maxiter:
            break
        basis[0] = r / beta
        g = [beta] + [0.0] * m
        rotations = []
        for j in range(m):
            w = A @ (M @ basis[j])
            v = basis[: j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h_next = np.linalg.norm(w)
            steps += 1
            column = (h + h2).tolist() + [h_next]
            for i, (c, s) in enumerate(rotations):
                top, bottom = column[i], column[i + 1]
                column[i], column[i + 1] = c * top + s * bottom, c * bottom - s * top
            rho = math.hypot(column[j], h_next)
            c, s = column[j] / rho, h_next / rho
            rotations.append((c, s))
            column[j] = rho
            hess[: j + 1, j] = column[: j + 1]
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if abs(g[j + 1]) <= tol:  # also when h_next = 0: the Krylov space holds x
                break
            basis[j + 1] = w / h_next
        k = j + 1
        y = la.solve_triangular(hess[:k, :k], g[:k], check_finite=False)
        x += M @ (y @ basis[:k])
    return np.ldexp(x, exponent), steps, bool(beta <= tol)


def forward_sweep(indptr, indices, strict, diagonal) -> spla.LinearOperator:
    """L^-1 as a LinearOperator, for the lower triangular L = D (I - S) given
    by its diagonal D and its strict part S in CSR (strict, indices, indptr:
    L's strict lower triangle with each row scaled by -1/D, float64 values,
    indices and indptr of one integer dtype), with nothing factorized.

    An application is one forward substitution: x = b / D, then one call of
    scipy's CSR product kernel (csr_matvec, which adds row i's products
    into y[i], row by row) with x as both its input and its output.  Every
    x[j] (j < i) row i reads is then already final, so the one pass computes
    x[i] = (b[i] - sum_j L[i, j] x[j]) / L[i, i] in row order.  The kernel
    is scipy's private API; the tests pin that it runs in place and in order.
    b is left unchanged.
    """
    n = len(diagonal)
    # the kernel reads raw buffers: arrays that do not fit would be read out
    # of bounds, and another dtype would be converted, x into a copy
    if not (len(indptr) == n + 1 and len(indices) == len(strict) == indptr[-1]
            and indices.dtype == indptr.dtype and strict.dtype == diagonal.dtype == np.float64):
        raise ValueError("the sweep's arrays do not make one float64 CSR triangle")
    if not np.all(diagonal):
        raise la.LinAlgError("zero on the diagonal of a triangular solve")

    def solve(b):
        x = b / diagonal
        _sparsetools.csr_matvec(n, n, indptr, indices, strict, x, x)
        return x

    return spla.LinearOperator((n, n), matvec=solve, dtype=float)


def krylov_solve(A, b, M, *, rtol, maxiter, x0=None, restart=None):
    """Solve A x = b by preconditioned CG, or by gmres(restart) if restart is set.

    Stops once ||b - A x|| <= rtol ||b||.  If the iteration hits maxiter (CG
    iterations, or GMRES restart cycles) it logs a warning and solves by one
    direct sparse LU instead.  Returns (x, iterations, fell_back).
    """
    if restart is None:
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        x, info = spla.cg(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=M, callback=count)
        converged = info == 0
    else:
        x, iterations, converged = gmres(
            A, b, M, rtol=rtol, maxiter=maxiter, x0=x0, restart=restart)
    if converged:
        return x, iterations, False
    name = "CG" if restart is None else "GMRES"
    logger.warning("%s hit its cap after %d iterations; solving directly", name, iterations)
    return spla.splu(A.tocsc()).solve(b), iterations, True


def assemble_tpfa(mesh, props, bc: FlowBC) -> TpfaSystem:
    """Two-point flux assembly over the mesh face list."""
    k = np.asarray(props.permeability, dtype=float)
    if np.any(k <= 0):
        raise ValueError("all cell permeabilities must be positive")
    faces = mesh.faces
    n = mesh.num_cells
    if np.any(faces.area <= 0) or np.any(faces.d_a <= 0):
        raise ValueError("degenerate face geometry")

    pbc = np.full(len(faces), np.nan)
    pbc[faces.btag == mesh.BTAG_XMIN] = bc.p_in
    pbc[faces.btag == mesh.BTAG_XMAX] = bc.p_out
    dirichlet = ~np.isnan(pbc)

    trans = face_conductance(faces, k, bc.mu)
    trans[(faces.cell_b < 0) & ~dirichlet] = 0.0   # no-flow faces
    # on the boundary trans is now nonzero exactly on the Dirichlet faces
    rows, cols, vals = face_operator(faces, trans, trans, trans)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.zeros(n)
    np.add.at(rhs, faces.cell_a[dirichlet], trans[dirichlet] * pbc[dirichlet])
    return TpfaSystem(matrix, rhs, trans, pbc, mesh.clusters)


def solve_pressure(
    system: TpfaSystem,
    tol: float = 1e-10,
    method: str = "auto",
) -> tuple[np.ndarray, int, float]:
    """Solve the SPD system; returns (pressure, iterations, relative residual).

    method: "auto" (CG through krylov_solve, preconditioned by Jacobi plus
    the fracture-cluster coarse correction and capped at 50 sqrt(n) + 10
    iterations) or "direct" (one sparse LU, the reference).
    """
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown solver method {method!r}")
    A, b = system.matrix, system.rhs
    n = A.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0

    if method == "direct":
        p, iters = spla.splu(A.tocsc()).solve(b), 0
    else:
        inv_diag = 1.0 / A.diagonal()
        Z = system.clusters
        Zt = Z.T
        coarse_inv = np.linalg.inv((Zt @ A @ Z).toarray())
        precond = spla.LinearOperator(
            (n, n), matvec=lambda x: inv_diag * x + Z @ (coarse_inv @ (Zt @ x)))
        p, iters, _ = krylov_solve(A, b, precond, rtol=tol, maxiter=int(50 * np.sqrt(n)) + 10)

    residual = float(np.linalg.norm(A @ p - b) / bnorm)
    if residual > tol * 10:
        raise ConvergenceError(f"solver residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return p, iters, residual


@dataclass
class FlowField:
    """Steady pressures, signed face fluxes, boundary totals, and k_eff.

    transport_operators is where transport keeps the spatial operators it
    built on this field, keyed by diffusion coefficient, so every tracer run
    on the field shares one (see transport.SpatialOperator).
    """

    pressure: np.ndarray
    face_flux: np.ndarray    # interior: positive cell_a -> cell_b; boundary: positive outward
    q_in: float              # volumetric inflow through x = -L/2 [m^3/s]
    q_out: float
    k_eff: float
    iterations: int
    residual: float
    k_harmonic: float
    k_arithmetic: float
    transport_operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def face_fluxes(mesh, system: TpfaSystem, pressure: np.ndarray) -> np.ndarray:
    """T (p_a - p_outside) on every face: the neighbour's pressure on interior
    faces, the boundary pressure on Dirichlet faces, and 0 on no-flow faces."""
    faces = mesh.faces
    outside = np.where(faces.cell_b >= 0, pressure[faces.cell_b], system.face_pbc)
    return np.where(
        np.isnan(outside), 0.0, system.face_trans * (pressure[faces.cell_a] - outside)
    )


def wiener_bounds(props, volumes) -> tuple[float, float]:
    """Volume-weighted harmonic and arithmetic mean permeability."""
    k = np.asarray(props.permeability, dtype=float)
    v = np.asarray(volumes, dtype=float)
    vtot = v.sum()
    return float(vtot / np.sum(v / k)), float(np.sum(v * k) / vtot)


def effective_permeability(q: float, L: float, delta_p: float, mu: float) -> float:
    """Invert Darcy's law on the block: k_eff = mu * q * L / delta_p."""
    return mu * q * L / delta_p


def solve_steady_flow(
    mesh, props, bc: FlowBC, tol: float = 1e-10, method: str = "auto"
) -> FlowField:
    """Assemble, solve, and reduce to boundary fluxes and k_eff."""
    system = assemble_tpfa(mesh, props, bc)
    pressure, iters, residual = solve_pressure(system, tol, method)
    flux = face_fluxes(mesh, system, pressure)
    faces = mesh.faces

    q_in = -float(flux[faces.btag == mesh.BTAG_XMIN].sum())
    q_out = float(flux[faces.btag == mesh.BTAG_XMAX].sum())

    extent = mesh.domain.hi - mesh.domain.lo
    inlet_area = extent[1] * extent[2]
    k_eff = effective_permeability(q_in / inlet_area, extent[0], bc.delta_p, bc.mu)
    # layered fields sit exactly on the arithmetic bound; graded-interface
    # cross fluxes and solver tolerance excursion stay below 1e-6 relative
    k_h, k_a = wiener_bounds(props, mesh.volume)
    if not (k_h * (1 - 1e-6) <= k_eff <= k_a * (1 + 1e-6)):
        logger.warning(
            "k_eff %.4e outside Wiener bounds [%.4e, %.4e]", k_eff, k_h, k_a
        )
    logger.info(
        "flow solved: k_eff=%.4e m^2, Q=%.4e m^3/s, %d iterations, residual %.2e",
        k_eff, q_in, iters, residual,
    )
    return FlowField(pressure, flux, q_in, q_out, k_eff, iters, residual, k_h, k_a)
