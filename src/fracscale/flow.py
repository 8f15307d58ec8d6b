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
with split preconditioning, orthogonalising by classical Gram-Schmidt
applied twice, on the right-hand side scaled exactly by a power of two.
The preconditioner is SymmetricGaussSeidel: symmetric Gauss-Seidel split
into its backward and forward triangles, each solved by one in-place pass
of the CSR product kernel (no factorization), applied with the step matrix
by Eisenstat's trick, two sweeps and no matrix product per iteration, and
followed after each cycle by a few forward Gauss-Seidel steps.  pad_rows
pads the triangles' patterns with zeros on each short row's own column, so
that most rows hold one number of entries and the kernel's row loop keeps
one trip count; the sweeps give the same bits with or without them.
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
# forward Gauss-Seidel steps SymmetricGaussSeidel.smooth runs after each
# GMRES cycle.  On the orl-2 transport test fixture three keep every
# breakthrough entry above 1e-12 of its peak within 1.3e-10 of the LU path;
# two leave 9.6e-10 and none 6.0e-8, against a bound of 1e-9
GAUSS_SEIDEL_SMOOTHING = 3


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
    """Restarted GMRES(restart) on M1^-1 A M2^-1 y = M1^-1 b, x = M2^-1 y
    (split preconditioning).

    M gives the preconditioned products: M.product(v) = M1^-1 A M2^-1 v,
    M.left(r) = M1^-1 r and M.right(u) = M2^-1 u, with M.left None for
    M1 = I (preconditioning on the right only); M.smooth(b, x), unless None,
    maps each cycle's new x to the x the next cycle starts from.  Arnoldi
    orthogonalises by classical Gram-Schmidt applied twice, each pass one
    product with the basis (Giraud, Langou & Rozlozník 2005), and Givens
    rotations keep the Hessenberg least-squares residual, which a cycle
    stops on once it is <= rtol ||M1^-1 b||.  The verdict is the true
    residual: a cycle starts only while ||b - A x|| > rtol ||b||, checked
    before each of at most maxiter cycles and after the last.  b is scaled
    by the power of two at max|b|, exactly, so norms of tiny fields do not
    underflow.  x0 is the start, scaled with b, or a function giving the
    start from M1^-1 b of the scaled b (b itself for M1 = I), so that the
    start scales exactly with b too and M1^-1 b is applied once: with
    M.right as x0 the start is M^-1 b = M2^-1 M1^-1 b.
    Returns (x, Arnoldi steps, cycles, converged).
    """
    bmax = np.abs(b).max()
    if bmax == 0.0:
        return np.zeros(len(b)), 0, 0, True
    exponent = np.frexp(bmax)[1]
    b = np.ldexp(b, -exponent)
    left = M.left or (lambda r: r)
    left_b = left(b)
    if x0 is None:
        x = np.zeros(len(b))
    else:
        x = x0(left_b) if callable(x0) else np.ldexp(x0, -exponent)
    tol = rtol * np.linalg.norm(b)
    cycle_tol = rtol * np.linalg.norm(left_b)
    m = min(restart, len(b))
    basis = np.empty((m + 1, len(b)))
    hess = np.zeros((m, m))  # upper triangular after the rotations
    steps = 0
    for cycle in range(maxiter + 1):
        r = b - A @ x
        converged = np.linalg.norm(r) <= tol
        if converged or cycle == maxiter:
            break
        r = left(r)
        beta = np.linalg.norm(r)
        basis[0] = r / beta
        g = [beta] + [0.0] * m
        rotations = []
        for j in range(m):
            w = M.product(basis[j])
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
            if abs(g[j + 1]) <= cycle_tol:  # also when h_next = 0: the Krylov space holds y
                break
            basis[j + 1] = w / h_next
        k = j + 1
        y = la.solve_triangular(hess[:k, :k], g[:k], check_finite=False)
        x += M.right(y @ basis[:k])
        if M.smooth is not None:
            x = M.smooth(b, x)
    return np.ldexp(x, exponent), steps, cycle, bool(converged)


def pad_rows(indptr, indices):
    """Pad a CSR triangle's pattern so that every row holds at least
    k = min(median row length + 1, longest row) entries (the upper median of
    the lengths), for the sweeps of SymmetricGaussSeidel.

    Each padding entry lies on its row's own column and follows the row's
    entries, so the rows of a strict triangle stay sorted.  With most rows
    of one length the CSR product kernel's inner loop keeps one trip count
    from row to row, the layout ELLPACK (Kincaid, Oppe & Young 1989) and
    SELL-C-sigma (Kreutzer et al. 2014) give every row; padding every row to
    the longest costs more than it saves.  A pattern whose rows all have one
    length is returned as it is.  Returns the padded int32 (indptr, indices)
    and the slot of each entry of the pattern in them.
    """
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    k = min(np.partition(lengths, n // 2)[n // 2] + 1, lengths.max()) if n else 0
    padded = np.maximum(lengths, k)
    padded_indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(padded, out=padded_indptr[1:])
    padded_indices = np.repeat(np.arange(n, dtype=np.int32), padded)
    slots = np.arange(len(indices)) + np.repeat(padded_indptr[:-1] - indptr[:-1], lengths)
    padded_indices[slots] = indices
    return padded_indptr, padded_indices, slots


class SymmetricGaussSeidel:
    """Symmetric Gauss-Seidel for A = D + L + U as gmres takes it, split as
    M1 = D + U and M2 = I + D^-1 L, so that M1 M2 = (D + U) D^-1 (D + L):
    built from A's diagonal D and its two strict triangles, with nothing
    factorized.

    lower = (indptr, indices, strict) is L in CSR, each row scaled by -1/D.
    upper is U the same way with its rows and columns numbered backwards
    (i -> n-1-i), which makes it strictly lower too, each row scaled by -1
    over the diagonal entry of its own (reversed) row.  The arrays are
    float64 values and indices and indptr of one integer dtype.  A row may
    also hold zeros on its own column after its entries, as pad_rows lays
    them out: the kernel keeps row i's sum apart and stores it once, so such
    an entry reads x[i] before row i is stored and adds 0 x[i], which leaves
    every finite sum as it was (a -0.0 sum may turn +0.0).

    A sweep solves a triangle in one call of scipy's CSR product kernel
    (csr_matvec, which adds row i's products into y[i], row by row) with x
    as both its input and its output, x = b / D on entry.  Every x[j]
    (j < i) row i reads is then already final, so the one pass computes
    x[i] = (b[i] - sum_j T[i, j] x[j]) / D[i] in row order.  The backward
    sweep runs the same pass on a reversed copy of b.  The kernel is
    scipy's private API; the tests pin that it runs in place and in order.
    No method changes its arguments.

    product(v) is Eisenstat's (1981): with the scaled triangles L' = D^-1 L
    and U' = D^-1 U, A = D [(I + L') + (I + U') - I], so
    M1^-1 A M2^-1 v = t + (I + U')^-1 (v - t) with t = (I + L')^-1 v: two
    sweeps and no product with A.  The forward sweep comes last in right,
    and so in the start M^-1 b = right(left(b)), and smooth then runs
    GAUSS_SEIDEL_SMOOTHING forward Gauss-Seidel steps
    x <- (D + L)^-1 (b - U x): in an order where L holds
    the upwind couplings, the error of the x they return is carried
    downstream as the field is, so entries far below the largest stay
    accurate relative to themselves, which a stop on the residual norm
    alone does not give.
    """

    def __init__(self, lower, upper, diagonal):
        n = len(diagonal)
        # the kernel reads raw buffers: arrays that do not fit would be read
        # out of bounds, and another dtype would be converted, x into a copy
        for indptr, indices, strict in (lower, upper):
            if not (len(indptr) == n + 1 and len(indices) == len(strict) == indptr[-1]
                    and indices.dtype == indptr.dtype and strict.dtype == np.float64):
                raise ValueError("the sweep's arrays do not make one float64 CSR triangle")
        if diagonal.dtype != np.float64:
            raise ValueError("the diagonal is not float64")
        if not np.all(diagonal):
            raise la.LinAlgError("zero on the diagonal of a triangular solve")
        self.n = n
        self.lower = lower
        self.upper = upper
        self.inverse_reversed = (1.0 / diagonal)[::-1].copy()

    def _sweep(self, triangle, x):
        _sparsetools.csr_matvec(self.n, self.n, *triangle, x, x)
        return x

    def left(self, r):
        """M1^-1 r = (D + U)^-1 r, the backward sweep, as a reversed view."""
        return self._sweep(self.upper, r[::-1] * self.inverse_reversed)[::-1]

    def right(self, u):
        """M2^-1 u = (D + L)^-1 D u, the forward sweep of D u."""
        return self._sweep(self.lower, np.array(u))

    def product(self, v):
        """M1^-1 A M2^-1 v, by Eisenstat's trick."""
        t = self._sweep(self.lower, v.copy())
        s = np.subtract(v[::-1], t[::-1])
        self._sweep(self.upper, s)
        return s[::-1] + t

    def smooth(self, b, x):
        """x after GAUSS_SEIDEL_SMOOTHING forward Gauss-Seidel steps on A x = b."""
        scaled = b[::-1] * self.inverse_reversed
        for _ in range(GAUSS_SEIDEL_SMOOTHING):
            y = scaled.copy()
            _sparsetools.csr_matvec(self.n, self.n, *self.upper, x[::-1].copy(), y)
            x = self._sweep(self.lower, y[::-1].copy())  # (D + L)^-1 (b - U x)
        return x


def krylov_solve(A, b, M, *, rtol, maxiter, x0=None, restart=None):
    """Solve A x = b by preconditioned CG, or by gmres(restart) if restart is set.

    Stops once ||b - A x|| <= rtol ||b||.  If the iteration hits maxiter (CG
    iterations, or GMRES restart cycles) it logs a warning and solves by one
    direct sparse LU instead.  Returns (x, iterations, cycles, fell_back):
    cycles counts GMRES restart cycles and is 0 for CG, which does not restart.
    """
    cycles = 0
    if restart is None:
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        x, info = spla.cg(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=M, callback=count)
        converged = info == 0
    else:
        x, iterations, cycles, converged = gmres(
            A, b, M, rtol=rtol, maxiter=maxiter, x0=x0, restart=restart)
    if converged:
        return x, iterations, cycles, False
    name = "CG" if restart is None else "GMRES"
    logger.warning("%s hit its cap after %d iterations; solving directly", name, iterations)
    return spla.splu(A.tocsc()).solve(b), iterations, cycles, True


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
        p, iters, _, _ = krylov_solve(A, b, precond, rtol=tol, maxiter=int(50 * np.sqrt(n)) + 10)

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
