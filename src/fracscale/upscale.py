"""Equivalent-continuum cell properties from embedded fracture geometry.

Each fracture contributes its in-cell surface area times aperture as pore
volume, and a rank-deficient projector tensor scaled by porosity and
aperture squared (cubic-law style) to the cell permeability tensor.  The
tensor is collapsed to a scalar by its spectral radius, then blended with
the matrix permeability by fracture-volume weighting.  The in-cell areas
are the ones the octree clipped while tagging; nothing is clipped here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class UpscaleError(RuntimeError):
    pass


def transformation_tensor(normal) -> np.ndarray:
    """Projector onto the fracture plane, I - n n^T (eigenvalues 1, 1, 0).

    normal may be one unit vector or a stack (..., 3) of them.
    """
    n = np.asarray(normal, dtype=float)
    if np.any(np.abs(np.linalg.norm(n, axis=-1) - 1.0) > 1e-9):
        raise ValueError("normal must be a unit vector")
    return np.eye(3) - n[..., :, None] * n[..., None, :]


def spectral_radius(K):
    """Largest absolute eigenvalue of a symmetric 3x3 tensor, or of each in a stack."""
    K = np.asarray(K, dtype=float)
    if not np.allclose(K, np.swapaxes(K, -1, -2), rtol=1e-12, atol=0.0):
        raise ValueError("permeability tensor must be symmetric")
    return np.abs(np.linalg.eigvalsh(K)).max(axis=-1)


@dataclass
class PropertyField:
    """Upscaled per-cell arrays aligned with the mesh's (level, i, j, k) cell order."""

    permeability: np.ndarray
    porosity: np.ndarray
    fracture_porosity: np.ndarray
    is_fracture: np.ndarray
    k_m: float
    phi_m: float

    def summary(self) -> dict:
        return {
            "n_cells": int(len(self.permeability)),
            "n_fracture_cells": int(self.is_fracture.sum()),
            "k_min": float(self.permeability.min()),
            "k_max": float(self.permeability.max()),
            "k_mean": float(self.permeability.mean()),
            "phi_min": float(self.porosity.min()),
            "phi_max": float(self.porosity.max()),
            "phi_mean": float(self.porosity.mean()),
        }


def upscale_mesh(
    mesh,
    network,
    k_m: float,
    phi_m: float,
    *,
    m_vertices: int = 32,
    strict_fracture_porosity: bool = False,
) -> PropertyField:
    """Upscale every leaf of a tagged, refined mesh from its stored fracture areas.

    A fracture f with area a_f in cell c adds v_f = a_f b_f to the cell's
    fracture volume and phi_f (I - n_f n_f^T) b_f^2 / 12, phi_f = v_f / v_c,
    to its tensor K_F.  A fracture cell gets k = (1 - phi_F) k_m + k_F with
    k_F the spectral radius of K_F.  Its porosity defaults to
    phi_F + (1 - phi_F) phi_m, so transport through a barely-fractured cell
    keeps matrix storage; strict_fracture_porosity assigns phi_F alone.
    Every other cell keeps k_m and phi_m.  m_vertices must be the disc
    polygonization the mesh was tagged with.
    """
    if k_m <= 0 or not 0 < phi_m < 1:
        raise ValueError("need k_m > 0 and 0 < phi_m < 1")
    if mesh.m_vertices is not None and mesh.m_vertices != m_vertices:
        raise ValueError(
            f"mesh areas come from {mesh.m_vertices}-gon discs, not m_vertices={m_vertices}"
        )
    n = mesh.num_cells
    cell, fid, area = mesh.pair_cell, mesh.pair_fid, mesh.pair_area
    aperture = network.aperture[fid]
    # squared one fracture at a time, as Python floats: a**2 goes through
    # libm pow, which can round differently from numpy's a*a
    b2 = np.array([a**2 for a in network.aperture.tolist()], dtype=float)[fid]
    normal = network.normal[fid]

    v_f = area * aperture
    phi_f = v_f / mesh.volume[cell]
    v_F = np.zeros(n)
    np.add.at(v_F, cell, v_f)
    phi_F = v_F / mesh.volume
    if np.any(phi_F >= 1.0):
        raise UpscaleError(f"fracture porosity {phi_F.max():.3g} >= 1; geometry inconsistent")
    K = np.zeros((n, 3, 3))
    np.add.at(K, cell, phi_f[:, None, None] * transformation_tensor(normal) * b2[:, None, None])

    tag = mesh.is_fracture.copy()
    k = np.full(n, float(k_m))
    phi = np.full(n, float(phi_m))
    k[tag] = (1.0 - phi_F[tag]) * k_m + spectral_radius(K[tag] / 12.0)
    phi[tag] = phi_F[tag] if strict_fracture_porosity else phi_F[tag] + (1.0 - phi_F[tag]) * phi_m
    field = PropertyField(k, phi, phi_F, tag, float(k_m), float(phi_m))
    logger.info("upscaled %d cells: %s", n, field.summary())
    return field
