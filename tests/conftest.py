"""Shared construction helpers for the test suite."""

from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from fracscale.geometry import Box
from fracscale.network import FractureNetwork, GenerationParams, aperture_from_radius
from fracscale.octree import build_face_adjacency, build_initial_grid, refine, tag_fracture_cells
from fracscale.upscale import PropertyField


class Disc(NamedTuple):
    """One fracture disc: what the one-disc geometry calls read, and one row
    of a FractureNetwork."""

    center: np.ndarray
    normal: np.ndarray
    radius: float
    aperture: float


def make_disc(center, normal, radius, aperture=None):
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    if aperture is None:
        aperture = float(aperture_from_radius(radius))
    return Disc(np.asarray(center, dtype=float), normal, radius, aperture)


def make_network(discs, L, domain=None):
    """Network of the given discs, fracture i being discs[i], in the cube of edge L
    (or in domain)."""
    discs = list(discs)
    params = GenerationParams(L=L, n_fractures=len(discs), seed=0)
    center, normal, radius, aperture = (
        [getattr(d, name) for d in discs] for name in ("center", "normal", "radius", "aperture"))
    return FractureNetwork(np.reshape(center, (-1, 3)), np.reshape(normal, (-1, 3)), radius,
                           aperture, domain or Box.cube(L), params)


def disc(network, i):
    """Fracture i of a network as a Disc."""
    return Disc(network.center[i], network.normal[i], float(network.radius[i]),
                float(network.aperture[i]))


def box_mesh(extents, l, network=None, orl=0, balance=True):
    """Uniform or fracture-refined mesh over a box anchored at the origin."""
    extents = np.asarray(extents, dtype=float)
    domain = Box(np.zeros(3), extents)
    mesh = build_initial_grid(domain, l)
    if network is None:
        network = make_network([], extents.max(), domain)
    else:
        tag_fracture_cells(mesh, network)
    refine(mesh, network, orl, balance)
    build_face_adjacency(mesh)
    return mesh


def cube_mesh(L, l, network=None, orl=0, balance=True):
    """Centered cubic mesh, optionally tagged and refined around a network."""
    domain = Box.cube(L)
    mesh = build_initial_grid(domain, l)
    if network is None:
        network = make_network([], L)
    else:
        tag_fracture_cells(mesh, network)
    refine(mesh, network, orl, balance)
    build_face_adjacency(mesh)
    return mesh


def uniform_props(mesh, k, phi):
    n = mesh.num_cells
    return PropertyField(
        permeability=np.full(n, float(k)),
        porosity=np.full(n, float(phi)),
        fracture_porosity=np.zeros(n),
        is_fracture=np.zeros(n, dtype=bool),
        k_m=float(k),
        phi_m=float(phi),
    )


def gauss_seidel_parts(matrix):
    """(lower, upper, diagonal) of a square matrix with a full diagonal, as
    flow.SymmetricGaussSeidel takes them: each strict triangle as int32 CSR
    (indptr, indices, values) with sorted rows and each row scaled by
    -1/diagonal, the upper one with its rows and columns numbered backwards."""
    matrix = sp.csr_matrix(matrix)
    diagonal = matrix.diagonal()
    backwards = np.arange(len(diagonal))[::-1]

    def triangle(strict, diagonal):
        strict = sp.csr_matrix(strict)
        strict.sort_indices()
        rows = np.repeat(np.arange(len(diagonal)), np.diff(strict.indptr))
        return (strict.indptr.astype(np.int32), strict.indices.astype(np.int32),
                strict.data * (-1.0 / diagonal)[rows])

    lower = triangle(sp.tril(matrix, -1), diagonal)
    upper = triangle(sp.tril(matrix[backwards][:, backwards], -1), diagonal[backwards])
    return lower, upper, diagonal


@pytest.fixture
def reference_params():
    return GenerationParams(
        alpha=1.8, r0=1.0, ru=10.0, kappa=0.1, mean_dir=(0.0, 0.0, 1.0),
        L=50.0, buffer=5.0, n_fractures=0, seed=0,
    )


def two_plate_network(L=25.0):
    """Two parallel plates that overlap in plan view but never intersect.

    Plate 0 reaches the inflow plane, plate 1 the outflow plane; their
    carrier planes sit 1.3 m apart so coarse cells (and the adjacent-layer
    contact at mid resolutions) bridge them while 0.625 m cells leave a full
    matrix layer in between.
    """
    plates = [
        make_disc((-5.0, 0.0, 0.3), (0, 0, 1), 10.0),
        make_disc((5.0, 0.0, 1.6), (0, 0, 1), 10.0),
    ]
    return make_network(plates, L)
