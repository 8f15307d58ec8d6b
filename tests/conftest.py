"""Shared construction helpers for the test suite."""

from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from fracscale import topology
from fracscale.geometry import Box, clip_vertices, disc_vertices, discs_intersect_many, vertex_area
from fracscale.network import FractureNetwork, GenerationParams, aperture_from_radius
from fracscale.octree import build_face_adjacency, build_initial_grid, refine, tag_fracture_cells
from fracscale.upscale import PropertyField


class Disc(NamedTuple):
    """One fracture disc: what the one-disc helpers below read, and one row
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


def polygon(d, m_vertices=32):
    """(m, 3) vertices of the m-gon inscribed in disc d: one row of disc_vertices."""
    return disc_vertices(d.center, d.normal, [d.radius], m_vertices)[0]


def clip_loop(loop, lo, hi):
    """One vertex loop clipped to the box [lo, hi]: one row of clip_vertices
    ((0, 3) when nothing is left)."""
    return clip_vertices(loop, [len(loop)], lo, hi)[0]


def loop_area(loop):
    """Area of one vertex loop: one row of vertex_area."""
    return float(vertex_area(loop, [len(loop)])[0])


def clipped_area(loop, lo, hi):
    return loop_area(clip_loop(loop, lo, hi))


def intersects(a, b, eps=1e-9):
    """Whether discs a and b intersect: one row of discs_intersect_many."""
    return bool(discs_intersect_many(a.center, a.normal, a.radius,
                                     b.center, b.normal, b.radius, eps)[0])


def cell_bounds(mesh, idx):
    """(lo, hi) of leaf idx as the mesh clips it: both corners from its lattice
    index, so a face shared by two leaves is the same float in each."""
    edge = mesh.l / 2.0 ** mesh.level[idx]
    ijk = mesh.ijk[idx]
    return mesh.domain.lo + edge * ijk, mesh.domain.lo + edge * (ijk + 1)


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
def labellings(monkeypatch):
    """List that grows by one on every connected-components labelling in topology."""
    calls = []
    label = topology.connected_components

    def counting(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    monkeypatch.setattr(topology, "connected_components", counting)
    return calls


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
