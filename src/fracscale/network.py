"""Stochastic fracture network generation and density metrics.

Networks are collections of planar circular discs inside a cubic domain.
Radii follow a truncated power law sampled by closed-form inverse CDF,
orientations a von Mises-Fisher distribution on the sphere, and hydraulic
apertures correlate with radius through a square-root law.  Density is
quantified both by a percolation parameter and by fracture intensity
(surface area per unit volume).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

# clip_vertices is looked up on geometry at each call, where a traced run
# (bench/layers.py) wraps and counts it
from . import geometry
from .geometry import Box, disc_vertices, vertex_area

logger = logging.getLogger(__name__)

APERTURE_COEFF = 5.0e-4  # aperture = 5e-4 * sqrt(radius), both in meters

# Default jsonl schema keys for fracture records.
_FRACTURE_KEYS = ("id", "cx", "cy", "cz", "nx", "ny", "nz", "radius", "aperture")


class GenerationError(RuntimeError):
    """Raised when the rejection loop cannot place the requested fractures."""


def make_rng(seed: int) -> np.random.Generator:
    """Seedable counter-based stream (Philox).

    Every stochastic operation in this module takes one of these explicitly.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class GenerationParams:
    """Sampling parameters for one fracture family in a cubic domain.

    alpha    power-law decay exponent of the radius distribution
    r0, ru   lower / upper radius cutoffs [m]
    kappa    von Mises-Fisher concentration (0 = uniform orientations)
    mean_dir unit mean normal direction of the family
    L        cubic domain edge [m]
    buffer   generation-domain expansion per side [m]
    """

    alpha: float = 1.8
    r0: float = 1.0
    ru: float = 10.0
    kappa: float = 0.1
    mean_dir: tuple[float, float, float] = (0.0, 0.0, 1.0)
    L: float = 50.0
    buffer: float = 5.0
    n_fractures: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not 0 < self.r0 < self.ru:
            raise ValueError("need 0 < r0 < ru")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.L <= 0 or self.buffer < 0:
            raise ValueError("need L > 0 and buffer >= 0")
        if self.n_fractures < 0:
            raise ValueError("n_fractures must be >= 0")
        m = np.asarray(self.mean_dir, dtype=float)
        if abs(np.linalg.norm(m) - 1.0) > 1e-12:
            raise ValueError("mean_dir must be a unit vector")
        object.__setattr__(self, "mean_dir", tuple(float(x) for x in m))

    @property
    def domain(self) -> Box:
        return Box.cube(self.L)

    @property
    def generation_domain(self) -> Box:
        return Box.cube(self.L + 2.0 * self.buffer)


@dataclass(eq=False)
class FractureNetwork:
    """The discs of one network as columns, plus the cubic flow domain they
    were generated for.

    Row i of center (N, 3), normal (N, 3), radius (N,) and aperture (N,) is
    fracture i: a planar circular disc with a unit normal and a hydraulic
    aperture.  The columns are checked once, copied and made read-only, so
    the disc polygons are computed once per vertex count and kept.  A network
    made by subset() remembers the network it was cut from (see origin()) and
    takes its polygons from there, so geometry measured on the polygons of
    the one holds for the other.  clipped_areas is where octree keeps the
    areas it clipped from this network's polygons; only a root network's is
    filled.  == is identity.
    """

    center: np.ndarray
    normal: np.ndarray
    radius: np.ndarray
    aperture: np.ndarray
    domain: Box
    params: GenerationParams
    clipped_areas: dict = field(default_factory=dict, init=False, repr=False)
    _vertices: dict = field(default_factory=dict, init=False, repr=False)
    _origin: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = len(self.radius)
        for name, shape in (("center", (n, 3)), ("normal", (n, 3)),
                            ("radius", (n,)), ("aperture", (n,))):
            column = np.array(getattr(self, name), dtype=float)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, need {shape} for {n} fractures")
            column.flags.writeable = False
            setattr(self, name, column)
        unit = np.abs(np.linalg.norm(self.normal, axis=1) - 1.0) <= 1e-12
        positive = (self.radius > 0) & (self.aperture > 0)
        bad = np.flatnonzero(~(unit & positive))
        if len(bad):
            i = bad[0]
            if not unit[i]:
                raise ValueError(f"fracture {i}: normal must be unit length")
            raise ValueError(f"fracture {i}: radius and aperture must be positive")

    def __len__(self) -> int:
        return len(self.radius)

    def polygon_vertices(self, m_vertices: int = 32) -> np.ndarray:
        """(N, m, 3) vertices of every disc's inscribed m-gon, computed once per m
        on the root network and taken from there by its subsets."""
        if m_vertices not in self._vertices:
            root, ids = self.origin()
            if root is not self:
                verts = root.polygon_vertices(m_vertices)[ids]
            else:
                verts = disc_vertices(self.center, self.normal, self.radius, m_vertices)
            verts.flags.writeable = False
            self._vertices[m_vertices] = verts
        return self._vertices[m_vertices]

    def clipped_to_domain(self, m_vertices: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Every disc polygon clipped to the domain in one call: clip_vertices' (flat, count)."""
        verts = self.polygon_vertices(m_vertices)
        return geometry.clip_vertices(verts, np.full(len(verts), m_vertices),
                                      self.domain.lo, self.domain.hi)

    def subset(self, keep_ids) -> "FractureNetwork":
        """New network containing the given fractures, re-indexed contiguously."""
        keep = np.array(sorted(keep_ids), dtype=int)
        out = FractureNetwork(self.center[keep], self.normal[keep], self.radius[keep],
                              self.aperture[keep], self.domain, self.params)
        root, ids = self.origin()
        out._origin = (root, ids[keep])
        return out

    def origin(self) -> tuple["FractureNetwork", np.ndarray]:
        """(root, ids): the network the first subset() was taken of (this one if
        none was) and the ids there of this network's fractures, ascending."""
        return self._origin or (self, np.arange(len(self)))


# ---------------------------------------------------------------------------
# sampling

def radius_pdf(r, params: GenerationParams):
    """Truncated power-law density on [r0, ru]."""
    a, r0, ru = params.alpha, params.r0, params.ru
    norm = 1.0 - (ru / r0) ** (-a)
    return (a / r0) * (np.asarray(r) / r0) ** (-1.0 - a) / norm


def radius_cdf(r, params: GenerationParams):
    a, r0, ru = params.alpha, params.r0, params.ru
    norm = 1.0 - (ru / r0) ** (-a)
    return (1.0 - (np.asarray(r) / r0) ** (-a)) / norm


def sample_radius(u, params: GenerationParams):
    """Closed-form inverse CDF of the truncated power law; u in [0, 1)."""
    a, r0, ru = params.alpha, params.r0, params.ru
    tail = (ru / r0) ** (-a)
    return r0 * (1.0 - np.asarray(u) * (1.0 - tail)) ** (-1.0 / a)


def aperture_from_radius(r):
    """Hydraulic aperture positively correlated with radius: 5e-4 * sqrt(r)."""
    return APERTURE_COEFF * np.sqrt(np.asarray(r))


def sample_orientation(rng: np.random.Generator, kappa: float, mean_dir) -> np.ndarray:
    """One unit normal from the von Mises-Fisher distribution on the sphere.

    The cosine of the polar angle about mean_dir has the closed-form inverse
    transform w = 1 + ln(u + (1-u) e^{-2 kappa}) / kappa; kappa = 0 is the
    exact uniform-sphere limit w = 2u - 1, not a division by zero.
    """
    return _draw_orientation(rng, kappa, _orientation_frame(mean_dir))


def _orientation_frame(mean_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, e1, e2): the mean direction and an orthonormal frame of its normal plane."""
    mu = np.asarray(mean_dir, dtype=float)
    ref = np.array([1.0, 0.0, 0.0]) if abs(mu[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(mu, ref)
    e1 /= np.linalg.norm(e1)
    return mu, e1, np.cross(mu, e1)


def _draw_orientation(rng: np.random.Generator, kappa: float, frame) -> np.ndarray:
    """sample_orientation with the frame of mean_dir already computed."""
    mu, e1, e2 = frame
    u = rng.random()
    if kappa < 1e-12:
        w = 2.0 * u - 1.0
    else:
        w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
        w = min(1.0, max(-1.0, w))
    phi = 2.0 * np.pi * rng.random()
    s = np.sqrt(max(0.0, 1.0 - w * w))
    v = s * (np.cos(phi) * e1 + np.sin(phi) * e2) + w * mu
    return v / np.linalg.norm(v)


def generate_network(
    params: GenerationParams,
    *,
    count_in_expanded_domain: bool = False,
    m_vertices: int = 32,
    max_attempts_factor: int = 1000,
) -> FractureNetwork:
    """Sample a network of params.n_fractures discs.

    Centers are uniform in the buffered generation box.  By default a disc
    that misses the inner L^3 domain is rejected and resampled, so the count
    stays interpretable as in-domain fractures; with
    count_in_expanded_domain=True the literal expanded-domain count is kept
    instead (discs that never touch the inner domain are still dropped, as
    they cannot contribute to any in-domain quantity).
    """
    rng = make_rng(params.seed)
    domain = params.domain
    gen = params.generation_domain
    span = gen.hi - gen.lo
    frame = _orientation_frame(params.mean_dir)

    # (centers, normals, radii) of each batch's discs that touch the domain
    kept = [(np.empty((0, 3)), np.empty((0, 3)), np.empty(0))]
    attempts = 0
    placed = 0
    cap = max(1, max_attempts_factor) * max(1, params.n_fractures)
    while placed < params.n_fractures:
        if attempts >= cap:
            raise GenerationError(
                f"placed {placed}/{params.n_fractures} fractures after {attempts} attempts"
            )
        # every fracture still missing takes at least one more attempt, so
        # that many candidates are drawn, in order, and tested in one batch
        batch = min(params.n_fractures - placed, cap - attempts)
        attempts += batch
        draws = []
        for _ in range(batch):
            center = gen.lo + rng.random(3) * span
            radius = float(sample_radius(rng.random(), params))
            draws.append((center, _draw_orientation(rng, params.kappa, frame), radius))
        centers, normals, radii = map(np.array, zip(*draws))
        _, count = geometry.clip_vertices(disc_vertices(centers, normals, radii, m_vertices),
                                          np.full(batch, m_vertices), domain.lo, domain.hi)
        touches = count > 0
        kept.append((centers[touches], normals[touches], radii[touches]))
        placed += batch if count_in_expanded_domain else int(touches.sum())

    center, normal, radius = map(np.concatenate, zip(*kept))
    logger.info(
        "generated %d fractures (%d attempts, seed %d)", len(radius), attempts, params.seed
    )
    return FractureNetwork(center, normal, radius, aperture_from_radius(radius), domain, params)


# ---------------------------------------------------------------------------
# density metrics

def expected_min_radius(params: GenerationParams, L: float) -> float:
    """E[min(r, alpha*L)] under the truncated power law.

    Closed form when alpha*L >= ru (the min is always r); adaptive
    quadrature otherwise.
    """
    a, r0, ru = params.alpha, params.r0, params.ru
    cut = a * L
    if cut >= ru:
        norm = 1.0 - (ru / r0) ** (-a)
        if abs(a - 1.0) < 1e-12:
            integral = a * r0 * np.log(ru / r0)
        else:
            integral = (a / (a - 1.0)) * r0 * (1.0 - (ru / r0) ** (1.0 - a))
        return float(integral / norm)
    # imported here, not at module level: scipy.integrate pulls in
    # scipy.optimize, and only this branch needs it (the desk family, with
    # alpha L >= ru, never takes it)
    from scipy.integrate import quad

    val, _ = quad(
        lambda r: min(r, cut) * radius_pdf(r, params), r0, ru,
        points=[cut] if r0 < cut < ru else None, epsabs=1e-12, epsrel=1e-12,
    )
    return float(val)


def percolation_parameter(n: int, params: GenerationParams, L: float | None = None) -> float:
    """Dimensioned network density: (n / L^2) * E[min(r, alpha*L)]."""
    if n < 0:
        raise ValueError("fracture count must be >= 0")
    L = params.L if L is None else L
    return n / L**2 * expected_min_radius(params, L)


def critical_fracture_count(
    params: GenerationParams, L: float | None = None, *, override: int | None = None
) -> int:
    """Smallest N with percolation_parameter(N) >= 1, or a pinned value.

    The pin exists because published density/N pairings round the critical
    count; passing override returns it unchanged.
    """
    if override is not None:
        return int(override)
    L = params.L if L is None else L
    per = expected_min_radius(params, L) / L**2
    return int(np.ceil(1.0 / per - 1e-12))


def fracture_intensity(network: FractureNetwork, *, m_vertices: int = 32) -> float:
    """P32: total in-domain fracture surface area per unit volume [1/m].

    Single-sided: each disc counts its clipped area once.
    """
    domain = network.domain
    if domain.volume <= 0:
        raise ValueError("domain volume must be positive")
    # summed in fracture order, one area at a time
    total = np.cumsum(vertex_area(*network.clipped_to_domain(m_vertices)))
    return float(total[-1] if len(total) else 0.0) / domain.volume


# ---------------------------------------------------------------------------
# serialization (jsonl: one header record, then one record per fracture)

def save_network(network: FractureNetwork, path) -> None:
    p = network.params
    header = {
        "record": "header",
        "n_fractures_stored": len(network),
        "params": {
            "alpha": p.alpha, "r0": p.r0, "ru": p.ru, "kappa": p.kappa,
            "mean_dir": list(p.mean_dir), "L": p.L, "buffer": p.buffer,
            "n_fractures": p.n_fractures, "seed": p.seed,
        },
    }
    rows = zip(network.center.tolist(), network.normal.tolist(),
               network.radius.tolist(), network.aperture.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i, (center, normal, radius, aperture) in enumerate(rows):
            rec = dict(zip(_FRACTURE_KEYS, (i, *center, *normal, radius, aperture)))
            fh.write(json.dumps(rec) + "\n")


def load_network(path) -> FractureNetwork:
    """The network save_network wrote; the fracture ids must be 0, 1, 2, ... in order."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("record") != "header":
            raise ValueError(f"{path}: missing network header record")
        params = GenerationParams(**{
            **header["params"], "mean_dir": tuple(header["params"]["mean_dir"]),
        })
        records = [json.loads(line) for line in fh]
    if len(records) != header["n_fractures_stored"]:
        raise ValueError(f"{path}: header promises {header['n_fractures_stored']} records")
    table = np.array([[rec[key] for key in _FRACTURE_KEYS] for rec in records],
                     dtype=float).reshape(-1, len(_FRACTURE_KEYS))
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ValueError(f"{path}: fracture ids are not 0, 1, 2, ... in order")
    return FractureNetwork(table[:, 1:4], table[:, 4:7], table[:, 7], table[:, 8],
                           params.domain, params)
