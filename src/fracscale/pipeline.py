"""Experiment-grid orchestration: generate, mesh, upscale, flow, transport, report.

One pipeline invocation sweeps the cartesian grid of seeds x densities x
refinement levels x matrix permeabilities x isolated-fracture handling,
writing every artifact under one output directory together with a manifest
(config hash, per-artifact checksums, summary rows, and per-run failures).
Identical config and seeds reproduce byte-identical artifacts.

The grid runs as units, one per (seed, density): a unit generates its
network, builds the intersection graph and the removed subset, and carries
both isolated modes through every orl, k_m and tracer, so the clipped areas
its meshes share stay in one process.  Units share nothing else and run in
forked worker processes, ``min(units, usable CPUs)`` of them, the densest
units submitted first; every worker runs its BLAS on one thread.  Their
rows are merged in grid order, so the manifest does not depend on which
worker finished first.  Each worker holds one unit at a time (at orl 3
with transport a worker peaked at about 240 MB), so memory grows with the
worker count.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import logging
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .flow import FLOW_METHODS, FlowBC, solve_steady_flow
from .network import (
    GenerationParams,
    critical_fracture_count,
    fracture_intensity,
    generate_network,
    save_network,
)
from .octree import MeshParams, build_mesh, equivalent_hex_count, write_vtk
from .topology import (
    build_intersection_graph,
    count_false_connections,
    dfn_percolates,
    mesh_percolates,
    remove_isolated,
)
from .transport import (
    SOLVER_COUNTS,
    TRACER_KINDS,
    TracerParams,
    decay_constant,
    normalize_btc,
    run_transport,
    write_btc_csv,
)
from .upscale import upscale_mesh

logger = logging.getLogger(__name__)

STAGES = ("generate", "mesh", "upscale", "flow", "transport", "report")

ISOLATED_MODES = ("retained", "removed")

# config fields that span the grid; a repeated value would write one
# artifact twice
GRID_AXES = ("seeds", "p_primes", "isolated_modes", "orls", "k_m", "tracers")


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of a full experiment grid.

    Defaults are desk scale: a 25 m domain with the fracture count pinned to
    250 at the percolation threshold, i.e. the 50 m reference critical count
    scaled by (25/50)^2 following the linearity of the density parameter.
    """

    # fracture family and domain
    alpha: float = 1.8
    r0: float = 1.0
    ru: float = 10.0
    kappa: float = 0.1
    mean_dir: tuple = (0.0, 0.0, 1.0)
    L: float = 25.0
    buffer: float = 5.0
    count_in_expanded_domain: bool = False
    m_vertices: int = 32
    # experiment grid
    p_primes: tuple = (1.0,)
    p_c: int | None = 250
    seeds: tuple = (1,)
    isolated_modes: tuple = ("retained",)
    # meshing
    l: float = 5.0
    orls: tuple = (1, 2, 3)
    balance_2to1: bool = True
    # upscaling
    k_m: tuple = (1e-16,)
    phi_m: float = 0.01
    strict_fracture_porosity: bool = False
    # flow
    delta_p: float = 1000.0
    mu: float = 8.9e-4
    flow_tol: float = 1e-10
    flow_method: str = "auto"
    # transport
    transport_enabled: bool = False
    tracers: tuple = ("conservative",)
    diffusion: float = 1e-9
    half_life_yr: float = 100.0
    retardation: float = 4000.0
    injected_mass: float = 1.0
    t_end_yr: float = 1e8
    n_outputs: int = 192
    dt0_yr: float = 1e-8
    dt_growth: float = 1.2
    # output
    output_dir: str = "fracscale-out"
    write_vtk_files: bool = False

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        for name in GRID_AXES:
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        if not self.orls:
            raise ValueError("need at least one orl")
        if not self.p_primes:
            raise ValueError("need at least one density value")
        for mode in self.isolated_modes:
            if mode not in ISOLATED_MODES:
                raise ValueError(f"unknown isolated mode {mode!r}")
        for kind in self.tracers:
            if kind not in TRACER_KINDS:
                raise ValueError(f"unknown tracer kind {kind!r}")
        if self.flow_method not in FLOW_METHODS:
            raise ValueError(f"unknown flow method {self.flow_method!r}")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        kwargs = dict(data)
        for f in dataclasses.fields(cls):
            if f.name in kwargs and isinstance(kwargs[f.name], list):
                kwargs[f.name] = tuple(kwargs[f.name])
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)

    def generation_params(self, seed: int, n_fractures: int) -> GenerationParams:
        return GenerationParams(
            alpha=self.alpha, r0=self.r0, ru=self.ru, kappa=self.kappa,
            mean_dir=tuple(self.mean_dir), L=self.L, buffer=self.buffer,
            n_fractures=n_fractures, seed=seed,
        )

    def fracture_counts(self) -> dict:
        """Map density value -> fracture count via the (possibly pinned) critical count."""
        probe = self.generation_params(seed=0, n_fractures=0)
        n_c = critical_fracture_count(probe, self.L, override=self.p_c)
        return {p: int(round(p * n_c)) for p in self.p_primes}


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def save_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: RunConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# what a unit records and the manifest merges, in grid order
_RECORDS = (
    "artifacts", "network_rows", "topology_rows", "upscale_rows", "flow_rows",
    "transport_rows", "failures",
)


class _Records:
    """Artifacts (hashed where they are written), summary rows and failures."""

    def __init__(self, root: Path):
        self.root = root
        self.data = {name: [] for name in _RECORDS}

    def add_artifact(self, path: Path, kind: str) -> None:
        self.data["artifacts"].append({
            "path": str(path.relative_to(self.root)),
            "kind": kind,
            "sha256": _sha256(path),
        })

    def add_failure(self, key: dict, stage: str, error: Exception) -> None:
        logger.error("stage %s failed for %s: %s", stage, key, error)
        self.data["failures"].append({"key": key, "stage": stage, "error": str(error)})


class _Manifest(_Records):
    def __init__(self, config: RunConfig, root: Path):
        super().__init__(root)
        self.data.update(config_hash=config_hash(config), config=config.to_dict())

    def merge(self, records: dict) -> None:
        for name in _RECORDS:
            self.data[name].extend(records[name])

    def write(self) -> Path:
        for name in ("artifacts", "failures"):
            self.data[name].sort(key=lambda rec: json.dumps(rec, sort_keys=True))
        path = self.root / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _percolation_class(dfn: bool, mesh: bool) -> str:
    if dfn == mesh:
        return "match-percolating" if dfn else "match-nonpercolating"
    return "mismatch"


# ---------------------------------------------------------------------------
# worker processes

# (set, get) thread-count symbols of the OpenBLAS builds numpy and scipy
# ship (scipy-openblas with 64- and 32-bit integers), then of a plain OpenBLAS
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_calls() -> list[tuple]:
    """(set_num_threads, get_num_threads) of every OpenBLAS this process has mapped."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = dict.fromkeys(
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])
    )
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, setter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                calls.append((set_threads, get_threads))
                break
    return calls


def _blas_threads() -> list[int]:
    return [get_threads() for _, get_threads in _openblas_thread_calls()]


@contextmanager
def _worker_pool(workers: int):
    """A pool of forked worker processes, each running BLAS on one thread;
    shut down on leaving, once the running units have finished.

    Workers with a BLAS thread per core each would oversubscribe the cores.
    OpenBLAS stops its threads around a fork, and setting the count in a
    worker afterwards starts them again, so every loaded OpenBLAS is set to
    one thread here, before the workers fork, and the parent's counts are
    restored once the pool is shut down.
    """
    # imported here, not at module level: the pool machinery adds ~20 ms to
    # every import of fracscale, also where no pipeline runs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    calls = _openblas_thread_calls()
    counts = [get_threads() for _, get_threads in calls]
    for set_threads, _ in calls:
        set_threads(1)
    try:
        # forked workers start with numpy, scipy and fracscale imported,
        # where spawned ones would import them again
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            yield pool
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        for (set_threads, _), count in zip(calls, counts):
            set_threads(count)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _timed(stats: dict, name: str):
    """Store the block's wall seconds as stats[name], also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stats[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the grid

def run_pipeline(config: RunConfig, upto: str = "transport") -> dict:
    """Run every grid point through the requested final stage.

    The (seed, density) units run in worker processes (see the module
    docstring).  Failures are recorded per grid point and the rest of the
    grid continues.  Any other error (an output that cannot be written, a
    worker that died) cancels the units not yet started and is raised once
    the running ones have finished; no worker outlives the call.

    Returns the manifest dict (also written to <output_dir>/manifest.json).
    Stage wall times and worker peak RSS go to <output_dir>/run_stats.json,
    which is not an artifact.
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    depth = STAGES.index(upto)
    started = time.perf_counter()
    root = Path(config.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(config, root)
    save_config(config, root / "config.json")
    manifest.add_artifact(root / "config.json", "config")
    (root / "networks").mkdir(exist_ok=True)

    counts = config.fracture_counts()
    units = [(seed, p_prime) for seed in config.seeds for p_prime in config.p_primes]
    # densest first, grid order on ties: the longest units must not start last
    order = sorted(range(len(units)), key=lambda i: -counts[units[i][1]])
    workers = min(len(units), len(os.sched_getaffinity(0)))
    with _worker_pool(workers) as pool:
        futures = {
            i: pool.submit(_run_unit, config, depth, *units[i], counts[units[i][1]])
            for i in order
        }
        results = [futures[i].result() for i in range(len(units))]

    for records, _, _ in results:
        manifest.merge(records)
    if depth >= STAGES.index("report"):
        for table in report_tables(manifest.data, root):
            manifest.add_artifact(table, "table")
    manifest.write()
    wall = time.perf_counter() - started
    with open(root / "run_stats.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workers": workers, "wall_s": wall, "max_rss_mb": _max_rss_mb(),
            "units": [unit for _, unit, _ in results],
            "points": [point for _, _, points in results for point in points],
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("pipeline finished in %.1f s on %d worker(s)", wall, workers)
    return manifest.data


def _run_unit(config, depth, seed, p_prime, n_fractures):
    """One (seed, density) unit, in a worker: (records, unit stats, point stats)."""
    started = time.perf_counter()
    root = Path(config.output_dir)
    records = _Records(root)
    key = {"seed": seed, "p_prime": p_prime}
    unit, points = dict(key), []
    try:
        nets, graphs = _generate_stage(config, records, root, key, n_fractures, unit)
    except Exception as err:  # noqa: BLE001 - grid must continue
        records.add_failure(key, "generate", err)
    else:
        if depth >= STAGES.index("mesh"):
            for mode in config.isolated_modes:
                points += _run_mode(
                    config, records, root, depth,
                    dict(key, isolated_mode=mode), nets[mode], graphs[mode],
                )
    unit.update(
        wall_s=time.perf_counter() - started, pid=os.getpid(),
        max_rss_mb=_max_rss_mb(), blas_threads=_blas_threads(),
    )
    return records.data, unit, points


def _generate_stage(config, records, root, key, n_fractures, unit):
    seed, p_prime = key["seed"], key["p_prime"]
    params = config.generation_params(seed, n_fractures)
    with _timed(unit, "generate_s"):
        network = generate_network(
            params,
            count_in_expanded_domain=config.count_in_expanded_domain,
            m_vertices=config.m_vertices,
        )
    with _timed(unit, "graph_s"):
        graph = build_intersection_graph(network, m_vertices=config.m_vertices)
        removed = remove_isolated(network, graph)
        # the ids in network of the fractures remove_isolated kept
        graph_removed = graph.subset(removed.origin()[1])

    nets = {"retained": network, "removed": removed}
    graphs = {"retained": graph, "removed": graph_removed}

    for mode in config.isolated_modes:
        path = root / "networks" / f"seed{seed}_p{p_prime:g}_{mode}.jsonl"
        save_network(nets[mode], path)
        records.add_artifact(path, "network")

    p32 = fracture_intensity(network, m_vertices=config.m_vertices)
    p32_hat = fracture_intensity(removed, m_vertices=config.m_vertices)
    records.data["network_rows"].append({
        "seed": seed, "p_prime": p_prime, "N": len(network),
        "N_hat": len(removed),
        "N_hat_over_N_pct": 100.0 * len(removed) / len(network) if len(network) else 0.0,
        "P32": p32, "P32_hat": p32_hat,
        "dfn_percolates": dfn_percolates(graph),
    })
    return nets, graphs


def _run_mode(config, records, root, depth, key, network, graph) -> list[dict]:
    """Every orl, k_m and tracer of one isolated mode; returns their stage times."""
    run_dir = root / f"seed{key['seed']}_p{key['p_prime']:g}_{key['isolated_mode']}"
    run_dir.mkdir(exist_ok=True)
    dfn_perc = dfn_percolates(graph)
    btc_group = {}
    points = []

    for orl in config.orls:
        okey = dict(key, orl=orl)
        point = dict(okey, solves=[])
        points.append(point)
        try:
            with _timed(point, "mesh_s"):
                mesh = build_mesh(
                    network.domain, network,
                    MeshParams(l=config.l, orl=orl, balance_2to1=config.balance_2to1),
                    config.m_vertices,
                )
                fc_report = count_false_connections(
                    mesh, graph,
                    total_cells=mesh.num_cells,
                    equivalent_cells=equivalent_hex_count(config.L, config.l, orl),
                )
                mesh_perc = mesh_percolates(mesh)
            records.data["topology_rows"].append({
                **okey,
                "num_false_pairs": fc_report.num_false_pairs,
                "cells_with_false": fc_report.cells_with_false,
                "total_fracture_cells": fc_report.total_fracture_cells,
                "vc": fc_report.total_cells,
                "n_equivalent": fc_report.equivalent_cells,
                "fc_over_vc_pct": fc_report.fc_over_vc,
                "vc_over_n_pct": fc_report.vc_over_n,
                "dfn_percolates": dfn_perc,
                "mesh_percolates": mesh_perc,
                "classification": _percolation_class(dfn_perc, mesh_perc),
            })
        except Exception as err:  # noqa: BLE001
            records.add_failure(okey, "mesh", err)
            continue
        if depth < STAGES.index("upscale"):
            continue

        for k_m in config.k_m:
            ukey = dict(okey, k_m=k_m)
            solve = {"k_m": k_m}
            point["solves"].append(solve)
            try:
                with _timed(solve, "upscale_s"):
                    props = upscale_mesh(
                        mesh, network, k_m, config.phi_m,
                        m_vertices=config.m_vertices,
                        strict_fracture_porosity=config.strict_fracture_porosity,
                    )
                records.data["upscale_rows"].append({**ukey, **props.summary()})
            except Exception as err:  # noqa: BLE001
                records.add_failure(ukey, "upscale", err)
                continue
            vtk_data = {"permeability": props.permeability, "porosity": props.porosity}

            flow = None
            if depth >= STAGES.index("flow"):
                try:
                    bc = FlowBC(p_in=config.delta_p, p_out=0.0, mu=config.mu)
                    with _timed(solve, "flow_s"):
                        flow = solve_steady_flow(
                            mesh, props, bc, config.flow_tol, config.flow_method)
                    vtk_data["pressure"] = flow.pressure
                    records.data["flow_rows"].append({
                        **ukey,
                        "k_eff": flow.k_eff, "q_in": flow.q_in, "q_out": flow.q_out,
                        "iterations": flow.iterations, "residual": flow.residual,
                        "k_harmonic": flow.k_harmonic, "k_arithmetic": flow.k_arithmetic,
                        "dfn_percolates": dfn_perc,
                        "mesh_percolates": mesh_perc,
                    })
                except Exception as err:  # noqa: BLE001
                    records.add_failure(ukey, "flow", err)
                    flow = None

            if config.write_vtk_files:
                vtk_path = run_dir / f"mesh_orl{orl}_km{k_m:.0e}.vtk"
                write_vtk(mesh, vtk_path, vtk_data)
                records.add_artifact(vtk_path, "mesh-vtk")
            if flow is None or depth < STAGES.index("transport") or not config.transport_enabled:
                continue

            solve["transport_s"] = {}
            for kind in config.tracers:
                tkey = dict(ukey, tracer=kind)
                try:
                    params = TracerParams(
                        kind=kind,
                        diffusion=config.diffusion,
                        decay=decay_constant(config.half_life_yr) if kind == "decaying" else 0.0,
                        retardation=config.retardation if kind == "sorbing" else 1.0,
                        injected_mass=config.injected_mass,
                    )
                    with _timed(solve["transport_s"], kind):
                        btc = run_transport(
                            mesh, props, flow, params, config.t_end_yr,
                            n_outputs=config.n_outputs,
                            dt0_yr=config.dt0_yr, growth=config.dt_growth,
                        )
                    btc_group[(orl, k_m, kind)] = btc
                    records.data["transport_rows"].append({
                        **tkey,
                        "peak_time_yr": btc.peak_time_yr(),
                        **{name: btc.metadata[name] for name in SOLVER_COUNTS},
                        "min_concentration": btc.metadata["min_concentration"],
                        "ledger_closure": btc.ledger_closure(),
                    })
                except Exception as err:  # noqa: BLE001
                    records.add_failure(tkey, "transport", err)

    # normalize every curve of a (k_m) group by its lowest-orl conservative peak
    for (orl, k_m, kind), btc in sorted(btc_group.items()):
        ref_orls = [o for (o, km, kd) in btc_group if km == k_m and kd == "conservative"]
        if ref_orls:
            reference = btc_group[(min(ref_orls), k_m, "conservative")]
            try:
                normalize_btc(btc, reference)
            except ValueError:
                pass  # flat reference (nothing broke through); leave unnormalized
        path = run_dir / f"btc_orl{orl}_km{k_m:.0e}_{kind}.csv"
        write_btc_csv(
            btc, path,
            seed=key["seed"], p_prime=key["p_prime"], orl=orl, k_m=k_m,
            isolated_mode=key["isolated_mode"],
        )
        records.add_artifact(path, "btc")
    return points


# ---------------------------------------------------------------------------
# reports

def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in header) + "\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "+" if value else "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_tables(manifest: dict, out_dir) -> list[Path]:
    """Emit CSV summary tables (idempotent) from a pipeline manifest."""
    out = Path(out_dir) / "tables"
    out.mkdir(parents=True, exist_ok=True)
    written = []

    rows = sorted(manifest["network_rows"], key=lambda r: (r["seed"], r["p_prime"]))
    path = out / "network_characterization.csv"
    _write_csv(path, ["seed", "p_prime", "N", "N_hat", "N_hat_over_N_pct", "P32", "P32_hat"], rows)
    written.append(path)

    rows = sorted(
        manifest["topology_rows"],
        key=lambda r: (r["seed"], r["p_prime"], r["isolated_mode"], r["orl"]),
    )
    path = out / "false_connections.csv"
    _write_csv(path, [
        "seed", "p_prime", "isolated_mode", "orl", "num_false_pairs",
        "cells_with_false", "vc", "fc_over_vc_pct", "vc_over_n_pct", "n_equivalent",
    ], rows)
    written.append(path)

    path = out / "percolation.csv"
    _write_csv(path, [
        "seed", "p_prime", "isolated_mode", "orl",
        "dfn_percolates", "mesh_percolates", "classification",
    ], rows)
    written.append(path)

    rows = sorted(
        manifest["flow_rows"],
        key=lambda r: (r["seed"], r["p_prime"], r["isolated_mode"], r["orl"], r["k_m"]),
    )
    path = out / "flow_summary.csv"
    _write_csv(path, [
        "seed", "p_prime", "isolated_mode", "orl", "k_m", "k_eff", "q_in", "q_out",
        "iterations", "residual", "k_harmonic", "k_arithmetic",
        "dfn_percolates", "mesh_percolates",
    ], rows)
    written.append(path)
    logger.info("wrote %d report tables under %s", len(written), out)
    return written
