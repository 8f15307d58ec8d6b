"""Experiment-grid orchestration: generate, mesh, upscale, flow, transport, report.

One pipeline invocation sweeps the cartesian grid of seeds x densities x
refinement levels x matrix permeabilities x isolated-fracture handling,
writing every artifact under one output directory together with a manifest
(config hash, per-artifact checksums, summary rows, and per-run failures).
Identical config and seeds reproduce byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from .flow import FlowBC, solve_steady_flow
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
    percolating_cluster,
    remove_isolated,
)
from .transport import (
    SOLVER_COUNTS,
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
        if not self.orls:
            raise ValueError("need at least one orl")
        if not self.p_primes:
            raise ValueError("need at least one density value")
        for mode in self.isolated_modes:
            if mode not in ISOLATED_MODES:
                raise ValueError(f"unknown isolated mode {mode!r}")
        for kind in self.tracers:
            if kind not in ("conservative", "decaying", "sorbing"):
                raise ValueError(f"unknown tracer kind {kind!r}")
        if self.flow_method not in ("auto", "direct"):
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


class _Manifest:
    def __init__(self, config: RunConfig, root: Path):
        self.root = root
        self.data = {
            "config_hash": config_hash(config),
            "config": config.to_dict(),
            "artifacts": [],
            "network_rows": [],
            "topology_rows": [],
            "upscale_rows": [],
            "flow_rows": [],
            "transport_rows": [],
            "failures": [],
        }

    def add_artifact(self, path: Path, kind: str) -> None:
        self.data["artifacts"].append({
            "path": str(path.relative_to(self.root)),
            "kind": kind,
            "sha256": _sha256(path),
        })

    def add_failure(self, key: dict, stage: str, error: Exception) -> None:
        logger.error("stage %s failed for %s: %s", stage, key, error)
        self.data["failures"].append({"key": key, "stage": stage, "error": str(error)})

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


def run_pipeline(config: RunConfig, upto: str = "transport") -> dict:
    """Run every grid point through the requested final stage.

    Failures are recorded per grid point and the rest of the grid continues.
    Returns the manifest dict (also written to <output_dir>/manifest.json).
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    depth = STAGES.index(upto)
    root = Path(config.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(config, root)
    save_config(config, root / "config.json")
    manifest.add_artifact(root / "config.json", "config")
    started = time.time()

    counts = config.fracture_counts()
    (root / "networks").mkdir(exist_ok=True)

    for seed in config.seeds:
        for p_prime in config.p_primes:
            key = {"seed": seed, "p_prime": p_prime}
            try:
                nets, graphs = _generate_stage(config, manifest, root, seed, p_prime, counts)
            except Exception as err:  # noqa: BLE001 - grid must continue
                manifest.add_failure(key, "generate", err)
                continue
            if depth < STAGES.index("mesh"):
                continue
            for mode in config.isolated_modes:
                if mode not in nets:
                    continue
                _run_mode(
                    config, manifest, root, depth,
                    dict(key, isolated_mode=mode), nets[mode], graphs[mode],
                )

    if depth >= STAGES.index("report"):
        for table in report_tables(manifest.data, root):
            manifest.add_artifact(table, "table")
    manifest.write()
    logger.info("pipeline finished in %.1f s", time.time() - started)
    return manifest.data


def _generate_stage(config, manifest, root, seed, p_prime, counts):
    n = counts[p_prime]
    params = config.generation_params(seed, n)
    network = generate_network(
        params,
        count_in_expanded_domain=config.count_in_expanded_domain,
        m_vertices=config.m_vertices,
    )
    graph = build_intersection_graph(network, m_vertices=config.m_vertices)
    removed = remove_isolated(network, graph)
    graph_removed = graph.subset(percolating_cluster(graph))

    nets = {"retained": network, "removed": removed}
    graphs = {"retained": graph, "removed": graph_removed}

    for mode in config.isolated_modes:
        path = root / "networks" / f"seed{seed}_p{p_prime:g}_{mode}.jsonl"
        save_network(nets[mode], path)
        manifest.add_artifact(path, "network")

    p32 = fracture_intensity(network, m_vertices=config.m_vertices)
    p32_hat = fracture_intensity(removed, m_vertices=config.m_vertices)
    manifest.data["network_rows"].append({
        "seed": seed, "p_prime": p_prime, "N": len(network),
        "N_hat": len(removed),
        "N_hat_over_N_pct": 100.0 * len(removed) / len(network) if len(network) else 0.0,
        "P32": p32, "P32_hat": p32_hat,
        "dfn_percolates": dfn_percolates(graph),
    })
    return nets, graphs


def _run_mode(config, manifest, root, depth, key, network, graph):
    run_dir = root / f"seed{key['seed']}_p{key['p_prime']:g}_{key['isolated_mode']}"
    run_dir.mkdir(exist_ok=True)
    dfn_perc = dfn_percolates(graph)
    btc_group = {}

    for orl in config.orls:
        okey = dict(key, orl=orl)
        try:
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
            manifest.data["topology_rows"].append({
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
            manifest.add_failure(okey, "mesh", err)
            continue
        if depth < STAGES.index("upscale"):
            continue

        for k_m in config.k_m:
            ukey = dict(okey, k_m=k_m)
            try:
                props = upscale_mesh(
                    mesh, network, k_m, config.phi_m,
                    m_vertices=config.m_vertices,
                    strict_fracture_porosity=config.strict_fracture_porosity,
                )
                manifest.data["upscale_rows"].append({**ukey, **props.summary()})
            except Exception as err:  # noqa: BLE001
                manifest.add_failure(ukey, "upscale", err)
                continue
            vtk_data = {"permeability": props.permeability, "porosity": props.porosity}

            flow = None
            if depth >= STAGES.index("flow"):
                try:
                    bc = FlowBC(p_in=config.delta_p, p_out=0.0, mu=config.mu)
                    flow = solve_steady_flow(mesh, props, bc, config.flow_tol, config.flow_method)
                    vtk_data["pressure"] = flow.pressure
                    manifest.data["flow_rows"].append({
                        **ukey,
                        "k_eff": flow.k_eff, "q_in": flow.q_in, "q_out": flow.q_out,
                        "iterations": flow.iterations, "residual": flow.residual,
                        "k_harmonic": flow.k_harmonic, "k_arithmetic": flow.k_arithmetic,
                        "dfn_percolates": dfn_perc,
                        "mesh_percolates": mesh_perc,
                    })
                except Exception as err:  # noqa: BLE001
                    manifest.add_failure(ukey, "flow", err)
                    flow = None

            if config.write_vtk_files:
                vtk_path = run_dir / f"mesh_orl{orl}_km{k_m:.0e}.vtk"
                write_vtk(mesh, vtk_path, vtk_data)
                manifest.add_artifact(vtk_path, "mesh-vtk")
            if flow is None or depth < STAGES.index("transport") or not config.transport_enabled:
                continue

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
                    btc = run_transport(
                        mesh, props, flow, params, config.t_end_yr,
                        n_outputs=config.n_outputs,
                        dt0_yr=config.dt0_yr, growth=config.dt_growth,
                    )
                    btc_group[(orl, k_m, kind)] = btc
                    manifest.data["transport_rows"].append({
                        **tkey,
                        "peak_time_yr": btc.peak_time_yr(),
                        **{name: btc.metadata[name] for name in SOLVER_COUNTS},
                        "min_concentration": btc.metadata["min_concentration"],
                        "ledger_closure": btc.ledger_closure(),
                    })
                except Exception as err:  # noqa: BLE001
                    manifest.add_failure(tkey, "transport", err)

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
        manifest.add_artifact(path, "btc")


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
