"""The three desk workloads: inputs from a seed, one pass, and its checks.

All use the desk fracture family of ``configs/desk-scale.json`` (L = 25 m,
l = 5 m, alpha = 1.8, r0 = 1, ru = 10, kappa = 0.1, k_m = 1e-16,
phi_m = 0.01).  A pass returns observations keyed by point id; ``check``
turns them into operations, each failed when any of its points shows a
problem.  One operation is one grid point carried through the workload's
last stage (one per tracer on transport-orl2).

BENCHMARK.json gates transport-orl2 and desk-grid.  orl3-flow runs by hand
(``--workload orl3-flow``): a third gated workload would cut every run to
~36 s within the benchmark's time budget, and on a shared 2-core host the
spread of such short runs comes close to the bounds.  desk-grid covers
every layer orl3-flow does except the CG branch of the flow solve.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

# relative tolerance for float references (criterion 4's k_eff tolerance)
REL_TOL = 1e-8
# criterion 4's Wiener-bound slack and criterion 8's ledger closure bound
WIENER_SLACK = 1e-6
CLOSURE_MAX = 1e-6
# |q_in - q_out| / q_in.  CG stops at a 1e-10 residual relative to |b|, and
# |b| carries the large Dirichlet terms, so orl-3 solves leave net
# imbalances up to ~2e-5 of q_in; a broken flux assembly is off by O(1)
FLUX_BALANCE_MAX = 1e-3

FLOAT_FIELDS = ("k_eff", "peak_time_yr", "cumulative_mol")
REFERENCE_FIELDS = (
    "fractures", "fractures_kept", "cells", "faces", "fracture_cells", "edges",
    "false_pairs", "cells_with_false", "dfn_percolates", "mesh_percolates",
    "k_eff", "peak_time_yr", "cumulative_mol",
)

# transport-orl2 output schedule: the desk schedule (192 outputs, growth
# 1.2) factorizes 198 times per tracer.  Outputs at 1e-7 and 1e8 yr with dt
# growing 1e4x per step take 5 steps per tracer (dt = 1e-8, 9e-8, 1, 1e4 and
# ~1e8 yr), each with its own factorization, from the expensive small-dt
# factorizations that dominate the desk schedule to the cheap late ones
TRANSPORT_OUTPUTS = 2
TRANSPORT_GROWTH = 1e4


def desk_config(root: Path, fs, **changes):
    config = fs.pipeline.load_config(root / "configs" / "desk-scale.json")
    return dataclasses.replace(config, **changes)


def _mesh_point(config, fs, orl: int, p_prime: float = 1.0):
    """generate -> graph -> mesh -> topology checks -> upscale -> flow."""
    seed = config.seeds[0]
    params = config.generation_params(seed, config.fracture_counts()[p_prime])
    network = fs.network.generate_network(
        params, count_in_expanded_domain=config.count_in_expanded_domain,
        m_vertices=config.m_vertices,
    )
    graph = fs.topology.build_intersection_graph(network, m_vertices=config.m_vertices)
    mesh = fs.octree.build_mesh(
        network.domain, network,
        fs.octree.MeshParams(l=config.l, orl=orl, balance_2to1=config.balance_2to1),
        config.m_vertices,
    )
    false = fs.topology.count_false_connections(
        (mesh.fracture_ids[i] for i in np.nonzero(mesh.is_fracture)[0]),
        graph,
        total_cells=mesh.num_cells,
        equivalent_cells=fs.octree.equivalent_hex_count(config.L, config.l, orl),
    )
    mesh_perc = fs.topology.mesh_percolates(mesh)
    dfn_perc = fs.topology.dfn_percolates(graph)
    props = fs.upscale.upscale_mesh(
        mesh, network, config.k_m[0], config.phi_m, m_vertices=config.m_vertices,
        strict_fracture_porosity=config.strict_fracture_porosity,
    )
    flow = fs.flow.solve_steady_flow(
        mesh, props, fs.flow.FlowBC(p_in=config.delta_p, p_out=0.0, mu=config.mu),
        config.flow_tol, config.flow_method,
    )
    fields = {
        "fractures": len(network), "cells": int(mesh.num_cells), "faces": len(mesh.faces),
        "fracture_cells": int(mesh.is_fracture.sum()), "edges": len(graph.edges),
        "false_pairs": false.num_false_pairs, "cells_with_false": false.cells_with_false,
        "dfn_percolates": bool(dfn_perc), "mesh_percolates": bool(mesh_perc),
        "tag_mismatch": int((mesh.is_fracture != props.is_fracture).sum()),
        **_flow_fields(flow),
    }
    return fields, (mesh, props, flow)


FLOW_FIELDS = ("k_eff", "q_in", "q_out", "k_harmonic", "k_arithmetic")


def _flow_fields(flow) -> dict:
    return {name: float(getattr(flow, name)) for name in FLOW_FIELDS}


class Workload:
    name = ""
    why = ""
    POINT = ""  # the grid point of a one-point workload

    def inputs(self, seed: int, root: Path, out: Path, fs):
        """The generated inputs of one seed (what set-up constructs)."""
        raise NotImplementedError

    def operations(self, inputs) -> dict:
        """Operation id -> point ids it depends on."""
        raise NotImplementedError

    def prepare(self, inputs, fs):
        """Program work done once in set-up, before the timed passes (None if none)."""
        return None

    def run(self, inputs, fs, prepared) -> tuple[dict, bytes | None]:
        """One pass: (observations by point id, bytes that must repeat or None)."""
        raise NotImplementedError

    def output_dir(self, inputs) -> Path | None:
        """Where a pass writes files, if it writes any."""
        return None

    def work(self, obs: dict) -> int | None:
        """Size of a pass in the unit its run time scales with (None if unknown).

        The fracture family is heavy tailed, so the mesh a seed produces
        varies; norm_wall_s divides this size out.
        """
        return obs.get(self.POINT, {}).get("cells")


class Orl3Flow(Workload):
    name = "orl3-flow"
    why = ("250 fractures (p'=1) at orl 3, generate to steady flow without transport: "
           "the largest mesh per run and the only one above the CG threshold")
    POINT = "p1/retained/orl3"

    def inputs(self, seed, root, out, fs):
        return desk_config(root, fs, seeds=(seed,), p_primes=(1.0,), orls=(3,),
                           isolated_modes=("retained",), transport_enabled=False)

    def operations(self, config):
        return {self.POINT: [self.POINT]}

    def run(self, config, fs, prepared):
        fields, _ = _mesh_point(config, fs, orl=3)
        return {self.POINT: fields}, None


class TransportOrl2(Workload):
    """Three tracers on the p'=2 network at orl 2.

    At p'=1 the orl-2 grading, and with it the LU fill (3.49-3.89 M
    nonzeros), changes with the seed, which moves the transport time by ~35%
    between seeds.  At p'=2 every seed refines all 8000 cells, so the matrix
    pattern and fill (3.72 M) are the same for every seed and the time
    measures the transport code, not the draw.

    The mesh, upscaling and flow solve (~7 s, half of a pass if timed with
    it) run once in set-up and count in setup_s; the other two workloads
    time those layers.  A timed pass is the three tracers, short enough
    that a run holds several passes and reports their median.
    """

    name = "transport-orl2"
    why = ("500 fractures (p'=2) at orl 2, all 8000 cells refined for every seed, then "
           "conservative, decaying and sorbing tracers: one sparse LU per backward-Euler step")
    POINT = "p2/retained/orl2"

    def inputs(self, seed, root, out, fs):
        return desk_config(
            root, fs, seeds=(seed,), p_primes=(2.0,), orls=(2,), isolated_modes=("retained",),
            n_outputs=TRANSPORT_OUTPUTS, dt_growth=TRANSPORT_GROWTH,
        )

    def operations(self, config):
        return {f"{self.POINT}/{kind}": [self.POINT, f"{self.POINT}/{kind}"]
                for kind in config.tracers}

    def prepare(self, config, fs):
        return _mesh_point(config, fs, orl=2, p_prime=2.0)

    def run(self, config, fs, prepared):
        fields, (mesh, props, flow) = prepared
        obs = {self.POINT: dict(fields)}
        tr = fs.transport
        for kind in config.tracers:
            params = tr.TracerParams(
                kind=kind, diffusion=config.diffusion,
                decay=tr.decay_constant(config.half_life_yr) if kind == "decaying" else 0.0,
                retardation=config.retardation if kind == "sorbing" else 1.0,
                injected_mass=config.injected_mass,
            )
            btc = tr.run_transport(
                mesh, props, flow, params, config.t_end_yr, n_outputs=config.n_outputs,
                dt0_yr=config.dt0_yr, growth=config.dt_growth,
            )
            obs[f"{self.POINT}/{kind}"] = {
                "peak_time_yr": btc.peak_time_yr(),
                "cumulative_mol": float(btc.cumulative_mol[-1]),
                "closure": ledger_closure(btc),
            }
        return obs, None


def ledger_closure(btc) -> float:
    """Worst ledger gap over all outputs, relative to the injected mass."""
    gap = np.abs(
        btc.in_domain_mol + btc.cumulative_mol + btc.decayed_mol
        + btc.metadata["other_exit_mol"] - btc.initial_total_mass
    )
    return float(gap.max() / btc.injected_mass)


class DeskGrid(Workload):
    name = "desk-grid"
    why = ("run_pipeline to report over p' 0.5/1/2 x retained/removed x orl 1/2: "
           "many small meshes, direct flow solves, graphs built twice per density")
    ARTIFACTS = {"config": 1, "network": 6, "table": 4}

    def inputs(self, seed, root, out, fs):
        return desk_config(root, fs, seeds=(seed,), orls=(1, 2), transport_enabled=False,
                           output_dir=str(out / f"desk-grid-seed{seed}"))

    @staticmethod
    def _pid(p_prime, mode=None, orl=None):
        return f"p{p_prime:g}" if mode is None else f"p{p_prime:g}/{mode}/orl{orl}"

    def operations(self, config):
        return {
            self._pid(p, mode, orl): [self._pid(p), self._pid(p, mode, orl)]
            for p in config.p_primes for mode in config.isolated_modes for orl in config.orls
        }

    def output_dir(self, config):
        return Path(config.output_dir)

    def work(self, obs):
        # orl 2 meshes of the denser networks refine every cell, so the cell
        # count saturates; clipping and upscaling follow the fracture cells
        cells = [fields["fracture_cells"] for pid, fields in obs.items()
                 if pid.count("/") == 2 and "fracture_cells" in fields]
        return sum(cells) if cells else None

    def run(self, config, fs, prepared):
        manifest = fs.pipeline.run_pipeline(config, upto="report")
        fingerprint = (Path(config.output_dir) / "manifest.json").read_bytes()
        return self.observe(manifest), fingerprint

    def observe(self, manifest) -> dict:
        obs: dict[str, dict] = {"pass": {}}
        for row in manifest["network_rows"]:
            obs[self._pid(row["p_prime"])] = {
                "fractures": row["N"], "fractures_kept": row["N_hat"],
                "dfn_percolates": row["dfn_percolates"],
            }
        for row in manifest["topology_rows"]:
            obs[self._pid(row["p_prime"], row["isolated_mode"], row["orl"])] = {
                "cells": row["vc"], "fracture_cells": row["total_fracture_cells"],
                "false_pairs": row["num_false_pairs"],
                "cells_with_false": row["cells_with_false"],
                "dfn_percolates": row["dfn_percolates"],
                "mesh_percolates": row["mesh_percolates"],
            }
        for row in manifest["upscale_rows"]:
            pid = self._pid(row["p_prime"], row["isolated_mode"], row["orl"])
            obs.setdefault(pid, {})["upscale_fracture_cells"] = row["n_fracture_cells"]
        for row in manifest["flow_rows"]:
            pid = self._pid(row["p_prime"], row["isolated_mode"], row["orl"])
            obs.setdefault(pid, {}).update({name: row[name] for name in FLOW_FIELDS})
        for failure in manifest["failures"]:
            key = failure["key"]
            pid = self._pid(key["p_prime"], key.get("isolated_mode"), key.get("orl"))
            obs.setdefault(pid, {}).setdefault("errors", []).append(
                f"{failure['stage']}: {failure['error']}")
        kinds: dict[str, int] = {}
        for artifact in manifest["artifacts"]:
            kinds[artifact["kind"]] = kinds.get(artifact["kind"], 0) + 1
        if kinds != self.ARTIFACTS:
            obs["pass"]["errors"] = [f"artifacts {kinds} != {self.ARTIFACTS}"]
        return obs


WORKLOADS = {w.name: w for w in (Orl3Flow(), TransportOrl2(), DeskGrid())}


# ---------------------------------------------------------------------------
# checks

def point_problems(pid: str, fields: dict | None, reference: dict | None) -> list[str]:
    """Reference mismatches plus the seed-independent invariants of one point."""
    if fields is None:
        return [f"{pid}: no output"]
    out = [f"{pid}: {err}" for err in fields.get("errors", ())]
    for name, want in (reference or {}).items():
        got = fields.get(name)
        if got is None:
            out.append(f"{pid}: {name} missing (reference {want!r})")
        elif name in FLOAT_FIELDS:
            if not abs(got - want) <= REL_TOL * abs(want):
                out.append(f"{pid}: {name} {got!r} differs from reference {want!r}")
        elif got != want:
            out.append(f"{pid}: {name} {got!r} != reference {want!r}")
    if "k_eff" in fields:
        k, lo, hi = fields["k_eff"], fields["k_harmonic"], fields["k_arithmetic"]
        if not lo * (1 - WIENER_SLACK) <= k <= hi * (1 + WIENER_SLACK):
            out.append(f"{pid}: k_eff {k:.6e} outside Wiener bounds [{lo:.6e}, {hi:.6e}]")
        q_in, q_out = fields["q_in"], fields["q_out"]
        if not abs(q_in - q_out) <= FLUX_BALANCE_MAX * abs(q_in):
            out.append(f"{pid}: flux imbalance q_in {q_in:.6e} vs q_out {q_out:.6e}")
    if fields.get("tag_mismatch", 0):
        out.append(f"{pid}: {fields['tag_mismatch']} cells tagged differently by mesh and upscale")
    if "upscale_fracture_cells" in fields and "fracture_cells" in fields:
        if fields["upscale_fracture_cells"] != fields["fracture_cells"]:
            out.append(f"{pid}: upscale has {fields['upscale_fracture_cells']} fracture cells, "
                       f"mesh {fields['fracture_cells']}")
    if "closure" in fields and not fields["closure"] < CLOSURE_MAX:
        out.append(f"{pid}: ledger closure {fields['closure']:.3e} x injected mass")
    return out


def check(workload: Workload, inputs, obs: dict, reference: dict | None) -> dict:
    """Operation id -> list of problems (empty when the operation passed)."""
    reference = reference or {}
    # a pass that raised, or a problem with the pass as a whole, fails every operation
    common = obs.get("pass", {}).get("errors", [])
    problems: dict[str, list[str]] = {}
    result = {}
    for op, pids in workload.operations(inputs).items():
        found = list(common)
        for pid in pids:
            if pid not in problems:
                problems[pid] = point_problems(pid, obs.get(pid), reference.get(pid))
            found.extend(problems[pid])
        result[op] = found
    return result


def tally(checked: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over the checked operations of several passes."""
    attempted = sum(len(ops) for ops in checked)
    failed = sum(1 for ops in checked for problems in ops.values() if problems)
    return attempted, failed


def reference_entry(obs: dict) -> dict:
    """The fields of each point that a reference records."""
    return {
        pid: {k: v for k, v in fields.items() if k in REFERENCE_FIELDS}
        for pid, fields in sorted(obs.items()) if pid != "pass"
    }


def load_references(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
