"""Which fracscale functions a traced pass wraps, and the per-layer metrics.

Every public function is wrapped where it is looked up: in its own module
and, for the names ``pipeline`` and ``octree`` import, in theirs too.
``clip_vertices`` and scipy's ``splu`` are leaves (counted and timed into
the enclosing span); everything else is a span.
"""

from __future__ import annotations

from tracing import Span, Tracer, self_times
from workloads import ledger_closure

# (metric name, unit, better) in the order they are printed; BENCHMARK.json
# lists the same names under "per_layer"
PER_LAYER = [
    ("octree.tag_s", "s", "lower"),
    ("octree.refine_s", "s", "lower"),
    ("octree.faces_s", "s", "lower"),
    ("octree.cells", "count", "lower"),
    ("octree.faces", "count", "lower"),
    ("octree.fracture_cells", "count", "lower"),
    ("geometry.clip_calls", "count", "lower"),
    ("geometry.clip_calls.octree", "count", "lower"),
    ("geometry.clip_calls.upscale", "count", "lower"),
    ("geometry.clip_s", "s", "lower"),
    ("upscale.mesh_s", "s", "lower"),
    ("upscale.fracture_cells", "count", "lower"),
    ("upscale.tag_mismatch", "count", "lower"),
    ("flow.assemble_s", "s", "lower"),
    ("flow.solve_s", "s", "lower"),
    ("flow.cg_iterations", "count", "lower"),
    ("flow.direct_solves", "count", "lower"),
    ("flow.residual_max", "ratio", "lower"),
    ("transport.operator_s", "s", "lower"),
    ("transport.run_s.conservative", "s", "lower"),
    ("transport.run_s.decaying", "s", "lower"),
    ("transport.run_s.sorbing", "s", "lower"),
    ("transport.steps", "count", "lower"),
    ("transport.factorizations", "count", "lower"),
    ("transport.lu_s", "s", "lower"),
    ("transport.lu_fill_nnz", "count", "lower"),
    ("transport.ledger_closure_max", "ratio", "lower"),
    ("topology.graph_s", "s", "lower"),
    ("topology.graph_calls", "count", "lower"),
    ("topology.edges", "count", "lower"),
    ("topology.false_conn_s", "s", "lower"),
    ("topology.false_pairs", "count", "lower"),
    ("topology.mesh_percolates_s", "s", "lower"),
    ("network.generate_s", "s", "lower"),
    ("network.fractures", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.io_s", "s", "lower"),
    ("pipeline.points", "count", "higher"),
    ("pipeline.failures", "count", "lower"),
    ("pipeline.artifacts", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

CLIP = "geometry.clip_vertices"
SPLU = "scipy.splu"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Points:
    """Grid-point ids: seed/density from generation, mode, then orl and tracer."""

    def __init__(self):
        self.labels: dict[int, tuple] = {}   # id(network) -> (network, label)
        self.mesh_point = ""

    def label(self, network) -> str:
        entry = self.labels.get(id(network))
        return entry[1] if entry and entry[0] is network else "network"

    def generated(self, tracer: Tracer, args, kwargs):
        params = _arg(args, kwargs, 0, "params")
        tracer.point = f"seed{params.seed}-n{params.n_fractures}"

    def name_generated(self, span: Span, result, args, kwargs):
        span.attrs["fractures"] = len(result)
        self.labels[id(result)] = (result, f"{span.point}/retained")

    def name_removed(self, span: Span, result, args, kwargs):
        base = self.label(_arg(args, kwargs, 0, "network")).rsplit("/", 1)[0]
        self.labels[id(result)] = (result, f"{base}/removed")

    def meshing(self, tracer: Tracer, args, kwargs):
        network = _arg(args, kwargs, 1, "network")
        params = _arg(args, kwargs, 2, "params")
        self.mesh_point = f"{self.label(network)}/orl{params.orl}"
        tracer.point = self.mesh_point

    def transporting(self, tracer: Tracer, args, kwargs):
        params = _arg(args, kwargs, 3, "params")
        # transport-orl2 meshes in set-up, outside the traced pass
        tracer.point = f"{self.mesh_point or 'mesh'}/{params.kind}"


def _set_point(point):
    def before(tracer, args, kwargs):
        tracer.point = point
    return before


def _mesh_attrs(span, mesh, args, kwargs):
    span.attrs.update(
        cells=int(mesh.num_cells), faces=len(mesh.faces),
        fracture_cells=int(mesh.is_fracture.sum()),
    )


def _upscale_attrs(span, props, args, kwargs):
    mesh = _arg(args, kwargs, 0, "mesh")
    span.attrs.update(
        fracture_cells=int(props.is_fracture.sum()),
        tag_mismatch=int((mesh.is_fracture != props.is_fracture).sum()),
    )


def _flow_attrs(span, flow, args, kwargs):
    span.attrs.update(iterations=int(flow.iterations), residual=float(flow.residual))


def _transport_attrs(span, btc, args, kwargs):
    span.attrs.update(kind=btc.tracer_kind, closure=ledger_closure(btc))


def _lu_attrs(span, lu):
    nnz = int(lu.L.nnz + lu.U.nnz)
    span.attrs["lu_nnz_max"] = max(nnz, span.attrs.get("lu_nnz_max", 0))


def patches(tracer: Tracer, fs) -> list[tuple]:
    """(module, attribute, wrapper) triples for one traced pass.

    fs is the fracscale namespace of modules (network, geometry, topology,
    octree, upscale, flow, transport, pipeline) plus scipy's sparse.linalg
    as ``spla``.
    """
    points = _Points()
    out = []

    def span(name, modules, attr, before=None, after=None):
        wrapped = tracer.span(name, getattr(modules[0], attr), before, after)
        out.extend((module, attr, wrapped) for module in modules)

    net, top, octr, ups = fs.network, fs.topology, fs.octree, fs.upscale
    flw, trn, pipe = fs.flow, fs.transport, fs.pipeline

    span("network.generate_network", (net, pipe), "generate_network",
         points.generated, points.name_generated)
    span("network.fracture_intensity", (net, pipe), "fracture_intensity")
    span("network.save_network", (net, pipe), "save_network")
    span("topology.build_intersection_graph", (top, pipe), "build_intersection_graph",
         after=lambda s, g, a, k: s.attrs.update(edges=len(g.edges)))
    span("topology.remove_isolated", (top, pipe), "remove_isolated",
         after=points.name_removed)
    span("topology.dfn_percolates", (top, pipe), "dfn_percolates")
    span("topology.count_false_connections", (top, pipe), "count_false_connections",
         after=lambda s, r, a, k: s.attrs.update(false_pairs=r.num_false_pairs))
    span("topology.mesh_percolates", (top, pipe), "mesh_percolates")
    span("octree.build_mesh", (octr, pipe), "build_mesh", points.meshing, _mesh_attrs)
    span("octree.build_initial_grid", (octr,), "build_initial_grid")
    span("octree.tag_fracture_cells", (octr,), "tag_fracture_cells")
    span("octree.refine", (octr,), "refine")
    span("octree.build_face_adjacency", (octr,), "build_face_adjacency")
    span("upscale.upscale_mesh", (ups, pipe), "upscale_mesh", after=_upscale_attrs)
    span("flow.solve_steady_flow", (flw, pipe), "solve_steady_flow", after=_flow_attrs)
    span("flow.assemble_tpfa", (flw,), "assemble_tpfa")
    span("flow.solve_pressure", (flw,), "solve_pressure")
    span("transport.run_transport", (trn, pipe), "run_transport",
         points.transporting, _transport_attrs)
    span("transport.prepare_transport", (trn,), "prepare_transport")
    span("transport.step_transport", (trn,), "step_transport")
    span("pipeline.run_pipeline", (pipe,), "run_pipeline", _set_point("pipeline"))
    span("pipeline.report_tables", (pipe,), "report_tables", _set_point("report"))

    clip = tracer.leaf(CLIP, fs.geometry.clip_vertices)
    out.extend((module, "clip_vertices", clip) for module in (fs.geometry, octr))
    out.append((fs.spla, "splu", tracer.leaf(SPLU, fs.spla.splu, _lu_attrs)))
    return out


def metrics(tracer: Tracer, manifest: dict | None) -> dict:
    """Per-layer metrics of one traced pass (every name in PER_LAYER but the
    trace.*, failed_frac and peak_rss_mb entries, which the caller adds)."""
    spans = tracer.spans
    own = self_times(spans)
    m = {name: 0 for name, _, _ in PER_LAYER}

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m["octree.tag_s"] = total("octree.tag_fracture_cells")
    m["octree.refine_s"] = total("octree.refine")
    m["octree.faces_s"] = total("octree.build_face_adjacency")
    m["octree.cells"] = attr_sum("octree.build_mesh", "cells")
    m["octree.faces"] = attr_sum("octree.build_mesh", "faces")
    m["octree.fracture_cells"] = attr_sum("octree.build_mesh", "fracture_cells")

    for s in spans:
        calls, sec = s.leaves.get(CLIP, (0, 0.0))
        m["geometry.clip_calls"] += calls
        m["geometry.clip_s"] += sec
        if s.name.startswith("octree."):
            m["geometry.clip_calls.octree"] += calls
        elif s.name.startswith("upscale."):
            m["geometry.clip_calls.upscale"] += calls
        lu_calls, lu_sec = s.leaves.get(SPLU, (0, 0.0))
        if s.name.startswith("flow."):
            m["flow.direct_solves"] += lu_calls
        elif s.name.startswith("transport."):
            m["transport.factorizations"] += lu_calls
            m["transport.lu_s"] += lu_sec
            m["transport.lu_fill_nnz"] = max(
                m["transport.lu_fill_nnz"], s.attrs.get("lu_nnz_max", 0))
    calls, sec = tracer.orphans.get(CLIP, (0, 0.0))
    m["geometry.clip_calls"] += calls
    m["geometry.clip_s"] += sec

    m["upscale.mesh_s"] = total("upscale.upscale_mesh")
    m["upscale.fracture_cells"] = attr_sum("upscale.upscale_mesh", "fracture_cells")
    m["upscale.tag_mismatch"] = attr_sum("upscale.upscale_mesh", "tag_mismatch")

    m["flow.assemble_s"] = total("flow.assemble_tpfa")
    m["flow.solve_s"] = total("flow.solve_pressure")
    m["flow.cg_iterations"] = attr_sum("flow.solve_steady_flow", "iterations")
    m["flow.residual_max"] = max(
        (s.attrs["residual"] for s in spans if s.name == "flow.solve_steady_flow"), default=0.0)

    m["transport.operator_s"] = total("transport.prepare_transport")
    for s in spans:
        if s.name == "transport.run_transport":
            m[f"transport.run_s.{s.attrs['kind']}"] += s.duration
            m["transport.ledger_closure_max"] = max(
                m["transport.ledger_closure_max"], s.attrs["closure"])
    m["transport.steps"] = sum(1 for s in spans if s.name == "transport.step_transport")

    m["topology.graph_s"] = total("topology.build_intersection_graph")
    m["topology.graph_calls"] = sum(
        1 for s in spans if s.name == "topology.build_intersection_graph")
    m["topology.edges"] = attr_sum("topology.build_intersection_graph", "edges")
    m["topology.false_conn_s"] = total("topology.count_false_connections")
    m["topology.false_pairs"] = attr_sum("topology.count_false_connections", "false_pairs")
    m["topology.mesh_percolates_s"] = total("topology.mesh_percolates")

    m["network.generate_s"] = total("network.generate_network")
    m["network.fractures"] = attr_sum("network.generate_network", "fractures")

    m["pipeline.self_s"] = sum(
        t for s, t in zip(spans, own) if s.name == "pipeline.run_pipeline")
    m["pipeline.io_s"] = total("network.save_network") + total("pipeline.report_tables")
    if manifest is not None:
        m["pipeline.points"] = len(manifest["topology_rows"])
        m["pipeline.failures"] = len(manifest["failures"])
        m["pipeline.artifacts"] = len(manifest["artifacts"])
    m["trace.spans"] = len(spans)
    return m
