"""Desk benchmark for fracscale: one workload per invocation, outputs checked.

    python3 bench/run.py --workload desk-grid --seed 2 --seconds 50 --trace 0

Run from the root of a fracscale checkout; the benchmark imports the
package from ``src/`` of that checkout and refuses to run without it.

Each run builds its inputs from ``--seed``, then runs untraced passes (one
workload pass each, a batch closed loop: the next pass starts when the last
has been checked) for ``--seconds``: at least one, and another only while
the median pass so far still fits in what is left.  With
``--trace 1`` one more pass runs with fracscale's public functions wrapped
in spans (see tracing.py and layers.py); it yields the per-layer metrics and
the tracing overhead.  Everything runs in this one process; BLAS keeps its
default thread count.

End-to-end metrics, from untraced passes only:

  norm_wall_s   median pass wall time (the workload plus its output checks),
                scaled by work(seed 2) / work(this seed), where work is the
                workload's size in cells (fracture cells summed over the grid
                on desk-grid).  The fracture radii are heavy tailed, so raw
                pass times differ by ~15% between seeds on desk-grid; the raw
                median is printed as ``info wall_s``.
  setup_s       first statement of this script to the first timed call: the
                imports of numpy, scipy and fracscale (once per process), the
                median of several constructions of the inputs, and the
                workload's one-off program work (transport-orl2 builds its
                mesh, properties and flow field once, 7-12 s).

Printed by name on every run but not gated, and part of the per-layer
set of a traced run:

  failed_frac   operations that raised, were recorded as pipeline failures
                or missed a check, over operations attempted; it is
                ``failed / attempted`` of the result line and 0 when all is
                well.
  peak_rss_mb   ru_maxrss of this process after the untraced passes.  On
                transport-orl2 it is ~212 or ~235 MB depending on the seed,
                as the allocator keeps or returns freed LU memory, though
                the fill (transport.lu_fill_nnz) is the same for every seed.

Printed: every metric by name and unit, the checks that failed, an
environment record and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics without
tracing, per-layer metrics with it).  Details and spans go under
``bench-out/`` in the checkout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer, installed, self_time_table  # noqa: E402
from workloads import WORKLOADS, check, load_references, reference_entry, tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
SETUP_REPEATS = 5
# norm_wall_s is a pass's wall time scaled to this seed's work size
NORM_SEED = "2"

END_TO_END = [
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs as the workload's reference values")
    return ap.parse_args(argv)


def import_fracscale():
    """Import numpy, scipy and fracscale from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "fracscale" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fracscale sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import scipy.sparse.linalg as spla

    from fracscale import flow, geometry, network, octree, pipeline, topology, transport, upscale

    return SimpleNamespace(
        numpy=numpy, scipy=scipy, spla=spla, network=network, geometry=geometry,
        topology=topology, octree=octree, upscale=upscale, flow=flow,
        transport=transport, pipeline=pipeline,
    )


def environment(fs) -> dict:
    blas = fs.numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": fs.numpy.__version__,
        "scipy": fs.scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration", blas.get("version")),
        "blas_thread_caps": {name: os.environ.get(name) for name in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def one_pass(workload, inputs, prepared, fs, reference, previous):
    """Run and check one pass: (wall_s, ops, fingerprint, observations)."""
    t0 = time.perf_counter()
    try:
        if isinstance(prepared, Exception):
            raise prepared
        obs, fingerprint = workload.run(inputs, fs, prepared)
    except Exception as err:  # noqa: BLE001 - a raising pass is a failed result, not a crash
        traceback.print_exc()
        obs, fingerprint = {"pass": {"errors": [f"{type(err).__name__}: {err}"]}}, None
    ops = check(workload, inputs, obs, reference)
    if fingerprint is not None and previous is not None:
        ops["determinism"] = [] if fingerprint == previous else [
            "manifest.json differs from the previous pass into the same output path"]
    return time.perf_counter() - t0, ops, fingerprint, obs


def report_pass(label, wall, ops, extra=""):
    failed = sum(1 for problems in ops.values() if problems)
    print(f"{label}: {wall:.3f} s{extra}, {len(ops)} operations, {failed} failed", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    fs = import_fracscale()
    t_imported = time.perf_counter()
    workload = WORKLOADS[args.workload]
    out = ROOT / "bench-out"
    out.mkdir(exist_ok=True)
    construct = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.inputs(args.seed, ROOT, out, fs)
        construct.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        prepared = workload.prepare(inputs, fs)
    except Exception as err:  # noqa: BLE001 - every pass then fails its operations
        traceback.print_exc()
        prepared = err
    prepare_s = time.perf_counter() - t0
    setup_s = (t_imported - T_START) + statistics.median(construct) + prepare_s
    output_dir = workload.output_dir(inputs)
    if output_dir is not None:
        shutil.rmtree(output_dir, ignore_errors=True)
    references = load_references(REFERENCE_PATH)
    reference = references.get(workload.name, {}).get(str(args.seed))
    base_work = workload.work(references.get(workload.name, {}).get(NORM_SEED, {}))

    # untraced passes: the end-to-end metrics
    walls, norm_walls, checked, fingerprint = [], [], [], None
    started = time.perf_counter()
    while not walls or time.perf_counter() - started + statistics.median(walls) <= args.seconds:
        wall, ops, fingerprint, obs = one_pass(
            workload, inputs, prepared, fs, reference, fingerprint)
        work = workload.work(obs)
        walls.append(wall)
        norm_walls.append(wall * base_work / work if base_work and work else wall)
        checked.append(ops)
        report_pass(f"pass {len(walls)}", wall, ops, f" (work {work}, seed {NORM_SEED}: {base_work})")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.record:
        if tally(checked)[1]:
            raise SystemExit("bench: not recording outputs that failed their checks")
        references.setdefault(workload.name, {})[str(args.seed)] = reference_entry(obs)
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {workload.name} seed {args.seed} in {REFERENCE_PATH.name}")

    # one traced pass: the per-layer metrics
    layer, tracer = None, None
    if args.trace:
        tracer = Tracer()
        with installed(layers.patches(tracer, fs)):
            wall, ops, fingerprint, obs = one_pass(
                workload, inputs, prepared, fs, reference, fingerprint)
        checked.append(ops)
        report_pass("traced pass", wall, ops)
        manifest = None
        if output_dir is not None and (output_dir / "manifest.json").is_file():
            with open(output_dir / "manifest.json", encoding="utf-8") as fh:
                manifest = json.load(fh)
        layer = layers.metrics(tracer, manifest)
        layer["trace.wall_s"] = wall
        layer["trace.overhead_s"] = wall - statistics.median(walls)
        layer["peak_rss_mb"] = peak_rss_mb

    attempted, failed = tally(checked)
    problems = sorted({p for ops in checked for found in ops.values() for p in found})
    for problem in problems:
        print(f"check failed: {problem}")
    if reference is None:
        print(f"no reference values for seed {args.seed}: invariant checks only")

    end_to_end = {"norm_wall_s": statistics.median(norm_walls), "setup_s": setup_s}
    env = environment(fs)
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    for name, unit in END_TO_END:
        print(f"metric {name} = {end_to_end[name]:.6g} {unit}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB")
    print(f"info wall_s = {statistics.median(walls):.6g} s "
          f"(median of {len(walls)} passes, not size-scaled, not gated)")
    print(f"info cpu_s = {env['cpu_s']:.6g} s (process CPU, not gated)")
    if layer is not None:
        layer["failed_frac"] = failed / attempted
        print("per-layer self time (traced pass):")
        print(f"  {'span or leaf':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, calls, total, own in self_time_table(tracer.spans, tracer.orphans):
            print(f"  {name:40s} {calls:8d} {total:10.4f} {own:10.4f}")
        for name, unit, _ in layers.PER_LAYER:
            if name not in ("failed_frac", "peak_rss_mb"):
                print(f"metric {name} = {layer[name]:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))

    if layer is not None:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out / f"{tag}-spans.jsonl")
    with open(out / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "walls_s": walls, "norm_walls_s": norm_walls, "end_to_end": end_to_end,
                   "peak_rss_mb": peak_rss_mb, "per_layer": layer, "problems": problems,
                   "environment": env,
                   "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
