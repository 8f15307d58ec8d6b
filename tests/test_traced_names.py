"""The traced benchmark (bench/run.py --trace 1) wraps fracscale functions by name.

These tests build its patch list against the live modules and run a small
flow and transport under it, so renaming or removing a wrapped name, or
calling the sparse LU other than as ``scipy.sparse.linalg.splu``, fails
here instead of breaking the traced benchmark.  bench/ is only read.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse.linalg as spla

from fracscale import flow, geometry, network, octree, pipeline, topology, transport, upscale

from conftest import box_mesh, uniform_props

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracing import Tracer, installed  # noqa: E402


@pytest.fixture
def fs():
    """The namespace bench/run.py hands to layers.patches."""
    return SimpleNamespace(
        numpy=np, scipy=scipy, spla=spla, network=network, geometry=geometry,
        topology=topology, octree=octree, upscale=upscale, flow=flow,
        transport=transport, pipeline=pipeline,
    )


def test_every_wrapped_name_exists_where_it_is_installed(fs):
    patches = layers.patches(Tracer(), fs)
    assert patches
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in patches
               if not hasattr(module, attr)]
    assert missing == []


def test_traced_flow_and_transport_count_their_factorizations(fs):
    mesh = box_mesh((2.0, 0.5, 0.5), 0.25)
    props = uniform_props(mesh, 1e-12, 0.01)
    tracer = Tracer()
    with installed(layers.patches(tracer, fs)):
        field = fs.flow.solve_steady_flow(mesh, props, fs.flow.FlowBC(1000.0, 0.0), method="direct")
        fs.transport.run_transport(
            mesh, props, field, fs.transport.TracerParams(), 1.0,
            output_times_yr=[0.5, 1.0], dt0_yr=0.25, growth=1.0,
        )
    m = layers.metrics(tracer, None)
    assert m["flow.direct_solves"] == 1
    assert m["transport.steps"] == 4
    assert m["transport.factorizations"] == 1
    assert m["transport.lu_fill_nnz"] > 0
    assert m["flow.assemble_s"] > 0 and m["transport.operator_s"] > 0

