"""Tests of the benchmark itself: span arithmetic and checks that can fail.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Span, Tracer, installed, self_time_table, self_times  # noqa: E402
from workloads import WORKLOADS, check, load_references, tally  # noqa: E402


def test_self_time_subtracts_merged_children_and_leaves():
    spans = [
        Span("root", 0.0, 10.0),
        # overlapping children cover [1, 4]; the overhanging one adds [8, 10]
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 4.0, parent=0),
        Span("c", 8.0, 12.0, parent=0, leaves={"clip": [3, 0.5]}),
        Span("d", 5.0, 6.0, parent=1),
    ]
    spans[0].leaves["clip"] = [10, 1.25]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0 - 1.25)
    assert own[1] == pytest.approx(2.0)  # d lies outside a and is clipped away
    assert own[3] == pytest.approx(4.0 - 0.5)
    assert own[4] == pytest.approx(1.0)

    rows = {name: (calls, total, own) for name, calls, total, own in self_time_table(spans)}
    assert rows["clip"] == (13, pytest.approx(1.75), pytest.approx(1.75))
    assert rows["root"][2] == pytest.approx(3.75)


def test_tracer_nests_spans_and_attributes_leaves():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Module:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def inner(x):
            return Module.leaf(x) * 2

        @staticmethod
        def outer(x):
            return Module.inner(x) + Module.leaf(x)

    patches = [
        (Module, "outer", tracer.span("m.outer", Module.outer)),
        (Module, "inner", tracer.span("m.inner", Module.inner)),
        (Module, "leaf", tracer.leaf("m.leaf", Module.leaf)),
    ]
    original = Module.outer
    with installed(patches):
        assert Module.outer(1) == 6
    assert Module.outer is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.parent) == ("m.outer", -1, 0)
    assert outer.leaves["m.leaf"][0] == 1 and inner.leaves["m.leaf"][0] == 1
    assert outer.start < inner.start < inner.end < outer.end


def _orl3_observation(reference):
    fields = dict(reference)
    fields.update(tag_mismatch=0, k_harmonic=fields["k_eff"] / 2,
                  k_arithmetic=fields["k_eff"] * 2, q_in=1.0, q_out=1.0)
    return fields


def test_reference_values_pass_and_a_corrupted_one_fails():
    workload = WORKLOADS["orl3-flow"]
    reference = load_references(HERE / "reference.json")[workload.name]["2"]
    point = workload.POINT
    obs = {point: _orl3_observation(reference[point])}
    assert check(workload, None, obs, reference) == {point: []}

    corrupted = {point: dict(reference[point])}
    corrupted[point]["k_eff"] *= 1 + 1e-6
    corrupted[point]["cells"] += 1
    ops = check(workload, None, obs, corrupted)
    assert len(ops[point]) == 2
    attempted, failed = tally([check(workload, None, obs, reference), ops])
    assert (attempted, failed) == (2, 1)


def test_invariants_fail_without_a_reference():
    workload = WORKLOADS["orl3-flow"]
    reference = load_references(HERE / "reference.json")[workload.name]["2"]
    point = workload.POINT
    fields = _orl3_observation(reference[point])
    fields["k_arithmetic"] = fields["k_eff"] * (1 - 1e-5)
    fields["q_out"] = 0.5
    fields["tag_mismatch"] = 3
    problems = check(workload, None, {point: fields}, None)[point]
    assert len(problems) == 3
    assert check(workload, None, {}, None)[point] == [f"{point}: no output"]


def test_benchmark_json_lists_what_run_prints():
    import json

    import layers
    import run

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in WORKLOADS if name in listed]
    assert {"transport-orl2", "desk-grid"} <= set(listed)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
