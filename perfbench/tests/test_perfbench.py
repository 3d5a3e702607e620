"""Tests of the benchmark's own code: span arithmetic, metric naming,
tracer installation, and the output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import time
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads
import worker
from liecohom import analysis, cohomology, corpus, hodge, linalg, verification
from liecohom.exterior import Form
from liecohom.scalars import Scalar

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = ["kodaira-secondary", "sl2c"]  # the two cheapest tables inputs


def test_self_time_on_nested_span_tree():
    #  A [0,10]
    #  +- B [1,4]
    #  |  +- C [2,3]
    #  +- B [5,7]
    #  +- D [8,9]
    #  E [10,20]          (recursive: E inside E)
    #  +- E [12,15]
    names = ["A", "B", "C", "B", "D", "E", "E"]
    parents = [-1, 0, 1, 0, 0, -1, 5]
    starts = [0.0, 1.0, 2.0, 5.0, 8.0, 10.0, 12.0]
    ends = [10.0, 4.0, 3.0, 7.0, 9.0, 20.0, 15.0]
    s = tracer.summarize(names, parents, starts, ends)
    assert s["A"] == {"calls": 1, "self": 4.0, "incl": 10.0}
    assert s["B"] == {"calls": 2, "self": 4.0, "incl": 5.0}
    assert s["C"] == {"calls": 1, "self": 1.0, "incl": 1.0}
    assert s["D"] == {"calls": 1, "self": 1.0, "incl": 1.0}
    # self time adds up to the root's span; inclusive time counts E once
    assert s["E"] == {"calls": 2, "self": 10.0, "incl": 10.0}


def test_every_ratio_is_reported_with_its_base():
    ratios = [n for n, spec in tracer.PER_LAYER.items() if spec["unit"] == "ratio"]
    assert set(ratios) == set(tracer.RATIO_BASES)
    for ratio, base in tracer.RATIO_BASES.items():
        assert base in tracer.PER_LAYER
    extra = {
        "linalg.quotient.rows_scanned": 8,
        "linalg.quotient.accepted": 6,
        "hodge.gram.hits": 1,
        "analysis.aeppli_decision.decided": 4,
        "analysis.aeppli_decision.obstructions": 3,
    }
    summary = {"hodge.gram": {"calls": 4, "self": 0.5, "incl": 0.5}}
    m = tracer.layer_metrics(summary, {}, extra)
    assert m["linalg.quotient.accept_ratio"] == 6 / 8
    assert m["hodge.gram.hit_ratio"] == 1 / 4
    assert m["analysis.aeppli_decision.obstruction_ratio"] == 3 / 4
    # a ratio over an empty base reads 0 next to its base of 0
    empty = tracer.layer_metrics({}, {}, {})
    assert empty["linalg.quotient.accept_ratio"] == 0
    assert empty["linalg.quotient.rows_scanned"] == 0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads(BENCHMARK_JSON.read_text())
    units = run.units()
    for name in units:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert NAME.fullmatch(m["name"])
        assert m["unit"] == units[m["name"]]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_tampered_golden_copy_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN, golden)
    good = worker.run_pass(workloads.Tables(golden, SMALL), 0, 0, "run")
    assert good["failed"] == 0
    path = golden / "kodaira-secondary.json"
    path.write_text(path.read_text().replace('"dim": 1', '"dim": 2', 1))
    bad = worker.run_pass(workloads.Tables(golden, SMALL), 0, 0, "run")
    assert bad["failed"] == 1
    result = run.aggregate([{"setup_s": 0.1, "raw_setup_s": 0.1}], [good, bad], [])
    assert not result["correct"]
    line = json.loads(run.report(result))
    assert line["failed"] / line["attempted"] > 0  # error_rate
    assert line["correct"] is False


def test_dimension_invariants_catch_a_broken_table():
    data = json.loads((workloads.GOLDEN / "iwasawa.json").read_text())
    assert workloads.dimension_invariants(data) == []
    data["cohomology"]["bc"]["1,0"]["dim"] += 1
    problems = workloads.dimension_invariants(data)
    assert "h_BC^1,0 != h_BC^0,1" in problems


def test_sweep_checks_catch_a_wrong_pairing_and_harmonic_dimension():
    s = corpus.get("kodaira-secondary").load().structure
    h = hodge.HermitianMetric.identity(s.n)
    inputs = workloads.SweepInputs(s, [h], {})
    op = workloads.Op("metric-0", "bench.op", None)
    out = workloads.sweep_metric(s, h)
    assert out.decisions and out.harmonic
    assert workloads.MetricSweep().check(inputs, op, out) == []
    (_, decision), = out.decisions
    decision.pairing = decision.pairing + 1
    args, forms = out.harmonic[0]
    out.harmonic[0] = (args, forms + forms)
    problems = workloads.MetricSweep().check(inputs, op, out)
    assert problems == [
        "p=1: obstruction pairing is zero or differs",
        "harmonic Aeppli dimension at (1,1) != quotient",
    ]


def test_verify_gate_fails_a_failed_or_vanished_check():
    gate = workloads.VerifyGate()
    seed, names = gate.setup(0, 0)
    assert sum(len(v) for v in names.values()) == 45
    ops = gate.ops((seed, {**names, "retired-criterion": ["retired-criterion"]}))
    assert ops[-1].label == "retired-criterion"
    with pytest.raises(RuntimeError):
        ops[-1].run()
    failing = [verification.CheckResult("lefschetz-rank", False, "rank 2 < 3")]
    assert gate.check((seed, names), ops[8], failing) == ["lefschetz-rank: FAIL rank 2 < 3"]
    renamed = [verification.CheckResult("lefschetz", True)]
    assert gate.check((seed, names), ops[8], renamed)


def test_tracer_wraps_every_binding_and_restores_originals():
    originals = {
        "kernel_basis": linalg.kernel_basis,
        "rref": linalg.rref,
        "_matrix_for": cohomology._matrix_for,
        "mul": Scalar.__dict__["__mul__"],
        "wedge": Form.__dict__["wedge"],
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert cohomology.kernel_basis is analysis.kernel_basis is linalg.kernel_basis
        assert linalg.kernel_basis.__wrapped__ is originals["kernel_basis"]
        assert hodge.rref.__wrapped__ is originals["rref"]
        assert analysis._matrix_for.__wrapped__ is originals["_matrix_for"]
        assert Scalar.__dict__["__rmul__"].__wrapped__ is originals["mul"]
        assert Form.__dict__["__xor__"].__wrapped__ is originals["wedge"]
        assert t.missing == []
    finally:
        t.uninstall()
    assert linalg.kernel_basis is cohomology.kernel_basis is originals["kernel_basis"]
    assert hodge.rref is originals["rref"]
    assert analysis._matrix_for is originals["_matrix_for"]
    assert Scalar.__dict__["__rmul__"] is originals["mul"]
    assert Form.__dict__["__xor__"] is originals["wedge"]


def test_traced_pass_gives_the_untraced_outputs():
    plain = worker.run_pass(workloads.Tables(entries=SMALL), 0, 0, "run")
    traced = worker.run_pass(workloads.Tables(entries=SMALL), 0, 0, "trace")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digests"] == traced["digests"]
    layers = traced["layers"]
    assert set(layers) == {n for n, s in tracer.PER_LAYER.items() if s["kind"] != "run"}
    assert layers["cohomology.report.s"] > 0
    assert layers["scalars.mul"] > 0
    result = run.aggregate([], [plain], [traced])
    assert result["correct"]
    assert set(result["metrics"]) == set(tracer.PER_LAYER)


def test_changed_traced_output_counts_as_a_failure():
    plain = worker.run_pass(workloads.Tables(entries=SMALL), 0, 0, "run")
    traced = dict(plain, layers={}, digests=["x"] + plain["digests"][1:])
    result = run.aggregate([], [plain], [traced])
    assert result["failed"] == 1 and not result["correct"]


def test_speed_scaling_uses_the_median_probe_around_each_stretch():
    ref = speed.REFERENCE_PROBE_S
    # probes at twice the reference duration: every stretch counts half
    assert speed.scale([1.0, 3.0], [2 * ref] * 3) == pytest.approx(2.0)
    # one slow probe does not move the median of any window it is in
    assert speed.scale([1.0] * 4, [ref, ref, 9 * ref, ref, ref]) == pytest.approx(4.0)


def test_speedometer_probes_during_the_span_and_leaves_them_out():
    start = time.perf_counter()
    with speed.Speedometer() as meter:
        while time.perf_counter() - start < 0.3:
            pass
    elapsed = time.perf_counter() - start
    assert meter.probes >= 4  # one at each end and about one per PERIOD_S
    assert 0 < meter.raw_s < elapsed
    assert meter.scaled_s > 0
