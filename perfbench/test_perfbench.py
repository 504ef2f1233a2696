"""Tests of the benchmark itself: the trace table and the reference-answer gate.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bench import Finished, Invocation, layer_metrics  # noqa: E402
from probe import TRACE_TABLE, Tracer, resolve  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


@pytest.mark.parametrize("entry", [entry for entry, _ in TRACE_TABLE])
def test_trace_table_entry_resolves(entry):
    _, _, fn, _ = resolve(entry)
    assert callable(fn)


@pytest.mark.parametrize("entry", ["nlkuramoto.run.no_such_function",
                                   "nlkuramoto.no_such_module.simulate",
                                   "nlkuramoto.run.integrate_flow:no_such_argument"])
def test_stale_trace_entry_fails_loudly(entry):
    with pytest.raises(LookupError, match="trace table entry"):
        Tracer().install([(entry, "stale")])


def test_spans_nest_and_wrap_arguments():
    import types

    module = types.ModuleType("fake")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    module.apply = lambda fn, x: fn(x)
    sys.modules["fake"] = module
    try:
        tracer = Tracer()
        tracer.install([("fake.inner", "in"), ("fake.outer", "out"),
                        ("fake.apply:fn", "callback")])
        assert module.outer(1) == 4
        assert module.apply(module.inner, 2) == 3
    finally:
        del sys.modules["fake"]
    names = [(name, parent) for name, parent, _, _ in tracer.spans]
    assert names == [("out", -1), ("in", 0), ("callback", -1), ("in", 2)]


def test_layer_metrics_subtract_child_time():
    spans = [["run.simulate", -1, 0.0, 10.0],
             ["integrate.step", 0, 1.0, 5.0],
             ["dynamics.rhs", 1, 1.0, 2.0],
             ["dynamics.rhs", 1, 2.0, 4.0],
             ["dynamics.rhs", 0, 5.0, 6.0]]
    done = Finished(exit_code=0, wall_s=12.0, peak_rss_mb=1.0, stdout="", stderr="",
                    timed_out=False)
    inv = Invocation(done, [], {"spans": spans}, output_files=2, output_bytes=10)
    metrics = layer_metrics(inv, WORKLOADS["relax-1d"], 6.0)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["run.simulate_self_s"] == pytest.approx(5.0)
    assert value["integrate.step_self_s"] == pytest.approx(1.0)
    assert value["dynamics.rhs_s"] == pytest.approx(4.0)
    assert value["integrate.rhs_per_step"] == 3.0
    assert value["trace.overhead_ratio"] == 2.0


def _relax_report(tmp_path, lambda_star):
    report = {"lambda_star": lambda_star, "c_p_domain": 1.0,
              "pointwise_ok": True, "rate_ok": True}
    (tmp_path / "relaxation_report.json").write_text(json.dumps(report))
    return tmp_path


def _failed(checks):
    return [name for name, ok in checks if not ok]


def test_gate_passes_pinned_answers(tmp_path):
    reference = load_reference()
    relax = WORKLOADS["relax-1d"]
    outdir = _relax_report(tmp_path, reference["relax-1d"]["lambda_star"])
    assert _failed(relax.check(0, outdir, "", reference)) == []

    poincare = WORKLOADS["poincare-2d"]
    stdout = (f"C_P_domain = 2.8284271247461907\n"
              f"lambda_star = {reference['poincare-2d']['lambda_star']!r}\n")
    assert _failed(poincare.check(0, tmp_path, stdout, reference)) == []


@pytest.mark.parametrize("workload", ["relax-1d", "poincare-2d"])
def test_gate_fails_on_perturbed_lambda_star(tmp_path, workload):
    reference = load_reference()
    computed = reference[workload]["lambda_star"]
    reference[workload]["lambda_star"] = computed * (1.0 + 1e-7)
    outdir = _relax_report(tmp_path, computed)
    stdout = f"C_P_domain = 2.8284271247461907\nlambda_star = {computed!r}\n"
    checks = WORKLOADS[workload].check(0, outdir, stdout, reference)
    assert _failed(checks) == ["lambda_star=pinned"]


def test_gate_fails_without_answers(tmp_path):
    checks = WORKLOADS["sweep-eps-2d"].check(1, tmp_path, "", load_reference())
    assert len(_failed(checks)) == 2  # the exit code and the missing report


def test_benchmark_json_names_what_the_bench_reports():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    done = Finished(exit_code=0, wall_s=1.0, peak_rss_mb=1.0, stdout="", stderr="",
                    timed_out=False)
    inv = Invocation(done, [], {"spans": []}, output_files=0, output_bytes=0)
    reported = layer_metrics(inv, WORKLOADS["poincare-2d"], 1.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: m["unit"] for name, m in reported.items()}


def test_node_count_follows_the_overrides():
    assert [w.node_count for w in WORKLOADS.values()] == [512, 24 * 24, 56 * 56]
