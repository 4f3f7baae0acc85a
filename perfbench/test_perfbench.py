"""Tests of the benchmark's own logic.  Run with

    python3 -m pytest perfbench
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import Ledger  # noqa: E402


def _spans(*rows):
    return [Span(name, start, end, parent, "r") for name, start, end, parent in rows]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = _spans(("root", 0.0, 10.0, -1),
                   ("a", 1.0, 4.0, 0),
                   ("b", 2.0, 3.0, 1),
                   ("c", 5.0, 6.0, 0))
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_and_counts_overlap_once():
    spans = _spans(("root", 0.0, 4.0, -1),
                   ("x", 1.0, 3.0, 0),
                   ("x", 2.0, 5.0, 0))      # overlaps its sibling, overruns the parent
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(1.0)    # only [0, 1] is uncovered
    assert tracing.self_by_name(spans)["x"] == pytest.approx(2.0 + 3.0)


def test_traced_calls_account_for_the_root_span():
    tracer = tracing.Tracer("t")

    def inner(n):
        return sum(range(n))

    traced_inner = tracer.wrap("layer.inner", inner, points=lambda n: n)

    def outer():
        return [traced_inner(20_000) for _ in range(3)]

    traced_outer = tracer.wrap("layer.outer", outer)
    with tracer.span(tracing.ROOT):
        traced_outer()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["layer.inner.calls"] == 3
    assert metrics["layer.inner.points"] == 60_000
    assert metrics["layer.outer.calls"] == 1
    assert "layer.outer.points" not in metrics
    own = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert sum(own) == pytest.approx(metrics["trace.root_s"], rel=1e-9)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 1]


# ---------------------------------------------------------------------------
# Digits
# ---------------------------------------------------------------------------

def test_digits():
    assert workloads.digits(1e-6) == pytest.approx(6.0)
    assert workloads.digits(-2.5e-3) == pytest.approx(-math.log10(2.5e-3))
    assert workloads.digits(0.0) == workloads.DIGITS_CAP
    assert workloads.digits(float("inf")) == 0.0
    assert workloads.digits(float("nan")) == 0.0


def test_accuracy_digits_takes_the_worst_figure():
    figures = {"affine.riccati_err": 1e-10, "verify.residual_max": 2e-6,
               "spectral.zeta_err": 1e-12, "spectral.psi_err": 1e-12,
               "spectral.eigfn_err": 1e-8}
    assert workloads.accuracy_digits("pde_certify", figures) == \
        pytest.approx(workloads.digits(2e-6))
    del figures["spectral.eigfn_err"]
    assert workloads.accuracy_digits("pde_certify", figures) == 0.0


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------

def test_ledger_counts_errors_and_checks_and_carries_on():
    ledger = Ledger()

    def boom():
        raise ValueError("injected")

    assert ledger.call("ok", lambda: 3) == 3
    assert ledger.call("boom", boom) is None
    assert ledger.check("true", lambda: True)
    assert not ledger.check("false", lambda: False)
    assert not ledger.check("raises", lambda: None + 1)
    assert ledger.within("small", "fig", lambda: 1e-9, 1e-6) == 1e-9
    assert ledger.within("large", "fig", lambda: 1e-3, 1e-6) == 1e-3
    assert ledger.attempted == 7
    assert ledger.failed == 4
    assert ledger.figures["fig"] == 1e-3


def test_injected_failure_is_counted_and_the_workload_finishes(monkeypatch, tmp_path):
    import fpplab.sim

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(fpplab.sim, "feynman_kac_estimate", broken)
    setup, run_job = workloads.WORKLOADS["mc_certify"]
    ledger = Ledger()
    run_job(setup(1, workloads.TINY, str(tmp_path)), ledger, tracing.NoTrace())
    # Two estimates raise, and the two comparisons that need them fail.
    assert ledger.failed == 4
    assert all("feynman-kac" in f for f in ledger.failures)
    assert "verify.control_max_z" in ledger.figures     # later steps still ran
    record = {"trace": 0, "workload": "mc_certify", "failures": ledger.failures,
              "attempted": ledger.attempted,
              "end_to_end": {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0,
                             "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
                             "accuracy_digits": 0.0}}
    line = run.result_line(record, _spec())
    assert line["correct"] is False
    assert line["failed"] == 4 and line["attempted"] == ledger.attempted
    assert line["metrics"]["pass_ratio"]["value"] == pytest.approx(
        1.0 - 4 / ledger.attempted)


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check_traced_and_untraced(name, tmp_path):
    import fpplab.sim

    setup, run_job = workloads.WORKLOADS[name]
    for sub in ("plain", "traced"):
        (tmp_path / sub).mkdir()
    ledger = Ledger()
    run_job(setup(3, workloads.TINY, str(tmp_path / "plain")), ledger, tracing.NoTrace())
    assert ledger.failures == []

    original = fpplab.sim.simulate
    tracer = tracing.Tracer("smoke")
    tracing.install(tracer)
    try:
        traced = Ledger()
        with tracer.span(tracing.ROOT):
            run_job(setup(3, workloads.TINY, str(tmp_path / "traced")), traced, tracer)
    finally:
        tracer.uninstall()
    assert fpplab.sim.simulate is original
    assert traced.failures == []
    assert traced.figures == ledger.figures
    metrics = tracing.layer_metrics(tracer)
    own = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert sum(own) == pytest.approx(metrics["trace.root_s"], rel=1e-9)
    names = set(metrics) | set(workloads.FIGURES) | {"trace.overhead_s", "trace.overhead_pct"}
    assert names == {m["name"] for m in _spec()["per_layer"]}


def test_result_line_lists_the_per_layer_metrics_in_spec_order():
    spec = _spec()
    names = [m["name"] for m in spec["per_layer"]]
    record = {"trace": 1, "workload": "cli_pipeline", "failures": [], "attempted": 5,
              "per_layer": {name: float(i) for i, name in enumerate(reversed(names))}}
    line = run.result_line(record, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 5
    assert list(line["metrics"]) == names
    assert line["metrics"][names[0]] == {"value": float(len(names) - 1),
                                         "unit": spec["per_layer"][0]["unit"]}
    del record["per_layer"][names[-1]]
    with pytest.raises(run.BenchError):
        run.result_line(record, spec)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
