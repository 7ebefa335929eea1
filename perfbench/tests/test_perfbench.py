"""Tests of the benchmark's own code: span arithmetic, tracer installation
and the reference comparison.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402


class FakeClock:
    """Reads 0, 1, 2, ... one tick per call."""

    def __init__(self):
        self.now = -1

    def __call__(self):
        self.now += 1
        return float(self.now)


def test_self_time_subtracts_child_spans():
    tr = Tracer(clock=FakeClock())
    leaf = tr.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = tr.wrap("middle", middle_body)

    def outer_body():
        middle()
        leaf()

    outer = tr.wrap("outer", outer_body)
    outer()
    # ticks: outer 0..9, middle 1..6 (leaves 2..3, 4..5), leaf 7..8
    summary = tr.summary()
    assert summary["leaf"] == {"self_s": 3.0, "calls": 3, "values": []}
    assert summary["middle"]["self_s"] == 5.0 - 2.0
    assert summary["outer"]["self_s"] == 9.0 - 5.0 - 1.0
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1, 0]


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.spans[0][2] is not None and tr._open == []


def test_every_target_installs_and_uninstalls():
    import wplus
    from wplus import pipeline, supersingular, weierstrass

    before = (pipeline.extract_Fp, weierstrass.divisor_polynomial,
              supersingular.j_function, wplus.series.QExpansion.__mul__)
    tr = Tracer()
    assert tr.install() == []
    try:
        assert pipeline.extract_Fp is weierstrass.extract_Fp
        assert pipeline.extract_Fp is not before[0]
        assert weierstrass.divisor_polynomial is not before[1]
        assert supersingular.j_function is not before[2]
        assert wplus.verify_prime is pipeline.verify_prime
    finally:
        tr.uninstall()
    assert (pipeline.extract_Fp, weierstrass.divisor_polynomial,
            supersingular.j_function,
            wplus.series.QExpansion.__mul__) == before


def test_traced_prime_self_times_add_up(tmp_path):
    import wplus

    tr = Tracer()
    tr.install()
    try:
        report = wplus.verify_prime(67, wplus.Config(cache_dir=tmp_path))
    finally:
        tr.uninstall()
    assert report.status == "ok"
    roots = [s for s in tr.spans if s[3] == -1]
    assert [tr.names[s[0]] for s in roots] == ["pipeline.self"]
    summary = tr.summary()
    total_self = sum(e["self_s"] for e in summary.values())
    assert total_self == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
    metrics = layer_metrics(summary)
    assert metrics["cache.get_calls"] > 0 and metrics["cache.put_calls"] > 0
    assert metrics["weierstrass.lift_calls"] == report.g_plus


def test_benchmark_json_names_only_metrics_the_runner_makes():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    made = set(layer_metrics({})) | {
        "cache.bytes", "trace.overhead_frac", "trace.traced_wall_s",
        "trace.untraced_wall_s"}
    assert {m["name"] for m in spec["per_layer"]} <= made
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_rel", "setup_s", "peak_rss_mb"}
    assert len({name for name, _, _ in TARGETS}) == len(TARGETS)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_flipped_pivot_in_the_reference_fails_that_prime(workload):
    reference = worker.load_reference()
    reports = [dict(ref, timings_ms={"total": 1.0})
               for ref in reference[workload]]
    assert worker.failed_primes(workload, reports, reference) == []

    tampered = copy.deepcopy(reference)
    target = tampered[workload][-1]
    target["pivots"][-1] += 1
    failed = worker.failed_primes(workload, reports, tampered)
    assert failed == [target["p"]]
    assert len(failed) / len(tampered[workload]) > 0


def test_error_status_and_missing_prime_fail():
    reference = worker.load_reference()
    reports = [dict(ref) for ref in reference["basis-scan"]]
    reports[0]["status"] = "error"
    del reports[1]
    failed = worker.failed_primes("basis-scan", reports, reference)
    assert failed == [reference["basis-scan"][0]["p"],
                      reference["basis-scan"][1]["p"]]


def test_reference_records_the_checked_fields():
    reference = worker.load_reference()
    assert [r["p"] for r in reference["ladder"]] == list(worker.LADDER)
    assert all("timings_ms" not in r for r in reference["ladder"])
    assert len(reference["basis-scan"]) == 32
    assert all(set(r) == set(worker.SCAN_FIELDS)
               for r in reference["basis-scan"])
