"""The benchmark's correctness gate, run cold in the test suite: every
prime of the ladder and the basis-only scan must match
perfbench/reference.json outside timings_ms, and none may be an error or a
falsifier.  perfbench/worker.py is imported from its file, and only read.
"""

import importlib.util
from pathlib import Path

import pytest

import wplus

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["ladder", "basis-scan"])
def test_bench_workload_matches_reference(worker, workload, tmp_path):
    # cold: an empty cache, as one benchmark pass runs
    config = wplus.Config(cache_dir=tmp_path, jobs=1)
    reports = worker.run_workload(wplus, workload, config)
    reference = worker.load_reference()
    assert reference[workload]
    assert worker.failed_primes(workload, reports, reference) == []
