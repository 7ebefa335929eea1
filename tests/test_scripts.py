"""The bench script's measurements run end to end at small inputs, each in a
fresh interpreter on this checkout, as `--baseline` runs make them: a name
of `wplus` that a measurement uses and that is gone fails here, not only
when a benchmark is next recorded."""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench import child  # noqa: E402


def _run(kind, arg):
    return child(ROOT, kind, arg)


def test_bench_wronskian_wx():
    out = _run("wx", 67)["output"]
    assert out["g"] == 2 and out["degree"] == 6
    assert out["W_x_sha256"] == (
        "c9380cb4cf0017be607bdb6e3ad5a3d5483ace7902b0ed4a4561a73378e08f57")


def test_bench_wronskian_head():
    out = _run("head", 67)["output"]
    assert (out["g"], out["valuation"], out["precision"]) == (2, 3, 15)


def test_bench_wronskian_lifts():
    out = _run("lifts", 67)["output"]
    assert (out["g"], out["window"]) == (2, 23)


def test_bench_wronskian_class_poly():
    out = _run("class_poly", 268)["output"]
    assert out["h"] == 3
    assert out["H_D_sha256"] == (
        "03ed87d544c3ab69d52f0858130df3462f2b2301caecd00541acccd48e3b1172")


def test_bench_wronskian_sweep():
    # the cache files of the 187 class polynomials, as BENCH_wronskian.json
    # records them
    out = _run("sweep", None)["output"]
    assert out == {"count": 187, "cache_sha256": (
        "74ab0ae58b16b695459e802f1f2c24d02c4fb43cfe354fe5347f3ed2d122a73e")}


def test_bench_basis_basis():
    out = _run("basis", 67)["output"]
    assert out["g"] == 2 and out["pivots"] == [1, 2]


def test_bench_basis_scan():
    got = _run("scan", None)
    out = got["output"]
    assert len(out) == 32
    assert {r["status"] for r in out} <= {"ok", "not_good_basis"}
    # split as the basis kind is: the parts and the rest add up to the total
    ms = got["timings_ms"]
    assert set(ms) == {"space", "hecke", "pivots", "rest", "total"}
    assert min(ms.values()) >= 0
    assert math.isclose(sum(ms.values()) - ms["total"], ms["total"])


def test_bench_fppoly_ladder():
    got = _run("ladder", 67)
    report = got["output"]["report"]
    assert report["status"] == "ok" and report["polys"]["H"] == [62, 10, 1]
    # the child's ru_maxrss after the cold run, numpy resident at least
    assert 10 < got["peak_rss_mb"] < 1000


def test_bench_fppoly_layers():
    got = _run("layers", None)
    assert got.pop("output") is None and list(got) == ["100", "500", "2000"]
    assert all(r["divmod_reps"] >= 3 and r["pow_mod_reps"] >= 3
               for r in got.values())


def test_bench_fppoly_factor():
    got = _run("factor", {"67": [62, 10, 1]})
    assert got["output"]["67"] == [[[62, 10, 1], 1]]
    assert got["67"]["factor_degrees"] == [2]


def test_bench_fppoly_split():
    got = _run("split", 67)
    assert got["output"] is True and got["degree"] == 4


def test_bench_child_names_its_failure():
    # the kind, the argument, the checkout, the exit code and the child's
    # traceback, not a bare CalledProcessError
    with pytest.raises(RuntimeError, match="unknown measurement") as err:
        _run("no_such_kind", 67)
    message = str(err.value)
    assert "no_such_kind 67" in message and str(ROOT) in message
    assert "exited 1" in message and "ValueError" in message


def test_bench_environment_without_mpmath(monkeypatch):
    # the basis suite runs without mpmath, so its absence is recorded, not
    # raised
    import importlib.metadata

    import bench

    version = importlib.metadata.version

    def missing_mpmath(package):
        if package == "mpmath":
            raise importlib.metadata.PackageNotFoundError(package)
        return version(package)

    monkeypatch.setattr(importlib.metadata, "version", missing_mpmath)
    env = bench.environment()
    assert env["mpmath"] is None and env["numpy"] == version("numpy")
