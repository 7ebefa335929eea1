"""The benchmark scripts run end to end at p = 67, each measurement in a
fresh interpreter on this checkout, as `--baseline` runs make them: a name
of `wplus` that a script uses and that is gone fails here, not only when a
benchmark is next recorded."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
sys.path.insert(0, str(SCRIPTS))

from bench_fppoly import child  # noqa: E402


def _run(script, kind, arg):
    return child(ROOT, kind, arg, script=SCRIPTS / script)


def test_bench_wronskian_wx():
    out = _run("bench_wronskian.py", "wx", 67)["output"]
    assert out["g"] == 2 and out["degree"] == len(out["W_x"]) - 1 == 6


def test_bench_wronskian_head():
    out = _run("bench_wronskian.py", "head", 67)["output"]
    assert (out["g"], out["valuation"], out["precision"]) == (2, 3, 15)


def test_bench_wronskian_lifts():
    out = _run("bench_wronskian.py", "lifts", 67)["output"]
    assert (out["g"], out["window"]) == (2, 23)


def test_bench_wronskian_modp_head():
    out = _run("bench_wronskian.py", "modp_head", 67)["output"]
    assert (out["g"], out["valuation"], out["precision"]) == (2, 3, 15)
    assert out["head"][:6] == [c % 67 for c in (1, -2, -6, 6, 15, 8)]


def test_bench_basis_basis():
    out = _run("bench_basis.py", "basis", 67)["output"]
    assert out["g"] == 2 and out["pivots"] == [1, 2]


def test_bench_fppoly_ladder():
    got = _run("bench_fppoly.py", "ladder", 67)
    assert got["report"]["status"] == "ok" and got["H"] == [62, 10, 1]
    # the child's ru_maxrss after the cold run, numpy resident at least
    assert 10 < got["peak_rss_mb"] < 1000


def test_bench_fppoly_factor(tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"67": [62, 10, 1]}))
    got = _run("bench_fppoly.py", "factor", h)["67"]
    assert got["factors"] == [[[62, 10, 1], 1]] and got["factor_degrees"] == [2]


def test_bench_fppoly_split():
    got = _run("bench_fppoly.py", "split", 67)
    assert got["splits"] is True and got["degree"] == 4
