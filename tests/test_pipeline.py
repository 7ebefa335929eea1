"""The scan driver: serial and pooled scans, what `import wplus` and a run
load, and the work a JSON run leaves out."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wplus.config import Config
from wplus.errors import WplusError
from wplus.fppoly import FpPoly
from wplus import pipeline
from wplus.pipeline import scan_primes, verify_prime
from wplus.report import VerificationReport

ROOT = Path(__file__).resolve().parent.parent

#: the "H factors" lines of the text report, as it printed them when the
#: chain factored H on every run
H_FACTORS = {
    67: "  H factors: [([62, 10, 1], 1)]",
    199: "  H factors: [([169, 134, 85, 135, 137, 100, 1], 1), "
         "([171, 125, 198, 119, 61, 169, 1], 1)]",
}


def _stripped(scan):
    for r in scan["results"]:
        r.pop("timings_ms")
    return scan


def _untimed(report):
    out = report.to_json_dict()
    out.pop("timings_ms")
    return out


def _loads_mpmath(code, tmp_path):
    """Run code after `import sys, wplus` in a fresh interpreter, with
    Config, scan_primes, verify_prime and a cache config `cache` at
    tmp_path / "cache" in scope; whether mpmath was loaded after it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, wplus\n"
             "from wplus.config import Config\n"
             "from wplus.pipeline import scan_primes, verify_prime\n"
             f"cache = Config(cache_dir={str(tmp_path / 'cache')!r})\n"
             f"{code}\n"
             "print('mpmath' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_import_leaves_out_multiprocessing():
    # the process pool is imported only by a scan with jobs > 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, wplus; "
             "print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cold_runs_leave_out_hashlib(tmp_path):
    # the cache checksum uses the builtin SHA-256, so no run maps OpenSSL
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys, wplus\n"
        "from wplus.config import Config\n"
        "from wplus.pipeline import scan_primes, verify_prime\n"
        f"cache = Config(cache_dir={str(tmp_path / 'cache')!r})\n"
        "assert verify_prime(67, cache).status == 'ok'\n"
        "scan_primes(5, 41, cache, basis_only=True)\n"
        "print(sorted(m for m in ('hashlib', '_hashlib') "
        "if m in sys.modules))\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
    assert list((tmp_path / "cache").glob("*/*.json"))


#: a cold ladder and a cold basis-only scan, in a fresh interpreter; with
#: "refuse", every Fraction or QExpansion built after `import wplus` is
#: recorded and raises.  Prints the reports, timings aside, as JSON.
_COLD_RUN = """
import json, sys
from fractions import Fraction
from pathlib import Path

import wplus
from wplus.series import QExpansion

built = []
if sys.argv[2] == "refuse":
    def refusal(name):
        def refuse(*args, **kwargs):
            built.append(name)
            raise AssertionError(name + " built")
        return refuse
    Fraction.__new__ = refusal("Fraction")
    QExpansion.__init__ = refusal("QExpansion")
cache = Path(sys.argv[1])
ladder = [wplus.verify_prime(p, wplus.Config(cache_dir=cache / "ladder"))
          for p in (67, 199, 389)]
scan = wplus.scan_primes(200, 400, wplus.Config(cache_dir=cache / "scan"),
                         basis_only=True)
reports = [r.to_json_dict() for r in ladder] + scan["results"]
for r in reports:
    r.pop("timings_ms")
print(json.dumps({"built": sorted(set(built)), "reports": reports,
                  "text": [r.text_lines() for r in ladder]}))
"""


def test_cold_runs_build_no_fraction_or_qexpansion(tmp_path):
    # cold verify_prime at 67, 199 and 389 and a cold basis-only scan of
    # [200, 400] run on integers and residues: with Fraction and QExpansion
    # refused they give the reports of an unrefused run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    for mode in ("refuse", "plain"):
        run = subprocess.run(
            [sys.executable, "-c", _COLD_RUN, str(tmp_path / mode), mode],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        runs[mode] = json.loads(run.stdout)
    refused, plain = runs["refuse"], runs["plain"]
    assert refused["built"] == []
    assert [r["status"] for r in plain["reports"][:3]] == ["ok"] * 3
    assert len(plain["reports"]) == 3 + 32
    assert refused["reports"] == plain["reports"]
    assert refused["text"] == plain["text"]


def test_mpmath_loads_on_the_first_class_polynomial(tmp_path):
    # the class polynomials are the only use of mpmath: importing wplus, a
    # basis-only scan and a run on a warm cache leave it out
    assert _loads_mpmath(
        "print('mpmath' in sys.modules)\n"
        "scan_primes(5, 41, cache, basis_only=True)", tmp_path) \
        == ["False", "False"]
    assert _loads_mpmath("assert verify_prime(67, cache).status == 'ok'",
                         tmp_path) == ["True"]
    assert list((tmp_path / "cache" / "class_poly").glob("*.json"))
    assert _loads_mpmath("assert verify_prime(67, cache).status == 'ok'",
                         tmp_path) == ["False"]


@pytest.mark.parametrize("p", sorted(H_FACTORS))
def test_text_report_prints_the_factors_of_H(p):
    lines = verify_prime(p, Config(use_cache=False)).text_lines()
    assert [line for line in lines if "H factors" in line] == [H_FACTORS[p]]


def test_json_report_never_factors_H(monkeypatch):
    # no check reads the factors of H, so neither the JSON report nor the
    # status depends on factoring; the text report factors on first read
    config = Config(use_cache=False)
    expected = _untimed(verify_prime(389, config))

    def refuse(self):
        raise RuntimeError("factor called")

    monkeypatch.setattr(FpPoly, "factor", refuse)
    report = verify_prime(389, config)
    assert report.status == "ok"
    assert _untimed(report) == expected
    with pytest.raises(WplusError, match="^factoring H for the text report: "
                                         "RuntimeError: factor called$"):
        report.text_lines()


def _moved_last_pivot(monkeypatch):
    """Patch the pipeline's good_basis to move the last pivot one past the
    Sturm bound (p + 1)//6."""
    build = pipeline.good_basis

    def moved(p, *args):
        gb = build(p, *args)
        return dataclasses.replace(
            gb, pivots=gb.pivots[:-1] + [(p + 1) // 6 + 1])

    monkeypatch.setattr(pipeline, "good_basis", moved)


def test_basis_only_run_reports_a_failed_check(monkeypatch):
    # a basis-only run settles its status by the same rule as a full run
    _moved_last_pivot(monkeypatch)
    report = verify_prime(389, Config(use_cache=False), basis_only=True)
    assert report.good_basis
    assert report.checks == {"sturm_pivots": False}
    assert report.status == "falsified" and report.exit_code == 1


def test_settle_is_one_rule():
    report = VerificationReport(p=67, good_basis=True)
    report.settle()
    assert report.status == "ok"
    report.checks["gcd_H_Sp_is_1"] = False      # observational
    report.settle()
    assert report.status == "ok"
    report.checks["fixedlinear"] = False
    report.settle()
    assert report.status == "falsified"
    report.good_basis = False
    report.settle()
    assert report.status == "not_good_basis"


def test_pooled_scan_matches_serial_scan(tmp_path):
    serial = scan_primes(5, 41, Config(cache_dir=tmp_path / "serial",
                                       jobs=1), basis_only=True)
    pooled = scan_primes(5, 41, Config(cache_dir=tmp_path / "pooled",
                                       jobs=2), basis_only=True)
    assert _stripped(pooled) == _stripped(serial)
    assert serial["summary"]["count"] == 11
