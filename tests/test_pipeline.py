"""The scan driver: serial and pooled scans, and what `import wplus` loads."""

import os
import subprocess
import sys
from pathlib import Path

from wplus.config import Config
from wplus.pipeline import scan_primes

ROOT = Path(__file__).resolve().parent.parent


def _stripped(scan):
    for r in scan["results"]:
        r.pop("timings_ms")
    return scan


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


def test_pooled_scan_matches_serial_scan(tmp_path):
    serial = scan_primes(5, 41, Config(cache_dir=tmp_path / "serial",
                                       jobs=1), basis_only=True)
    pooled = scan_primes(5, 41, Config(cache_dir=tmp_path / "pooled",
                                       jobs=2), basis_only=True)
    assert _stripped(pooled) == _stripped(serial)
    assert serial["summary"]["count"] == 11
