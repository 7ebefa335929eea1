import json

import pytest

from wplus.cli import main
from wplus.fppoly import FpPoly
from wplus.report import VerificationReport, _poly_str

JSON_TOP_KEYS = {"schema", "p", "g_p", "g_plus", "pivots", "wt_inf",
                 "good_basis", "polys", "checks", "timings_ms", "status",
                 "error"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_67(capsys, tmp_path):
    code, out = run(capsys, "--cache-dir", str(tmp_path), "verify", "67")
    assert code == 0
    assert "x^2 + 10x + 62" in out
    assert "status: ok" in out


def test_verify_67_json_schema(capsys, tmp_path):
    code, out = run(capsys, "--cache-dir", str(tmp_path), "verify", "67",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == JSON_TOP_KEYS
    assert data["schema"] == 1
    assert data["p"] == 67 and data["g_p"] == 5 and data["g_plus"] == 2
    assert data["pivots"] == [1, 2] and data["wt_inf"] == 0
    assert data["good_basis"] is True
    assert set(data["polys"]) == set(VerificationReport.POLY_KEYS)
    # polynomials are coefficient lists, low degree first, mod p
    assert data["polys"]["H"] == [62, 10, 1]
    assert all(v is True for v in data["checks"].values())


def test_verify_text_names_a_factoring_error(capsys, tmp_path, monkeypatch):
    # only the text report factors H: --json is unaffected, and the text
    # path exits 3 with the stage in the message
    def refuse(self):
        raise RuntimeError("factor called")

    monkeypatch.setattr(FpPoly, "factor", refuse)
    code, _ = run(capsys, "--cache-dir", str(tmp_path), "verify", "67",
                  "--json")
    assert code == 0
    assert main(["--cache-dir", str(tmp_path), "verify", "67"]) == 3
    err = capsys.readouterr().err
    assert "factoring H for the text report: RuntimeError" in err


def test_verify_trivial_genus(capsys, tmp_path):
    code, out = run(capsys, "--cache-dir", str(tmp_path), "verify", "23")
    assert code == 0
    assert "quotient genus 0" in out


def test_verify_rejects_composite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "68"])
    assert err.value.code == 2


def test_scan_range_json(capsys, tmp_path):
    code, out = run(capsys, "--cache-dir", str(tmp_path),
                    "scan", "67", "79", "--jobs", "1")
    assert code == 0
    data = json.loads(out)
    assert [r["p"] for r in data["results"]] == [67, 71, 73, 79]
    assert data["summary"]["ok"] == 4
    assert data["summary"]["wt_positive"] == []
    for r in data["results"]:
        assert set(r) == JSON_TOP_KEYS


def test_scan_rejects_zero_jobs(capsys):
    # a usage error (exit 2), not the scan's own exit 1 for a falsifier
    with pytest.raises(SystemExit) as err:
        main(["--no-cache", "scan", "67", "71", "--jobs", "0"])
    assert err.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_scan_empty_range(capsys):
    code, out = run(capsys, "--no-cache", "scan", "90", "96")
    assert code == 0
    assert json.loads(out)["results"] == []


def test_scan_out_file(capsys, tmp_path):
    out_file = tmp_path / "agg.json"
    code, out = run(capsys, "--cache-dir", str(tmp_path), "scan", "67", "71",
                    "--out", str(out_file), "--basis-only")
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["basis_only"] is True
    assert data["summary"]["count"] == 2


def test_ssing_67(capsys):
    code, out = run(capsys, "--no-cache", "ssing", "67")
    assert code == 0
    assert "(x + 1)" in out and "(x + 14)" in out
    assert "oracle agreement: True" in out


def test_hilbert_4(capsys):
    code, out = run(capsys, "--no-cache", "hilbert", "4")
    assert code == 0
    assert "x - 1728" in out


#: the whole output of `wplus hilbert D`, as the command's own printer
#: wrote it before it shared the report's
HILBERT = {
    3: "H_3(x) = x\n"
       "class number h(-3) = 1\n"
       "reduced forms: [(1, 1, 1)]\n"
       "float precision: 92 bits\n",
    4: "H_4(x) = x - 1728\n"
       "class number h(-4) = 1\n"
       "reduced forms: [(1, 0, 1)]\n"
       "float precision: 96 bits\n",
    7: "H_7(x) = x + 3375\n"
       "class number h(-7) = 1\n"
       "reduced forms: [(1, 1, 2)]\n"
       "float precision: 106 bits\n",
    23: "H_23(x) = x^3 + 3491750x^2 - 5151296875x + 12771880859375\n"
        "class number h(-23) = 3\n"
        "reduced forms: [(1, 1, 6), (2, -1, 3), (2, 1, 3)]\n"
        "float precision: 115 bits\n",
    268: "H_268(x) = x^3 - 21667237292024856738000x^2"
         " + 32240842762858236972000000x"
         " - 3189376432736929569384216000000000\n"
         "class number h(-268) = 3\n"
         "reduced forms: [(1, 0, 67), (4, -2, 17), (4, 2, 17)]\n"
         "float precision: 194 bits\n",
}


@pytest.mark.parametrize("D", sorted(HILBERT))
def test_hilbert_output_pinned(capsys, D):
    assert run(capsys, "--no-cache", "hilbert", str(D)) == (0, HILBERT[D])


def test_poly_str_signs():
    # FpPoly coefficients lie in [0, p), so only class polynomials print
    # a negative term
    assert _poly_str([0, -1, 0, 1]) == "x^3 - x"
    assert _poly_str([-5, 1, -1]) == "-x^2 + x - 5"
    assert _poly_str([-1]) == "-1" and _poly_str([]) == "0"
    assert _poly_str(FpPoly(7, [6, 1, 1]).coeffs) == "x^2 + x + 6"


def test_basis_67(capsys, tmp_path):
    code, out = run(capsys, "--cache-dir", str(tmp_path), "basis", "67")
    assert code == 0
    assert "q - 3q^3 - 3q^4 - 3q^5" in out
    assert "pivots: [1, 2]" in out


def test_basis_caches_the_precision_verify_reads(capsys, tmp_path,
                                                  monkeypatch):
    # wplus basis builds and caches the basis at (p + 1)//6 + 12, the one
    # precision verify_prime asks for, so verify then builds none
    from wplus import modsym
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    assert run(capsys, "--cache-dir", str(tmp_path), "basis", "67")[0] == 0
    monkeypatch.setattr(modsym, "BasisComputer", None)
    report = verify_prime(67, Config(cache_dir=str(tmp_path)))
    assert report.status == "ok"


@pytest.mark.parametrize("prec", ["2", "-3", "0"])
def test_basis_precision_below_pivots_is_a_usage_error(capsys, tmp_path,
                                                       prec):
    # cold, then warm from an entry at precision 23, a --prec that does
    # not pass the pivots exits 2 with the reason
    argv = ["--cache-dir", str(tmp_path), "basis", "67"]
    for warm in (False, True):
        if warm:
            assert run(capsys, *argv, "--prec", "23")[0] == 0
        with pytest.raises(SystemExit) as err:
            main(argv + ["--prec", prec])
        assert err.value.code == 2
        assert "too small to echelonize" in capsys.readouterr().err


def test_basis_cache_follows_no_cache(capsys, tmp_path, monkeypatch):
    # without --cache-dir the cache is WPLUS_CACHE, and --no-cache skips it
    monkeypatch.setenv("WPLUS_CACHE", str(tmp_path))
    assert run(capsys, "--no-cache", "basis", "67")[0] == 0
    assert not any(tmp_path.iterdir())
    assert run(capsys, "basis", "67")[0] == 0
    assert any(tmp_path.iterdir())


def test_cache_delete_reproduces_result(capsys, tmp_path):
    import shutil
    code1, out1 = run(capsys, "--cache-dir", str(tmp_path), "verify", "67",
                      "--json")
    data1 = json.loads(out1)
    assert any(tmp_path.iterdir())
    code2, out2 = run(capsys, "--cache-dir", str(tmp_path), "verify", "67",
                      "--json")
    data2 = json.loads(out2)
    shutil.rmtree(tmp_path)
    code3, out3 = run(capsys, "--cache-dir", str(tmp_path), "verify", "67",
                      "--json")
    data3 = json.loads(out3)
    for d in (data1, data2, data3):
        d.pop("timings_ms")
    assert data1 == data2 == data3
