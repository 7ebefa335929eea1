import hashlib
import json

import pytest

from wplus.cache import SCHEMA_VERSION, DiskCache, NullCache, _checksum
from wplus.config import Config
from wplus.pipeline import verify_prime


def test_round_trip(tmp_path):
    cache = DiskCache(tmp_path)
    payload = {"p": 67, "coefficients": [["1/1", "-3/2"]]}
    cache.put("good_basis", "67", payload)
    assert cache.get("good_basis", "67") == payload


def test_miss_on_absent(tmp_path):
    assert DiskCache(tmp_path).get("good_basis", "9999") is None


def test_checksum_tamper_is_a_miss(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("class_poly", "23", {"H_D": ["1", "2"]})
    path = tmp_path / "class_poly" / "23.json"
    entry = json.loads(path.read_text())
    entry["payload"]["H_D"] = ["1", "3"]
    path.write_text(json.dumps(entry))
    assert cache.get("class_poly", "23") is None


def test_version_mismatch_is_a_miss(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("class_poly", "23", {"H_D": ["1"]})
    path = tmp_path / "class_poly" / "23.json"
    entry = json.loads(path.read_text())
    entry["schema_version"] = 999
    path.write_text(json.dumps(entry))
    assert cache.get("class_poly", "23") is None


def test_corrupt_json_is_a_miss(tmp_path):
    cache = DiskCache(tmp_path)
    path = tmp_path / "class_poly" / "x.json"
    path.parent.mkdir(parents=True)
    for text in ("{not json", "[1, 2]"):
        path.write_text(text)
        assert cache.get("class_poly", "x") is None


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        DiskCache(tmp_path).put("scratch", "1", {})


def test_no_stray_temp_files(tmp_path):
    cache = DiskCache(tmp_path)
    for i in range(5):
        cache.put("class_poly", str(i), {"H_D": [str(i)]})
    leftovers = [p for p in (tmp_path / "class_poly").iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


def test_null_cache():
    cache = NullCache()
    cache.put("class_poly", "1", {"a": 1})
    assert cache.get("class_poly", "1") is None


def test_written_file_is_json_dumps_of_the_entry(tmp_path):
    cache = DiskCache(tmp_path)
    payload = {"p": 389, "coefficients": [["1/1", "-3/2"]], "pivots": [1, 2]}
    cache.put("good_basis", "389", payload)
    entry = {"schema_version": SCHEMA_VERSION, "kind": "good_basis",
             "key": "389", "payload": payload, "checksum": _checksum(payload)}
    assert (tmp_path / "good_basis" / "389.json").read_bytes() == \
        json.dumps(entry).encode()


def _hashlib_checksum(payload):
    # the OpenSSL route, which shares no code with the builtin SHA-256
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_checksum_known_answers():
    assert _checksum({}) == ("44136fa355b3678a1146ad16f7e8649e"
                             "94fb4fc21fe77e8310c060f61caaff8a")
    assert _checksum({"D": 268, "h": 4}) == (
        "1a1a2751437cbf1884714a7b77b3aeb50b886d801024b931f56ad78b49c621a9")


@pytest.mark.parametrize("p", [67, 199])
def test_checksum_matches_hashlib_on_every_written_entry(tmp_path, p):
    report = verify_prime(p, Config(cache_dir=tmp_path))
    assert report.status == "ok"
    entries = [json.loads(path.read_text())
               for path in sorted(tmp_path.glob("*/*.json"))]
    assert {e["kind"] for e in entries} == {"good_basis", "class_poly"}
    for entry in entries:
        assert entry["checksum"] == _checksum(entry["payload"]) == \
            _hashlib_checksum(entry["payload"])


def test_entry_written_with_hashlib_is_a_hit(tmp_path):
    payload = {"H_D": ["-3375", "1"], "D": 7}
    entry = {"schema_version": SCHEMA_VERSION, "kind": "class_poly",
             "key": "7", "payload": payload,
             "checksum": _hashlib_checksum(payload)}
    path = tmp_path / "class_poly" / "7.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(entry))
    assert DiskCache(tmp_path).get("class_poly", "7") == payload


@pytest.mark.parametrize("kind, source, target", [
    ("good_basis", "67", "73"), ("class_poly", "268", "67")])
def test_entry_copied_under_another_key_is_a_miss(tmp_path, kind, source,
                                                   target):
    # the stored kind and key must be the ones asked for: a copied entry
    # passes its checksum, but holds the result of another key
    from wplus.modsym import good_basis
    from wplus.supersingular import class_poly

    assert verify_prime(67, Config(cache_dir=tmp_path)).status == "ok"
    cache = DiskCache(tmp_path)
    entry = (tmp_path / kind / f"{source}.json").read_bytes()
    (tmp_path / kind / f"{target}.json").write_bytes(entry)
    assert cache.get(kind, target) is None
    if kind == "good_basis":
        assert good_basis(73, 24, cache).p == 73
    else:
        assert class_poly(67, cache=cache).H_D == [147197952000, 1]
    assert cache.get(kind, target) is not None
    other = "class_poly" if kind == "good_basis" else "good_basis"
    (tmp_path / other / f"{source}.json").write_bytes(entry)
    assert cache.get(other, source) is None
