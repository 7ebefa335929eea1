import json

import pytest

from wplus.cache import SCHEMA_VERSION, DiskCache, NullCache, _checksum


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
    path.write_text("{not json")
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
