"""On-disk result cache: JSON entries with checksums and atomic writes.

Entries live at <cache_dir>/<kind>/<key>.json as
{"schema_version", "kind", "key", "payload", "checksum"} with numerics
serialized as decimal strings by the producers.  A checksum or version
mismatch reads as a miss and the entry is recomputed; deleting the cache
never changes any result, only timing.  Writes go through a temp file and
os.replace so concurrent scans can share one cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

SCHEMA_VERSION = 1

_KINDS = ("good_basis", "class_poly")


def _checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class DiskCache:
    def __init__(self, directory):
        self.directory = Path(directory)

    def _path(self, kind, key):
        if kind not in _KINDS:
            raise ValueError(f"unknown cache kind {kind!r}")
        return self.directory / kind / f"{key}.json"

    def get(self, kind, key):
        path = self._path(kind, str(key))
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("schema_version") != SCHEMA_VERSION:
            return None
        payload = entry.get("payload")
        if payload is None or entry.get("checksum") != _checksum(payload):
            return None
        return payload

    def put(self, kind, key, payload):
        path = self._path(kind, str(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "key": str(key),
            "payload": payload,
            "checksum": _checksum(payload),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class NullCache:
    """Cache that stores nothing, for --no-cache runs."""

    def get(self, kind, key):
        return None

    def put(self, kind, key, payload):
        pass
