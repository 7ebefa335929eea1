"""On-disk result cache: JSON entries with checksums and atomic writes.

Entries live at <cache_dir>/<kind>/<key>.json as
{"schema_version", "kind", "key", "payload", "checksum"} with numerics
serialized as decimal strings by the producers.  A checksum or version
mismatch, a kind or key other than the one asked for (a file copied or
renamed under another key), or a file that is not a JSON object, reads as
a miss and the entry is recomputed; deleting the cache never changes any
result, only timing.  Writes go through a temp file and os.replace so
concurrent scans can share one cache directory.

The checksum is SHA-256 from the interpreter's own extension (`_sha256`,
or `_sha2` from Python 3.12 on), as `random` does for SHA-512: `hashlib`
loads `_hashlib`, which maps OpenSSL's libcrypto, about 3.5 MB of resident
memory in every process for hashing a few kilobytes of JSON.  `hashlib` is
only the fallback.  The digests are the same bytes either way, so stored
entries and their checksums do not depend on which module computed them.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

try:  # Python 3.10 and 3.11
    from _sha256 import sha256
except ImportError:
    try:  # Python 3.12 and later
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = 1

_KINDS = ("good_basis", "class_poly")


def _checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


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
        if (not isinstance(entry, dict)
                or entry.get("schema_version") != SCHEMA_VERSION
                or entry.get("kind") != kind
                or entry.get("key") != str(key)):
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
