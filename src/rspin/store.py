"""Persistent memoization of exact bracket values keyed by canonical keys.

A store is a thread-safe map from canonical key strings to exact rationals,
serializable as a single human-inspectable JSON file:

    {"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/5", ...}}

Save is atomic (write to a sibling temp file, then rename), so a crash mid
save never damages an existing valid file. Loading rejects unknown schema
versions (only the integer 1 is read) and repeated keys, and reports the
offending entry on malformed content. Keys are checked on ``put`` and on
``load`` by the store's own :class:`rspin.core.KeyCheck`, which decides
whether a key is canonical and judges each distinct ``r=``, ``k=`` and
``a=`` field once for the store's whole life: a file's keys share few
fields, so most keys cost a few dict lookups. A non-canonical key would make
the same bracket cacheable under several names, so it is a contract error,
explained by parsing the key only once it has been rejected. Values are
exact: ``put`` takes only an ``int`` or a ``Fraction``, and ``load`` parses
each distinct value text once. A file that cannot be read or written raises
:class:`rspin.core.CacheError` naming the path.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .core import (
    CacheError, KeyCheck, StructureError, format_rational, parse_key, parse_rational,
)

__all__ = ["SCHEMA_VERSION", "CACHE_ENV_VAR", "CacheStore", "default_cache_path"]

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "RSPIN_CACHE"


def default_cache_path() -> Optional[str]:
    """Cache file location from the environment, if configured."""
    path = os.environ.get(CACHE_ENV_VAR)
    return path if path else None


class CacheStore:
    """In-memory map of canonical key -> exact value, with file round-trip.

    Reads may run concurrently; mutation and save are serialized by an
    internal lock. ``dirty`` tracks whether the store has unsaved changes.
    """

    def __init__(self):
        self._entries: Dict[str, Fraction] = {}
        self._lock = threading.RLock()
        self._key_check = KeyCheck()
        self.dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def items(self) -> Iterator[Tuple[str, Fraction]]:
        with self._lock:
            return iter(sorted(self._entries.items()))

    def get(self, key: str) -> Optional[Fraction]:
        return self._entries.get(key)

    def put(self, key: str, value) -> None:
        """Store an exact value, an ``int`` (not ``bool``) or a ``Fraction``.

        An exact ``Fraction`` is kept as given, the same object: fractions
        are immutable. An ``int`` or an instance of a ``Fraction`` subclass
        is stored as a plain ``Fraction``. Anything else, a float or a string
        for instance, raises ``CacheError`` naming the key and the type:
        ``Fraction(0.2)`` is not 1/5.
        """
        self._check_key(key)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise CacheError(
                f"cache value for {key!r} must be an int or a Fraction, "
                f"got {type(value).__name__}"
            )
        with self._lock:
            self._entries[key] = value if type(value) is Fraction else Fraction(value)
            self.dirty = True

    @classmethod
    def load(cls, path: str) -> "CacheStore":
        """Read a cache file, validating schema, keys, and value format."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise CacheError(f"cannot read cache file {path}: {exc.strerror or exc}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, repeated key, too deep
            raise CacheError(f"malformed cache file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CacheError(f"malformed cache file {path}: top level must be an object")
        schema = payload.get("schema")
        if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 equal 1
            raise CacheError(
                f"unsupported cache schema {schema!r} in {path} (expected {SCHEMA_VERSION})"
            )
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            raise CacheError(f"malformed cache file {path}: 'entries' must be an object")
        store = cls()
        values: Dict[str, Fraction] = {}
        for key, raw in entries.items():
            if not isinstance(raw, str):
                raise CacheError(f"malformed cache file {path}: entry {key!r} is not a string")
            try:
                value = values.get(raw)
                if value is None:
                    value = values[raw] = parse_rational(raw)
                store._check_key(key)
            except CacheError as exc:
                raise CacheError(f"{path}: entry {key!r}: {exc}") from exc
            store._entries[key] = value
        return store

    def save(self, path: str) -> None:
        """Write atomically: serialize to a sibling temp file, then rename."""
        with self._lock:
            payload = {
                "schema": SCHEMA_VERSION,
                "entries": {
                    key: format_rational(value)
                    for key, value in self._entries.items()
                },
            }
            directory = os.path.dirname(os.path.abspath(path))
            tmp_path = None
            try:
                fd, tmp_path = tempfile.mkstemp(
                    prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
                )
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=0, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp_path, path)
            except OSError as exc:
                raise CacheError(f"cannot write cache file {path}: {exc.strerror or exc}") from exc
            finally:
                if tmp_path is not None and os.path.exists(tmp_path):
                    os.unlink(tmp_path)
            self.dirty = False

    def _check_key(self, key: str) -> None:
        """Raise ``CacheError`` unless ``key`` is canonical; only a rejected key is parsed."""
        if self._key_check(key):
            return
        try:
            bracket = parse_key(key)
        except (StructureError, ValueError) as exc:
            raise CacheError(f"unusable cache key {key!r}: {exc}") from exc
        raise CacheError(f"non-canonical cache key {key!r} (canonical form is {bracket.key!r})")


def _unique_keys(pairs):
    """``object_pairs_hook`` for ``json.load``: a repeated key is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise CacheError(f"repeated key {key!r}")
            seen.add(key)
    return obj
