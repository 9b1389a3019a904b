"""Cache persistence: round-trips, atomicity, schema and key validation."""

from __future__ import annotations

import json
import os
import re
import threading
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest

from rspin.core import CacheError
from rspin.store import CACHE_ENV_VAR, CacheStore, default_cache_path


def synthetic_entries(count):
    """Yield (canonical g0 key, exact value) pairs, all distinct."""
    r = 50
    source = combinations_with_replacement(range(r), 3)
    for i, a in enumerate(islice(source, count)):
        key = "g0:r={}:a={}".format(r, ",".join(map(str, a)))
        yield key, Fraction(i - 3, i + 7)


def test_put_get_round_trip():
    store = CacheStore()
    store.put("g0:r=5:a=1,1,3,3", Fraction(1, 5))
    assert store.get("g0:r=5:a=1,1,3,3") == Fraction(1, 5)
    assert store.get("g0:r=5:a=1,1,3,4") is None
    assert "g0:r=5:a=1,1,3,3" in store
    assert len(store) == 1


def test_put_rejects_non_canonical_keys():
    store = CacheStore()
    with pytest.raises(CacheError):
        store.put("g0:r=5:a=3,1,1,3", Fraction(1, 5))   # unsorted twists
    with pytest.raises(CacheError):
        store.put("dr1:r=4:k=-2,2:a=2,2", Fraction(1, 32))  # wrong orientation
    with pytest.raises(CacheError):
        store.put("junk", Fraction(1))


def test_put_rejects_inexact_values():
    store = CacheStore()
    key = "g0:r=5:a=1,1,3,3"
    for value in (0.2, "1/5", True, False, None, 1.0, complex(1, 0)):
        with pytest.raises(CacheError, match=rf"{key!r}.*{type(value).__name__}"):
            store.put(key, value)
    assert key not in store and not store.dirty
    store.put(key, 3)
    assert store.get(key) == 3 and isinstance(store.get(key), Fraction)
    store.put(key, Fraction(1, 5))
    assert store.get(key) == Fraction(1, 5)


class _SubFraction(Fraction):
    pass


def test_put_keeps_an_exact_fraction_and_converts_the_rest(tmp_path):
    store = CacheStore()
    exact = Fraction(1, 5)
    store.put("g0:r=5:a=1,1,3,3", exact)
    assert store.get("g0:r=5:a=1,1,3,3") is exact
    store.put("dr1:r=4:k=2,-2:a=2,2", 3)
    assert type(store.get("dr1:r=4:k=2,-2:a=2,2")) is Fraction
    assert store.get("dr1:r=4:k=2,-2:a=2,2") == 3
    store.put("dr1:r=8:k=4,-4:a=2,6", _SubFraction(-25, 64))
    assert type(store.get("dr1:r=8:k=4,-4:a=2,6")) is Fraction
    assert store.get("dr1:r=8:k=4,-4:a=2,6") == Fraction(-25, 64)
    # refusals of bool, float and str: test_put_rejects_inexact_values
    path = tmp_path / "cache.json"
    store.save(str(path))
    # the same bytes whether put keeps a Fraction or copies it
    assert path.read_bytes() == (
        b'{\n"entries": {\n"dr1:r=4:k=2,-2:a=2,2": "3/1",\n'
        b'"dr1:r=8:k=4,-4:a=2,6": "-25/64",\n"g0:r=5:a=1,1,3,3": "1/5"\n},\n"schema": 1\n}\n'
    )


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    store = CacheStore()
    store.put("g0:r=5:a=1,1,3,3", Fraction(1, 5))
    store.put("dr1:r=4:k=2,-2:a=2,2", Fraction(1, 32))
    store.save(str(path))
    assert not store.dirty
    loaded = CacheStore.load(str(path))
    assert dict(loaded.items()) == dict(store.items())
    assert not loaded.dirty


def test_round_trip_ten_thousand_entries(tmp_path):
    path = tmp_path / "big.json"
    store = CacheStore()
    for key, value in synthetic_entries(10_000):
        store.put(key, value)
    assert len(store) == 10_000
    store.save(str(path))
    loaded = CacheStore.load(str(path))
    assert dict(loaded.items()) == dict(store.items())


def test_save_is_atomic_under_crash(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    store = CacheStore()
    store.put("g0:r=5:a=1,1,3,3", Fraction(1, 5))
    store.save(str(path))
    before = path.read_text()

    bigger = CacheStore()
    for key, value in synthetic_entries(50):
        bigger.put(key, value)

    def exploding_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", exploding_dump)
    with pytest.raises(CacheError, match="disk full") as info:
        bigger.save(str(path))
    assert isinstance(info.value.__cause__, OSError)
    assert str(path) in str(info.value)
    monkeypatch.undo()

    # the original file is untouched and no temp debris remains
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["cache.json"]
    assert CacheStore.load(str(path)).get("g0:r=5:a=1,1,3,3") == Fraction(1, 5)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"schema": 2, "entries": {}}')
    with pytest.raises(CacheError, match="schema"):
        CacheStore.load(str(path))


@pytest.mark.parametrize("schema", ["true", "1.0", '"1"', "null"])
def test_load_reads_only_the_integer_schema_one(tmp_path, schema):
    # true and 1.0 compare equal to 1, yet neither is the schema save writes
    path = tmp_path / "cache.json"
    path.write_text(f'{{"schema": {schema}, "entries": {{}}}}')
    with pytest.raises(CacheError, match=rf"unsupported cache schema .* in {re.escape(str(path))}"):
        CacheStore.load(str(path))


@pytest.mark.parametrize(
    "content",
    [
        "not json at all {",
        '["wrong top level"]',
        '{"schema": 1}',
        '{"schema": 1, "entries": ["list"]}',
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1.5"}}',
        '{"schema": 1, "entries": {"g0:r=5:a=3,1": "1/5"}}',
        '{"schema": 1, "entries": {"dr1:r=4:k=-2,2:a=2,2": "1/32"}}',  # wrong orientation
        '{"schema": 1, "entries": {"g0:r=5:a=01,1,3,3": "1/5"}}',  # leading zero
        pytest.param(
            '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/5", "g0:r=5:a=1,1,3,3": "1/5"}}',
            id="repeated-key",
        ),
        pytest.param(b'{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/5\xff"}}', id="not-utf8"),
        pytest.param("[" * 100_000, id="nested-too-deep"),
        # value spellings format_rational never writes
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/5\\n"}}',  # trailing newline
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "2/10"}}',  # unreduced
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "0/5"}}',  # unreduced zero
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "-0/1"}}',
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "01/5"}}',  # leading zero
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "+1/5"}}',
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/0"}}',
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/-5"}}',
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "\\u0661/\\u0665"}}',  # Arabic-Indic digits
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "\\uff11/\\uff15"}}',  # full-width digits
    ],
)
def test_load_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "cache.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(CacheError, match="cache.json"):
        CacheStore.load(str(path))


def test_load_and_put_report_keys_alike(tmp_path):
    path = tmp_path / "cache.json"
    cases = [
        ("dr1:r=4:k=-2,2:a=2,2", "canonical form is 'dr1:r=4:k=2,-2:a=2,2'"),
        ("g0:r=5:a=1,1,9", "unusable cache key"),
    ]
    for key, reason in cases:
        with pytest.raises(CacheError, match=reason):
            CacheStore().put(key, Fraction(1))
        path.write_text(json.dumps({"schema": 1, "entries": {key: "1/1"}}))
        with pytest.raises(CacheError, match=reason):
            CacheStore.load(str(path))


def test_repeated_key_is_named(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(
        '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "1/5", '
        '"dr1:r=4:k=2,-2:a=2,2": "1/32", "g0:r=5:a=1,1,3,3": "2/5"}}'
    )
    with pytest.raises(CacheError, match=re.escape(f"{path}: repeated key 'g0:r=5:a=1,1,3,3'")):
        CacheStore.load(str(path))


@pytest.mark.parametrize(
    "seen,key,canonical",
    [
        # orders k=2,-1,-1 and twists a=1,4,0 each open a canonical key first
        (("dr1:r=5:k=2,-1,-1:a=0,1,4", "dr1:r=5:k=3,-1,-2:a=1,4,0"),
         "dr1:r=5:k=2,-1,-1:a=1,4,0", "dr1:r=5:k=2,-1,-1:a=1,0,4"),
        # tied profiles: a canonical row is at most its sign flip
        (("dr1:r=4:k=1,0,-1:a=0,2,2", "dr1:r=4:k=2,-1,-1:a=2,0,1"),
         "dr1:r=4:k=1,0,-1:a=2,0,1", "dr1:r=4:k=1,0,-1:a=1,0,2"),
        # twists first seen in a genus-0 key with a larger r, out of range for r=4
        (("g0:r=9:a=1,3,5,7", "dr1:r=4:k=2,-2:a=1,2"),
         "dr1:r=4:k=1,1,-1,-1:a=1,3,5,7", None),
    ],
)
def test_load_refuses_a_key_whose_fields_passed_before(tmp_path, seen, key, canonical):
    entries = {k: "1/1" for k in seen}
    entries[key] = "1/1"
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"schema": 1, "entries": entries}))
    reason = f"canonical form is {canonical!r}" if canonical else "unusable cache key"
    with pytest.raises(CacheError, match=re.escape(reason)):
        CacheStore.load(str(path))
    store = CacheStore()
    for k in seen:
        store.put(k, 1)
    with pytest.raises(CacheError, match=re.escape(reason)):
        store.put(key, 1)


def test_file_system_errors_become_cache_errors(tmp_path):
    store = CacheStore()
    store.put("g0:r=5:a=1,1,3,3", Fraction(1, 5))
    folder = tmp_path / "folder"
    folder.mkdir()
    with pytest.raises(CacheError, match="folder"):
        CacheStore.load(str(folder))
    with pytest.raises(CacheError, match="missing"):
        CacheStore.load(str(tmp_path / "missing.json"))
    with pytest.raises(CacheError, match="no-such-dir"):
        store.save(str(tmp_path / "no-such-dir" / "cache.json"))
    with pytest.raises(CacheError, match="folder"):
        store.save(str(folder))
    # the failed saves leave no temp files behind
    assert os.listdir(tmp_path) == ["folder"]
    assert os.listdir(folder) == []
    assert store.dirty


def test_load_error_names_the_path(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{{{")
    with pytest.raises(CacheError, match="cache.json"):
        CacheStore.load(str(path))


def test_default_cache_path_env_override(monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, "/tmp/elsewhere.json")
    assert default_cache_path() == "/tmp/elsewhere.json"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert default_cache_path() != "/tmp/elsewhere.json"


def test_concurrent_reads(tmp_path):
    store = CacheStore()
    pairs = list(synthetic_entries(500))
    for key, value in pairs:
        store.put(key, value)
    errors = []

    def reader():
        try:
            for key, value in pairs:
                assert store.get(key) == value
        except Exception as exc:   # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_dirty_flag_tracks_mutation(tmp_path):
    store = CacheStore()
    assert not store.dirty
    store.put("g0:r=5:a=1,1,3,3", Fraction(1, 5))
    assert store.dirty
    path = tmp_path / "cache.json"
    store.save(str(path))
    assert not store.dirty
