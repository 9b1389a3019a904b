"""Command-line behavior: outputs, exit codes, cache wiring."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from rspin.cli import run
from rspin.store import CacheStore


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dr1_both_methods_prints_value_twice(capsys):
    code, out, _ = invoke(capsys, "dr1", "--r", "4", "--k", "2,-2", "--a", "2,2", "--method", "both")
    assert code == 0
    assert out.splitlines() == ["1/32", "1/32"]


def test_dr1_relation3_prints_zero(capsys):
    code, out, _ = invoke(capsys, "dr1", "--r", "4", "--k", "1,-1", "--a", "2,2")
    assert code == 0
    assert out.splitlines() == ["0", "0"]


def test_b_subcommand_golden(capsys):
    code, out, _ = invoke(capsys, "b", "--r", "4", "--a", "0")
    assert code == 0
    assert out.strip() == "1/8"


def test_g0_subcommand(capsys):
    code, out, _ = invoke(capsys, "g0", "--r", "5", "--a", "1,1,3,3")
    assert code == 0
    assert out.strip() == "1/5"


def test_loopsum_subcommand(capsys):
    code, out, _ = invoke(capsys, "loopsum", "--r", "5", "--m", "2", "--x", "3,3")
    assert code == 0
    assert out.strip() == "1/5"


def test_loopsum_range_error_names_the_cli_flag(capsys):
    for m in (4, 5):  # m = r - 1 and m = r: --extended would admit them
        code, _, err = invoke(capsys, "loopsum", "--r", "5", "--m", str(m), "--x", "1")
        assert code == 65
        assert err == f"error: m={m} exceeds r-2=3; pass --extended for m <= r\n"
    code, out, _ = invoke(capsys, "loopsum", "--r", "5", "--m", "4", "--x", "2,2", "--extended")
    assert code == 0 and out.strip() == "4/5"


def test_loopsum_past_the_extended_bound_gives_no_extended_hint(capsys):
    # m > r fails with or without --extended, so the error must not suggest it
    for extra in ((), ("--extended",)):
        code, _, err = invoke(capsys, "loopsum", "--r", "5", "--m", "9", "--x", "1", *extra)
        assert code == 65
        assert err == "error: m=9 exceeds the extended bound r=5\n"
        assert "--extended" not in err


def _cli(*argv):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("rspin").__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RSPIN_CACHE", None)
    return subprocess.run(
        [sys.executable, "-m", "rspin.cli", *argv], env=env, capture_output=True, text=True
    )


def test_deep_dr1_rows_end_without_a_traceback():
    for method in ("both", "relations"):
        done = _cli("dr1", "--r", "4", "--k", "248,-248", "--a", "2,2", "--method", method)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["20501/32"] * (2 if method == "both" else 1)
        assert done.stderr == ""
    done = _cli("dr1", "--r", "4", "--k", "100000,-100000", "--a", "2,2", "--method", "both")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "error: dr1:r=4:k=100000,-100000:a=2,2 has sum |k| = 200000, above 1000, "
        "the most the relational route reduces\n"
    )
    done = _cli("dr1", "--r", "4", "--k", "100000,-100000", "--a", "2,2", "--method", "closed")
    assert done.returncode == 0 and done.stdout.strip() == "3333333333/32"


def test_cli_import_loads_every_module_and_no_introspection_stdlib():
    """``import rspin.cli`` loads all seven submodules and skips the slow stdlib.

    ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``;
    ``csv`` is imported by the ``table`` command alone. A module counts only
    if the stdlib the CLI needs anyway (``argparse``, ``json``,
    ``fractions``) does not load it by itself on this Python.
    """
    probe = "import sys, {}; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("rspin").__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(modules):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(modules)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return set(out.split())

    base = loaded("argparse, json, fractions")
    cli = loaded("rspin.cli")
    heavy = {"dataclasses", "inspect", "csv"} - base
    assert not heavy & cli, sorted(heavy & cli)
    submodules = {"core", "dr1", "elimination", "genus0", "store", "verify", "cli"}
    assert {"rspin." + name for name in submodules} <= cli


def test_usage_error_exits_64(capsys):
    code, _, err = invoke(capsys, "g0", "--r", "5")
    assert code == 64
    assert "required" in err
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 64
    code, _, err = invoke(capsys, "g0", "--r", "5", "--a", "1,x,3")
    assert code == 64


def test_grading_error_exits_65(capsys):
    code, _, err = invoke(capsys, "g0", "--r", "4", "--a", "9,1,1")
    assert code == 65
    assert "twist" in err
    code, _, err = invoke(capsys, "dr1", "--r", "4", "--k", "2,-1", "--a", "2,2")
    assert code == 65
    code, _, err = invoke(capsys, "dr1", "--r", "4", "--k", "2,-2", "--a", "2,2,2")
    assert code == 65


def test_method_disagreement_exits_2(capsys, tmp_path):
    # poison the relational memo so the two routes visibly part ways
    path = tmp_path / "cache.json"
    store = CacheStore()
    store.put("dr1:r=4:k=2,-2:a=2,2", Fraction(1, 31))
    store.save(str(path))
    code, out, err = invoke(
        capsys,
        "dr1", "--r", "4", "--k", "2,-2", "--a", "2,2",
        "--method", "both", "--cache", str(path),
    )
    assert code == 2
    assert out.splitlines() == ["1/32", "1/31"]
    assert "disagreement" in err


def test_dr1_json_payload(capsys):
    code, out, _ = invoke(
        capsys,
        "dr1", "--r", "6", "--k", "2,1,-3", "--a", "4,4,4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["key"] == "dr1:r=6:k=3,-1,-2:a=4,4,4"
    assert payload["agree"] is True
    assert [res["method"] for res in payload["results"]] == ["closed", "relations"]
    for res in payload["results"]:
        assert res["value"] == "1/72"
        assert res["status"] == "ok"


def test_g0_json_payload(capsys):
    code, out, _ = invoke(capsys, "g0", "--r", "4", "--a", "3,1,1,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["key"] == "g0:r=4:a=1,1,3,3"
    assert payload["results"][0]["status"] == "dimension-mismatch-zero"
    assert payload["results"][0]["value"] == "0/1"


def test_verify_json_and_exit_codes(capsys):
    code, out, _ = invoke(
        capsys,
        "verify", "--suite", "loop", "--r-max", "4", "--n-max", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and payload[0]["suite"] == "loop"
    assert payload[0]["failures"] == []

    code, out, _ = invoke(
        capsys,
        "verify", "--suite", "loop", "--r-max", "4", "--n-max", "4", "--extended",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_all_text(capsys):
    code, out, _ = invoke(
        capsys,
        "verify", "--suite", "all", "--r-max", "4", "--n-max", "4", "--k-sum-max", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all("pass" in line for line in lines)


def test_table_g0_csv(capsys):
    code, out, _ = invoke(capsys, "table", "--kind", "g0", "--r", "4", "--n-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,a,value"
    assert '4,"1,1,2,2",1/4' in lines


def test_table_dr1_json(capsys):
    code, out, _ = invoke(
        capsys,
        "table", "--kind", "dr1", "--r", "4", "--n-max", "2",
        "--k-sum-max", "4", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    by_key = {row["key"]: row for row in rows}
    assert by_key["dr1:r=4:k=2,-2:a=2,2"]["value"] == "1/32"
    keys = [row["key"] for row in rows]
    assert keys == sorted(keys)


def test_table_dr1_rows_in_key_order_with_two_digit_twists(capsys):
    code, out, _ = invoke(
        capsys,
        "table", "--kind", "dr1", "--r", "12", "--n-max", "3",
        "--k-sum-max", "22", "--format", "json",
    )
    assert code == 0
    keys = [row["key"] for row in json.loads(out)]
    assert len(keys) == 1921
    assert keys == sorted(keys)


@pytest.mark.parametrize("kind", ["g0", "dr1"])
@pytest.mark.parametrize("bounds", [("--r", "0"), ("--r", "-3", "--n-max", "6")], ids=str)
def test_table_rejects_r_below_two(capsys, kind, bounds):
    code, out, err = invoke(capsys, "table", "--kind", kind, *bounds)
    assert code == 65
    assert out == ""
    assert "r must be an integer >= 2" in err


@pytest.mark.parametrize(
    "bounds,message",
    [
        (("--kind", "dr1", "--r", "5", "--n-max", "1"), "--kind dr1 --r 5 --n-max 1 --k-sum-max 8"),
        (("--kind", "dr1", "--r", "5", "--k-sum-max", "-4"), "--kind dr1 --r 5 --n-max 5 --k-sum-max -4"),
        (("--kind", "g0", "--r", "5", "--n-max", "2"), "--kind g0 --r 5 --n-max 2"),
    ],
)
def test_table_empty_window_is_usage_error(capsys, bounds, message):
    code, out, err = invoke(capsys, "table", *bounds)
    assert code == 64
    assert out == ""
    assert err == f"error: no rows at {message}\n"


def test_dr1_cache_file_written_by_relational_route(capsys, tmp_path):
    path = tmp_path / "memo.json"
    code, _, _ = invoke(
        capsys,
        "dr1", "--r", "8", "--k", "4,-4", "--a", "2,6",
        "--method", "relations", "--cache", str(path),
    )
    assert code == 0
    store = CacheStore.load(str(path))
    assert store.get("dr1:r=8:k=4,-4:a=2,6") == Fraction(25, 64)


def test_dr1_closed_method_never_touches_cache(capsys, tmp_path):
    path = tmp_path / "memo.json"
    code, _, _ = invoke(
        capsys,
        "dr1", "--r", "4", "--k", "2,-2", "--a", "2,2",
        "--method", "closed", "--cache", str(path),
    )
    assert code == 0
    assert not path.exists()


def test_cache_env_var_used_for_bare_flag(capsys, tmp_path, monkeypatch):
    path = tmp_path / "env-cache.json"
    monkeypatch.setenv("RSPIN_CACHE", str(path))
    code, _, _ = invoke(capsys, "g0", "--r", "4", "--a", "2,2,2,2,2", "--cache")
    assert code == 0
    assert path.exists()
    store = CacheStore.load(str(path))
    assert store.get("g0:r=4:a=2,2,2,2,2") == Fraction(1, 8)


@pytest.mark.parametrize(
    "argv",
    [
        ("g0", "--r", "5", "--a", "1,1,3,3", "--cache"),
        ("dr1", "--r", "4", "--k", "2,-2", "--a", "2,2", "--cache"),
    ],
)
def test_bare_cache_flag_without_env_var_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("RSPIN_CACHE", raising=False)
    code, out, err = invoke(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "RSPIN_CACHE" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bounds,message",
    [
        (("--r-max", "1"), "--r-max 1 --n-max 5 --k-sum-max 8 in loop, relations, oracle, axioms"),
        (("--n-max", "0", "--k-sum-max", "0"), "--r-max 6 --n-max 0 --k-sum-max 0 in loop, relations, oracle, axioms"),
        (("--suite", "relations", "--k-sum-max", "1"), "--r-max 6 --n-max 5 --k-sum-max 1 in relations"),
    ],
)
def test_verify_empty_window_is_usage_error(capsys, bounds, message):
    code, out, err = invoke(capsys, "verify", "--format", "json", *bounds)
    assert code == 64
    assert out == ""
    assert err == f"error: no cases at {message}\n"


@pytest.mark.parametrize("problem", ["directory", "missing-dir", "not-utf8"])
def test_cache_file_errors_exit_1(capsys, tmp_path, problem):
    if problem == "directory":
        path = tmp_path / "folder"
        path.mkdir()
        argv = ("g0", "--r", "4", "--a", "1,1,3,3")
    elif problem == "missing-dir":
        path = tmp_path / "no-such-dir" / "x.json"
        argv = ("g0", "--r", "7", "--a", "1,3,5,5,5")
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "\xe9"}}')
        argv = ("dr1", "--r", "4", "--k", "2,-2", "--a", "2,2")
    code, out, err = invoke(capsys, *argv, "--cache", str(path))
    assert code == 1
    assert err.startswith("error: ") and str(path) in err
    # nothing is written beside the unusable cache file
    assert [p.name for p in tmp_path.iterdir()] == ([] if problem == "missing-dir" else [path.name])


@pytest.mark.parametrize("problem", ["directory", "missing-dir", "read-only-dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ("g0", "--r", "7", "--a", "1,3,5,5,5"),
        ("dr1", "--r", "8", "--k", "4,-4", "--a", "2,6", "--method", "relations"),
    ],
)
def test_unwritable_cache_path_fails_before_solving(capsys, tmp_path, monkeypatch, problem, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("solver called although the cache path cannot be written")

    monkeypatch.setattr("rspin.cli.solve_bracket", refuse)
    monkeypatch.setattr("rspin.cli.solve_relational", refuse)
    if problem == "directory":
        path = tmp_path
        reason = "Is a directory"
    elif problem == "missing-dir":
        path = tmp_path / "no-such-dir" / "x.json"
        reason = "No such file or directory"
    else:
        # os.access grants everything to a superuser, so stand in for a refusal
        monkeypatch.setattr("rspin.cli.os.access", lambda *args, **kwargs: False)
        path = tmp_path / "x.json"
        reason = "Permission denied"
    code, out, err = invoke(capsys, *argv, "--cache", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write cache file {path}: {reason}\n"


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "usage" in out
