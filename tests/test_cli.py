"""Command-line behavior: outputs, exit codes, cache wiring."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_dr1_row_with_a_negative_first_order_needs_no_equals_sign(capsys):
    # argparse alone reads "-2,2" as an option and leaves --k without its row
    for k in (["--k", "-2,2"], ["--k=-2,2"]):
        code, out, err = invoke(capsys, "dr1", "--r", "4", *k, "--a", "2,2")
        assert (code, out, err) == (0, "1/32\n1/32\n", ""), k
    code, out, err = invoke(capsys, "dr1", "--r", "4", "--k", "-3,3", "--a", "2,2", "--method", "closed")
    assert (code, out) == (0, "1/12\n")
    # a following option is still an option, not a row
    code, _, err = invoke(capsys, "dr1", "--r", "4", "--k", "--a", "2,2")
    assert code == 64 and "--k: expected one argument" in err


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


# Every subcommand in each format, usage errors, a data error, a refusal and a
# row whose first order is negative: (argv, exit code, stdout, stderr), byte
# for byte. Timings vary, so "elapsed_ms" and the "... ms" ending a verify
# summary line read "…" on both sides.
_GOLDEN = [
    pytest.param("g0 --r 7 --a 3,3,4,4,5", 0, "4/49\n", "", id="g0-text"),
    pytest.param("g0 --r 7 --a 3,3,4,4,5 --format json", 0, """\
{
  "key": "g0:r=7:a=3,3,4,4,5",
  "results": [
    {
      "method": "wdvv",
      "status": "ok",
      "value": "4/49"
    }
  ]
}
""", "", id="g0-json"),
    pytest.param("g0 --r 7 --a 3,3,4,4,5 --method lg", 0, "4/49\n", "", id="g0-lg-text"),
    pytest.param("g0 --r 12 --a 5,7,8,8,9,9 --method both --format json", 0, """\
{
  "agree": true,
  "key": "g0:r=12:a=5,7,8,8,9,9",
  "results": [
    {
      "method": "wdvv",
      "status": "ok",
      "value": "1/36"
    },
    {
      "method": "lg",
      "status": "ok",
      "value": "1/36"
    }
  ]
}
""", "", id="g0-both-json"),
    pytest.param("g0 --r 8 --a 4,5,5,6,6,6,6 --method both", 0, "3/512\n3/512\n", "", id="g0-both-seven-points"),
    pytest.param("g0 --r 5 --a 4,1,0,3 --method both", 0, "0\n0\n", "", id="g0-both-vanishing"),
    pytest.param("loopsum --r 7 --m 5 --x 3,4", 0, "6/7\n", "", id="loopsum-text"),
    pytest.param("loopsum --r 5 --m 4 --x 2,2 --extended --format json", 0, """\
{
  "extended": true,
  "m": 4,
  "r": 5,
  "value": "4/5",
  "x": [
    2,
    2
  ]
}
""", "", id="loopsum-json"),
    pytest.param("dr1 --r 8 --k 4,-4 --a 2,6 --method both", 0, """\
25/64
25/64
""", "", id="dr1-text"),
    pytest.param("dr1 --r 6 --k 2,1,-3 --a 4,4,4 --format json", 0, """\
{
  "agree": true,
  "key": "dr1:r=6:k=3,-1,-2:a=4,4,4",
  "results": [
    {
      "method": "closed",
      "status": "ok",
      "value": "1/72"
    },
    {
      "method": "relations",
      "status": "ok",
      "value": "1/72"
    }
  ]
}
""", "", id="dr1-json"),
    pytest.param("dr1 --r 5 --k 1,-1 --a 3,1 --method closed --format json", 0, """\
{
  "agree": true,
  "key": "dr1:r=5:k=1,-1:a=1,3",
  "results": [
    {
      "method": "closed",
      "status": "dimension-mismatch-zero",
      "value": "0/1"
    }
  ]
}
""", "", id="dr1-closed-json"),
    pytest.param("dr1 --r 4 --k -2,2 --a 2,2", 0, """\
1/32
1/32
""", "", id="dr1-negative-first-order"),
    pytest.param("b --r 9 --a 7,7,6,7", 0, "1/1458\n", "", id="b-text"),
    pytest.param("b --r 9 --a 7,7,6,7 --format json", 0, """\
{
  "a": [
    7,
    7,
    6,
    7
  ],
  "r": 9,
  "value": "1/1458"
}
""", "", id="b-json"),
    pytest.param("verify --r-max 4 --n-max 4 --k-sum-max 4", 0, """\
loop: 7 cases, pass, … ms
relations: 52 cases, pass, … ms
oracle: 21 cases, pass, … ms
axioms: 47 cases, pass, … ms
""", "", id="verify-text"),
    pytest.param("verify --suite loop --r-max 4 --n-max 4 --extended", 1, """\
loop: 13 cases, FAIL (4 failures), … ms
  FAIL loop:r=2:m=2:x=0,0: expected 0/1, got 1/2
  FAIL loop:r=3:m=3:x=0,1: expected 0/1, got 2/3
  FAIL loop:r=4:m=4:x=0,2: expected 0/1, got 3/4
  FAIL loop:r=4:m=4:x=1,1: expected 1/4, got 1/1
""", "", id="verify-text-failing"),
    pytest.param("verify --r-max 4 --n-max 4 --k-sum-max 4 --format json", 0, """\
[
  {
    "cases": 7,
    "elapsed_ms": …,
    "failures": [],
    "suite": "loop"
  },
  {
    "cases": 52,
    "elapsed_ms": …,
    "failures": [],
    "suite": "relations"
  },
  {
    "cases": 21,
    "elapsed_ms": …,
    "failures": [],
    "suite": "oracle"
  },
  {
    "cases": 47,
    "elapsed_ms": …,
    "failures": [],
    "suite": "axioms"
  }
]
""", "", id="verify-json"),
    pytest.param("table --kind g0 --r 4 --n-max 4", 0, """\
r,a,value\r
4,"0,0,2",1/1\r
4,"0,0,3,3",0/1\r
4,"0,1,1",1/1\r
4,"0,1,2,3",0/1\r
4,"0,2,2,2",0/1\r
4,"1,1,1,3",0/1\r
4,"1,1,2,2",1/4\r
""", "", id="table-csv"),
    pytest.param("table --kind dr1 --r 4 --n-max 2 --k-sum-max 2 --format json", 0, """\
[
  {
    "a": "1,3",
    "k": "1,-1",
    "key": "dr1:r=4:k=1,-1:a=1,3",
    "r": 4,
    "status": "vanishing-axiom-zero",
    "value": "0/1"
  },
  {
    "a": "2,2",
    "k": "1,-1",
    "key": "dr1:r=4:k=1,-1:a=2,2",
    "r": 4,
    "status": "ok",
    "value": "0/1"
  }
]
""", "", id="table-json"),
    pytest.param("g0 --r 5", 64, "", "error: the following arguments are required: --a\n",
                 id="usage-missing-argument"),
    pytest.param("table --k 3", 64, "",
                 "error: ambiguous option: --k could match --kind, --k-sum-max\n",
                 id="usage-ambiguous-option"),
    pytest.param("verify --r-max 1", 64, "",
                 "error: no cases at --r-max 1 --n-max 5 --k-sum-max 8 in loop, relations, oracle, axioms\n",
                 id="usage-no-cases"),
    pytest.param("g0 --r 5 --a 1,1,3,3 --cache", 64, "",
                 "error: --cache without PATH needs $RSPIN_CACHE to be set\n", id="usage-bare-cache"),
    pytest.param("dr1 --r 4 --k 2,-1 --a 2,2", 65, "", "error: orders must balance to 0, got sum 1\n",
                 id="grading-error"),
    pytest.param("dr1 --r 4 --k 100000,-100000 --a 2,2", 1, "",
                 "error: dr1:r=4:k=100000,-100000:a=2,2 may reach 200000 brackets, above 100000, "
                 "the most the relational route reduces\n", id="reach-refusal"),
]


@pytest.mark.parametrize("line, code, out, err", _GOLDEN)
def test_cli_output_is_pinned_byte_for_byte(capsys, monkeypatch, line, code, out, err):
    monkeypatch.delenv("RSPIN_CACHE", raising=False)
    got_code, got_out, got_err = invoke(capsys, *line.split())
    got_out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": …', got_out)
    got_out = re.sub(r", \d+ ms$", ", … ms", got_out, flags=re.M)
    assert (got_code, got_out, got_err) == (code, out, err)


def _cli(*argv, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("rspin").__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RSPIN_CACHE", None)
    return subprocess.run(
        [sys.executable, "-m", "rspin.cli", *argv], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True
    )


@pytest.mark.parametrize("argv", [
    "b --r 9 --a 7,7,6,7",
    "table --kind dr1 --r 12 --n-max 6 --k-sum-max 12",
])
def test_a_reader_that_closes_at_once_ends_the_command_quietly(argv):
    # as ``rspin ... | head -0`` would: exit 1, no traceback, nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli(*argv.split(), stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_deep_dr1_rows_end_without_a_traceback():
    for method in ("both", "relations"):
        done = _cli("dr1", "--r", "4", "--k", "248,-248", "--a", "2,2", "--method", method)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["20501/32"] * (2 if method == "both" else 1)
        assert done.stderr == ""
    done = _cli("dr1", "--r", "4", "--k", "2000,-2000", "--a", "2,2", "--method", "both")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1333333/32\n1333333/32\n", "")
    done = _cli("dr1", "--r", "4", "--k", "100000,-100000", "--a", "2,2", "--method", "both")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "error: dr1:r=4:k=100000,-100000:a=2,2 may reach 200000 brackets, above 100000, "
        "the most the relational route reduces\n"
    )
    done = _cli("dr1", "--r", "4", "--k", "100000,-100000", "--a", "2,2", "--method", "closed")
    assert done.returncode == 0 and done.stdout.strip() == "3333333333/32"


def test_cli_import_loads_every_module_and_no_introspection_stdlib():
    """``import rspin.cli`` registers all seven submodules and skips the slow stdlib.

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
    submodules = {"core", "dr1", "elimination", "genus0", "lg", "store", "verify", "cli"}
    assert {"rspin." + name for name in submodules} <= cli


_SUBMODULES = ("cli", "core", "dr1", "elimination", "genus0", "lg", "store", "verify")


def _modules_run(*argvs, before="", after=""):
    """In a fresh interpreter: ``import rspin.cli``, run each argv, list the modules run.

    ``before`` runs ahead of the import and ``after`` once the commands are
    done. A placeholder module that has not run yet is of a ``ModuleType``
    subclass, and ``type()`` reads that without running it.
    """
    probe = "\n".join([
        "import sys, types",
        before,
        "import rspin.cli",
        f"codes = [rspin.cli.run(argv) for argv in {[list(a) for a in argvs]!r}]",
        after,
        f"ran = [n for n in {_SUBMODULES!r} if type(sys.modules['rspin.' + n]) is types.ModuleType]",
        "print(codes)",
        "print(*ran)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("rspin").__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RSPIN_CACHE", None)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    *printed, codes, ran = done.stdout.splitlines()
    return json.loads(codes), set(ran.split()), printed


def test_cli_import_runs_only_core_and_store():
    codes, ran, _ = _modules_run()
    assert codes == [] and ran == {"cli", "core", "store"}


@pytest.mark.parametrize(
    "argv, value",
    [
        (("b", "--r", "9", "--a", "7,7,6,7"), ["1/1458"]),
        (("dr1", "--r", "8", "--k", "4,-4", "--a", "2,6", "--method", "both"), ["25/64", "25/64"]),
    ],
    ids=["b", "dr1"],
)
def test_genus1_requests_leave_genus0_unrun(argv, value):
    codes, ran, printed = _modules_run(argv)
    assert codes == [0] and printed == value
    assert ran == {"cli", "core", "store", "dr1"}


def test_g0_cache_hit_leaves_dr1_and_verify_unrun(tmp_path):
    path = str(tmp_path / "c.json")
    argv = ("g0", "--r", "7", "--a", "3,3,4,4,5", "--cache", path)
    assert _cli(*argv).stdout == "4/49\n"  # a miss, which fills the cache file
    stamp = os.stat(path).st_mtime_ns
    codes, ran, printed = _modules_run(argv)
    assert codes == [0] and printed == ["4/49"]
    assert os.stat(path).st_mtime_ns == stamp  # stored and recomputed alike: nothing to save
    assert ran == {"cli", "core", "store", "genus0"}


def test_g0_by_lg_alone_runs_no_wdvv_code():
    codes, ran, printed = _modules_run(("g0", "--r", "7", "--a", "3,3,4,4,5", "--method", "lg"))
    assert codes == [0] and printed == ["4/49"]
    assert ran == {"cli", "core", "store", "lg"}


def test_getattr_on_a_placeholder_returns_the_real_function():
    # the benchmark tracer reads getattr(sys.modules[name], attr) to wrap a layer
    after = "\n".join([
        "mod = sys.modules['rspin.genus0']",
        "fn = getattr(mod, 'solve_bracket')",
        "assert type(mod) is types.ModuleType and vars(mod)['solve_bracket'] is fn",
        "assert fn.__module__ == 'rspin.genus0' and rspin.cli.genus0 is mod",
        "print(fn(7, (3, 3, 4, 4, 5)).value)",
    ])
    codes, ran, printed = _modules_run(after=after)
    assert printed == ["4/49"]
    assert ran == {"cli", "core", "store", "genus0"}


def test_cli_import_keeps_a_module_already_imported():
    before = "import rspin.dr1; first = sys.modules['rspin.dr1']"
    after = "assert sys.modules['rspin.dr1'] is first is rspin.cli.dr1"
    codes, ran, _ = _modules_run(before=before, after=after)
    assert ran == {"cli", "core", "store", "dr1"}


def test_verify_suite_choices_are_the_verify_suites():
    import argparse

    import rspin.verify
    from rspin.cli import _build_parser

    commands = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all",) + rspin.verify.SUITES


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


def test_a_wrong_genus0_value_in_the_cache_file_exits_1_naming_its_key(capsys, tmp_path):
    # <1,3,6,6,6> at r = 8 is 0; stored as 1/64 (scaled by r^2, the integer 1)
    # it loads, but a request that takes its value from the (8, 5) or (8, 6)
    # rows recomputes the (8, 5) values, so asked for or not, by WDVV alone or
    # beside LG, it is never served: exit 1, one line, the file left as it was
    path = tmp_path / "wrong.json"
    text = '{"schema": 1, "entries": {"g0:r=8:a=1,3,6,6,6": "1/64"}}\n'
    path.write_text(text)
    for a in ("1,3,6,6,6", "3,3,6,6,6,6"):
        for method in ("wdvv", "both"):
            code, out, err = invoke(capsys, "g0", "--r", "8", "--a", a, "--method", method, "--cache", str(path))
            assert (code, out) == (1, ""), (a, method)
            assert err == "error: stored value 1/64 for g0:r=8:a=1,3,6,6,6 disagrees with the recomputed 0\n"
            assert path.read_text() == text


@pytest.mark.parametrize("r,a", [
    pytest.param("8", "1,3,6,6,6", id="1,3,6,6,6"),
    pytest.param("8", "3,3,6,6,6,6", id="3,3,6,6,6,6"),
    pytest.param("7", "1,3,5,5,5", id="1,3,5,5,5"),
])
def test_a_genus0_value_in_the_cache_file_that_scales_to_no_integer_exits_1_naming_it(capsys, tmp_path, r, a):
    # 1/7 times r^2 = 64 is not an integer, which no true five-point value at
    # r = 8 gives: refused as the file loads, so whether it is asked for, read
    # by a larger system or not read at all, and never saved back
    path = tmp_path / "wrong.json"
    text = '{"schema": 1, "entries": {"g0:r=8:a=1,3,6,6,6": "1/7"}}\n'
    path.write_text(text)
    code, out, err = invoke(capsys, "g0", "--r", r, "--a", a, "--cache", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: g0:r=8:a=1,3,6,6,6: stored value 1/7 times r^(n-3) = 64 is not an integer\n"
    assert path.read_text() == text


@pytest.mark.parametrize("r,a", [
    pytest.param("8", "1,1,1", id="1,1,1"),
    pytest.param("7", "1,3,5,5,5", id="1,3,5,5,5"),
])
def test_a_nonzero_genus0_value_on_a_bracket_that_is_zero_exits_1_naming_it(capsys, tmp_path, r, a):
    # <1,1,1> at r = 8 is off the grading, so 0: the stored 5/1 is refused as
    # the file loads, so whether it is asked for or not, and never saved back
    path = tmp_path / "wrong.json"
    text = '{"schema": 1, "entries": {"g0:r=8:a=1,1,1": "5/1"}}\n'
    path.write_text(text)
    code, out, err = invoke(capsys, "g0", "--r", r, "--a", a, "--cache", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: g0:r=8:a=1,1,1: stored value 5, but a dimension-mismatch-zero bracket is 0\n"
    assert path.read_text() == text


@pytest.mark.parametrize("r,a", [
    pytest.param("5", "2,2,3,3,3", id="2,2,3,3,3"),
    pytest.param("5", "1,1,3,3", id="1,1,3,3"),
])
def test_a_genus0_value_off_its_closed_form_exits_1_naming_it(capsys, tmp_path, r, a):
    # <1,1,3,3> at r = 5 is min(1, 5 - 1 - 3)/5 = 1/5: the stored 2/5 would
    # enter the rows of the five-point brackets, so it is refused as the file
    # loads, whether it is asked for or not, and never saved back
    path = tmp_path / "wrong.json"
    text = '{"schema": 1, "entries": {"g0:r=5:a=1,1,3,3": "2/5"}}\n'
    path.write_text(text)
    code, out, err = invoke(capsys, "g0", "--r", r, "--a", a, "--cache", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: g0:r=5:a=1,1,3,3: stored value 2/5, but its four-point closed form is 1/5\n"
    assert path.read_text() == text


def test_g0_lg_method_leaves_the_cache_file_alone(capsys, tmp_path):
    path = tmp_path / "cache.json"
    code, out, _ = invoke(capsys, "g0", "--r", "7", "--a", "3,3,4,4,5", "--method", "lg", "--cache", str(path))
    assert (code, out) == (0, "4/49\n")
    assert not path.exists()


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

    monkeypatch.setattr("rspin.genus0.solve_bracket", refuse)
    monkeypatch.setattr("rspin.dr1.solve_relational", refuse)
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


# Bounded argv for every subcommand: r <= 8, rows of at most five entries,
# small suite and table windows. Each flag is usually present, a row's entries
# mostly lie in range, and junk tokens sometimes land anywhere.
_FORMAT = st.sampled_from(("text", "json"))
_JUNK = st.sampled_from(
    ("", "-", "--", "x", "1,,2", "1.5", "-3", "--r", "--a", "--k", "--bogus", "--help",
     "--format", "json", "g0", "verify", "\u0663", "1e3", " 7", "--cache")
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(("g0", "loopsum", "dr1", "b", "verify", "table")))
    r = draw(st.integers(-1, 8))
    twists = st.lists(st.integers(-1, max(r, 1)), min_size=1, max_size=5)
    k = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=5))
    if draw(st.booleans()):
        k[-1] = -sum(k[:-1])
    flags = {
        "g0": {"--r": r, "--a": twists, "--method": st.sampled_from(("wdvv", "lg", "both")),
               "--format": _FORMAT},
        "loopsum": {"--r": r, "--m": st.integers(-1, 10), "--x": twists,
                    "--extended": None, "--format": _FORMAT},
        "dr1": {"--r": r, "--k": k, "--a": st.lists(st.integers(-1, max(r, 1)), min_size=len(k),
                                                   max_size=len(k) + draw(st.integers(0, 1))),
                "--method": st.sampled_from(("closed", "relations", "both")), "--format": _FORMAT},
        "b": {"--r": r, "--a": twists, "--format": _FORMAT},
        "verify": {"--suite": st.sampled_from(("all", "loop", "relations", "oracle", "axioms")),
                   "--r-max": st.integers(-1, 5), "--n-max": st.integers(-1, 4),
                   "--k-sum-max": st.integers(-1, 6), "--extended": None, "--format": _FORMAT},
        "table": {"--kind": st.sampled_from(("g0", "dr1")), "--r": r, "--n-max": st.integers(-1, 5),
                  "--k-sum-max": st.integers(-1, 8), "--format": st.sampled_from(("csv", "json"))},
    }[command]
    argv = [command]
    for flag, value in flags.items():
        if not draw(st.integers(0, 9)):
            continue
        if isinstance(value, st.SearchStrategy):
            value = draw(value)
        if value is None:
            argv.append(flag)
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        # "--flag value" or "--flag=value": "--k -2,2" and "--k=-2,2" both give the row
        argv.extend([f"{flag}={text}"] if draw(st.booleans()) else [flag, text])
    if not draw(st.integers(0, 3)):
        for token in draw(st.lists(_JUNK, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(_argvs())
@example(["verify", "--suite", "loop", "--extended", "--r-max", "4", "--n-max", "4"])  # exit 1
@example(["dr1", "--r", "4", "--k", "-2,2", "--a", "2,2"])  # exit 0, 1/32 twice
def test_cli_argv_fuzz_ends_with_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 64, 65), (argv, code, err.getvalue())
