"""Command-line front end: evaluate brackets, run suites, export tables.

Exit codes: 0 success, 1 suite or computation failure (including a cache
file that cannot be read, written or trusted, one holding a genus-0 value
that does not scale to an integer or that disagrees with the recomputed
value), 2 disagreement between evaluation methods, 64 usage
error (including ``verify`` bounds that leave a suite with no cases and
``table`` bounds that leave no rows), 65 invalid grading or structure. A
reader that closes the output early (``rspin table ... | head``) ends the
command with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import errno
import importlib.util
import json
import os
import sys
from typing import List, Optional, Sequence

from .core import (
    SUITES,
    CacheError,
    DR1Bracket,
    Genus0Bracket,
    GradingError,
    ReductionStalledError,
    StructureError,
    _check_r,
    ascending_multisets,
    format_rational,
    genus0_key,
)
from .store import CACHE_ENV_VAR, CacheStore, default_cache_path


def _lazy(name: str):
    """``rspin.<name>`` in ``sys.modules``, run on its first attribute access.

    A command runs only the modules it calls into; any ``getattr`` on the
    placeholder (a profiler's or a tracer's too) runs the module. A module
    already imported is returned as it is. Before Python 3.13 a placeholder
    may run without a lock, so only this single-threaded front end makes them.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


_lazy("elimination")  # run by no command; registered so that a tracer finds it
genus0, lg, dr1, verify = map(_lazy, ("genus0", "lg", "dr1", "verify"))

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DISAGREEMENT = 2
EXIT_USAGE = 64
EXIT_DATA = 65

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _build_parser() -> _Parser:
    parser = _Parser(prog="rspin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, summary, formats=("text", "json"), cache=None):
        """Add subcommand ``name`` run by ``func``; return its ``add_argument``.

        Each takes ``--format`` (default ``formats[0]``); with ``cache`` set,
        ``--cache`` persists what ``cache`` names.
        """
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=formats, default=formats[0])
        if cache:
            p.add_argument(
                "--cache", nargs="?", const="", default=None, metavar="PATH",
                help=f"persist {cache} in PATH; a bare flag uses ${CACHE_ENV_VAR}, which must then be set",
            )
        p.set_defaults(func=func)
        return p.add_argument

    arg = command("g0", _cmd_g0, "evaluate a genus-0 bracket", cache="memoized values")
    arg("--r", type=int, required=True)
    arg("--a", type=_int_list, required=True, metavar="a1,..,an")
    arg("--method", choices=("wdvv", "lg", "both"), default="wdvv")

    arg = command("loopsum", _cmd_loopsum, "evaluate the window-sum formula")
    arg("--r", type=int, required=True)
    arg("--m", type=int, required=True)
    arg("--x", type=_int_list, required=True, metavar="x1,..,xn")
    arg("--extended", action="store_true")

    arg = command("dr1", _cmd_dr1, "evaluate a genus-1 bracket", cache="the relational solver's memo table")
    arg("--r", type=int, required=True)
    arg("--k", type=_int_list, required=True, metavar="k1,..,kn")
    arg("--a", type=_int_list, required=True, metavar="a1,..,an")
    arg("--method", choices=("closed", "relations", "both"), default="both")

    arg = command("b", _cmd_b, "evaluate the genus-1 one-point coefficient B")
    arg("--r", type=int, required=True)
    arg("--a", type=_int_list, required=True, metavar="a1,..,an")

    arg = command("verify", _cmd_verify, "run a property suite")
    arg("--suite", choices=("all",) + SUITES, default="all")
    arg("--r-max", type=int, default=6)
    arg("--n-max", type=int, default=5)
    arg("--k-sum-max", type=int, default=8)
    arg("--extended", action="store_true")

    arg = command("table", _cmd_table, "enumerate all brackets in a window", formats=("csv", "json"))
    arg("--kind", choices=("g0", "dr1"), required=True)
    arg("--r", type=int, required=True)
    arg("--n-max", type=int, default=5)
    arg("--k-sum-max", type=int, default=8)

    return parser


def _cache_path(flag: Optional[str]) -> Optional[str]:
    """Resolve the --cache flag: None means stay in memory."""
    if flag is None:
        return None
    path = flag or default_cache_path()
    if path is None:
        raise _UsageError(f"--cache without PATH needs ${CACHE_ENV_VAR} to be set")
    return path


def _open_store(path: Optional[str]) -> Optional[CacheStore]:
    """Load the cache file at ``path``, or start it empty; None stays in memory.

    A path the final save could not write is refused here, before anything
    is computed, with the message that save would give.
    """
    if path is None:
        return None
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = errno.EISDIR
    elif not os.path.isdir(directory):
        problem = errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        problem = errno.EACCES
    else:
        problem = None
    if problem is not None:
        raise CacheError(f"cannot write cache file {path}: {os.strerror(problem)}")
    if os.path.exists(path):
        return CacheStore.load(path)
    return CacheStore()


def _close_store(store: Optional[CacheStore], path: Optional[str]) -> None:
    if store is not None and path is not None and store.dirty:
        store.save(path)


def _emit(args, payload, *lines) -> None:
    """Print ``payload`` as JSON under ``--format json``, else each of ``lines``."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _results(pairs) -> list:
    """The ``results`` entries of a JSON payload, one per ``(method, EvalResult)``."""
    return [
        {"method": method, "value": format_rational(res.value), "status": res.status}
        for method, res in pairs
    ]


def _report(args, key: str, results, show_agree: bool) -> int:
    """Emit each ``(method, EvalResult)``; exit 2 unless all agree on value and status.

    ``show_agree`` puts the agreement in the JSON payload as ``"agree"``.
    """
    payload = {"key": key, "results": _results(results)}
    agree = len({(res.value, res.status) for _, res in results}) == 1
    if show_agree:
        payload["agree"] = agree
    _emit(args, payload, *(res.value for _, res in results))
    if not agree:
        print("method disagreement on " + key, file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_g0(args) -> int:
    bracket = Genus0Bracket(args.r, args.a)
    path = _cache_path(args.cache)
    results = []
    if args.method in ("wdvv", "both"):
        store = _open_store(path)
        results.append(("wdvv", genus0.solve_bracket(args.r, tuple(args.a), store)))
        _close_store(store, path)
    if args.method in ("lg", "both"):
        results.append(("lg", lg.bracket(args.r, tuple(args.a))))
    return _report(args, bracket.key, results, show_agree=len(results) > 1)


def _cmd_loopsum(args) -> int:
    try:
        value = genus0.loop_sum(args.r, args.m, tuple(args.x), extended=args.extended)
    except GradingError as exc:
        # the library names its keyword argument; a CLI user needs the flag
        raise GradingError(str(exc).replace("extended=True", "--extended")) from None
    payload = {"r": args.r, "m": args.m, "x": args.x, "extended": args.extended,
               "value": format_rational(value)}
    _emit(args, payload, value)
    return EXIT_OK


def _cmd_dr1(args) -> int:
    if len(args.k) != len(args.a):
        raise StructureError("k and a rows differ in length")
    bracket = DR1Bracket(args.r, zip(args.k, args.a))
    path = _cache_path(args.cache)
    methods = ["closed", "relations"] if args.method == "both" else [args.method]
    results = []
    for method in methods:
        if method == "closed":
            results.append(("closed", dr1.closed_form(bracket)))
        else:
            store = _open_store(path)
            results.append(("relations", dr1.solve_relational(bracket, store)))
            _close_store(store, path)
    return _report(args, bracket.key, results, show_agree=True)


def _cmd_b(args) -> int:
    value = dr1.b_value(args.r, tuple(args.a))
    _emit(args, {"r": args.r, "a": args.a, "value": format_rational(value)}, value)
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = verify.run_suite(
        args.suite,
        r_max=args.r_max,
        n_max=args.n_max,
        k_sum_max=args.k_sum_max,
        extended=args.extended,
    )
    empty = [rep.suite for rep in reports if rep.cases == 0]
    if empty:
        bounds = f"--r-max {args.r_max} --n-max {args.n_max} --k-sum-max {args.k_sum_max}"
        raise _UsageError(f"no cases at {bounds} in {', '.join(empty)}")
    lines = []
    for rep in reports:
        lines.append(rep.summary_line())
        lines.extend(f"  FAIL {key}: expected {expected}, got {got}" for key, expected, got in rep.failures)
    _emit(args, [rep.to_payload() for rep in reports], *lines)
    if any(not rep.passed for rep in reports):
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_table(args) -> int:
    _check_r(args.r)
    rows = []
    if args.kind == "g0":
        for n in range(3, args.n_max + 1):
            for a in ascending_multisets(0, args.r - 1, n, (n - 2) * args.r - 2):
                res = genus0.solve_bracket(args.r, a)
                rows.append(
                    {
                        "key": genus0_key(args.r, a),
                        "r": args.r,
                        "a": ",".join(str(v) for v in a),
                        "value": format_rational(res.value),
                        "status": res.status,
                    }
                )
        rows.sort(key=lambda row: row["key"])
        columns = ["r", "a", "value"]
    else:
        for br in dr1.enumerate_brackets(args.r, args.n_max, args.k_sum_max):
            res = dr1.closed_form(br)
            rows.append(
                {
                    "key": br.key,
                    "r": args.r,
                    "k": ",".join(str(v) for v in br.k_row),
                    "a": ",".join(str(v) for v in br.a_row),
                    "value": format_rational(res.value),
                    "status": res.status,
                }
            )
        columns = ["r", "k", "a", "value"]
    if not rows:
        bounds = f"--kind {args.kind} --r {args.r} --n-max {args.n_max}"
        if args.kind == "dr1":
            bounds += f" --k-sum-max {args.k_sum_max}"
        raise _UsageError(f"no rows at {bounds}")
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        import csv  # only this command writes CSV; every other process skips the import

        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    return EXIT_OK


def _join_negative_rows(argv: Sequence[str]) -> List[str]:
    """Join ``--k`` and a following row that starts with a negative order.

    argparse takes ``-2,2`` for an option, so ``--k -2,2`` would leave
    ``--k`` without its row; ``--k=-2,2`` is the spelling it reads.
    """
    out: List[str] = []
    for token in argv:
        if out and out[-1] == "--k" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = "--k=" + token
        else:
            out.append(token)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(_join_negative_rows(sys.argv[1:] if argv is None else argv))
        code = args.func(args)
        # A reader that closed early fails this flush, not the one at shutdown.
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # Nothing more reaches the reader; the shutdown flush goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except _UsageError as exc:
        code, error = EXIT_USAGE, exc
    except (GradingError, StructureError) as exc:
        code, error = EXIT_DATA, exc
    except (ReductionStalledError, CacheError, RecursionError) as exc:
        code, error = EXIT_FAILURE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
