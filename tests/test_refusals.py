"""Input refusals across the modules: each bad input raises its documented error, naming the problem."""

from __future__ import annotations

from fractions import Fraction

import pytest

from rspin.core import CacheError, DR1Bracket, EvalResult, GradingError, StructureError, format_rational, genus_of
from rspin.dr1 import relation1_instance, relation2_instance
from rspin.genus0 import bracket_window_sum, loop_sum
from rspin.store import CacheStore


def _load_entry(tmp_path, raw, key="g0:r=5:a=1,1,3,3"):
    path = tmp_path / "c.json"
    path.write_text('{"schema": 1, "entries": {"%s": %s}}' % (key, raw))
    return CacheStore.load(str(path))


# more digits in its r= field than int() converts
HUGE_R_KEY = "g0:r=" + "1" * 5000 + ":a=1,1,1"


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda tmp: loop_sum(4, True, (1, 1)), GradingError, r"^window sum bound m=True must be a non-negative"),
        (lambda tmp: loop_sum(4, 2, ()), GradingError, r"^loop_sum needs at least one fixed twist$"),
        (lambda tmp: bracket_window_sum(4, -1, (1,)), GradingError, r"^window sum bound m=-1 must be"),
        (lambda tmp: relation1_instance(4, (1, -1), (2, 2, 2)), StructureError, r"^k and a rows differ in length$"),
        (lambda tmp: relation1_instance(4, (0, 0), (3, 1)), StructureError, r"^at least one order must be nonzero$"),
        (lambda tmp: relation1_instance(4, (2.9, -2.9), (2, 2)), StructureError, r"^order 2\.9 is not an integer$"),
        (lambda tmp: relation2_instance(6, ("1", "0", "-1"), (4, 4, 4)), StructureError,
         r"^order '1' is not an integer$"),
        (lambda tmp: DR1Bracket(4, [(1.0, 2), (-1, 2)]), StructureError, r"^order 1\.0 is not an integer$"),
        (lambda tmp: genus_of(4, [(-1, 2), (0, 2), (0, 2)]), GradingError, r"^psi power -1 must be a non-negative"),
        (lambda tmp: EvalResult(0, "zero"), ValueError, r"^unknown status 'zero'$"),
        (lambda tmp: EvalResult(0.1), TypeError, r"^an exact value must be an int or a Fraction, got float$"),
        (lambda tmp: EvalResult(True), TypeError, r"^an exact value must be an int or a Fraction, got bool$"),
        (lambda tmp: EvalResult("1/3"), TypeError, r"^an exact value must be an int or a Fraction, got str$"),
        (lambda tmp: EvalResult(0.0, "vanishing-axiom-zero"), TypeError, r"got float$"),
        (lambda tmp: format_rational(0.1), TypeError, r"^an exact value must be an int or a Fraction, got float$"),
        (lambda tmp: format_rational(False), TypeError, r"^an exact value must be an int or a Fraction, got bool$"),
        (lambda tmp: _load_entry(tmp, "0"), CacheError, r"entry 'g0:r=5:a=1,1,3,3' is not a string$"),
        (lambda tmp: CacheStore().put(HUGE_R_KEY, 1), CacheError, r"^unusable cache key 'g0:r=1+:a=1,1,1': malformed key"),
        (lambda tmp: _load_entry(tmp, '"1/1"', HUGE_R_KEY), CacheError,
         r": entry 'g0:r=1+:a=1,1,1': unusable cache key 'g0:r=1+:a=1,1,1': malformed key"),
    ],
    ids=[
        "loop_sum-bool-m", "loop_sum-empty-x", "bracket_window_sum-negative-m",
        "relation1-length-mismatch", "relation1-all-zero-k", "relation1-float-order",
        "relation2-string-order", "dr1-float-order", "genus_of-negative-psi",
        "eval-result-unknown-status", "eval-result-float", "eval-result-bool", "eval-result-string",
        "eval-result-float-zero", "format-rational-float", "format-rational-bool", "cache-load-non-string-value", "cache-put-huge-key-field",
        "cache-load-huge-key-field",
    ],
)
def test_a_bad_input_is_refused_with_its_documented_error(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_an_int_or_a_fraction_is_kept_as_a_plain_fraction():
    class Half(Fraction):
        pass

    for value, text in ((3, "3/1"), (Fraction(-2, 6), "-1/3"), (Half(1, 2), "1/2")):
        assert type(EvalResult(value).value) is Fraction
        assert EvalResult(value).value == value
        assert format_rational(value) == text
