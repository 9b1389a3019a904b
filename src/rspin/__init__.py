"""Exact calculator for r-spin correlators in genus 0 and 1.

Every value is an exact :class:`fractions.Fraction`. Genus-0 brackets come
from closed 3/4-point formulas plus associativity (WDVV) solving; brackets
with five or more points have WDVV as their only route, and are checked
through window sums against a closed product formula. Genus-1
double-ramification brackets come from a closed form and from a system of
linear relations; the relational route takes B from the same product as
the closed form, so comparing the two checks the factor
``sum(k_i^2)/2 - 1``, while B itself is checked against a genus-0 window
sum. The :mod:`rspin.verify` suites run these checks over finite windows.
"""

from .core import (
    CacheError,
    DR1Bracket,
    EvalResult,
    Genus0Bracket,
    GradingError,
    Rational,
    ReductionStalledError,
    StructureError,
    UnderdeterminedError,
    dr1_selection,
    format_rational,
    genus0_selection,
    genus_of,
    parse_key,
    parse_rational,
)
from .dr1 import (
    RelationInstance,
    b_value,
    b_value_trr,
    closed_form,
    enumerate_brackets,
    relation1_instance,
    relation2_instance,
    relation3_check,
    solve_relational,
)
from .genus0 import (
    bracket_window_sum,
    four_point,
    loop_sum,
    solve_bracket,
    three_point,
    wdvv_equations,
)
from .store import CacheStore, default_cache_path
from .verify import (
    SuiteReport,
    check_axioms,
    check_oracle_equivalence,
    check_prop_loop,
    check_relations,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "EvalResult",
    "Genus0Bracket",
    "DR1Bracket",
    "GradingError",
    "StructureError",
    "UnderdeterminedError",
    "ReductionStalledError",
    "CacheError",
    "genus_of",
    "genus0_selection",
    "dr1_selection",
    "format_rational",
    "parse_rational",
    "parse_key",
    "three_point",
    "four_point",
    "loop_sum",
    "wdvv_equations",
    "solve_bracket",
    "bracket_window_sum",
    "b_value",
    "b_value_trr",
    "closed_form",
    "RelationInstance",
    "relation1_instance",
    "relation2_instance",
    "relation3_check",
    "solve_relational",
    "enumerate_brackets",
    "CacheStore",
    "default_cache_path",
    "SuiteReport",
    "check_prop_loop",
    "check_relations",
    "check_oracle_equivalence",
    "check_axioms",
    "run_suite",
    "__version__",
]
