"""Exact calculator for r-spin correlators in genus 0 and 1.

Every value is an exact :class:`fractions.Fraction`. Genus-0 brackets come
from closed 3/4-point formulas plus associativity (WDVV) rows, both in
:func:`rspin.genus0.solve_bracket`, and independently from the
Landau-Ginzburg model (:mod:`rspin.lg`), which also sums a whole window in
one pass. One product formula (in :mod:`rspin.core`) gives the window sums'
closed form, B and the genus-1 closed form; genus-1 brackets also come from
linear relations that take B from that product, so comparing the two
routes checks the factor ``sum(k_i^2)/2 - 1``, while B itself is checked
against a genus-0 window sum. The :mod:`rspin.verify` suites run these
checks over finite windows.

``import rspin`` runs none of the submodules. Each name in ``__all__``, and
each submodule (``rspin.dr1``), is imported on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in (
        ("core", (
            "EvalResult", "Genus0Bracket", "DR1Bracket", "GradingError",
            "StructureError", "ReductionStalledError", "InconsistentSystemError",
            "CacheError", "genus_of", "genus0_selection", "dr1_selection",
            "format_rational", "parse_rational", "parse_key",
        )),
        ("genus0", ("loop_sum", "wdvv_equations", "solve_bracket", "bracket_window_sum")),
        ("dr1", (
            "b_value", "b_value_trr", "closed_form", "RelationInstance",
            "relation1_instance", "relation2_instance", "relation3_check",
            "solve_relational", "enumerate_brackets",
        )),
        ("store", ("CacheStore", "default_cache_path")),
        ("verify", (
            "SuiteReport", "check_prop_loop", "check_relations",
            "check_oracle_equivalence", "check_axioms", "run_suite",
        )),
    )
    for name in names
}
_SUBMODULES = ("core", "elimination", "genus0", "lg", "dr1", "store", "verify")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
