"""Exact solver library for stable fixtures with payments.

Decides and constructs stable solutions of multiple partners matching games,
converts between stable solutions, LP duals, and core allocations, and
decides core membership for capacity-2 games with violating-coalition
certificates. All arithmetic is exact rational.

Importing the package loads no submodule: each public name imports the
module that defines it on first use (PEP 562), so a caller pays only for
what it uses.
"""

import importlib

_SUBMODULES = (
    "core", "cycles", "errors", "instance", "matching", "rationals", "reduction", "solver", "stability"
)

# The module that defines each public name that is not a submodule.
_HOME = {
    name: module
    for module, names in {
        "core": (
            "CoreVerdict", "CoreViolationError", "allocation_to_payoff", "core_membership_b2",
            "core_membership_bruteforce", "game_value", "is_allocation", "repair_negative",
            "solve_payoff_system",
        ),
        "errors": ("InternalError", "StableFixturesError"),
        "families": ("Generated", "generate"),
        "instance": ("Instance", "induced", "validate"),
        "matching": (
            "DualSolution", "HalfBMatching", "LPOptimum",
            "bipartite_max_weight_b_matching_with_duals", "bipartite_optimum_with_duals",
            "dual_from_duplicated", "duplicated_instance", "is_b_matching", "is_dual_feasible",
            "lp_optimum", "max_half_b_matching_weight", "max_weight_b_matching", "tighten_d",
            "weight",
        ),
        "oracles": ("max_weight_b_matching_bruteforce",),
        "reduction": (
            "ReducedInstance", "lift_stable", "reduce_instance", "reduce_matching",
            "reduce_solution", "srp_rematch",
        ),
        "solver": (
            "SolveOutcome", "dual_from_stable", "has_stable_solution", "solve",
            "stable_from_dual", "verify_complementary_slackness",
        ),
        "stability": (
            "Solution", "StabilityVerdict", "are_equivalent", "check_solution", "is_stable",
            "make_solution", "meet_join", "rematch", "to_competitive_equilibrium",
            "total_payoff", "utilities",
        ),
    }.items()
    for name in names
}

__all__ = tuple(sorted((*_SUBMODULES, *_HOME)))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
