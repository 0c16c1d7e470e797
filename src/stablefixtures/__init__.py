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
        "core": ("CoreVerdict", "CoreViolationError", "core_membership_b2", "game_value", "is_allocation"),
        "duals": (
            "bipartite_max_weight_b_matching_with_duals", "dual_from_duplicated", "dual_from_stable",
            "has_stable_solution", "is_dual_feasible", "stable_from_dual",
            "verify_complementary_slackness",
        ),
        "errors": ("InternalError", "StableFixturesError"),
        "families": ("Generated", "generate"),
        "instance": ("Instance", "induced", "validate"),
        "matching": (
            "DualSolution", "HalfBMatching", "LPOptimum", "duplicated_instance", "is_b_matching",
            "lp_optimum", "max_half_b_matching_weight", "max_weight_b_matching", "weight",
        ),
        "oracles": ("core_membership_bruteforce", "max_weight_b_matching_bruteforce"),
        "reduction": ("ReducedInstance", "reduce_instance"),
        "solver": ("SolveOutcome", "solve"),
        "stability": (
            "Solution", "StabilityVerdict", "check_solution", "is_stable", "make_solution",
            "total_payoff", "utilities",
        ),
        "transfers": (
            "allocation_to_payoff", "are_equivalent", "lift_stable", "meet_join", "reduce_matching",
            "reduce_solution", "rematch", "srp_rematch", "to_competitive_equilibrium",
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


def _moved_from(module, **homes):
    """The `__getattr__` (PEP 562) of `module` for the names that left it but
    that perfbench still looks up there: each keyword names their new home,
    imported on first use."""
    home_of = {name: home for home, names in homes.items() for name in names.split()}

    def moved(name):
        if name not in home_of:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{home_of[name]}"), name)

    return moved


def __dir__():
    return sorted({*globals(), *__all__})
