"""Exact solver library for stable fixtures with payments.

Decides and constructs stable solutions of multiple partners matching games,
converts between stable solutions, LP duals, and core allocations, and
decides core membership for capacity-2 games with violating-coalition
certificates. All arithmetic is exact rational.
"""

from .core import (
    CoreVerdict,
    CoreViolationError,
    allocation_to_payoff,
    core_membership_b2,
    core_membership_bruteforce,
    cycle_ratio_diagnostics,
    game_value,
    is_allocation,
    repair_negative,
    solve_payoff_system,
)
from .errors import InternalError, StableFixturesError
from .instance import Generated, Instance, generate, induced, validate
from .matching import (
    HalfBMatching,
    bipartite_max_weight_b_matching_with_duals,
    bipartite_optimum_with_duals,
    duplicated_instance,
    is_b_matching,
    max_half_b_matching_weight,
    max_weight_b_matching,
    max_weight_b_matching_bruteforce,
    weight,
)
from .reduction import (
    ReducedInstance,
    lift_stable,
    reduce_instance,
    reduce_matching,
    reduce_solution,
    srp_rematch,
)
from .solver import (
    DualSolution,
    SolveOutcome,
    dual_from_duplicated,
    dual_from_stable,
    has_stable_solution,
    is_dual_feasible,
    solve,
    stable_from_dual,
    tighten_d,
    verify_complementary_slackness,
)
from .stability import (
    Solution,
    StabilityVerdict,
    are_equivalent,
    check_solution,
    is_stable,
    make_solution,
    meet_join,
    rematch,
    to_competitive_equilibrium,
    total_payoff,
    utilities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
