"""Exception types shared across the package."""


class StableFixturesError(Exception):
    """Base class for all package errors."""


class InputError(StableFixturesError):
    """Malformed input: unparsable JSON, bad rational literal, wrong shape."""


class PreconditionError(StableFixturesError):
    """An operation was called on data that violates its contract."""


class InvalidInstanceError(PreconditionError):
    """The instance fails model invariants (loops, negative weights, ...)."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid instance: " + "; ".join(self.violations))


class UnknownPlayerError(PreconditionError):
    pass


class UnknownEdgeError(PreconditionError):
    pass


class IncompatibleSolutionError(PreconditionError):
    """Payoffs do not split the matched edge weights / are nonzero off-matching."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("incompatible solution: " + "; ".join(self.violations))


class UnstableSolutionError(PreconditionError):
    """A stable solution was required but the given one has blocking pairs."""


class NotBipartiteError(PreconditionError):
    pass


class NotMaximumWeightError(PreconditionError):
    """A maximum-weight (b-)matching was required but the given one is lighter."""


class CapacityTooLargeError(PreconditionError):
    """The polynomial core-membership test only covers capacities up to 2."""


class BoundExceededError(PreconditionError):
    """A brute-force oracle was asked to exceed its configured size bound."""


class DualityGapError(PreconditionError):
    """Primal and dual values differ, so no stable solution can be assembled."""


class ComponentSumError(PreconditionError):
    """Allocation sums to more than the weight of the matching it is to be split on."""


class InternalError(StableFixturesError):
    """An engine's own certificate check failed: a bug, not bad input."""
