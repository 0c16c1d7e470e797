"""Command-line frontend with JSON I/O and machine-readable exit codes.

Exit codes: 0 = stable solution found / allocation in core / success,
3 = no stable solution / core violation, 1 = malformed input,
2 = precondition failure (invalid instance, b > 2 without --brute-force, ...),
4 = internal error (an engine's own certificate check failed).

Standard output carries JSON only; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import stability as stability_mod
from .errors import InputError, InternalError, PreconditionError, StableFixturesError
from .instance import (
    Instance,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
)
from .rationals import format_rational
# Imported eagerly though only `reduce` runs it: perfbench's tracer wraps only loaded modules.
from .reduction import provenance_to_json, reduce_instance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_NEGATIVE = 3
EXIT_INTERNAL = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit.
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_instance(path: str) -> Instance:
    return instance_from_json(_load_json(path))


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


def _cmd_solve(args) -> int:
    from . import solver as solver_mod

    inst = _load_instance(args.instance)
    sellers = args.sellers.split(",") if args.sellers else None
    outcome = solver_mod.solve(inst, split_rule=args.split_rule, sellers=sellers)
    _emit(solver_mod.outcome_to_json(inst, outcome))
    return EXIT_OK if outcome.stable else EXIT_NEGATIVE


def _cmd_verify_stable(args) -> int:
    inst = _load_instance(args.instance)
    sol = stability_mod.solution_from_json(inst, _load_json(args.solution))
    violations = stability_mod.check_solution(inst, sol)
    if violations:
        raise PreconditionError("incompatible solution: " + "; ".join(violations))
    verdict = stability_mod.is_stable(inst, sol)
    _emit(
        {
            "stable": verdict.stable,
            "blocking_pairs": [{"u": u, "v": v} for (u, v) in verdict.blocking_pairs],
            "utilities": {p: format_rational(q) for p, q in verdict.utilities.items()},
        }
    )
    return EXIT_OK if verdict.stable else EXIT_NEGATIVE


def _cmd_core_check(args) -> int:
    from . import core as core_mod

    inst = _load_instance(args.instance)
    x = allocation_from_json(_load_json(args.allocation), inst)
    if args.brute_force:
        verdict = core_mod.core_membership_bruteforce(inst, x)
    else:
        verdict = core_mod.core_membership_b2(inst, x)
    _emit(core_mod.verdict_to_json(inst, verdict))
    return EXIT_OK if verdict.in_core else EXIT_NEGATIVE


def _cmd_reduce(args) -> int:
    inst = _load_instance(args.instance)
    reduced = reduce_instance(inst)
    _emit(
        {
            "instance": instance_to_json(reduced.instance),
            "provenance": provenance_to_json(reduced),
        }
    )
    return EXIT_OK


def _cmd_value(args) -> int:
    from . import core as core_mod
    from . import matching as matching_mod

    inst = _load_instance(args.instance)
    coalition = [p for p in args.coalition.split(",") if p]
    value, witness = core_mod.game_value_with_witness(inst, coalition)
    _emit(
        {
            "coalition": coalition,
            "value": format_rational(value),
            "witness_matching": matching_mod.matching_to_json(inst, witness),
        }
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .families import generate

    params = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.weight is not None:
        params["w"] = args.weight
    if args.input is not None:
        params["graph"] = _load_instance(args.input)
    generated = generate(args.family, **params)
    # Emit instance JSON directly (plus any companion allocation as an extra
    # key) so the output file feeds straight into the other subcommands.
    data = instance_to_json(generated.instance)
    if generated.allocation is not None:
        data.update(allocation_to_json(generated.allocation))
    _emit(data)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from . import matching as matching_mod
    from . import oracles

    if args.engine != "selftest" and not args.instance:
        raise InputError(f"oracle {args.engine} needs an instance file")
    if args.engine == "b-matching":
        inst = _load_instance(args.instance)
        matching, value = oracles.max_weight_b_matching_bruteforce(inst)
        _emit(
            {
                "weight": format_rational(value),
                "matching": matching_mod.matching_to_json(inst, matching),
            }
        )
        return EXIT_OK
    if args.engine == "half":
        inst = _load_instance(args.instance)
        value = oracles.max_half_b_matching_bruteforce(inst)
        _emit({"weight": format_rational(value)})
        return EXIT_OK
    if args.engine == "core-check":
        if not args.allocation:
            raise InputError("oracle core-check needs an allocation file")
        from . import core as core_mod

        inst = _load_instance(args.instance)
        x = allocation_from_json(_load_json(args.allocation), inst)
        verdict = core_mod.core_membership_bruteforce(inst, x)
        _emit(core_mod.verdict_to_json(inst, verdict))
        return EXIT_OK if verdict.in_core else EXIT_NEGATIVE
    if args.engine == "selftest":
        return _oracle_selftest(args.count, args.seed)
    raise InputError(f"unknown oracle engine {args.engine!r}")


def _oracle_selftest(count: int, seed: int) -> int:
    """Random cross-checks of the engines against the brute-force oracles."""
    import random

    from . import core as core_mod
    from . import matching as matching_mod
    from . import oracles
    from .randomgen import random_allocation, random_instance

    rng = random.Random(seed)
    for k in range(count):
        # Every other game is bipartite, so both integer dual passes (on the
        # game itself and on its double cover) meet the oracles.
        inst = random_instance(
            rng, n_range=(3, 8), max_extra_edges=5, b_range=(1, 2), max_weight=7,
            bipartite=k % 2 == 1,
        )
        opt = matching_mod.lp_optimum(inst)
        value = opt.weight
        _, brute = oracles.max_weight_b_matching_bruteforce(inst)
        if value != brute:
            print(f"selftest {k}: engine {value} != oracle {brute}", file=sys.stderr)
            return EXIT_NEGATIVE
        half = oracles.max_half_b_matching_bruteforce(inst)
        if opt.half != half:
            print(f"selftest {k}: LP optimum {opt.half} != oracle {half}", file=sys.stderr)
            return EXIT_NEGATIVE
        x = random_allocation(rng, inst, value)
        fast = core_mod.core_membership_b2(inst, x)
        slow = core_mod.core_membership_bruteforce(inst, x)
        if fast.kind != slow.kind:
            print(f"selftest {k}: core verdicts differ", file=sys.stderr)
            return EXIT_NEGATIVE
    _emit({"selftest": "ok", "trials": count})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablefixtures",
        description="Exact solver for stable fixtures with payments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a stable solution or a fractional witness")
    p.add_argument("instance")
    p.add_argument("--split-rule", dest="split_rule", choices=stability_mod.SPLIT_RULES, default="half")
    p.add_argument("--sellers", help="comma-separated seller side for seller_side splits")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify-stable", help="check compatibility and stability of a solution")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify_stable)

    p = sub.add_parser("core-check", help="decide core membership of an allocation")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--brute-force", action="store_true", dest="brute_force")
    p.set_defaults(func=_cmd_core_check)

    p = sub.add_parser("reduce", help="expand to the unit-capacity instance")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("value", help="coalition value v(S)")
    p.add_argument("instance")
    p.add_argument("--coalition", required=True, help="comma-separated player ids")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("gen", help="generate a named instance family")
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--weight")
    p.add_argument("--input", help="instance JSON used as the input graph")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="run brute-force oracles")
    p.add_argument("engine", choices=["b-matching", "half", "core-check", "selftest"])
    p.add_argument("instance", nargs="?")
    p.add_argument("allocation", nargs="?")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except StableFixturesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
