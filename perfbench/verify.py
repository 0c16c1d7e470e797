"""Checks that one CLI answer is right; a wrong answer counts as a failure.

Each check reads the exit code and stdout of one request. Certificates are
checked exactly through the program's public verifiers and the benchmark's
own arithmetic, and optima are cross-checked with scipy (see lp_check).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import checkout  # noqa: F401  (imports the program from this checkout)
import lp_check
from stablefixtures import matching, solver, stability
from stablefixtures.instance import induced, instance_from_json


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def check(req, code: int | None, stdout: str) -> str | None:
    """None when the answer is right, else the reason it is wrong."""
    if code is None:
        return "timed out"
    if req.kind == "reject":
        if code != req.expect["exit"]:
            return f"exit {code}, expected {req.expect['exit']}"
        return "stdout not empty on rejected input" if stdout.strip() else None
    try:
        data = json.loads(stdout)
        return CHECKS[req.kind](req, code, data)
    except Exception as exc:  # any malformed answer is a failed request
        return f"{type(exc).__name__}: {exc}"


def _instance(req):
    name = next(iter(req.files))
    return instance_from_json(req.files[name])


def _optima(req) -> tuple[float, float]:
    if "integral" not in req.expect:
        req.expect["integral"], req.expect["fractional"] = lp_check.optima(req.game)
    return req.expect["integral"], req.expect["fractional"]


def _check_solve(req, code, data) -> str | None:
    stable = data["status"] == "stable"
    if data["status"] not in ("stable", "no_stable"):
        return f"unknown status {data['status']!r}"
    if code != (0 if stable else 3):
        return f"exit {code} with status {data['status']}"
    if stable != req.expect["stable"]:
        return f"status {data['status']} contradicts the planted class"
    inst = _instance(req)
    integral = Fraction(data["b_matching_weight"])
    half = Fraction(data["half_b_matching_weight"])
    if stable:
        sol = stability.solution_from_json(inst, data["solution"])
        if stability.check_solution(inst, sol):
            return "solution is not compatible"
        if not stability.is_stable(inst, sol).stable:
            return "solution is not stable"
        if matching.weight(inst, sol.matching) != integral:
            return "matching weight differs from b_matching_weight"
        dual = solver.DualSolution(
            y={p: Fraction(q) for p, q in data["dual"]["y"].items()},
            d={(e["u"], e["v"]): Fraction(e["value"]) for e in data["dual"]["d"]},
        )
        if not solver.is_dual_feasible(inst, dual).feasible:
            return "dual is infeasible"
        if solver.dual_objective(inst, dual) != integral:
            return "dual objective differs from b_matching_weight"
        if half != integral:
            return "stable answer with a half-matching gap"
    else:
        witness = matching.half_matching_from_json(inst, data["witness"])
        if not matching.is_half_b_matching(inst, witness.values):
            return "witness is not a half-b-matching"
        if witness.weight(inst) != half:
            return "witness weight differs from half_b_matching_weight"
        if not half > integral:
            return "no_stable answer without a gap"
    lp_integral, lp_fractional = _optima(req)
    if not lp_check.close(float(integral), lp_integral):
        return f"b_matching_weight {integral} but scipy finds {lp_integral}"
    if not lp_check.close(float(half), lp_fractional):
        return f"half_b_matching_weight {half} but scipy finds {lp_fractional}"
    return None


def _matching_weight(game, members, pairs) -> Fraction:
    """Exact weight of a b-matching inside the coalition; raises if it is not one."""
    load = dict.fromkeys(members, 0)
    total = Fraction(0)
    seen = set()
    for item in pairs:
        u, v = item["u"], item["v"]
        key = (u, v) if (u, v) in game.weights else (v, u)
        if key not in game.weights or u not in load or v not in load or key in seen:
            raise ValueError(f"{u}-{v} is not an edge of the coalition")
        seen.add(key)
        load[u] += 1
        load[v] += 1
        total += game.weights[key]
    if any(load[p] > game.caps[p] for p in load):
        raise ValueError("witness exceeds a capacity")
    return total


def _check_core(req, code, data) -> str | None:
    verdict = data["verdict"]
    want = "in_core" if req.expect["in_core"] else "violation"
    if verdict != want:
        return f"verdict {verdict}, expected {want}"
    if code != (0 if verdict == "in_core" else 3):
        return f"exit {code} with verdict {verdict}"
    if verdict == "in_core":
        return None
    coalition = data["coalition"]
    x = req.expect["x"]
    total = sum((x[p] for p in coalition), Fraction(0))
    value = Fraction(data["coalition_value"])
    if Fraction(data["coalition_total"]) != total:
        return "coalition_total differs from x(S)"
    if not total < value:
        return "reported violation has x(S) >= v(S)"
    if Fraction(data["deficit"]) != value - total:
        return "deficit differs from v(S) - x(S)"
    if _matching_weight(req.game, set(coalition), data["witness_matching"]) != value:
        return "witness weight differs from v(S)"
    if not lp_check.close(float(value), lp_check.coalition_value(req.game, coalition)):
        return "v(S) differs from scipy's"
    return None


def _check_value(req, code, data) -> str | None:
    if code != 0:
        return f"exit {code}"
    coalition = req.expect["coalition"]
    if data["coalition"] != coalition:
        return "coalition echoed wrongly"
    value = Fraction(data["value"])
    if _matching_weight(req.game, set(coalition), data["witness_matching"]) != value:
        return "witness weight differs from value"
    _, oracle = matching.max_weight_b_matching_bruteforce(induced(_instance(req), coalition))
    if oracle != value:
        return f"value {value}, brute force finds {oracle}"
    return None


def expected_stability(game, matched, payoffs):
    """Utilities and blocking pairs, computed without the program."""
    received = {p: [] for p in game.players}
    for u, v in matched:
        received[u].append(payoffs[(u, v)])
        received[v].append(payoffs[(v, u)])
    util = {
        p: min(got) if got and len(got) == game.caps[p] else Fraction(0) for p, got in received.items()
    }
    in_m = set(matched)
    blocking = {
        frozenset(e)
        for e, w in game.weights.items()
        if e not in in_m and game.caps[e[0]] > 0 and game.caps[e[1]] > 0 and util[e[0]] + util[e[1]] < w
    }
    return util, blocking


def _check_verify_stable(req, code, data) -> str | None:
    util, blocking = expected_stability(req.game, req.expect["matching"], req.expect["payoffs"])
    if code != (3 if blocking else 0):
        return f"exit {code}, expected {3 if blocking else 0}"
    if data["stable"] != (not blocking):
        return "stable flag is wrong"
    if {frozenset((b["u"], b["v"])) for b in data["blocking_pairs"]} != blocking:
        return "blocking pairs differ"
    if {p: Fraction(q) for p, q in data["utilities"].items()} != util:
        return "utilities differ"
    return None


CHECKS = {
    "solve": _check_solve,
    "core-check": _check_core,
    "value": _check_value,
    "verify-stable": _check_verify_stable,
}


def tally(pool, results) -> tuple[int, list[str]]:
    """Failed count and reasons over (pool index, exit code, stdout) results.

    Identical answers to the same request are checked once.
    """
    verdicts: dict[tuple, str | None] = {}
    failed, reasons = 0, []
    for index, code, stdout in results:
        key = (index, code, digest(stdout))
        if key not in verdicts:
            verdicts[key] = check(pool[index], code, stdout)
        if verdicts[key] is not None:
            failed += 1
            reasons.append(f"request {index} ({pool[index].kind}): {verdicts[key]}")
    return failed, reasons
