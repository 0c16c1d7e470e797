"""Seeded inputs for the benchmark workloads.

A workload turns a seed into a fixed pool of requests. A request is one
`stablefixtures` CLI call: its arguments, the JSON files it reads, the game
behind them and what a correct answer must satisfy. Inputs are plain JSON
built here, without calling the program, so the program sees only the files.

Instances are planted where the benchmark needs to know the answer:
- a stable instance comes from an optimal dual `y` with `d = 0`: a b-matching
  M is tight (`w(ij) = y(i) + y(j)`), every other edge has `w <= y(i) + y(j)`
  and only saturated players get `y > 0`. So M is optimal, the LP is integral
  and `p(i, j) = y(i)` on M is a stable solution whose row sums lie in the core;
- a no-stable instance carries a heavy triangle of capacity-1 players.
solve-general confirms each instance's class with scipy before use; a
bipartite game is always stable, as its LP is integral.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import lp_check

WORKLOADS = ("solve-general", "solve-bipartite", "core-b2", "audit")

# Requests replayed in-process by the traced run: the first few of the pool,
# a whole number of the workload's request pattern.
TRACE_REQUESTS = {"solve-general": 10, "solve-bipartite": 6, "core-b2": 6, "audit": 20}

POOL_SIZE = {"solve-general": 40, "solve-bipartite": 40, "core-b2": 40, "audit": 120}


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass
class Game:
    players: list[str]
    caps: dict[str, int]
    weights: dict[tuple[str, str], Fraction]  # keys (u, v) with u before v

    def to_json(self) -> dict:
        return {
            "players": list(self.players),
            "capacity": dict(self.caps),
            "edges": [{"u": u, "v": v, "w": fmt(w)} for (u, v), w in self.weights.items()],
        }

    def degree(self) -> dict[str, int]:
        return _degrees(self.players, self.weights)


@dataclass
class Request:
    kind: str  # "solve", "core-check", "verify-stable", "value" or "reject"
    argv: list[str]  # CLI arguments; file names are relative to the input directory
    files: dict[str, dict]
    game: Game
    expect: dict = field(default_factory=dict)

    def resolved_argv(self, directory) -> list[str]:
        return [str(directory / a) if a in self.files else a for a in self.argv]


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------


def _graph(rng: random.Random, n: int, m: int, bipartite: bool = False, forced=()):
    """n players and exactly m edges: the `forced` index pairs, a random
    spanning forest and extra random edges.

    Bipartite graphs put even-numbered players on one side.
    """
    players = [f"p{k}" for k in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs: set[tuple[int, int]] = set(forced)
    for pos in range(1, n):
        a = order[pos]
        pool = [b for b in order[:pos] if not bipartite or (a - b) % 2]
        if pool:
            b = rng.choice(pool)
            pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        a, b = rng.sample(range(n), 2)
        if not bipartite or (a - b) % 2:
            pairs.add((min(a, b), max(a, b)))
    return players, [(players[a], players[b]) for a, b in sorted(pairs)]


def _degrees(players, pairs) -> dict[str, int]:
    degree = dict.fromkeys(players, 0)
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    return degree


def _random_weights(rng: random.Random, edges, rational_share: float) -> dict:
    """Integer weights 1..40; a fixed share are non-integer rationals."""
    rational = set(rng.sample(range(len(edges)), round(rational_share * len(edges))))
    weights = {}
    for k, e in enumerate(edges):
        if k in rational:
            q = rng.choice((2, 3, 5, 7))
            weights[e] = Fraction(rng.randrange(1, 40) * q + rng.randrange(1, q), q)
        else:
            weights[e] = Fraction(rng.randint(1, 40))
    return weights


def _capacities(rng: random.Random, players, degree, choices, over_share: float) -> dict:
    """Capacities spread evenly over `choices`; a fixed share exceed their degree."""
    shuffled = list(players)
    rng.shuffle(shuffled)
    over = round(over_share * len(players))
    caps = {p: degree[p] + 1 for p in shuffled[:over]}
    for k, p in enumerate(shuffled[over:]):
        caps[p] = choices[k % len(choices)]
    return {p: caps[p] for p in players}


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------


def _solve_game(rng, n, m, choices, bipartite, no_stable):
    # A no-stable game gets three capacity-1 players on a triangle much
    # heavier than any other edge: a half-matching takes 3/2 of it, a
    # matching only 1.
    trio = sorted(rng.sample(range(n), 3)) if no_stable else []
    forced = [(trio[a], trio[b]) for a, b in ((0, 1), (0, 2), (1, 2))] if no_stable else []
    players, edges = _graph(rng, n, m, bipartite, forced)
    weights = _random_weights(rng, edges, 0.3)
    caps = _capacities(rng, players, _degrees(players, edges), choices, 0.1)
    for a, b in forced:
        weights[(players[a], players[b])] = Fraction(150)
    for k in trio:
        caps[players[k]] = 1
    return Game(players, caps, weights)


def _solve_pool(seed, workload, n, m, choices, bipartite, no_stable_slots, period):
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for k in range(POOL_SIZE[workload]):
        want_stable = k % period not in no_stable_slots
        expect = {"stable": want_stable}
        for _ in range(100):
            game = _solve_game(rng, n, m, choices, bipartite, not want_stable)
            if bipartite:
                break  # the LP of a bipartite game is integral
            integral, fractional = lp_check.optima(game)
            if lp_check.close(integral, fractional) == want_stable:
                expect.update(integral=integral, fractional=fractional)
                break
        else:
            raise RuntimeError(f"{workload}: no instance of the wanted class found")
        name = f"g{k}.json"
        out.append(
            Request(kind="solve", argv=["solve", name], files={name: game.to_json()}, game=game, expect=expect)
        )
    return out


def solve_general(seed: int) -> list[Request]:
    """General graphs, b in {1, 2}; 3 in 10 instances have no stable solution."""
    return _solve_pool(seed, "solve-general", 30, 85, (1, 2), False, {2, 5, 8}, 10)


def solve_bipartite(seed: int) -> list[Request]:
    """Bipartite graphs, b in {1, 2, 3}; always stable."""
    return _solve_pool(seed, "solve-bipartite", 80, 235, (1, 2, 3), True, set(), 1)


# ---------------------------------------------------------------------------
# Planted stable games (core-b2 and audit)
# ---------------------------------------------------------------------------


@dataclass
class Planted:
    game: Game
    matching: list[tuple[str, str]]
    y: dict[str, Fraction]

    def payoffs(self) -> dict[tuple[str, str], Fraction]:
        out = {}
        for u, v in self.matching:
            out[(u, v)] = self.y[u]
            out[(v, u)] = self.y[v]
        return out

    def allocation(self) -> dict[str, Fraction]:
        x = {p: Fraction(0) for p in self.game.players}
        for (i, _), q in self.payoffs().items():
            x[i] += q
        return x


def _planted(rng, n, m, choices, tight_share) -> Planted:
    players, edges = _graph(rng, n, m)
    caps = _capacities(rng, players, _degrees(players, edges), choices, 0.0)
    load = {p: 0 for p in players}
    matching = []
    for u, v in rng.sample(edges, len(edges)):
        if load[u] < caps[u] and load[v] < caps[v]:
            matching.append((u, v))
            load[u] += 1
            load[v] += 1
    matching.sort(key=edges.index)
    y = {
        p: Fraction(rng.randint(2, 40), rng.choice((1, 2, 3))) if load[p] == caps[p] else Fraction(0)
        for p in players
    }
    in_m = set(matching)
    weights = {}
    for u, v in edges:
        top = y[u] + y[v]
        if (u, v) in in_m or rng.random() < tight_share:
            weights[(u, v)] = top
        else:
            weights[(u, v)] = max(Fraction(0), top - Fraction(rng.randint(1, 30), rng.choice((1, 2))))
    return Planted(Game(players, caps, weights), matching, y)


def _solution_json(planted: Planted, payoffs) -> dict:
    return {
        "matching": [{"u": u, "v": v} for u, v in planted.matching],
        "payoffs": [
            {"u": u, "v": v, "p_uv": fmt(payoffs[(u, v)]), "p_vu": fmt(payoffs[(v, u)])}
            for u, v in planted.matching
        ],
    }


def _allocation_json(x) -> dict:
    return {"allocation": {p: fmt(q) for p, q in x.items()}}


def core_b2(seed: int) -> list[Request]:
    """b <= 2 games; even slots in-core, odd slots with a planted violation.

    The violation moves mass off a matched edge ij with b(i) = b(j) = 1, so
    x(i) + x(j) < w(ij) while x stays efficient and nonnegative. Such a pair is
    found by the path/cycle stage, which every request reaches.
    """
    rng = random.Random(f"core-b2:{seed}")
    out = []
    for k in range(POOL_SIZE["core-b2"]):
        while True:
            planted = _planted(rng, 20, 50, (1, 2), 0.3)
            caps, y = planted.game.caps, planted.y
            pairs = [
                (u, v)
                for u, v in planted.matching
                if caps[u] == 1 and caps[v] == 1 and y[u] + y[v] > 0
            ]
            if pairs:
                break
        x = planted.allocation()
        violated = k % 2 == 1
        if violated:
            i, j = rng.choice(pairs)
            moved = (x[i] + x[j]) / 2
            x[i] -= x[i] / 2
            x[j] -= x[j] / 2
            x[rng.choice([p for p in planted.game.players if p not in (i, j)])] += moved
        inst, alloc = f"g{k}.json", f"x{k}.json"
        out.append(
            Request(
                kind="core-check",
                argv=["core-check", inst, alloc],
                files={inst: planted.game.to_json(), alloc: _allocation_json(x)},
                game=planted.game,
                expect={"in_core": not violated, "x": x},
            )
        )
    return out


# ---------------------------------------------------------------------------
# audit: light read requests
# ---------------------------------------------------------------------------

# One block of requests; "reject" alternates between the two out-of-contract inputs.
AUDIT_PATTERN = (
    "stable", "value", "tampered", "value", "stable",
    "value", "stable", "tampered", "value", "reject",
)  # fmt: skip


def _tamper(rng, planted: Planted):
    """Lower one matched payoff of a player on a tight unmatched edge.

    Its utility drops below y, so that edge blocks; returns None when the
    game has no such edge.
    """
    caps, y = planted.game.caps, planted.y
    in_m = set(planted.matching)
    load = {p: 0 for p in planted.game.players}
    for u, v in planted.matching:
        load[u] += 1
        load[v] += 1
    candidates = [
        p
        for (u, v), w in planted.game.weights.items()
        if (u, v) not in in_m and w == y[u] + y[v]
        for p in (u, v)
        if y[p] > 0 and load[p] == caps[p]
    ]
    if not candidates:
        return None
    p = rng.choice(candidates)
    partner = rng.choice([b if a == p else a for a, b in planted.matching if p in (a, b)])
    payoffs = planted.payoffs()
    shift = y[p] / 2
    payoffs[(p, partner)] -= shift
    payoffs[(partner, p)] += shift
    return payoffs


def _coalition(rng, game: Game, max_players=15, max_edges=20) -> list[str]:
    """A connected coalition grown from a random player, small enough for
    the brute-force oracle."""
    adj = {p: [] for p in game.players}
    for u, v in game.weights:
        adj[u].append(v)
        adj[v].append(u)
    members = [rng.choice(game.players)]
    edges = 0
    frontier = list(adj[members[0]])
    while frontier and len(members) < max_players:
        p = frontier.pop(rng.randrange(len(frontier)))
        if p in members:
            continue
        gained = sum(1 for q in adj[p] if q in members)
        if edges + gained > max_edges:
            continue
        members.append(p)
        edges += gained
        frontier.extend(adj[p])
    order = {p: k for k, p in enumerate(game.players)}
    return sorted(members, key=order.__getitem__)


def audit(seed: int) -> list[Request]:
    """verify-stable on stored and tampered solutions, value on small
    coalitions, and a fixed share of inputs outside the contract."""
    rng = random.Random(f"audit:{seed}")
    games = []
    while len(games) < 12:
        planted = _planted(rng, 60, 150, (1, 2, 3), 0.3)
        tampered = _tamper(rng, planted)
        if tampered is not None:
            games.append((planted, tampered))
    out = []
    rejects = 0
    for k in range(POOL_SIZE["audit"]):
        planted, tampered = games[k % len(games)]
        game = planted.game
        inst = f"g{k % len(games)}.json"
        slot = AUDIT_PATTERN[k % len(AUDIT_PATTERN)]
        if slot in ("stable", "tampered"):
            payoffs = planted.payoffs() if slot == "stable" else tampered
            sol = f"s{k}.json"
            out.append(
                Request(
                    kind="verify-stable",
                    argv=["verify-stable", inst, sol],
                    files={inst: game.to_json(), sol: _solution_json(planted, payoffs)},
                    game=game,
                    expect={"matching": planted.matching, "payoffs": payoffs},
                )
            )
        elif slot == "value":
            coalition = _coalition(rng, game)
            out.append(
                Request(
                    kind="value",
                    argv=["value", inst, "--coalition", ",".join(coalition)],
                    files={inst: game.to_json()},
                    game=game,
                    expect={"coalition": coalition},
                )
            )
        else:
            rejects += 1
            bad = f"bad{k}.json"
            data = game.to_json()
            if rejects % 2:
                data["edges"][0]["w"] = float(Fraction(data["edges"][0]["w"])) + 0.5
                argv, code = ["solve", bad], 1
            else:
                data["capacity"][game.players[0]] = 3
                alloc = f"x{k}.json"
                argv, code = ["core-check", bad, alloc], 2
            files = {bad: data}
            if code == 2:
                files[alloc] = _allocation_json(planted.allocation())
            out.append(Request(kind="reject", argv=argv, files=files, game=game, expect={"exit": code}))
    return out


BUILDERS = {
    "solve-general": solve_general,
    "solve-bipartite": solve_bipartite,
    "core-b2": core_b2,
    "audit": audit,
}


def build(workload: str, seed: int) -> list[Request]:
    return BUILDERS[workload](seed)
