"""Named instance families (the paper's examples and gadgets), the body of
the `gen` subcommand and the instance and allocation writers it prints
with; only `gen`, `reduce` (for `instance_to_json`) and the tests load this
module."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, NotBipartiteError, PreconditionError
from .instance import Instance, _load_instance
from .rationals import format_rational, parse_rational


class Generated(NamedTuple):
    """A generated instance plus, for some families, a companion allocation."""

    instance: Instance
    allocation: dict[str, Fraction] | None = None


def generate(family: str, **params) -> Generated:
    """Construct a named instance family.

    Families: triangle, two_player(w), example1..example4(alpha), diamond,
    cubic_gadget(graph). example4 and cubic_gadget also return the symmetric
    companion allocation used in their core analyses.
    """
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise InputError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return builder(**params)


def gen_command(args) -> dict:
    """The JSON that `stablefixtures gen` prints for the parsed command line
    `args`: the instance, plus
    any companion allocation as an extra key, so that the output feeds
    straight into the other subcommands."""
    params = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.weight is not None:
        params["w"] = args.weight
    if args.input is not None:
        params["graph"] = _load_instance(args.input)
    generated = generate(args.family, **params)
    data = instance_to_json(generated.instance)
    if generated.allocation is not None:
        data.update(allocation_to_json(generated.allocation))
    return data


# The instance wire format that every subcommand reads (`instance.instance_from_json`):
#
# {"players": ["u1", ...],
#  "capacity": {"u1": 2, ...},
#  "edges": [{"u": "u1", "v": "v1", "w": "4"}, ...]}


def instance_to_json(inst: Instance) -> dict:
    return {
        "players": list(inst.players),
        "capacity": dict(inst.capacity),
        "edges": [
            {"u": u, "v": v, "w": format_rational(inst._weights[(u, v)])} for (u, v) in inst.edges
        ],
    }


def allocation_to_json(x) -> dict:
    return {"allocation": {p: format_rational(q) for p, q in x.items()}}


def _triangle(**params) -> Generated:
    _reject_params("triangle", params)
    players = ["a", "b", "c"]
    return Generated(
        Instance(players, {p: 1 for p in players}, [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
    )


def _two_player(w="7", **params) -> Generated:
    _reject_params("two_player", params)
    weight = parse_rational(w)
    return Generated(Instance(["i", "j"], {"i": 1, "j": 1}, [("i", "j", weight)]))


def _example1(**params) -> Generated:
    _reject_params("example1", params)
    players = ["u1", "v1", "u2", "v2"]
    edges = [("u1", "v1", 1), ("v1", "u2", 1), ("u2", "v2", 1), ("v2", "u1", 1)]
    return Generated(Instance(players, {p: 1 for p in players}, edges))


def _example2(**params) -> Generated:
    _reject_params("example2", params)
    players = ["u1", "u2", "u3", "v1", "v2", "v3"]
    capacity = {"u1": 2, "u2": 2, "v1": 2, "u3": 1, "v2": 1, "v3": 1}
    edges = [
        ("u1", "v1", 4),
        ("u1", "v2", 6),
        ("u1", "v3", 5),
        ("u2", "v1", 4),
        ("u2", "v2", 1),
        ("u3", "v1", 1),
        ("u3", "v2", 3),
        ("u3", "v3", 2),
    ]
    return Generated(Instance(players, capacity, edges))


def _example3(**params) -> Generated:
    _reject_params("example3", params)
    players = ["v1", "v2", "v3", "v4"]
    capacity = {"v1": 1, "v2": 1, "v3": 2, "v4": 2}
    edges = [("v1", "v2", 3), ("v2", "v3", 1), ("v3", "v4", 1), ("v4", "v1", 1)]
    return Generated(Instance(players, capacity, edges))


def _example4(alpha=2, **params) -> Generated:
    _reject_params("example4", params)
    alpha = int(alpha)
    if alpha < 2:
        raise PreconditionError(f"example4 needs alpha >= 2, got {alpha}")
    players = ["s1", "s2", "s3"]
    edges = [("s1", "s2", 1), ("s2", "s3", 1), ("s1", "s3", 1)]
    for i in (1, 2, 3):
        for j in range(1, alpha):
            t = f"t{i}_{j}"
            players.append(t)
            edges.append((f"s{i}", t, 1))
    capacity = {p: alpha for p in players}
    allocation = {p: Fraction(0) for p in players}
    for i in (1, 2, 3):
        allocation[f"s{i}"] = Fraction(alpha) - Fraction(2, 3)
    return Generated(Instance(players, capacity, edges), allocation)


def _diamond(**params) -> Generated:
    _reject_params("diamond", params)
    players = ["s1", "s2", "s3", "u"]
    capacity = {"s1": 2, "s2": 2, "s3": 2, "u": 1}
    edges = [
        ("s1", "s2", 1),
        ("s1", "s3", 1),
        ("s2", "s3", 1),
        ("s2", "u", 1),
        ("s3", "u", 1),
    ]
    return Generated(Instance(players, capacity, edges))


def _cubic_gadget(graph=None, **params) -> Generated:
    """Per input vertex u, glue a K_{3,3} block {a_u,b_u,c_u} x {u,x_u,y_u}.

    Capacities are 3 and weights 1 everywhere. The companion allocation gives
    each original vertex 3/2 - 1/n and each new block vertex 3/2 + 1/(5n);
    it is violated exactly by the vertex sets of 3-regular subgraphs of the
    input, which must be bipartite.
    """
    _reject_params("cubic_gadget", params)
    if graph is None:
        raise PreconditionError("cubic_gadget needs an input graph instance")
    if isinstance(graph, Generated):
        graph = graph.instance
    if not isinstance(graph, Instance):
        raise PreconditionError("cubic_gadget input must be an Instance")
    if not graph.is_bipartite():
        raise NotBipartiteError("cubic_gadget input graph must be bipartite")
    n = graph.n
    if n == 0:
        raise PreconditionError("cubic_gadget input graph must be non-empty")
    players = list(graph.players)
    edges: list[tuple[str, str, int]] = [(u, v, 1) for (u, v) in graph.edges]
    for u in graph.players:
        left = [f"a_{u}", f"b_{u}", f"c_{u}"]
        right = [u, f"x_{u}", f"y_{u}"]
        players.extend(left + [f"x_{u}", f"y_{u}"])
        for a in left:
            for r in right:
                edges.append((a, r, 1))
    if len(set(players)) != len(players):
        raise PreconditionError(
            "cubic_gadget input vertex names collide with generated block names"
        )
    capacity = {p: 3 for p in players}
    inst = Instance(players, capacity, edges)
    allocation: dict[str, Fraction] = {}
    for u in graph.players:
        allocation[u] = Fraction(3, 2) - Fraction(1, n)
        for p in (f"a_{u}", f"b_{u}", f"c_{u}", f"x_{u}", f"y_{u}"):
            allocation[p] = Fraction(3, 2) + Fraction(1, 5 * n)
    return Generated(inst, allocation)


def _reject_params(family: str, params: dict) -> None:
    if params:
        raise InputError(f"family {family!r} got unexpected parameters {sorted(params)}")


_FAMILIES = {
    "triangle": _triangle,
    "two_player": _two_player,
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "example4": _example4,
    "diamond": _diamond,
    "cubic_gadget": _cubic_gadget,
}
