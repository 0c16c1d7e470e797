import itertools
import json

import pytest

from stablefixtures import blossom, matching, oracles
from stablefixtures.cli import main
from stablefixtures.families import generate, instance_to_json
from stablefixtures.rationals import MAX_SCALE_DIGITS


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(instance_to_json(generate("diamond").instance)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_solve_diamond_exit3(capsys, diamond_file):
    code, data = run(capsys, "solve", diamond_file)
    assert code == 3
    assert data["status"] == "no_stable"
    assert data["half_b_matching_weight"] == "7/2"
    witness_total = sum(
        1 if item["value"] == "1" else 0.5 for item in data["witness"]
    )
    assert witness_total == 3.5


def test_solve_unknown_seller_exit2_before_the_lp_pass(capsys, monkeypatch, diamond_file):
    """An unknown seller is refused at entry, even on a game without a
    stable solution, where the split is never used."""
    monkeypatch.setattr(matching, "_certified_pass", lambda *args: pytest.fail("the LP pass ran"))
    assert main(["solve", diamond_file, "--sellers", "nobody"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown player 'nobody'\n"


def test_solve_stable_exit0(capsys, tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(instance_to_json(generate("example2").instance)))
    code, data = run(capsys, "solve", str(path))
    assert code == 0
    assert data["status"] == "stable"
    assert data["b_matching_weight"] == "16"
    assert {"u", "v", "p_uv", "p_vu"} <= set(data["solution"]["payoffs"][0])


def test_split_rule_choices(capsys, tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(instance_to_json(generate("example2").instance)))
    code, data = run(capsys, "solve", str(path), "--split-rule", "seller_side")
    assert code == 0 and data["status"] == "stable"
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--split-rule", "thirds"])
    assert exc.value.code == 2
    assert "invalid choice: 'thirds'" in capsys.readouterr().err


def test_split_rule_with_or_without_equals_parses_alike(capsys, tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(instance_to_json(generate("example2").instance)))
    split = run(capsys, "solve", str(path), "--split-rule", "seller_side")
    joined = run(capsys, "solve", str(path), "--split-rule=seller_side")
    assert split == joined and split[0] == 0
    assert split != run(capsys, "solve", str(path))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "{game}", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify-stable", "{game}"], "the following arguments are required: solution"),
        (["value", "{game}"], "the following arguments are required: --coalition"),
        (["gen", "--alpha", "2"], "the following arguments are required: --family"),
        (["oracle", "selftest", "--count", "many"], "argument --count: invalid int value: 'many'"),
        (["oracle", "bogus"], "argument engine: invalid choice: 'bogus'"),
        (["solve", "{game}", "{game}"], "unrecognized arguments: "),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown-option", "missing-positional", "missing-coalition", "missing-family", "non-int-count",
         "invalid-engine", "extra-positional", "unknown-command", "no-command"],
)
def test_usage_errors_exit2_with_one_error_line(capsys, diamond_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(game=diamond_file) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("stablefixtures: error: ")]
    assert len(errors) == 1 and message in errors[0]
    assert captured.err.startswith("usage: stablefixtures")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["--help"], ["solve", "verify-stable", "core-check", "reduce", "value", "gen", "oracle"]),
        (["solve", "--help"], ["instance", "--split-rule {half,seller_side}", "--sellers"]),
        (["oracle", "-h"], ["{b-matching,half,core-check,selftest}", "--count", "--seed"]),
    ],
)
def test_help_exits0_and_names_subcommands_or_options(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: stablefixtures")
    assert all(name in captured.out for name in names)


def test_core_check_in_core(capsys, tmp_path, diamond_file):
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"allocation": {"s1": "1", "s2": "1", "s3": "1", "u": "0"}}))
    code, data = run(capsys, "core-check", diamond_file, str(alloc))
    assert code == 0 and data["verdict"] == "in_core"
    code, data = run(capsys, "core-check", diamond_file, str(alloc), "--brute-force")
    assert code == 0 and data["verdict"] == "in_core"


def test_core_check_violation_round_trips(capsys, tmp_path):
    gen = generate("example4", alpha=2)
    inst_path = tmp_path / "ex4.json"
    inst_path.write_text(json.dumps(instance_to_json(gen.instance)))
    alloc_path = tmp_path / "x.json"
    alloc_path.write_text(
        json.dumps({"allocation": {p: f"{q.numerator}/{q.denominator}" for p, q in gen.allocation.items()}})
    )
    code, data = run(capsys, "core-check", str(inst_path), str(alloc_path))
    assert code == 3
    assert data["verdict"] == "violation"
    assert data["deficit"] == "1/3"
    assert len(data["witness_matching"]) == 3


def test_core_check_b3_needs_brute_force(capsys, tmp_path):
    gen = generate("example4", alpha=3)
    inst_path = tmp_path / "ex4b3.json"
    inst_path.write_text(json.dumps(instance_to_json(gen.instance)))
    alloc_path = tmp_path / "x.json"
    alloc_path.write_text(
        json.dumps({"allocation": {p: str(q) for p, q in gen.allocation.items()}})
    )
    code = main(["core-check", str(inst_path), str(alloc_path)])
    assert code == 2
    code = main(["core-check", str(inst_path), str(alloc_path), "--brute-force"])
    assert code == 3  # the companion allocation is violated


def test_verify_stable(capsys, tmp_path):
    inst = generate("example3").instance
    inst_path = tmp_path / "ex3.json"
    inst_path.write_text(json.dumps(instance_to_json(inst)))
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(
        json.dumps(
            {
                "matching": [{"u": "v1", "v": "v2"}, {"u": "v3", "v": "v4"}],
                "payoffs": [
                    {"u": "v1", "v": "v2", "p_uv": "3/2", "p_vu": "3/2"},
                    {"u": "v3", "v": "v4", "p_uv": "1/2", "p_vu": "1/2"},
                ],
            }
        )
    )
    code, data = run(capsys, "verify-stable", str(inst_path), str(sol_path))
    assert code == 0
    assert data["stable"] is True
    assert data["utilities"]["v1"] == "3/2"


def test_verify_unstable_exit3(capsys, tmp_path):
    inst = generate("triangle").instance
    inst_path = tmp_path / "tri.json"
    inst_path.write_text(json.dumps(instance_to_json(inst)))
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(
        json.dumps(
            {
                "matching": [{"u": "a", "v": "b"}],
                "payoffs": [{"u": "a", "v": "b", "p_uv": "1/2", "p_vu": "1/2"}],
            }
        )
    )
    code, data = run(capsys, "verify-stable", str(inst_path), str(sol_path))
    assert code == 3
    assert len(data["blocking_pairs"]) == 2


def _triangle_request(tmp_path, solution):
    inst_path, sol_path = tmp_path / "tri.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps(instance_to_json(generate("triangle").instance)))
    sol_path.write_text(json.dumps(solution))
    return ["verify-stable", str(inst_path), str(sol_path)]


def test_verify_incompatible_solution_exit2_with_one_error_line(capsys, tmp_path):
    argv = _triangle_request(
        tmp_path,
        {
            "matching": [{"u": "a", "v": "b"}],
            "payoffs": [
                {"u": "a", "v": "b", "p_uv": "1/2", "p_vu": "1/3"},
                {"u": "b", "v": "c", "p_uv": "1", "p_vu": "0"},
            ],
        },
    )
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: incompatible solution: p(a,b) + p(b,a) = 5/6 != w = 1;"
        " nonzero payoff on unmatched edge b-c\n"
    )


@pytest.mark.parametrize("endpoint", [["a"], {"k": 1}], ids=["list", "dict"])
@pytest.mark.parametrize("field", ["matching", "payoffs"])
def test_verify_stable_unhashable_endpoint_exit1_with_one_error_line(capsys, tmp_path, field, endpoint):
    solution = {
        "matching": [{"u": "a", "v": "b"}],
        "payoffs": [{"u": "a", "v": "b", "p_uv": "1/2", "p_vu": "1/2"}],
    }
    solution[field][0]["u"] = endpoint
    assert main(_triangle_request(tmp_path, solution)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: bad solution JSON: ")


def test_reduce_outputs_provenance(capsys, diamond_file):
    code, data = run(capsys, "reduce", diamond_file)
    assert code == 0
    kinds = {entry["kind"] for entry in data["provenance"].values()}
    assert kinds == {"copy", "inner", "outer"}
    assert len(data["instance"]["players"]) == 7 + 4 * 5


def test_value_subcommand(capsys, diamond_file):
    code, data = run(capsys, "value", diamond_file, "--coalition", "s1,s2,s3")
    assert code == 0
    assert data["value"] == "3"
    assert len(data["witness_matching"]) == 3
    # The witness is listed in the game's player order, whatever the coalition's.
    code, shuffled = run(capsys, "value", diamond_file, "--coalition", "s3,s1,s2")
    assert code == 0
    assert shuffled["witness_matching"] == data["witness_matching"]


def test_gen_example4(capsys):
    code, data = run(capsys, "gen", "--family", "example4", "--alpha", "2")
    assert code == 0
    assert len(data["players"]) == 6
    assert data["allocation"]["s1"] == "4/3"


def test_gen_output_feeds_other_commands(capsys, tmp_path):
    code, data = run(capsys, "gen", "--family", "example4", "--alpha", "2")
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    code, _ = run(capsys, "solve", str(path))
    assert code == 3  # empty core family has no stable solution either
    code, verdict = run(capsys, "core-check", str(path), str(path))
    assert code == 3 and verdict["verdict"] == "violation"


def test_gen_unknown_family_exit1(capsys):
    assert main(["gen", "--family", "bogus"]) == 1


def test_malformed_json_exit1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1


def test_invalid_instance_exit2(tmp_path):
    bad = tmp_path / "loop.json"
    bad.write_text(
        json.dumps(
            {
                "players": ["a"],
                "capacity": {"a": 1},
                "edges": [{"u": "a", "v": "a", "w": "1"}],
            }
        )
    )
    assert main(["solve", str(bad)]) == 2


INVALID_EDGES = {
    "multi-edge": [{"u": "a", "v": "b", "w": "1"}, {"u": "b", "v": "a", "w": "9"}],
    "loop": [{"u": "a", "v": "b", "w": "1"}, {"u": "a", "v": "a", "w": "1"}],
}


@pytest.mark.parametrize("shape", sorted(INVALID_EDGES))
@pytest.mark.parametrize(
    "argv",
    [["verify-stable", "{inst}", "{sol}"], ["value", "{inst}", "--coalition", "a,b"]],
    ids=["verify-stable", "value"],
)
def test_verify_stable_and_value_reject_invalid_instance(capsys, tmp_path, shape, argv):
    inst = tmp_path / "bad.json"
    inst.write_text(
        json.dumps({"players": ["a", "b"], "capacity": {"a": 1, "b": 1}, "edges": INVALID_EDGES[shape]})
    )
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"matching": [], "payoffs": []}))
    assert main([arg.format(inst=inst, sol=sol) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: invalid instance: ")
    assert shape in captured.err


UNHASHABLE_IDS = {
    "player": {"players": ["a", ["b"]], "capacity": {"a": 1}, "edges": []},
    "endpoint": {
        "players": ["a", "b"],
        "capacity": {"a": 1, "b": 1},
        "edges": [{"u": "a", "v": ["b"], "w": "1"}],
    },
}


@pytest.mark.parametrize("edges", [None, 5], ids=["null", "number"])
def test_non_list_edges_exit1_with_one_error_line(capsys, tmp_path, edges):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"players": ["a", "b"], "capacity": {"a": 1, "b": 1}, "edges": edges}))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance JSON has wrong field types\n"


@pytest.mark.parametrize("shape", sorted(UNHASHABLE_IDS))
def test_unhashable_id_exit2_with_one_error_line(capsys, tmp_path, shape):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(UNHASHABLE_IDS[shape]))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: invalid instance: ")
    assert "['b']" in captured.err


def _edge_file(tmp_path, w):
    path = tmp_path / "edge.json"
    edge = {"u": "i", "v": "j", "w": w}
    path.write_text(json.dumps({"players": ["i", "j"], "capacity": {"i": 1, "j": 1}, "edges": [edge]}))
    return str(path)


@pytest.mark.parametrize("literal", ["1e5000", "1e10000000", "1" * 1001, "1e-1001"])
def test_oversized_literal_exit2_before_any_work(capsys, tmp_path, literal):
    assert main(["solve", _edge_file(tmp_path, literal)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: rational literal") and "1000 digits" in captured.err


def test_large_literal_within_bound_solves(capsys, tmp_path):
    code, data = run(capsys, "solve", _edge_file(tmp_path, "1e400"))
    assert code == 0
    assert data["b_matching_weight"] == "1" + "0" * 400


def test_json_integer_past_digit_limit_exit1(capsys, tmp_path):
    path = tmp_path / "huge.json"
    huge = "1" + "0" * 5000
    path.write_text('{"players": ["i"], "capacity": {"i": 1}, "edges": [], "x": ' + huge + "}")
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_commands(monkeypatch, capsys, diamond_file, tmp_path):
    code, data = run(capsys, "oracle", "b-matching", diamond_file)
    assert code == 0 and data["weight"] == "3"
    code, data = run(capsys, "oracle", "half", diamond_file)
    assert code == 0 and data["weight"] == "7/2"
    code, data = run(capsys, "oracle", "selftest", "--count", "5", "--seed", "3")
    assert code == 0 and data["selftest"] == "ok"
    assert main(["oracle", "selftest", "--count", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: oracle selftest needs --count >= 0, got -3\n")
    # A disagreement goes to stderr alone, with exit 3.
    monkeypatch.setattr(oracles, "_oracle_selftest", lambda count, seed: "selftest 0: engine 1 != oracle 2")
    assert main(["oracle", "selftest"]) == 3
    assert capsys.readouterr() == ("", "selftest 0: engine 1 != oracle 2\n")


def test_outputs_render_rationals_as_fractions(capsys, diamond_file):
    code, data = run(capsys, "solve", diamond_file)
    text = json.dumps(data)
    assert "." not in text.replace(".json", "")  # no decimal literals


def _clique_file(tmp_path, n, digits):
    """K_n with capacity 1 and weights 1/(10**digits + k): every denominator
    fits a literal, but the common denominator has about m * digits digits."""
    players = [f"p{k}" for k in range(n)]
    edges = [
        {"u": u, "v": v, "w": f"1/{10**digits + k}"}
        for k, (u, v) in enumerate(itertools.combinations(players, 2))
    ]
    path = tmp_path / "clique.json"
    path.write_text(json.dumps({"players": players, "capacity": dict.fromkeys(players, 1), "edges": edges}))
    return str(path)


def test_derived_denominator_past_bound_exit2_before_any_engine(capsys, tmp_path, monkeypatch):
    passes = []
    monkeypatch.setattr(matching, "_ssp_flow", lambda *args: passes.append(args))
    assert main(["solve", _clique_file(tmp_path, 6, 899)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and passes == []
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: common denominator")
    assert f"{MAX_SCALE_DIGITS} digits" in captured.err


def test_derived_denominator_within_bound_solves(capsys, tmp_path):
    code, data = run(capsys, "solve", _clique_file(tmp_path, 6, 99))
    assert code in (0, 3) and data["half_b_matching_weight"]


def test_allocation_denominator_past_bound_exit2_before_cycle_stage(capsys, tmp_path, monkeypatch):
    """80 capacity-2 players on a ring, each allocation entry 10 + 1/(10**480 + k):
    every literal fits, but the common denominator of the cycle costs has
    tens of thousands of digits."""
    players = [f"p{k}" for k in range(80)]
    ring = [{"u": p, "v": players[(k + 1) % 80], "w": "1"} for k, p in enumerate(players)]
    inst = tmp_path / "ring.json"
    inst.write_text(json.dumps({"players": players, "capacity": dict.fromkeys(players, 2), "edges": ring}))
    base = 10**480
    alloc = tmp_path / "x.json"
    alloc.write_text(
        json.dumps({"allocation": {p: f"{10 * (base + k) + 1}/{base + k}" for k, p in enumerate(players)}})
    )
    matchings = []
    monkeypatch.setattr(blossom, "max_weight_matching", lambda *args, **kw: matchings.append(args))
    assert main(["core-check", str(inst), str(alloc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and matchings == []
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: common denominator")
    assert f"{MAX_SCALE_DIGITS} digits" in captured.err
