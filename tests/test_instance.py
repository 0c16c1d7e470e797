import json
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablefixtures import generate, induced, validate
from stablefixtures.errors import (
    InputError,
    InvalidInstanceError,
    NotBipartiteError,
    PreconditionError,
    UnknownEdgeError,
)
from stablefixtures.families import instance_to_json
from stablefixtures.instance import Instance, instance_from_json
from stablefixtures.oracles import max_weight_b_matching_bruteforce
from stablefixtures.randomgen import random_instance
from stablefixtures.rationals import (
    MAX_LITERAL_DIGITS, common_denominator, format_rational, parse_rational, scale_to_integers,
)


def test_validate_triangle_clean():
    players = ["a", "b", "c"]
    edges = [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]
    assert validate(players, {p: 1 for p in players}, edges).ok


def test_validate_loop():
    report = validate(["a", "b"], {"a": 1, "b": 1}, [("a", "a", 1)])
    assert any("loop" in v for v in report.violations)


def test_validate_negative_weight():
    report = validate(["a", "b"], {"a": 1, "b": 1}, [("a", "b", -1)])
    assert any("negative weight" in v for v in report.violations)


def test_validate_multi_edge_and_unknown_endpoint():
    edges = [("a", "b", 1), ("b", "a", 2), ("a", "c", 1)]
    report = validate(["a", "b"], {"a": 1, "b": 1}, edges)
    assert any("multi-edge" in v for v in report.violations)
    assert any("undeclared" in v for v in report.violations)


def test_a_loop_is_no_edge():
    tri = generate("triangle").instance
    with pytest.raises(UnknownEdgeError, match="loop 'a'-'a' is not an edge"):
        tri.edge_key("a", "a")
    assert not tri.has_edge("a", "a")
    assert tri.has_edge("b", "a")


def test_validate_capacity_issues():
    report = validate(["a", "b"], {"a": -1}, [])
    assert any("negative capacity" in v for v in report.violations)
    assert any("missing capacity" in v for v in report.violations)


def test_construction_rejects_every_violation_in_order():
    with pytest.raises(InvalidInstanceError) as info:
        Instance(
            ["a", "b", "", "a", "c"],
            {"a": -1, "b": True, "z": 1, "": 1},
            [("a", "b", 1), ("b", "a", "9"), ("c", "c", 1), ("a", "x", 1), ("b", "c", "-1/2")],
        )
    assert info.value.violations == [
        "player id '' is not a non-empty string",
        "duplicate player 'a'",
        "negative capacity b(a) = -1",
        "capacity of 'b' is not an integer",
        "capacity given for unknown player 'z'",
        "missing capacity for player 'c'",
        "multi-edge 'b'-'a'",
        "loop at 'c'",
        "edge 'a'-'x' has an undeclared endpoint",
        "negative weight w(b,c) = -1/2",
    ]
    assert str(info.value).startswith("invalid instance: player id '' is")


def test_construction_parses_weights_before_model_checks():
    with pytest.raises(InputError):
        Instance(["a"], {"a": -1}, [("a", "a", 0.5)])


def test_capacity_is_read_only():
    inst = generate("triangle").instance
    with pytest.raises(TypeError):
        inst.capacity["a"] = 5
    assert inst.b("a") == 1


def test_pickle_round_trip(example2):
    inst, _, _ = example2
    back = pickle.loads(pickle.dumps(inst))
    assert back.players == inst.players
    assert back.capacity == inst.capacity
    assert back.edges == inst.edges and back.edge_weights() == inst.edge_weights()
    assert [back.neighbors(p) for p in back.players] == [inst.neighbors(p) for p in inst.players]


def test_induced_example2(example2):
    inst, _, _ = example2
    sub = induced(inst, ["u1", "v1", "v2"])
    assert sub.players == ("u1", "v1", "v2")
    assert sub.edges == (("u1", "v1"), ("u1", "v2"))
    assert sub.weight("u1", "v1") == 4
    assert sub.weight("u1", "v2") == 6


def test_induced_empty_and_identity(example2):
    inst, _, _ = example2
    assert induced(inst, []).n == 0
    full = induced(inst, inst.players)
    assert full.players == inst.players
    assert full.edge_weights() == inst.edge_weights()


def test_induced_unknown_player(example2):
    inst, _, _ = example2
    with pytest.raises(PreconditionError):
        induced(inst, ["nobody"])


def test_induced_nesting():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_instance(rng, n_range=(4, 8))
        players = list(inst.players)
        rng.shuffle(players)
        big = players[: rng.randint(2, len(players))]
        small = big[: rng.randint(1, len(big))]
        direct = induced(inst, small)
        nested = induced(induced(inst, big), small)
        assert direct.players == nested.players
        assert direct.edge_weights() == nested.edge_weights()
        assert direct.capacity == nested.capacity


def test_generate_example4_shape():
    gen = generate("example4", alpha=2)
    inst = gen.instance
    assert inst.n == 6  # 3 cycle vertices + 3 pendants
    assert inst.m == 6  # 3 cycle edges + 3 pendant edges
    assert all(inst.b(p) == 2 for p in inst.players)
    assert gen.allocation["s1"] == F(4, 3)
    assert gen.allocation["t1_1"] == 0
    assert sum(gen.allocation.values()) == 4  # 3*alpha - 2


@pytest.mark.parametrize("alpha", [2, 3])
def test_generate_example4_value_formula(alpha):
    inst = generate("example4", alpha=alpha).instance
    _, value = max_weight_b_matching_bruteforce(inst)
    assert value == 3 * alpha - 2


def test_generate_example4_rejects_small_alpha():
    with pytest.raises(PreconditionError):
        generate("example4", alpha=1)


def test_generate_diamond_shape(diamond):
    assert diamond.n == 4
    assert diamond.m == 5
    assert [diamond.b(p) for p in diamond.players] == [2, 2, 2, 1]
    assert all(diamond.weight(u, v) == 1 for (u, v) in diamond.edges)


def test_generate_cubic_gadget_single_edge():
    base = Instance(["p", "q"], {"p": 1, "q": 1}, [("p", "q", 1)])
    gen = generate("cubic_gadget", graph=base)
    inst = gen.instance
    assert inst.n == 12
    assert inst.m == 1 + 18
    assert gen.allocation["p"] == 1  # 3/2 - 1/n with n = 2
    assert gen.allocation["a_p"] == F(3, 2) + F(1, 10)
    assert inst.is_bipartite()


def test_generate_cubic_gadget_requires_bipartite():
    tri = generate("triangle").instance
    with pytest.raises(NotBipartiteError):
        generate("cubic_gadget", graph=tri)


def test_generate_cubic_gadget_preserves_bipartite():
    rng = random.Random(5)
    for _ in range(10):
        base = random_instance(rng, n_range=(2, 5), bipartite=True)
        gen = generate("cubic_gadget", graph=base)
        assert gen.instance.is_bipartite()


def test_generate_unknown_family():
    with pytest.raises(InputError):
        generate("nonsense")


def test_json_round_trip(example2):
    inst, _, _ = example2
    data = instance_to_json(inst)
    back = instance_from_json(json.loads(json.dumps(data)))
    assert back.players == inst.players
    assert back.capacity == inst.capacity
    assert back.edge_weights() == inst.edge_weights()


def test_json_rejects_floats():
    data = {"players": ["a", "b"], "capacity": {"a": 1, "b": 1},
            "edges": [{"u": "a", "v": "b", "w": 0.1}]}
    with pytest.raises(InputError):
        instance_from_json(data)


def test_parse_rational_digit_bound():
    assert parse_rational("1e999") == 10**999
    assert parse_rational(10**MAX_LITERAL_DIGITS - 1) == 10**MAX_LITERAL_DIGITS - 1
    for literal in ("1e1000", "1_0e999", "1e-1000", 10**MAX_LITERAL_DIGITS, "1e" + "9" * 40):
        with pytest.raises(PreconditionError):
            parse_rational(literal)
    with pytest.raises(InputError):
        parse_rational("1e")


def _old_parse_string(value: str) -> F:
    """`parse_rational` of a string as it was before its fast path, kept as
    the oracle: the digit bound (digits written plus the exponent's
    magnitude), then `Fraction`'s own parser on the stripped text."""
    mantissa, _, exponent = value.replace("_", "").lower().partition("e")
    digits = sum(ch.isdecimal() for ch in mantissa)
    magnitude = exponent.strip().lstrip("+-")
    if magnitude.isdecimal():
        digits += int(magnitude) if len(magnitude) <= 9 else 10**9
    if digits > MAX_LITERAL_DIGITS:
        shown = value if len(value) <= 20 else value[:20] + "..."
        raise PreconditionError(f"rational literal {shown!r} exceeds {MAX_LITERAL_DIGITS} digits")
    try:
        return F(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {value!r}") from exc


def _outcome(parse, value):
    """The value `parse` returns, or the type and message of what it raises."""
    try:
        return parse(value)
    except Exception as exc:  # noqa: BLE001 - the oracle's errors are compared, not handled
        return type(exc), str(exc)


LITERALS = [
    "\u0661\u0662", "\u0661/\u0662", "12/\u0663", "\u00b2", "007", "0007/0014", "0", "00/5", "0/0", "1/0",
    "3/000",
    "+1", "-1", "-7/2", " 1 ", "1 ", "1/ 2", "1_000", "1_0/2", "1e3", "1E3", "2.5", "1/2/3", "1//2", "", "/",
    "1/", "/1", "0x10", "\uff11", "1" * MAX_LITERAL_DIGITS, "1" * (MAX_LITERAL_DIGITS + 1),
    "7" * 500 + "/" + "3" * 500, "7" * 500 + "/" + "3" * 501, "0" * MAX_LITERAL_DIGITS + "/1",
]


@pytest.mark.parametrize("value", LITERALS, ids=range(len(LITERALS)))
def test_parse_rational_fast_path_agrees_with_the_old_parser(value):
    """Plain ASCII digits and digits/digits with a nonzero denominator skip
    the digit count and `Fraction`'s parser; every other literal (Unicode
    digits, signs, blanks, underscores, exponents, a zero denominator, past
    the bound) gives the old path's `Fraction`, or its error and message."""
    got, want = _outcome(parse_rational, value), _outcome(_old_parse_string, value)
    assert got == want and type(got) is type(want)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    st.one_of(
        st.from_regex(r"\A[0-9]{1,30}(/[0-9]{1,30})?\Z"),
        st.text(alphabet="0123456789/ +-_.eE\u0661\u0662\u00b2", max_size=12),
        st.integers(min_value=0, max_value=10**60).map(str),
        st.tuples(st.integers(0, MAX_LITERAL_DIGITS + 2), st.integers(0, 3)).map(
            lambda k: "9" * k[0] + ("/" + "1" * k[1] if k[1] else "")
        ),
    )
)
def test_parse_rational_fast_path_agrees_with_the_old_parser_on_random_literals(value):
    got, want = _outcome(parse_rational, value), _outcome(_old_parse_string, value)
    assert got == want and type(got) is type(want)


def test_format_rational_past_digit_limit():
    with pytest.raises(PreconditionError):
        format_rational(F(1, 10**5000))


# ints and Fractions, as the engines hand them to the rational helpers.
RATIONALS = [0, 7, -3, 10**4299, F(0), F(7, 2), F(-1, 3), F(6, 3), F(10**4299, 7), F(5, 10**2000)]


def test_rational_helpers_agree_with_fraction_on_ints_and_fractions():
    """The helpers read numerator and denominator directly; they give what
    the `Fraction` copies they replace gave."""
    for q in RATIONALS:
        assert format_rational(q) == str(F(q)), q
    assert common_denominator(RATIONALS) == 2 * 3 * 7 * 10**1999  # 5/10**2000 is 1/(2 * 10**1999)
    assert common_denominator([3, -1]) == common_denominator([]) == 1
    values = dict(enumerate(RATIONALS))
    scaled, scale = scale_to_integers(values)
    assert scale == 42 * 10**1999
    assert scaled == {k: int(F(q) * scale) for k, q in values.items()}
    assert all(type(v) is int for v in scaled.values())
    assert scale_to_integers({"a": 4, "b": F(1, 2)}) == ({"a": 8, "b": 1}, 2)
    for other in (0.5, "1/2"):
        with pytest.raises(InputError, match="^rationals must be ints or Fractions$"):
            scale_to_integers({"a": 1, "b": other})


@pytest.mark.parametrize(
    "q", [10**4300, -(10**4300), F(1, 10**4300), F(10**4300, 3)], ids=["int", "-int", "den", "num"]
)
def test_format_rational_refuses_past_4300_digits(q):
    with pytest.raises(PreconditionError, match="^value has too many digits to render$"):
        format_rational(q)


def test_scale_to_integers_refuses_a_3000_digit_denominator():
    with pytest.raises(PreconditionError, match="^common denominator exceeds 3000 digits$"):
        scale_to_integers({"a": 1, "b": F(1, 10**3000)})


def test_json_rational_strings():
    data = {"players": ["a", "b"], "capacity": {"a": 1, "b": 1},
            "edges": [{"u": "a", "v": "b", "w": "7/2"}]}
    inst = instance_from_json(data)
    assert inst.weight("a", "b") == F(7, 2)
