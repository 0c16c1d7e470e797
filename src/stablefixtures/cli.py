"""Command-line frontend with JSON I/O and machine-readable exit codes.

Exit codes: 0 = stable solution found / allocation in core / success,
3 = no stable solution / core violation, 1 = malformed input,
2 = precondition failure (invalid instance, b > 2 without --brute-force, ...),
4 = internal error (an engine's own certificate check failed).

Standard output carries JSON only; diagnostics go to standard error.

Each subcommand loads and validates its instance before it imports the
modules it runs, and imports only those: `value` reads v(S) and its
witness off `matching.lp_optimum` of the subgame and never loads `core`;
`core-check` loads `core`, which reads the allocation and imports the
engine only once the capacities allow it; only a stable `solve` and
`verify-stable` load the solution check (`solution`), and only a `solve`
without a stable solution the witness (`witness`). `gen` and `oracle` run in
`families.gen_command` and `oracles.oracle_command`, which return what
`cli` prints and never import `cli` (under `python -m` it is `__main__`, so
that would compile it twice).

Run as `python -m stablefixtures.cli` or as the installed `stablefixtures`
script, the process exits through `run`, which freezes the garbage
collector once `main` returns or raises, so that its shutdown collections
have nothing to walk; `main` itself, called in-process, never does.
"""

from __future__ import annotations

import json
import sys
import types

from .errors import InputError, InternalError, PreconditionError, StableFixturesError
from .instance import SPLIT_RULES, _load_instance, _load_json, induced
from .rationals import format_rational
# Imported eagerly though only `reduce` runs it: perfbench's tracer wraps only loaded modules.
from .reduction import provenance_to_json, reduce_instance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_NEGATIVE = 3
EXIT_INTERNAL = 4


# `json`'s own string quoting (its C version where there is one).
_quote = json.encoder.encode_basestring_ascii


def _emit(data) -> None:
    """Write `data` and a newline to stdout as `json.dumps(data, indent=2)`
    writes it, without `json`'s pure-Python indenting encoder."""
    out: list[str] = []
    _indented(data, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _indented(value, newline: str, out: list[str]) -> None:
    """Append the indent-2 JSON text of `value`, whose dict keys are
    strings, nested at `newline` (a newline and the indent); scalars, {}
    and [] are written by `json.dumps`."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value and isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            out.append(f"{sep}{inner}{_quote(key)}: ")
            _indented(item, inner, out)
            sep = ","
        out.append(newline + "}")
    elif value and isinstance(value, (list, tuple)):
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _indented(item, inner, out)
            sep = ","
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    from . import solver as solver_mod

    sellers = args.sellers.split(",") if args.sellers else None
    outcome = solver_mod.solve(inst, split_rule=args.split_rule, sellers=sellers)
    _emit(solver_mod.outcome_to_json(inst, outcome))
    return EXIT_OK if outcome.stable else EXIT_NEGATIVE


def _cmd_verify_stable(args) -> int:
    inst = _load_instance(args.instance)
    from . import stability as stability_mod

    sol = stability_mod.solution_from_json(inst, _load_json(args.solution))
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
    inst = _load_instance(args.instance)
    from . import core as core_mod

    x = core_mod.allocation_from_json(_load_json(args.allocation), inst)
    if args.brute_force:
        from .oracles import core_membership_bruteforce

        verdict = core_membership_bruteforce(inst, x)
    else:
        verdict = core_mod.core_membership_b2(inst, x)
    _emit(core_mod.verdict_to_json(inst, verdict))
    return EXIT_OK if verdict.in_core else EXIT_NEGATIVE


def _cmd_reduce(args) -> int:
    inst = _load_instance(args.instance)
    from .families import instance_to_json

    reduced = reduce_instance(inst)
    _emit(
        {
            "instance": instance_to_json(reduced.instance),
            "provenance": provenance_to_json(reduced),
        }
    )
    return EXIT_OK


def _cmd_value(args) -> int:
    inst = _load_instance(args.instance)
    coalition = [p for p in args.coalition.split(",") if p]
    subgame = induced(inst, coalition)
    from . import matching as matching_mod

    opt = matching_mod.lp_optimum(subgame)
    _emit(
        {
            "coalition": coalition,
            "value": format_rational(opt.weight),
            "witness_matching": matching_mod.matching_to_json(inst, opt.matching),
        }
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .families import gen_command

    _emit(gen_command(args))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracles import oracle_command

    passed, data, failure = oracle_command(args)
    if failure is None:
        _emit(data)
    else:
        print(failure, file=sys.stderr)
    return EXIT_OK if passed else EXIT_NEGATIVE


# Each subcommand: its function, help, positionals (a trailing "?" marks one
# that may be left out) and options with their defaults: False for a flag, an
# int or `int` for an int, REQUIRED for a value that must be given. CHOICES
# holds the values that the command, a positional or an option may take.
REQUIRED = object()
COMMANDS = {
    "solve": (_cmd_solve, "find a stable solution or a fractional witness", ["instance"],
              {"--split-rule": "half", "--sellers": None}),
    "verify-stable": (_cmd_verify_stable, "check compatibility and stability of a solution",
                      ["instance", "solution"], {}),
    "core-check": (_cmd_core_check, "decide core membership of an allocation", ["instance", "allocation"],
                   {"--brute-force": False}),
    "reduce": (_cmd_reduce, "expand to the unit-capacity instance", ["instance"], {}),
    "value": (_cmd_value, "coalition value v(S)", ["instance"], {"--coalition": REQUIRED}),
    "gen": (_cmd_gen, "generate a named instance family", [],
            {"--family": REQUIRED, "--alpha": int, "--weight": None, "--input": None}),
    "oracle": (_cmd_oracle, "run brute-force oracles", ["engine", "instance?", "allocation?"],
               {"--count": 25, "--seed": 0}),
}
CHOICES = {"command": COMMANDS, "split_rule": SPLIT_RULES,
           "engine": ("b-matching", "half", "core-check", "selftest")}


def _usage(command) -> str:
    def metavar(name: str) -> str:
        return "{" + ",".join(CHOICES[name.lower()]) + "}" if name.lower() in CHOICES else name

    if command is None:
        return f"usage: stablefixtures [-h] {metavar('command')} ..."
    _, _, positionals, options = COMMANDS[command]
    words = ["usage: stablefixtures", command, "[-h]"]
    for opt, default in options.items():
        word = opt if default is False else f"{opt} {metavar(opt[2:].replace('-', '_').upper())}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words + [f"[{p[:-1]}]" if p[-1] == "?" else metavar(p) for p in positionals])


def _exit(command, code: int, message: str):
    """Help on stdout and exit 0, or the usage and one error line on stderr and exit 2."""
    text = f"stablefixtures: error: {message}" if code else f"\n{message}"
    (sys.stderr if code else sys.stdout).write(f"{_usage(command)}\n{text}\n")
    raise SystemExit(code)


def _value(command, name: str, default, value: str):
    """`value` of option or positional `name`, checked against its choices
    and made an int where its default is one."""
    choices = CHOICES.get(name.lstrip("-").replace("-", "_"), (value,))
    if value not in choices:
        choices = ", ".join(map(repr, choices))
        _exit(command, 2, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    try:
        return int(value) if default is int or type(default) is int else value
    except ValueError:
        _exit(command, 2, f"argument {name}: invalid int value: {value!r}")


def _is_option(token: str) -> bool:
    return token[:1] == "-" and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def parse_args(argv: list[str]):
    """The namespace of a command line (program name left out) whose `func`
    runs its subcommand. Options come anywhere after the subcommand, as
    `--opt value` or `--opt=value`, `--opt` cut to any unique prefix; `--`
    ends them. `-h` or `--help` prints help and exits 0; a usage error
    prints the usage and one `stablefixtures: error:` line and exits 2."""
    if argv[:1] in (["-h"], ["--help"]):
        lines = "".join(f"\n  {name:<15}{spec[1]}" for name, spec in COMMANDS.items())
        _exit(None, 0, "Exact solver for stable fixtures with payments.\n\ncommands:" + lines)
    if not argv:
        _exit(None, 2, "the following arguments are required: command")
    command, tokens = _value(None, "command", None, argv[0]), iter(argv[1:])
    func, about, positionals, options = COMMANDS[command]
    values = {opt: None if default in (int, REQUIRED) else default for opt, default in options.items()}
    given, unknown = [], []
    for token in tokens:
        name, eq, value = token.partition("=")
        found = [opt for opt in ("--help", *options) if opt.startswith(name)] if name[:2] == "--" else [name]
        opt = name if name in options else found[0] if len(found) == 1 else None
        if token == "--":
            given += tokens
        elif not _is_option(token):
            given.append(token)
        elif opt in ("-h", "--help"):
            _exit(command, 0, about)
        elif opt not in options or options[opt] is False and eq:
            unknown.append(token)
        elif options[opt] is False:
            values[opt] = True
        else:
            if not eq and _is_option(value := next(tokens, "--")):
                _exit(command, 2, f"argument {opt}: expected one argument")
            values[opt] = _value(command, opt, options[opt], value)
    missing = [p for p in positionals[len(given):] if p[-1] != "?"]
    missing += [opt for opt, default in options.items() if default is REQUIRED and values[opt] is None]
    if missing:
        _exit(command, 2, f"the following arguments are required: {', '.join(missing)}")
    args = {opt[2:].replace("-", "_"): value for opt, value in values.items()}
    for p, value in zip(positionals, given + [None] * len(positionals)):
        args[p.rstrip("?")] = value if value is None else _value(command, p, None, value)
    if unknown + given[len(positionals):]:
        _exit(None, 2, "unrecognized arguments: " + " ".join(unknown + given[len(positionals):]))
    return types.SimpleNamespace(command=command, func=func, **args)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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


def run() -> None:
    """The process's entry point: exit with `main`'s code."""
    import gc

    try:
        code = main()
    finally:
        # The process ends here. Frozen objects are skipped by every collection,
        # so the interpreter's shutdown collections have nothing to walk; its
        # stdout flush, atexit hooks and exit code 120 on a failed flush stay.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
