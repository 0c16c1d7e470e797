"""In-process spans around the program's public functions, from outside.

`Tracer.install` replaces each listed function at every `stablefixtures.*`
module attribute bound to it (and `networkx.max_weight_matching` at the
networkx package), so nested calls become child spans and self time excludes
them. A listed function that no longer exists is reported as missing and
counts zero calls. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

# (layer, function) pairs wrapped where the program defines them.
FUNCTIONS = (
    ("instance", "validate"),
    ("instance", "induced"),
    ("matching", "max_weight_b_matching"),
    ("matching", "max_half_b_matching_weight"),
    ("matching", "duplicated_instance"),
    ("matching", "bipartite_max_weight_b_matching_with_duals"),
    ("reduction", "reduce_instance"),
    ("stability", "is_stable"),
    ("stability", "check_solution"),
    ("solver", "solve"),
    ("solver", "dual_from_duplicated"),
    ("solver", "stable_from_dual"),
    ("core", "core_membership_b2"),
    ("core", "game_value_with_witness"),
    ("cycles", "negative_cycle"),
    ("cycles", "min_path_cycle_system"),
)

# CLI boundary work: (module, function, group). Modules are `stablefixtures.*`
# names, or `json`, patched only while a request runs.
CLI_FUNCTIONS = (
    ("json", "load", "parse"),
    ("instance", "instance_from_json", "parse"),
    ("instance", "allocation_from_json", "parse"),
    ("stability", "solution_from_json", "parse"),
    ("solver", "outcome_to_json", "emit"),
    ("core", "verdict_to_json", "emit"),
    ("json", "dump", "emit"),
)

LAYERS = ("cli", "instance", "matching", "reduction", "stability", "solver", "core", "cycles")
BLOSSOM_LAYERS = ("matching", "cycles")


@dataclass
class Span:
    request: int
    name: str
    layer: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    child_s: float = 0.0
    size: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _span(self, fn, name, layer_of, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request < 0:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            layer = layer_of(tracer.spans[parent].layer if parent is not None else None)
            span = Span(tracer.request, name, layer, parent)
            if size_of is not None:
                span.size = size_of(*args, **kwargs)
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                duration = span.end - span.start
                span.self_s = duration - span.child_s
                if parent is not None:
                    tracer.spans[parent].child_s += duration

        return wrapper

    def run(self, request: int, fn, *args):
        """Call fn(*args) as request number `request`, recording its spans."""
        self.request = request
        try:
            return fn(*args)
        finally:
            self.request = -1

    # -- patching ------------------------------------------------------------

    def _replace(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import networkx

        package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "stablefixtures"]

        def fixed(layer):
            return lambda _caller: layer

        cli = sys.modules["stablefixtures.cli"]
        self._replace(cli.main, self._span(cli.main, "cli.main", fixed("cli")), package)
        for layer, name in FUNCTIONS:
            original = getattr(sys.modules.get(f"stablefixtures.{layer}"), name, None)
            if original is None:
                self.missing.append(f"{layer}.{name}")
                continue
            self._replace(original, self._span(original, f"{layer}.{name}", fixed(layer)), package)
        for module_name, name, group in CLI_FUNCTIONS:
            module = sys.modules.get(module_name if module_name == "json" else f"stablefixtures.{module_name}")
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            wrapper = self._span(original, f"cli.{group}.{module_name}.{name}", fixed("cli"))
            self._replace(original, wrapper, [module] + package)

        blossom = networkx.max_weight_matching
        wrapper = self._span(blossom, "blossom", lambda caller: f"{caller or 'none'}.blossom", _graph_size)
        self._replace(blossom, wrapper, [networkx] + package)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": [asdict(s) for s in self.spans]}, fh)


def _graph_size(graph, *args, **kwargs) -> dict:
    bits = 0
    for _, _, data in graph.edges(data=True):
        bits = max(bits, abs(int(data.get("weight", 1))).bit_length())
    return {"nodes": graph.number_of_nodes(), "edges": graph.number_of_edges(), "weight_bits": bits}


def layer_metrics(tracer: Tracer, requests: int, request_s: float) -> dict[str, float]:
    """Per-request metrics from the recorded spans.

    `request_s` is the summed in-process time of the traced requests; layer
    shares divide layer self time by it. Blossom time counts toward the layer
    that called it.
    """
    out: dict[str, float] = {}
    for layer, name in FUNCTIONS:
        out[f"{layer}.{name}.calls"] = 0
        out[f"{layer}.{name}.self_s"] = 0.0
    for layer in BLOSSOM_LAYERS:
        for key in ("calls", "self_s", "nodes", "edges", "weight_bits"):
            out[f"{layer}.blossom.{key}"] = 0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    groups = {"parse": 0.0, "emit": 0.0}
    for span in tracer.spans:
        owner = span.layer.split(".")[0]
        layer_self[owner] = layer_self.get(owner, 0.0) + span.self_s
        if span.name == "blossom":
            prefix = span.layer
            out[f"{prefix}.calls"] = out.get(f"{prefix}.calls", 0) + 1
            out[f"{prefix}.self_s"] = out.get(f"{prefix}.self_s", 0) + span.self_s
            out[f"{prefix}.nodes"] = out.get(f"{prefix}.nodes", 0) + span.size["nodes"]
            out[f"{prefix}.edges"] = out.get(f"{prefix}.edges", 0) + span.size["edges"]
            out[f"{prefix}.weight_bits"] = max(out.get(f"{prefix}.weight_bits", 0), span.size["weight_bits"])
        elif span.name.startswith("cli.") and span.name != "cli.main":
            groups[span.name.split(".")[1]] += span.self_s
        elif span.name != "cli.main":
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
    for layer in BLOSSOM_LAYERS:
        calls = out[f"{layer}.blossom.calls"]
        # Graph size is the mean per call; the weight width the widest seen.
        for key in ("nodes", "edges"):
            out[f"{layer}.blossom.{key}"] = out[f"{layer}.blossom.{key}"] / calls if calls else 0
        out[f"{layer}.blossom.calls"] = calls / requests
        out[f"{layer}.blossom.self_s"] /= requests
    for layer, name in FUNCTIONS:
        out[f"{layer}.{name}.calls"] /= requests
        out[f"{layer}.{name}.self_s"] /= requests
    out["cli.parse_s"] = groups["parse"] / requests
    out["cli.emit_s"] = groups["emit"] / requests
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / requests
        out[f"{layer}.share"] = layer_self[layer] / request_s if request_s else 0.0
    return out
