"""In-memory span tracing of the goeritz layers, for the traced benchmark run.

``instrument`` replaces every public function of each layer module, and
the public methods of the classes each module defines, by a wrapper that
opens a span named after the layer.  The wrapper is installed on every
module that holds the name, so a call that one module makes through a
name imported from another (``goeritz.cli.find_bridge``,
``goeritz.complexes.is_primitive``) opens a nested span.  A call that
stays inside the layer it is already in opens no span, so a span marks a
crossing of a layer boundary.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  The wrapper's own bookkeeping is timed apart and
charged to neither the child nor the parent, and is reported as the
tracing overhead.  Counters are taken from the values that calls return
(and from the exceptions they raise), never from program internals.

The untraced run imports this module but never calls ``instrument``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "words",
    "verify",
    "obstructions",
    "primitivity",
    "lens",
    "shell_bridge",
    "presentations",
    "complexes",
    "cli",
)

# Class methods wrapped besides the public ones.
_DUNDERS = ("__init__", "__str__")

SPAN_CAP = 100_000


class Tracer:
    """Span stack, per-layer totals, counters and a bounded span log."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, child_ns, span_id]
        self.depth = Counter()  # open spans per layer, for busy time
        self.calls = Counter()
        self.name_calls = Counter()  # keyed by (layer, name)
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.name_self_ns = Counter()  # keyed by (layer, name)
        self.counters = Counter()
        self.overhead_ns = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = -1
        self.enabled = True  # off while the benchmark checks outputs
        self.decided: set = set()  # primitivity inputs already decided in this op

    def begin_op(self, op: int) -> None:
        self.op = op
        self.decided.clear()

    def call(self, layer, name, fn, args, kwargs, observe):
        stack = self.stack
        t0 = perf_counter_ns()
        frame = [layer, 0, self.next_id]
        self.next_id += 1
        parent = stack[-1][2] if stack else -1
        outermost = self.depth[layer] == 0
        self.depth[layer] += 1
        stack.append(frame)
        result = exc = None
        t1 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:  # recorded, then re-raised unchanged
            exc = err
        t2 = perf_counter_ns()
        stack.pop()
        self.depth[layer] -= 1
        duration = t2 - t1
        own = duration - frame[1]
        self.calls[layer] += 1
        self.name_calls[layer, name] += 1
        self.self_ns[layer] += own
        self.name_self_ns[layer, name] += own
        if outermost:
            self.busy_ns[layer] += duration
        if observe is not None:
            observe(self, args, result, exc)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, frame[2], parent, layer, name, t1, t2))
        else:
            self.dropped += 1
        t3 = perf_counter_ns()
        self.overhead_ns += (t1 - t0) + (t3 - t2)
        if stack:
            stack[-1][1] += t3 - t0
        if exc is not None:
            raise exc
        return result

    def wrap(self, layer: str, name: str, fn, observe=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from gen
                        return
                    try:
                        item = tracer.call(layer, name, next, (gen,), {}, observe)
                    except StopIteration:
                        return
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            return tracer.call(layer, name, fn, args, kwargs, observe)

        return traced

    def write_spans(self, path) -> None:
        keys = ("op", "id", "parent", "layer", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _letters_of(value) -> int:
    """Letter count of a word-like value the words layer returns."""
    letters = getattr(value, "letters", None)
    if isinstance(letters, tuple):
        return len(letters)
    syllables = getattr(value, "syllables", None)
    if isinstance(syllables, tuple):
        return sum(abs(exp) for _, exp in syllables)
    if isinstance(value, tuple) and value and not isinstance(value[0], int):
        return sum(_letters_of(item) for item in value)
    return 0


def _observe_words(tracer, args, result, exc):
    # Constructors return None; the built word is then the instance.
    value = result if result is not None else (args[0] if args else None)
    tracer.counters["words.letters"] += _letters_of(value)


def _observe_certify(tracer, args, result, exc):
    if result is not None:
        tracer.counters["obstructions.fired"] += 1
        tracer.counters["obstructions.rule." + result.rule.value] += 1


def _observe_verdict(tracer, args, result, exc):
    if result is None:
        return
    tracer.counters["primitivity.verdicts"] += 1
    tracer.counters["primitivity.moves"] += len(result.reduction_trace)
    word = args[0]
    tracer.counters["primitivity.letters_in"] += _letters_of(word)
    key = (type(word).__name__, word)
    if key in tracer.decided:
        tracer.counters["primitivity.repeats"] += 1
    else:
        tracer.decided.add(key)


def _observe_classes(tracer, args, result, exc):
    if exc is None:
        tracer.counters["verify.classes"] += 1


def _observe_bridge(tracer, args, result, exc):
    if exc is not None:
        tracer.counters["shell_bridge.bridge_failed"] += 1
        tracer.counters["shell_bridge.bridge_failed." + type(exc).__name__] += 1
    else:
        depth = len(result.w)
        if depth > tracer.counters["shell_bridge.bridge_depth_max"]:
            tracer.counters["shell_bridge.bridge_depth_max"] = depth


def _observe_shell(tracer, args, result, exc):
    if result is not None:
        tracer.counters["shell_bridge.shell_letters"] += sum(
            _letters_of(word) for word in result.words
        )


def _observe_export(tracer, args, result, exc):
    if isinstance(result, str):
        tracer.counters["complexes.export_bytes"] += len(result.encode())


_OBSERVERS = {
    ("obstructions", "certify_nonprimitive"): _observe_certify,
    ("primitivity", "is_primitive"): _observe_verdict,
    ("primitivity", "is_primitive_power"): _observe_verdict,
    ("verify", "canonical_classes"): _observe_classes,
    ("shell_bridge", "find_bridge"): _observe_bridge,
    ("shell_bridge", "shell_words"): _observe_shell,
    ("complexes", "export_json"): _observe_export,
    ("complexes", "export_dot"): _observe_export,
}


def _observer(layer: str, name: str):
    if layer == "words":
        return _observe_words
    return _OBSERVERS.get((layer, name))


def instrument(tracer: Tracer) -> None:
    """Wrap the public surface of every layer; see the module docstring."""
    modules = {layer: importlib.import_module(f"goeritz.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = tracer.wrap(layer, name, obj, _observer(layer, name))
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
    package = importlib.import_module("goeritz")
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in _DUNDERS:
            continue
        label = f"{cls.__name__}.{name}"
        observe = _observer(layer, label)
        if inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(layer, label, attr, observe))
        elif isinstance(attr, property) and attr.fget is not None:
            setattr(cls, name, property(tracer.wrap(layer, label, attr.fget, observe)))
        elif isinstance(attr, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(layer, label, attr.__func__, observe)))


# Rule.KEYSUM is reserved in goeritz.obstructions and has no matcher yet.
RULES = ("PP2a", "PP2b", "KEY1", "KEY2", "KEY3", "BLOCKDIFF")
BRIDGE_ERRORS = ("DepthLimitExceededError", "NotForestError", "ValueError")
_EXPORTS = ("export_json", "export_dot")


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics by name: calls, busy and self time of every layer,
    then the counters and per-function self times the benchmark names."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = tracer.calls[layer]
        out[f"{layer}.busy_s"] = tracer.busy_ns[layer] / 1e9
        out[f"{layer}.self_s"] = tracer.self_ns[layer] / 1e9
    count = tracer.counters
    own = {key: ns / 1e9 for key, ns in tracer.name_self_ns.items()}

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    certified = tracer.name_calls["obstructions", "certify_nonprimitive"]
    out["obstructions.fired_ratio"] = ratio(count["obstructions.fired"], certified)
    for rule in RULES:
        out[f"obstructions.rule.{rule}"] = count[f"obstructions.rule.{rule}"]
    for key in ("moves", "letters_in"):
        out[f"primitivity.{key}"] = count[f"primitivity.{key}"]
    out["primitivity.repeat_ratio"] = ratio(
        count["primitivity.repeats"], count["primitivity.verdicts"]
    )
    out["words.letters"] = count["words.letters"]
    out["verify.classes"] = count["verify.classes"]
    out["verify.enum_self_s"] = own.get(("verify", "canonical_classes"), 0.0)
    out["shell_bridge.bridge_self_s"] = own.get(("shell_bridge", "find_bridge"), 0.0)
    for key in ("bridge_depth_max", "bridge_failed", "shell_letters"):
        out[f"shell_bridge.{key}"] = count[f"shell_bridge.{key}"]
    for error in BRIDGE_ERRORS:
        out[f"shell_bridge.bridge_failed.{error}"] = count[f"shell_bridge.bridge_failed.{error}"]
    out["shell_bridge.shell_self_s"] = own.get(("shell_bridge", "shell_words"), 0.0)
    out["cli.out_bytes"] = count["cli.out_bytes"]
    out["complexes.build_self_s"] = sum(
        t for (layer, name), t in own.items() if layer == "complexes" and name.startswith("build_")
    )
    out["complexes.export_self_s"] = sum(own.get(("complexes", name), 0.0) for name in _EXPORTS)
    out["complexes.export_bytes"] = count["complexes.export_bytes"]
    out["trace.overhead_s"] = tracer.overhead_ns / 1e9
    out["trace.spans"] = len(tracer.spans) + tracer.dropped
    out["trace.ops"] = tracer.op + 1
    return out
