"""Spans around the public functions of each mfmkit layer, recorded from outside.

`install` rebinds the module attributes that callers look up at call time
(for example `caex_io.parse_tree` and `consistency.check_links`) to thin
wrappers; `src/` is not changed. A span is (name, start, end, parent) and
lives in memory in flat arrays until `write` dumps them. Spans are only
recorded below an open operation span, so oracle code that calls the same
functions outside an operation stays untraced.
"""
from __future__ import annotations

import functools
import gzip
import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Builder functions of the model layer, reported together as model.builders.
BUILDERS = (
    "new_module", "set_identification", "set_main_dimensions", "add_static_attribute",
    "add_runtime_variable", "add_logistic_function", "add_route", "add_port",
    "add_interaction_space", "add_control_function", "add_variable", "add_io_entry",
    "set_platform", "add_component", "add_document", "replace_document",
    "add_cross_ref", "with_roles", "with_external_ref",
)

OP = "op"


class Tracer:
    """Span store: parallel arrays plus per-operation counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.ops: list = []                        # (root span index, operation)
        self.counts: dict = defaultdict(float)     # (root span index, key) -> value

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int, now: float) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(index)
        return index

    def close(self, index: int, now: float) -> None:
        self.end[index] = now
        self.stack.pop()

    def count(self, key: str, value: float) -> None:
        if self.stack:
            self.counts[(self.stack[0], key)] += value

    def begin_op(self, op, now: float) -> int:
        root = self.open(self.name_id(OP), now)
        self.ops.append((root, op))
        return root

    def adopt(self, spans: list, counts: dict) -> None:
        """Graft spans recorded by a child process below the open span."""
        base = len(self.name)
        top = self.stack[-1]
        for name, start, end, parent in spans:
            self.name.append(self.name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(top if parent < 0 else base + parent)
        for key, value in counts.items():
            self.count(key, value)

    def by_operation(self) -> tuple[dict, Counter]:
        """Self seconds and span counts, keyed (root span index, span name).

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.name)
        root = [0] * len(self.name)
        for i in range(len(self.name)):
            parent = self.parent[i]
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        seconds: dict = defaultdict(float)
        spans: Counter = Counter()
        for i in range(len(self.name)):
            key = (root[i], self.names[self.name[i]])
            seconds[key] += self.end[i] - self.start[i] - child[i]
            spans[key] += 1
        return seconds, spans

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,name,start,end,parent\n")
            for i in range(len(self.name)):
                out.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                          f"{self.end[i]!r},{self.parent[i]}\n")


def _wrap(tracer: Tracer, name: str, fn, counter=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        index = tracer.open(name_id, perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index, perf_counter())
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


def _count_bytes(tracer, _args, result):
    tracer.count("caex_io.serialize.bytes", len(result))


def _count_events(key):
    def counter(tracer, args, _result):
        tracer.count(key, len(args[1]))
    return counter


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    from mfmkit import behavior, caex_io, cli, exchange, mapping, sfc, xmlio
    from mfmkit import consistency as cc
    from mfmkit import model as mm

    def rebind(span: str, fn_name: str, homes: tuple, counter=None) -> None:
        wrapped = _wrap(tracer, span, getattr(homes[0], fn_name), counter)
        for home in homes:
            setattr(home, fn_name, wrapped)

    rebind("xmlio.parse_tree", "parse_tree", (xmlio, caex_io, sfc))
    for fn_name in ("parse", "to_model", "from_model"):
        rebind(f"caex_io.{fn_name}", fn_name, (caex_io,))
    rebind("caex_io.serialize", "serialize", (caex_io,), _count_bytes)
    for fn_name in BUILDERS:
        rebind("model.builders", fn_name, (mm,))
    rebind("model.resolve", "resolve", (mm,))
    rebind("model.set_parameter", "set_parameter", (mm,))
    rebind("consistency.check_completeness", "check_completeness", (cc, exchange))
    for fn_name in ("check_links", "dependency_report"):
        rebind(f"consistency.{fn_name}", fn_name, (cc,))
    rebind("mapping.validate_assignments", "validate_assignments", (mapping,))
    for fn_name in ("export_table", "import_table"):
        rebind(f"exchange.{fn_name}", fn_name, (exchange,))
    for fn_name in ("parse_behavior", "parse_trace"):
        rebind(f"behavior.{fn_name}", fn_name, (behavior,))
    rebind("behavior.simulate", "simulate", (behavior,),
           _count_events("behavior.simulate.events"))
    for fn_name in ("iml_to_sfc", "emit_plcopen"):
        rebind(f"sfc.{fn_name}", fn_name, (sfc,))
    rebind("sfc.simulate_sfc", "simulate_sfc", (sfc,),
           _count_events("sfc.simulate_sfc.events"))
    rebind("cli.main", "main", (cli,))


def exponent(points: dict) -> float:
    """Least-squares slope of log(time) against log(n); 0.0 when undefined."""
    usable = [(math.log(n), math.log(t)) for n, t in points.items() if n > 0 and t > 0]
    if len(usable) < 2:
        return 0.0
    mean_x = sum(x for x, _ in usable) / len(usable)
    mean_y = sum(y for _, y in usable) / len(usable)
    var = sum((x - mean_x) ** 2 for x, _ in usable)
    if var == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in usable) / var
