"""The builders, the read path, the checks and the table exchange scale linearly,
and the token walk of both simulators costs a bounded amount per trace event.

Work is counted as Python line events (sys.settrace), not timed, so the test
does not depend on the machine: quadrupling the model size multiplies the
count by about 4 for linear code and by about 16 for quadratic code. Work
inside C functions is not counted: a quadratic cost that lives only there
(a tuple copy per row, a membership test over a `map` of keys per entry)
does not show here. It shows in the layer harness, `tools/layers.py`, which
times each layer at 800 and 3200 components and fits the exponent of its
time from the median of the per-round size ratios. The walk's memory is
measured with tracemalloc.
"""
from __future__ import annotations

import csv
import io
import random
import sys
import tracemalloc
from unittest import mock

import pytest

from mfmkit import behavior, caex_io, exchange, sfc
from mfmkit import consistency as cc
from mfmkit import model as mm
from mfmkit.behavior import TraceEvent
from mfmkit.fixture import behavior_text, tjunction_model

from generators import sized_model

SMALL, LARGE = 100, 400
MAX_RATIO = 6


def _line_events(call) -> int:
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def _filled_table(m: mm.ModuleModel) -> bytes:
    """The missing-only request with its positions and io addresses filled
    in (the other requested cells stay requests), plus a new component type for
    every component and a document reassignment on every fifth."""
    request = csv.reader(io.StringIO(exchange.export_table(m, missing_only=True).decode()))
    rows = [exchange.HEADER]
    for path, parameter, _value, unit, doc, server in list(request)[1:]:
        value = {"logical_address": "%I9.9", "position": "(7,7,7)"}.get(parameter, "")
        rows.append((path, parameter, value, unit, doc, server))
    for i, component in enumerate(m.components):
        doc = m.documents[i % len(m.documents)].id if i % 5 == 0 else ""
        rows.append((f"{m.id}/components/{component.name}", "component_type", f"T{i}", "",
                     doc, ""))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


def _component_table(m: mm.ModuleModel, document) -> bytes:
    """A new type for every component, filed under document(i, component)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(exchange.HEADER)
    writer.writerows((f"{m.id}/components/{c.name}", "component_type", f"T{i}", "",
                      document(i), "") for i, c in enumerate(m.components))
    return buffer.getvalue().encode()


def _operations(n: int) -> dict:
    m = sized_model(n)
    doc = caex_io.parse(caex_io.serialize(caex_io.from_model(m)))
    table = _filled_table(m)
    new_documents = _component_table(m, lambda i: f"new-{i}")
    reassigned = _component_table(m, lambda i: m.documents[i % len(m.documents)].id)
    return {
        "builders (sized_model)": lambda: sized_model(n),
        "to_model": lambda: caex_io.to_model(doc),
        "check_links": lambda: cc.check_links(m),
        "check_completeness": lambda: cc.check_completeness(m, "control_hmi_eng"),
        "export_table --missing-only": lambda: exchange.export_table(m, missing_only=True),
        "import_table": lambda: exchange.import_table(m, table),
        "import_table new document per row": lambda: exchange.import_table(m, new_documents),
        "import_table reassign per row": lambda: exchange.import_table(m, reassigned),
    }


@pytest.fixture(scope="module")
def counts() -> dict:
    small, large = _operations(SMALL), _operations(LARGE)
    return {name: (_line_events(small[name]), _line_events(large[name])) for name in small}


@pytest.mark.parametrize("operation", [
    "builders (sized_model)", "to_model", "check_links", "check_completeness",
    "export_table --missing-only", "import_table", "import_table new document per row",
    "import_table reassign per row"])
def test_work_grows_linearly_with_model_size(counts, operation):
    small, large = counts[operation]
    assert large / small <= MAX_RATIO, f"{operation}: {small} -> {large} line events"


def test_sized_model_reads_back_and_has_cells_to_report():
    m = sized_model(16)
    assert caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))[0] == m
    assert cc.check_links(m) == []
    cells = {"position", "logical_address"}

    def open_cells(model):
        return [v for v in cc.check_completeness(model, "control_hmi_eng") if v.parameter in cells]
    assert {v.parameter for v in open_cells(m)} == cells
    updated, violations = exchange.import_table(m, _filled_table(m))
    assert violations == []
    assert open_cells(updated) == []
    assert len(updated.control.io_mapping) == len(m.components)
    assert updated.documents[0].assigned_element == f"{m.id}/components/c10"
    updated, violations = exchange.import_table(m, _component_table(m, lambda i: f"new-{i}"))
    assert violations == []
    assert [d.assigned_element for d in updated.documents[len(m.documents):]] == [
        f"{m.id}/components/c{i}" for i in range(16)]
    updated, violations = exchange.import_table(
        m, _component_table(m, lambda i: m.documents[i % 2].id))
    assert violations == []
    assert [d.assigned_element for d in updated.documents] == [
        f"{m.id}/components/c14", f"{m.id}/components/c15"]


# ---------------------------------------------------------------------------
# The token walk
# ---------------------------------------------------------------------------

#: Line events per trace event that either simulator may spend on a looped
#: graph whose passes revisit the same few states.
MAX_LINES_PER_EVENT = 16


def _looped_replay(passes: int):
    """The fixture graph with loop edges back to its entry, its program, its
    model, and a trace of `passes` transport units, each routed to a random
    output: order, arrive, leave the input, clear the order, reach the
    output and leave it."""
    graph = behavior.parse_behavior(behavior_text() + "loop 1.3 -> 1.0\nloop 2.3 -> 1.0\n")
    m = tjunction_model()
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    rng = random.Random(1)
    trace = []
    for _ in range(passes):
        output = rng.choice((1, 2))
        trace += [TraceEvent("order", f"output_{output}"),
                  TraceEvent("sensor", "LB_in", True), TraceEvent("sensor", "LB_in", False),
                  TraceEvent("order", f"output_{output}", False),
                  TraceEvent("sensor", f"LB_out{output}", True),
                  TraceEvent("sensor", f"LB_out{output}", False)]
    return graph, program, m, trace


def test_the_looped_replay_routes_every_transport_unit():
    graph, program, m, trace = _looped_replay(40)
    events = behavior.simulate(graph, trace)
    assert sfc.simulate_sfc(program, trace, m) == events
    routed = sum(event.kind == "deactivate" and event.subject == "Conv1" for event in events)
    assert routed == 40


def test_both_simulators_emit_the_same_action_objects_also_for_copied_events():
    graph, program, m, trace = _looped_replay(40)
    copied = [TraceEvent(e.kind, e.subject, e.value) for e in trace]
    events = behavior.simulate(graph, trace)
    for replayed in (sfc.simulate_sfc(program, trace, m), behavior.simulate(graph, copied),
                     sfc.simulate_sfc(program, copied, m)):
        assert len(replayed) == len(events) > 0
        assert all(a is b for a, b in zip(events, replayed))


class _Counted(list):
    """A trace that counts the events a simulator has read from it."""

    def __iter__(self):
        self.read = 0
        for event in list.__iter__(self):
            self.read += 1
            yield event


@pytest.mark.parametrize("engine, bad, error", [
    ("behavior.simulate", TraceEvent("alarm", "LB_in"), "unknown event kind 'alarm'"),
    ("sfc.simulate_sfc", TraceEvent("alarm", "LB_in"), "unknown event kind 'alarm'"),
    ("sfc.simulate_sfc", TraceEvent("sensor", "LB_zzz"), "no io_mapping entry binds sensor 'LB_zzz'"),
])
def test_an_untranslatable_event_fails_where_it_first_comes_after_many_passes(engine, bad, error):
    graph, program, m, passes = _looped_replay(40)
    run = {"behavior.simulate": lambda trace: behavior.simulate(graph, trace),
           "sfc.simulate_sfc": lambda trace: sfc.simulate_sfc(program, trace, m)}[engine]
    assert run(_Counted(passes + passes)) == run(passes) * 2
    trace = _Counted(passes + [bad] + passes)
    with pytest.raises((behavior.SimulationError, sfc.BindingError), match=error):
        run(trace)
    assert trace.read == len(passes) + 1


@pytest.mark.parametrize("engine", ["behavior.simulate", "sfc.simulate_sfc"])
def test_a_looped_replay_costs_a_bounded_number_of_lines_per_event(engine):
    graph, program, m, trace = _looped_replay(500)
    run = {"behavior.simulate": lambda: behavior.simulate(graph, trace),
           "sfc.simulate_sfc": lambda: sfc.simulate_sfc(program, trace, m)}[engine]
    per_event = _line_events(run) / len(trace)
    assert per_event <= MAX_LINES_PER_EVENT, f"{engine}: {per_event:.1f} line events per event"


def _walk_peak(updates: int) -> int:
    """The tracemalloc peak of a walk whose every update reaches a new state.

    Two arcs leave `idle` and share no key, so every update of a key they
    read starts a cascade, and neither is ever enabled (`g0` and `g1` stay
    off). The updates toggle `x0`-`x15` in Gray code order, one key each,
    so no state repeats.
    """
    keys = [f"x{i}" for i in range(16)]
    outgoing = {"idle": [("a", frozenset(keys + ["g0"]), frozenset()),
                         ("b", frozenset(["g1"]), frozenset(keys))],
                "a": [], "b": []}
    trace = []
    for i in range(1, updates + 1):
        bit = (i & -i).bit_length() - 1
        trace.append((keys[bit], bool((i ^ i >> 1) >> bit & 1)))
    tracemalloc.start()
    try:
        assert behavior.walk(outgoing, "idle", trace, lambda step: ((), (), ())) == []
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_walk_through_new_states_keeps_its_memory_within_the_memo_cap():
    full = _walk_peak(behavior._MAX_MEMO)
    assert _walk_peak(50_000) <= full * 1.25 + 64_000
    # Without the cap, the memo would hold every state.
    with mock.patch.object(behavior, "_MAX_MEMO", 10**6):
        assert _walk_peak(50_000) > full * 4


def _gray_toggles(keys: list) -> list:
    """Updates that walk the keys (all off) through every other on/off
    combination in Gray code order, one key each, and back in reverse."""
    forward = []
    for i in range(1, 2 ** len(keys)):
        bit = (i & -i).bit_length() - 1
        forward.append((keys[bit], bool((i ^ i >> 1) >> bit & 1)))
    return forward + [(key, not level) for key, level in reversed(forward)]


def test_a_walk_follows_the_rows_it_has_once_the_memo_is_full():
    # The same arcs as _walk_peak's: every update of x0-x7 is tested, none enables an arc.
    keys = [f"x{i}" for i in range(8)]
    outgoing = {"idle": [("a", frozenset(keys + ["g0"]), frozenset()),
                         ("b", frozenset(["g1"]), frozenset(keys))],
                "a": [], "b": []}
    toggles = [("x0", True), ("x0", False)]
    tail = toggles * 2_000

    def lines(trace):
        def run():
            assert behavior.walk(outgoing, "idle", trace, lambda step: ((), (), ())) == []
        return _line_events(run)

    # Two rows with the toggles' entries, then far more new states than the
    # memo has room for, then back to the first row: the tail is served from
    # rows as if it came alone.
    with mock.patch.object(behavior, "_MAX_MEMO", 64):
        prefix = toggles + _gray_toggles(keys[1:])
        after_prefix = lines(prefix + tail) - lines(prefix)
        alone = lines(toggles + tail) - lines(toggles)
    assert after_prefix <= alone * 1.05, (after_prefix, alone)
