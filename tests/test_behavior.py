"""Behavior graph parsing, IML conversion, and token simulation."""
from __future__ import annotations

import random
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mfmkit import behavior as bh
from mfmkit.behavior import (
    Action,
    BehaviorGraph,
    BehaviorGraphError,
    BehaviorParseError,
    BehaviorStep,
    Condition,
    SimulationError,
    TraceEvent,
)


def _fixture_text() -> str:
    return resources.files("mfmkit").joinpath("data/tjunction.bhv").read_text("utf-8")


def _fixture_graph() -> BehaviorGraph:
    return bh.parse_behavior(_fixture_text())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_fixture_structure():
    graph = _fixture_graph()
    assert graph.id == "tjunction-route"
    assert [s.id for s in graph.steps] == ["1.0", "1.1", "1.2", "1.3", "2.1", "2.2", "2.3"]
    assert graph.edges == (
        ("1.0", "1.1"), ("1.1", "1.2"), ("1.2", "1.3"),
        ("1.0", "2.1"), ("2.1", "2.2"), ("2.2", "2.3"))
    assert graph.loop_edges == ()


def test_parse_fixture_guards_and_actions():
    steps = {s.id: s for s in _fixture_graph().steps}
    assert steps["1.0"].guards == () and steps["1.0"].actions == ()
    assert steps["1.1"].guards == (
        Condition("sensor_true", "LB_in"), Condition("order_request", "output_1"))
    assert steps["1.2"].actions == (Action("activate", "Conv1"),)
    assert steps["2.3"].guards == (Condition("sensor_true", "LB_out2"),)
    assert steps["2.3"].actions == (
        Action("deactivate", "Conv1"), Action("deactivate", "Conv2"),
        Action("deactivate", "Switch"))


def test_parse_single_step():
    graph = bh.parse_behavior('step only "the lone step"\n')
    assert len(graph.steps) == 1
    assert graph.edges == ()
    assert bh.validate_graph(graph)[0] == "only"


def test_parse_edge_to_missing_step_fails_with_line():
    text = 'step a "first"\nedge a -> b\n'
    with pytest.raises(BehaviorParseError, match="line 2.*'b'"):
        bh.parse_behavior(text)


@pytest.mark.parametrize("text, message", [
    ("step a\n", 'line 1: expected: step <id> "<description>" ...'),
    ('step a "first"\nedge a b\n', "line 2: expected: edge <a> -> <b>"),
    ("graph a b\n", "line 1: expected: graph <name>"),
    ('step a "first"\nedge b -> a\n', "line 2: unknown edge source 'b'"),
], ids=["step", "edge", "graph", "edge source"])
def test_parse_names_the_line_of_a_malformed_step_edge_or_graph(text, message):
    with pytest.raises(BehaviorParseError) as caught:
        bh.parse_behavior(text)
    assert str(caught.value) == message


def test_parse_duplicate_step_id_fails_with_both_lines():
    text = 'step a "one"\nstep a "again"\n'
    with pytest.raises(BehaviorParseError, match="line 2.*line 1"):
        bh.parse_behavior(text)


def test_parse_two_entries_fail():
    text = 'step a "x"\nstep b "y"\nstep c "z"\nedge a -> c\nedge b -> c\n'
    with pytest.raises(BehaviorGraphError, match="entry"):
        bh.parse_behavior(text)


def test_parse_cycle_fails():
    text = 'step a "x"\nstep b "y"\nedge a -> b\nedge b -> a\n'
    with pytest.raises(BehaviorGraphError):
        bh.parse_behavior(text)


def test_parse_duplicate_edge_fails():
    text = 'step a "x"\nstep b "y"\nedge a -> b\nedge a -> b\n'
    with pytest.raises(BehaviorParseError, match="line 4"):
        bh.parse_behavior(text)


def test_parse_comments_and_blank_lines():
    text = '# heading\n\nstep a "uses # inside" # trailing note\n'
    graph = bh.parse_behavior(text)
    assert graph.steps[0].description == "uses # inside"


def test_parse_bad_condition_and_action():
    with pytest.raises(BehaviorParseError, match="condition"):
        bh.parse_behavior('step a "x" when LB_in maybe\n')
    with pytest.raises(BehaviorParseError, match="action"):
        bh.parse_behavior('step a "x" do explode Conv1\n')
    with pytest.raises(BehaviorParseError, match="keyword"):
        bh.parse_behavior("node a\n")


@pytest.mark.parametrize("text, line", [
    ('graph tj\x01x\nstep a "idle"\n', 1),
    ('step a "idle"\nstep b "go" when order \u00e9\x01\nedge a -> b\n', 2),
    ('step a "idle \x0e"\n', 1),
    ('step a "idle"\nstep b "go" do activate A\x1f\nedge a -> b\n', 2),
    ('step a "\ud800"\n', 1),
    ('step a "\ufffe"\n', 1),
])
def test_parse_rejects_characters_xml_cannot_carry(text, line):
    with pytest.raises(BehaviorParseError, match=f"^line {line}: the character U\\+"):
        bh.parse_behavior(text)


def test_parse_allows_any_character_in_comments():
    graph = bh.parse_behavior('# \x01\nstep a "idle\tquiet" # \x02 \ufffe\n')
    assert graph.steps[0].description == "idle\tquiet"


def test_loop_edge_back_to_entry_is_accepted():
    text = 'step a "entry"\nstep b "end" when S on\nedge a -> b\nloop b -> a\n'
    graph = bh.parse_behavior(text)
    assert graph.edges == (("a", "b"),)
    assert graph.loop_edges == (("b", "a"),)
    assert bh.validate_graph(graph)[0] == "a"


def _graph(steps, edges=(), loops=()) -> BehaviorGraph:
    return BehaviorGraph(id="g", steps=tuple(BehaviorStep(s) for s in steps),
                         edges=tuple(edges), loop_edges=tuple(loops))


# Each graph breaks its own invariant and, where it can, every later one too,
# so the message pins which check runs first.
@pytest.mark.parametrize("graph, message", [
    (_graph("aab", [("a", "z"), ("b", "b")], [("b", "z")]), "duplicate step ids"),
    (_graph("", [("a", "b")]), "edge a -> b references unknown steps"),
    (_graph("abcd", [("c", "d"), ("d", "c"), ("a", "x")]),
     "edge a -> x references unknown steps"),
    (_graph("ab", [("a", "b")], [("b", "z")]), "edge b -> z references unknown steps"),
    (_graph(""), "graph has no steps"),
    (_graph("abcd", [("c", "d"), ("d", "c")], [("d", "c")]),
     "expected exactly one entry step, found 2 (a, b)"),
    (_graph("ab", [("a", "b"), ("b", "a")]), "expected exactly one entry step, found 0"),
    (_graph("eab", [("e", "a"), ("a", "b"), ("b", "a")], [("a", "b")]), "edges form a cycle"),
    (_graph("eab", [("e", "a"), ("a", "b")], [("a", "a")]),
     "loop a -> a must return to the entry step 'e'"),
    (_graph("eab", [("e", "a"), ("a", "b")], [("b", "a"), ("a", "e")]),
     "loop b -> a must return to the entry step 'e'"),
    (_graph("eab", [("e", "a"), ("a", "b")], [("a", "e"), ("b", "a")]),
     "loop source 'a' must be a terminal step"),
])
def test_graph_errors_keep_their_message_and_precedence(graph, message):
    for call in (bh.validate_graph, bh.to_iml, lambda g: bh.simulate(g, [])):
        with pytest.raises(BehaviorGraphError) as caught:
            call(graph)
        assert str(caught.value) == message


def _fork(arms: int) -> BehaviorGraph:
    """An entry `start`, declared last, forking into `arms` three-step arms
    that loop back to it; arm b is selected by order p<b> and left on S<b>."""
    steps, edges, loops = [], [], []
    for b in range(arms):
        steps += [BehaviorStep(f"a{b}.1", guards=(Condition("order_request", f"p{b}"),
                                                  Condition("sensor_false", f"S{b}"))),
                  BehaviorStep(f"a{b}.2", actions=(Action("activate", f"C{b}"),)),
                  BehaviorStep(f"a{b}.3", guards=(Condition("sensor_true", f"S{b}"),),
                               actions=(Action("deactivate", f"C{b}"),))]
        edges += [("start", f"a{b}.1"), (f"a{b}.1", f"a{b}.2"), (f"a{b}.2", f"a{b}.3")]
        loops.append((f"a{b}.3", "start"))
    steps.append(BehaviorStep("start"))
    return BehaviorGraph(id="fork", steps=tuple(steps), edges=tuple(edges),
                         loop_edges=tuple(loops))


@pytest.mark.parametrize("graph, order", [
    (_fixture_graph(), ["1.0", "1.1", "1.2", "1.3", "2.1", "2.2", "2.3"]),
    (_fork(12), ["start"] + [f"a{b}.{k}" for b in (0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9)
                             for k in (1, 2, 3)]),
])
def test_to_iml_order_and_the_entry_simulate_starts_from(graph, order):
    assert [e.step_id for e in bh.to_iml(graph).entries] == order
    with mock.patch.object(bh, "walk", wraps=bh.walk) as spy:
        bh.simulate(graph, [])
    assert spy.call_args.args[1] == order[0]


def test_simulate_walks_the_fork_from_its_entry():
    trace = [TraceEvent("order", "p10"), TraceEvent("sensor", "S10", True)]
    assert bh.simulate(_fork(12), trace) == [Action("activate", "C10"),
                                             Action("deactivate", "C10")]


def test_loop_edge_must_target_entry_from_terminal():
    base = 'step a "x"\nstep b "y" when S on\nstep c "z" when T on\nedge a -> b\nedge b -> c\n'
    with pytest.raises(BehaviorGraphError, match="entry"):
        bh.parse_behavior(base + "loop c -> b\n")
    with pytest.raises(BehaviorGraphError, match="terminal"):
        bh.parse_behavior(base + "loop b -> a\n")


# ---------------------------------------------------------------------------
# IML
# ---------------------------------------------------------------------------

def test_to_iml_fixture_order_and_entry():
    iml = bh.to_iml(_fixture_graph())
    assert [e.step_id for e in iml.entries] == ["1.0", "1.1", "1.2", "1.3", "2.1", "2.2", "2.3"]
    assert iml.entries[0].actions == ()
    assert iml.entries[0].predecessors == ()
    assert iml.source_graph_id == "tjunction-route"


def test_to_iml_branches_follow_their_fork():
    order = [e.step_id for e in bh.to_iml(_fixture_graph()).entries]
    assert order.index("1.0") < order.index("1.1")
    assert order.index("1.0") < order.index("2.1")


def test_to_iml_guard_expressions_are_normalized():
    entries = {e.step_id: e for e in bh.to_iml(_fixture_graph()).entries}
    assert entries["1.0"].guard_expr == "TRUE"
    assert entries["1.1"].guard_expr == "LB_in=on AND order(output_1)"
    assert entries["2.3"].guard_expr == "LB_out2=on"


def test_to_iml_is_lossless():
    graph = _fixture_graph()
    iml = bh.to_iml(graph)
    by_id = {s.id: s for s in graph.steps}
    for entry in iml.entries:
        step = by_id[entry.step_id]
        assert entry.guards == step.guards
        assert entry.actions == step.actions
        assert entry.description == step.description
    edges = {(p, e.step_id) for e in iml.entries for p in e.predecessors}
    assert edges == set(graph.edges)


def test_to_iml_rejects_empty_graph():
    with pytest.raises(BehaviorGraphError, match="no steps"):
        bh.to_iml(BehaviorGraph())


def test_guard_expr_off_terms():
    expr = bh.guard_expr((Condition("sensor_false", "LB_in"), Condition("sensor_true", "S")))
    assert expr == "LB_in=off AND S=on"


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _route_1() -> list[TraceEvent]:
    return [TraceEvent("sensor", "LB_in", True), TraceEvent("order", "output_1"),
            TraceEvent("sensor", "LB_out1", True)]


def _route_2() -> list[TraceEvent]:
    return [TraceEvent("sensor", "LB_in", True), TraceEvent("order", "output_2"),
            TraceEvent("sensor", "LB_out2", True)]


def test_simulate_route_1():
    actions = bh.simulate(_fixture_graph(), _route_1())
    assert [bh.format_event(a) for a in actions] == ["activate Conv1", "deactivate Conv1"]


def test_simulate_route_2():
    actions = bh.simulate(_fixture_graph(), _route_2())
    assert [bh.format_event(a) for a in actions] == [
        "activate Conv1", "activate Conv2", "activate Switch",
        "deactivate Conv1", "deactivate Conv2", "deactivate Switch"]


def test_simulate_empty_trace_rests_at_entry():
    assert bh.simulate(_fixture_graph(), []) == []


def test_simulate_order_before_arrival():
    trace = [TraceEvent("order", "output_1"), TraceEvent("sensor", "LB_in", True),
             TraceEvent("sensor", "LB_out1", True)]
    actions = bh.simulate(_fixture_graph(), trace)
    assert [bh.format_event(a) for a in actions] == ["activate Conv1", "deactivate Conv1"]


def test_simulate_ambiguous_branch_is_an_error():
    trace = [TraceEvent("order", "output_1"), TraceEvent("order", "output_2"),
             TraceEvent("sensor", "LB_in", True)]
    with pytest.raises(SimulationError, match="ambiguous"):
        bh.simulate(_fixture_graph(), trace)


def test_simulate_is_deterministic():
    graph = _fixture_graph()
    first = "\n".join(bh.format_event(a) for a in bh.simulate(graph, _route_2()))
    second = "\n".join(bh.format_event(a) for a in bh.simulate(graph, _route_2()))
    assert first == second


def test_simulate_sensor_off_guard():
    text = ('step a "entry"\n'
            'step b "gate clear" when S off do activate A\n'
            "edge a -> b\n")
    graph = bh.parse_behavior(text)
    # S starts unknown -> treated as off, the initial cascade already fires.
    assert bh.simulate(graph, []) == [Action("activate", "A")]
    held = bh.simulate(graph, [TraceEvent("sensor", "S", True)])
    assert held == [Action("activate", "A")]


def test_simulate_level_semantics_not_edge():
    text = ('step a "entry"\n'
            'step b "first" when S on\n'
            'step c "second" when S on do activate A\n'
            "edge a -> b\nedge b -> c\n")
    graph = bh.parse_behavior(text)
    # one event, two advances: the level stays on, so the cascade walks both.
    assert bh.simulate(graph, [TraceEvent("sensor", "S", True)]) == [Action("activate", "A")]


# ---------------------------------------------------------------------------
# The walk kernel against a reference walk
# ---------------------------------------------------------------------------

def _reference_walk(outgoing, current, live, updates, enter):
    """The plain walk: every arc tried after every update, the budget per cascade."""
    emitted = []
    moves = 0
    updates = iter(updates)
    while True:
        enabled = [
            target for target, on, off in outgoing[current]
            if on <= live and live.isdisjoint(off)]
        if not enabled:
            update = next(updates, None)
            if update is None:
                return emitted
            key, level = update
            if level:
                live.add(key)
            else:
                live.discard(key)
            moves = 0
            continue
        if len(enabled) > 1:
            raise SimulationError(
                f"ambiguous branch at step {current}: "
                f"{' and '.join(sorted(enabled))} are both enabled")
        moves += 1
        if moves > bh._MAX_MOVES:
            raise SimulationError("token walk does not terminate")
        current = enabled[0]
        emitted.extend(enter(current))


# Arcs select on _SELECTORS and share literals on _SHARED; no arc reads _UNREAD.
_SELECTORS = ("x0", "x1")
_SHARED = ("s0", "s1")
_UNREAD = ("u0", "u1")
_KEYS = st.sampled_from(_SELECTORS + _SHARED + _UNREAD)


@st.composite
def _compiled_walks(draw):
    """Compiled arcs, per-step writes of `enter`, and a list of updates."""
    steps = [f"q{i}" for i in range(draw(st.integers(min_value=2, max_value=5)))]
    outgoing = {}
    for step in steps:
        fan_out = draw(st.sampled_from((3, 4) if step == "q0" else (0, 1, 2, 3, 4)))
        # Distinct selector patterns keep the arcs exclusive, until the
        # drawn arc drops one of its `off` selectors.
        patterns = draw(st.permutations(range(4)))[:fan_out]
        others = [other for other in steps if other != step]
        targets = draw(st.lists(st.sampled_from(others), min_size=fan_out, max_size=fan_out))
        loose = draw(st.integers(0, fan_out))
        shared_on = draw(st.frozensets(st.sampled_from(_SHARED), max_size=1))
        shared_off = draw(st.frozensets(st.sampled_from(_SHARED), max_size=1)) - shared_on
        arcs = []
        for i, (pattern, target) in enumerate(zip(patterns, targets)):
            on = {k for bit, k in enumerate(_SELECTORS) if pattern >> bit & 1}
            off = set(_SELECTORS) - on
            if i == loose:
                off = set(sorted(off)[1:])
            arcs.append((target, frozenset(on) | shared_on, frozenset(off) | shared_off))
        outgoing[step] = arcs
    writes = {step: draw(st.lists(st.tuples(_KEYS, st.booleans()), max_size=2))
              for step in steps}
    updates = draw(st.lists(st.tuples(_KEYS, st.booleans()), min_size=40, max_size=120))
    return outgoing, writes, updates


def _reference_outcome(outgoing, writes, updates):
    live = set()

    def enter(step):
        for key, level in writes[step]:
            if level:
                live.add(key)
            else:
                live.discard(key)
        return [step]

    try:
        return "emitted", _reference_walk(outgoing, "q0", live, updates, enter)
    except SimulationError as error:
        return "error", str(error)


def _walk_outcome(outgoing, writes, updates):
    def enter(step):
        levels = dict(writes[step])  # the last write to a key wins
        return ([step], [key for key, on in levels.items() if on],
                [key for key, on in levels.items() if not on])

    try:
        return "emitted", bh.walk(outgoing, "q0", updates, enter)
    except SimulationError as error:
        return "error", str(error)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_compiled_walks())
def test_walk_agrees_with_the_reference_walk(case):
    outgoing, writes, updates = case
    # A small budget makes runaway cascades, and cascades after many
    # earlier moves, cheap to reach. The walk runs without rows, with rows
    # that fill up at once and with the default cap.
    with mock.patch.object(bh, "_MAX_MOVES", 3):
        expected = _reference_outcome(outgoing, writes, updates)
        for memo in (0, 2, bh._MAX_MEMO):
            with mock.patch.object(bh, "_MAX_MEMO", memo):
                assert _walk_outcome(outgoing, writes, updates) == expected, memo


def test_walk_agrees_with_the_reference_walk_after_its_memo_fills():
    # A loop q0 -> q1 -> q2 -> q0 driven by x and y, plus updates of keys
    # that no arc reads: the walk revisits its states long after a small
    # memo is full, so it keeps following the rows it filled before.
    outgoing = {"q0": [("q1", frozenset({"x"}), frozenset({"y"}))],
                "q1": [("q2", frozenset({"y"}), frozenset())],
                "q2": [("q0", frozenset(), frozenset({"x", "y"}))]}
    writes = {"q0": [], "q1": [("z", True)], "q2": [("z", False)]}
    rng = random.Random(7)
    updates = [(rng.choice(("x", "y", "u0", "u1")), rng.random() < 0.5) for _ in range(600)]
    expected = _reference_outcome(outgoing, writes, updates)
    assert expected[0] == "emitted" and len(expected[1]) > 50
    for memo in (1, 2, 3, 5, 8, 13, 40):
        with mock.patch.object(bh, "_MAX_MEMO", memo):
            assert _walk_outcome(outgoing, writes, updates) == expected, memo


def test_simulate_nonterminating_loop_is_an_error():
    text = 'step a "entry"\nstep b "bounce"\nedge a -> b\nloop b -> a\n'
    graph = bh.parse_behavior(text)
    with pytest.raises(SimulationError, match="terminate"):
        bh.simulate(graph, [])


def test_walk_enters_each_step_once_and_applies_its_writes_on_every_entry():
    # b sets y, which b -> c needs; c clears it again. Each pass: x on, x off.
    outgoing = {"a": [("b", frozenset({"x"}), frozenset())],
                "b": [("c", frozenset({"y"}), frozenset({"x"}))],
                "c": [("a", frozenset(), frozenset())],
                "d": []}
    writes = {"a": ((), ()), "b": (("y",), ()), "c": ((), ("y",))}
    calls = []

    def enter(step):
        calls.append(step)
        return ([step], *writes[step])

    updates = [("x", True), ("x", False)] * 50
    assert bh.walk(outgoing, "a", updates, enter) == ["b", "c", "a"] * 50
    assert calls == ["b", "c", "a"]


#: Passes through p and q return to a; three arcs of a are enabled at once by
#: S, and r loops back to a as long as U is on.
_LOOPED_ERRORS = """\
step a "idle"
step p "take" when T on do activate A
step q "drop" when T off do deactivate A
step r "spin" when U on
step z "right" when S on
step b "left" when S on
step m "middle" when S on
edge a -> p
edge p -> q
edge a -> z
edge a -> b
edge a -> m
edge a -> r
loop q -> a
loop r -> a
"""


def test_walk_errors_after_many_repeated_cascades():
    graph = bh.parse_behavior(_LOOPED_ERRORS)
    passes = [TraceEvent("sensor", "T", True), TraceEvent("sensor", "T", False)] * 20
    assert bh.simulate(graph, passes) == [
        Action("activate", "A"), Action("deactivate", "A")] * 20
    with pytest.raises(SimulationError) as error:
        bh.simulate(graph, passes + [TraceEvent("sensor", "S", True)])
    assert str(error.value) == "ambiguous branch at step a: b and m and z are both enabled"
    with pytest.raises(SimulationError, match="^token walk does not terminate$"):
        bh.simulate(graph, passes + [TraceEvent("sensor", "U", True)])


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_parse_trace_files():
    t1 = resources.files("mfmkit").joinpath("data/traces/route-1.trace").read_text("utf-8")
    assert bh.parse_trace(t1) == _route_1()
    assert bh.parse_trace("sensor S off\norder p\n") == [
        TraceEvent("sensor", "S", False), TraceEvent("order", "p", True)]


def test_parse_trace_bad_line():
    with pytest.raises(BehaviorParseError, match="line 2"):
        bh.parse_trace("sensor S on\npress the button\n")


def test_parse_trace_of_the_demo_traces():
    for name, expected in (("route-1", _route_1()), ("route-2", _route_2())):
        text = resources.files("mfmkit").joinpath(f"data/traces/{name}.trace").read_text("utf-8")
        assert bh.parse_trace(text) == expected


_EXPECTED_TRACE_EVENT = "expected 'sensor <name> on|off' or 'order <port>'"


@pytest.mark.parametrize("text, events", [
    ("#only\n\n#\n   \n", []),
    ('sensor "a#b" on\n', [TraceEvent("sensor", '"a#b"', True)]),
    ('sensor "open#quote on\n', [TraceEvent("sensor", '"open#quote', True)]),
    ('order "p#" # c "q#"\nsensor S on\n',
     [TraceEvent("order", '"p#"'), TraceEvent("sensor", "S", True)]),
    ("sensor S on\nsensor S on\nsensor S on#\n\norder p # x\n",
     [TraceEvent("sensor", "S", True)] * 3 + [TraceEvent("order", "p")]),
])
def test_parse_trace_strips_comments_outside_quotes_only(text, events):
    assert bh.parse_trace(text) == events


@pytest.mark.parametrize("text, message", [
    ('# header\nsensor S on   # trailing\n\n   \nsensor "a#b" on\norder p # x\n'
     "   # indented\nsensor S on\nsensor T sideways # bad\n",
     "line 9: bad trace event 'sensor T sideways'"),
    ('sensor "x#y" sideways\n', "line 1: bad trace event 'sensor \"x#y\" sideways'"),
    ("sensor S on\n\n# c\norder p q # note\n", "line 4: bad trace event 'order p q'"),
    ("sensor a#b on\n", "line 1: bad trace event 'sensor a'"),
    ('sensor "a # b" on\n', "line 1: bad trace event 'sensor \"a # b\" on'"),
    ("sensor S on\npress the # button\n", "line 2: bad trace event 'press the'"),
    ('sensor S on\npress "the # button\n', "line 2: bad trace event 'press \"the # button'"),
])
def test_parse_trace_messages_keep_their_line_and_text(text, message):
    with pytest.raises(BehaviorParseError) as caught:
        bh.parse_trace(text)
    assert str(caught.value) == f"{message}; {_EXPECTED_TRACE_EVENT}"


def test_equal_trace_lines_share_one_event():
    events = bh.parse_trace("sensor S on\norder p\nsensor S on\norder p\nsensor S off\n")
    assert events[0] is events[2] and events[1] is events[3]
    assert events[4] == TraceEvent("sensor", "S", False)


@pytest.mark.parametrize("text, message", [
    ('graph g # name\n\nstep a "has # inside" # c\nstep b "x" when S sideways # c\n',
     "line 4: bad condition 'S sideways'; expected '<sensor> on|off' or 'order <port>'"),
    ('# lead\n\nstep a "idle"\nstep b "q#" when S on do activate A # act\n'
     "edge a -> b # e\nedge a -> c\n",
     "line 6: unknown edge target 'c'"),
    ('step a "unterminated # desc\n', "line 1: unterminated description string"),
    ('step a "idle" # "quoted # in comment"\nstep b "#" when S on # c\nedge a -> b\n'
     "bogus line # c\n",
     "line 4: unknown keyword 'bogus'"),
    ('step a "ok" do activate A, # x\n',
     "line 1: bad action ''; expected 'activate <name>' or 'deactivate <name>'"),
    ("graph g\ngraph h # again\n", "line 2: duplicate graph line"),
])
def test_parse_behavior_messages_keep_their_line_and_text(text, message):
    with pytest.raises(BehaviorParseError) as caught:
        bh.parse_behavior(text)
    assert str(caught.value) == message


def test_parse_behavior_keeps_a_hash_inside_quotes():
    graph = bh.parse_behavior(
        'graph g # name\n\nstep a "has # inside" # c\n'
        'step b "q#" when S on do activate A # act\nedge a -> b # e\n')
    assert graph.id == "g"
    assert [(s.id, s.description) for s in graph.steps] == [("a", "has # inside"), ("b", "q#")]
    assert graph.steps[1].actions == (Action("activate", "A"),)
    assert graph.edges == (("a", "b"),)


# ---------------------------------------------------------------------------
# Properties over random one-entry DAGs
# ---------------------------------------------------------------------------

@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=5, unique=True))
    steps = []
    for i in range(n):
        guards = tuple(
            Condition("sensor_true", f"S{j}")
            for j in range(draw(st.integers(min_value=0, max_value=2))))
        actions = tuple(
            Action("activate", f"A{j}")
            for j in range(draw(st.integers(min_value=0, max_value=2))))
        steps.append(BehaviorStep(id=f"s{i}", description=f"step {i}",
                                  guards=guards, actions=actions))
    edges = {(f"s{p}", f"s{i + 1}") for i, p in enumerate(parents)}
    edges.update((f"s{a}", f"s{b}") for a, b in extra)
    return BehaviorGraph(id="random", steps=tuple(steps), edges=tuple(sorted(edges)))


@given(_graphs())
def test_iml_is_topologically_sound(graph):
    iml = bh.to_iml(graph)
    index = {e.step_id: i for i, e in enumerate(iml.entries)}
    for entry in iml.entries:
        for pred in entry.predecessors:
            assert index[pred] < index[entry.step_id]


@given(_graphs())
def test_iml_conserves_actions(graph):
    iml = bh.to_iml(graph)
    graph_actions = sorted((a.kind, a.subject) for s in graph.steps for a in s.actions)
    iml_actions = sorted((a.kind, a.subject) for e in iml.entries for a in e.actions)
    assert graph_actions == iml_actions
