"""Binding IML to module i/o, PLCopen-style emission, and program simulation."""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mfmkit import behavior, sfc
from mfmkit import model as mm
from mfmkit.behavior import (
    Action,
    BehaviorGraph,
    BehaviorStep,
    Condition,
    SimulationError,
    TraceEvent,
)
from mfmkit.fixture import behavior_text, tjunction_model, trace_text
from mfmkit.sfc import (
    BindingError,
    SfcError,
    SfcProgram,
    SfcStep,
    SfcTransition,
    SfcVariable,
)
from mfmkit.xmlio import XmlError

MINI_BEHAVIOR = """\
graph mini
step a "idle"
step b "go" when S1 on, order out do activate A1
step c "halt" when S1 off do deactivate A1
edge a -> b
edge b -> c
"""


def _mini_model() -> mm.ModuleModel:
    m = mm.new_module("m", "Mini")
    m = mm.add_port(m, "out", "out", "(0,0,0)")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor", component_type="LG5"))
    m = mm.add_component(m, mm.Component(name="A1", kind="actuator", component_type="P100"))
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "i_s1", "BOOL", "input")
    m = mm.add_io_entry(m, "m/components/A1", "%Q0.0", "q_a1", "BOOL", "output")
    return m


def _mini_program() -> SfcProgram:
    iml = behavior.to_iml(behavior.parse_behavior(MINI_BEHAVIOR))
    return sfc.iml_to_sfc(iml, _mini_model())


def _fixture_program() -> SfcProgram:
    iml = behavior.to_iml(behavior.parse_behavior(behavior_text()))
    return sfc.iml_to_sfc(iml, tjunction_model())


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------

def test_conditions_are_bound_and_normalized():
    program = _mini_program()
    conditions = {(t.source, t.target): t.condition for t in program.transitions}
    assert conditions == {
        ("a", "b"): "i_s1 AND order_out",
        ("b", "c"): "NOT i_s1",
    }


def test_actions_become_assignments():
    program = _mini_program()
    actions = {s.name: s.actions for s in program.steps}
    assert actions == {"a": (), "b": ("q_a1 := TRUE",), "c": ("q_a1 := FALSE",)}


def test_entry_step_is_initial():
    program = _mini_program()
    assert [(s.name, s.initial) for s in program.steps] == [
        ("a", True), ("b", False), ("c", False)]


def test_variables_referenced_only_in_io_mapping_are_declared():
    program = _mini_program()
    assert program.variables == (
        SfcVariable("i_s1", "BOOL", "input"),
        SfcVariable("order_out", "BOOL", "input"),
        SfcVariable("q_a1", "BOOL", "output"),
    )


def test_declared_variables_are_mirrored_not_duplicated():
    m = _mini_model()
    m = mm.add_variable(m, "q_a1", "BOOL", "output")
    m = mm.add_variable(m, "order_out", "BOOL", "input")
    m = mm.add_variable(m, "i_s1", "BOOL", "input")
    iml = behavior.to_iml(behavior.parse_behavior(MINI_BEHAVIOR))
    program = sfc.iml_to_sfc(iml, m)
    assert program.variables == (
        SfcVariable("q_a1", "BOOL", "output"),
        SfcVariable("order_out", "BOOL", "input"),
        SfcVariable("i_s1", "BOOL", "input"),
    )


def test_unbound_sensor_is_reported():
    m = _mini_model()
    text = MINI_BEHAVIOR.replace("S1 on", "S9 on")
    iml = behavior.to_iml(behavior.parse_behavior(text))
    with pytest.raises(BindingError,
                       match="no io_mapping entry binds sensor 'S9' to an input variable"):
        sfc.iml_to_sfc(iml, m)


def test_unbound_actuator_is_reported():
    m = _mini_model()
    text = MINI_BEHAVIOR.replace("activate A1", "activate A9")
    iml = behavior.to_iml(behavior.parse_behavior(text))
    with pytest.raises(BindingError,
                       match="no io_mapping entry binds actuator 'A9' to an output variable"):
        sfc.iml_to_sfc(iml, m)


def test_entry_without_variable_name_is_no_binding():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor", component_type="LG5"))
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "", "BOOL", "input")
    graph = behavior.parse_behavior('step a "idle"\nstep b "go" when S1 on\nedge a -> b\n')
    with pytest.raises(BindingError, match="sensor 'S1'"):
        sfc.iml_to_sfc(behavior.to_iml(graph), m)


def test_entry_with_wrong_direction_is_no_binding():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor", component_type="LG5"))
    m = mm.add_io_entry(m, "m/components/S1", "%Q0.0", "q_s1", "BOOL", "output")
    graph = behavior.parse_behavior('step a "idle"\nstep b "go" when S1 on\nedge a -> b\n')
    with pytest.raises(BindingError, match="sensor 'S1'"):
        sfc.iml_to_sfc(behavior.to_iml(graph), m)


def test_empty_document_is_rejected():
    with pytest.raises(SfcError, match="no entry step"):
        sfc.iml_to_sfc(behavior.ImlDocument(entries=()), _mini_model())


# ---------------------------------------------------------------------------
# Fixture program structure
# ---------------------------------------------------------------------------

def test_fixture_program_shape():
    program = _fixture_program()
    assert program.name == "tjunction-route"
    assert len(program.steps) == 7
    assert len(program.transitions) == 6
    assert sfc.divergences(program) == (("1.0", 2),)
    assert [s.name for s in program.steps if s.initial] == ["1.0"]


def test_fixture_transitions_exact():
    program = _fixture_program()
    assert list(program.transitions) == [
        SfcTransition("1.0", "1.1", "i_lb_in AND order_output_1"),
        SfcTransition("1.1", "1.2", "TRUE"),
        SfcTransition("1.2", "1.3", "i_lb_out1"),
        SfcTransition("1.0", "2.1", "i_lb_in AND order_output_2"),
        SfcTransition("2.1", "2.2", "TRUE"),
        SfcTransition("2.2", "2.3", "i_lb_out2"),
    ]


def test_fixture_variables_are_the_declared_ten():
    program = _fixture_program()
    model = tjunction_model()
    assert [v.name for v in program.variables] == [v.name for v in model.control.variables]


def test_actions_are_conserved_through_the_pipeline():
    graph = behavior.parse_behavior(behavior_text())
    iml = behavior.to_iml(graph)
    program = _fixture_program()
    from_graph = sum(len(s.actions) for s in graph.steps)
    from_iml = sum(len(e.actions) for e in iml.entries)
    from_sfc = sum(len(s.actions) for s in program.steps)
    assert from_graph == from_iml == from_sfc == 8


def test_divergences_empty_for_a_chain():
    assert sfc.divergences(_mini_program()) == ()


# ---------------------------------------------------------------------------
# PLCopen-style round trip
# ---------------------------------------------------------------------------

def test_emit_parse_round_trip():
    program = _fixture_program()
    data = sfc.emit_plcopen(program)
    assert sfc.parse_plcopen(data) == program
    assert sfc.emit_plcopen(sfc.parse_plcopen(data)) == data


def test_single_step_program_round_trip():
    graph = behavior.parse_behavior('step only "wait"\n')
    program = sfc.iml_to_sfc(behavior.to_iml(graph), _mini_model())
    assert program.steps == (SfcStep("only", initial=True),)
    assert program.transitions == ()
    assert sfc.parse_plcopen(sfc.emit_plcopen(program)) == program


def test_emitted_bytes_are_deterministic():
    assert sfc.emit_plcopen(_fixture_program()) == sfc.emit_plcopen(_fixture_program())


def test_parse_rejects_wrong_root():
    data = sfc.emit_plcopen(_mini_program()).replace(b"project", b"plant")
    with pytest.raises(XmlError, match="unsupported root element"):
        sfc.parse_plcopen(data)


def test_parse_rejects_wrong_pou_type():
    data = sfc.emit_plcopen(_mini_program()).replace(
        b'pouType="program"', b'pouType="functionBlock"')
    with pytest.raises(XmlError, match="unsupported pouType 'functionBlock'"):
        sfc.parse_plcopen(data)


def test_parse_rejects_bad_initial_flag():
    data = sfc.emit_plcopen(_mini_program()).replace(b'initial="true"', b'initial="yes"')
    with pytest.raises(XmlError, match="bad initial flag 'yes'"):
        sfc.parse_plcopen(data)


def test_parse_rejects_unknown_sfc_element():
    data = sfc.emit_plcopen(_mini_program()).replace(b"<transition", b"<jump", 1)
    data = data.replace(b"/>", b"></jump>", 1) if b"<jump" in data else data
    with pytest.raises(XmlError):
        sfc.parse_plcopen(data)


def test_parse_rejects_variable_without_kind():
    data = sfc.emit_plcopen(_mini_program()).replace(b' kind="input"', b"", 1)
    with pytest.raises(XmlError, match="missing attribute 'kind'"):
        sfc.parse_plcopen(data)


def test_parse_rejects_unknown_attribute():
    data = sfc.emit_plcopen(_mini_program()).replace(
        b'<step name="a"', b'<step name="a" priority="1"')
    with pytest.raises(XmlError, match="unsupported attribute 'priority'"):
        sfc.parse_plcopen(data)


# ---------------------------------------------------------------------------
# Program simulation
# ---------------------------------------------------------------------------

def test_simulation_matches_graph_walk():
    graph = behavior.parse_behavior(MINI_BEHAVIOR)
    program = _mini_program()
    m = _mini_model()
    trace = [
        TraceEvent("sensor", "S1", True),
        TraceEvent("order", "out", True),
        TraceEvent("sensor", "S1", False),
    ]
    expected = behavior.simulate(graph, trace)
    assert sfc.simulate_sfc(program, trace, m) == expected
    assert [behavior.format_event(a) for a in expected] == [
        "activate A1", "deactivate A1"]


def test_fixture_traces_replay_identically():
    graph = behavior.parse_behavior(behavior_text())
    program = _fixture_program()
    m = tjunction_model()
    for name in ("route-1", "route-2"):
        trace = behavior.parse_trace(trace_text(name))
        assert sfc.simulate_sfc(program, trace, m) == behavior.simulate(graph, trace)


def test_ambiguous_branches_fail_alike():
    text = ('step a "idle"\n'
            'step b "left" when S1 on\n'
            'step c "right" when S1 on\n'
            "edge a -> b\n"
            "edge a -> c\n")
    graph = behavior.parse_behavior(text)
    m = _mini_model()
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    trace = [TraceEvent("sensor", "S1", True)]
    message = "ambiguous branch at step a: b and c are both enabled"
    with pytest.raises(SimulationError, match=message):
        behavior.simulate(graph, trace)
    with pytest.raises(SimulationError, match=message):
        sfc.simulate_sfc(program, trace, m)


def test_loop_edge_returns_the_token_to_the_entry():
    text = ('graph cyc\n'
            'step a "wait" when S1 off\n'
            'step b "go" when S1 on do activate A1\n'
            "edge a -> b\n"
            "loop b -> a\n")
    graph = behavior.parse_behavior(text)
    m = _mini_model()
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    loop = [t for t in program.transitions if (t.source, t.target) == ("b", "a")]
    assert [t.condition for t in loop] == ["NOT i_s1"]
    trace = [
        TraceEvent("sensor", "S1", True),
        TraceEvent("sensor", "S1", False),
        TraceEvent("sensor", "S1", True),
    ]
    expected = behavior.simulate(graph, trace)
    assert [behavior.format_event(a) for a in expected] == [
        "activate A1", "activate A1"]
    assert sfc.simulate_sfc(program, trace, m) == expected


def test_runaway_loop_is_cut_off_in_both_engines():
    text = ('step a "idle"\n'
            'step b "go" when S1 on do activate A1\n'
            "edge a -> b\n"
            "loop b -> a\n")
    graph = behavior.parse_behavior(text)
    m = _mini_model()
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    trace = [TraceEvent("sensor", "S1", True)]
    with pytest.raises(SimulationError, match="token walk does not terminate"):
        behavior.simulate(graph, trace)
    with pytest.raises(SimulationError, match="token walk does not terminate"):
        sfc.simulate_sfc(program, trace, m)


def test_a_long_looped_trace_runs_to_its_end_in_both_engines():
    # Four moves per pass (a -> b -> c -> d -> a); the budget bounds each
    # cascade, so 3000 passes (12 000 moves in all) stay within it.
    text = ('graph ring\n'
            'step a "wait" when S1 off\n'
            'step b "take" when S1 on, order out do activate A1\n'
            'step c "carry"\n'
            'step d "drop" when S1 off do deactivate A1\n'
            "edge a -> b\n"
            "edge b -> c\n"
            "edge c -> d\n"
            "loop d -> a\n")
    graph = behavior.parse_behavior(text)
    m = _mini_model()
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    passes = 3000
    trace = behavior.parse_trace(
        "order out\n" + "sensor S1 on\nsensor S1 off\n" * passes)
    expected = behavior.simulate(graph, trace)
    assert [behavior.format_event(a) for a in expected] == [
        "activate A1", "deactivate A1"] * passes
    assert sfc.simulate_sfc(program, trace, m) == expected


def test_a_cleared_order_no_longer_enables_its_branch():
    graph = behavior.parse_behavior(behavior_text())
    program = _fixture_program()
    m = tjunction_model()
    trace = [
        TraceEvent("order", "output_1"),
        TraceEvent("order", "output_1", False),
        TraceEvent("order", "output_2"),
        TraceEvent("sensor", "LB_in", True),
        TraceEvent("sensor", "LB_out2", True),
    ]
    expected = behavior.simulate(graph, trace)
    assert [behavior.format_event(a) for a in expected] == [
        "activate Conv1", "activate Conv2", "activate Switch",
        "deactivate Conv1", "deactivate Conv2", "deactivate Switch"]
    assert sfc.simulate_sfc(program, trace, m) == expected


def test_unknown_event_kind_fails_alike():
    graph = behavior.parse_behavior(MINI_BEHAVIOR)
    trace = [TraceEvent("sensor", "S1", True), TraceEvent("button", "S1")]
    message = "unknown event kind 'button'"
    with pytest.raises(SimulationError, match=message):
        behavior.simulate(graph, trace)
    with pytest.raises(SimulationError, match=message):
        sfc.simulate_sfc(_mini_program(), trace, _mini_model())


AMBIGUOUS_BEHAVIOR = ('step a "idle"\n'
                      'step b "left" when S1 on\n'
                      'step c "right" when S1 on\n'
                      "edge a -> b\n"
                      "edge a -> c\n")


def _ambiguous_program() -> SfcProgram:
    iml = behavior.to_iml(behavior.parse_behavior(AMBIGUOUS_BEHAVIOR))
    return sfc.iml_to_sfc(iml, _mini_model())


def test_an_unbound_sensor_that_no_guard_reads_fails_at_its_first_event():
    program, m = _ambiguous_program(), _mini_model()
    ghost, ambiguous = TraceEvent("sensor", "S9", True), TraceEvent("sensor", "S1", True)
    with pytest.raises(BindingError, match="binds sensor 'S9' to an input variable"):
        sfc.simulate_sfc(program, [ghost, ambiguous], m)
    with pytest.raises(SimulationError, match="ambiguous branch at step a"):
        sfc.simulate_sfc(program, [ambiguous, ghost], m)
    with pytest.raises(BindingError, match="sensor 'S9'"):
        sfc.simulate_sfc(_mini_program(), [TraceEvent("sensor", "S1", True), ghost], m)


def test_an_unknown_event_kind_fails_where_the_walk_reaches_it():
    graph = behavior.parse_behavior(AMBIGUOUS_BEHAVIOR)
    program, m = _ambiguous_program(), _mini_model()
    button, ambiguous = TraceEvent("button", "S1"), TraceEvent("sensor", "S1", True)
    for run in (lambda trace: behavior.simulate(graph, trace),
                lambda trace: sfc.simulate_sfc(program, trace, m)):
        with pytest.raises(SimulationError, match="unknown event kind 'button'"):
            run([button, ambiguous])
        with pytest.raises(SimulationError, match="ambiguous branch at step a"):
            run([ambiguous, button])


def test_simulation_requires_one_initial_step():
    program = SfcProgram(
        name="p",
        steps=(SfcStep("a"), SfcStep("b")),
        transitions=(),
        variables=())
    with pytest.raises(SfcError, match="expected exactly one initial step, found 0"):
        sfc.simulate_sfc(program, [], _mini_model())


def test_simulation_rejects_dangling_transitions():
    program = SfcProgram(
        name="p",
        steps=(SfcStep("a", initial=True),),
        transitions=(SfcTransition("a", "ghost", "TRUE"),),
        variables=())
    with pytest.raises(SfcError, match="references unknown steps"):
        sfc.simulate_sfc(program, [], _mini_model())


@pytest.mark.parametrize("action, error, message", [
    ("q_a1 = TRUE", SfcError, "unreadable step action 'q_a1 = TRUE'"),
    ("q_a1 := ON", SfcError, "unreadable step action 'q_a1 := ON'"),
    ("i_s1 := TRUE", BindingError,
     "no io_mapping entry maps variable 'i_s1' back to an actuator"),
], ids=["no assignment", "no level", "no actuator"])
def test_simulation_refuses_a_step_action_it_cannot_turn_into_an_actuator_event(
        action, error, message):
    program = _mini_program()
    program = replace(program, steps=tuple(
        replace(s, actions=(action,)) if s.name == "b" else s for s in program.steps))
    entering_b = [TraceEvent("sensor", "S1", True), TraceEvent("order", "out", True)]
    with pytest.raises(SfcError) as caught:
        sfc.simulate_sfc(program, entering_b, _mini_model())
    assert (type(caught.value), str(caught.value)) == (error, message)


# ---------------------------------------------------------------------------
# Both engines over random graphs and traces
# ---------------------------------------------------------------------------

def _three_model() -> mm.ModuleModel:
    """Binds sensors S0-S2, actuators A0-A2 and ports P0, P1."""
    m = mm.new_module("r", "Random")
    for port in ("P0", "P1"):
        m = mm.add_port(m, port, "out", "(0,0,0)")
    for j in range(3):
        m = mm.add_component(m, mm.Component(name=f"S{j}", kind="sensor", component_type="LG5"))
        m = mm.add_component(
            m, mm.Component(name=f"A{j}", kind="actuator", component_type="P100"))
        m = mm.add_io_entry(m, f"r/components/S{j}", f"%I0.{j}", f"i_s{j}", "BOOL", "input")
        m = mm.add_io_entry(m, f"r/components/A{j}", f"%Q0.{j}", f"q_a{j}", "BOOL", "output")
    return m


_CONDITIONS = st.sampled_from(
    [Condition(kind, f"S{j}") for kind in ("sensor_true", "sensor_false") for j in range(3)]
    + [Condition("order_request", f"P{k}") for k in range(2)])
_ACTIONS = st.sampled_from(
    [Action(kind, f"A{j}") for kind in ("activate", "deactivate") for j in range(3)])
_EVENTS = st.one_of(
    st.builds(TraceEvent, st.just("sensor"), st.sampled_from(["S0", "S1", "S2"]), st.booleans()),
    st.builds(TraceEvent, st.just("order"), st.sampled_from(["P0", "P1"]), st.booleans()))


@st.composite
def _looped_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=4, unique=True))
    edges = {(f"s{p}", f"s{i + 1}") for i, p in enumerate(parents)}
    edges.update((f"s{a}", f"s{b}") for a, b in extra)
    steps = tuple(
        BehaviorStep(id=f"s{i}", description=f"step {i}",
                     guards=tuple(draw(st.lists(_CONDITIONS, max_size=2))),
                     actions=tuple(draw(st.lists(_ACTIONS, max_size=2))))
        for i in range(n))
    terminals = sorted({f"s{i}" for i in range(n)} - {source for source, _ in edges})
    loops = ()
    if draw(st.booleans()):
        loops = ((draw(st.sampled_from(terminals)), "s0"),)
    return BehaviorGraph(id="random", steps=steps, edges=tuple(sorted(edges)), loop_edges=loops)


def _outcome(run):
    try:
        return "actions", run()
    except SimulationError as error:
        return "error", str(error)


@settings(deadline=None, max_examples=100)
@given(_looped_graphs(), st.lists(_EVENTS, max_size=8))
def test_both_engines_agree_on_random_graphs_and_traces(graph, trace):
    m = _three_model()
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    assert _outcome(lambda: behavior.simulate(graph, trace)) == _outcome(
        lambda: sfc.simulate_sfc(program, trace, m))
