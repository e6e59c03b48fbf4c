"""Sequential function charts: binding IML to module i/o, emit, simulate.

An IML document names components and ports; a control skeleton must speak in
declared i/o variables instead. Binding goes through the module's io_mapping:
a sensor or actuator resolves to the variable of its entry with the direction
model.SIGNAL_DIRECTIONS gives its kind, and an order request to an
`order_<port>` variable (declared on demand).

The emitted XML is a small, self-defined PLCopen-style schema
(project > pou > interface/body > sfc), canonical exactly like the module
exchange files. One tag table (TAGS) declares its elements for both
directions; parse_plcopen recovers an equal SfcProgram and rejects anything
outside the subset.
"""
from __future__ import annotations

from dataclasses import replace

from . import model as mm
from .behavior import (
    Action,
    Arc,
    Condition,
    Entry,
    ImlDocument,
    SimulationError,
    TraceEvent,
    event_value,
    walk,
)
from .records import record
from .xmlio import Tag, XmlError, every, parse_tree, serialize_tree


class SfcError(ValueError):
    """Structurally unusable IML document or program."""


class BindingError(SfcError):
    """A behavior subject has no io_mapping binding in the module model."""


@record
class SfcVariable:
    """One declared variable of an SFC program."""

    name: str
    data_type: str = ""
    kind: str = ""


@record
class SfcStep:
    """One step of an SFC program, with the actions it sets."""

    name: str
    initial: bool = False
    actions: tuple[str, ...] = ()


@record
class SfcTransition:
    """A transition between two SFC steps and its condition text."""

    source: str
    target: str
    condition: str


@record
class SfcProgram:
    """An SFC program: its steps, transitions and variables."""

    name: str
    steps: tuple[SfcStep, ...]
    transitions: tuple[SfcTransition, ...]
    variables: tuple[SfcVariable, ...]


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------

class _Binding:
    """Lookup tables from component/port names to i/o variable names.

    An io entry binds its component's variable only where the entry's
    direction is the one model.SIGNAL_DIRECTIONS gives the component's kind.
    """

    def __init__(self, model: mm.ModuleModel):
        self.model = model
        by_path = mm.component_paths(model)
        #: (component kind, component name) -> variable name
        self.signals: dict[tuple[str, str], str] = {}
        for entry in model.control.io_mapping:
            component = by_path.get(entry.component_path)
            if (entry.variable_name and component is not None
                    and mm.SIGNAL_DIRECTIONS.get(component.kind) == entry.direction):
                self.signals.setdefault((component.kind, component.name), entry.variable_name)
        self.declared = {v.name: v for v in model.control.variables}
        self.extra: dict[str, SfcVariable] = {}

    def signal(self, kind: str, name: str) -> str:
        """The variable bound to the component `name` of `kind`, declared."""
        try:
            variable = self.signals[kind, name]
        except KeyError:
            raise BindingError(
                f"no io_mapping entry binds {kind} '{name}' to an "
                f"{mm.SIGNAL_DIRECTIONS[kind]} variable") from None
        return self._declare(variable, mm.SIGNAL_DIRECTIONS[kind])

    def order(self, port: str) -> str:
        return self._declare(f"order_{port}", "input")

    def term(self, condition: Condition) -> str:
        if condition.kind == "sensor_true":
            return self.signal("sensor", condition.subject)
        if condition.kind == "sensor_false":
            return "NOT " + self.signal("sensor", condition.subject)
        return self.order(condition.subject)

    def assignment(self, action: Action) -> str:
        variable = self.signal("actuator", action.subject)
        value = "TRUE" if action.kind == "activate" else "FALSE"
        return f"{variable} := {value}"

    def _declare(self, variable: str, kind: str) -> str:
        # A variable named only in io_mapping, or an order request, needs a declaration.
        if variable not in self.declared and variable not in self.extra:
            self.extra[variable] = SfcVariable(name=variable, data_type="BOOL", kind=kind)
        return variable

    def variables(self) -> tuple[SfcVariable, ...]:
        mirrored = tuple(
            SfcVariable(name=v.name, data_type=v.data_type, kind=v.scope)
            for v in self.model.control.variables)
        return mirrored + tuple(self.extra[k] for k in sorted(self.extra))


def _condition_expr(guards: tuple[Condition, ...], binding: _Binding) -> str:
    if not guards:
        return "TRUE"
    return " AND ".join(sorted(binding.term(g) for g in guards))


def iml_to_sfc(iml: ImlDocument, model: mm.ModuleModel) -> SfcProgram:
    """Bind an IML document against a module model.

    One step per entry (the entry step marked initial), one transition per
    recorded edge carrying the target step's bound guard. Subjects that no
    io_mapping entry covers raise BindingError naming the missing binding.
    """
    if not iml.entries:
        raise SfcError("no entry step")
    binding = _Binding(model)
    conditions = {e.step_id: _condition_expr(e.guards, binding) for e in iml.entries}
    steps = tuple(
        SfcStep(
            name=entry.step_id,
            initial=not entry.predecessors,
            actions=tuple(binding.assignment(a) for a in entry.actions))
        for entry in iml.entries)
    transitions = [
        SfcTransition(source=pred, target=entry.step_id, condition=conditions[entry.step_id])
        for entry in iml.entries
        for pred in entry.predecessors
    ]
    transitions.extend(
        SfcTransition(source=source, target=target, condition=conditions[target])
        for source, target in iml.loop_edges)
    return SfcProgram(
        name=iml.source_graph_id,
        steps=steps,
        transitions=tuple(transitions),
        variables=binding.variables())


def divergences(program: SfcProgram) -> tuple[tuple[str, int], ...]:
    """(step name, branch count) for steps with two or more outgoing transitions."""
    counts: dict[str, int] = {}
    for transition in program.transitions:
        counts[transition.source] = counts.get(transition.source, 0) + 1
    return tuple(sorted((s, n) for s, n in counts.items() if n >= 2))


# ---------------------------------------------------------------------------
# PLCopen-style XML
# ---------------------------------------------------------------------------

def _one(kids: dict, tag: str, parent: str):
    found = kids.get(tag, ())
    if len(found) != 1:
        raise XmlError(f"expected one <{tag}> in <{parent}>")
    return found[0]


def _pou(attrs, kids, text) -> SfcProgram:
    if attrs["pouType"] != "program":
        raise XmlError(f"unsupported pouType {attrs['pouType']!r}")
    variables = _one(kids, "interface", "pou")
    steps, transitions = _one(kids, "body", "pou")
    return SfcProgram(attrs["name"], steps, transitions, variables)


def _step(attrs, kids, text) -> SfcStep:
    initial = attrs.get("initial")
    if initial is not None and initial != "true":
        raise XmlError(f"bad initial flag {initial!r}")
    return SfcStep(attrs["name"], initial is not None, every(kids, "action"))


#: Every element of the PLCopen-style files, for the reader and the writer
#: alike. The program takes the project's name; the pou repeats it, and the
#: reader ignores the pou's. The values below <pou> are the variables
#: (interface) and the pair of steps and transitions (body, sfc).
TAGS: dict[str, Tag] = {
    "project": Tag(
        ("name",), (), ("pou",),
        lambda attrs, kids, text: replace(_one(kids, "pou", "project"), name=attrs["name"]),
        lambda program: ((program.name,), ((program,),), "")),
    "pou": Tag(
        ("name", "pouType"), (), ("interface", "body"), _pou,
        lambda program: ((program.name, "program"), (
            (program.variables,), ((program.steps, program.transitions),)), "")),
    "interface": Tag(
        (), (), ("variable",), lambda attrs, kids, text: every(kids, "variable"),
        lambda variables: ((), (variables,), "")),
    "variable": Tag(
        ("name", "dataType", "kind"), (), (),
        lambda attrs, kids, text: SfcVariable(attrs["name"], attrs["dataType"], attrs["kind"]),
        lambda variable: ((variable.name, variable.data_type, variable.kind), (), "")),
    "body": Tag(
        (), (), ("sfc",), lambda attrs, kids, text: _one(kids, "sfc", "body"),
        lambda chart: ((), ((chart,),), "")),
    "sfc": Tag(
        (), (), ("step", "transition"),
        lambda attrs, kids, text: (every(kids, "step"), every(kids, "transition")),
        lambda chart: ((), chart, "")),
    "step": Tag(
        ("name",), ("initial",), ("action",), _step,
        lambda step: ((step.name, "true" if step.initial else ""), (step.actions,), "")),
    "action": Tag(
        (), (), (), lambda attrs, kids, text: text, lambda text: ((), (), text), text=True),
    "transition": Tag(
        ("source", "target", "condition"), (), (),
        lambda attrs, kids, text: SfcTransition(
            attrs["source"], attrs["target"], attrs["condition"]),
        lambda transition: (
            (transition.source, transition.target, transition.condition), (), "")),
}


def emit_plcopen(program: SfcProgram) -> bytes:
    """Render the program in canonical form (deterministic, byte-stable)."""
    return serialize_tree(program, "project", TAGS)


def parse_plcopen(data: bytes) -> SfcProgram:
    """Parse bytes from emit_plcopen back into an equal SfcProgram.

    Anything outside the subset emit_plcopen writes raises XmlError with
    the source line/column.
    """
    return parse_tree(data, "project", TAGS)


# ---------------------------------------------------------------------------
# Program simulation
# ---------------------------------------------------------------------------

def _condition_keys(condition: str) -> tuple[frozenset, frozenset]:
    # A variable is live while TRUE; only the exact condition "TRUE" is empty.
    if condition == "TRUE":
        return frozenset(), frozenset()
    terms = condition.split(" AND ")
    return (frozenset(t for t in terms if not t.startswith("NOT ")),
            frozenset(t[4:] for t in terms if t.startswith("NOT ")))


def simulate_sfc(
    program: SfcProgram, trace: list[TraceEvent], model: mm.ModuleModel
) -> list[Action]:
    """Run the bound program over a trace, reporting actuator events.

    Events are translated into variable writes through the model's io_mapping
    (the same binding iml_to_sfc used); executed step actions write their
    variables and are translated back into activate/deactivate events. The
    token walk is behavior.walk, the one behavior.simulate runs: level
    state, cascading advance, ambiguity and the per-cascade move budget as
    errors. A step's actions are read on its first entry into the events it
    emits and the variables it sets TRUE and FALSE, which the walk applies on
    every entry. Each traced subject is bound on its first event, also one
    that no transition reads, so an error in either is raised where the walk
    first reaches it.
    """
    binding = _Binding(model)
    variable_to_actuator = {
        var: name for (kind, name), var in binding.signals.items() if kind == "actuator"}

    initial = [s for s in program.steps if s.initial]
    if len(initial) != 1:
        raise SfcError(f"expected exactly one initial step, found {len(initial)}")
    by_name = {s.name: s for s in program.steps}
    outgoing: dict[str, list[Arc]] = {s.name: [] for s in program.steps}
    for transition in program.transitions:
        if transition.source not in by_name or transition.target not in by_name:
            raise SfcError(
                f"transition {transition.source} -> {transition.target} "
                f"references unknown steps")
        outgoing[transition.source].append(
            (transition.target, *_condition_keys(transition.condition)))

    def enter(name: str) -> Entry:
        # A step's last write to a variable wins.
        levels: dict[str, bool] = {}
        actions = []
        for text in by_name[name].actions:
            variable, _sep, value = text.partition(" := ")
            if _sep == "" or value not in ("TRUE", "FALSE"):
                raise SfcError(f"unreadable step action {text!r}")
            levels[variable] = value == "TRUE"
            actuator = variable_to_actuator.get(variable)
            if actuator is None:
                raise BindingError(
                    f"no io_mapping entry maps variable '{variable}' back to an actuator")
            actions.append(Action(
                "activate" if value == "TRUE" else "deactivate", actuator))
        return (actions, [v for v, on in levels.items() if on],
                [v for v, on in levels.items() if not on])

    def level(event: tuple[str, str, bool]) -> tuple[str, bool]:
        kind, subject, value = event
        if kind == "sensor":
            return binding.signal("sensor", subject), value
        if kind == "order":
            return binding.order(subject), value
        raise SimulationError(f"unknown event kind {kind!r}")

    return walk(outgoing, initial[0].name, map(event_value, trace), enter, level)
