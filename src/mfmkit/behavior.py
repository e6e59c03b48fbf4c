"""Logistic behavior graphs: parsing, IML conversion, and token simulation.

A behavior graph is a guarded step graph describing one material-flow pass
through a module. The line grammar (see docs/behavior.md):

    graph <name>
    step <id> "<description>" [when <cond>, ...] [do <action>, ...]
    edge <a> -> <b>
    loop <a> -> <b>

Conditions: `<sensor> on`, `<sensor> off`, `order <port>`. Actions:
`activate <actuator>`, `deactivate <actuator>`. `edge` lines must form an
acyclic graph with exactly one entry step; a `loop` line may return a
terminal step to the entry and is kept out of the one-pass structure.

Guards live on the step they lead into: a token advances along an edge when
every guard of the target step holds in the current level state.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable
from operator import attrgetter

from .model import non_xml_char
from .records import record

ACTION_KINDS = ("activate", "deactivate")

#: Upper bound on token moves in one cascade, the moves between two trace
#: updates; beyond it the cascade is treated as nonterminating (possible
#: with loop edges and latched order requests).
_MAX_MOVES = 10_000

#: Upper bound on what one walk remembers: its transition rows and their
#: entries together, and apart from them the translations of update values
#: (about 1 MB in all); past it an update is worked out and not kept, so a
#: trace that keeps reaching new states costs no more memory.
_MAX_MEMO = 4096


class BehaviorParseError(ValueError):
    """Unreadable behavior text or trace text; message carries the line."""


class BehaviorGraphError(ValueError):
    """Structurally invalid graph (entry, cycles, unknown ids)."""


class SimulationError(ValueError):
    """Token walk failure: ambiguous branch or nonterminating cascade."""


@record
class Condition:
    """One guard of a step: a sensor level (sensor_true, sensor_false) or an order request."""

    kind: str
    subject: str


@record
class Action:
    """One action a step emits: its kind and the subject it acts on."""

    kind: str
    subject: str


@record
class BehaviorStep:
    """One step of a behavior graph, with the guards that enable it and its actions."""

    id: str
    description: str = ""
    guards: tuple[Condition, ...] = ()
    actions: tuple[Action, ...] = ()


@record
class BehaviorGraph:
    """A parsed behavior graph: its steps, forward edges and loop edges."""

    id: str = ""
    steps: tuple[BehaviorStep, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()
    loop_edges: tuple[tuple[str, str], ...] = ()


@record
class TraceEvent:
    """One trace line: a sensor level change or an order request."""

    kind: str  # "sensor" | "order"
    subject: str
    value: bool = True


@record
class ImlEntry:
    """One step of an IML document, with its guard expression and predecessors."""

    step_id: str
    description: str
    guard_expr: str
    guards: tuple[Condition, ...]
    actions: tuple[Action, ...]
    predecessors: tuple[str, ...]


@record
class ImlDocument:
    """The IML form of a behavior graph: one entry per step, in order."""

    entries: tuple[ImlEntry, ...]
    source_graph_id: str = ""
    loop_edges: tuple[tuple[str, str], ...] = ()


def format_condition(condition: Condition) -> str:
    if condition.kind == "sensor_true":
        return f"{condition.subject}=on"
    if condition.kind == "sensor_false":
        return f"{condition.subject}=off"
    return f"order({condition.subject})"


def guard_expr(guards: tuple[Condition, ...],
               term: Callable[[Condition], str] = format_condition) -> str:
    """Normalized conjunction: the sorted `term` of each guard joined by AND,
    TRUE when empty."""
    if not guards:
        return "TRUE"
    return " AND ".join(sorted(term(g) for g in guards))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_condition(text: str, lineno: int) -> Condition:
    parts = text.split()
    if len(parts) == 2 and parts[0] == "order":
        return Condition("order_request", parts[1])
    if len(parts) == 2 and parts[1] in ("on", "off"):
        kind = "sensor_true" if parts[1] == "on" else "sensor_false"
        return Condition(kind, parts[0])
    raise BehaviorParseError(
        f"line {lineno}: bad condition {text!r}; expected '<sensor> on|off' or 'order <port>'")


def _parse_action(text: str, lineno: int) -> Action:
    parts = text.split()
    if len(parts) == 2 and parts[0] in ACTION_KINDS:
        return Action(parts[0], parts[1])
    raise BehaviorParseError(
        f"line {lineno}: bad action {text!r}; expected 'activate <name>' or 'deactivate <name>'")


def _parse_step(rest: str, lineno: int) -> BehaviorStep:
    parts = rest.split(None, 1)
    if len(parts) != 2 or not parts[1].startswith('"'):
        raise BehaviorParseError(f'line {lineno}: expected: step <id> "<description>" ...')
    step_id, remainder = parts
    closing = remainder.find('"', 1)
    if closing < 0:
        raise BehaviorParseError(f"line {lineno}: unterminated description string")
    description = remainder[1:closing]
    tail = remainder[closing + 1:].strip()

    guards: tuple[Condition, ...] = ()
    actions: tuple[Action, ...] = ()
    if tail:
        do_clause = ""
        if tail.startswith("do "):
            do_clause = tail[3:]
            tail = ""
        elif " do " in tail:
            tail, do_clause = tail.split(" do ", 1)
        if tail:
            if not tail.startswith("when "):
                raise BehaviorParseError(
                    f"line {lineno}: expected 'when' or 'do' after description, got {tail!r}")
            guards = tuple(
                _parse_condition(c.strip(), lineno) for c in tail[5:].split(","))
        if do_clause:
            actions = tuple(_parse_action(a.strip(), lineno) for a in do_clause.split(","))
    return BehaviorStep(id=step_id, description=description, guards=guards, actions=actions)


def _parse_edge(rest: str, lineno: int) -> tuple[str, str]:
    parts = rest.split()
    if len(parts) != 3 or parts[1] != "->":
        raise BehaviorParseError(f"line {lineno}: expected: edge <a> -> <b>")
    return parts[0], parts[2]


def parse_behavior(text: str) -> BehaviorGraph:
    """Parse behavior text and validate the graph invariants."""
    graph_id = ""
    steps: list[BehaviorStep] = []
    step_lines: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    loops: list[tuple[str, str]] = []
    edge_lines: list[tuple[tuple[str, str], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        bad = non_xml_char(line)
        if bad:
            raise BehaviorParseError(
                f"line {lineno}: the character {bad} is not allowed, XML cannot carry it")
        line = line.strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "graph":
            if graph_id:
                raise BehaviorParseError(f"line {lineno}: duplicate graph line")
            if not rest or len(rest.split()) != 1:
                raise BehaviorParseError(f"line {lineno}: expected: graph <name>")
            graph_id = rest
        elif keyword == "step":
            step = _parse_step(rest, lineno)
            if step.id in step_lines:
                raise BehaviorParseError(
                    f"line {lineno}: duplicate step id {step.id!r} "
                    f"(first declared on line {step_lines[step.id]})")
            step_lines[step.id] = lineno
            steps.append(step)
        elif keyword == "edge":
            pair = _parse_edge(rest, lineno)
            edges.append(pair)
            edge_lines.append((pair, lineno))
        elif keyword == "loop":
            pair = _parse_edge(rest, lineno)
            loops.append(pair)
            edge_lines.append((pair, lineno))
        else:
            raise BehaviorParseError(f"line {lineno}: unknown keyword {keyword!r}")

    for (source, target), lineno in edge_lines:
        if source not in step_lines:
            raise BehaviorParseError(f"line {lineno}: unknown edge source {source!r}")
        if target not in step_lines:
            raise BehaviorParseError(f"line {lineno}: unknown edge target {target!r}")
    seen_pairs: set[tuple[str, str]] = set()
    for pair, lineno in edge_lines:
        if pair in seen_pairs:
            raise BehaviorParseError(
                f"line {lineno}: duplicate edge {pair[0]} -> {pair[1]}")
        seen_pairs.add(pair)

    graph = BehaviorGraph(
        id=graph_id, steps=tuple(steps), edges=tuple(edges), loop_edges=tuple(loops))
    validate_graph(graph)
    return graph


def validate_graph(graph: BehaviorGraph) -> list[str]:
    """Check the structural invariants; raise BehaviorGraphError otherwise.

    Returns the step ids in topological order, ties broken by step id; the
    entry step comes first.
    """
    ids = [s.id for s in graph.steps]
    indegree = dict.fromkeys(ids, 0)
    if len(indegree) != len(ids):
        raise BehaviorGraphError("duplicate step ids")
    for source, target in graph.edges + graph.loop_edges:
        if source not in indegree or target not in indegree:
            raise BehaviorGraphError(f"edge {source} -> {target} references unknown steps")

    successors: dict[str, list[str]] = {step_id: [] for step_id in ids}
    for source, target in graph.edges:
        indegree[target] += 1
        successors[source].append(target)
    entries = [step_id for step_id in ids if indegree[step_id] == 0]
    if not graph.steps:
        raise BehaviorGraphError("graph has no steps")
    if len(entries) != 1:
        raise BehaviorGraphError(
            f"expected exactly one entry step, found {len(entries)}"
            + (f" ({', '.join(entries)})" if entries else ""))

    # Kahn pass doubles as the cycle check.
    heap = entries
    order: list[str] = []
    while heap:
        current = heapq.heappop(heap)
        order.append(current)
        for nxt in successors[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(heap, nxt)
    if len(order) != len(ids):
        raise BehaviorGraphError("edges form a cycle")

    entry = order[0]
    for source, target in graph.loop_edges:
        if target != entry:
            raise BehaviorGraphError(
                f"loop {source} -> {target} must return to the entry step {entry!r}")
        if successors[source]:
            raise BehaviorGraphError(
                f"loop source {source!r} must be a terminal step")
    return order


# ---------------------------------------------------------------------------
# IML conversion
# ---------------------------------------------------------------------------

def to_iml(graph: BehaviorGraph) -> ImlDocument:
    """Flatten the graph into topological order (ties by step id).

    Entries keep the structured guards and actions next to the normalized
    guard expression, and record their predecessors, so the conversion is
    lossless.
    """
    order = validate_graph(graph)
    by_id = {step.id: step for step in graph.steps}
    predecessors: dict[str, list[str]] = {step.id: [] for step in graph.steps}
    for source, target in graph.edges:
        predecessors[target].append(source)
    entries = tuple(
        ImlEntry(
            step_id=step_id,
            description=by_id[step_id].description,
            guard_expr=guard_expr(by_id[step_id].guards),
            guards=by_id[step_id].guards,
            actions=by_id[step_id].actions,
            predecessors=tuple(sorted(predecessors[step_id])),
        )
        for step_id in order
    )
    return ImlDocument(
        entries=entries, source_graph_id=graph.id, loop_edges=graph.loop_edges)


# ---------------------------------------------------------------------------
# Token simulation
# ---------------------------------------------------------------------------

#: One outgoing transition of a compiled walk: the target step, the keys that
#: must all be live and the keys that must not be live for it to be enabled.
Arc = tuple[str, frozenset, frozenset]

#: What `enter` returns for a step: its actions, the keys it sets live and the
#: keys it clears.
Entry = tuple[Iterable[Action], Iterable[Hashable], Iterable[Hashable]]

#: One shared Action object per (kind, subject) that a walk emits, so that
#: the equal results of both simulators hold the same objects.
_ACTIONS: dict[Action, Action] = {}

#: The value of a trace event, as the walk reads it: (kind, subject, value).
event_value = attrgetter("kind", "subject", "value")


def walk(outgoing: dict[str, list[Arc]], current: str, updates: Iterable[Hashable],
         enter: Callable[[str], Entry],
         translate: Callable[[Hashable], tuple[Hashable, bool]] = lambda update: update
         ) -> list[Action]:
    """Walk one token over compiled guards: the kernel of both simulators.

    The token starts in `current`, no key live. Before the first update and
    after each update, which `translate` reads as a `(key, level)` update of
    the live keys, it cascades: while a target of its step is enabled, it
    moves there, emits the actions of `enter(target)` and sets and clears the
    keys it names. `enter` is called once per step, on its first entry. Two
    or more enabled targets at once raise SimulationError; so does one
    cascade that exceeds _MAX_MOVES moves.

    The live keys are an int bitmask over the keys that some arc reads; a key
    that no arc reads cannot enable an arc and is not kept. No arc is enabled
    when a cascade ends, so an update can only enable an arc that reads its
    key, and only while the keys that every arc of the step needs hold: the
    walk tests those arcs alone. What an update does depends on nothing but
    the walk state (step and mask) and the update's value, so each state has
    a row: for each value that changed the state there, the actions emitted
    and the next state's row. The walk follows a row as long as it holds the
    value; on a miss it translates the value (each distinct one once), works
    the update out and fills the row. The rows and their entries share
    _MAX_MEMO, and up to _MAX_MEMO translations are kept; once the rows are
    full, the walk still follows the rows it has and works out each other
    update alone, filling nothing. An error is never kept. None of this
    changes the result, only its cost.
    """
    bits: dict[Hashable, int] = {}
    for arcs in outgoing.values():
        for _target, on, off in arcs:
            for key in on | off:
                bits.setdefault(key, 1 << len(bits))

    def mask(keys: Iterable[Hashable]) -> int:
        return sum({bits[key] for key in keys if key in bits})

    # An arc is enabled when `live & care == want`: its `on` keys live and
    # its `off` keys not (want -1 if a key is in both: never). Per step: the
    # test every enabled arc passes (the keys that all arcs need live and
    # those that all need not live; -1 for a step without arcs, which no
    # mask passes), its arcs by each bit they read, its rows by mask and its
    # arcs.
    steps: dict[str, tuple[int, int, dict[int, list], dict, list]] = {}
    for step, arcs in outgoing.items():
        shared_on, shared_off, compiled, watch = -1, -1, [], {}
        for target, on, off in arcs:
            on_bits, off_bits = mask(on), mask(off)
            shared_on &= on_bits
            shared_off &= off_bits
            arc = target, on_bits | off_bits, -1 if on_bits & off_bits else on_bits
            compiled.append(arc)
            for key in on | off:
                watch.setdefault(bits[key], []).append(arc)
        steps[step] = shared_on | shared_off, shared_on, watch, {}, compiled

    # Per entered step: its actions, the bits it sets and the bits it keeps.
    entered: dict[str, tuple[tuple[Action, ...], int, int]] = {}

    def enter_once(step: str) -> tuple[tuple[Action, ...], int, int]:
        actions, on, off = enter(step)
        if len(_ACTIONS) > _MAX_MEMO:
            _ACTIONS.clear()
        actions = tuple(_ACTIONS.setdefault(action, action) for action in actions)
        entered[step] = record = (actions, mask(on), ~mask(off))
        return record

    def cascade(step: str, live: int) -> tuple[str, int, tuple[Action, ...]]:
        emitted: list[Action] = []
        moves = 0
        while True:
            shared_care, shared_want, _watch, _rows, arcs = steps[step]
            found = None
            if live & shared_care == shared_want:
                for target, care, want in arcs:
                    if live & care == want:
                        if found is not None:
                            enabled = sorted(
                                target for target, care, want in arcs if live & care == want)
                            raise SimulationError(
                                f"ambiguous branch at step {step}: "
                                f"{' and '.join(enabled)} are both enabled")
                        found = target
            if found is None:
                return step, live, tuple(emitted)
            moves += 1
            if moves > _MAX_MOVES:
                raise SimulationError("token walk does not terminate")
            step = found
            actions, sets, keeps = entered.get(step) or enter_once(step)
            live = live & keeps | sets
            emitted += actions

    room = _MAX_MEMO
    moved: dict[Hashable, tuple[int, bool]] = {}  # update -> (bit, level)
    current, live, actions = cascade(current, 0)
    emitted = list(actions)
    shared_care, shared_want, watch, rows, _arcs = steps[current]
    # A row entry: the actions emitted, then the next state's row, step and
    # mask and the fields of that step, all that a following update reads.
    row = rows[live] = {}
    for update in updates:
        if row is not None:
            hit = row.get(update)
            if hit is not None:
                actions, row, current, live, shared_care, shared_want, watch, rows = hit
                if actions:
                    emitted += actions
                continue
            actions = ()  # what the update emits unless it sets off a cascade
        move = moved.get(update)
        if move is None:
            key, level = translate(update)
            move = bits.get(key, 0), level
            if len(moved) < _MAX_MEMO:
                moved[update] = move
        bit, level = move
        changed = live | bit if level else live & ~bit
        if changed == live:
            continue
        live = changed
        if bit in watch and live & shared_care == shared_want:
            for _target, care, want in watch[bit]:
                if live & care == want:
                    current, live, actions = cascade(current, live)
                    emitted += actions
                    shared_care, shared_want, watch, rows, _arcs = steps[current]
                    break
        if room > 0:
            after = rows.get(live)
            if after is None:
                after = rows[live] = {}
                room -= 1
            row[update] = actions, after, current, live, shared_care, shared_want, watch, rows
            row = after
            room -= 1
        else:  # no room for a new row or entry: follow the rows there are
            row = rows.get(live)
    return emitted


def _guard_keys(guards: tuple[Condition, ...]) -> tuple[frozenset, frozenset]:
    # A sensor is live while on, an order while latched; both keyed (kind, subject).
    on = frozenset(
        ("sensor" if g.kind == "sensor_true" else "order", g.subject)
        for g in guards if g.kind != "sensor_false")
    return on, frozenset(("sensor", g.subject) for g in guards if g.kind == "sensor_false")


def _level(event: tuple[str, str, bool]) -> tuple[tuple[str, str], bool]:
    kind, subject, value = event
    if kind not in ("sensor", "order"):
        raise SimulationError(f"unknown event kind {kind!r}")
    return (kind, subject), value


def simulate(graph: BehaviorGraph, trace: list[TraceEvent]) -> list[Action]:
    """Walk one token through the graph, emitting actions of entered steps.

    The token starts in the entry step. After each event (and once before the
    first), it advances along an outgoing edge whenever all guards of that
    edge's target hold, repeatedly, until no target is satisfied. Two or more
    satisfied targets at once raise SimulationError; so does one such cascade
    that exceeds the move budget (possible only with loop edges). The token
    walk is `walk`; a step writes no keys, it only emits its actions.
    """
    entry = validate_graph(graph)[0]
    entries: dict[str, Entry] = {step.id: (step.actions, (), ()) for step in graph.steps}
    guards = {step.id: _guard_keys(step.guards) for step in graph.steps}
    outgoing: dict[str, list[Arc]] = {step.id: [] for step in graph.steps}
    for source, target in graph.edges + graph.loop_edges:
        outgoing[source].append((target, *guards[target]))
    return walk(outgoing, entry, map(event_value, trace), entries.__getitem__, _level)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

def parse_trace(text: str) -> list[TraceEvent]:
    """Parse a trace file: `sensor <name> on|off` / `order <port>` lines.

    Equal lines give one shared TraceEvent (it is frozen).
    """
    events: list[TraceEvent] = []
    read: dict[str, TraceEvent | None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            event = read[raw]
        except KeyError:
            event = read[raw] = _trace_event(raw, lineno)
        if event is not None:
            events.append(event)
    return events


def _trace_event(raw: str, lineno: int) -> TraceEvent | None:
    line = _strip_comment(raw).strip()
    if not line:
        return None
    parts = line.split()
    if parts[0] == "sensor" and len(parts) == 3 and parts[2] in ("on", "off"):
        return TraceEvent("sensor", parts[1], parts[2] == "on")
    if parts[0] == "order" and len(parts) == 2:
        return TraceEvent("order", parts[1])
    raise BehaviorParseError(
        f"line {lineno}: bad trace event {line!r}; "
        f"expected 'sensor <name> on|off' or 'order <port>'")


def format_event(action: Action) -> str:
    return f"{action.kind} {action.subject}"
