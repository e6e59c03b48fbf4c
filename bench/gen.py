"""Seeded inputs for the mfmkit benchmark, with the outputs they must produce.

Every input is written as bytes by this module alone, following the file
formats in docs/ (canonical CAEX layout, behavior and trace text, the
six-column CSV table). Nothing here calls mfmkit, so the expectations that
ride along with each input (exit codes, per-rule finding counts, table rows,
event lists) come from what the generator planted, never from the program.

The models scale `tests/generators.py` up to n components: components
alternate sensor and actuator, each one wired through an io_mapping entry,
a declared control variable and a cross reference, and free-text cells
draw from the same awkward values so escaping stays on the measured path.
A seeded minority of inputs carries realistic faults: illegal roles,
dangling cross references, withheld parameters and malformed table cells.
"""
from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

WORDS = ("belt", "gate", "lift", "turn", "scan", "push", "drop", "feed")

# The awkward values of tests/generators.py: commas, quotes, newlines,
# non-ASCII, padding and markup characters.
NASTY_VALUES = (
    "",
    "plain",
    "with space",
    "comma, separated",
    'quoted "value"',
    "newline\nvalue",
    "semi;colon",
    "Überhöhe 5µm",
    "  padded  ",
    "a,b\nc\"d\"e",
    "<tag> & entity",
)
FILLED_VALUES = NASTY_VALUES[1:]
UNITS = ("", "mm", "kg", "1/h", "m/s²")
DATA_TYPES = ("BOOL", "INT", "REAL", "STRING")
CATEGORIES = ("material_flow", "handling", "waiting")
DISCIPLINES = ("mechanical", "electrical", "software", "logistics", "process")
STAGES = ("process_planning", "logistics_planning", "electrical_planning",
          "mechanical_eng", "electrical_eng", "control_hmi_eng")

BASE_ROLE = "AutomationMLBaseRoleClassLib"
IDENT_ROLE = "DiscManufacturingEquipment"
FUNCTION_ROLE = "AutomationMLExtendedRoleClassLib"
CONTROL_ROLE = "ControlEquipment"
COMPONENT_ROLE = "Resource"      # Component class: not in the default rule table
ILLEGAL_ROLE = "Resource"        # not permitted on Function.LogisticFunction
GENERAL_IFACE = "COLLADAInterface"
FUNCTION_IFACE = "AttachmentInterface"
MALFORMED_TRIPLE = "not-a-triple"

# Default ownership map (docs/cli.md): longest path prefix wins.
OWNERSHIP = (
    ("general", "logistics"), ("status", "software"), ("function", "logistics"),
    ("interface", "logistics"), ("control", "software"),
    ("control/io_mapping", "electrical"), ("control/platform", "electrical"),
    ("components", "mechanical"),
)


# ---------------------------------------------------------------------------
# Model description
# ---------------------------------------------------------------------------

@dataclass
class Element:
    """One InternalElement: parameters as (name, value, unit) rows."""

    name: str
    params: list = field(default_factory=list)
    roles: list = field(default_factory=list)
    ifaces: list = field(default_factory=list)   # (name, class, refURI)
    children: list = field(default_factory=list)
    keep_empty: bool = False                     # general's open attribute set


@dataclass
class Planted:
    """What the generator put into one model file."""

    mid: str
    n: int
    data: bytes
    params: dict            # (element_path, name) -> (value, unit), non-empty only
    documents: dict         # element_path -> (doc id, server_path), first in order
    cross_refs: list        # (source, target)
    illegal_roles: int = 0
    dangling: int = 0
    withheld: list = field(default_factory=list)   # (element_path, name, value, unit)
    unreadable: list = field(default_factory=list)  # cells written as MALFORMED_TRIPLE
    sensors: list = field(default_factory=list)
    actuators: list = field(default_factory=list)

    @property
    def open_cells(self) -> list:
        """Cells the reader must end up without: withheld plus unreadable, sorted."""
        return sorted(self.withheld + self.unreadable)

    def validate_expect(self) -> tuple[int, dict]:
        counts = {}
        if self.illegal_roles:
            counts["illegal_role"] = self.illegal_roles
        if self.dangling:
            counts["dangling-target"] = self.dangling
        return (1 if counts else 0), counts

    def link_expect(self) -> tuple[int, dict]:
        counts = {"dangling-target": self.dangling} if self.dangling else {}
        return (1 if counts else 0), counts

    def complete_expect(self) -> tuple[int, dict]:
        counts = {"missing-parameter": len(self.open_cells)} if self.open_cells else {}
        return (1 if counts else 0), counts

    def report_expect(self) -> tuple[int, dict]:
        # docs/cli.md: a dangling endpoint is reported as unownable-endpoint, exit 1.
        counts = {"unownable-endpoint": 1} if self.dangling else {}
        return (1 if counts else 0), counts

    def dependency_cells(self) -> dict:
        cells: dict = {}
        for source, target in self.cross_refs:
            key = (owner(self.mid, source), owner(self.mid, target))
            cells[key] = cells.get(key, 0) + 1
        return cells

    def workload(self) -> dict:
        work = {d: 0 for d in DISCIPLINES}
        for path, _name in self.params:
            work[owner(self.mid, path)] += 1
        return work


def owner(mid: str, path: str) -> str:
    rest = path[len(mid) + 1:]
    best = ""
    found = ""
    for selector, discipline in OWNERSHIP:
        if (rest == selector or rest.startswith(selector + "/")) and len(selector) > len(best):
            best, found = selector, discipline
    return found


def _triple(rng: random.Random, positive: bool = False) -> str:
    low = 1 if positive else -500
    x, y, z = (rng.randint(low, 3000) for _ in range(3))
    return f"({x},{y},{z})"


def _filled(rng: random.Random) -> str:
    return rng.choice(FILLED_VALUES)


@dataclass
class Faults:
    illegal_roles: int = 0
    dangling: int = 0
    withheld: int = 0
    unreadable: int = 0


def build_model(seed: int, n: int, faults: Faults, tag: str = "m") -> Planted:
    """A closed module with n components, plus the planted faults."""
    rng = random.Random(f"{tag}-{seed}-{n}")
    mid = f"{tag}{seed}-n{n}"
    p = f"{mid}/"
    lfs = max(2, n // 40)
    cfs = max(1, n // 200)
    rts = max(1, n // 100)
    n_ports = max(2, n // 100)

    root = Element(mid, params=[("name", f"Module {seed} {_filled(rng)}", "")],
                   roles=[BASE_ROLE])
    general = Element("general", keep_empty=True,
                      params=[("main_dimensions", _triple(rng, positive=True), "mm")],
                      ifaces=[("collada", GENERAL_IFACE, f"srv://layout/{mid}.dae")])
    for i in range(3):
        general.params.append(
            (f"attr{i}_{rng.choice(WORDS)}", rng.choice(NASTY_VALUES), rng.choice(UNITS)))
    general.children.append(Element(
        "identification", roles=[IDENT_ROLE],
        params=[("name", _filled(rng), ""), ("identifier", f"ID-{seed}-{n}", ""),
                ("module_type", rng.choice(("junction", "corner", "lift")), "")]))
    root.children.append(general)

    runtime = Element("runtime_variables")
    for i in range(rts):
        runtime.children.append(Element(f"rt{i}_{rng.choice(WORDS)}", params=[
            ("data_type", rng.choice(DATA_TYPES), ""), ("unit", rng.choice(UNITS[1:]), ""),
            ("description", _filled(rng), "")]))
    root.children.append(Element("status", children=[runtime]))

    doc_ids = {"behavior": f"behavior-{mid}", "control": f"control-{mid}",
               "layout": f"layout-{mid}", "wiring": f"wiring-{mid}"}
    functions = Element("logistic_functions")
    lf_names = []
    for i in range(lfs):
        name = f"lf{i}_{rng.choice(WORDS)}"
        lf_names.append(name)
        functions.children.append(Element(
            name, roles=[FUNCTION_ROLE],
            params=[("category", rng.choice(CATEGORIES), ""),
                    ("behavior_ref", doc_ids["behavior"], "")],
            ifaces=([("attachment", FUNCTION_IFACE, f"srv://bhv/{mid}/{i}")]
                    if i % 3 == 0 else [])))
    illegal = rng.sample(range(lfs), faults.illegal_roles)
    for i in illegal:
        functions.children[i].roles = [ILLEGAL_ROLE]
    ports = [f"port{i}_{rng.choice(WORDS)}" for i in range(n_ports)]
    routes = Element("routes")
    for i in range(n_ports - 1):
        routes.children.append(Element(str(i), params=[
            ("from_port", ports[i], ""), ("to_port", ports[i + 1], ""),
            ("priority", str(rng.randint(0, 3)), "")]))
    root.children.append(Element("function", children=[functions, routes]))

    port_list = Element("ports")
    for i, port in enumerate(ports):
        port_list.children.append(Element(port, params=[
            ("direction", "in" if i % 2 == 0 else "out", ""),
            ("position", _triple(rng), "mm")]))
    spaces = Element("interaction_spaces", children=[Element("zone0_transfer", params=[
        ("min_corner", "(0,0,0)", "mm"), ("max_corner", _triple(rng, positive=True), "mm")])])
    root.children.append(Element("interface", children=[port_list, spaces]))

    components = []
    sensors, actuators = [], []
    for i in range(n):
        name = f"c{i}_{rng.choice(WORDS)}"
        if i % 10 == 9:
            kind = "conveyor"
        elif i % 2 == 0:
            kind = "sensor"
            sensors.append(name)
        else:
            kind = "actuator"
            actuators.append(name)
        params = [("kind", kind, ""), ("component_type", _filled(rng), ""),
                  ("position", _triple(rng), "mm"),
                  ("main_dimensions", _triple(rng, positive=True), "mm")]
        if kind == "actuator":
            params.append(("latency", rng.choice(("0", "0.25", "1.5")), "s"))
        components.append(Element(name, params=params, roles=[COMPONENT_ROLE]))

    control_functions = Element("control_functions")
    cf_names = []
    for i in range(cfs):
        name = f"cf{i}_{rng.choice(WORDS)}"
        cf_names.append(name)
        control_functions.children.append(Element(name, roles=[CONTROL_ROLE], params=[
            ("language_tag", "SFC", ""), ("body_ref", doc_ids["control"], "")]))
    variables = Element("variables")
    io_mapping = Element("io_mapping")
    wired = []
    for index, (name, kind) in enumerate(
            [(c.name, c.params[0][1]) for c in components if c.params[0][1] != "conveyor"]):
        sensor = kind == "sensor"
        variable = ("i_" if sensor else "q_") + name
        variables.children.append(Element(variable, params=[
            ("data_type", "BOOL", ""), ("scope", "input" if sensor else "output", "")]))
        io_mapping.children.append(Element(str(index), params=[
            ("component_path", f"{p}components/{name}", ""),
            ("logical_address", f"%{'I' if sensor else 'Q'}{index // 8}.{index % 8}", ""),
            ("variable_name", variable, ""), ("data_type", "BOOL", ""),
            ("direction", "input" if sensor else "output", "")]))
        wired.append((name, index))
    # Behavior subjects `order <port>` bind to order_<port> input variables.
    for port in ports:
        variables.children.append(Element(f"order_{port}", params=[
            ("data_type", "BOOL", ""), ("scope", "input", "")]))
    platform = Element("platform", params=[
        ("controller_type", _filled(rng), ""), ("bus_coupler_type", _filled(rng), "")])
    root.children.append(Element(
        "control", children=[control_functions, variables, io_mapping, platform]))
    root.children.append(Element("components", children=components))

    anchors = ([f"{p}general", f"{p}control/platform"]
               + [f"{p}function/logistic_functions/{f}" for f in lf_names]
               + [f"{p}control/control_functions/{f}" for f in cf_names])
    documents = Element("documents")
    doc_specs = [
        (doc_ids["behavior"], "logistics", "logistics_planning",
         f"{p}function/logistic_functions/{lf_names[0]}"),
        (doc_ids["control"], "software", "control_hmi_eng",
         f"{p}control/control_functions/{cf_names[0]}"),
        (doc_ids["layout"], "mechanical", "mechanical_eng", f"{p}general"),
        (doc_ids["wiring"], "electrical", "electrical_eng", f"{p}control/platform"),
    ]
    for i in range(max(0, n // 100)):
        doc_specs.append((f"doc{i}-{mid}", rng.choice(DISCIPLINES), rng.choice(STAGES),
                          rng.choice(anchors)))
    doc_by_element: dict = {}
    for doc_id, discipline, stage, assigned in doc_specs:
        server = f"srv://docs/{doc_id}"
        documents.children.append(Element(doc_id, params=[
            ("discipline", discipline, ""), ("stage", stage, ""),
            ("name", _filled(rng), ""), ("server_path", server, ""),
            ("assigned_element", assigned, "")]))
        doc_by_element.setdefault(assigned, (doc_id, server))
    root.children.append(documents)

    links = []
    for name, index in wired:
        links.append(("wired-as", f"{p}components/{name}", f"{p}control/io_mapping/{index}"))
    for i, name in enumerate(sensors[: len(sensors) // 4]):
        links.append(("guard-uses", f"{p}components/{name}/position",
                      f"{p}control/control_functions/{cf_names[i % cfs]}"))
    for i, lf in enumerate(lf_names):
        links.append(("realized-by", f"{p}function/logistic_functions/{lf}",
                      f"{p}control/control_functions/{cf_names[i % cfs]}"))
    for i, port in enumerate(ports if sensors else ()):
        links.append(("sensed-by", f"{p}interface/ports/{port}",
                      f"{p}components/{sensors[i % len(sensors)]}"))
    dangling_at = sorted(rng.sample(range(len(links)), faults.dangling))
    for k, i in enumerate(dangling_at):
        kind, source, _target = links[i]
        links[i] = (kind, source, f"{p}components/Nope{k}")

    # Withheld cells: components whose position was never filled in. Only
    # sensors without a guard-uses parameter reference are eligible, so the
    # withheld value cannot interact with any link.
    # Unreadable cells: a position that is not a triple, which the tolerant
    # reader must drop and report.
    eligible = sensors[len(sensors) // 4:]
    picked = rng.sample(eligible, min(faults.withheld + faults.unreadable, len(eligible)))
    withheld, unreadable = [], []
    by_name = {c.name: c for c in components}
    for k, name in enumerate(picked):
        component = by_name[name]
        for row, (pname, value, unit) in enumerate(component.params):
            if pname == "position":
                kept = "" if k < faults.withheld else MALFORMED_TRIPLE
                component.params[row] = (pname, kept, unit)
                cell = (f"{p}components/{name}", pname, value, unit)
                (withheld if kept == "" else unreadable).append(cell)

    params: dict = {}
    _collect(root, mid, params)
    for path, pname, _value, _unit in unreadable:
        del params[(path, pname)]
    data = render(root, links)
    return Planted(
        mid=mid, n=n, data=data, params=params, documents=doc_by_element,
        cross_refs=[(a, b) for _k, a, b in links], illegal_roles=len(illegal),
        dangling=len(dangling_at), withheld=withheld, unreadable=unreadable, sensors=sensors,
        actuators=actuators)


def _collect(root: Element, mid: str, params: dict) -> None:
    """Non-empty scalar parameters of every element below the root, documents excluded."""
    def walk(element: Element, path: str) -> None:
        for name, value, unit in element.params:
            if value:
                params[(path, name)] = (value, unit)
        for child in element.children:
            walk(child, f"{path}/{child.name}")

    for child in root.children:
        if child.name != "documents":
            walk(child, f"{mid}/{child.name}")


# ---------------------------------------------------------------------------
# CAEX rendering (docs/format.md, canonical layout)
# ---------------------------------------------------------------------------

def _attr(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    value = value.replace('"', "&quot;")
    return value.replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#9;")


def _text(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return value.replace("\r", "&#13;")


def _render_element(element: Element, depth: int, out: list) -> None:
    pad = "  " * depth
    body: list = []
    inner = pad + "  "
    for name, value, unit in element.params:
        if not value and not element.keep_empty:
            continue
        head = f'Attribute Name="{_attr(name)}" DataType="xs:string"'
        if unit:
            head += f' Unit="{_attr(unit)}"'
        if value:
            body.append(f"{inner}<{head}>")
            body.append(f"{inner}  <Value>{_text(value)}</Value>")
            body.append(f"{inner}</Attribute>")
        else:
            body.append(f"{inner}<{head}/>")
    for name, cls, uri in element.ifaces:
        body.append(f'{inner}<ExternalInterface Name="{_attr(name)}" '
                    f'RefBaseClassPath="{_attr(cls)}">')
        body.append(f'{inner}  <Attribute Name="refURI" DataType="xs:string">')
        body.append(f"{inner}    <Value>{_text(uri)}</Value>")
        body.append(f"{inner}  </Attribute>")
        body.append(f"{inner}</ExternalInterface>")
    for role in element.roles:
        body.append(f'{inner}<RoleRequirements RefBaseRoleClassPath="{_attr(role)}"/>')
    children = [c for c in element.children if c.params or c.children or c.roles]
    head = f'InternalElement Name="{_attr(element.name)}"'
    if not body and not children:
        out.append(f"{pad}<{head}/>")
        return
    out.append(f"{pad}<{head}>")
    out.extend(body)
    for child in children:
        _render_element(child, depth + 1, out)
    out.append(f"{pad}</InternalElement>")


def _annotations(element: Element, roles: set, ifaces: set) -> None:
    roles.update(element.roles)
    ifaces.update(cls for _n, cls, _u in element.ifaces)
    for child in element.children:
        _annotations(child, roles, ifaces)


def render(root: Element, links: list) -> bytes:
    roles: set = set()
    ifaces: set = set()
    _annotations(root, roles, ifaces)
    out = ['<?xml version="1.0" encoding="utf-8"?>', "<CAEXFile>"]
    out += [f'  <RoleClassLibRef Name="{_attr(r)}"/>' for r in sorted(roles)]
    out += [f'  <InterfaceClassLibRef Name="{_attr(i)}"/>' for i in sorted(ifaces)]
    out.append('  <InstanceHierarchy Name="modules">')
    _render_element(root, 2, out)
    out.append("  </InstanceHierarchy>")
    for kind, source, target in links:
        out.append(f'  <InternalLink Name="{_attr(kind)}" RefPartnerSideA="{_attr(source)}" '
                   f'RefPartnerSideB="{_attr(target)}"/>')
    out.append("</CAEXFile>")
    return ("\n".join(out) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Parameter tables (docs/table-format.md)
# ---------------------------------------------------------------------------

HEADER = ("element_path", "parameter_name", "value", "unit", "document_name", "document_path")


def table_rows(data: bytes) -> list:
    """Rows of a table file below the header, or raise ValueError."""
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not records or tuple(records[0]) != HEADER:
        raise ValueError("wrong table header")
    return [tuple(r) for r in records[1:]]


def write_table(rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def expected_dump(planted: Planted, params: dict | None = None) -> list:
    """The plain export-table rows for the planted parameters, sorted."""
    params = planted.params if params is None else params
    rows = []
    for (path, name), (value, unit) in params.items():
        doc_id, server = planted.documents.get(path, ("", ""))
        rows.append((path, name, value, unit, doc_id, server))
    return sorted(rows, key=lambda r: (r[0], r[1]))


def expected_request(planted: Planted) -> list:
    rows = []
    for path, name, _value, unit in planted.open_cells:
        doc_id, server = planted.documents.get(path, ("", ""))
        rows.append((path, name, "", unit, doc_id, server))
    return sorted(rows, key=lambda r: (r[0], r[1]))


def fill_request(planted: Planted, rng: random.Random, malformed: int) -> tuple[bytes, dict, int]:
    """The request filled in with the true values, `malformed` cells broken.

    Returns the table bytes, the parameters the merged model must then hold,
    and the number of broken cells (each must be reported as invalid-value).
    """
    withheld = planted.open_cells
    fillable = [i for i, cell in enumerate(withheld) if cell in planted.withheld]
    broken = set(rng.sample(fillable, min(malformed, len(fillable))))
    rows = []
    merged = dict(planted.params)
    for i, (path, name, value, unit) in enumerate(withheld):
        doc_id, server = planted.documents.get(path, ("", ""))
        if i in broken:
            rows.append((path, name, MALFORMED_TRIPLE, unit, doc_id, server))
        else:
            rows.append((path, name, value, unit, doc_id, server))
            merged[(path, name)] = (value, unit)
    return write_table(rows), merged, len(broken)


# ---------------------------------------------------------------------------
# Behavior graphs and traces (docs/behavior.md)
# ---------------------------------------------------------------------------

@dataclass
class Behavior:
    text: str
    steps: int
    transitions: int
    branches: int
    entry_sensor: str
    selectors: list
    exits: list         # per branch: (exit sensor, actuators)


def build_behavior(planted: Planted, rng: random.Random, branches: int) -> Behavior:
    """A looped routing graph with `branches` arms, bound to the model's i/o.

    Arm b is chosen by the binary code of b on the selector sensors, so
    the arms are mutually exclusive under every state; each arm activates
    its actuators, waits for its exit sensor, deactivates them and loops
    back to the entry step.
    """
    bits = max(1, (branches - 1).bit_length())
    sensors = list(planted.sensors)
    rng.shuffle(sensors)
    entry_sensor, selectors = sensors[0], sensors[1:1 + bits]
    exit_sensors = sensors[1 + bits:1 + bits + branches]
    actuators = list(planted.actuators)
    rng.shuffle(actuators)
    lines = [f"graph routing-{planted.mid}", "", 'step idle "wait for a transport unit"']
    edges = []
    exits = []
    for b in range(branches):
        guard = [f"{entry_sensor} on"] + [
            f"{s} {'on' if b >> j & 1 else 'off'}" for j, s in enumerate(selectors)]
        acts = actuators[2 * b:2 * b + rng.randint(1, 2)]
        exits.append((exit_sensors[b], acts))
        desc = rng.choice(FILLED_VALUES).replace('"', "'").replace("\n", " ").replace("#", "")
        lines.append(f'step a{b}.1 "arm {b} selected: {desc}" when {", ".join(guard)}')
        lines.append(f'step a{b}.2 "convey along arm {b}" do '
                     + ", ".join(f"activate {a}" for a in acts))
        lines.append(f'step a{b}.3 "arm {b} cleared" when {exit_sensors[b]} on do '
                     + ", ".join(f"deactivate {a}" for a in acts))
        edges += [f"edge idle -> a{b}.1", f"edge a{b}.1 -> a{b}.2", f"edge a{b}.2 -> a{b}.3",
                  f"loop a{b}.3 -> idle"]
    text = "\n".join(lines + [""] + edges) + "\n"
    return Behavior(text=text, steps=1 + 3 * branches, transitions=4 * branches,
                    branches=branches, entry_sensor=entry_sensor, selectors=selectors,
                    exits=exits)


def build_trace(behavior: Behavior, rng: random.Random, passes: int) -> tuple[str, list, int]:
    """`passes` transport units routed through random arms.

    Returns the trace text, the event lines the walk must emit, and the
    number of trace events.
    """
    lines = ["# seeded routing trace"]
    expected = []
    levels = {s: False for s in behavior.selectors}
    for _ in range(passes):
        b = rng.randrange(behavior.branches)
        for j, sensor in enumerate(behavior.selectors):
            want = bool(b >> j & 1)
            if levels[sensor] != want:
                levels[sensor] = want
                lines.append(f"sensor {sensor} {'on' if want else 'off'}")
        exit_sensor, acts = behavior.exits[b]
        lines += [f"sensor {behavior.entry_sensor} on", f"sensor {behavior.entry_sensor} off",
                  f"sensor {exit_sensor} on", f"sensor {exit_sensor} off"]
        expected += [f"activate {a}" for a in acts] + [f"deactivate {a}" for a in acts]
    return "\n".join(lines) + "\n", expected, len(lines) - 1
