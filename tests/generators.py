"""Seeded random module models for property tests.

Every model built here is closed: all references resolve, io directions
match component kinds, and document ids referenced by functions exist.
Values are deliberately awkward (commas, quotes, newlines, non-ASCII) to
exercise the serializers; names stay within the path segment grammar.
"""
from __future__ import annotations

import random

from mfmkit import model as mm

_WORDS = ("belt", "gate", "lift", "turn", "scan", "push", "drop", "feed")

_NASTY_VALUES = (
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

_UNITS = ("", "mm", "kg", "1/h", "m/s²")
_DATA_TYPES = ("BOOL", "INT", "REAL", "STRING")


def _name(rng: random.Random, prefix: str, index: int) -> str:
    return f"{prefix}{index}_{rng.choice(_WORDS)}"


def _value(rng: random.Random) -> str:
    return rng.choice(_NASTY_VALUES)


def _triple(rng: random.Random, positive: bool = False) -> str:
    low = 1 if positive else -500
    x, y, z = (rng.randint(low, 3000) for _ in range(3))
    return f"({x},{y},{z})"


def _space(rng: random.Random) -> tuple[str, str]:
    x, y, z = (rng.randint(-100, 1000) for _ in range(3))
    dx, dy, dz = (rng.randint(0, 500) for _ in range(3))
    return f"({x},{y},{z})", f"({x + dx},{y + dy},{z + dz})"


def random_model(seed: int) -> mm.ModuleModel:
    """A closed, randomly populated module; identical for identical seeds."""
    rng = random.Random(seed)
    mid = f"mod-{seed}"
    m = mm.new_module(mid, f"Module {seed} {_value(rng)}")
    m = mm.set_identification(
        m, name=_value(rng), identifier=f"ID-{seed}",
        module_type=rng.choice(("junction", "corner", "lift", "")))
    if rng.random() < 0.8:
        m = mm.set_main_dimensions(m, _triple(rng, positive=True))
    for i in range(rng.randint(0, 3)):
        m = mm.add_static_attribute(
            m, _name(rng, "attr", i), _value(rng), rng.choice(_UNITS))

    for i in range(rng.randint(0, 3)):
        m = mm.add_runtime_variable(
            m, _name(rng, "rt", i), rng.choice(_DATA_TYPES),
            rng.choice(_UNITS), _value(rng))

    doc_ids = [f"doc-{seed}-{i}" for i in range(rng.randint(0, 3))]

    for i in range(rng.randint(0, 3)):
        m = mm.add_logistic_function(
            m, _name(rng, "lf", i), rng.choice(mm.FUNCTION_CATEGORIES),
            rng.choice(doc_ids) if doc_ids and rng.random() < 0.5 else "")

    ports = []
    for i in range(rng.randint(1, 4)):
        port = _name(rng, "port", i)
        ports.append(port)
        m = mm.add_port(m, port, rng.choice(mm.PORT_DIRECTIONS),
                        _triple(rng) if rng.random() < 0.8 else "")
    for i in range(rng.randint(0, 2)):
        space = _name(rng, "zone", i)
        m = mm.add_interaction_space(m, space, *_space(rng))
    for _ in range(rng.randint(0, 2)):
        m = mm.add_route(m, rng.choice(ports), rng.choice(ports), rng.randint(0, 3))

    sensors, actuators = [], []
    for i in range(rng.randint(0, 5)):
        kind = rng.choice(mm.COMPONENT_KINDS)
        name = _name(rng, "c", i)
        (sensors if kind == "sensor" else actuators if kind == "actuator" else []).append(name)
        m = mm.add_component(m, mm.Component(
            name=name, kind=kind, component_type=_value(rng),
            position=_triple(rng) if rng.random() < 0.8 else "",
            main_dimensions=_triple(rng) if rng.random() < 0.8 else "",
            latency=rng.choice(("", "0", "0.25", "1.5")) if kind == "actuator" else ""))

    for i in range(rng.randint(0, 2)):
        m = mm.add_control_function(
            m, _name(rng, "cf", i), rng.choice(("SFC", "ST", "")),
            rng.choice(doc_ids) if doc_ids and rng.random() < 0.5 else "")
    variables = []
    for i in range(rng.randint(0, 4)):
        variable = _name(rng, "v", i)
        variables.append(variable)
        m = mm.add_variable(m, variable, rng.choice(_DATA_TYPES),
                            rng.choice(("input", "output", "local", "")))

    for component, direction in ([(s, "input") for s in sensors]
                                 + [(a, "output") for a in actuators]):
        if rng.random() < 0.7:
            m = mm.add_io_entry(
                m, f"{mid}/components/{component}",
                f"%I0.{rng.randint(0, 9)}" if direction == "input" else f"%Q0.{rng.randint(0, 9)}",
                rng.choice(variables) if variables and rng.random() < 0.7 else "",
                "BOOL", direction)
    if rng.random() < 0.7:
        m = mm.set_platform(m, _value(rng), _value(rng))

    anchors = _element_paths(m)
    for doc_id in doc_ids:
        discipline = rng.choice(mm.DISCIPLINES)
        m = mm.add_document(m, mm.DocumentReference(
            id=doc_id, discipline=discipline, stage=rng.choice(mm.STAGES),
            name=_value(rng), server_path=rng.choice(("", f"srv://docs/{doc_id}")),
            assigned_element=rng.choice(anchors) if rng.random() < 0.7 else ""))

    for _ in range(rng.randint(0, 6)):
        source = _endpoint(rng, m, anchors)
        target = _endpoint(rng, m, anchors)
        while target == source:
            target = rng.choice(anchors)
        m = mm.add_cross_ref(m, source, target, rng.choice(("uses", "feeds", "")))

    for path in rng.sample(anchors, k=min(len(anchors), rng.randint(0, 3))):
        m = mm.with_roles(m, path, rng.choice(
            ("ControlEquipment", "AutomationMLExtendedRoleClassLib", "Resource")))
        if rng.random() < 0.4:
            m = mm.with_external_ref(m, path, mm.ExternalRef(
                f"ref{rng.randint(0, 9)}", "AttachmentInterface",
                rng.choice(("", f"srv://ext/{seed}"))))
    return m


def _element_paths(m: mm.ModuleModel) -> list[str]:
    """Stable (name-addressed) element paths usable as reference anchors."""
    mid = m.id
    paths = [f"{mid}/general", f"{mid}/general/identification", f"{mid}/status",
             f"{mid}/function", f"{mid}/interface", f"{mid}/control",
             f"{mid}/control/platform"]
    paths += [f"{mid}/status/runtime_variables/{v.name}"
              for v in m.status.runtime_variables]
    paths += [f"{mid}/function/logistic_functions/{f.name}"
              for f in m.function.logistic_functions]
    paths += [f"{mid}/interface/ports/{p.name}" for p in m.interface.ports]
    paths += [f"{mid}/interface/interaction_spaces/{s.name}"
              for s in m.interface.interaction_spaces]
    paths += [f"{mid}/control/control_functions/{f.name}"
              for f in m.control.control_functions]
    paths += [f"{mid}/control/variables/{v.name}" for v in m.control.variables]
    paths += [f"{mid}/components/{c.name}" for c in m.components]
    return paths


def _endpoint(rng: random.Random, m: mm.ModuleModel, anchors: list[str]) -> str:
    """An element path, or sometimes a parameter path below a component."""
    if m.components and rng.random() < 0.25:
        component = rng.choice(m.components)
        return f"{m.id}/components/{component.name}/position"
    return rng.choice(anchors)


def removable_paths(m: mm.ModuleModel) -> list[str]:
    """Every path remove_element accepts, in document order."""
    mid = m.id
    paths = [f"{mid}/status/runtime_variables/{v.name}"
             for v in m.status.runtime_variables]
    paths += [f"{mid}/function/logistic_functions/{f.name}"
              for f in m.function.logistic_functions]
    paths += [f"{mid}/function/routes/{i}" for i in range(len(m.function.routes))]
    paths += [f"{mid}/interface/ports/{p.name}" for p in m.interface.ports]
    paths += [f"{mid}/interface/interaction_spaces/{s.name}"
              for s in m.interface.interaction_spaces]
    paths += [f"{mid}/control/control_functions/{f.name}"
              for f in m.control.control_functions]
    paths += [f"{mid}/control/variables/{v.name}" for v in m.control.variables]
    paths += [f"{mid}/control/io_mapping/{i}"
              for i in range(len(m.control.io_mapping))]
    paths += [f"{mid}/components/{c.name}" for c in m.components]
    paths += [f"{mid}/documents/{d.id}" for d in m.documents]
    paths += [f"{mid}/cross_refs/{i}" for i in range(len(m.cross_refs))]
    return paths


def incident_references(m: mm.ModuleModel, path: str) -> list[tuple[str, str]]:
    """(rule, anchor) pairs check_links must report once `path` is removed.

    Enumerated directly from the model's stored references, independently of
    the checker: anything whose endpoint lies at or below `path` dangles,
    plus the name-keyed references (io variables, route ports, function
    document ids) that the removed element satisfied.
    """
    mid = m.id
    prefix = path + "/"

    def hits(endpoint: str) -> bool:
        return endpoint == path or endpoint.startswith(prefix)

    segments = path[len(mid) + 1:].split("/")
    expected: list[tuple[str, str]] = []

    refs = m.cross_refs
    if segments[0] == "cross_refs":
        refs = tuple(r for i, r in enumerate(refs) if i != int(segments[1]))
    for i, ref in enumerate(refs):
        if hits(ref.source):
            expected.append(("dangling-source", f"{mid}/cross_refs/{i}"))
        if hits(ref.target):
            expected.append(("dangling-target", f"{mid}/cross_refs/{i}"))

    for doc in m.documents:
        if segments[0] == "documents" and doc.id == segments[-1]:
            continue
        if doc.assigned_element and hits(doc.assigned_element):
            expected.append(("dangling-assignment", f"{mid}/documents/{doc.id}"))

    if segments[0] == "components":
        for i, entry in enumerate(m.control.io_mapping):
            if hits(entry.component_path):
                expected.append(("io-unknown-component",
                                 f"{mid}/control/io_mapping/{i}"))
    if segments[:2] == ["control", "variables"]:
        for i, entry in enumerate(m.control.io_mapping):
            if entry.variable_name == segments[-1]:
                expected.append(("io-unknown-variable",
                                 f"{mid}/control/io_mapping/{i}"))
    if segments[:2] == ["interface", "ports"]:
        for i, route in enumerate(m.function.routes):
            for endpoint in (route.from_port, route.to_port):
                if endpoint == segments[-1]:
                    expected.append(("route-unknown-port",
                                     f"{mid}/function/routes/{i}"))
    if segments[0] == "documents":
        for function in m.function.logistic_functions:
            if function.behavior_ref == segments[-1]:
                expected.append((
                    "dangling-behavior-ref",
                    f"{mid}/function/logistic_functions/{function.name}"))
        for function in m.control.control_functions:
            if function.body_ref == segments[-1]:
                expected.append((
                    "dangling-body-ref",
                    f"{mid}/control/control_functions/{function.name}"))
    return expected


def sized_model(n: int) -> mm.ModuleModel:
    """A module with n components for scaling tests, alternating sensor and
    actuator. Each component has a variable, an io entry, a cross reference
    and a role, except that every fourth has no position and every eighth no
    io entry (so checks, requests and tables have cells to report); one
    document per ten components is assigned to a component.
    """
    mid = f"sized-{n}"
    m = mm.new_module(mid, f"Sized {n}")
    m = mm.set_identification(m, name="Sized", identifier=f"S-{n}", module_type="line")
    m = mm.set_main_dimensions(m, "(1000,1000,1000)")
    m = mm.add_control_function(m, "main", "SFC")
    for i in range(n):
        sensor = i % 2 == 0
        name = f"c{i}"
        path = f"{mid}/components/{name}"
        variable = ("i_" if sensor else "q_") + name
        m = mm.add_component(m, mm.Component(
            name=name, kind="sensor" if sensor else "actuator", component_type="T",
            position="" if i % 4 == 3 else f"({i},0,0)", main_dimensions="(1,1,1)",
            latency="" if sensor else "0.1"))
        m = mm.add_variable(m, variable, "BOOL", "input" if sensor else "output")
        if i % 8 != 7:
            m = mm.add_io_entry(m, path, f"%I{i // 8}.{i % 8}", variable, "BOOL",
                                "input" if sensor else "output")
        m = mm.add_cross_ref(m, path, f"{mid}/control/variables/{variable}", "signal-of")
        m = mm.with_roles(m, path, "ControlEquipment")
        if i % 10 == 0:
            m = mm.add_document(m, mm.DocumentReference(
                id=f"doc{i}", discipline="mechanical", stage="mechanical_eng",
                assigned_element=path))
    return m
