"""The meta-model schema: every element the table declares works end to end."""
from __future__ import annotations

import inspect
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from mfmkit import caex_io, mapping
from mfmkit import model as mm

# Candidate values; each parameter takes the first its validator accepts.
CANDIDATES = (
    "(4,5,6)", "(1,2,3)", "0.5", "3", "7", "m/general", "m/components/c1",
    *mm.FUNCTION_CATEGORIES, *mm.PORT_DIRECTIONS, *mm.IO_DIRECTIONS,
    *mm.COMPONENT_KINDS, *mm.DISCIPLINES, *mm.STAGES,
    "(0,-1,2)", "-1", "07",
)


def _valid(spec: mm.ElementSpec, param: mm.Param, avoid: str) -> str:
    for value in CANDIDATES:
        if value == avoid:
            continue
        try:
            mm.check_value(spec, param, value)
        except (mm.ModelError, ValueError):
            continue
        return value
    raise AssertionError(f"no valid value for {spec.label} {param.name}")


LISTS = [spec for spec in mm.SCHEMA if spec.key]
SINGLES = [spec for spec in mm.SCHEMA if not spec.key and spec.params and spec.surface]


def _generated(spec: mm.ElementSpec) -> tuple[mm.ModuleModel, str]:
    """A module holding one generated element of `spec`, and its path."""
    m = mm.new_module("m", "M")
    values = {p.name: _valid(spec, p, p.default) for p in spec.params}
    path = "/".join(("m",) + spec.path)
    if spec.key:
        key = "0" if spec.key == "index" else "e1"
        if spec.key != "index":
            values[spec.key] = key
        return mm.add_entry(m, spec.node_type(**values)), f"{path}/{key}"
    return mm.set_element(m, replace(mm.get(m, spec), **values)), path


@pytest.mark.parametrize("spec", LISTS + SINGLES, ids=lambda s: "/".join(s.path))
def test_schema_element_round_trips(spec):
    m, path = _generated(spec)
    node = mm.resolve(m, path)
    assert type(node) is spec.node_type
    assert mapping.class_path_of(m, path) == (spec.cls or None)
    if spec.surface:
        for param in spec.params:
            current = mm.resolve(m, f"{path}/{param.name}")
            value = _valid(spec, param, current)
            m = mm.set_parameter(m, path, param.name, value)
            assert mm.resolve(m, f"{path}/{param.name}") == str(mm.check_value(spec, param, value))
    else:
        with pytest.raises(mm.ModelError, match="no writable parameters"):
            mm.set_parameter(m, path, spec.params[0].name, "x")
    restored, warnings = caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))
    assert warnings == []
    assert restored == m


#: The builder of each entry type, made from its dataclass. Components and
#: document references are given whole, to add_entry.
BUILDERS = {
    mm.RuntimeVariable: mm.add_runtime_variable,
    mm.LogisticFunction: mm.add_logistic_function,
    mm.Route: mm.add_route,
    mm.Port: mm.add_port,
    mm.InteractionSpace: mm.add_interaction_space,
    mm.ControlFunction: mm.add_control_function,
    mm.Variable: mm.add_variable,
    mm.IoMapEntry: mm.add_io_entry,
}
WHOLE = {mm.Component: mm.add_component, mm.DocumentReference: mm.add_document}


def test_every_entry_list_has_a_builder():
    assert BUILDERS.keys() | WHOLE.keys() == {spec.node_type for spec in LISTS}
    assert all(builder is mm.add_entry for builder in WHOLE.values())


@pytest.mark.parametrize("spec", [s for s in LISTS if s.node_type not in WHOLE],
                         ids=lambda s: "/".join(s.path))
def test_a_made_builder_takes_its_dataclass_fields_and_adds_as_add_entry(spec):
    build = BUILDERS[spec.node_type]
    assert getattr(mm, build.__name__) is build
    assert build.__doc__ and "\n" not in build.__doc__
    own, made = inspect.signature(spec.node_type), inspect.signature(build)
    assert list(made.parameters.values())[1:] == list(own.parameters.values())
    assert list(made.parameters)[0] == "model" and made.return_annotation == "ModuleModel"
    m = mm.new_module("m", "M")
    values = {p.name: _valid(spec, p, p.default) for p in spec.params}
    if spec.key != "index":
        values[spec.key] = "e1"
    entry = spec.node_type(**values)
    expected = mm.add_entry(m, entry)
    assert build(m, **values) == expected
    ordered = [getattr(entry, f.name) for f in fields(entry) if f.name != "annotation"]
    assert build(m, *ordered) == expected
    bad = {**values, spec.params[0].name: "x\ry"}
    with pytest.raises(mm.ModelError) as made_error:
        build(m, **bad)
    with pytest.raises(mm.ModelError) as entry_error:
        mm.add_entry(m, spec.node_type(**bad))
    assert str(made_error.value) == str(entry_error.value)


def test_made_builders_take_the_defaults_of_their_dataclasses():
    m = mm.new_module("m", "M")
    assert mm.add_port(m, "p").interface.ports == (mm.Port("p", "in"),)
    assert mm.add_logistic_function(m, "f").function.logistic_functions == (
        mm.LogisticFunction("f", "material_flow"),)
    assert mm.add_interaction_space(m, "z").interface.interaction_spaces == (
        mm.InteractionSpace("z", "", ""),)
    with pytest.raises(mm.ModelError, match="invalid port direction 'up'"):
        mm.add_port(m, "p", "up")


#: The parameter surface: (spec path, name, unit, default text, and one digit
#: per CANDIDATES value, 1 where the parameter's validator accepts it).
SURFACE = (
    ("", "name", "", "", "11111111111111111111111111111111"),
    ("general", "main_dimensions", "mm", "", "11000000000000000000000000000000"),
    ("general/identification", "name", "", "", "11111111111111111111111111111111"),
    ("general/identification", "identifier", "", "", "11111111111111111111111111111111"),
    ("general/identification", "module_type", "", "", "11111111111111111111111111111111"),
    ("status/runtime_variables", "data_type", "", "", "11111111111111111111111111111111"),
    ("status/runtime_variables", "unit", "", "", "11111111111111111111111111111111"),
    ("status/runtime_variables", "description", "", "", "11111111111111111111111111111111"),
    ("function/logistic_functions", "category", "", "material_flow", "00000001110000000000000000000000"),
    ("function/logistic_functions", "behavior_ref", "", "", "11111111111111111111111111111111"),
    ("function/routes", "from_port", "", "", "11111111111111111111111111111111"),
    ("function/routes", "to_port", "", "", "11111111111111111111111111111111"),
    ("function/routes", "priority", "", "0", "00011000000000000000000000000010"),
    ("interface/ports", "direction", "", "in", "00000000001100000000000000000000"),
    ("interface/ports", "position", "mm", "", "11000000000000000000000000000100"),
    ("interface/interaction_spaces", "min_corner", "mm", "", "11000000000000000000000000000100"),
    ("interface/interaction_spaces", "max_corner", "mm", "", "11000000000000000000000000000100"),
    ("control/control_functions", "language_tag", "", "", "11111111111111111111111111111111"),
    ("control/control_functions", "body_ref", "", "", "11111111111111111111111111111111"),
    ("control/variables", "data_type", "", "", "11111111111111111111111111111111"),
    ("control/variables", "scope", "", "", "11111111111111111111111111111111"),
    ("control/io_mapping", "component_path", "", "", "00111111111111111111111111111011"),
    ("control/io_mapping", "logical_address", "", "", "11111111111111111111111111111111"),
    ("control/io_mapping", "variable_name", "", "", "11111111111111111111111111111111"),
    ("control/io_mapping", "data_type", "", "", "11111111111111111111111111111111"),
    ("control/io_mapping", "direction", "", "input", "00000000000011000000000000000000"),
    ("control/platform", "controller_type", "", "", "11111111111111111111111111111111"),
    ("control/platform", "bus_coupler_type", "", "", "11111111111111111111111111111111"),
    ("components", "kind", "", "sensor", "00000000000000111100000000000000"),
    ("components", "component_type", "", "", "11111111111111111111111111111111"),
    ("components", "position", "mm", "", "11000000000000000000000000000100"),
    ("components", "main_dimensions", "mm", "", "11000000000000000000000000000100"),
    ("components", "latency", "s", "", "00111000000000000000000000000001"),
    ("documents", "discipline", "", "logistics", "00000000000000000011111000000000"),
    ("documents", "stage", "", "logistics_planning", "00000000000000000000000111111000"),
    ("documents", "name", "", "", "11111111111111111111111111111111"),
    ("documents", "server_path", "", "", "11111111111111111111111111111111"),
    ("documents", "assigned_element", "", "", "00111111111111111111111111111011"),
)


def test_parameter_surface_is_pinned():
    surface = tuple(
        ("/".join(spec.path), param.name, param.unit, param.default,
         "".join("1" if _accepts(spec, param, value) else "0" for value in CANDIDATES))
        for spec in mm.SCHEMA for param in spec.params)
    assert surface == SURFACE


def _accepts(spec: mm.ElementSpec, param: mm.Param, value: str) -> bool:
    try:
        mm.check_value(spec, param, value)
    except (mm.ModelError, ValueError):
        return False
    return True


def test_required_parameters_keep_no_default():
    with pytest.raises(TypeError):
        mm.Route("a")
    with pytest.raises(TypeError):
        mm.IoMapEntry()
    assert repr(mm.Route("a", "b")) == "Route(from_port='a', to_port='b', priority=0)"
    assert mm.Route("a", "b") == mm.Route("a", "b", 0)


def test_every_default_is_valid_by_declaration():
    """The file reader keeps a declared default unchecked: each default text
    passes its validator and stores the default itself."""
    for spec in mm.SCHEMA:
        defaults = {f.name: f.default for f in fields(spec.node_type)}
        for param in spec.params:
            if param not in spec.required:
                stored = mm.check_value(spec, param, param.default)
                assert stored == defaults[param.name], (spec.path, param.name)
                assert type(stored) is type(defaults[param.name]), (spec.path, param.name)
    routes = mm.CHILDREN[("function",)]["routes"]
    assert mm.check_value(routes, routes.names["priority"], "0") == 0


def test_required_parameters_are_the_route_ports_and_the_io_component_path():
    required = {("/".join(spec.path), f.name) for spec in mm.SCHEMA
                for f in fields(spec.node_type) if "param" in f.metadata and f.default is MISSING}
    assert required == {("function/routes", "from_port"), ("function/routes", "to_port"),
                        ("control/io_mapping", "component_path")}
    assert required == {("/".join(spec.path), p.name) for spec in mm.SCHEMA for p in spec.required}
    assert {("/".join(spec.path), p.name) for spec in mm.SCHEMA for p in spec.required
            if not _accepts(spec, p, "")} == {("control/io_mapping", "component_path")}


def test_module_layout_table_matches_the_schema():
    text = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text("utf-8")
    layout = text[text.index("## Module layout"):text.index("List containers")]
    rows = dict(re.findall(r"^\| `([a-z_]+)` \| (.*) \|$", layout, re.MULTILINE))
    subtrees = [spec.path[0] for spec in mm.SCHEMA if len(spec.path) == 1]
    assert list(rows) == subtrees
    for subtree, content in rows.items():
        specs = [spec for spec in mm.SCHEMA if spec.path[:1] == (subtree,)]
        params = {param.name for spec in specs for param in spec.params}
        parts = {segment for spec in specs for segment in spec.path[1:]}
        named = set(re.findall(r"`([a-z_]+)`", content))
        assert params <= named, (subtree, params - named)
        assert named <= params | parts, (subtree, named - params - parts)


@pytest.mark.parametrize("path", ["m/components", "m/status/runtime_variables",
                                  "m/function/routes", "m/documents", "m/cross_refs"])
def test_every_list_path_resolves_to_its_entries(path):
    m = mm.new_module("m", "M")
    assert mm.resolve(m, path) == ()
    m = mm.add_component(m, mm.Component("c1"))
    m = mm.add_runtime_variable(m, "v1")
    m = mm.add_route(m, "a", "b")
    m = mm.add_document(m, mm.DocumentReference("d1"))
    m = mm.add_cross_ref(m, "m/general", "m/status", "uses")
    entries = mm.resolve(m, path)
    assert isinstance(entries, tuple) and len(entries) == 1
    assert mapping.class_path_of(m, path) is None
    with pytest.raises(mm.ModelError, match="does not address an element"):
        mm.with_roles(m, path, "Resource")
