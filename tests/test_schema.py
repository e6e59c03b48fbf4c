"""The meta-model schema: every element the table declares works end to end."""
from __future__ import annotations

from dataclasses import fields, replace

import pytest

from mfmkit import caex_io, mapping
from mfmkit import model as mm

# Candidate values; each parameter takes the first its validator accepts.
CANDIDATES = (
    "(4,5,6)", "(1,2,3)", "0.5", "3", "7", "m/general", "m/components/c1",
    *mm.FUNCTION_CATEGORIES, *mm.PORT_DIRECTIONS, *mm.IO_DIRECTIONS,
    *mm.COMPONENT_KINDS, *mm.DISCIPLINES, *mm.STAGES,
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


def test_schema_defaults_match_the_dataclasses():
    for spec in mm.SCHEMA:
        defaults = {f.name: f.default for f in fields(spec.node_type)}
        for param in spec.params:
            if param.name in defaults and isinstance(defaults[param.name], str):
                assert param.default == defaults[param.name], (spec.label, param.name)


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
