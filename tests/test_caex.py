"""Exchange-file parsing, canonical serialization, and model mapping."""
from __future__ import annotations

import functools
import gc
import random
import re
from collections import Counter
from dataclasses import MISSING, fields, replace
from xml.dom import minidom

import pytest
from generators import random_model, sized_model
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmkit import caex_io, fixture, sfc, xmlio
from mfmkit import consistency as cc
from mfmkit import model as mm
from mfmkit.caex_io import (
    CaexAttribute,
    CaexDocument,
    CaexElement,
    CaexHierarchy,
    CaexInterface,
    CaexLink,
    StructureError,
)
from mfmkit.xmlio import MAX_DEPTH, XmlError

DECL = b'<?xml version="1.0" encoding="utf-8"?>\n'


def _populated_model() -> mm.ModuleModel:
    m = mm.new_module("tj-01", "T-Junction")
    m = mm.set_identification(m, name="T-Junction", identifier="TJ-01", module_type="junction")
    m = mm.set_main_dimensions(m, "(2000,1500,900)")
    m = mm.add_static_attribute(m, "manufacturer", "ACME Intralogistics", "")
    m = mm.add_static_attribute(m, "weight", "42.5", "kg")
    m = mm.add_runtime_variable(m, "operating_mode", "INT", "", "mode selector")
    m = mm.add_logistic_function(m, "route-to-output_1", "material_flow", "behavior-spec")
    m = mm.add_route(m, "input", "output_1", 1)
    m = mm.add_port(m, "input", "in", "(0,0,400)")
    m = mm.add_port(m, "output_1", "out", "(2000,0,400)")
    m = mm.add_interaction_space(m, "hand-over", "(0,0,0)", "(100,100,100)")
    m = mm.add_control_function(m, "route", "SFC", "control-skeleton")
    m = mm.add_variable(m, "i_lb_in", "BOOL", "input")
    m = mm.add_variable(m, "q_conv1", "BOOL", "output")
    m = mm.add_component(m, mm.Component(
        name="Conv1", kind="actuator", component_type="P100",
        position="(0,10,0)", main_dimensions="(50,150,800)", latency="0.1"))
    m = mm.add_component(m, mm.Component(
        name="LB_in", kind="sensor", component_type="LG5",
        position="(0,0,400)", main_dimensions="(20,20,60)"))
    m = mm.add_io_entry(m, "tj-01/components/Conv1", "%Q0.0", "q_conv1", "BOOL", "output")
    m = mm.add_io_entry(m, "tj-01/components/LB_in", "%I0.0", "i_lb_in", "BOOL", "input")
    m = mm.set_platform(m, "S7-1500", "ET200SP")
    m = mm.add_document(m, mm.DocumentReference(
        id="layout-3d", discipline="mechanical", stage="mechanical_eng",
        name="3D layout", server_path="srv://docs/layout/tj.dae",
        assigned_element="tj-01/general"))
    m = mm.add_cross_ref(
        m, "tj-01/control/io_mapping/0", "tj-01/control/variables/q_conv1", "signal-of")
    m = mm.with_roles(m, "tj-01/control/control_functions/route", "ControlEquipment")
    m = mm.with_roles(
        m, "tj-01/function/logistic_functions/route-to-output_1",
        "AutomationMLExtendedRoleClassLib")
    m = caex_io.attach_external_document(
        m, "tj-01/control/control_functions/route", "PLCopenXMLInterface",
        "srv://docs/control/tj.plcopen.xml")
    return m


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_hierarchy():
    data = DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="modules"/>\n</CAEXFile>\n'
    doc = caex_io.parse(data)
    assert doc == CaexDocument(instance_hierarchies=(CaexHierarchy(name="modules"),))


def test_parse_reports_position_for_truncated_file():
    data = DECL + b"<CAEXFile>\n  <InstanceHierarchy"
    with pytest.raises(XmlError) as err:
        caex_io.parse(data)
    assert err.value.line is not None


def test_parse_rejects_unknown_root():
    with pytest.raises(XmlError, match="root"):
        caex_io.parse(DECL + b"<Project/>\n")


def test_parse_rejects_unknown_attribute_with_position():
    data = DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h" Version="1"/>\n</CAEXFile>\n'
    with pytest.raises(XmlError, match="Version") as err:
        caex_io.parse(data)
    assert err.value.line == 3


def test_parse_rejects_duplicate_sibling_names():
    data = DECL + (
        b'<CAEXFile>\n  <InstanceHierarchy Name="h">\n'
        b'    <InternalElement Name="a"/>\n    <InternalElement Name="a"/>\n'
        b"  </InstanceHierarchy>\n</CAEXFile>\n"
    )
    with pytest.raises(XmlError, match="duplicate"):
        caex_io.parse(data)


def test_parse_rejects_doctype():
    data = b'<?xml version="1.0" encoding="utf-8"?>\n<!DOCTYPE CAEXFile>\n<CAEXFile/>\n'
    with pytest.raises(XmlError):
        caex_io.parse(data)


def test_parse_rejects_text_outside_value():
    data = DECL + b'<CAEXFile>\n  <InstanceHierarchy Name="h">stray</InstanceHierarchy>\n</CAEXFile>\n'
    with pytest.raises(XmlError):
        caex_io.parse(data)


def test_parse_rejects_multiple_value_children():
    data = DECL + (
        b'<CAEXFile>\n  <InstanceHierarchy Name="h">\n'
        b'    <InternalElement Name="a">\n'
        b'      <Attribute Name="p"><Value>1</Value><Value>2</Value></Attribute>\n'
        b"    </InternalElement>\n  </InstanceHierarchy>\n</CAEXFile>\n"
    )
    with pytest.raises(XmlError, match="Value"):
        caex_io.parse(data)


def _nested(levels: int, innermost: bytes = b"") -> bytes:
    """A CAEXFile whose instance hierarchy nests `levels` InternalElements."""
    return DECL + (b'<CAEXFile><InstanceHierarchy Name="h">'
                   + b'<InternalElement Name="e">' * levels + innermost
                   + b"</InternalElement>" * levels + b"</InstanceHierarchy></CAEXFile>\n")


def test_parse_rejects_nesting_beyond_the_depth_limit_with_position():
    levels = MAX_DEPTH - 1  # CAEXFile and InstanceHierarchy take two levels
    with pytest.raises(XmlError, match=f"deeper than {MAX_DEPTH}") as err:
        caex_io.parse(_nested(levels))
    # the last InternalElement opens the first level too deep
    assert (err.value.line, err.value.column) == (2, 39 + 26 * (levels - 1))
    caex_io.parse(_nested(levels - 1))


def test_every_model_that_can_be_written_can_be_read_back():
    mid = "/".join(["e"] * mm.MAX_ID_SEGMENTS)
    m = mm.new_module(mid, "deep")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    # an external reference on an entry is the deepest part of a module file
    m = mm.with_external_ref(m, f"{mid}/components/S1",
                             mm.ExternalRef("d", "AttachmentInterface", "file:///d.pdf"))
    read, _warnings = caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))
    assert read == m

    deeper = mid + "/e"
    with pytest.raises(mm.ModelError, match=f"at most {mm.MAX_ID_SEGMENTS}"):
        mm.new_module(deeper, "deep")
    with pytest.raises(mm.ModelError, match=f"at most {mm.MAX_ID_SEGMENTS}"):
        caex_io.from_model(replace(m, id=deeper))
    role = b'<RoleRequirements RefBaseRoleClassPath="AutomationMLBaseRoleClassLib"/>'
    # module roots one segment too deep and at the reader's limit
    for levels in (mm.MAX_ID_SEGMENTS + 1, MAX_DEPTH - 3):
        with pytest.raises(StructureError, match="module id unusable"):
            caex_io.to_model(caex_io.parse(_nested(levels, role)))


def _attribute_file(body: bytes) -> bytes:
    """A file whose element `e` holds the attribute `a` with `body` inside."""
    return DECL + (b'<CAEXFile>\n  <InstanceHierarchy Name="h">\n'
                   b'    <InternalElement Name="e">\n      <Attribute Name="a">' + body
                   + b"</Attribute>\n    </InternalElement>\n  </InstanceHierarchy>\n</CAEXFile>\n")


@pytest.mark.parametrize("body, value, children", [
    (b"<Value/>", "", ()),
    (b"<Value></Value>", "", ()),
    (b"<Value>1 &amp; 2</Value>", "1 & 2", ()),
    (b'<Attribute Name="b"><Value>x</Value></Attribute><Value>y</Value>', "y",
     (CaexAttribute("b", "x"),)),
    (b"<Value>a&#13;b</Value>", "a\rb", ()),
    (b"<Value>a<!-- c -->b</Value>", "ab", ()),
    (b"<Value><![CDATA[<x> & y]]></Value>", "<x> & y", ()),
    (b"<Value> \n\t </Value>", " \n\t ", ()),
    ("<Value>\u00e9\u4e2d\U0001f600</Value>".encode(), "\u00e9\u4e2d\U0001f600", ()),
])
def test_a_value_is_read_as_the_text_of_its_attribute(body, value, children):
    attribute = caex_io.parse(_attribute_file(body)).instance_hierarchies[0].elements[0] \
        .attributes[0]
    assert attribute == CaexAttribute("a", value, children=children)


def test_a_folded_value_is_written_inline_and_read_back():
    data = _attribute_file(b"<Value>a&#13;b &lt;c&gt;</Value>")
    written = caex_io.serialize(caex_io.parse(data))
    assert b'<Attribute Name="a">\n        <Value>a&#13;b &lt;c&gt;</Value>\n' in written
    assert caex_io.serialize(caex_io.parse(written)) == written
    # an empty value is not written, and a value comes before nested attributes
    nested = caex_io.serialize(caex_io.parse(_attribute_file(
        b'<Attribute Name="b"/><Value>y</Value>')))
    assert b'<Attribute Name="a">\n        <Value>y</Value>\n' \
           b'        <Attribute Name="b"/>\n      </Attribute>' in nested
    assert b"<Value" not in caex_io.serialize(caex_io.parse(_attribute_file(b"<Value/>")))


def test_a_folded_value_keeps_the_element_rules():
    for body, message in (
            (b"<Value>1</Value><Value/>", "multiple <Value> children"),
            (b'<Value Unit="mm">1</Value>', "unsupported attribute 'Unit' on <Value>"),
            (b"<Value><Value/></Value>", "unsupported element <Value> in Value"),
            (b"<Value>1<RoleRequirements/></Value>", "element <Value> mixes text and child")):
        with pytest.raises(XmlError, match=message) as err:
            caex_io.parse(_attribute_file(body))
        assert err.value.line == 5


BASE_PLCOPEN = b"""<?xml version="1.0" encoding="utf-8"?>
<project name="p">
  <pou name="p" pouType="program">
    <interface>
      <variable name="v" dataType="BOOL" kind="input"/>
    </interface>
    <body>
      <sfc>
        <step name="a" initial="true"/>
        <transition source="a" target="a" condition="v"/>
      </sfc>
    </body>
  </pou>
</project>
"""


def test_a_parsed_document_is_freed_when_dropped():
    data = caex_io.serialize(caex_io.from_model(sized_model(40)))
    plcopen = sfc.emit_plcopen(sfc.parse_plcopen(BASE_PLCOPEN))
    gc.collect()
    doc = caex_io.parse(data)
    del doc
    assert gc.collect() == 0
    program = sfc.parse_plcopen(plcopen)
    del program
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_empty_document_is_three_lines():
    data = caex_io.serialize(CaexDocument())
    assert data == DECL + b"<CAEXFile>\n</CAEXFile>\n"


def test_serialize_parse_is_identity():
    doc = CaexDocument(
        role_class_lib_refs=("AutomationMLBaseRoleClassLib",),
        interface_class_lib_refs=("AttachmentInterface",),
        instance_hierarchies=(CaexHierarchy(name="modules", elements=(CaexElement(
            name="m1",
            attributes=(
                CaexAttribute(name="name", value='quote " amp & less <', data_type="xs:string"),
                CaexAttribute(name="nested", children=(
                    CaexAttribute(name="inner", value="v", unit="mm"),)),
            ),
            role_requirements=("AutomationMLBaseRoleClassLib",),
            external_interfaces=(CaexInterface(
                name="attachment", interface_class="AttachmentInterface",
                attributes=(CaexAttribute(name="refURI", value="srv://x?a=1&b=2"),)),),
            children=(CaexElement(name="general"),),
        ),)),),
        internal_links=(CaexLink(name="k", side_a="m1/general", side_b="m1/general"),),
    )
    assert caex_io.parse(caex_io.serialize(doc)) == doc


def test_serialize_is_deterministic():
    doc = caex_io.from_model(_populated_model())
    assert caex_io.serialize(doc) == caex_io.serialize(doc)


def test_canonical_form_is_stable_under_reparse():
    data = caex_io.serialize(caex_io.from_model(_populated_model()))
    assert caex_io.serialize(caex_io.parse(data)) == data


def test_value_whitespace_survives_round_trip():
    doc = CaexDocument(instance_hierarchies=(CaexHierarchy(name="h", elements=(CaexElement(
        name="m", role_requirements=("AutomationMLBaseRoleClassLib",),
        attributes=(CaexAttribute(name="note", value="line one\nline two\ttabbed"),),
    ),)),))
    assert caex_io.parse(caex_io.serialize(doc)) == doc


def _replace_all(value: str, pairs) -> str:
    for old, new in pairs:
        value = value.replace(old, new)
    return value


_MARKUP = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
_XML_SAFE = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\ufffe\uffff")


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from('&<>"\r\n\t'), _XML_SAFE)))
def test_the_escapes_equal_the_full_replacement_chains(value):
    attr = _MARKUP + (('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#9;"))
    assert xmlio._escape_attr(value) == _replace_all(value, attr)
    assert xmlio._escape_text(value) == _replace_all(value, _MARKUP + (("\r", "&#13;"),))


# ---------------------------------------------------------------------------
# Model mapping
# ---------------------------------------------------------------------------

def test_from_model_emits_all_subclass_containers():
    doc = caex_io.from_model(mm.new_module("m", ""))
    root = doc.instance_hierarchies[0].elements[0]
    assert [c.name for c in root.children] == [
        "general", "status", "function", "interface", "control"]


def test_model_round_trip_is_identity():
    model = _populated_model()
    doc = caex_io.from_model(model)
    restored, violations = caex_io.to_model(doc)
    assert violations == []
    assert restored == model


def test_model_round_trip_keeps_latency_text():
    model = _populated_model()
    restored, _ = caex_io.to_model(caex_io.from_model(model))
    assert restored.components[0].latency == "0.1"


def test_library_refs_are_derived_again_and_repeated_roles_and_links_read_as_one():
    model = _populated_model()
    data = caex_io.serialize(caex_io.from_model(model))
    role = b'<RoleRequirements RefBaseRoleClassPath="ControlEquipment"/>'
    link = re.search(rb"  <InternalLink [^\n]*\n", data).group()
    edits = [(b'<RoleClassLibRef Name="ControlEquipment"/>', b'<RoleClassLibRef Name="Renamed"/>'),
             (b"<InterfaceClassLibRef ", b'<InterfaceClassLibRef Name="Extra"/><InterfaceClassLibRef '),
             (role, role + role), (link, link + link)]
    edited = data
    for old, new in edits:
        assert data.count(old) == 1
        edited = edited.replace(old, new)
    restored, warnings = caex_io.to_model(caex_io.parse(edited))
    assert warnings == []
    assert restored == model
    assert caex_io.serialize(caex_io.from_model(restored)) == data


def test_to_model_flags_missing_container():
    doc = caex_io.from_model(mm.new_module("m", ""))
    root = doc.instance_hierarchies[0].elements[0]
    stripped = CaexElement(
        name=root.name, id=root.id, attributes=root.attributes,
        role_requirements=root.role_requirements,
        external_interfaces=root.external_interfaces,
        children=tuple(c for c in root.children if c.name != "status"))
    doc = CaexDocument(
        role_class_lib_refs=doc.role_class_lib_refs,
        instance_hierarchies=(CaexHierarchy(name="modules", elements=(stripped,)),))
    _model, violations = caex_io.to_model(doc)
    hits = [v for v in violations if v.rule_id == "missing-container"]
    assert len(hits) == 1
    assert hits[0].element_path == "m/status"
    assert hits[0].severity == "warning"


def test_to_model_requires_exactly_one_root():
    element = CaexElement(name="m", role_requirements=("AutomationMLBaseRoleClassLib",))
    other = CaexElement(name="n", role_requirements=("AutomationMLBaseRoleClassLib",))
    with pytest.raises(StructureError, match="found 2"):
        caex_io.to_model(CaexDocument(
            instance_hierarchies=(CaexHierarchy(name="h", elements=(element, other)),)))
    with pytest.raises(StructureError, match="found 0"):
        caex_io.to_model(CaexDocument(
            instance_hierarchies=(CaexHierarchy(name="h", elements=(CaexElement(name="m"),)),)))


def test_to_model_builds_hierarchical_id_from_plain_ancestors():
    inner = CaexElement(name="cell-3", role_requirements=("AutomationMLBaseRoleClassLib",))
    outer = CaexElement(name="plant-1", children=(
        CaexElement(name="line-2", children=(inner,)),))
    model, _violations = caex_io.to_model(CaexDocument(
        instance_hierarchies=(CaexHierarchy(name="h", elements=(outer,)),)))
    assert model.id == "plant-1/line-2/cell-3"


def test_hierarchical_id_round_trip():
    model = mm.new_module("plant-1/line-2/cell-3", "Cell 3")
    restored, violations = caex_io.to_model(caex_io.from_model(model))
    assert violations == []
    assert restored == model


def test_to_model_warns_on_unknown_attribute_and_element():
    doc = caex_io.from_model(mm.new_module("m", ""))
    root = doc.instance_hierarchies[0].elements[0]
    patched_children = tuple(
        CaexElement(name=c.name, children=c.children + (CaexElement(name="mystery"),))
        if c.name == "status" else c
        for c in root.children)
    patched = CaexElement(
        name=root.name, attributes=root.attributes + (CaexAttribute(name="vendor", value="x"),),
        role_requirements=root.role_requirements, children=patched_children)
    doc = CaexDocument(
        role_class_lib_refs=doc.role_class_lib_refs,
        instance_hierarchies=(CaexHierarchy(name="modules", elements=(patched,)),))
    _model, violations = caex_io.to_model(doc)
    rules = sorted(v.rule_id for v in violations)
    assert rules == ["unknown-element", "unknown-parameter"]
    assert all(v.severity == "warning" for v in violations)


def test_to_model_recovers_from_invalid_component_kind():
    component = CaexElement(name="X1", attributes=(
        CaexAttribute(name="kind", value="gearbox"),
        CaexAttribute(name="component_type", value="G7"),
    ))
    root = CaexElement(
        name="m", role_requirements=("AutomationMLBaseRoleClassLib",),
        children=tuple(
            caex_io.from_model(mm.new_module("m", "")).instance_hierarchies[0]
            .elements[0].children
        ) + (CaexElement(name="components", children=(component,)),))
    model, violations = caex_io.to_model(CaexDocument(
        instance_hierarchies=(CaexHierarchy(name="h", elements=(root,)),)))
    assert any(v.rule_id == "invalid-value" for v in violations)
    assert model.components[0].kind == "sensor"
    assert model.components[0].component_type == "G7"


def _read_lists(*lists: CaexElement) -> tuple[mm.ModuleModel, list[tuple[str, str]]]:
    """Read module `m` whose interface/control carry the given list elements."""
    base = caex_io.from_model(mm.new_module("m", "")).instance_hierarchies[0].elements[0]
    by_parent = {"ports": "interface", "io_mapping": "control",
                 "logistic_functions": "function"}
    children = tuple(
        CaexElement(name=c.name, attributes=c.attributes, children=tuple(
            lst for lst in lists if by_parent.get(lst.name) == c.name) + c.children)
        for c in base.children)
    root = CaexElement(name="m", role_requirements=base.role_requirements, children=children)
    model, violations = caex_io.to_model(CaexDocument(
        instance_hierarchies=(CaexHierarchy(name="modules", elements=(root,)),)))
    return model, [(v.rule_id, v.element_path) for v in violations]


def _entry(name: str, *values: tuple[str, str], roles=(), children=()) -> CaexElement:
    return CaexElement(name=name, role_requirements=roles, children=children, attributes=tuple(
        CaexAttribute(name=k, value=v) for k, v in values))


def test_to_model_defaults_a_rejected_value_and_keeps_the_entry():
    model, warnings = _read_lists(
        CaexElement(name="ports", children=(
            _entry("p1", ("direction", "sideways"), ("position", "not-a-triple")),
            _entry("p2", ("direction", "")))),
        CaexElement(name="logistic_functions", children=(
            _entry("f1", ("category", "teleport")),)))
    assert model.interface.ports == (mm.Port("p1", "in", ""), mm.Port("p2", "in", ""))
    assert model.function.logistic_functions == (mm.LogisticFunction("f1"),)
    assert warnings == [("invalid-value", "m/function/logistic_functions/f1")] + [
        ("invalid-value", "m/interface/ports/p1")] * 2


def test_to_model_keeps_the_first_of_repeated_attributes():
    model, warnings = _read_lists(CaexElement(name="ports", children=(
        _entry("p1", ("position", "(1,2,3)"), ("position", "(4,5,6)")),)))
    assert model.interface.ports[0].position == "(1,2,3)"
    assert warnings == [("invalid-value", "m/interface/ports/p1")]


def test_to_model_reports_children_of_entries_at_the_entry():
    model, warnings = _read_lists(CaexElement(name="ports", children=(
        _entry("p1", children=(CaexElement(name="extra"),)),)))
    assert [p.name for p in model.interface.ports] == ["p1"]
    assert warnings == [("unknown-element", "m/interface/ports/p1")]


def test_a_repeated_container_or_element_continues_from_the_earlier_one():
    # only a document built in code can repeat a sibling name: a file cannot
    m = fixture.tjunction_model()
    doc = caex_io.from_model(m)
    hierarchy = doc.instance_hierarchies[0]
    root = hierarchy.elements[0]
    children = {child.name: child for child in root.children}
    lb_in = children["components"].children[0]
    assert lb_in.name == "LB_in"
    components = CaexElement("components", children=(
        CaexElement("Extra", attributes=(CaexAttribute("kind", "sensor"),)), lb_in))
    general = CaexElement("general", attributes=(
        CaexAttribute("main_dimensions", "(1,2,3)", unit="mm"),
        CaexAttribute("manufacturer", "Other")),
        external_interfaces=children["general"].external_interfaces)
    root = root._replace(children=root.children + (components, general))
    read, warnings = caex_io.to_model(
        doc._replace(instance_hierarchies=(hierarchy._replace(elements=(root,)),)))
    assert read == replace(
        m, general=replace(m.general, main_dimensions="(1,2,3)"),
        components=m.components + (mm.Component("Extra", kind="sensor"),))
    assert [(v.rule_id, v.element_path, v.message) for v in warnings] == [
        ("invalid-value", "tjunction-01/components/LB_in", "duplicate component 'LB_in'"),
        ("invalid-value", "tjunction-01/general", "duplicate static attribute 'manufacturer'"),
        ("invalid-value", "tjunction-01/general",
         "duplicate external reference 'collada' at 'tjunction-01/general'"),
        ("missing-container", "tjunction-01/general/identification",
         "general has no identification element")]


def _unit_file(unit: bytes) -> bytes:
    """A module with a component position in mm, its Unit attribute replaced by `unit`."""
    m = mm.add_component(mm.new_module("m", ""), mm.Component("c1", position="(1,2,3)"))
    m = mm.add_static_attribute(m, "width", "5", "cm")
    return caex_io.serialize(caex_io.from_model(m)).replace(b' Unit="mm"', unit)


@pytest.mark.parametrize("unit, position, messages", [
    (b' Unit="cm"', "", ["component position has unit 'cm'; expected 'mm'"]),
    (b' Unit="mm"', "(1,2,3)", []),
    (b"", "(1,2,3)", []),
])
def test_to_model_reads_a_parameter_only_in_its_declared_unit(unit, position, messages):
    model, violations = caex_io.to_model(caex_io.parse(_unit_file(unit)))
    assert model.components[0].position == position
    assert model.general.static_attributes == (mm.Parameter("width", "5", "cm"),)
    assert [(v.rule_id, v.element_path, v.message) for v in violations] == [
        ("invalid-value", "m/components/c1", message) for message in messages]


def test_to_model_refuses_a_unit_on_a_parameter_that_has_none():
    m = mm.add_route(mm.new_module("m", ""), "a", "b", 3)
    data = caex_io.serialize(caex_io.from_model(m)).replace(
        b'Name="priority" DataType="xs:string"', b'Name="priority" DataType="xs:string" Unit="s"')
    model, violations = caex_io.to_model(caex_io.parse(data))
    assert model.function.routes == (mm.Route("a", "b", 0),)
    assert [(v.rule_id, v.message) for v in violations] == [
        ("invalid-value", "route priority has unit 's'; expected none")]


def test_an_absent_route_port_reads_as_empty_and_the_link_check_reports_it():
    m = mm.add_route(fixture.tjunction_model(), "input", "output_1")
    data, dropped = re.subn(rb'\s*<Attribute Name="from_port".*?</Attribute>', b"",
                            caex_io.serialize(caex_io.from_model(m)), flags=re.S)
    assert dropped == 1
    model, warnings = caex_io.to_model(caex_io.parse(data))
    assert model.function.routes == (mm.Route("", "output_1", 0),)
    assert warnings == []
    assert [(v.rule_id, v.element_path, v.message) for v in cc.check_links(model)] == [
        ("route-unknown-port", "tjunction-01/function/routes/0", "port '' is not declared")]


def test_to_model_drops_an_unusable_io_entry_and_annotates_the_right_index():
    model, warnings = _read_lists(CaexElement(name="io_mapping", children=(
        _entry("0", ("logical_address", "%I0.0")),
        _entry("1", ("component_path", "not a path")),
        _entry("2", ("component_path", "m/components/S1"), roles=("Resource",)))))
    assert [e.component_path for e in model.control.io_mapping] == ["m/components/S1"]
    assert mm.annotation_at(model, "m/control/io_mapping/0").roles == ("Resource",)
    # entry 1: the malformed path is dropped, then the entry without one
    assert warnings == [("invalid-value", "m/control/io_mapping/0")] + [
        ("invalid-value", "m/control/io_mapping/1")] * 2


def test_annotation_warnings_follow_the_entry_and_name_its_index():
    interfaces = (
        CaexInterface("doc", "AttachmentInterface",
                      (CaexAttribute("foo", "x"), CaexAttribute("refURI", "u"))),
        CaexInterface("doc", "AttachmentInterface"))
    model, warnings = _read_lists(
        CaexElement(name="ports", children=(
            _entry("p1", ("direction", "sideways"), roles=("bad role",))._replace(
                external_interfaces=interfaces),
            _entry("bad name", roles=("R",)),
            _entry("p2", roles=("R", "R", "S")))),
        CaexElement(name="io_mapping", children=(
            _entry("0", ("component_path", "not a path"), roles=("R",)),
            _entry("1", ("component_path", "m/x"), roles=("bad role",)))))
    assert warnings == [
        ("invalid-value", "m/interface/ports/p1"),   # the direction
        ("invalid-value", "m/interface/ports/p1"),   # the role
        ("unknown-parameter", "m/interface/ports/p1"),
        ("invalid-value", "m/interface/ports/p1"),   # the second 'doc'
        ("invalid-value", "m/interface/ports/bad name"),  # dropped with its role
        ("invalid-value", "m/control/io_mapping/0"),
        ("invalid-value", "m/control/io_mapping/0"),
        ("invalid-value", "m/control/io_mapping/0"),  # the role of entry 1, now at 0
    ]
    assert mm.annotation_at(model, "m/interface/ports/p1") == mm.Annotation(
        external_refs=(mm.ExternalRef("doc", "AttachmentInterface", "u"),))
    assert mm.annotation_at(model, "m/interface/ports/p2").roles == ("R", "S")
    assert mm.annotation_at(model, "m/control/io_mapping/0") == mm.Annotation()


def test_reading_a_model_validates_each_annotation_once(monkeypatch):
    calls: Counter = Counter()
    for name in ("check_roles", "check_external_ref"):
        real = getattr(mm, name)
        monkeypatch.setattr(mm, name, lambda *args, real=real, name=name: (
            calls.update([name]), real(*args))[1])
    model = _populated_model()
    doc = caex_io.parse(caex_io.serialize(caex_io.from_model(model)))
    calls.clear()
    read, _warnings = caex_io.to_model(doc)
    assert read == model
    annotations = [node.annotation for _spec, _path, node in mm.walk(read)]
    assert calls == {
        "check_roles": sum(1 for ann in annotations if ann.roles),
        "check_external_ref": sum(len(ann.external_refs) for ann in annotations)}


def test_to_model_anchors_an_unknown_root_child_at_the_module():
    base = caex_io.from_model(mm.new_module("m", "")).instance_hierarchies[0].elements[0]
    root = CaexElement(name="m", role_requirements=base.role_requirements,
                       children=base.children + (CaexElement(name="bad name"),))
    _model, violations = caex_io.to_model(CaexDocument(
        instance_hierarchies=(CaexHierarchy(name="modules", elements=(root,)),)))
    assert [(v.rule_id, v.element_path) for v in violations] == [("unknown-element", "m")]


def test_reading_a_model_checks_each_value_at_most_once(monkeypatch):
    real = mm.check_value
    calls: Counter = Counter()

    def counting(spec, param, value):
        calls[spec.path, param.name] += 1
        return real(spec, param, value)

    monkeypatch.setattr(mm, "check_value", counting)
    for model in (_populated_model(), sized_model(40), *map(random_model, range(5))):
        docs = caex_io.parse(caex_io.serialize(caex_io.from_model(model)))
        calls.clear()
        read, warnings = caex_io.to_model(docs)
        assert read == model and not warnings
        elements = Counter(spec.path for spec, _path, _node in mm.walk(read))
        for (path, name), count in calls.items():
            assert count <= elements[path], (path, name, count, elements[path])


def test_reading_a_model_checks_no_declared_default(monkeypatch):
    real = mm.check_value
    defaults = []

    def recording(spec, param, value):
        declared = next(f for f in fields(spec.node_type) if f.name == param.name)
        if value == param.default and declared.default is not MISSING:
            defaults.append((spec.path, param.name))
        return real(spec, param, value)

    models = (_populated_model(), sized_model(40), *map(random_model, range(5)))
    monkeypatch.setattr(mm, "check_value", recording)
    for model in models:
        doc = caex_io.parse(caex_io.serialize(caex_io.from_model(model)))
        read, _warnings = caex_io.to_model(doc)
        assert read == model
    assert defaults == []


def test_to_model_keeps_dangling_links():
    model = mm.new_module("m", "")
    doc = caex_io.from_model(model)
    doc = CaexDocument(
        role_class_lib_refs=doc.role_class_lib_refs,
        instance_hierarchies=doc.instance_hierarchies,
        internal_links=(CaexLink(name="uses", side_a="m/general", side_b="m/nowhere"),))
    restored, violations = caex_io.to_model(doc)
    assert violations == []
    assert restored.cross_refs == (mm.CrossReference("m/general", "m/nowhere", "uses"),)


# ---------------------------------------------------------------------------
# External-data connectors
# ---------------------------------------------------------------------------

def test_attach_collada_connector_keeps_uri_verbatim():
    model = mm.new_module("m", "")
    model = caex_io.attach_external_document(
        model, "m/general", "COLLADAInterface", "srv://docs/layout/m.dae")
    refs = mm.annotation_at(model, "m/general").external_refs
    assert refs == (mm.ExternalRef("collada", "COLLADAInterface", "srv://docs/layout/m.dae"),)


def test_attach_plcopen_connector_stores_qualified_class():
    model = mm.new_module("m", "")
    model = caex_io.attach_external_document(
        model, "m/control", "PLCopenXMLInterface", "srv://x")
    refs = mm.annotation_at(model, "m/control").external_refs
    assert refs[0].interface_class == "ExternalDataConnector.PLOpenXMLInterface"


def test_attach_unknown_connector_kind_is_an_error():
    model = mm.new_module("m", "")
    with pytest.raises(mm.ModelError, match="FooInterface"):
        caex_io.attach_external_document(model, "m/general", "FooInterface", "srv://x")


def test_attach_twice_uses_distinct_names():
    model = mm.new_module("m", "")
    model = caex_io.attach_external_document(model, "m/general", "AttachmentInterface", "srv://a")
    model = caex_io.attach_external_document(model, "m/general", "AttachmentInterface", "srv://b")
    names = [r.name for r in mm.annotation_at(model, "m/general").external_refs]
    assert names == ["attachment", "attachment-2"]


def test_connectors_survive_file_round_trip():
    model = mm.new_module("m", "")
    model = caex_io.attach_external_document(
        model, "m/general", "COLLADAInterface", "srv://docs/m.dae")
    restored, violations = caex_io.to_model(caex_io.parse(
        caex_io.serialize(caex_io.from_model(model))))
    assert violations == []
    assert restored == model


# ---------------------------------------------------------------------------
# The tolerant reader drops no value without a warning
# ---------------------------------------------------------------------------

_VALUE_SPAN = re.compile(rb"<Value>([^<]*)</Value>")
_UNIT_SPAN = re.compile(rb' Unit="([^"]*)"')
_TYPE_SPAN = re.compile(rb' DataType="([^"]*)"')
_ID_SPOT = re.compile(rb'<InternalElement Name="[^"]*"()')
#: Replacement texts: valid and invalid for the validators of every kind.
_TEXTS = ("", "x", "(1,2,3)", "(0,0,0)", "(-1,2,3)", "(9,9,9)", "(1,2)", "(1,2,3", "1",
          "-1", "0.5", "07", "+7", " 7", "1e999", "nan", "sensor", "actuator", "bogus",
          "in", "out", "input", "output", "handling", "waiting", "mechanical",
          "electrical_eng", "m/components/x", "bad//path", "mm", "s")
_UNITS = ("", "mm", "s", "m", "kg", "MM", "ms")
_TYPES = ("", "xs:string", "xs:int", "xs:double")
_IDS = ("", ' ID="e1"', ' ID="{0b7e}"')


def _mutant(data: bytes, rng: random.Random) -> bytes:
    """`data` with 1 to 3 Value texts, Unit or DataType attributes replaced
    or ID attributes added."""
    sites = [(m.span(1), _TEXTS) for m in _VALUE_SPAN.finditer(data)]
    sites += [(m.span(1), _UNITS) for m in _UNIT_SPAN.finditer(data)]
    sites += [(m.span(1), _TYPES) for m in _TYPE_SPAN.finditer(data)]
    sites += [(m.span(1), _IDS) for m in _ID_SPOT.finditer(data)]
    for (start, end), pool in sorted(rng.sample(sites, rng.randint(1, 3)), reverse=True):
        data = data[:start] + rng.choice(pool).encode() + data[end:]
    return data


def _elements(doc: caex_io.CaexDocument) -> tuple[dict, dict]:
    """(cells, index lists) of the module in `doc`: element path ->
    {attribute: (value, unit, DataType)}, with "ID" -> the element's ID when
    it has one, and the path of each index-keyed list -> its entries' paths
    in file order. A schema parameter reads as the reader documents it:
    absent or empty, its default; without a Unit, in its declared unit; an
    attribute without a DataType as xs:string."""
    cells, lists = {}, {}

    def visit(spec: mm.ElementSpec, element: caex_io.CaexElement, path: str) -> None:
        own = cells[path] = {param.name: (param.default, param.unit, "xs:string")
                             for param in spec.params}
        if element.id:
            own["ID"] = element.id
        for name, value, data_type, unit, _children in element.attributes:
            param = spec.names.get(name)
            own[name] = (value or param.default if param else value,
                         unit or param.unit if param else unit, data_type or "xs:string")
        for child in element.children:
            child_spec, child_path = mm.CHILDREN[spec.path][child.name], f"{path}/{child.name}"
            if not child_spec.key:
                visit(child_spec, child, child_path)
                continue
            if child.id:
                cells[child_path] = {"ID": child.id}
            entries = [f"{child_path}/{entry.name}" for entry in child.children]
            if child_spec.key == "index":
                lists[child_path] = entries
            for entry, entry_path in zip(child.children, entries):
                visit(child_spec, entry, entry_path)

    root = doc.instance_hierarchies[0].elements[0]
    visit(mm.ROOT, root, root.name)
    return cells, lists


def _silent_changes(read: caex_io.CaexDocument, written: caex_io.CaexDocument,
                    warned: set[str]) -> list:
    """The (element path, attribute) pairs that differ between the file read
    and the file written back with no warning at that path. The entries of
    an index-keyed list are renumbered when one is dropped, so they are
    aligned in order, each entry dropped or changed only under a warning."""
    before, lists = _elements(read)
    after, written_lists = _elements(written)
    silent = []
    listed = set()
    for list_path, entries in lists.items():
        listed.update(entries)
        kept = [after[path] for path in written_lists.get(list_path, ())]

        @functools.cache
        def aligns(i: int, j: int) -> bool:
            if i == len(entries):
                return j == len(kept)
            loud = entries[i] in warned
            return ((loud and aligns(i + 1, j))
                    or (j < len(kept) and (loud or before[entries[i]] == kept[j])
                        and aligns(i + 1, j + 1)))

        if not aligns(0, 0):
            silent.append((list_path, "entries"))
    for path, cells in before.items():
        if path in listed or path in warned:
            continue
        written_cells = after.get(path, {})
        silent += [(path, name) for name in cells.keys() | written_cells.keys()
                   if cells.get(name) != written_cells.get(name)]
    return silent


#: Mutants of the oracle's model; each changes 1 to 3 Value texts, Units,
#: DataTypes or IDs.
DROP_MUTANTS = 40


def test_the_reader_changes_no_value_without_a_warning():
    data = caex_io.serialize(caex_io.from_model(random_model(3)))
    rng = random.Random("silent-drops")
    warned_mutants = 0
    for _ in range(DROP_MUTANTS):
        mutant = _mutant(data, rng)  # the replacement texts need no escaping: every mutant parses
        doc = caex_io.parse(mutant)
        model, warnings = caex_io.to_model(doc)
        warned_mutants += bool(warnings)
        written = caex_io.from_model(model)
        assert _silent_changes(doc, written, {v.element_path for v in warnings}) == [], mutant
    assert 0 < warned_mutants < DROP_MUTANTS


def test_an_interface_reads_its_refuri_by_the_attribute_rules():
    ref = mm.ExternalRef("doc", "AttachmentInterface", "srv://a")
    doc = caex_io.from_model(mm.with_external_ref(mm.new_module("m", "M"), "m", ref))
    hierarchy = doc.instance_hierarchies[0]
    root = hierarchy.elements[0]
    interface = root.external_interfaces[0]
    uri = interface.attributes[0]

    def read(*attributes: CaexAttribute):
        changed = root._replace(external_interfaces=(interface._replace(attributes=attributes),))
        model, warnings = caex_io.to_model(
            doc._replace(instance_hierarchies=(hierarchy._replace(elements=(changed,)),)))
        return model.annotation.external_refs, [
            (w.rule_id, w.severity, w.element_path, w.message) for w in warnings]

    assert read(uri) == ((ref,), [])
    assert read(uri, uri._replace(value="srv://b")) == ((ref,), [
        ("invalid-value", "warning", "m", "duplicate attribute 'refURI' ignored")])
    assert read(uri._replace(unit="mm")) == ((replace(ref, ref_uri=""),), [
        ("invalid-value", "warning", "m", "external interface refURI has unit 'mm'; expected none")])


def test_an_index_addressed_entry_is_read_at_its_position_whatever_its_name():
    m = fixture.tjunction_model()
    data = caex_io.serialize(caex_io.from_model(m))
    at = data.index(b'<InternalElement Name="io_mapping">')
    three, four = data.index(b'Name="3"', at), data.index(b'Name="4"', at)

    def read(mutant: bytes):
        model, warnings = caex_io.to_model(caex_io.parse(mutant))
        assert model == m
        return [(w.rule_id, w.severity, w.element_path, w.message) for w in warnings]

    assert read(data[:three] + b'Name="3Z"' + data[three + 8:]) == [
        ("unknown-parameter", "warning", "tjunction-01/control/io_mapping/3",
         "entry name '3Z' ignored")]
    swapped = data[:three] + b'Name="4"' + data[three + 8:four] + b'Name="3"' + data[four + 8:]
    assert read(swapped) == [
        ("unknown-parameter", "warning", f"tjunction-01/control/io_mapping/{n}",
         f"entry name '{name}' ignored") for n, name in ((3, 4), (4, 3))]


_PLATFORM = b'<InternalElement Name="platform">\n'
_COMPONENTS = b'<InternalElement Name="components">\n'


@pytest.mark.parametrize("after, line, warning", [
    (_PLATFORM, b'<Attribute Name="extra"><Attribute Name="inner"/></Attribute>',
     ("unknown-parameter", "tjunction-01/control/platform", "nested attribute 'extra' ignored")),
    (_COMPONENTS, b'<Attribute Name="vendor"><Value>x</Value></Attribute>',
     ("unknown-parameter", "tjunction-01/components",
      "attributes on list container 'components' ignored")),
    (_COMPONENTS,
     b'<RoleRequirements RefBaseRoleClassPath="AutomationMLBaseRoleClassLib/Sensor"/>',
     ("unknown-element", "tjunction-01/components",
      "annotations on list container 'components' are not supported")),
])
def test_what_a_nested_attribute_or_a_list_container_carries_is_dropped_with_a_warning(
        after, line, warning):
    m = fixture.tjunction_model()
    data = caex_io.serialize(caex_io.from_model(m))
    assert data.count(after) == 1
    model, warnings = caex_io.to_model(caex_io.parse(data.replace(after, after + line + b"\n")))
    assert model == m
    assert [(w.rule_id, w.severity, w.element_path, w.message) for w in warnings] == [
        (warning[0], "warning", *warning[1:])]


def _documented(doc: CaexDocument) -> CaexDocument:
    """`doc` less what docs/format.md says the reader derives again or merges."""

    def element(e: CaexElement, inside: bool) -> CaexElement:
        # "A role repeated in the `RoleRequirements` of one element is read
        # as one role, at its first position, as `with_roles` merges it."
        roles = tuple(dict.fromkeys(e.role_requirements))
        root = bool(roles) and not inside
        if root:
            # "new modules carry `AutomationMLBaseRoleClassLib` from construction"
            roles = tuple(role for role in roles if role != mm.BASE_ROLE)
        return e._replace(role_requirements=roles, children=tuple(
            element(child, inside or root) for child in e.children))

    return doc._replace(
        # "The reader keeps none of the ones it is given: the writer derives
        # them again from the role requirements and external interfaces"
        role_class_lib_refs=(), interface_class_lib_refs=(),
        instance_hierarchies=tuple(
            h._replace(elements=tuple(element(e, False) for e in h.elements))
            for h in doc.instance_hierarchies),
        # "A repeated `InternalLink` (same `Name` and partners) is read as one
        # cross-reference, at its first position"
        internal_links=tuple(dict.fromkeys(doc.internal_links)))


def _tag_sites(dom) -> dict:
    """Where the format's mutants go: for each tag of TAGS its first element
    under each parent tag, and for InternalElement its first in each context
    of the module."""
    sites = {}
    for node in dom.documentElement.getElementsByTagName("*"):
        if node.tagName != "InternalElement":
            sites.setdefault((node.tagName, node.parentNode.tagName), node)

    def visit(node, spec: mm.ElementSpec, context: str) -> None:
        sites.setdefault(("InternalElement", context), node)
        for child in node.childNodes:
            if getattr(child, "tagName", "") != "InternalElement":
                continue
            child_spec = mm.CHILDREN[spec.path][child.getAttribute("Name")]
            if not child_spec.key:
                visit(child, child_spec, "singleton" if spec.path else "container")
                continue
            sites.setdefault(("InternalElement", "list container"), child)
            for entry in child.getElementsByTagName("InternalElement"):
                visit(entry, child_spec, f"{child_spec.key}-keyed entry")

    hierarchy = dom.documentElement.getElementsByTagName("InstanceHierarchy")[0]
    visit(hierarchy.getElementsByTagName("InternalElement")[0], mm.ROOT, "module root")
    return sites


def _tag_mutants(data: bytes):
    """(label, file) for each mutant of `data`: every attribute that TAGS
    allows a tag changed at each site of the tag, or added where absent,
    and each leaf tag repeated."""
    dom = minidom.parseString(data)
    for (tag, where), node in _tag_sites(dom).items():
        for attribute in caex_io.TAGS[tag].attrs:
            had, value = node.hasAttribute(attribute), node.getAttribute(attribute)
            node.setAttribute(attribute, f"{value}x")
            yield f"{tag} {attribute} in {where}", dom.toxml("utf-8")
            if had:
                node.setAttribute(attribute, value)
            else:
                node.removeAttribute(attribute)
        if not caex_io.TAGS[tag].children:
            copy = node.parentNode.insertBefore(node.cloneNode(True), node)
            yield f"{tag} repeated in {where}", dom.toxml("utf-8")
            node.parentNode.removeChild(copy)


def test_every_tag_and_attribute_of_the_format_is_kept_derived_or_warned():
    """The oracle of the format, generated from TAGS: each mutant reads back
    through the writer to itself, apart from what docs/format.md says the
    reader derives or merges, or the reader warns (or refuses the file)."""
    data = caex_io.serialize(caex_io.from_model(fixture.tjunction_model()))
    labels, silent = [], []
    for label, mutant in _tag_mutants(data):
        labels.append(label)
        try:
            doc = caex_io.parse(mutant)
            model, warnings = caex_io.to_model(doc)
        except (XmlError, StructureError):
            continue
        back = caex_io.parse(caex_io.serialize(caex_io.from_model(model)))
        if not warnings and _documented(back) != _documented(doc):
            silent.append(label)
    assert silent == []
    assert {label.split()[0] for label in labels} == set(caex_io.TAGS) - {"CAEXFile"}
    assert {label.split(" in ")[1] for label in labels if label.startswith("InternalElement")} == {
        "module root", "container", "singleton", "list container", "name-keyed entry",
        "id-keyed entry", "index-keyed entry"}


def test_the_reader_reports_what_the_model_has_no_place_for():
    m = mm.with_external_ref(mm.new_module("plant/line/m", "M"), "plant/line/m",
                             mm.ExternalRef("doc", "AttachmentInterface", "srv://x"))
    doc = caex_io.from_model(m)
    hierarchy = doc.instance_hierarchies[0]
    plant = hierarchy.elements[0]
    line = plant.children[0]
    root = line.children[0]
    interface = root.external_interfaces[0]
    uri = interface.attributes[0]._replace(data_type="xs:anyURI")
    root = root._replace(id="r1", external_interfaces=(interface._replace(attributes=(uri,)),))
    plant = plant._replace(
        id="p1", attributes=(CaexAttribute("site", "north"),),
        external_interfaces=(CaexInterface("map", "AttachmentInterface"),),
        children=(line._replace(children=(CaexElement("spare"), root)), CaexElement("store")))
    doc = doc._replace(instance_hierarchies=(hierarchy._replace(elements=(plant,)),))
    model, warnings = caex_io.to_model(doc)
    assert model == m
    assert [(w.rule_id, w.severity, w.element_path, w.message) for w in warnings] == [
        ("unknown-parameter", "warning", "plant", "ID 'p1' ignored"),
        ("unknown-parameter", "warning", "plant", "attribute 'site' above the module root ignored"),
        ("unknown-element", "warning", "plant", "interface 'map' above the module root ignored"),
        ("unknown-element", "warning", "plant", "element 'store' holds no module root and is ignored"),
        ("unknown-element", "warning", "plant/line",
         "element 'spare' holds no module root and is ignored"),
        ("unknown-parameter", "warning", "plant/line/m", "ID 'r1' ignored"),
        ("unknown-parameter", "warning", "plant/line/m",
         "DataType 'xs:anyURI' of attribute 'refURI' ignored"),
    ]


def test_a_wrapper_reports_a_sibling_named_as_the_way_down():
    m = mm.new_module("plant/line/m", "M")
    doc = caex_io.from_model(m)
    hierarchy = doc.instance_hierarchies[0]
    plant = hierarchy.elements[0]
    plant = plant._replace(children=plant.children + (CaexElement("line"),))
    doc = doc._replace(instance_hierarchies=(hierarchy._replace(elements=(plant,)),))
    model, warnings = caex_io.to_model(doc)
    assert model == m
    assert [(w.rule_id, w.element_path, w.message) for w in warnings] == [
        ("unknown-element", "plant", "element 'line' holds no module root and is ignored")]


def test_the_reader_reports_a_renamed_or_further_instance_hierarchy():
    m = mm.new_module("m", "M")
    doc = caex_io.from_model(m)
    hierarchy = doc.instance_hierarchies[0]
    assert hierarchy.name == "modules"
    doc = doc._replace(instance_hierarchies=(
        CaexHierarchy("spare"),
        hierarchy._replace(name="plant", elements=hierarchy.elements + (CaexElement("store"),)),
        CaexHierarchy("other", (CaexElement("x", children=(CaexElement("y"),)),))))
    model, warnings = caex_io.to_model(doc)
    assert model == m
    assert [(w.rule_id, w.severity, w.element_path, w.message) for w in warnings] == [
        ("unknown-element", "warning", "m",
         "instance hierarchy 'spare' holds no module root and is ignored"),
        ("unknown-parameter", "warning", "m", "instance hierarchy name 'plant' ignored"),
        ("unknown-element", "warning", "m",
         "element 'store' holds no module root and is ignored"),
        ("unknown-element", "warning", "m",
         "instance hierarchy 'other' holds no module root and is ignored"),
    ]
    assert caex_io.to_model(caex_io.from_model(m))[1] == []
