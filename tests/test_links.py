"""Reference integrity: the order of check_links findings across every link
rule, and docs/rules.md's link table against the declared references."""
from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

from mfmkit import consistency as cc
from mfmkit import model as mm


def _every_link_rule() -> mm.ModuleModel:
    """A model in which every link rule fires, with a malformed stored path,
    empty required references (which fire) and empty optional ones (which do not)."""
    m = mm.new_module("m", "M")
    m = mm.add_port(m, "in")
    m = mm.add_variable(m, "v")
    for name, kind in (("S1", "sensor"), ("A1", "actuator"), ("C1", "conveyor")):
        m = mm.add_component(m, mm.Component(name, kind))
    m = mm.add_document(m, mm.DocumentReference("d1", assigned_element="m/components/Gone"))
    m = mm.add_document(m, mm.DocumentReference("d2"))
    m = mm.add_document(m, mm.DocumentReference("d3", assigned_element="m/general"))
    m = mm.add_logistic_function(m, "f1", behavior_ref="nope")
    m = mm.add_logistic_function(m, "f2")
    m = mm.add_logistic_function(m, "f3", behavior_ref="d2")
    m = mm.add_control_function(m, "c1", "ST", "missing")
    m = mm.add_control_function(m, "c2", "ST")
    m = mm.add_route(m, "in", "out")
    m = mm.add_route(m, "nowhere", "in")
    m = mm.add_io_entry(m, "m/components/S1", "%I0", "v", direction="output")
    m = mm.add_io_entry(m, "m/components/C1", "%I1", "ghost")
    m = mm.add_io_entry(m, "m/components/Z", "%I2")
    m = mm.add_io_entry(m, "m/components/A1", "%Q0", "v", direction="output")
    m = mm.add_cross_ref(m, "m/components/S1", "m/components/Y", "x")
    m = mm.add_cross_ref(m, "m/general", "m/status", "x")
    return replace(
        m,
        cross_refs=m.cross_refs + (mm.CrossReference("m//general", "m/components/c 1", "x"),
                                   mm.CrossReference("m/nothing", "m/general", "x")),
        function=replace(m.function, routes=m.function.routes + (mm.Route("", "in"),)),
        control=replace(m.control, io_mapping=m.control.io_mapping + (
            mm.IoMapEntry("", variable_name="ghost"),)))


def test_check_links_reports_every_rule_list_by_list_entry_by_entry_field_by_field():
    assert [(v.rule_id, v.element_path, v.message) for v in cc.check_links(_every_link_rule())] == [
        ("dangling-target", "m/cross_refs/0", "target 'm/components/Y' does not resolve"),
        ("dangling-source", "m/cross_refs/2", "source 'm//general' does not resolve"),
        ("dangling-target", "m/cross_refs/2", "target 'm/components/c 1' does not resolve"),
        ("dangling-source", "m/cross_refs/3", "source 'm/nothing' does not resolve"),
        ("dangling-assignment", "m/documents/d1",
         "assigned element 'm/components/Gone' does not resolve"),
        ("io-direction", "m/control/io_mapping/0", "sensor 'S1' must map to direction input"),
        ("io-direction", "m/control/io_mapping/1",
         "component kind 'conveyor' cannot carry an i/o signal"),
        ("io-unknown-variable", "m/control/io_mapping/1", "variable 'ghost' is not declared"),
        ("io-unknown-component", "m/control/io_mapping/2",
         "component 'm/components/Z' does not resolve to a component"),
        ("io-unknown-component", "m/control/io_mapping/4",
         "component '' does not resolve to a component"),
        ("io-unknown-variable", "m/control/io_mapping/4", "variable 'ghost' is not declared"),
        ("route-unknown-port", "m/function/routes/0", "port 'out' is not declared"),
        ("route-unknown-port", "m/function/routes/1", "port 'nowhere' is not declared"),
        ("route-unknown-port", "m/function/routes/2", "port '' is not declared"),
        ("dangling-behavior-ref", "m/function/logistic_functions/f1",
         "behavior document 'nope' is not registered"),
        ("dangling-body-ref", "m/control/control_functions/c1",
         "body document 'missing' is not registered"),
    ]
    assert {v.severity for v in cc.check_links(_every_link_rule())} == {cc.SEVERITY_ERROR}


def test_the_reference_integrity_table_matches_the_declaration():
    text = (Path(__file__).resolve().parent.parent / "docs" / "rules.md").read_text("utf-8")
    table = text[text.index("### Reference integrity"):text.index("### Stage completeness")]
    rows = re.findall(r"^\| `([a-z-]+)` \| `…/([a-z_/]+)/<([a-z]+)>` \|", table, re.MULTILINE)
    declared = []
    for where, links in cc._LINKS.items():
        key = mm.spec_at(where).key
        for _field, rule, _message, target in links:
            row = (rule, where, "i" if key == "index" else key)
            if row not in declared:  # route-unknown-port: one row for both ports
                declared.append(row)
            if target == cc._COMPONENT:
                declared.append((cc.RULE_IO_DIRECTION, where, row[2]))
    assert rows == declared
    assert len(rows) == 9
