"""The T-junction demonstration module against its frozen manifest."""
from __future__ import annotations

import json
from pathlib import Path

from mfmkit import behavior, caex_io, sfc
from mfmkit import consistency as cc
from mfmkit import fixture, mapping
from mfmkit import model as mm

MANIFEST = json.loads(
    Path(__file__).with_name("data").joinpath("tjunction_manifest.json").read_text("utf-8"))


def test_identity():
    m = fixture.tjunction_model()
    assert m.id == MANIFEST["module_id"]
    assert m.name == MANIFEST["module_name"]
    ident = m.general.identification
    assert ident.name == MANIFEST["identification"]["name"]
    assert ident.identifier == MANIFEST["identification"]["identifier"]
    assert ident.module_type == MANIFEST["identification"]["module_type"]


def test_counts_match_manifest():
    m = fixture.tjunction_model()
    counts = MANIFEST["counts"]
    assert len(m.components) == counts["components"]
    kinds = [c.kind for c in m.components]
    assert kinds.count("sensor") == counts["sensors"]
    assert kinds.count("actuator") == counts["actuators"]
    assert kinds.count("conveyor") == counts["conveyors"]
    assert len(m.interface.ports) == counts["ports"]
    assert len(m.interface.interaction_spaces) == counts["interaction_spaces"]
    assert len(m.function.logistic_functions) == counts["logistic_functions"]
    assert len(m.function.routes) == counts["routes"]
    assert len(m.status.runtime_variables) == counts["runtime_variables"]
    assert len(m.control.control_functions) == counts["control_functions"]
    assert len(m.control.variables) == counts["variables"]
    assert len(m.control.io_mapping) == counts["io_entries"]
    assert len(m.documents) == counts["documents"]
    assert len(m.cross_refs) == counts["cross_refs"]


def test_conv1_parameters():
    m = fixture.tjunction_model()
    base = f"{m.id}/components/Conv1"
    for parameter, expected in MANIFEST["conv1"].items():
        assert mm.resolve(m, f"{base}/{parameter}") == expected


def test_io_table():
    m = fixture.tjunction_model()
    table = [
        [entry.component_path.rsplit("/", 1)[1], entry.logical_address,
         entry.variable_name, entry.direction]
        for entry in m.control.io_mapping
    ]
    assert table == MANIFEST["io_table"]


def test_fixture_is_clean():
    m = fixture.tjunction_model()
    assert mapping.validate_assignments(m) == []
    assert cc.check_links(m) == []
    for stage in mm.STAGES:
        assert cc.check_completeness(m, stage) == [], stage


def test_dependency_cells_match_manifest():
    report = cc.dependency_report(fixture.tjunction_model())
    cells = {f"{a}->{b}": n for a, b, n in report.cells}
    assert cells == MANIFEST["dependency_cells"]
    assert report.total_refs == MANIFEST["total_refs"]


def test_fixture_construction_is_deterministic():
    assert fixture.tjunction_model() == fixture.tjunction_model()


def test_file_round_trip_is_canonical():
    m = fixture.tjunction_model()
    first = caex_io.serialize(caex_io.from_model(m))
    recovered, violations = caex_io.to_model(caex_io.parse(first))
    assert violations == []
    assert recovered == m
    assert caex_io.serialize(caex_io.from_model(recovered)) == first


def _strip_electrical(m):
    """Blank the data the electrical engineer would have contributed."""
    for index in range(len(m.control.io_mapping)):
        m = mm.set_parameter(
            m, f"{m.id}/control/io_mapping/{index}", "logical_address", "")
    m = mm.set_parameter(m, f"{m.id}/control/platform", "controller_type", "")
    return mm.set_parameter(m, f"{m.id}/control/platform", "bus_coupler_type", "")


def test_electrical_strip_flags_every_logical_address():
    m = _strip_electrical(fixture.tjunction_model())
    violations = cc.check_completeness(m, "control_hmi_eng")
    addresses = [v for v in violations if v.parameter == "logical_address"]
    assert len(addresses) == MANIFEST["electrical_strip_logical_address_violations"]
    flagged = {v.element_path for v in addresses}
    expected = {f"{m.id}/control/io_mapping/{i}" for i in range(len(MANIFEST["io_table"]))}
    assert flagged == expected
    assert all(v.stage == "electrical_eng" for v in addresses)


def test_behavior_graph_matches_manifest():
    graph = behavior.parse_behavior(fixture.behavior_text())
    expected = MANIFEST["behavior"]
    assert graph.id == expected["graph_id"]
    assert [s.id for s in graph.steps] == expected["steps"]
    assert len(graph.edges) == expected["edge_count"]
    assert behavior.validate_graph(graph)[0] == expected["entry"]
    assert graph.loop_edges == ()


def test_generated_sfc_matches_manifest():
    m = fixture.tjunction_model()
    iml = behavior.to_iml(behavior.parse_behavior(fixture.behavior_text()))
    program = sfc.iml_to_sfc(iml, m)
    expected = MANIFEST["sfc"]
    assert len(program.steps) == expected["steps"]
    assert len(program.transitions) == expected["transitions"]
    assert [list(d) for d in sfc.divergences(program)] == expected["divergences"]


def test_routing_scenarios_match_manifest():
    m = fixture.tjunction_model()
    graph = behavior.parse_behavior(fixture.behavior_text())
    program = sfc.iml_to_sfc(behavior.to_iml(graph), m)
    for trace_name, key in (("route-1", "route_1_actions"),
                            ("route-2", "route_2_actions")):
        trace = behavior.parse_trace(fixture.trace_text(trace_name))
        from_graph = [behavior.format_event(a) for a in behavior.simulate(graph, trace)]
        from_sfc = [behavior.format_event(a)
                    for a in sfc.simulate_sfc(program, trace, m)]
        assert from_graph == MANIFEST[key]
        assert from_sfc == MANIFEST[key]
