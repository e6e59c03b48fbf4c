"""Link integrity, stage completeness, ownership, and dependency reporting."""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from generators import random_model

from mfmkit import consistency as cc
from mfmkit import exchange, fixture, mapping, sfc
from mfmkit import model as mm
from mfmkit.consistency import (
    MatrixError,
    OwnershipError,
    Violation,
)
from mfmkit.paths import PathError


def _complete() -> mm.ModuleModel:
    """A small model that satisfies every row of the default matrix."""
    m = mm.new_module("m", "Mini")
    m = mm.set_identification(m, name="Mini", identifier="M-1", module_type="demo")
    m = mm.set_main_dimensions(m, "(100,100,100)")
    m = mm.add_runtime_variable(m, "mode", "INT")
    m = mm.add_logistic_function(m, "transport", "material_flow")
    m = mm.add_port(m, "input", "in", "(0,0,50)")
    m = mm.add_control_function(m, "run", "SFC")
    m = mm.add_variable(m, "i_s1", "BOOL", "input")
    m = mm.add_variable(m, "q_a1", "BOOL", "output")
    m = mm.add_component(m, mm.Component(
        name="S1", kind="sensor", component_type="LG5",
        position="(0,0,50)", main_dimensions="(20,20,60)"))
    m = mm.add_component(m, mm.Component(
        name="A1", kind="actuator", component_type="P100",
        position="(10,0,0)", main_dimensions="(50,150,800)", latency="0.1"))
    m = mm.add_component(m, mm.Component(
        name="C1", kind="conveyor", component_type="B300",
        position="(0,0,0)", main_dimensions="(100,100,100)"))
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "i_s1", "BOOL", "input")
    m = mm.add_io_entry(m, "m/components/A1", "%Q0.0", "q_a1", "BOOL", "output")
    m = mm.set_platform(m, "S7-1500", "ET200SP")
    m = mm.add_cross_ref(m, "m/control/io_mapping/0", "m/control/variables/i_s1", "signal-of")
    m = mm.add_cross_ref(m, "m/control/io_mapping/1", "m/control/variables/q_a1", "signal-of")
    m = mm.add_cross_ref(m, "m/components/S1/position", "m/control/control_functions/run",
                         "guard-uses")
    m = mm.add_cross_ref(m, "m/function/logistic_functions/transport", "m/components/A1",
                         "actuates")
    return m


def test_complete_model_is_clean_everywhere():
    m = _complete()
    assert cc.check_links(m) == []
    for stage in mm.STAGES:
        assert cc.check_completeness(m, stage) == [], stage


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------

def test_format_violation():
    v = Violation("missing-parameter", cc.SEVERITY_ERROR, "m/general", "main_dimensions not set")
    assert cc.format_violation(v) == "ERROR missing-parameter m/general: main_dimensions not set"


def test_has_errors():
    warn = Violation("unknown-parameter", cc.SEVERITY_WARNING, "m", "x")
    info = Violation("document-reassigned", cc.SEVERITY_INFO, "m", "x")
    err = Violation("dangling-source", cc.SEVERITY_ERROR, "m", "x")
    assert not cc.has_errors([warn, info])
    assert cc.has_errors([warn, err])


def test_every_emitted_rule_id_is_registered_and_documented():
    registry = {value for name, value in vars(cc).items() if name.startswith("RULE_")}
    registry |= {value for name, value in vars(mapping).items() if name.startswith("KIND_")}
    text = (Path(__file__).resolve().parent.parent / "docs" / "rules.md").read_text("utf-8")
    rows = set(re.findall(r"^\| `([a-z][a-z_-]*)` \|", text, re.MULTILINE))
    assert len(rows) == 23
    # uncovered-class is a note of `validate`, documented in prose, not in a table
    assert "`uncovered-class` notes" in text
    assert registry == rows | {cc.RULE_UNCOVERED_CLASS}


# ---------------------------------------------------------------------------
# Link integrity
# ---------------------------------------------------------------------------

def test_dangling_cross_ref_endpoints():
    m = _complete()
    m = mm.add_cross_ref(m, "m/components/Ghost", "m/control/variables/i_s1", "uses")
    m = mm.add_cross_ref(m, "m/components/S1", "m/nothing/here", "uses")
    violations = cc.check_links(m)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("dangling-source", "m/cross_refs/4"),
        ("dangling-target", "m/cross_refs/5"),
    ]
    assert all(v.severity == "error" for v in violations)
    assert "m/components/Ghost" in violations[0].message


def test_both_endpoints_dangling_yields_two_violations():
    m = mm.new_module("m", "")
    m = mm.add_cross_ref(m, "m/a", "m/b", "uses")
    rules = [v.rule_id for v in cc.check_links(m)]
    assert rules == ["dangling-source", "dangling-target"]


def test_dangling_document_assignment():
    m = mm.new_module("m", "")
    m = mm.add_document(m, mm.DocumentReference(
        id="d1", discipline="mechanical", stage="mechanical_eng",
        assigned_element="m/components/Gone"))
    violations = cc.check_links(m)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("dangling-assignment", "m/documents/d1")]


def test_io_entry_component_must_exist_and_be_a_component():
    m = mm.new_module("m", "")
    m = mm.add_port(m, "input", "in")
    m = mm.add_io_entry(m, "m/components/Nope", "%I0.0")
    m = mm.add_io_entry(m, "m/interface/ports/input", "%I0.1")
    rules = [(v.rule_id, v.element_path) for v in cc.check_links(m)]
    assert rules == [
        ("io-unknown-component", "m/control/io_mapping/0"),
        ("io-unknown-component", "m/control/io_mapping/1"),
    ]


def test_check_links_reports_a_malformed_stored_path_as_not_resolving():
    m = _complete()
    m = replace(
        m, cross_refs=m.cross_refs + (mm.CrossReference("m/components/c 1", "m/general", "x"),
                                      mm.CrossReference("m/general", "m//general", "x")),
        documents=(mm.DocumentReference("d1", assigned_element="m/bad path"),),
        control=replace(m.control, io_mapping=m.control.io_mapping + (
            mm.IoMapEntry("m/components/S 1"),)))
    assert [(v.rule_id, v.element_path) for v in cc.check_links(m)] == [
        ("dangling-source", "m/cross_refs/4"),
        ("dangling-target", "m/cross_refs/5"),
        ("dangling-assignment", "m/documents/d1"),
        ("io-unknown-component", "m/control/io_mapping/2"),
    ]


def test_check_links_decodes_only_link_endpoints_and_assignments(monkeypatch):
    m = fixture.tjunction_model()
    calls = []
    split_path = mm.split_path
    monkeypatch.setattr(mm, "split_path", lambda path: calls.append(path) or split_path(path))
    assert cc.check_links(m) == []
    assert m.control.io_mapping
    assert calls == [endpoint for ref in m.cross_refs for endpoint in (ref.source, ref.target)] + [
        doc.assigned_element for doc in m.documents if doc.assigned_element]


def test_io_direction_must_match_component_kind():
    m = mm.new_module("m", "")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.add_component(m, mm.Component(name="A1", kind="actuator"))
    m = mm.add_component(m, mm.Component(name="C1", kind="conveyor"))
    m = mm.add_io_entry(m, "m/components/S1", "%Q0.0", direction="output")
    m = mm.add_io_entry(m, "m/components/A1", "%I0.0", direction="input")
    m = mm.add_io_entry(m, "m/components/C1", "%I0.1", direction="input")
    violations = cc.check_links(m)
    assert [v.rule_id for v in violations] == ["io-direction"] * 3
    assert "cannot carry an i/o signal" in violations[2].message


@pytest.mark.parametrize("kind", mm.COMPONENT_KINDS)
@pytest.mark.parametrize("direction", mm.IO_DIRECTIONS)
def test_checks_binding_and_table_import_share_one_signal_policy(kind, direction):
    m = mm.add_component(mm.new_module("m", ""), mm.Component("C1", kind))
    m = mm.add_variable(m, "v", "BOOL")
    mapped = mm.add_io_entry(m, "m/components/C1", "%X0.0", "v", "BOOL", direction)
    flagged = [v.rule_id for v in cc.check_links(mapped)] == ["io-direction"]
    bound = (kind, "C1") in sfc._Binding(mapped).signals
    assert flagged == (not bound)
    assert bound == (mm.SIGNAL_DIRECTIONS.get(kind) == direction)

    table = b"\n".join([",".join(exchange.HEADER).encode(),
                        b"m/components/C1,logical_address,%X0.0,,,", b""])
    merged, _violations = exchange.import_table(m, table)
    if kind in mm.SIGNAL_DIRECTIONS:
        [entry] = merged.control.io_mapping
        assert entry.direction == mm.SIGNAL_DIRECTIONS[kind]
        assert "io-direction" not in [v.rule_id for v in cc.check_links(merged)]
        assert (kind, "C1") in sfc._Binding(merged).signals
    else:
        assert merged.control.io_mapping == ()


def test_io_variable_must_be_declared():
    m = mm.new_module("m", "")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "i_missing", "BOOL", "input")
    assert [v.rule_id for v in cc.check_links(m)] == ["io-unknown-variable"]


def test_empty_io_variable_is_not_flagged():
    m = mm.new_module("m", "")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "", "BOOL", "input")
    assert cc.check_links(m) == []


def test_route_ports_must_be_declared():
    m = mm.new_module("m", "")
    m = mm.add_port(m, "input", "in")
    m = mm.add_route(m, "input", "output_9", 0)
    violations = cc.check_links(m)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("route-unknown-port", "m/function/routes/0")]
    assert "output_9" in violations[0].message


def test_behavior_and_body_refs_must_name_registered_documents():
    m = mm.new_module("m", "")
    m = mm.add_logistic_function(m, "t", "material_flow", behavior_ref="missing-spec")
    m = mm.add_control_function(m, "run", "SFC", body_ref="missing-body")
    rules = {(v.rule_id, v.element_path) for v in cc.check_links(m)}
    assert rules == {
        ("dangling-behavior-ref", "m/function/logistic_functions/t"),
        ("dangling-body-ref", "m/control/control_functions/run"),
    }


# ---------------------------------------------------------------------------
# Stage completeness
# ---------------------------------------------------------------------------

def test_first_stage_requires_identification():
    violations = cc.check_completeness(mm.new_module("m", ""), "process_planning")
    assert [(v.element_path, v.parameter) for v in violations] == [
        ("m/general/identification", "name"),
        ("m/general/identification", "identifier"),
        ("m/general/identification", "module_type"),
    ]
    assert all(v.rule_id == "missing-parameter" and v.severity == "error" for v in violations)
    assert all(v.stage == "process_planning" for v in violations)


def test_later_stages_are_cumulative():
    m = mm.new_module("m", "")
    early = cc.check_completeness(m, "process_planning")
    late = cc.check_completeness(m, "control_hmi_eng")
    assert {(v.element_path, v.parameter) for v in early} <= {
        (v.element_path, v.parameter) for v in late}
    assert {v.parameter for v in late} >= {
        "logistic_functions", "ports", "control_functions", "variables", "runtime_variables"}


def test_unknown_stage_is_an_error():
    with pytest.raises(ValueError, match="commissioning"):
        cc.check_completeness(mm.new_module("m", ""), "commissioning")


def test_violation_is_labeled_with_earliest_requiring_stage():
    m = _complete()
    m = mm.set_parameter(m, "m/components/S1", "component_type", "")
    violations = cc.check_completeness(m, "electrical_eng")
    hits = [v for v in violations if v.element_path == "m/components/S1"]
    assert [(v.parameter, v.stage) for v in hits] == [("component_type", "mechanical_eng")]


def test_missing_logical_address_is_reported_per_entry():
    m = _complete()
    m = mm.set_parameter(m, "m/control/io_mapping/0", "logical_address", "")
    violations = cc.check_completeness(m, "electrical_eng")
    assert [(v.element_path, v.parameter) for v in violations] == [
        ("m/control/io_mapping/0", "logical_address")]


def test_sensor_without_io_entry_is_reported_at_the_component():
    m = _complete()
    m = mm.remove_element(m, "m/control/io_mapping/0")
    violations = cc.check_completeness(m, "electrical_eng")
    assert [(v.element_path, v.parameter) for v in violations] == [
        ("m/components/S1", "logical_address")]


def test_unreferenced_sensor_fails_electrical_planning():
    m = _complete()
    m = mm.add_component(m, mm.Component(
        name="S2", kind="sensor", component_type="LG5",
        position="(5,5,5)", main_dimensions="(20,20,60)"))
    m = mm.add_io_entry(m, "m/components/S2", "%I0.2", "", "BOOL", "input")
    violations = cc.check_completeness(m, "electrical_planning")
    assert [(v.element_path, v.parameter) for v in violations] == [
        ("m/components/S2", "sensor_actuator_refs")]


def test_conveyors_need_no_io_or_refs():
    violations = cc.check_completeness(_complete(), "control_hmi_eng")
    assert [v for v in violations if "C1" in v.element_path] == []


def test_load_matrix_rejects_unknown_stage_and_selector():
    with pytest.raises(MatrixError, match="commissioning"):
        cc.load_matrix("commissioning | general | main_dimensions")
    with pytest.raises(MatrixError, match="bogus"):
        cc.load_matrix("mechanical_eng | bogus | x")
    with pytest.raises(MatrixError, match="line 1"):
        cc.load_matrix("just-one-field")
    with pytest.raises(MatrixError, match=re.escape(
            "line 1: unsupported matrix row: status | foo") + "$"):
        cc.load_matrix("process_planning | status | foo")
    with pytest.raises(MatrixError, match=re.escape(
            "line 1: unsupported matrix row: control/io_mapping | address") + "$"):
        cc.load_matrix("electrical_eng | control/io_mapping | address")


def test_custom_matrix_replaces_default():
    matrix = cc.load_matrix("process_planning | general | main_dimensions")
    m = mm.new_module("m", "")
    violations = cc.check_completeness(m, "control_hmi_eng", matrix)
    assert [(v.element_path, v.parameter) for v in violations] == [
        ("m/general", "main_dimensions")]


_CUSTOM_MATRIX = """
process_planning | general | width
process_planning | general | height
process_planning | general | identification
logistics_planning | interface | ports
logistics_planning | function | routes
logistics_planning | status | runtime_variables
mechanical_eng | components/* | latency
mechanical_eng | general | width
"""


def _custom_model() -> mm.ModuleModel:
    m = mm.new_module("m", "Mini")
    m = mm.add_static_attribute(m, "width", "120", "mm")
    m = mm.add_runtime_variable(m, "mode", "INT")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor", latency="0.5"))
    return mm.add_component(m, mm.Component(name="A1", kind="actuator"))


def test_a_custom_matrix_reads_attributes_child_elements_and_lists():
    # recorded before cells were read from the elements row_cells yields
    matrix = cc.load_matrix(_CUSTOM_MATRIX)
    height = ("m/general", "height", "process_planning", "general has no height")
    lists = [("m/interface", "ports", "logistics_planning", "no ports declared"),
             ("m/function", "routes", "logistics_planning", "no routes declared")]
    latency = ("m/components/A1", "latency", "mechanical_eng", "component A1 has no latency")
    expected = [[height]] + [[height] + lists] * 2 + [[height] + lists + [latency]] * 3
    for stage, want in zip(mm.STAGES, expected):
        got = cc.check_completeness(_custom_model(), stage, matrix)
        assert [(v.element_path, v.parameter, v.stage, v.message) for v in got] == want


def test_a_matrix_cell_is_one_parameter_name():
    for parameter in ("a b", "identification/name", "x;y"):
        with pytest.raises(MatrixError, match=re.escape(
                f"line 2: malformed parameter name {parameter!r}")):
            cc.load_matrix(f"# cells\nprocess_planning | general | {parameter}")
    with pytest.raises(MatrixError, match=re.escape(
            "line 1: unsupported matrix row: control | platform")):
        cc.load_matrix("process_planning | control | platform")


# ---------------------------------------------------------------------------
# Ownership
# ---------------------------------------------------------------------------

def _owner(m: mm.ModuleModel, ownership: cc.OwnershipMap | None = None):
    """path -> discipline in `m`: the path located, then its record owned."""
    find = mm.Resolver(m)
    owner = cc.owners(ownership or cc.default_ownership())
    return lambda path: owner(path, find.locate(path), m.id)


def test_discipline_of_longest_prefix():
    owner = _owner(_complete())
    assert owner("m/control/variables/i_s1") == "software"
    assert owner("m/control/io_mapping/0") == "electrical"
    assert owner("m/control/platform") == "electrical"
    assert owner("m/components/S1") == "mechanical"
    assert owner("m/interface/ports/input") == "logistics"
    assert owner("m/general/identification") == "logistics"


def test_documents_own_themselves():
    m = mm.new_module("m", "")
    m = mm.add_document(m, mm.DocumentReference(
        id="wiring", discipline="electrical", stage="electrical_eng"))
    owner = _owner(m)
    assert owner("m/documents/wiring") == "electrical"
    with pytest.raises(OwnershipError):
        owner("m/documents/nope")


def test_root_and_foreign_paths_are_not_ownable():
    owner = _owner(mm.new_module("m", ""))
    with pytest.raises(OwnershipError):
        owner("m")
    with pytest.raises(OwnershipError):
        owner("other/general")


def test_no_rule_covers_the_module_root_and_a_foreign_path_is_outside_the_module():
    m = fixture.tjunction_model()
    owner = _owner(m)
    with pytest.raises(OwnershipError, match="^no ownership rule covers 'tjunction-01'$"):
        owner("tjunction-01")
    with pytest.raises(OwnershipError,
                       match="^path 'other/general' is not inside module 'tjunction-01'$"):
        owner("other/general")
    linked = mm.add_cross_ref(m, "tjunction-01", "tjunction-01/general", "")
    with pytest.raises(OwnershipError, match="^no ownership rule covers 'tjunction-01'$"):
        cc.dependency_report(linked)
    table = ",".join(exchange.HEADER) + "\ntjunction-01,name,,,docX,\n"
    merged, violations = exchange.import_table(m, table.encode())
    assert merged is m
    assert [(v.rule_id, v.message) for v in violations] == [
        ("invalid-value", "no ownership rule covers 'tjunction-01'")]


def test_load_ownership_requires_full_coverage():
    with pytest.raises(OwnershipError, match="components"):
        cc.load_ownership("general | logistics\nstatus | software\nfunction | logistics\n"
                          "interface | logistics\ncontrol | software\n")
    with pytest.raises(OwnershipError, match="carpentry"):
        cc.load_ownership("general | carpentry")


def test_default_ownership_gives_every_element_one_owner():
    m = _complete()
    m = mm.add_document(m, mm.DocumentReference(
        id="wiring", discipline="electrical", stage="electrical_eng"))
    owner = _owner(m)
    paths = [path for _spec, path, _node in mm.walk(m) if path != m.id]
    assert len(paths) == len(set(paths))
    owners = {path: owner(path) for path in paths}
    assert set(owners.values()) <= set(mm.DISCIPLINES)
    assert owners["m/documents/wiring"] == "electrical"
    assert owners["m/components/S1"] == "mechanical"
    assert owners["m/control/io_mapping/0"] == "electrical"
    assert owners["m/control/variables/i_s1"] == "software"


def _recount(m: mm.ModuleModel, ownership: cc.OwnershipMap) -> tuple:
    """The workload counted one parameter at a time."""
    work = Counter({d: 0 for d in mm.DISCIPLINES})
    owner = _owner(m, ownership)
    for path, _name, value, _unit in mm.iter_parameters(m):
        if value != "":
            work[owner(path)] += 1
    return tuple(sorted(work.items()))


@pytest.mark.parametrize("m", [fixture.tjunction_model(), *map(random_model, range(20))],
                         ids=["fixture", *(f"random-{seed}" for seed in range(20))])
def test_the_workload_takes_each_owner_as_a_per_parameter_recount_does(m):
    default = cc.default_ownership()
    maps = [default]
    if m.components:
        name = m.components[-1].name
        maps.append(cc.OwnershipMap(default.rules + ((f"components/{name}", "electrical"),)))
    for ownership in maps:
        assert cc.dependency_report(m, ownership).workload == _recount(m, ownership)
    if len(maps) == 2:
        assert _recount(m, maps[0]) != _recount(m, maps[1])


def test_assign_document_last_write_wins_with_info():
    m = mm.new_module("m", "")
    m = mm.add_document(m, mm.DocumentReference(
        id="d1", discipline="mechanical", stage="mechanical_eng"))
    m, violations = cc.assign_document(m, "d1", "m/general")
    assert violations == []
    assert m.documents[0].assigned_element == "m/general"
    m, violations = cc.assign_document(m, "d1", "m/control")
    assert [v.rule_id for v in violations] == ["document-reassigned"]
    assert violations[0].severity == "info"
    assert m.documents[0].assigned_element == "m/control"


def test_assign_document_to_dangling_path_is_recorded_and_flagged():
    m = mm.new_module("m", "")
    m = mm.add_document(m, mm.DocumentReference(
        id="d1", discipline="mechanical", stage="mechanical_eng"))
    m, violations = cc.assign_document(m, "d1", "m/components/Gone")
    assert [v.rule_id for v in violations] == ["dangling-assignment"]
    assert m.documents[0].assigned_element == "m/components/Gone"


def test_assign_unknown_document_is_an_error():
    with pytest.raises(mm.ModelError, match="nope"):
        cc.assign_document(mm.new_module("m", ""), "nope", "m/general")


_D1 = mm.DocumentReference(id="d1", discipline="mechanical", stage="mechanical_eng")


@pytest.mark.parametrize("fields, error, message", [
    ({"discipline": "bogus"}, mm.ModelError,
     "invalid document reference discipline 'bogus'; "
     "expected one of mechanical, electrical, software, logistics, process"),
    ({"server_path": "bad\x01path"}, mm.ModelError,
     "document reference server_path must not contain the character U+0001, "
     "which XML cannot carry"),
    ({"server_path": "bad\rpath"}, mm.ModelError,
     "document reference server_path must not contain carriage returns"),
    ({"assigned_element": "m/bad path"}, PathError,
     "malformed path segment 'bad path' in 'm/bad path'"),
])
def test_documents_are_replaced_and_assigned_only_when_valid(fields, error, message):
    m = mm.add_document(mm.new_module("m", ""), _D1)
    bad = replace(_D1, **fields)
    with pytest.raises(error) as caught:
        mm.replace_document(m, bad)
    assert str(caught.value) == message
    with pytest.raises(error) as caught:
        cc.assign_document(replace(m, documents=(bad,)), "d1",
                           fields.get("assigned_element", "m/general"))
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Dependency report
# ---------------------------------------------------------------------------

def test_dependency_report_counts_by_owning_discipline():
    report = cc.dependency_report(_complete())
    assert report.total_refs == 4
    assert report.cells == (
        ("electrical", "software", 2),
        ("logistics", "mechanical", 1),
        ("mechanical", "software", 1),
    )
    assert report.fraction("electrical", "software") == pytest.approx(0.5)
    assert report.fraction("software", "electrical") == 0.0
    assert sum(n for _a, _b, n in report.cells) == report.total_refs


def test_dependency_report_decodes_each_endpoint_once(monkeypatch):
    m = fixture.tjunction_model()
    calls = []
    split_path = mm.split_path
    monkeypatch.setattr(mm, "split_path", lambda path: calls.append(path) or split_path(path))
    cc.dependency_report(m)
    assert len(m.cross_refs) > 0
    assert calls == [endpoint for ref in m.cross_refs for endpoint in (ref.source, ref.target)]


def test_dependency_report_fractions_sum_to_one():
    report = cc.dependency_report(_complete())
    total = sum(report.fraction(a, b) for a, b, _n in report.cells)
    assert total == pytest.approx(1.0)


def test_dependency_report_workload_covers_all_parameters():
    m = _complete()
    report = cc.dependency_report(m)
    assert [d for d, _n in report.workload] == [
        "electrical", "logistics", "mechanical", "process", "software"]
    assert sum(n for _d, n in report.workload) == report.total_params
    populated = sum(1 for _p, _n, value, _u in mm.iter_parameters(m) if value)
    assert report.total_params == populated
    assert report.workload_fraction("mechanical") > 0


def test_dependency_report_requires_resolvable_endpoints():
    m = mm.new_module("m", "")
    m = mm.add_cross_ref(m, "m", "m/general", "uses")
    with pytest.raises(OwnershipError):
        cc.dependency_report(m)


@pytest.mark.parametrize("source, target", [
    ("m/components/c 1", "m/general"), ("m/general", "m//general"), ("m/general", "")])
def test_dependency_report_rejects_a_malformed_endpoint_as_not_resolving(source, target):
    m = replace(_complete(), cross_refs=(mm.CrossReference(source, target, "x"),))
    with pytest.raises(OwnershipError, match="does not resolve"):
        cc.dependency_report(m)


@pytest.mark.parametrize("endpoint, dangles", [
    ("m/components/Nope", True),
    ("m/components/S1/nope", True),
    ("other/components/S1", True),
    ("m/components/S1/position", False),
    ("m/control/io_mapping/1", False),
    ("m/control/io_mapping/01", True),
    ("m/control/io_mapping/7", True),
])
def test_dependency_report_rejects_exactly_the_dangling_endpoints(endpoint, dangles):
    m = mm.add_cross_ref(_complete(), "m/general", endpoint, "uses")
    flagged = [v for v in cc.check_links(m) if v.rule_id == "dangling-target"]
    assert bool(flagged) == dangles
    if dangles:
        with pytest.raises(OwnershipError, match="does not resolve"):
            cc.dependency_report(m)
    else:
        assert cc.dependency_report(m).total_refs == len(m.cross_refs)


def test_empty_model_report_is_zero():
    report = cc.dependency_report(mm.new_module("m", ""))
    assert report.cells == ()
    assert report.total_refs == 0
    assert report.fraction("electrical", "software") == 0.0
