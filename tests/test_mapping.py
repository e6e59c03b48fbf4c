"""Role/interface rule table and assignment validation."""
from __future__ import annotations

import pytest

from mfmkit import mapping
from mfmkit import model as mm
from mfmkit.mapping import (
    KIND_ILLEGAL_INTERFACE,
    KIND_ILLEGAL_ROLE,
    KIND_MISSING_ROLE,
    MappingRuleTable,
    RuleEntry,
    RuleTableError,
)

# The published assignments, frozen. validate_assignments and the CLI both
# hinge on these identifier sets staying exact, typos included.
PUBLISHED = {
    "Control.ControlFunction": (
        {"AutomationMLBaseInterface", "AttachmentInterface",
         "ExternalDataConnector.PLOpenXMLInterface"},
        {"AutomationMLCSRoleClassLib", "ControlEquipment"},
    ),
    "Function.LogisticFunction": (
        {"AutomationMLBaseInterface", "AttachmentInterface",
         "ExternalDataConnector", "COLLADAInterface"},
        {"AutomationMLExtendedRoleClassLib"},
    ),
    "General.Identification": (
        {"AutomationMLInterfaceClassLib", "AutomationMLBaseInterface",
         "CommunicationInterfaceClassLib"},
        {"AutomationMLDMIRoleClassLib", "DiscManufacturingEquipment",
         "AutomationMLExtendedRoleClassLib"},
    ),
}


def test_default_table_matches_published_sets():
    table = mapping.default_table()
    assert {e.class_path for e in table.entries} == set(PUBLISHED)
    for class_path, (interfaces, roles) in PUBLISHED.items():
        entry = table.entry_for(class_path)
        assert frozenset(entry.permitted_interfaces) == frozenset(interfaces)
        assert frozenset(entry.permitted_roles) == frozenset(roles)


def test_not_covered_class_is_none_not_empty():
    table = mapping.default_table()
    assert table.entry_for("Interface.Port") is None
    assert table.entry_for("Module") is None


def test_every_entry_has_both_sides():
    for entry in mapping.default_table().entries:
        assert entry.permitted_roles
        assert entry.permitted_interfaces


def test_save_load_closure():
    table = mapping.default_table()
    assert mapping.load_table(mapping.save_table(table)) == table


def test_save_load_closure_with_custom_entry():
    table = MappingRuleTable(entries=(
        RuleEntry("Interface.Port", ("PortInterface",), ("PortRole",)),
    ))
    assert mapping.load_table(mapping.save_table(table)) == table


def test_load_table_rejects_malformed_line():
    with pytest.raises(RuleTableError, match="line 1"):
        mapping.load_table("Control.ControlFunction role ControlEquipment")


def test_load_table_rejects_unknown_kind():
    with pytest.raises(RuleTableError, match="gadget"):
        mapping.load_table("A -> gadget : X\nA -> role : R\nA -> iface : I")


def test_load_table_rejects_one_sided_entry():
    with pytest.raises(RuleTableError, match="at least one role and one interface"):
        mapping.load_table("A -> role : OnlyRoles")


def test_load_table_ignores_comments_and_blank_lines():
    text = "# comment\n\nA -> role : R\nA -> iface : I\n"
    table = mapping.load_table(text)
    assert table.entries == (RuleEntry("A", ("I",), ("R",)),)


def test_load_table_deduplicates_identifiers():
    table = mapping.load_table("A -> role : R\nA -> role : R\nA -> iface : I\n")
    assert table.entries[0].permitted_roles == ("R",)


# ---------------------------------------------------------------------------
# Class paths
# ---------------------------------------------------------------------------

def _populated() -> mm.ModuleModel:
    m = mm.new_module("m", "M")
    m = mm.set_identification(m, name="M", identifier="M-1", module_type="demo")
    m = mm.add_runtime_variable(m, "mode", "INT")
    m = mm.add_logistic_function(m, "transport", "material_flow")
    m = mm.add_route(m, "a", "b", 0)
    m = mm.add_port(m, "a", "in")
    m = mm.add_interaction_space(m, "s", "(0,0,0)", "(1,1,1)")
    m = mm.add_control_function(m, "run", "SFC")
    m = mm.add_variable(m, "i_x", "BOOL", "input")
    m = mm.add_io_entry(m, "m/components/X", "%I0.0", "i_x", "BOOL", "input")
    m = mm.add_component(m, mm.Component(name="X", kind="sensor"))
    m = mm.add_document(m, mm.DocumentReference(
        id="d1", discipline="mechanical", stage="mechanical_eng"))
    return m


def test_class_path_of_known_paths():
    m = _populated()
    expected = {
        "m": "Module",
        "m/general/identification": "General.Identification",
        "m/status/runtime_variables/mode": "Status.RuntimeVariable",
        "m/function/logistic_functions/transport": "Function.LogisticFunction",
        "m/function/routes/0": "Function.Route",
        "m/interface/ports/a": "Interface.Port",
        "m/interface/interaction_spaces/s": "Interface.InteractionSpace",
        "m/control/control_functions/run": "Control.ControlFunction",
        "m/control/variables/i_x": "Control.Variable",
        "m/control/io_mapping/0": "Control.IoMapEntry",
        "m/control/platform": "Control.Platform",
        "m/components/X": "Component",
        "m/documents/d1": "Document",
    }
    for path, class_path in expected.items():
        assert mapping.class_path_of(m, path) == class_path, path


# ---------------------------------------------------------------------------
# Assignment validation
# ---------------------------------------------------------------------------

def _annotated() -> mm.ModuleModel:
    """_populated() with legal roles on every covered populated element."""
    m = _populated()
    m = mm.with_roles(m, "m/general/identification", "DiscManufacturingEquipment")
    m = mm.with_roles(m, "m/function/logistic_functions/transport",
                      "AutomationMLExtendedRoleClassLib")
    m = mm.with_roles(m, "m/control/control_functions/run", "ControlEquipment")
    return m


def test_empty_model_validates_clean():
    assert mapping.validate_assignments(mm.new_module("m", "")) == []


def test_legal_assignment_passes():
    m = _annotated()
    m = mm.with_external_ref(m, "m/control/control_functions/run", mm.ExternalRef(
        "plcopen", "ExternalDataConnector.PLOpenXMLInterface", "srv://c"))
    assert mapping.validate_assignments(m) == []


def test_illegal_role_is_reported():
    m = _annotated()
    m = mm.with_roles(m, "m/control/control_functions/run", "ConveyorEquipment")
    violations = mapping.validate_assignments(m)
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == KIND_ILLEGAL_ROLE
    assert v.element_path == "m/control/control_functions/run"
    assert v.found_identifier == "ConveyorEquipment"
    assert set(v.permitted) == {"AutomationMLCSRoleClassLib", "ControlEquipment"}


def test_illegal_interface_is_reported():
    m = _annotated()
    m = mm.with_external_ref(m, "m/function/logistic_functions/transport", mm.ExternalRef(
        "link", "ProfinetInterface", "srv://x"))
    violations = mapping.validate_assignments(m)
    assert [v.kind for v in violations] == [KIND_ILLEGAL_INTERFACE]
    assert violations[0].found_identifier == "ProfinetInterface"


def test_missing_role_only_for_populated_elements():
    m = _populated()
    violations = mapping.validate_assignments(m)
    paths = {(v.element_path, v.kind) for v in violations}
    assert paths == {
        ("m/general/identification", KIND_MISSING_ROLE),
        ("m/function/logistic_functions/transport", KIND_MISSING_ROLE),
        ("m/control/control_functions/run", KIND_MISSING_ROLE),
    }


def test_annotation_alone_counts_as_populated():
    m = mm.new_module("m", "")
    m = mm.add_control_function(m, "idle")
    m = mm.with_external_ref(m, "m/control/control_functions/idle", mm.ExternalRef(
        "attachment", "AttachmentInterface", "srv://doc"))
    kinds = sorted(v.kind for v in mapping.validate_assignments(m))
    assert kinds == [KIND_MISSING_ROLE]


def test_uncovered_annotated_classes_are_listed_once():
    m = _annotated()
    m = mm.with_roles(m, "m/interface/ports/a", "PortRole")
    m = mm.with_roles(m, "m", "AutomationMLBaseRoleClassLib")
    m = mm.with_external_ref(m, "m/general", mm.ExternalRef(
        "collada", "COLLADAInterface", "srv://layout"))
    assert mapping.uncovered_classes(m) == ["General", "Interface.Port", "Module"]
    # annotations outside the table never produce assignment violations
    assert all(
        v.element_path not in {"m", "m/interface/ports/a", "m/general"}
        for v in mapping.validate_assignments(m))


def test_validation_against_custom_table():
    table = mapping.load_table("Interface.Port -> role : PortRole\nInterface.Port -> iface : P\n")
    m = _annotated()
    m = mm.with_roles(m, "m/interface/ports/a", "SomethingElse")
    violations = mapping.validate_assignments(m, table)
    assert [(v.element_path, v.kind) for v in violations] == [
        ("m/interface/ports/a", KIND_ILLEGAL_ROLE)]
