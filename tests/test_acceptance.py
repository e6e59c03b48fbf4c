"""Release gate: the eight published checks, each timed against its budget.

Each test covers one acceptance check at its stated tolerance and prints one
PASS line with the measured runtime (visible with `pytest -s` or `-rA`; the
per-test PASSED/FAILED line in `pytest -v` is the pass/fail verdict).
"""
from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from dataclasses import replace

from generators import incident_references, random_model, removable_paths

from mfmkit import behavior, caex_io, exchange, fixture, mapping, sfc
from mfmkit import consistency as cc
from mfmkit import model as mm


@contextlib.contextmanager
def _budget(seconds: float, label: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, (
        f"FAIL {label}: {elapsed:.2f}s exceeded the {seconds:.0f}s budget")
    print(f"PASS {label}: {elapsed:.2f}s < {seconds:.0f}s")


# The three published table entries, frozen verbatim (typo included).
_PUBLISHED = {
    "Control.ControlFunction": (
        {"AutomationMLCSRoleClassLib", "ControlEquipment"},
        {"AutomationMLBaseInterface", "AttachmentInterface",
         "ExternalDataConnector.PLOpenXMLInterface"},
    ),
    "Function.LogisticFunction": (
        {"AutomationMLExtendedRoleClassLib"},
        {"AutomationMLBaseInterface", "AttachmentInterface",
         "ExternalDataConnector", "COLLADAInterface"},
    ),
    "General.Identification": (
        {"AutomationMLDMIRoleClassLib", "DiscManufacturingEquipment",
         "AutomationMLExtendedRoleClassLib"},
        {"AutomationMLInterfaceClassLib", "AutomationMLBaseInterface",
         "CommunicationInterfaceClassLib"},
    ),
}


def test_criterion_1_mapping_table_conformance():
    with _budget(1.0, "criterion 1: rule table matches the published sets"):
        table = mapping.default_table()
        assert {entry.class_path for entry in table.entries} == set(_PUBLISHED)
        for class_path, (roles, interfaces) in _PUBLISHED.items():
            entry = table.entry_for(class_path)
            assert frozenset(entry.permitted_roles) == frozenset(roles)
            assert frozenset(entry.permitted_interfaces) == frozenset(interfaces)
        for entry in table.entries:
            assert len(set(entry.permitted_roles)) == len(entry.permitted_roles)
            assert len(set(entry.permitted_interfaces)) == len(entry.permitted_interfaces)


def test_criterion_2_round_trip_suite():
    with _budget(10.0, "criterion 2: round trips are exact"):
        m = fixture.tjunction_model()
        data = caex_io.serialize(caex_io.from_model(m))
        assert caex_io.serialize(caex_io.parse(data)) == data
        rebuilt, structural = caex_io.to_model(caex_io.parse(data))
        assert structural == []
        assert rebuilt == m
        for seed in range(200):
            m = random_model(seed)
            rebuilt, structural = caex_io.to_model(caex_io.from_model(m))
            assert structural == []
            assert rebuilt == m
            updated, violations = exchange.import_table(m, exchange.export_table(m))
            assert violations == []
            assert updated == m


def test_criterion_3_link_integrity_property():
    with _budget(30.0, "criterion 3: deletions dangle exactly their incident refs"):
        for seed in range(500):
            m = random_model(seed)
            assert cc.check_links(m) == []
            targets = removable_paths(m)
            path = targets[seed % len(targets)]
            expected = sorted(incident_references(m, path))
            damaged = mm.remove_element(m, path)
            found = sorted((v.rule_id, v.element_path)
                           for v in cc.check_links(damaged))
            assert found == expected, f"seed {seed}, removed {path}"


def test_criterion_4_stage_completeness():
    with _budget(1.0, "criterion 4: stage gate catches the stripped stage"):
        m = fixture.tjunction_model()
        for stage in mm.STAGES:
            assert cc.check_completeness(m, stage) == []
        for index in range(len(m.control.io_mapping)):
            m = mm.set_parameter(m, f"{m.id}/control/io_mapping/{index}",
                                 "logical_address", "")
        m = mm.set_parameter(m, f"{m.id}/control/platform", "controller_type", "")
        m = mm.set_parameter(m, f"{m.id}/control/platform", "bus_coupler_type", "")
        violations = cc.check_completeness(m, "control_hmi_eng")
        flagged = {v.element_path for v in violations
                   if v.parameter == "logical_address"}
        assert flagged == {f"{m.id}/control/io_mapping/{i}" for i in range(8)}


def _physical_traces():
    """Every trace over the junction's alphabet, physically ordered.

    The order may arrive before or after the entry barrier fires; the entry
    barrier may clear before the exit barrier fires; the exit barrier may or
    may not clear at the end. 2 routes x 2 x 3 = 12 traces.
    """
    event = behavior.TraceEvent
    traces = []
    for port, exit_sensor in (("output_1", "LB_out1"), ("output_2", "LB_out2")):
        order = event("order", port)
        entry_on = event("sensor", "LB_in", True)
        for head in ([order, entry_on], [entry_on, order]):
            for tail in ([event("sensor", exit_sensor, True)],
                         [event("sensor", exit_sensor, True),
                          event("sensor", exit_sensor, False)],
                         [event("sensor", "LB_in", False),
                          event("sensor", exit_sensor, True)]):
                traces.append(head + tail)
    return traces


def test_criterion_5_behavior_pipeline_equivalence():
    with _budget(5.0, "criterion 5: graph walk and generated program agree"):
        model = fixture.tjunction_model()
        graph = behavior.parse_behavior(fixture.behavior_text())
        program = sfc.iml_to_sfc(behavior.to_iml(graph), model)
        traces = _physical_traces()
        assert len(traces) <= 12
        for trace in traces:
            walked = behavior.simulate(graph, trace)
            replayed = sfc.simulate_sfc(program, trace, model)
            assert walked == replayed, trace
        for name, expected in (
            ("route-1", ["activate Conv1", "deactivate Conv1"]),
            ("route-2", ["activate Conv1", "activate Conv2", "activate Switch",
                         "deactivate Conv1", "deactivate Conv2",
                         "deactivate Switch"]),
        ):
            trace = behavior.parse_trace(fixture.trace_text(name))
            walked = [behavior.format_event(a) for a in behavior.simulate(graph, trace)]
            assert walked == expected


def test_criterion_6_generated_plcopen_structure():
    with _budget(1.0, "criterion 6: generated program has the published shape"):
        model = fixture.tjunction_model()
        graph = behavior.parse_behavior(fixture.behavior_text())
        program = sfc.iml_to_sfc(behavior.to_iml(graph), model)
        assert len(program.steps) == 7
        assert len(program.transitions) == 6
        entry = [step.name for step in program.steps if step.initial]
        assert len(entry) == 1
        assert sfc.divergences(program) == ((entry[0], 2),)
        assert sfc.parse_plcopen(sfc.emit_plcopen(program)) == program


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "MFMKIT_RULES_DIR"}
    return subprocess.run([sys.executable, "-m", "mfmkit", *args],
                          capture_output=True, env=env)


def test_criterion_7_cli_contract(tmp_path):
    with _budget(5.0, "criterion 7: exit codes hold and output is stable"):
        clean = tmp_path / "clean.aml"
        clean.write_bytes(caex_io.serialize(caex_io.from_model(
            fixture.tjunction_model())))

        clean_model = fixture.tjunction_model()
        functions = tuple(
            replace(f, annotation=mm.Annotation(roles=("DiscManufacturingEquipment",)))
            if f.name == "route" else f for f in clean_model.control.control_functions)
        tampered_model = replace(
            clean_model, control=replace(clean_model.control, control_functions=functions))
        tampered = tmp_path / "tampered.aml"
        tampered.write_bytes(caex_io.serialize(caex_io.from_model(tampered_model)))

        blanked_model = mm.set_parameter(
            fixture.tjunction_model(),
            f"{fixture.FIXTURE_ID}/control/platform", "controller_type", "")
        blanked = tmp_path / "blanked.aml"
        blanked.write_bytes(caex_io.serialize(caex_io.from_model(blanked_model)))

        assert _cli("validate", str(clean)).returncode == 0
        assert _cli("validate", str(tampered)).returncode == 1
        assert _cli("complete-check", str(blanked),
                    "--stage", "electrical_eng").returncode == 1
        assert _cli("validate", str(tmp_path / "missing.aml")).returncode == 2

        for args in (("validate", str(tampered), "--format", "structured"),
                     ("report", str(clean))):
            first, second = _cli(*args), _cli(*args)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode


def test_criterion_8_dependency_report_sanity():
    with _budget(1.0, "criterion 8: dependency shares normalize and rank"):
        report = cc.dependency_report(fixture.tjunction_model())
        assert report.total_refs > 0
        assert sum(count for _s, _t, count in report.cells) == report.total_refs
        assert sum(count / report.total_refs
                   for _s, _t, count in report.cells) == 1.0
        off_diagonal = [(count, source, target)
                        for source, target, count in report.cells
                        if source != target]
        _count, source, target = max(off_diagonal)
        assert {source, target} == {"electrical", "software"}
