"""The mfmkit command: exit codes, determinism, and output formats."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from mfmkit import caex_io, cli, exchange, fixture, sfc
from mfmkit import model as mm


def run(*args: str, cwd: str | None = None,
        env_extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "MFMKIT_RULES_DIR"}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "mfmkit", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


def run_bytes(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "MFMKIT_RULES_DIR"}
    return subprocess.run([sys.executable, "-m", "mfmkit", *args],
                          capture_output=True, env=env)


def _tampered_model() -> mm.ModuleModel:
    """The demo model with the roles of control function `route` replaced
    by one its rule-table class does not permit."""
    m = fixture.tjunction_model()
    functions = tuple(
        replace(f, annotation=replace(f.annotation, roles=("DiscManufacturingEquipment",)))
        if f.name == "route" else f for f in m.control.control_functions)
    return replace(m, control=replace(m.control, control_functions=functions))


def _stripped_model() -> mm.ModuleModel:
    m = fixture.tjunction_model()
    for index in range(len(m.control.io_mapping)):
        m = mm.set_parameter(m, f"{m.id}/control/io_mapping/{index}",
                             "logical_address", "")
    m = mm.set_parameter(m, f"{m.id}/control/platform", "controller_type", "")
    return mm.set_parameter(m, f"{m.id}/control/platform", "bus_coupler_type", "")


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> dict[str, str]:
    """One example directory plus tampered/stripped variants, built once."""
    root = tmp_path_factory.mktemp("cli")
    demo = root / "demo"
    result = run("init-example", str(demo))
    assert result.returncode == 0, result.stderr

    def save(name: str, model: mm.ModuleModel) -> str:
        target = root / name
        target.write_bytes(caex_io.serialize(caex_io.from_model(model)))
        return str(target)

    paths = {
        "root": str(root),
        "demo": str(demo),
        "model": str(demo / "model.aml"),
        "behavior": str(demo / "behavior.bhv"),
        "route1": str(demo / "traces" / "route-1.trace"),
        "route2": str(demo / "traces" / "route-2.trace"),
        "tampered": save("tampered.aml", _tampered_model()),
        "stripped": save("stripped.aml", _stripped_model()),
        "empty": save("empty.aml", mm.new_module("empty-1", "Empty")),
    }

    dangling = mm.add_cross_ref(fixture.tjunction_model(),
                                "tjunction-01/components/Ghost",
                                "tjunction-01/general", "uses")
    paths["dangling"] = save("dangling.aml", dangling)
    # a component position the tolerant reader must drop and report
    data = caex_io.serialize(caex_io.from_model(fixture.tjunction_model()))
    at = data.index(b"<Value>(0,0,400)</Value>", data.index(b'Name="LB_in"'))
    unreadable = root / "unreadable.aml"
    unreadable.write_bytes(data[:at] + b"<Value>not-a-triple</Value>"
                           + data[at + len(b"<Value>(0,0,400)</Value>"):])
    paths["unreadable"] = str(unreadable)

    request = exchange.export_table(
        _stripped_model(), stage="electrical_eng", missing_only=True)
    original = {f"tjunction-01/control/io_mapping/{i}": entry.logical_address
                for i, entry in enumerate(fixture.tjunction_model().control.io_mapping)}
    rows = list(csv.reader(io.StringIO(request.decode("utf-8"))))
    for row in rows[1:]:
        if row[1] == "logical_address":
            row[2] = original[row[0]]
        elif row[1] == "controller_type":
            row[2] = "S7-1500"
        elif row[1] == "bus_coupler_type":
            row[2] = "ET200SP"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    filled = root / "filled.csv"
    filled.write_text(buffer.getvalue(), "utf-8")
    paths["filled"] = str(filled)
    return paths


# ---------------------------------------------------------------------------
# Scaffolding and validation
# ---------------------------------------------------------------------------

def test_init_example_writes_a_self_consistent_set(work):
    for name in ("model.aml", "behavior.bhv", "rules.txt", "coverage_matrix.txt",
                 "ownership.txt", "traces/route-1.trace", "traces/route-2.trace"):
        assert os.path.exists(os.path.join(work["demo"], name)), name
    result = run("validate", work["model"])
    assert result.returncode == 0, result.stdout + result.stderr


def test_init_example_refuses_nonempty_dir_without_force(work):
    result = run("init-example", work["demo"])
    assert result.returncode == 2
    assert "not empty" in result.stderr
    assert run("init-example", work["demo"], "--force").returncode == 0


def test_validate_reports_illegal_role(work):
    result = run("validate", work["tampered"])
    assert result.returncode == 1
    assert "illegal_role" in result.stdout
    assert "DiscManufacturingEquipment" in result.stdout


def test_validate_reports_a_missing_role_in_both_formats(tmp_path, capsys):
    m = fixture.tjunction_model()
    functions = tuple(replace(f, annotation=replace(f.annotation, roles=()))
                      if f.name == "route" else f for f in m.control.control_functions)
    m = replace(m, control=replace(m.control, control_functions=functions))
    path = tmp_path / "unassigned.aml"
    path.write_bytes(caex_io.serialize(caex_io.from_model(m)))
    permitted = ["AutomationMLCSRoleClassLib", "ControlEquipment"]
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{path}: ERROR missing_role tjunction-01/control/control_functions/route: "
        f"no role assigned; permitted: {', '.join(permitted)}")
    assert cli.main(["validate", str(path), "--format", "structured"]) == 1
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (record["rule"], record["found"], record["permitted"]) == (
        "missing_role", "", permitted)


def test_validate_missing_file_fails_operationally(work):
    result = run("validate", os.path.join(work["root"], "nope.aml"))
    assert result.returncode == 2
    assert "cannot read" in result.stderr


def test_validate_unparsable_file(work):
    bad = os.path.join(work["root"], "bad.aml")
    with open(bad, "w") as handle:
        handle.write("<CAEXFile><broken>")
    assert run("validate", bad).returncode == 2


def test_validate_many_files_orders_output_by_argument(work):
    result = run("validate", work["tampered"], work["model"])
    assert result.returncode == 1
    first = result.stdout.index(work["tampered"])
    second = result.stdout.index(work["model"])
    assert first < second


def test_structured_validate_emits_json_lines(work):
    result = run("validate", work["tampered"], "--format", "structured")
    records = [json.loads(line) for line in result.stdout.splitlines()]
    kinds = {r["record"] for r in records}
    assert kinds == {"violation", "note"}
    illegal = [r for r in records if r.get("rule") == "illegal_role"]
    assert illegal[0]["found"] == "DiscManufacturingEquipment"
    assert illegal[0]["severity"] == "error"


def test_complete_check_gate(work):
    assert run("complete-check", work["model"],
               "--stage", "control_hmi_eng").returncode == 0
    result = run("complete-check", work["stripped"], "--stage", "control_hmi_eng")
    assert result.returncode == 1
    addressed = [line for line in result.stdout.splitlines()
                 if "logical_address" in line]
    assert len(addressed) == 8
    assert run("complete-check", work["model"], "--stage", "wiring").returncode == 2


UNREADABLE_WARNING = ("WARNING invalid-value tjunction-01/components/LB_in: "
                      "not a triple: 'not-a-triple'")


def _warning_records(stdout: str) -> list[dict]:
    return [r for r in map(json.loads, stdout.splitlines())
            if r["record"] == "violation" and r["severity"] == "warning"]


def test_complete_check_reports_reader_warnings_first(work):
    result = run("complete-check", work["unreadable"], "--stage", "control_hmi_eng")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"{work['unreadable']}: {UNREADABLE_WARNING}"
    assert "component LB_in has no position" in lines[1]

    result = run("complete-check", work["unreadable"], "--stage", "control_hmi_eng",
                 "--format", "structured")
    assert result.returncode == 1
    warnings = _warning_records(result.stdout)
    assert [(w["rule"], w["path"]) for w in warnings] == [
        ("invalid-value", "tjunction-01/components/LB_in")]
    assert json.loads(result.stdout.splitlines()[0]) == warnings[0]


def test_reader_warnings_do_not_set_the_exit_code(work):
    result = run("link-check", work["unreadable"])
    assert result.returncode == 0
    assert result.stdout == f"{work['unreadable']}: {UNREADABLE_WARNING}\n"


def test_validate_warns_of_a_parameter_in_another_unit(work, tmp_path):
    with open(work["model"], "rb") as handle:
        data = handle.read()
    at = data.index(b'Unit="mm"', data.index(b'Name="LB_in"'))
    target = tmp_path / "cm.aml"
    target.write_bytes(data[:at] + b'Unit="cm"' + data[at + len(b'Unit="mm"'):])
    result = run("validate", str(target))
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == (
        f"{target}: WARNING invalid-value tjunction-01/components/LB_in: "
        "component position has unit 'cm'; expected 'mm'")


def test_link_check(work):
    assert run("link-check", work["model"]).returncode == 0
    result = run("link-check", work["dangling"])
    assert result.returncode == 1
    assert "dangling-source" in result.stdout


# ---------------------------------------------------------------------------
# Generation and simulation
# ---------------------------------------------------------------------------

def test_gen_plcopen_writes_a_reparseable_skeleton(work, tmp_path):
    out = tmp_path / "skeleton.xml"
    result = run("gen-plcopen", work["model"], work["behavior"], "-o", str(out))
    assert result.returncode == 0
    program = sfc.parse_plcopen(out.read_bytes())
    assert len(program.steps) == 7
    assert len(program.transitions) == 6
    assert sfc.divergences(program) == (("1.0", 2),)


def test_gen_plcopen_structured_record(work, tmp_path):
    out = tmp_path / "skeleton.xml"
    result = run("gen-plcopen", work["model"], work["behavior"],
                 "-o", str(out), "--format", "structured")
    record = json.loads(result.stdout)
    assert record == {"record": "plcopen", "out": str(out), "steps": 7,
                      "transitions": 6, "divergences": [["1.0", 2]]}


def test_gen_plcopen_binding_failure(work, tmp_path):
    bad = tmp_path / "bad.bhv"
    bad.write_text('step a "idle"\nstep b "go" do activate Ghost\nedge a -> b\n')
    result = run("gen-plcopen", work["model"], str(bad), "-o", str(tmp_path / "s.xml"))
    assert result.returncode == 1
    assert "no io_mapping entry binds actuator 'Ghost'" in result.stdout


@pytest.mark.parametrize("text, line", [
    ('graph tj\x01x\nstep a "idle"\n', 1),
    ('step a "idle"\nstep b "go" when order \u00e9\x01\nedge a -> b\n', 2),
])
def test_gen_plcopen_rejects_a_character_xml_cannot_carry(work, tmp_path, text, line):
    bad = tmp_path / "bad.bhv"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "s.xml"
    result = run("gen-plcopen", work["model"], str(bad), "-o", str(out))
    assert result.returncode == 2
    assert result.stderr.endswith(
        f"line {line}: the character U+0001 is not allowed, XML cannot carry it\n")
    assert not out.exists()


def test_gen_plcopen_unwritable_output(work):
    result = run("gen-plcopen", work["model"], work["behavior"],
                 "-o", "/nonexistent-dir/s.xml")
    assert result.returncode == 2
    assert "cannot write" in result.stderr


def test_simulate_routes(work):
    result = run("simulate", work["model"], work["behavior"], work["route1"])
    assert result.returncode == 0
    assert result.stdout == "activate Conv1\ndeactivate Conv1\n"
    result = run("simulate", work["model"], work["behavior"], work["route2"])
    assert result.stdout == ("activate Conv1\nactivate Conv2\nactivate Switch\n"
                             "deactivate Conv1\ndeactivate Conv2\ndeactivate Switch\n")


def test_simulate_lists_every_event_of_a_looped_trace_in_both_formats(work, tmp_path):
    graph = tmp_path / "looped.bhv"
    with open(work["behavior"], encoding="utf-8") as source:
        graph.write_text(source.read() + "loop 1.3 -> 1.0\nloop 2.3 -> 1.0\n")
    trace = tmp_path / "looped.trace"
    trace.write_text("order output_1\n" + "sensor LB_in on\nsensor LB_in off\n"
                     "sensor LB_out1 on\nsensor LB_out1 off\n" * 20)
    result = run("simulate", work["model"], str(graph), str(trace))
    assert result.returncode == 0
    assert result.stdout == "activate Conv1\ndeactivate Conv1\n" * 20
    result = run("simulate", work["model"], str(graph), str(trace), "--format", "structured")
    assert result.returncode == 0
    assert result.stdout == (
        '{"kind": "activate", "record": "event", "subject": "Conv1"}\n'
        '{"kind": "deactivate", "record": "event", "subject": "Conv1"}\n') * 20


def test_simulate_ambiguity_is_a_finding(work, tmp_path):
    graph = tmp_path / "fork.bhv"
    graph.write_text('step a "idle"\n'
                     'step b "left" when LB_in on\n'
                     'step c "right" when LB_in on\n'
                     "edge a -> b\nedge a -> c\n")
    trace = tmp_path / "fork.trace"
    trace.write_text("sensor LB_in on\n")
    result = run("simulate", work["model"], str(graph), str(trace))
    assert result.returncode == 1
    assert "ambiguous branch at step a" in result.stdout


def test_simulate_unbound_trace_subject_is_a_finding(work, tmp_path):
    trace = tmp_path / "ghost.trace"
    trace.write_text("sensor LB_zzz on\n")
    for fmt in ("text", "structured"):
        result = run("simulate", work["model"], work["behavior"], str(trace), "--format", fmt)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "unbound-subject" in result.stdout
        assert "LB_zzz" in result.stdout


def test_simulate_with_a_graph_that_does_not_bind_reports_it_and_no_event(
        work, tmp_path, capsys):
    graph = tmp_path / "ghost.bhv"
    graph.write_text('step a "idle"\nstep b "go" do activate Ghost\nedge a -> b\n')
    assert cli.main(["simulate", work["model"], str(graph), work["route1"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"{graph}: ERROR unbound-subject tjunction-01: no io_mapping entry "
                            "binds actuator 'Ghost' to an output variable\n")
    assert captured.err == ""


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_simulate_reports_a_program_that_drops_an_action_as_a_mismatch(work, fmt, capsys):
    replay = sfc.simulate_sfc

    def dropping(program, trace, model):
        return replay(program, trace, model)[:-1]

    with mock.patch.object(sfc, "simulate_sfc", dropping):
        code = cli.main(["simulate", work["model"], work["behavior"], work["route2"],
                         "--format", fmt])
    assert code == 1
    out = capsys.readouterr().out
    assert "pipeline-mismatch" in out
    assert "graph walk and generated program emit different event sequences" in out


def test_simulate_keeps_reader_warnings_out_of_the_event_list(work):
    result = run("simulate", work["unreadable"], work["behavior"], work["route1"])
    assert result.returncode == 0
    assert result.stdout == "activate Conv1\ndeactivate Conv1\n"
    assert result.stderr == f"{work['unreadable']}: {UNREADABLE_WARNING}\n"


def test_simulate_bad_trace_is_operational(work, tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("sensor LB_in maybe\n")
    assert run("simulate", work["model"], work["behavior"], str(trace)).returncode == 2


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_export_table_stdout_matches_library(work):
    result = run_bytes("export-table", work["stripped"],
                       "--stage", "electrical_eng", "--missing-only")
    assert result.returncode == 0
    expected = exchange.export_table(
        _stripped_model(), stage="electrical_eng", missing_only=True)
    assert result.stdout == expected


def test_export_table_bad_selector(work):
    result = run("export-table", work["model"], "--stage", "electrical_eng",
                 "--cls", "control")
    assert result.returncode == 2
    assert "mutually exclusive" in result.stderr


def test_import_table_restores_the_fixture_bytes(work, tmp_path):
    merged = tmp_path / "merged.aml"
    result = run("import-table", work["stripped"], work["filled"], "-o", str(merged))
    assert result.returncode == 0
    with open(work["model"], "rb") as handle:
        assert merged.read_bytes() == handle.read()


def test_import_table_reports_skipped_rows(work, tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text(
        "element_path,parameter_name,value,unit,document_name,document_path\n"
        "tjunction-01/components/Ghost,component_type,X,,,\n", "utf-8")
    merged = tmp_path / "merged.aml"
    result = run("import-table", work["model"], str(table), "-o", str(merged))
    assert result.returncode == 1
    assert "unknown element path" in result.stdout
    assert merged.exists()


def test_import_table_rejects_a_value_xml_cannot_carry(work, tmp_path):
    rows = list(csv.reader(io.StringIO(
        run_bytes("export-table", work["model"]).stdout.decode("utf-8"))))
    rows[1][2] = "bad\x01value"
    table = tmp_path / "t.csv"
    with open(table, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    merged = tmp_path / "merged.aml"
    result = run("import-table", work["model"], str(table), "-o", str(merged))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stdout.count("invalid-value") == 1
    assert "U+0001" in result.stdout
    assert run("validate", str(merged)).returncode == 0


def test_import_table_reports_reader_warnings(work, tmp_path):
    merged = tmp_path / "merged.aml"
    result = run("import-table", work["unreadable"], work["filled"], "-o", str(merged))
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert result.stdout == f"{work['unreadable']}: {UNREADABLE_WARNING}\n"
    restored, _warnings = caex_io.to_model(caex_io.parse(merged.read_bytes()))
    assert mm.resolve(restored, "tjunction-01/components/LB_in/position") == ""

    result = run("import-table", work["unreadable"], work["filled"], "-o", str(merged),
                 "--format", "structured")
    assert result.returncode == 0
    assert [(w["rule"], w["path"], w["file"]) for w in _warning_records(result.stdout)] == [
        ("invalid-value", "tjunction-01/components/LB_in", work["unreadable"])]


def test_export_table_sends_reader_warnings_to_stderr(work):
    result = run_bytes("export-table", work["unreadable"])
    assert result.returncode == 0
    assert result.stdout.startswith(b"element_path,")
    assert result.stderr.decode("utf-8") == f"{work['unreadable']}: {UNREADABLE_WARNING}\n"


def test_import_table_wrong_header_is_operational(work, tmp_path):
    table = tmp_path / "wrong.csv"
    table.write_text("a,b,c\n", "utf-8")
    result = run("import-table", work["model"], str(table),
                 "-o", str(tmp_path / "m.aml"))
    assert result.returncode == 2
    assert "wrong header" in result.stderr


@pytest.mark.parametrize("cell", [b"RAL\r5010", b"x" * 131_073],
                         ids=["carriage return", "oversized"])
def test_import_table_a_table_csv_cannot_read_is_operational(work, tmp_path, cell):
    table = tmp_path / "malformed.csv"
    table.write_bytes(
        ",".join(exchange.HEADER).encode() + b"\nm/general,color," + cell + b",,,\n")
    merged = tmp_path / "m.aml"
    result = run("import-table", work["model"], str(table), "-o", str(merged))
    assert result.returncode == 2
    assert result.stderr.startswith(f"mfmkit: {table}: malformed table: ")
    assert "Traceback" not in result.stderr
    assert not merged.exists()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def test_report_text(work):
    result = run("report", work["model"])
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "  electrical -> software: 8 (0.320)" in lines
    assert "  total: 25" in lines


DEMO_REPORT = """\
dependencies (cross-references between disciplines):
  electrical -> software: 8 (0.320)
  logistics -> mechanical: 6 (0.240)
  logistics -> software: 2 (0.080)
  mechanical -> electrical: 3 (0.120)
  mechanical -> mechanical: 2 (0.080)
  mechanical -> software: 3 (0.120)
  software -> electrical: 1 (0.040)
  total: 25
workload (populated parameters per discipline):
  electrical: 42 (0.316)
  logistics: 18 (0.135)
  mechanical: 43 (0.323)
  process: 0 (0.000)
  software: 30 (0.226)
  total: 133
"""


def test_report_text_on_demo_is_pinned(work, capsys):
    assert cli.main(["report", work["model"]]) == 0
    assert capsys.readouterr().out == DEMO_REPORT


def test_report_structured_normalizes_to_one(work):
    result = run("report", work["model"], "--format", "structured")
    records = [json.loads(line) for line in result.stdout.splitlines()]
    cells = [r for r in records if r["record"] == "dependency"]
    assert sum(r["refs"] for r in cells) == 25
    assert sum(r["share"] for r in cells) == pytest.approx(1.0)
    assert max(cells, key=lambda r: r["refs"])["source"] == "electrical"
    assert max(cells, key=lambda r: r["refs"])["target"] == "software"
    summary = [r for r in records if r["record"] == "summary"]
    assert summary == [{"record": "summary", "total_refs": 25,
                        "total_params": summary[0]["total_params"]}]


def test_report_empty_model_notes_no_references(work):
    result = run("report", work["empty"])
    assert result.returncode == 0
    assert "no references" in result.stdout


def test_report_dangling_endpoint_is_a_finding(work):
    result = run("report", work["dangling"])
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == (
        f"{work['dangling']}: ERROR unownable-endpoint tjunction-01: cross-reference "
        "endpoint 'tjunction-01/components/Ghost' does not resolve\n")
    result = run("report", work["dangling"], "--format", "structured")
    assert result.returncode == 1
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["record"], r["rule"]) for r in records] == [("violation", "unownable-endpoint")]


def test_report_bad_ownership_map_is_operational(work, tmp_path):
    bad = tmp_path / "ownership.txt"
    bad.write_text("general | logistics\n", "utf-8")
    result = run("report", work["model"], "--ownership", str(bad))
    assert result.returncode == 2
    assert "bad ownership map" in result.stderr


# ---------------------------------------------------------------------------
# Contract-wide properties
# ---------------------------------------------------------------------------

EXIT_RULE_COMMANDS = ("validate", "link-check", "complete-check", "gen-plcopen", "simulate",
                      "import-table", "report", "export-table")


def _exit_rule_runs(work: dict, tmp_path, command: str) -> list[tuple[list[str], str]]:
    """The runs of `command` on the demo set, on the model with a reader
    warning, and on a copy damaged to give the command an error finding
    (export-table reports nothing but reader warnings, so it has none)."""
    unbound = tmp_path / "unbound.bhv"
    unbound.write_text('step a "idle"\nstep b "go" do activate Ghost\nedge a -> b\n')
    ghost = tmp_path / "ghost.trace"
    ghost.write_text("sensor LB_zzz on\n")
    table = tmp_path / "bad.csv"
    table.write_text(
        "element_path,parameter_name,value,unit,document_name,document_path\n"
        "tjunction-01/components/Ghost,component_type,X,,,\n", "utf-8")
    out = str(tmp_path / "out")
    runs = {  # command: (arguments after the model, the damaged run's model and arguments)
        "validate": ([], [work["tampered"]]),
        "link-check": ([], [work["dangling"]]),
        "complete-check": (["--stage", "control_hmi_eng"],
                           [work["stripped"], "--stage", "control_hmi_eng"]),
        "gen-plcopen": ([work["behavior"], "-o", out], [work["model"], str(unbound), "-o", out]),
        "simulate": ([work["behavior"], work["route1"]],
                     [work["model"], work["behavior"], str(ghost)]),
        "import-table": ([work["filled"], "-o", out], [work["model"], str(table), "-o", out]),
        "report": ([], [work["dangling"]]),
        "export-table": (["-o", out], [work["unreadable"], "-o", out]),
    }
    given, damaged = runs[command]
    return [([command, work["model"], *given], "clean"),
            ([command, work["unreadable"], *given], "warned"),
            ([command, *damaged], "damaged")]


@pytest.mark.parametrize("command", EXIT_RULE_COMMANDS)
def test_a_command_exits_1_exactly_when_it_reports_an_error_finding(
        work, tmp_path, capsys, command):
    for argv, kind in _exit_rule_runs(work, tmp_path, command):
        structured = argv if command == "export-table" else [*argv, "--format", "structured"]
        code = cli.main(structured)
        captured = capsys.readouterr()
        records = [json.loads(line) for line in (captured.out + captured.err).splitlines()
                   if line.startswith("{")]
        severities = {record.get("severity") for record in records}
        assert code == (1 if "error" in severities else 0), (argv, captured)
        if kind == "damaged":
            assert code == (0 if command == "export-table" else 1), (argv, captured)
        elif kind == "warned" and command != "export-table":
            assert "warning" in severities, (argv, captured)


def test_outputs_are_byte_identical_across_runs(work):
    for args in (("validate", work["tampered"], "--format", "structured"),
                 ("report", work["model"]),
                 ("complete-check", work["stripped"], "--stage", "control_hmi_eng")):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_rules_dir_env_var_supplies_defaults(work, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("Control.ControlFunction -> role : OnlyThis\n"
                     "Control.ControlFunction -> iface : OnlyThat\n", "utf-8")
    result = run("validate", work["model"],
                 env_extra={"MFMKIT_RULES_DIR": str(tmp_path)})
    assert result.returncode == 1
    assert "illegal_role" in result.stdout
    assert run("validate", work["model"]).returncode == 0


@pytest.mark.parametrize("flag, filename, command, label", [
    ("--rules", "rules.txt", ("validate",), "bad rule table"),
    ("--matrix", "coverage_matrix.txt", ("complete-check", "--stage", "control_hmi_eng"),
     "bad coverage matrix"),
    ("--ownership", "ownership.txt", ("report",), "bad ownership map"),
])
def test_a_config_file_comes_from_the_flag_then_the_rules_dir_then_the_embedded_data(
        work, tmp_path, monkeypatch, capsys, flag, filename, command, label):
    (tmp_path / filename).write_text("nonsense\n", "utf-8")
    shipped = os.path.join(work["demo"], filename)  # init-example writes the embedded file

    def outcome(*extra: str, rules_dir: str | None = None):
        if rules_dir is None:
            monkeypatch.delenv("MFMKIT_RULES_DIR", raising=False)
        else:
            monkeypatch.setenv("MFMKIT_RULES_DIR", rules_dir)
        code = cli.main([*command, work["stripped"], *extra])
        out, err = capsys.readouterr()
        return code, out, err

    embedded = outcome()
    assert embedded[0] in (0, 1) and embedded[2] == ""
    assert outcome(rules_dir=str(tmp_path / "absent")) == embedded
    assert outcome(rules_dir=work["demo"]) == embedded
    code, _out, err = outcome(rules_dir=str(tmp_path))
    assert code == 2 and err.startswith(f"mfmkit: {label}: ")
    assert outcome(flag, shipped, rules_dir=str(tmp_path)) == embedded
    code, _out, err = outcome(flag, str(tmp_path / filename), rules_dir=work["demo"])
    assert code == 2 and err.startswith(f"mfmkit: {label}: ")


def test_deeply_nested_file_is_operational_without_traceback(tmp_path):
    deep = tmp_path / "deep.aml"
    deep.write_bytes(b'<?xml version="1.0" encoding="utf-8"?>\n<CAEXFile>'
                     b'<InstanceHierarchy Name="h">' + b'<InternalElement Name="e">' * 3000
                     + b"</InternalElement>" * 3000 + b"</InstanceHierarchy></CAEXFile>\n")
    result = run("validate", str(deep))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "nested deeper than" in result.stderr


def test_unknown_subcommand_is_operational():
    assert run("frobnicate").returncode == 2


def test_a_child_of_a_leaf_element_is_operational(work, tmp_path):
    data = Path(work["model"]).read_bytes()
    role = b'<RoleRequirements RefBaseRoleClassPath="ControlEquipment"/>'
    assert role in data
    leaf = tmp_path / "leaf.aml"
    leaf.write_bytes(data.replace(role, role[:-2] + b'><Attribute Name="lost">'
                                  b"<Value>v</Value></Attribute></RoleRequirements>", 1))
    result = run("validate", str(leaf))
    assert result.returncode == 2
    assert "unsupported element <Attribute> in RoleRequirements" in result.stderr
    assert "Traceback" not in result.stderr


def test_import_table_may_write_over_its_input(work, tmp_path):
    model = tmp_path / "m.aml"
    model.write_bytes(Path(work["stripped"]).read_bytes())
    result = run("import-table", str(model), work["filled"], "-o", str(model))
    assert result.returncode == 0, result.stderr
    assert model.read_bytes() == Path(work["model"]).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.aml"]


@pytest.mark.parametrize("command", ["gen-plcopen", "export-table", "import-table",
                                     "init-example"])
def test_a_failed_write_leaves_no_temp_file(work, tmp_path, command):
    # a directory where the output file should go: the temp file is written,
    # then renaming it over the directory fails
    target = tmp_path / "out"
    (target / "model.aml").mkdir(parents=True)
    args = {
        "gen-plcopen": ("gen-plcopen", work["model"], work["behavior"], "-o", str(target)),
        "export-table": ("export-table", work["model"], "-o", str(target)),
        "import-table": ("import-table", work["stripped"], work["filled"], "-o", str(target)),
        "init-example": ("init-example", str(target), "--force"),
    }[command]
    result = run(*args)
    assert result.returncode == 2
    assert "cannot write" in result.stderr and "Traceback" not in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in target.iterdir()] == ["model.aml"]
    assert not any((target / "model.aml").iterdir())


@pytest.mark.parametrize("below", ["", "sub"])
def test_init_example_into_a_file_is_operational(tmp_path, capsys, below):
    existing = tmp_path / "file"
    existing.write_bytes(b"kept")
    target = existing / below if below else existing
    assert cli.main(["init-example", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"mfmkit: cannot write into {target}: ")
    assert existing.read_bytes() == b"kept"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("command", ["gen-plcopen", "export-table", "import-table"])
def test_an_output_that_is_a_directory_is_operational(work, tmp_path, capsys, command):
    # in process, so that the removal of the temp file is seen to run
    target = tmp_path / "out"
    target.mkdir()
    args = {
        "gen-plcopen": ["gen-plcopen", work["model"], work["behavior"]],
        "export-table": ["export-table", work["model"]],
        "import-table": ["import-table", work["stripped"], work["filled"]],
    }[command]
    assert cli.main([*args, "-o", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"mfmkit: cannot write {target}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert not any(target.iterdir())


def test_an_overwritten_output_keeps_its_permissions(work, tmp_path):
    out = tmp_path / "table.csv"
    out.write_bytes(b"old")
    out.chmod(0o600)
    assert run("export-table", work["model"], "-o", str(out)).returncode == 0
    assert out.read_bytes() != b"old"
    assert out.stat().st_mode & 0o777 == 0o600


def test_a_matrix_with_a_malformed_parameter_is_unusable(work, tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("process_planning | general | a b\n", "utf-8")
    for command in (("complete-check", work["model"], "--stage", "control_hmi_eng"),
                    ("export-table", work["model"], "--stage", "process_planning")):
        assert cli.main([*command, "--matrix", str(matrix)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "mfmkit: bad coverage matrix: line 1: malformed parameter name 'a b'\n")


def test_an_unsupported_matrix_row_is_rejected_at_load_whatever_the_stage(
        work, tmp_path, capsys):
    with open(os.path.join(work["demo"], "coverage_matrix.txt"), encoding="utf-8") as file:
        shipped = file.read()
    matrix = tmp_path / "bad.txt"
    matrix.write_text(shipped + "control_hmi_eng | control | platform\n", "utf-8")
    line = len(shipped.splitlines()) + 1
    commands = [("complete-check", work["model"], "--stage", stage) for stage in mm.STAGES]
    commands += [("export-table", work["model"], *stage)
                 for stage in ((), ("--stage", "mechanical_eng"), ("--stage", "control_hmi_eng"))]
    commands.append(("export-table", work["model"], "--missing-only"))
    for command in commands:
        assert cli.main([*command, "--matrix", str(matrix)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"mfmkit: bad coverage matrix: line {line}: "
            "unsupported matrix row: control | platform\n"), command
