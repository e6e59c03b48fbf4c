"""The six-column parameter table: export, request, merge, and its closures."""
from __future__ import annotations

import csv
import io
from dataclasses import replace

import pytest
from generators import sized_model

from mfmkit import consistency as cc
from mfmkit import caex_io, exchange, fixture
from mfmkit import model as mm
from mfmkit.exchange import HEADER, ExchangeError

REQUEST_AFTER_ELECTRICAL_STRIP = """\
element_path,parameter_name,value,unit,document_name,document_path
tjunction-01/control/io_mapping/0,logical_address,,,,
tjunction-01/control/io_mapping/1,logical_address,,,,
tjunction-01/control/io_mapping/2,logical_address,,,,
tjunction-01/control/io_mapping/3,logical_address,,,,
tjunction-01/control/io_mapping/4,logical_address,,,,
tjunction-01/control/io_mapping/5,logical_address,,,,
tjunction-01/control/io_mapping/6,logical_address,,,,
tjunction-01/control/io_mapping/7,logical_address,,,,
tjunction-01/control/platform,bus_coupler_type,,,,
tjunction-01/control/platform,controller_type,,,,
"""


def _table(*rows: tuple[str, ...]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _strip_electrical(m: mm.ModuleModel) -> mm.ModuleModel:
    for index in range(len(m.control.io_mapping)):
        m = mm.set_parameter(
            m, f"{m.id}/control/io_mapping/{index}", "logical_address", "")
    m = mm.set_parameter(m, f"{m.id}/control/platform", "controller_type", "")
    return mm.set_parameter(m, f"{m.id}/control/platform", "bus_coupler_type", "")


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_header_row_is_fixed():
    data = exchange.export_table(fixture.tjunction_model())
    first = data.decode("utf-8").splitlines()[0]
    assert first == ",".join(HEADER)


def test_rows_are_sorted_by_path_then_parameter():
    data = exchange.export_table(fixture.tjunction_model())
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    keys = [(r[0], r[1]) for r in records]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_empty_model_exports_header_only():
    data = exchange.export_table(mm.new_module("e", "Empty"))
    assert data == b"element_path,parameter_name,value,unit,document_name,document_path\n"


def test_conv1_type_row():
    data = exchange.export_table(fixture.tjunction_model())
    lines = data.decode("utf-8").splitlines()
    assert "tjunction-01/components/Conv1,component_type,P100,,," in lines


def test_plain_export_skips_empty_values():
    data = exchange.export_table(_strip_electrical(fixture.tjunction_model()))
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    assert all(r[2] for r in records)


def test_values_with_commas_quotes_and_newlines_are_quoted():
    m = mm.new_module("m", "Mini")
    m = mm.add_static_attribute(m, "note", 'a,b "c"\nd')
    data = exchange.export_table(m)
    assert b'"a,b ""c""\nd"' in data
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    row = [r for r in records if r[1] == "note"]
    assert row[0][2] == 'a,b "c"\nd'


def test_export_is_deterministic():
    m = fixture.tjunction_model()
    assert exchange.export_table(m) == exchange.export_table(m)


def test_document_columns_name_the_assigned_document():
    data = exchange.export_table(fixture.tjunction_model())
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    by_cell = {(r[0], r[1]): r for r in records}
    row = by_cell[("tjunction-01/general", "main_dimensions")]
    assert row[4] == "layout-3d"
    assert row[5] == "srv://docs/layout/tjunction.dae"
    unassigned = by_cell[("tjunction-01/components/Conv1", "latency")]
    assert (unassigned[4], unassigned[5]) == ("", "")


def test_stage_view_lists_that_stages_cells():
    data = exchange.export_table(fixture.tjunction_model(), stage="electrical_eng")
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    parameters = sorted({r[1] for r in records})
    assert parameters == ["bus_coupler_type", "component_type",
                          "controller_type", "logical_address"]
    assert len(records) == 20


def test_stage_view_reads_attributes_and_skips_child_elements():
    m = mm.add_static_attribute(mm.new_module("m", ""), "width", "120", "mm")
    m = mm.add_component(m, mm.Component(name="S1", latency="0.5"))
    m = mm.add_component(m, mm.Component(name="A1"))
    matrix = cc.load_matrix("process_planning | general | width\n"
                            "process_planning | general | height\n"
                            "process_planning | general | identification\n"
                            "process_planning | components/* | latency\n")
    data = exchange.export_table(m, stage="process_planning", matrix=matrix)
    assert data.decode("utf-8").splitlines()[1:] == [
        "m/components/S1,latency,0.5,s,,", "m/general,width,120,mm,,"]


def test_class_filter_keeps_one_subtree():
    data = exchange.export_table(fixture.tjunction_model(), cls="components")
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    assert records
    assert all(r[0].startswith("tjunction-01/components/") for r in records)


def test_selector_validation():
    m = fixture.tjunction_model()
    with pytest.raises(ExchangeError, match="mutually exclusive"):
        exchange.export_table(m, stage="electrical_eng", cls="control")
    with pytest.raises(ExchangeError, match="unknown stage"):
        exchange.export_table(m, stage="wiring")
    with pytest.raises(ExchangeError, match="unknown class filter"):
        exchange.export_table(m, cls="widgets")
    with pytest.raises(ExchangeError, match="select by stage"):
        exchange.export_table(m, cls="control", missing_only=True)


def test_missing_only_request_after_electrical_strip():
    m = _strip_electrical(fixture.tjunction_model())
    data = exchange.export_table(m, stage="electrical_eng", missing_only=True)
    assert data.decode("utf-8") == REQUEST_AFTER_ELECTRICAL_STRIP


def test_missing_only_defaults_to_the_final_stage():
    m = _strip_electrical(fixture.tjunction_model())
    assert exchange.export_table(m, missing_only=True) == exchange.export_table(
        m, stage="control_hmi_eng", missing_only=True)


def test_request_rows_carry_units_and_documents():
    m = fixture.tjunction_model()
    m = mm.set_parameter(m, f"{m.id}/general", "main_dimensions", "")
    data = exchange.export_table(m, stage="mechanical_eng", missing_only=True)
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    assert records == [["tjunction-01/general", "main_dimensions", "", "mm",
                        "layout-3d", "srv://docs/layout/tjunction.dae"]]


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------

def test_full_round_trip_is_identity():
    m = fixture.tjunction_model()
    updated, violations = exchange.import_table(m, exchange.export_table(m))
    assert violations == []
    assert updated == m


def test_import_is_idempotent():
    m = _strip_electrical(fixture.tjunction_model())
    table = _table(
        (f"{m.id}/control/platform", "controller_type", "S7-1500", "", "", ""))
    once, _ = exchange.import_table(m, table)
    twice, violations = exchange.import_table(once, table)
    assert twice == once
    assert violations == []


def test_filled_request_restores_completeness():
    original = fixture.tjunction_model()
    stripped = _strip_electrical(original)
    request = exchange.export_table(stripped, stage="electrical_eng", missing_only=True)
    addresses = {f"{original.id}/control/io_mapping/{i}": entry.logical_address
                 for i, entry in enumerate(original.control.io_mapping)}
    filled = []
    for record in csv.reader(io.StringIO(request.decode("utf-8"))):
        if record[1] == "logical_address":
            record[2] = addresses[record[0]]
        elif record[1] == "controller_type":
            record[2] = "S7-1500"
        elif record[1] == "bus_coupler_type":
            record[2] = "ET200SP"
        filled.append(record)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(filled)
    merged, violations = exchange.import_table(stripped, buffer.getvalue().encode("utf-8"))
    assert violations == []
    assert cc.check_completeness(merged, "control_hmi_eng") == []
    assert merged == original


def test_empty_value_is_a_request_not_a_write():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/Conv1", "component_type", "", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    assert updated == m


def test_unknown_path_skips_only_that_row():
    m = fixture.tjunction_model()
    table = _table(
        (f"{m.id}/components/Ghost", "component_type", "X1", "", "", ""),
        (f"{m.id}/components/Conv1", "component_type", "P200", "", "", ""),
    )
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("unknown-element", f"{m.id}/components/Ghost")]
    assert mm.resolve(updated, f"{m.id}/components/Conv1/component_type") == "P200"


def test_malformed_path_skips_only_that_row():
    m = fixture.tjunction_model()
    table = _table(
        ("not a path!", "name", "x", "", "", ""),
        (f"{m.id}/components/Conv1", "component_type", "P200", "", "", ""),
    )
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("unknown-path", "not a path!")]
    assert mm.resolve(updated, f"{m.id}/components/Conv1/component_type") == "P200"


def test_unknown_parameter_is_one_violation():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/Conv1", "torque", "5", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.parameter) for v in violations] == [
        ("unknown-parameter", "torque")]
    assert updated == m


def test_invalid_value_is_one_violation():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/Conv1", "latency", "fast", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.parameter) for v in violations] == [("invalid-value", "latency")]
    assert updated == m


def test_parameter_path_is_not_an_element():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/Conv1/latency", "latency", "0.2", "", "", ""))
    _updated, violations = exchange.import_table(m, table)
    assert [v.rule_id for v in violations] == ["unknown-element"]


def test_general_grows_requested_attributes():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/general", "color", "RAL5010", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    assert mm.resolve(updated, f"{m.id}/general/color") == "RAL5010"


def test_wrong_header_rejected():
    m = fixture.tjunction_model()
    with pytest.raises(ExchangeError, match="wrong header"):
        exchange.import_table(m, b"path,name,value\n")
    with pytest.raises(ExchangeError, match="wrong header"):
        exchange.import_table(m, b"")


def test_short_row_rejected():
    m = fixture.tjunction_model()
    data = _table() + b"a,b,c\n"
    with pytest.raises(ExchangeError, match="row 2: expected 6 columns, found 3"):
        exchange.import_table(m, data)


#: Tables the csv module cannot read: a lone carriage return in an unquoted
#: cell, and a cell over its field limit of 131 072 characters.
MALFORMED_TABLES = {
    "lone carriage return": (
        _table() + b"m/general,color,RAL\r5010,,,\n",
        "malformed table: row 2: carriage return inside an unquoted cell"),
    "oversized cell": (
        _table() + b"m/general,color," + b"x" * 131_073 + b",,,\n",
        "malformed table: row 2: cell longer than 131072 characters"),
}


@pytest.mark.parametrize("case", MALFORMED_TABLES)
def test_a_table_the_csv_module_cannot_read_is_rejected(case):
    data, message = MALFORMED_TABLES[case]
    with pytest.raises(ExchangeError) as caught:
        exchange.import_table(fixture.tjunction_model(), data)
    assert str(caught.value) == message


def test_a_csv_error_names_the_record_as_the_row_messages_do():
    # the quoted cell spans two lines, so the bad cell is on line 4 of row 3
    data = (_table(("m/general", "note", "two\nlines", "", "", "")) + b"m/general,color,"
            + b"x" * 131_073 + b",,,\n")
    with pytest.raises(ExchangeError) as caught:
        exchange.import_table(fixture.tjunction_model(), data)
    assert str(caught.value) == "malformed table: row 3: cell longer than 131072 characters"


def test_non_utf8_rejected():
    with pytest.raises(ExchangeError, match="not UTF-8"):
        exchange.import_table(fixture.tjunction_model(), b"\xff\xfe\x00a")


def test_crlf_and_bom_are_tolerated():
    m = _strip_electrical(fixture.tjunction_model())
    table = _table(
        (f"{m.id}/control/platform", "controller_type", "S7-1500", "", "", ""))
    crlf = b"\xef\xbb\xbf" + table.replace(b"\n", b"\r\n")
    updated, violations = exchange.import_table(m, crlf)
    assert violations == []
    assert mm.resolve(updated, f"{m.id}/control/platform/controller_type") == "S7-1500"


def test_document_created_with_inferred_discipline():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/Conv1", "component_type", "P100", "",
                    "datasheet-p100", "srv://docs/parts/p100.pdf"))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    created = [d for d in updated.documents if d.id == "datasheet-p100"]
    assert created == [mm.DocumentReference(
        id="datasheet-p100", discipline="mechanical", stage="mechanical_eng",
        server_path="srv://docs/parts/p100.pdf",
        assigned_element=f"{m.id}/components/Conv1")]


def test_document_refreshed_by_name():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/general", "main_dimensions", "", "",
                    "layout-3d", "srv://docs/layout/tjunction-v2.dae"))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    doc = [d for d in updated.documents if d.id == "layout-3d"][0]
    assert doc.server_path == "srv://docs/layout/tjunction-v2.dae"
    assert doc.assigned_element == f"{m.id}/general"
    assert doc.discipline == "mechanical"


@pytest.mark.parametrize("doc_path, message", [
    ("bad\x01path", "document reference server_path must not contain the character U+0001, "
                    "which XML cannot carry"),
    ("bad\rpath", "document reference server_path must not contain carriage returns"),
])
def test_a_document_refresh_the_file_cannot_carry_applies_nothing(doc_path, message):
    m = fixture.tjunction_model()
    # a carriage return survives only in a quoted cell
    row = f'{m.id}/components/Conv1,component_type,X,,layout-3d,"{doc_path}"\n'
    table = _table() + row.encode()
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.element_path, v.message) for v in violations] == [
        ("invalid-value", f"{m.id}/components/Conv1", message)]
    assert updated == m
    data = caex_io.serialize(caex_io.from_model(updated))
    assert caex_io.to_model(caex_io.parse(data))[0] == m


def test_document_path_without_name_skips_the_whole_row():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/Conv1", "component_type", "P300", "",
                    "", "srv://docs/parts/p300.pdf"))
    updated, violations = exchange.import_table(m, table)
    assert [v.rule_id for v in violations] == ["invalid-value"]
    assert updated == m


def test_filling_an_unmapped_component_creates_its_io_entry():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="EndStop", kind="sensor",
                                         component_type="LG5"))
    request = exchange.export_table(m, stage="electrical_eng", missing_only=True)
    lines = request.decode("utf-8").splitlines()
    assert "m/components/EndStop,logical_address,,,," in lines
    table = _table(("m/components/EndStop", "logical_address", "%I0.9", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    assert updated.control.io_mapping == (mm.IoMapEntry(
        component_path="m/components/EndStop", logical_address="%I0.9",
        variable_name="i_endstop", data_type="BOOL", direction="input"),)
    assert mm.resolve(updated, "m/control/variables/i_endstop") is not None
    again, _ = exchange.import_table(updated, table)
    assert again == updated


def test_io_entry_rows_apply_whole_or_not_at_all():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.add_component(m, mm.Component(name="S2", kind="sensor"))
    table = _table(
        ("m/components/S1", "logical_address", "%I0.0", "", "bad/doc", ""),
        ("m/components/S1", "logical_address", "%I0.1", "", "", ""),
        ("m/components/S2", "kind", "conveyor", "", "", ""),
        ("m/components/S2", "logical_address", "%I0.2", "", "", ""),
    )
    # a carriage return survives only in a quoted cell
    table = table.replace(b"\n", b'\nm/components/S1,logical_address,"%I0.0\rx",,,\n', 1)
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.parameter) for v in violations] == [
        ("invalid-value", "logical_address"), ("invalid-value", ""),
        ("unknown-parameter", "logical_address")]
    assert [e.logical_address for e in updated.control.io_mapping] == ["%I0.1"]
    assert mm.resolve(updated, "m/components/S2/kind") == "conveyor"


def test_moving_an_io_entry_unmaps_its_old_component():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    m = mm.add_component(m, mm.Component(name="S2", kind="sensor"))
    m = mm.add_io_entry(m, "m/components/S1", "%I0.0", "", "BOOL", "input")
    table = _table(
        ("m/control/io_mapping/0", "component_path", "m/components/S2", "", "", ""),
        ("m/components/S1", "logical_address", "%I0.1", "", "", ""),
        ("m/components/S2", "logical_address", "%I0.2", "", "", ""),
    )
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("unknown-parameter", "m/components/S2")]
    assert [(e.component_path, e.logical_address) for e in updated.control.io_mapping] == [
        ("m/components/S2", "%I0.0"), ("m/components/S1", "%I0.1")]


def test_a_component_path_row_on_general_adds_a_static_attribute():
    m = mm.new_module("m", "Mini")
    table = _table(("m/general", "component_path", "x", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    assert updated.general.static_attributes == (mm.Parameter("component_path", "x"),)


def test_a_parameter_row_with_an_unusable_document_applies_nothing():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    table = _table(
        ("m/general", "colour", "red", "", "bad/doc", ""),
        ("m/components/S1", "position", "(1,2,3)", "", "", "layout.pdf"),
        ("m/components/S1", "component_type", "X", "", "D1", "//d1"),
    )
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.element_path) for v in violations] == [
        ("invalid-value", "m/general"), ("invalid-value", "m/components/S1")]
    assert updated.general.static_attributes == ()
    assert mm.resolve(updated, "m/components/S1/position") == ""
    assert mm.resolve(updated, "m/components/S1/component_type") == "X"
    assert [(d.id, d.assigned_element) for d in updated.documents] == [("D1", "m/components/S1")]


@pytest.mark.parametrize("text", ["1_0", " 7", "+4", "٥", "007"])
def test_a_table_row_with_a_non_canonical_route_priority_is_rejected(text):
    m = mm.new_module("m", "Mini")
    m = mm.add_port(m, "a", "in", "")
    m = mm.add_port(m, "b", "out", "")
    m = mm.add_route(m, "a", "b", 3)
    table = _table(("m/function/routes/0", "priority", text, "", "", ""),
                   ("m/function/routes/0", "to_port", "a", "", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.parameter) for v in violations] == [("invalid-value", "priority")]
    assert updated.function.routes == (mm.Route("a", "a", 3),)


def test_a_row_in_a_unit_other_than_its_cells_is_skipped():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/LB_in", "position", "(1,2,3)", "cm", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.element_path, v.parameter, v.message) for v in violations] == [
        ("invalid-value", f"{m.id}/components/LB_in", "position",
         "component position has unit 'cm'; expected 'mm'")]
    assert updated == m


def test_a_row_equal_to_an_invalid_stored_value_is_still_checked():
    # a row that changes nothing stores nothing, but only after its value passed
    m = fixture.tjunction_model()
    bad = replace(m, components=(replace(m.components[0], position="(1,2)"),) + m.components[1:])
    table = _table((f"{m.id}/components/{m.components[0].name}", "position", "(1,2)", "", "", ""))
    updated, violations = exchange.import_table(bad, table)
    assert [(v.rule_id, v.parameter, v.message) for v in violations] == [
        ("invalid-value", "position", "not a triple: '(1,2)'")]
    assert updated == bad


@pytest.mark.parametrize("unit", ["mm", ""])
def test_a_row_in_its_cells_unit_or_with_no_unit_applies(unit):
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/components/LB_in", "position", "(1,2,3)", unit, "", ""))
    updated, violations = exchange.import_table(m, table)
    assert violations == []
    assert mm.resolve(updated, f"{m.id}/components/LB_in/position") == "(1,2,3)"


def test_a_new_attribute_takes_the_rows_unit():
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/general", "width", "5", "kg", "", ""),
                   (f"{m.id}/general", "width", "6", "g", "", ""))
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.message) for v in violations] == [
        ("invalid-value", "general description width has unit 'g'; expected 'kg'")]
    assert updated.general.static_attributes[-1] == mm.Parameter("width", "5", "kg")
    assert b'Name="width" DataType="xs:string" Unit="kg"' in caex_io.serialize(
        caex_io.from_model(updated))


def test_a_unit_on_a_new_io_entrys_address_is_rejected():
    m = mm.new_module("m", "Mini")
    m = mm.add_component(m, mm.Component(name="S1", kind="sensor"))
    updated, violations = exchange.import_table(
        m, _table(("m/components/S1", "logical_address", "%I0.0", "V", "", "")))
    assert [(v.rule_id, v.message) for v in violations] == [
        ("invalid-value", "component logical_address has unit 'V'; expected none")]
    assert updated == m


def test_an_import_decodes_each_rows_element_path_once(monkeypatch):
    m = fixture.tjunction_model()
    component = f"{m.id}/components/{m.components[0].name}"
    table = _table((component, "component_type", "T9", "", "", ""),
                   (component, "position", "(1,2,3)", "mm", "", ""),
                   (component, "no_such_parameter", "1", "", "", ""),
                   (f"{component}/position", "x", "1", "", "", ""),
                   (f"{m.id}/components/Ghost", "kind", "sensor", "", "", ""),
                   (f"{m.id}/general", "colour", "red", "", "", ""),
                   (f"{m.id}/control/platform", "controller_type", "PLC-2", "", "", ""))
    calls = []
    split_path = mm.split_path
    monkeypatch.setattr(mm, "split_path", lambda path: calls.append(path) or split_path(path))
    _updated, violations = exchange.import_table(m, table)
    assert len(violations) == 3
    assert calls == [row[0] for row in csv.reader(io.StringIO(table.decode()))][1:]


def test_rows_repeated_on_nested_elements_and_lists_merge_as_set_parameter_writes_them():
    m = sized_model(40)
    component = m.components[0].name
    rows = [(f"{m.id}/general", "main_dimensions", "(7,8,9)", "mm", "", ""),
            (f"{m.id}/general/identification", "name", "Renamed", "", "", ""),
            (f"{m.id}/control/platform", "controller_type", "CX", "", "", ""),
            (f"{m.id}/general", "colour", "red", "", "", ""),
            (f"{m.id}/components/{component}", "position", "(1,2,3)", "mm", "", "")]
    expected = m
    for path, name, value, _unit, _doc, _server in rows:
        expected = mm.set_parameter(expected, path, name, value)
    for repeats in (1, 20):
        merged, violations = exchange.import_table(m, _table(*rows * repeats))
        assert violations == [] and merged == expected


def test_a_request_takes_its_units_from_the_completeness_check(monkeypatch):
    m = sized_model(40)
    for component in m.components[:3]:
        for name in ("position", "component_type"):
            m = mm.set_parameter(m, f"{m.id}/components/{component.name}", name, "")
    m = mm.set_parameter(m, f"{m.id}/general", "main_dimensions", "")
    find = mm.Resolver(m)
    expected = [HEADER]
    for violation in cc.check_completeness(m, mm.STAGES[-1]):
        found = find.locate(violation.element_path)
        # structural demands (a cross reference, a list entry) are not requested
        if (violation.parameter == "sensor_actuator_refs"
                or violation.parameter in mm.CHILDREN[found.spec.path]):
            continue
        cell = found.is_element and mm.cell(found.spec, found.node, violation.parameter)
        expected.append((violation.element_path, violation.parameter, "",
                         cell[1] if cell else "", "", ""))
    calls = []
    split_path = mm.split_path
    monkeypatch.setattr(mm, "split_path", lambda path: calls.append(path) or split_path(path))
    request = exchange.export_table(m, missing_only=True)
    assert calls == []
    rows = [tuple(row) for row in csv.reader(io.StringIO(request.decode()))]
    docs = {doc.assigned_element: doc for doc in reversed(m.documents) if doc.assigned_element}
    assert rows[0] == HEADER and len(rows) == len(expected)
    assert rows[1:] == sorted(
        (path, name, value, unit, docs[path].id if path in docs else "",
         docs[path].server_path if path in docs else "")
        for path, name, value, unit, _doc, _server in expected[1:])
    assert {unit for _path, _name, _value, unit, _doc, _server in rows[1:]} == {"", "mm"}


def test_a_request_leaves_out_the_demands_no_row_can_fill():
    m = fixture.tjunction_model()
    m = replace(
        m, cross_refs=tuple(r for r in m.cross_refs if "/Conv1" not in r.source + r.target),
        interface=replace(m.interface, ports=()), function=replace(m.function, routes=()))
    assert {(v.element_path, v.parameter) for v in cc.check_completeness(m, mm.STAGES[-1])} == {
        (f"{m.id}/components/Conv1", "sensor_actuator_refs"), (f"{m.id}/interface", "ports")}
    request = exchange.export_table(m, missing_only=True)
    rows = list(csv.reader(io.StringIO(request.decode("utf-8"))))
    filled = _table(*((path, name, "x", *rest) for path, name, _value, *rest in rows[1:]))
    _merged, violations = exchange.import_table(m, filled)
    assert not {v.rule_id for v in violations} & {
        cc.RULE_UNKNOWN_PARAMETER, cc.RULE_UNKNOWN_ELEMENT}
    assert rows == [list(HEADER)]


def test_a_new_attributes_unwritable_value_reads_the_same_with_or_without_a_unit():
    m = fixture.tjunction_model()
    outcomes = []
    for unit in ("kg", ""):
        table = _table((f"{m.id}/general", "newattr", "a\x01b", unit, "", ""))
        updated, violations = exchange.import_table(m, table)
        assert updated == m
        outcomes.append([(v.rule_id, v.parameter, v.message) for v in violations])
    assert outcomes[0] == outcomes[1]
    assert [outcome[:2] for outcome in outcomes[0]] == [("invalid-value", "newattr")]


@pytest.mark.parametrize("element, parameter, unit, message", [
    ("components/LB_in", "position", "cm", "component position has unit 'cm'; expected 'mm'"),
    ("general", "weight", "g", "general description weight has unit 'g'; expected 'kg'"),
], ids=["parameter", "attribute"])
def test_a_wrong_unit_is_reported_before_an_unwritable_value(element, parameter, unit, message):
    m = fixture.tjunction_model()
    table = _table((f"{m.id}/{element}", parameter, "a\x01b", unit, "", ""))
    updated, violations = exchange.import_table(m, table)
    assert [(v.rule_id, v.message) for v in violations] == [("invalid-value", message)]
    assert updated == m
