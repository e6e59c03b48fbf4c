"""The builders, the read path, the checks and the table exchange scale linearly.

Work is counted as Python line events (sys.settrace), not timed, so the test
does not depend on the machine: quadrupling the model size multiplies the
count by about 4 for linear code and by about 16 for quadratic code. Work
inside C functions is not counted: a quadratic cost that lives only there
(a tuple copy per row, a membership test over a `map` of keys per entry)
does not show here, and is left to the timings of `tools/layers.py`.
"""
from __future__ import annotations

import csv
import io
import sys

import pytest

from mfmkit import caex_io, exchange
from mfmkit import consistency as cc
from mfmkit import model as mm

from generators import sized_model

SMALL, LARGE = 100, 400
MAX_RATIO = 6


def _line_events(call) -> int:
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def _filled_table(m: mm.ModuleModel) -> bytes:
    """The missing-only request with its positions and io addresses filled
    in (the other requested cells stay requests), plus a new component type for
    every component and a document reassignment on every fifth."""
    request = csv.reader(io.StringIO(exchange.export_table(m, missing_only=True).decode()))
    rows = [exchange.HEADER]
    for path, parameter, _value, unit, doc, server in list(request)[1:]:
        value = {"logical_address": "%I9.9", "position": "(7,7,7)"}.get(parameter, "")
        rows.append((path, parameter, value, unit, doc, server))
    for i, component in enumerate(m.components):
        doc = m.documents[i % len(m.documents)].id if i % 5 == 0 else ""
        rows.append((f"{m.id}/components/{component.name}", "component_type", f"T{i}", "",
                     doc, ""))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode()


def _component_table(m: mm.ModuleModel, document) -> bytes:
    """A new type for every component, filed under document(i, component)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(exchange.HEADER)
    writer.writerows((f"{m.id}/components/{c.name}", "component_type", f"T{i}", "",
                      document(i), "") for i, c in enumerate(m.components))
    return buffer.getvalue().encode()


def _operations(n: int) -> dict:
    m = sized_model(n)
    doc = caex_io.parse(caex_io.serialize(caex_io.from_model(m)))
    table = _filled_table(m)
    new_documents = _component_table(m, lambda i: f"new-{i}")
    reassigned = _component_table(m, lambda i: m.documents[i % len(m.documents)].id)
    return {
        "builders (sized_model)": lambda: sized_model(n),
        "to_model": lambda: caex_io.to_model(doc),
        "check_links": lambda: cc.check_links(m),
        "check_completeness": lambda: cc.check_completeness(m, "control_hmi_eng"),
        "export_table --missing-only": lambda: exchange.export_table(m, missing_only=True),
        "import_table": lambda: exchange.import_table(m, table),
        "import_table new document per row": lambda: exchange.import_table(m, new_documents),
        "import_table reassign per row": lambda: exchange.import_table(m, reassigned),
    }


@pytest.fixture(scope="module")
def counts() -> dict:
    small, large = _operations(SMALL), _operations(LARGE)
    return {name: (_line_events(small[name]), _line_events(large[name])) for name in small}


@pytest.mark.parametrize("operation", [
    "builders (sized_model)", "to_model", "check_links", "check_completeness",
    "export_table --missing-only", "import_table", "import_table new document per row",
    "import_table reassign per row"])
def test_work_grows_linearly_with_model_size(counts, operation):
    small, large = counts[operation]
    assert large / small <= MAX_RATIO, f"{operation}: {small} -> {large} line events"


def test_sized_model_reads_back_and_has_cells_to_report():
    m = sized_model(16)
    assert caex_io.to_model(caex_io.parse(caex_io.serialize(caex_io.from_model(m))))[0] == m
    assert cc.check_links(m) == []
    cells = {"position", "logical_address"}

    def open_cells(model):
        return [v for v in cc.check_completeness(model, "control_hmi_eng") if v.parameter in cells]
    assert {v.parameter for v in open_cells(m)} == cells
    updated, violations = exchange.import_table(m, _filled_table(m))
    assert violations == []
    assert open_cells(updated) == []
    assert len(updated.control.io_mapping) == len(m.components)
    assert updated.documents[0].assigned_element == f"{m.id}/components/c10"
    updated, violations = exchange.import_table(m, _component_table(m, lambda i: f"new-{i}"))
    assert violations == []
    assert [d.assigned_element for d in updated.documents[len(m.documents):]] == [
        f"{m.id}/components/c{i}" for i in range(16)]
    updated, violations = exchange.import_table(
        m, _component_table(m, lambda i: m.documents[i % 2].id))
    assert violations == []
    assert [d.assigned_element for d in updated.documents] == [
        f"{m.id}/components/c14", f"{m.id}/components/c15"]
