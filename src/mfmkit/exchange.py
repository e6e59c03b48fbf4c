"""Tabular parameter exchange: request missing values, merge filled tables.

Engineers without model tooling receive a six-column CSV (element_path,
parameter_name, value, unit, document_name, document_path), fill in the value
and document cells, and send it back. export_table produces the request or a
dump of the current values; import_table merges a completed table into the
model, reporting every row it could not apply as a violation.

An empty value cell means "still requested" throughout: plain exports list
only filled parameters (so a dump never reads as a request), missing_only
exports list only empty ones, and import skips empty values rather than
blanking anything (deletion is out of scope for the table workflow).
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import replace
from functools import partial

from . import model as mm
from .consistency import (
    RULE_INVALID_VALUE,
    RULE_UNKNOWN_ELEMENT,
    RULE_UNKNOWN_PARAMETER,
    RULE_UNKNOWN_PATH,
    SEVERITY_ERROR,
    OwnershipError,
    OwnershipMap,
    StageCoverageMatrix,
    Violation,
    default_matrix,
    default_ownership,
    missing_cells,
    owners,
    require_stage,
    row_cells,
)
from .paths import PathError, join_path

#: Fixed header row; import rejects any table that does not start with it.
HEADER = ("element_path", "parameter_name", "value", "unit",
          "document_name", "document_path")

#: Stage a table-created document is filed under, by owning discipline.
_STAGE_FOR_DISCIPLINE = {
    "mechanical": "mechanical_eng",
    "electrical": "electrical_eng",
    "software": "control_hmi_eng",
    "logistics": "logistics_planning",
    "process": "process_planning",
}


class ExchangeError(ValueError):
    """Structurally unusable table: bad encoding, header, or row shape."""


class _RowError(Exception):
    """Internal: one row could not be applied (rule id + message)."""

    def __init__(self, rule_id: str, message: str, parameter: str = ""):
        super().__init__(message)
        self.rule_id = rule_id
        self.parameter = parameter


def _checked(call, *args, parameter: str = ""):
    """call(*args); a ModelError, PathError or OwnershipError it raises is
    an invalid-value row error."""
    try:
        return call(*args)
    except (mm.ModelError, PathError, OwnershipError) as error:
        raise _RowError(RULE_INVALID_VALUE, str(error), parameter) from None


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_table(
    model: mm.ModuleModel,
    *,
    stage: str = "",
    cls: str = "",
    missing_only: bool = False,
    matrix: StageCoverageMatrix | None = None,
) -> bytes:
    """Render a parameter table (UTF-8, comma-separated, RFC-4180 quoting).

    Plain exports dump the filled parameters, optionally narrowed to one
    stage's matrix cells or one sub-tree (`cls`); missing_only exports, with
    empty value cells, the cells check_completeness finds missing for `stage`
    (default: the final stage), but not its structural demands, which no row
    can fill. Rows are sorted by element_path, parameter_name. A stage export
    takes each cell as row_cells reads it; a request takes each unit from the
    check that finds the cell missing.
    """
    if stage and cls:
        raise ExchangeError("stage and class filters are mutually exclusive")
    if stage:
        require_stage(stage, ExchangeError)
    if cls:
        if missing_only:
            raise ExchangeError("missing_only exports select by stage, not by class")
        if cls not in mm.SUBTREES:
            raise ExchangeError(
                f"unknown class filter {cls!r}; expected one of {', '.join(mm.SUBTREES)}")
    if matrix is None:
        matrix = default_matrix()

    rows: list[tuple[str, str, str, str]] = []
    if missing_only:
        for violation, unit in missing_cells(model, stage or mm.STAGES[-1], matrix):
            if unit is not None:
                rows.append((violation.element_path, violation.parameter, "", unit))
    elif stage:
        rows.extend({  # a cell two rows demand, once
            (element_path, parameter, value, unit)
            for row_stage, selector, parameter in matrix.rows if row_stage == stage
            for element_path, _name, value, unit in row_cells(model, selector, parameter) or ()
            if value})
    else:
        prefix = join_path(model.id, cls) if cls else ""
        for element_path, parameter, value, unit in mm.iter_parameters(model):
            if not value:
                continue
            if prefix and element_path != prefix and not element_path.startswith(prefix + "/"):
                continue
            rows.append((element_path, parameter, value, unit))

    # the first document assigned to each element
    docs = {doc.assigned_element: doc for doc in reversed(model.documents)}
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    for element_path, parameter, value, unit in sorted(rows, key=lambda r: (r[0], r[1])):
        doc = docs.get(element_path)
        writer.writerow((
            element_path, parameter, value, unit,
            doc.id if doc else "", doc.server_path if doc else ""))
    return buffer.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------

class _Merge:
    """One import: the working copy of the model being merged (a
    mm.Resolver), the ownership decoder, and the number of io
    entries per component path, kept in step with the applied rows.

    A row's value goes through mm.write_parameter, which checks a given unit
    against the cell's and gives a new attribute that unit; a checked value
    equal to the stored one stores nothing.
    A row is checked whole first; only then are its edits stored in the
    working copy's model (an element with one _put, an entry in the list
    copy its first write stored there), so a row that fails changes nothing
    and every later row, reading any element or list, sees the edits of
    earlier ones.
    New io entries, variables and documents are checked against the working
    copy's key index, so a row costs the same however many entries the rows
    before it added.
    """

    def __init__(self, model: mm.ModuleModel, ownership: OwnershipMap):
        self.edit = mm.Resolver(model)
        self.owner = owners(ownership)
        self.mapped = Counter(e.component_path for e in model.control.io_mapping)

    def row(self, element_path: str, parameter: str, value: str, unit: str,
            doc_name: str, doc_path: str) -> None:
        """Apply one row whole, or raise _RowError and apply nothing. The
        element path is located once; every check of the row reads that."""
        try:
            found = self.edit.locate(element_path)
        except PathError as error:
            raise _RowError(RULE_UNKNOWN_PATH, str(error)) from None
        node = found and found.value
        if node is None:
            raise _RowError(RULE_UNKNOWN_ELEMENT, f"unknown element path {element_path!r}")
        if isinstance(node, (str, tuple)):
            raise _RowError(RULE_UNKNOWN_ELEMENT,
                            f"{element_path!r} addresses a parameter or a list, not an element")
        if not parameter:
            raise _RowError(RULE_UNKNOWN_PARAMETER, "empty parameter name")
        edits = []  # calls on the working copy, made once the whole row is checked
        created = False
        if value:
            if (isinstance(node, mm.Component) and parameter == "logical_address"
                    and node.kind in mm.SIGNAL_DIRECTIONS and not self.mapped[element_path]):
                if unit:
                    raise _RowError(RULE_INVALID_VALUE, mm.unit_mismatch(
                        found.spec, parameter, unit, ""), parameter)
                edits += self._io_entry(node, element_path, value)
                created = True
            else:
                updated = self._write(found.spec, node, parameter, value, unit)
                if updated is not node:
                    edits.append(partial(self.edit.put, found.spec, found.index, updated))
        if doc_name:
            edits += self._document(element_path, found, doc_name, doc_path)
        elif doc_path:
            raise _RowError(RULE_INVALID_VALUE, "document path given without a document name")
        for edit in edits:
            edit()
        if created:
            self.mapped[element_path] += 1
        elif value and isinstance(node, mm.IoMapEntry) and parameter == "component_path":
            self.mapped[node.component_path] -= 1  # the io entry moved
            self.mapped[value] += 1

    def _io_entry(self, node: mm.Component, element_path: str, value: str) -> list:
        # A request row anchored at an unmapped component: filling the address
        # creates the io_mapping entry (and its variable) rather than failing.
        direction = mm.SIGNAL_DIRECTIONS[node.kind]
        variable = mm.Variable(("i_" if direction == "input" else "q_") + node.name.lower(),
                               "BOOL", direction)
        entry = mm.IoMapEntry(element_path, value, variable.name, "BOOL", direction)
        entry = _checked(mm.check_node, mm.spec_of(entry), entry, parameter="logical_address")
        edits = [partial(self.edit.append, mm.spec_of(entry), entry)]
        if variable.name not in self.edit.keys(mm.spec_of(variable)):
            edits.append(partial(self.edit.append, mm.spec_of(variable), variable))
        return edits

    def _write(self, spec: mm.ElementSpec, node: object, parameter: str, value: str, unit: str):
        if not spec.writable(parameter):
            raise _RowError(RULE_UNKNOWN_PARAMETER,
                            f"element has no parameter {parameter!r}", parameter)
        return _checked(mm.write_parameter, spec, node, parameter, value, unit,
                        parameter=parameter)

    def _document(self, element_path: str, found, doc_name: str, doc_path: str) -> list:
        """The edits that add the document keyed `doc_name` or assign it to
        the element at `element_path`, whose locate record is `found`."""
        spec = mm.CHILDREN[()]["documents"]
        position = self.edit.position(spec, doc_name)
        if position is None:
            discipline = _checked(self.owner, element_path, found, self.edit.id)
            doc = mm.DocumentReference(
                id=doc_name, discipline=discipline,
                stage=_STAGE_FOR_DISCIPLINE[discipline],
                server_path=doc_path, assigned_element=element_path)
            doc = _checked(mm.check_node, spec, doc, self.edit.keys(spec))
            return [partial(self.edit.append, spec, doc)]
        doc = self.edit.part(spec)[position]
        refreshed = replace(
            doc, server_path=doc_path or doc.server_path, assigned_element=element_path)
        if refreshed == doc:
            return []
        refreshed = _checked(mm.check_node, spec, refreshed)
        return [partial(self.edit.put, spec, position, refreshed)]


def import_table(
    model: mm.ModuleModel,
    data: bytes,
    *,
    ownership: OwnershipMap | None = None,
) -> tuple[mm.ModuleModel, list[Violation]]:
    """Merge a completed table; returns the updated model plus row violations.

    The table is read as UTF-8 without a leading BOM, its CRLF line ends as
    LF ones. Structural problems raise ExchangeError and apply nothing: a
    table that is not UTF-8, a wrong header, or a row, named "row N"
    (records counted from the header as row 1), with the wrong column count
    (which is what an unbalanced quote gives), a lone carriage return in an
    unquoted cell or a cell over the csv module's limit of 131 072
    characters. A row that cannot be applied is skipped whole with exactly
    one violation; empty value cells are requests and are never written. A
    row's unit, if given, must be the unit of the cell it writes; a new
    attribute takes it. Importing the same table twice is a no-op the
    second time. The rows edit one working copy of the model (a
    mm.Resolver), which finds their elements and checks new keys through
    its index. It stores each element a row writes at once, with one copy
    of the path down to it, and copies each list the rows write to once;
    the merged model is the working copy with those lists as tuples.
    """
    if ownership is None:
        ownership = default_ownership()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as error:
        raise ExchangeError(f"table is not UTF-8: {error}") from None
    text = text.replace("\r\n", "\n")
    records: list[list[str]] = []
    try:
        for record in csv.reader(io.StringIO(text)):
            records.append(record)
    except csv.Error as error:
        cause = str(error)
        if cause.startswith("new-line character"):  # "\r\n" is "\n" by now
            cause = "carriage return inside an unquoted cell"
        elif cause.startswith("field larger than field limit"):
            cause = f"cell longer than {csv.field_size_limit()} characters"
        raise ExchangeError(f"malformed table: row {len(records) + 1}: {cause}") from None
    if not records or tuple(records[0]) != HEADER:
        raise ExchangeError(
            "wrong header; expected " + ",".join(HEADER))

    merge = _Merge(model, ownership)
    violations: list[Violation] = []
    for number, record in enumerate(records[1:], start=2):
        if len(record) != len(HEADER):
            raise ExchangeError(
                f"row {number}: expected {len(HEADER)} columns, found {len(record)}")
        element_path, parameter = record[:2]
        try:
            merge.row(*record)
        except _RowError as error:
            violations.append(Violation(
                error.rule_id, SEVERITY_ERROR, element_path, str(error),
                parameter=error.parameter))
    return merge.edit.model(), violations
