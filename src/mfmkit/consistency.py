"""Cross-discipline consistency checks over a module model.

Three concerns live here: reference integrity (every stored reference must
resolve), document-to-element assignment, and stage-wise completeness
against a coverage matrix. Element ownership maps paths to disciplines, and
a dependency report quantifies how many references cross discipline borders.

All checks are pure functions of a model snapshot and return Violations;
they never raise on bad model content, only on unusable inputs (unknown
stage, broken matrix file).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from . import model as mm
from .paths import is_name, join_path

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

# Rule registry (docs/rules.md documents each id).
RULE_DANGLING_SOURCE = "dangling-source"
RULE_DANGLING_TARGET = "dangling-target"
RULE_DANGLING_ASSIGNMENT = "dangling-assignment"
RULE_IO_UNKNOWN_COMPONENT = "io-unknown-component"
RULE_IO_UNKNOWN_VARIABLE = "io-unknown-variable"
RULE_IO_DIRECTION = "io-direction"
RULE_ROUTE_UNKNOWN_PORT = "route-unknown-port"
RULE_DANGLING_BEHAVIOR_REF = "dangling-behavior-ref"
RULE_DANGLING_BODY_REF = "dangling-body-ref"
RULE_MISSING_PARAMETER = "missing-parameter"
RULE_MISSING_CONTAINER = "missing-container"
RULE_UNKNOWN_ELEMENT = "unknown-element"
RULE_UNKNOWN_PARAMETER = "unknown-parameter"
RULE_INVALID_VALUE = "invalid-value"
RULE_UNKNOWN_PATH = "unknown-path"
RULE_DOCUMENT_REASSIGNED = "document-reassigned"
RULE_UNCOVERED_CLASS = "uncovered-class"
RULE_AMBIGUOUS_BRANCH = "ambiguous-branch"
RULE_UNBOUND_SUBJECT = "unbound-subject"
RULE_PIPELINE_MISMATCH = "pipeline-mismatch"
RULE_UNOWNABLE_ENDPOINT = "unownable-endpoint"


@dataclass(frozen=True, slots=True)
class Violation:
    """One consistency finding."""

    rule_id: str
    severity: str
    element_path: str
    message: str
    stage: str = ""
    #: parameter name for missing/invalid parameter findings, "" otherwise
    parameter: str = ""


def format_violation(v: Violation) -> str:
    return f"{v.severity.upper()} {v.rule_id} {v.element_path}: {v.message}"


def has_errors(violations) -> bool:
    return any(v.severity == SEVERITY_ERROR for v in violations)


# ---------------------------------------------------------------------------
# Reference integrity
# ---------------------------------------------------------------------------

def check_links(model: mm.ModuleModel) -> list[Violation]:
    """One violation per stored reference endpoint that fails to resolve.

    Covers cross-reference endpoints, document assignments, io_mapping
    component/variable references and direction legality, route ports, and
    behavior/body document references. Each path is looked up through one
    resolver, and each io entry's component in mm.component_paths, so the
    check is linear in the size of the model; a malformed path does not resolve.
    """
    out: list[Violation] = []
    mid = model.id
    find = mm.Resolver(model)

    for i, ref in enumerate(model.cross_refs):
        anchor = join_path(mid, "cross_refs", str(i))
        if find.resolved(ref.source) is None:
            out.append(Violation(
                RULE_DANGLING_SOURCE, SEVERITY_ERROR, anchor,
                f"source '{ref.source}' does not resolve"))
        if find.resolved(ref.target) is None:
            out.append(Violation(
                RULE_DANGLING_TARGET, SEVERITY_ERROR, anchor,
                f"target '{ref.target}' does not resolve"))

    for doc in model.documents:
        if doc.assigned_element and find.resolved(doc.assigned_element) is None:
            out.append(Violation(
                RULE_DANGLING_ASSIGNMENT, SEVERITY_ERROR,
                join_path(mid, "documents", doc.id),
                f"assigned element '{doc.assigned_element}' does not resolve"))

    variable_names = {v.name for v in model.control.variables}
    components = mm.component_paths(model)
    for i, entry in enumerate(model.control.io_mapping):
        anchor = join_path(mid, "control", "io_mapping", str(i))
        component = components.get(entry.component_path)
        if component is None:
            out.append(Violation(
                RULE_IO_UNKNOWN_COMPONENT, SEVERITY_ERROR, anchor,
                f"component '{entry.component_path}' does not resolve to a component"))
        elif component.kind not in mm.SIGNAL_DIRECTIONS:
            out.append(Violation(
                RULE_IO_DIRECTION, SEVERITY_ERROR, anchor,
                f"component kind '{component.kind}' cannot carry an i/o signal"))
        elif entry.direction != mm.SIGNAL_DIRECTIONS[component.kind]:
            out.append(Violation(
                RULE_IO_DIRECTION, SEVERITY_ERROR, anchor,
                f"{component.kind} '{component.name}' must map to direction "
                f"{mm.SIGNAL_DIRECTIONS[component.kind]}"))
        if entry.variable_name and entry.variable_name not in variable_names:
            out.append(Violation(
                RULE_IO_UNKNOWN_VARIABLE, SEVERITY_ERROR, anchor,
                f"variable '{entry.variable_name}' is not declared"))

    port_names = {p.name for p in model.interface.ports}
    for i, route in enumerate(model.function.routes):
        anchor = join_path(mid, "function", "routes", str(i))
        for endpoint in (route.from_port, route.to_port):
            if endpoint not in port_names:
                out.append(Violation(
                    RULE_ROUTE_UNKNOWN_PORT, SEVERITY_ERROR, anchor,
                    f"port '{endpoint}' is not declared"))

    doc_ids = {d.id for d in model.documents}
    for function in model.function.logistic_functions:
        if function.behavior_ref and function.behavior_ref not in doc_ids:
            out.append(Violation(
                RULE_DANGLING_BEHAVIOR_REF, SEVERITY_ERROR,
                join_path(mid, "function", "logistic_functions", function.name),
                f"behavior document '{function.behavior_ref}' is not registered"))
    for function in model.control.control_functions:
        if function.body_ref and function.body_ref not in doc_ids:
            out.append(Violation(
                RULE_DANGLING_BODY_REF, SEVERITY_ERROR,
                join_path(mid, "control", "control_functions", function.name),
                f"body document '{function.body_ref}' is not registered"))
    return out


# ---------------------------------------------------------------------------
# Stage completeness
# ---------------------------------------------------------------------------

#: Element selectors, derived from the schema: a single element by its path
#: below the module id, the entries of a list by the list path plus `/*`.
_SELECTORS = {
    "/".join(spec.path) + ("/*" if spec.key else ""): spec
    for spec in mm.SCHEMA if spec.path and spec.surface
}

# The two structural demands, about the module as a whole rather than a cell.
_REFS_DEMAND = ("control", "sensor_actuator_refs")
_IO_DEMAND = ("control/io_mapping", "logical_address")


@dataclass(frozen=True, slots=True)
class StageCoverageMatrix:
    """Which (element, parameter) pairs each stage must have populated."""

    rows: tuple[tuple[str, str, str], ...]  # (stage, selector, parameter)


class MatrixError(ValueError):
    """Raised for an unreadable coverage matrix file."""


def _bar_lines(text: str, shape: str, error: type[ValueError]):
    """Yield (line number, fields) of each `a | b | ...` line with as many
    non-empty fields as `shape` names; blank and `#` lines are skipped, any
    other line raises `error`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != shape.count("|") + 1 or not all(parts):
            raise error(f"line {lineno}: expected '{shape}'")
        yield lineno, parts


def load_matrix(text: str) -> StageCoverageMatrix:
    """Parse the line-oriented matrix format: `stage | selector | parameter`;
    every row is checked as its evaluation would check it, whatever its stage."""
    rows = []
    for lineno, (stage, selector, parameter) in _bar_lines(
            text, "stage | selector | parameter", MatrixError):
        if stage not in mm.STAGES:
            raise MatrixError(f"line {lineno}: unknown stage {stage!r}")
        if selector not in _SELECTORS and selector != _IO_DEMAND[0]:
            raise MatrixError(f"line {lineno}: unknown selector {selector!r}")
        if not is_name(parameter):
            raise MatrixError(f"line {lineno}: malformed parameter name {parameter!r}")
        _row_target(selector, parameter, f"line {lineno}: ")
        rows.append((stage, selector, parameter))
    return StageCoverageMatrix(rows=tuple(rows))


def default_matrix() -> StageCoverageMatrix:
    text = resources.files("mfmkit").joinpath("data/coverage_matrix.txt").read_text("utf-8")
    return load_matrix(text)


def _row_target(selector: str, parameter: str, where: str = "") -> tuple | None:
    """(selected spec, child spec its parameter names or None) of a matrix row;
    None for the cross-reference demand. Unsupported rows raise MatrixError,
    whose message starts with `where`."""
    if (selector, parameter) == _REFS_DEMAND:
        return None
    if (selector, parameter) == _IO_DEMAND:
        selector = _IO_DEMAND[0] + "/*"
    spec = _SELECTORS.get(selector)
    if spec is None:
        raise MatrixError(f"{where}unsupported matrix row: {selector} | {parameter}")
    child = mm.CHILDREN[spec.path].get(parameter)
    if (child is None or not child.key) and not (spec.params or spec.extra):
        raise MatrixError(f"{where}unsupported matrix row: {selector} | {parameter}")
    return spec, child


def row_cells(model: mm.ModuleModel, selector: str, parameter: str) -> list[tuple] | None:
    """(element path, display name, element) of each element whose cell
    (mm.cell of `parameter`) a matrix row demands. None for rows that demand
    no cell: the cross-reference demand, lists (`function | logistic_functions`)
    and child elements (`general | identification`). The io demand's cells
    are the io_mapping entries' addresses. Unsupported rows raise MatrixError.
    """
    target = _row_target(selector, parameter)
    if target is None or target[1] is not None:
        return None
    spec = target[0]
    path = join_path(model.id, *spec.path)
    node = mm.get(model, spec)
    if not spec.key:
        return [(path, spec.path[-1], node)]
    return [(f"{path}/{key}", f"{spec.label} {key}", entry) for key, entry in mm.keyed(spec, node)]


def _signal_components(model: mm.ModuleModel) -> list[tuple[str, mm.Component]]:
    return [(path, component) for path, component in mm.component_paths(model).items()
            if component.kind in mm.SIGNAL_DIRECTIONS]


def _referenced_components(model: mm.ModuleModel) -> set[str]:
    """Names of the components that a cross-reference endpoint is at or below."""
    prefix = join_path(model.id, "components") + "/"
    return {
        endpoint[len(prefix):].partition("/")[0]
        for ref in model.cross_refs
        for endpoint in (ref.source, ref.target)
        if endpoint.startswith(prefix)
    }


def _eval_row(model: mm.ModuleModel, stage: str, selector: str, parameter: str):
    """Yield (violation, unit) for each cell one matrix row finds missing;
    the unit is None for a structural demand, which no cell can satisfy."""
    mid = model.id

    def miss(path: str, message: str, unit: str | None = ""):
        return Violation(RULE_MISSING_PARAMETER, SEVERITY_ERROR, path, message,
                         stage=stage, parameter=parameter), unit

    if (selector, parameter) == _IO_DEMAND:
        entries: dict[str, list[tuple[int, mm.IoMapEntry]]] = {}
        for i, entry in enumerate(model.control.io_mapping):
            entries.setdefault(entry.component_path, []).append((i, entry))
        for component_path, component in _signal_components(model):
            if component_path not in entries:
                yield miss(component_path,
                           f"no io_mapping entry for {component.kind} {component.name}")
            for i, entry in entries.get(component_path, ()):
                if not entry.logical_address:
                    yield miss(join_path(mid, "control", "io_mapping", str(i)),
                               f"io_mapping entry for {component.name} has no logical_address")
    elif (selector, parameter) == _REFS_DEMAND:
        referenced = _referenced_components(model)
        for component_path, component in _signal_components(model):
            if component.name not in referenced:
                yield miss(component_path, f"{component.kind} {component.name} "
                           "is not referenced by any cross reference", None)
    else:
        cells = row_cells(model, selector, parameter)
        if cells is None and not mm.get(model, _row_target(selector, parameter)[1]):
            yield miss(join_path(mid, selector), f"no {parameter} declared", None)
        for path, name, node in cells or ():
            value = mm.cell(mm.spec_of(node), node, parameter)
            if not (value and value[0]):
                yield miss(path, f"{name} has no {parameter}", value[1] if value else "")


def missing_cells(model: mm.ModuleModel, stage: str, matrix: StageCoverageMatrix):
    """Yield (violation, unit) for each check_completeness violation, in its
    order: the unit of the cell it finds missing, "" where none is declared,
    None for a structural demand (a cross reference, a list entry)."""
    active = set(mm.STAGES[: mm.STAGES.index(stage) + 1])
    seen: set[tuple[str, str]] = set()
    for row_stage, selector, parameter in matrix.rows:
        if row_stage not in active:
            continue
        for violation, unit in _eval_row(model, row_stage, selector, parameter):
            key = (violation.element_path, violation.parameter)
            if key not in seen:
                seen.add(key)
                yield violation, unit


def check_completeness(
    model: mm.ModuleModel, stage: str, matrix: StageCoverageMatrix | None = None
) -> list[Violation]:
    """Missing-parameter violations for `stage`, cumulative over prior stages.

    A violation is reported once per (element, parameter) pair, labeled with
    the earliest stage that requires it. Unknown stages raise ValueError.
    Each row reads the elements it selects once, so the check is linear in
    the size of the model.
    """
    if stage not in mm.STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    if matrix is None:
        matrix = default_matrix()
    return [violation for violation, _unit in missing_cells(model, stage, matrix)]


# ---------------------------------------------------------------------------
# Ownership
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class OwnershipMap:
    """Longest-prefix rules mapping element paths to owning disciplines."""

    rules: tuple[tuple[str, str], ...]  # (path prefix below the module id, discipline)


class OwnershipError(ValueError):
    """Raised for an unusable ownership map."""


def load_ownership(text: str) -> OwnershipMap:
    """Parse the line-oriented ownership format: `selector | discipline`."""
    rules = []
    for lineno, (selector, discipline) in _bar_lines(
            text, "selector | discipline", OwnershipError):
        if discipline not in mm.DISCIPLINES:
            raise OwnershipError(f"line {lineno}: unknown discipline {discipline!r}")
        rules.append((selector, discipline))
    covered = {selector for selector, _ in rules}
    missing = [s for s in mm.SUBTREES if s not in covered]
    if missing:
        raise OwnershipError(f"ownership map does not cover: {', '.join(missing)}")
    return OwnershipMap(rules=tuple(rules))


def default_ownership() -> OwnershipMap:
    text = resources.files("mfmkit").joinpath("data/ownership.txt").read_text("utf-8")
    return load_ownership(text)


def owners(ownership: OwnershipMap):
    """owner(path, found, mid) -> discipline of `path` in module `mid`, read
    from `found`, its Resolver.locate record (or a tuple of the same fields).

    A document owns itself: the record's node carries its discipline. Any
    other element is owned by the longest rule selector that its segments
    below the module id equal or start with. No path is decoded again.
    """
    rules = dict(reversed(ownership.rules))  # the first of repeated selectors wins

    def owner(path: str, found, mid: str) -> str:
        if found is None or not found[4]:
            raise OwnershipError(f"path {path!r} is not inside module {mid!r}")
        spec, _index, node, tail, segments = found
        if spec.path == ("documents",):
            if type(node) is mm.DocumentReference and not tail:
                return node.discipline
            raise OwnershipError(f"unknown document path {path!r}")
        for end in range(len(segments), 0, -1):
            discipline = rules.get("/".join(segments[:end]))
            if discipline is not None:
                return discipline
        raise OwnershipError(f"no ownership rule covers {path!r}")

    return owner


def assign_document(
    model: mm.ModuleModel, doc_id: str, element_path: str
) -> tuple[mm.ModuleModel, list[Violation]]:
    """Assign a registered document to an element (last write wins).

    Unknown document ids raise ModelError. A dangling target is recorded
    anyway and reported as a violation; replacing an existing assignment is
    reported as info.
    """
    find = mm.Resolver(model)
    index = find.position(mm.CHILDREN[()]["documents"], doc_id)
    if index is None:
        raise mm.ModelError(f"unknown document id {doc_id!r}")
    doc = model.documents[index]
    found = find.locate(element_path)
    violations: list[Violation] = []
    anchor = join_path(model.id, "documents", doc.id)
    if doc.assigned_element and doc.assigned_element != element_path:
        violations.append(Violation(
            RULE_DOCUMENT_REASSIGNED, SEVERITY_INFO, anchor,
            f"assignment moved from '{doc.assigned_element}' to '{element_path}'"))
    if found is None or found.value is None:
        violations.append(Violation(
            RULE_DANGLING_ASSIGNMENT, SEVERITY_ERROR, anchor,
            f"assigned element '{element_path}' does not resolve"))
    return mm.replace_document(model, replace(doc, assigned_element=element_path)), violations


# ---------------------------------------------------------------------------
# Dependency report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DependencyReport:
    """Cross-reference counts between disciplines plus workload shares.

    `cells` holds (source discipline, target discipline, count) for every
    non-empty cell, sorted. `workload` holds (discipline, populated
    parameter count) for all disciplines. A share is a count over its total,
    0.0 when the total is 0; `ref_shares` and `workload_shares` give every
    row with its share, and `fraction` and `workload_fraction` one share.
    """

    cells: tuple[tuple[str, str, int], ...]
    total_refs: int
    workload: tuple[tuple[str, int], ...]
    total_params: int

    def ref_shares(self) -> list[tuple[str, str, int, float]]:
        """(source, target, count, share) for every cell."""
        return [(a, b, count, _share(count, self.total_refs)) for a, b, count in self.cells]

    def workload_shares(self) -> list[tuple[str, int, float]]:
        """(discipline, count, share) for every discipline."""
        return [(d, count, _share(count, self.total_params)) for d, count in self.workload]

    def fraction(self, source: str, target: str) -> float:
        shares = {(a, b): share for a, b, _count, share in self.ref_shares()}
        return shares.get((source, target), 0.0)

    def workload_fraction(self, discipline: str) -> float:
        shares = {d: share for d, _count, share in self.workload_shares()}
        return shares.get(discipline, 0.0)


def _share(count: int, total: int) -> float:
    return count / total if total else 0.0


def dependency_report(
    model: mm.ModuleModel, ownership: OwnershipMap | None = None
) -> DependencyReport:
    """Count cross-references between owning disciplines.

    Every cross-reference endpoint must be ownable; an endpoint that does not
    resolve (a dangling-source or dangling-target of check_links, malformed
    or not) raises OwnershipError. Each endpoint is located once, through one
    resolver, and the workload takes each walked element's owner from the
    walk's spec and key, decoding no path, so the report costs one pass over
    the model rather than one per endpoint or parameter.
    """
    if ownership is None:
        ownership = default_ownership()
    find = mm.Resolver(model)
    owner = owners(ownership)
    counts: dict[tuple[str, str], int] = {}
    for ref in model.cross_refs:
        source, target = find.resolved(ref.source), find.resolved(ref.target)
        for endpoint, found in ((ref.source, source), (ref.target, target)):
            if found is None:
                raise OwnershipError(f"cross-reference endpoint {endpoint!r} does not resolve")
        pair = (owner(ref.source, source, find.id), owner(ref.target, target, find.id))
        counts[pair] = counts.get(pair, 0) + 1
    total_refs = len(model.cross_refs)

    work: dict[str, int] = {d: 0 for d in sorted(mm.DISCIPLINES)}
    total_params = 0
    for spec, path, node in mm.walk(model):
        if not spec.surface:
            continue
        filled = sum(1 for _name, value, _unit in mm.param_rows(spec, node) if value != "")
        if filled:
            total_params += filled
            rest = spec.path + (path[path.rindex("/") + 1:],) if spec.key else spec.path
            work[owner(path, (spec, None, node, (), rest), find.id)] += filled

    return DependencyReport(
        cells=tuple(sorted((a, b, n) for (a, b), n in counts.items())),
        total_refs=total_refs,
        workload=tuple(sorted(work.items())),
        total_params=total_params,
    )
