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

from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from operator import attrgetter

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

_ELEMENT, _COMPONENT = "element path", "component path"
#: Every stored reference, in report order, by the list holding it: its
#: field, the rule and message of a broken one, and what it must name: any
#: element path that resolves, a component, or the key of an entry of the
#: keyed list at a path below the module id.
_LINKS = {
    "cross_refs": (("source", RULE_DANGLING_SOURCE, "source '{}' does not resolve", _ELEMENT),
                   ("target", RULE_DANGLING_TARGET, "target '{}' does not resolve", _ELEMENT)),
    "documents": (("assigned_element", RULE_DANGLING_ASSIGNMENT,
                   "assigned element '{}' does not resolve", _ELEMENT),),
    "control/io_mapping": (
        ("component_path", RULE_IO_UNKNOWN_COMPONENT,
         "component '{}' does not resolve to a component", _COMPONENT),
        ("variable_name", RULE_IO_UNKNOWN_VARIABLE, "variable '{}' is not declared",
         "control/variables")),
    "function/routes": tuple((name, RULE_ROUTE_UNKNOWN_PORT, "port '{}' is not declared",
                              "interface/ports") for name in ("from_port", "to_port")),
    "function/logistic_functions": (("behavior_ref", RULE_DANGLING_BEHAVIOR_REF,
                                     "behavior document '{}' is not registered", "documents"),),
    "control/control_functions": (("body_ref", RULE_DANGLING_BODY_REF,
                                   "body document '{}' is not registered", "documents"),),
}


def _walked(where: str, rows: tuple) -> tuple:
    """`where`, its spec and, for each reference the list holds, a getter,
    whether an empty value is checked (the field has no default) and its row."""
    spec = mm.spec_at(where)
    defaults = {f.name: f.default for f in fields(spec.node_type)}
    return where, spec, [(attrgetter(row[0]), defaults[row[0]] is MISSING, row) for row in rows]


_WALK = tuple(map(_walked, _LINKS, _LINKS.values()))


def check_links(model: mm.ModuleModel) -> list[Violation]:
    """One violation per stored reference that names nothing, and per io
    entry whose component cannot carry its direction: one walk over _LINKS,
    list by list, entry by entry, field by field, an io entry's io-direction
    right after its component. An element path is looked up through one
    resolver, where a malformed one does not resolve; a component path in
    mm.component_paths, undecoded; a key in that resolver's index of its
    list; so the check is linear in the size of the model.
    """
    out: list[Violation] = []
    find = mm.Resolver(model)
    components = mm.component_paths(model).get
    lookups = {_ELEMENT: find.resolved, _COMPONENT: components}
    signals = mm.SIGNAL_DIRECTIONS
    for where, spec, links in _WALK:
        entries = mm.get(model, spec)
        checks = [(get, required, lookups.get(row[3]) or find.keys(mm.spec_at(row[3])).__contains__,
                   row) for get, required, row in links]
        for i, entry in enumerate(entries):
            for get, required, lookup, row in checks:
                value = get(entry)
                hit = lookup(value) if value or required else True
                if not hit:
                    rule, message = row[1], row[2].format(value)
                elif lookup is components and (direction := signals.get(hit.kind)) != entry.direction:
                    rule, message = RULE_IO_DIRECTION, (
                        f"{hit.kind} '{hit.name}' must map to direction {direction}" if direction
                        else f"component kind '{hit.kind}' cannot carry an i/o signal")
                else:
                    continue
                key = str(i) if spec.key == "index" else getattr(entry, spec.key)
                out.append(Violation(rule, SEVERITY_ERROR, f"{model.id}/{where}/{key}", message))
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
    below the module id equal or start with; no rule covers the module
    root. No path is decoded again.
    """
    rules = dict(reversed(ownership.rules))  # the first of repeated selectors wins

    def owner(path: str, found, mid: str) -> str:
        if found is None:
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
        _field, rule, message, _target = _LINKS["documents"][0]
        violations.append(Violation(rule, SEVERITY_ERROR, anchor, message.format(element_path)))
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
