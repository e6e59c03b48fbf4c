"""Permitted role and interface identifiers per meta-model class.

The rule table says which AutomationML role classes and interface classes an
element of a given meta-model class may carry. It ships with three published
entries and is extensible through the documented text format (docs/rules.md);
classes without an entry are not checked.
"""
from __future__ import annotations

from . import _data_text
from . import model as mm
from .records import record

KIND_ILLEGAL_ROLE = "illegal_role"
KIND_ILLEGAL_INTERFACE = "illegal_interface"
KIND_MISSING_ROLE = "missing_role"


@record
class RuleEntry:
    """The roles and interfaces permitted on one rule-table class."""

    class_path: str
    permitted_interfaces: tuple[str, ...]
    permitted_roles: tuple[str, ...]


@record
class MappingRuleTable:
    """The role/interface rule table: one entry per class path."""

    entries: tuple[RuleEntry, ...]

    def entry_for(self, class_path: str) -> RuleEntry | None:
        for entry in self.entries:
            if entry.class_path == class_path:
                return entry
        return None


@record
class AssignmentViolation:
    """An identifier outside (or missing from) its class's permitted set."""

    element_path: str
    found_identifier: str
    permitted: tuple[str, ...]
    kind: str  # illegal_role | illegal_interface | missing_role


class RuleTableError(ValueError):
    """Raised for an unreadable rule-table file."""


def load_table(text: str) -> MappingRuleTable:
    """Parse the line format `class_path -> role|iface : identifier`.

    Repeated identical lines collapse; each class must end up with at least
    one role and one interface identifier.
    """
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, identifier = line.partition(":")
        identifier = identifier.strip()
        class_path, arrow, kind = head.partition("->")
        class_path, kind = class_path.strip(), kind.strip()
        if not sep or not arrow or not class_path or not identifier:
            raise RuleTableError(f"line {lineno}: expected 'class_path -> role|iface : identifier'")
        if kind not in ("role", "iface"):
            raise RuleTableError(f"line {lineno}: unknown kind {kind!r}")
        roles, interfaces = classes.setdefault(class_path, (set(), set()))
        (roles if kind == "role" else interfaces).add(identifier)
    entries = []
    for class_path, (roles, interfaces) in sorted(classes.items()):
        if not roles or not interfaces:
            raise RuleTableError(
                f"class {class_path!r} needs at least one role and one interface identifier")
        entries.append(RuleEntry(class_path, tuple(sorted(interfaces)), tuple(sorted(roles))))
    return MappingRuleTable(entries=tuple(entries))


def save_table(table: MappingRuleTable) -> str:
    """Render a table in the load_table format (load(save(t)) == t)."""
    lines = ["# Permitted role and interface identifiers per meta-model class path."]
    for entry in table.entries:
        for identifier in entry.permitted_interfaces:
            lines.append(f"{entry.class_path} -> iface : {identifier}")
        for identifier in entry.permitted_roles:
            lines.append(f"{entry.class_path} -> role : {identifier}")
    return "\n".join(lines) + "\n"


def default_table() -> MappingRuleTable:
    return load_table(_data_text("rules.txt"))


# ---------------------------------------------------------------------------
# Classifying model paths
# ---------------------------------------------------------------------------

def class_path_of(model: mm.ModuleModel, element_path: str) -> str | None:
    """Meta-model class selector of the element at `element_path`.

    Read from the path's Resolver.locate record, by its spec and its
    segments below the module id, so it is syntactic: the entry need not
    exist. List paths, parameter paths and cross references have no class.
    """
    found = mm.Resolver(model).locate(element_path)
    if found is None or len(found.rest) != len(found.spec.path) + bool(found.spec.key):
        return None
    return found.spec.cls or None


def _is_populated(spec: mm.ElementSpec, node: object, ann: mm.Annotation) -> bool:
    if ann.roles or ann.external_refs:
        return True
    # list entries are populated by existence; single elements by a value
    if spec.key:
        return True
    return spec.surface and any(value for _name, value, _unit in mm.param_rows(spec, node))


def validate_assignments(model: mm.ModuleModel, table: MappingRuleTable | None = None) -> list[AssignmentViolation]:
    """Strict breaches of the rule table.

    One violation per role/interface identifier outside its class's permitted
    set, plus missing_role for populated elements of covered classes that
    carry no role at all. Elements of classes without a table entry are
    skipped (see uncovered_classes for reporting them).
    """
    if table is None:
        table = default_table()
    out: list[AssignmentViolation] = []
    for spec, path, node in mm.walk(model):
        entry = table.entry_for(spec.cls)
        if entry is None:
            continue
        ann = node.annotation
        for role in ann.roles:
            if role not in entry.permitted_roles:
                out.append(AssignmentViolation(path, role, entry.permitted_roles, KIND_ILLEGAL_ROLE))
        for ref in ann.external_refs:
            if ref.interface_class not in entry.permitted_interfaces:
                out.append(AssignmentViolation(
                    path, ref.interface_class, entry.permitted_interfaces, KIND_ILLEGAL_INTERFACE))
        if not ann.roles and _is_populated(spec, node, ann):
            out.append(AssignmentViolation(path, "", entry.permitted_roles, KIND_MISSING_ROLE))
    return out


def uncovered_classes(model: mm.ModuleModel, table: MappingRuleTable | None = None) -> list[str]:
    """Class selectors that carry annotations but have no table entry (sorted)."""
    if table is None:
        table = default_table()
    found: set[str] = set()
    for spec, _path, node in mm.walk(model):
        ann = node.annotation
        if (ann.roles or ann.external_refs) and table.entry_for(spec.cls) is None:
            found.add(spec.cls)
    return sorted(found)
