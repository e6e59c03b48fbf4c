"""CAEX-subset exchange files and their mapping to module models.

The file format is a small slice of CAEX: InstanceHierarchy, InternalElement,
Attribute (nested, value in a Value child), RoleRequirements,
ExternalInterface, and InternalLink. Library definitions are referenced by
identifier only, never expanded inline. Child element names must be unique
within a parent so element paths stay unambiguous.

Reading and writing share one table (TAGS): for each CAEX element its
attributes and children in canonical order, the value it builds and the
inverse that splits the value again. xmlio.parse_tree reads a file against
the table in one pass, with no intermediate tree; the first error, in the
order the reader meets it, is raised. The CAEX rules of the table beyond
tags and attributes: an Attribute holds at most one Value, folded into it
(xmlio.Tag: the Value's text is the Attribute's value), and the
InternalElements of one parent have distinct names.

Serialization is canonical (see docs/format.md): fixed attribute order,
2-space indent, UTF-8, LF, optional attributes omitted when empty. Equal
documents produce equal bytes, and attribute values are never re-formatted.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from . import model as mm
from .consistency import (
    RULE_INVALID_VALUE,
    RULE_MISSING_CONTAINER,
    RULE_UNKNOWN_ELEMENT,
    RULE_UNKNOWN_PARAMETER,
    SEVERITY_WARNING,
    Violation,
)
from .paths import PathError, join_path
from .xmlio import Tag, parse_tree, serialize_tree

#: Supported external-data connector kinds: the interface class each one
#: stores and the base name of its connectors. The stored identifiers match
#: the mapping rule table verbatim.
CONNECTOR_KINDS = {
    "COLLADAInterface": ("COLLADAInterface", "collada"),
    "PLCopenXMLInterface": ("ExternalDataConnector.PLOpenXMLInterface", "plcopen"),
    "AttachmentInterface": ("AttachmentInterface", "attachment"),
}

_STRING_TYPE = "xs:string"


class StructureError(ValueError):
    """Document structure prevents mapping to a module model."""


# ---------------------------------------------------------------------------
# Document tree
# ---------------------------------------------------------------------------
# Plain named tuples: the reader builds one per element, and a tuple costs a
# fraction of a frozen dataclass to define at import and to build per record.
# The reader and from_model make them with `_new`, which skips the generated
# constructor's defaults: every field is given.
_new = tuple.__new__

class CaexAttribute(NamedTuple):
    name: str
    value: str = ""
    data_type: str = ""
    unit: str = ""
    children: tuple["CaexAttribute", ...] = ()


class CaexInterface(NamedTuple):
    name: str
    interface_class: str = ""
    attributes: tuple[CaexAttribute, ...] = ()


class CaexElement(NamedTuple):
    name: str
    id: str = ""
    attributes: tuple[CaexAttribute, ...] = ()
    role_requirements: tuple[str, ...] = ()
    external_interfaces: tuple[CaexInterface, ...] = ()
    children: tuple["CaexElement", ...] = ()


class CaexHierarchy(NamedTuple):
    name: str
    elements: tuple[CaexElement, ...] = ()


class CaexLink(NamedTuple):
    name: str
    side_a: str
    side_b: str


class CaexDocument(NamedTuple):
    role_class_lib_refs: tuple[str, ...] = ()
    interface_class_lib_refs: tuple[str, ...] = ()
    instance_hierarchies: tuple[CaexHierarchy, ...] = ()
    internal_links: tuple[CaexLink, ...] = ()


# ---------------------------------------------------------------------------
# Reading and writing
# ---------------------------------------------------------------------------

#: Every CAEX element, for the reader and the writer alike. Leaves take no
#: children.
TAGS: dict[str, Tag] = {
    "CAEXFile": Tag(
        (), (), ("RoleClassLibRef", "InterfaceClassLibRef", "InstanceHierarchy", "InternalLink"),
        lambda attrs, kids, text: _new(CaexDocument, (
            tuple(kids.get("RoleClassLibRef", ())), tuple(kids.get("InterfaceClassLibRef", ())),
            tuple(kids.get("InstanceHierarchy", ())), tuple(kids.get("InternalLink", ())))),
        lambda doc: ((), (doc.role_class_lib_refs, doc.interface_class_lib_refs,
                          doc.instance_hierarchies, doc.internal_links), "")),
    "RoleClassLibRef": Tag(
        ("Name",), (), (), lambda attrs, kids, text: attrs["Name"],
        lambda name: ((name,), (), "")),
    "InterfaceClassLibRef": Tag(
        ("Name",), (), (), lambda attrs, kids, text: attrs["Name"],
        lambda name: ((name,), (), "")),
    "InstanceHierarchy": Tag(
        ("Name",), (), ("InternalElement",),
        lambda attrs, kids, text: _new(CaexHierarchy, (
            attrs["Name"], tuple(kids.get("InternalElement", ())))),
        lambda hierarchy: ((hierarchy.name,), (hierarchy.elements,), "")),
    "InternalLink": Tag(
        ("Name", "RefPartnerSideA", "RefPartnerSideB"), (), (),
        lambda attrs, kids, text: _new(CaexLink, (
            attrs["Name"], attrs["RefPartnerSideA"], attrs["RefPartnerSideB"])),
        lambda link: ((link.name, link.side_a, link.side_b), (), "")),
    "InternalElement": Tag(
        ("Name",), ("ID",),
        ("Attribute", "ExternalInterface", "RoleRequirements", "InternalElement"),
        lambda attrs, kids, text: _new(CaexElement, (
            attrs["Name"], attrs.get("ID", ""), tuple(kids.get("Attribute", ())),
            tuple(kids.get("RoleRequirements", ())), tuple(kids.get("ExternalInterface", ())),
            tuple(kids.get("InternalElement", ())))),
        lambda element: ((element.name, element.id), (
            element.attributes, element.external_interfaces, element.role_requirements,
            element.children), ""),
        key=lambda element: element.name),
    "Attribute": Tag(
        ("Name",), ("DataType", "Unit"), ("Value", "Attribute"),
        lambda attrs, kids, text: _new(CaexAttribute, (
            attrs["Name"], text, attrs.get("DataType", ""), attrs.get("Unit", ""),
            tuple(kids["Attribute"]) if kids else ())),  # the Value is folded into `text`
        lambda attribute: (
            (attribute.name, attribute.data_type, attribute.unit),
            ((), attribute.children), attribute.value)),
    "Value": Tag((), (), (), None, None, text=True, folded=True),
    "ExternalInterface": Tag(
        ("Name",), ("RefBaseClassPath",), ("Attribute",),
        lambda attrs, kids, text: _new(CaexInterface, (
            attrs["Name"], attrs.get("RefBaseClassPath", ""), tuple(kids.get("Attribute", ())))),
        lambda interface: (
            (interface.name, interface.interface_class), (interface.attributes,), "")),
    "RoleRequirements": Tag(
        ("RefBaseRoleClassPath",), (), (),
        lambda attrs, kids, text: attrs["RefBaseRoleClassPath"],
        lambda role: ((role,), (), "")),
}


def parse(data: bytes) -> CaexDocument:
    """Parse file bytes into a CaexDocument.

    Malformed XML and unsupported constructs raise XmlError with the source
    line/column.
    """
    return parse_tree(data, "CAEXFile", TAGS)


def serialize(doc: CaexDocument) -> bytes:
    """Render a document in canonical form (deterministic, byte-stable)."""
    return serialize_tree(doc, "CAEXFile", TAGS)


# ---------------------------------------------------------------------------
# Document -> model
# ---------------------------------------------------------------------------

def _module_roots(elements: tuple[CaexElement, ...], above: tuple[CaexElement, ...]):
    """Yield (the elements above it, outermost first; root) for each module
    root in or below `elements`: an element with role requirements and no
    role-carrying element above it."""
    for element in elements:
        if element.role_requirements:
            yield above, element
        else:
            yield from _module_roots(element.children, above + (element,))


_NO_ATTRIBUTE = CaexAttribute("")


@dataclass(init=False, repr=False, eq=False)
class ExternalInterface:
    """The one attribute of an ExternalInterface, declared as a parameter
    without a unit, so that `_ModelBuilder.values` reads it as it reads an
    element's. (Its docstring also spares `dataclass` a signature lookup.)"""

    refURI: str = mm.param()


_INTERFACE = mm.ElementSpec((), "", ExternalInterface, "")


class _ModelBuilder:
    """The warnings of one to_model run, and the reading that reports them.

    The reader walks the document along the schema (mm.SCHEMA) once and
    builds the model bottom-up, as from_model writes it: `read` returns an
    element with the elements and lists read below it, `read_list` a list
    with its entries. Each element is built with its annotation and
    validated by the same model.check_* functions the public builders use
    (the annotation by `annotation`, once); `read_list` checks entry keys
    against the keys of the list so far.

    A value that fails its validator, or whose Unit is given and differs
    from its parameter's unit, is reported and left out, so the element
    keeps the default; an interface's refURI is read as such a value, of a
    parameter without a unit. An entry that cannot be added (bad or
    duplicate key, missing component path, broken invariant) is reported
    and dropped with its annotations, which are not read. Absent and empty
    values take the default silently. What the model has no place for is
    reported as ignored: an element's ID, a DataType other than xs:string,
    the name of an index-addressed entry other than its position, all that
    the wrapper elements above the module root and the InstanceHierarchies
    hold besides the way down to it, and a hierarchy name other than the
    writer's. `values` checks each given value once and no default, which
    is valid by declaration; model.check_shape checks the rest of the element.
    """

    def __init__(self):
        self.violations: list[Violation] = []

    def warn(self, rule: str, path: str, message: str) -> None:
        self.violations.append(Violation(rule, SEVERITY_WARNING, path, message))

    def ignored_id(self, element_id: str, path: str) -> None:
        self.warn(RULE_UNKNOWN_PARAMETER, path, f"ID '{element_id}' ignored")

    def ignored_type(self, attribute: CaexAttribute, path: str) -> None:
        self.warn(RULE_UNKNOWN_PARAMETER, path, f"DataType '{attribute.data_type}' "
                  f"of attribute '{attribute.name}' ignored")

    def wrapper(self, path: str, element: CaexElement, way: CaexElement) -> None:
        """Report what a wrapper element above the module root holds besides
        `way`, its child on the way down to the root."""
        if element.id:
            self.ignored_id(element.id, path)
        for attribute in element.attributes:
            self.warn(RULE_UNKNOWN_PARAMETER, path,
                      f"attribute '{attribute.name}' above the module root ignored")
        for interface in element.external_interfaces:
            self.warn(RULE_UNKNOWN_ELEMENT, path,
                      f"interface '{interface.name}' above the module root ignored")
        for child in element.children:
            if child is not way:
                self.warn(RULE_UNKNOWN_ELEMENT, path,
                          f"element '{child.name}' holds no module root and is ignored")

    def checked(self, path: str, check, *args):
        """The result of a model check, or None after reporting its error."""
        try:
            return check(*args)
        except (mm.ModelError, PathError) as exc:
            self.warn(RULE_INVALID_VALUE, path, str(exc))
            return None

    def annotation(self, ann: mm.Annotation, roles: tuple[str, ...],
                   interfaces: tuple[CaexInterface, ...], path: str) -> mm.Annotation:
        """`ann` with the valid roles and interfaces of the element at `path`
        added; the others are reported."""
        if roles:
            ann = self.checked(path, mm.check_roles, ann, roles) or ann
        for name, interface_class, attributes in interfaces:
            uri = self.values(_INTERFACE, attributes, path)[0].get("refURI", "")
            ann = self.checked(path, mm.check_external_ref, ann, path,
                               mm.ExternalRef(name, interface_class, uri)) or ann
        return ann

    def values(self, spec: mm.ElementSpec, attributes: tuple[CaexAttribute, ...], path: str):
        """The given values of one element's parameters that pass their
        checks, and its open-set attributes. A required parameter given no
        valid value is "", checked after the others: None if that fails."""
        given: dict[str, CaexAttribute] = {}
        extra: list[CaexAttribute] = []
        names = spec.names
        for attribute in attributes:
            name, _value, data_type, _unit, children = attribute
            if data_type != _STRING_TYPE and data_type:
                self.ignored_type(attribute, path)
            if children:
                self.warn(RULE_UNKNOWN_PARAMETER, path, f"nested attribute '{name}' ignored")
            elif name in given:
                self.warn(RULE_INVALID_VALUE, path, f"duplicate attribute '{name}' ignored")
            elif name in names:
                given[name] = attribute
            elif spec.extra:
                extra.append(attribute)
            else:
                self.warn(RULE_UNKNOWN_PARAMETER, path, f"unknown attribute '{name}' ignored")
        fields = {}
        for param in spec.params:
            _name, text, _data_type, unit, _children = given.get(param.name, _NO_ATTRIBUTE)
            if unit and unit != param.unit:
                self.warn(RULE_INVALID_VALUE, path,
                          mm.unit_mismatch(spec, param.name, unit, param.unit))
            elif text and text != param.default:
                try:
                    fields[param.name] = mm.check_value(spec, param, text)
                except (mm.ModelError, PathError) as exc:
                    self.warn(RULE_INVALID_VALUE, path, str(exc))
        for param in spec.required:
            if param.name not in fields:
                value = self.checked(path, mm.check_value, spec, param, "")
                if value is None:
                    return None, extra
                fields[param.name] = value
        return fields, extra

    def read(self, spec: mm.ElementSpec, element: CaexElement, path: str, node):
        """`node`, the element (root, container or singleton) at `spec`,
        with what `element` gives it: its values, its open attributes, its
        annotation and the elements and lists read below it."""
        if element.id:
            self.ignored_id(element.id, path)
        fields, extra = self.values(spec, element.attributes, path)
        if extra:
            attrs = {a.name: a for a in getattr(node, spec.extra)}
            for attribute in extra:
                added = self.checked(path, mm.check_attribute, spec, attrs,
                                     attribute.name, attribute.value, attribute.unit)
                if added is not None:
                    attrs[added.name] = added
            fields[spec.extra] = tuple(attrs.values())
        node = self.checked(path, mm.check_shape, spec, replace(node, **fields)) or node
        parts = {"annotation": self.annotation(
            node.annotation, element.role_requirements, element.external_interfaces, path)}
        known = mm.CHILDREN[spec.path]
        for child in element.children:
            child_spec = known.get(child.name)
            if child_spec is None:
                self.warn(RULE_UNKNOWN_ELEMENT, path, f"unknown element '{child.name}' ignored")
                continue
            reader = self.read_list if child_spec.key else self.read
            # a repeated element continues from what the earlier one read
            parts[child.name] = reader(child_spec, child, join_path(path, child.name),
                                       parts.get(child.name, getattr(node, child.name)))
        owner = spec.path[-1] if spec.path else "module"
        for name, child_spec in known.items():
            if not child_spec.key and name not in parts:
                self.warn(RULE_MISSING_CONTAINER, join_path(path, name),
                          f"{owner} has no {name} element")
        return replace(node, **parts)

    def read_list(self, spec: mm.ElementSpec, element: CaexElement, path: str,
                  entries: tuple) -> tuple:
        """`entries`, the list at `spec`, with the entries of `element` that
        can be added."""
        if element.id:
            self.ignored_id(element.id, path)
        if element.role_requirements or element.external_interfaces:
            self.warn(RULE_UNKNOWN_ELEMENT, path,
                      f"annotations on list container '{element.name}' are not supported")
        if element.attributes:
            self.warn(RULE_UNKNOWN_PARAMETER, path,
                      f"attributes on list container '{element.name}' ignored")
        indexed = spec.key == "index"
        entries = list(entries)
        taken = () if indexed else {getattr(entry, spec.key) for entry in entries}
        for position, entry in enumerate(element.children):
            name, element_id, attributes, roles, interfaces, children = entry
            # warnings name the entry's position in the file; annotation
            # warnings name the index the entry gets
            entry_path = join_path(path, str(position) if indexed else name)
            if indexed and name != str(position):
                self.warn(RULE_UNKNOWN_PARAMETER, entry_path, f"entry name '{name}' ignored")
            if element_id:
                self.ignored_id(element_id, entry_path)
            fields, _extra = self.values(spec, attributes, entry_path)
            if fields is not None:
                if not indexed:
                    fields[spec.key] = name
                node = self.checked(
                    entry_path, mm.check_shape, spec, spec.node_type(**fields), taken)
                if node is not None:
                    if roles or interfaces:
                        fields["annotation"] = self.annotation(
                            mm.Annotation(), roles, interfaces,
                            join_path(path, str(len(entries))) if indexed else entry_path)
                        node = spec.node_type(**fields)
                    entries.append(node)
                    if not indexed:
                        taken.add(name)
            for child in children:  # an entry has no known children
                self.warn(RULE_UNKNOWN_ELEMENT, entry_path,
                          f"unknown element '{child.name}' ignored")
        return tuple(entries)


def to_model(doc: CaexDocument) -> tuple[mm.ModuleModel, list[Violation]]:
    """Map a parsed document to a module model.

    The document must contain exactly one module root: an InternalElement
    with role requirements and no role-carrying ancestor. Non-fatal
    irregularities (missing containers, unknown attributes, invalid values)
    are returned as warnings; structural problems raise StructureError.
    A repeated container or element (only a document built in code has one)
    continues from what the earlier one read: entries append, values set.
    """
    found = [(hierarchy, above + (root,)) for hierarchy in doc.instance_hierarchies
             for above, root in _module_roots(hierarchy.elements, ())]
    if len(found) != 1:
        raise StructureError(f"expected exactly one module root, found {len(found)}")
    (home, way), = found
    mid = "/".join([element.name for element in way])
    try:
        model = mm.new_module(mid, "")
    except (mm.ModelError, PathError) as exc:
        raise StructureError(f"module id unusable: {exc}") from None

    builder = _ModelBuilder()
    for hierarchy in doc.instance_hierarchies:  # reported at the module's path
        if hierarchy is not home:
            builder.warn(RULE_UNKNOWN_ELEMENT, mid, f"instance hierarchy "
                         f"'{hierarchy.name}' holds no module root and is ignored")
            continue
        if hierarchy.name != "modules":
            builder.warn(RULE_UNKNOWN_PARAMETER, mid,
                         f"instance hierarchy name '{hierarchy.name}' ignored")
        builder.wrapper(mid, CaexElement(hierarchy.name, children=hierarchy.elements), way[0])
    for depth, element in enumerate(way[:-1], 1):  # the wrappers, outermost first
        builder.wrapper("/".join([step.name for step in way[:depth]]), element, way[depth])
    model = builder.read(mm.ROOT, way[-1], mid, model)
    refs = [builder.checked(join_path(mid, "cross_refs"), mm.check_cross_ref,
                            link.side_a, link.side_b, link.name) for link in doc.internal_links]
    refs = dict.fromkeys(ref for ref in refs if ref is not None)  # a repeat reads as one
    return replace(model, cross_refs=tuple(refs)), builder.violations


# ---------------------------------------------------------------------------
# Model -> document
# ---------------------------------------------------------------------------

def from_model(model: mm.ModuleModel) -> CaexDocument:
    """Render a model as a document; to_model(from_model(m)) reproduces m.

    A module id that new_module() would reject raises ModelError or
    PathError, so every document rendered here can be read back.
    """
    mm.check_module_id(model.id)
    role_libs: set[str] = set()
    iface_libs: set[str] = set()

    def element(spec: mm.ElementSpec, name: str, node) -> CaexElement:
        ann = node.annotation
        role_libs.update(ann.roles)
        iface_libs.update(ref.interface_class for ref in ann.external_refs)
        interfaces = tuple([_new(CaexInterface, (ref.name, ref.interface_class, (
            _new(CaexAttribute, ("refURI", ref.ref_uri, _STRING_TYPE, "", ())),) if ref.ref_uri
            else ())) for ref in ann.external_refs])
        # Schema parameters are omitted when empty (the reader restores them);
        # the open attribute set has no schema, so its names survive empty.
        attributes = tuple([
            _new(CaexAttribute, (param, value, _STRING_TYPE, unit, ()))
            for param, value, unit in mm.param_rows(spec, node)
            if value or param not in spec.names])
        children = []
        for child_name, child in mm.CHILDREN[spec.path].items():
            value = getattr(node, child_name)
            if not child.key:
                children.append(element(child, child_name, value))
            elif value:
                children.append(_new(CaexElement, (child_name, "", (), (), (), tuple([
                    element(child, key, entry) for key, entry in mm.keyed(child, value)]))))
        return _new(CaexElement, (name, "", attributes, ann.roles, interfaces, tuple(children)))

    id_segments = model.id.split("/")
    root = element(mm.ROOT, id_segments[-1], model)
    for segment in reversed(id_segments[:-1]):
        root = CaexElement(segment, "", (), (), (), (root,))
    return CaexDocument(
        tuple(sorted(role_libs)), tuple(sorted(iface_libs)),
        (CaexHierarchy("modules", (root,)),),
        tuple([CaexLink(ref.kind, ref.source, ref.target) for ref in model.cross_refs]))


# ---------------------------------------------------------------------------
# External-data connectors
# ---------------------------------------------------------------------------

def attach_external_document(
    model: mm.ModuleModel, element_path: str, connector_kind: str, uri: str
) -> mm.ModuleModel:
    """Attach an external document connector to an element.

    The connector kind picks the stored interface class; the uri lands in a
    refURI attribute verbatim. Unknown kinds are an error.
    """
    if connector_kind not in CONNECTOR_KINDS:
        raise mm.ModelError(
            f"unknown connector kind {connector_kind!r}; "
            f"expected one of {', '.join(sorted(CONNECTOR_KINDS))}")
    interface_class, base = CONNECTOR_KINDS[connector_kind]
    taken = {ref.name for ref in mm.annotation_at(model, element_path).external_refs}
    name = base
    counter = 2
    while name in taken:
        name = f"{base}-{counter}"
        counter += 1
    ref = mm.ExternalRef(name=name, interface_class=interface_class, ref_uri=uri)
    return mm.with_external_ref(model, element_path, ref)
