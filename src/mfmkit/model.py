"""Module meta model for automated material flow modules.

A module description is split into five sub-classes (general, status,
function, interface, control) plus components, documents, and
cross-references. Models are immutable value snapshots: every operation
returns a new model and never mutates its input, so snapshots can be shared
freely across threads.

All scalar values are stored as verbatim strings ("0.1", "(50,150,800)"),
in the unit their field declares (mm for geometry, s for latency). An
empty string means "not populated yet". Values must not contain carriage
returns or any character XML 1.0 cannot carry (the other controls except
tab and line feed, surrogates, U+FFFE, U+FFFF), so that every model can be
written and read back. Route priorities are ints (never bools or floats);
given as text, they must be canonical decimals ("7", not "07", "+7" or
" 7"). A value of any other type raises ModelError naming the parameter.

Each parameter is declared once, as a param() field of its dataclass with
its default, unit and validator. SCHEMA holds the structure: one ElementSpec
per element or entry list, with its path, key, rule-table class and
dataclass, whose param() fields become the spec's params. The builders,
path resolution, the Resolver's batch edits, set_parameter and
remove_element here, and the file reader and writer, the rule classes, the
completeness selectors and the table units elsewhere, all derive from them.
The entry builders (add_port, add_route, ...) are made from their
dataclasses: each takes its dataclass's fields and appends with add_entry.
A default is valid by declaration: the builders validate whole nodes
(check_node), the file reader the values it is given, the required
parameters and, with check_shape, the rest.
Resolver.locate alone decodes a path string; every reader of a path reads
the record it returns, so a path is decoded once for each use. _put alone
copies a changed part (an element, a whole list or one entry) into a model:
a single edit (a builder call, set_parameter, assign_document) is one _put,
and a Resolver, the working copy of a table import, stores each element it
writes with one _put and each list it writes once, as a copy it then edits
in place.
The file reader needs no working copy: it builds the model bottom-up, each
element with the parts below it.

Every element carries its own annotation (roles and external interfaces),
which moves and disappears with it; edits that replace an element keep it.
"""
from __future__ import annotations

import inspect
import math
import re
from dataclasses import MISSING, field, fields, replace
from operator import attrgetter, indexOf
from typing import Any, Callable, NamedTuple

from .paths import PathError, is_name, join_path, split_path
from .records import record

COMPONENT_KINDS = ("sensor", "actuator", "conveyor", "switch")
FUNCTION_CATEGORIES = ("material_flow", "handling", "waiting")
PORT_DIRECTIONS = ("in", "out")
IO_DIRECTIONS = ("input", "output")

#: The i/o signal policy: the io direction the signal of each component kind
#: maps to. A kind not listed here carries no i/o signal.
SIGNAL_DIRECTIONS = {"sensor": "input", "actuator": "output"}

#: Engineering stages in workflow order.
STAGES = (
    "process_planning",
    "logistics_planning",
    "electrical_planning",
    "mechanical_eng",
    "electrical_eng",
    "control_hmi_eng",
)

#: Engineering disciplines.
DISCIPLINES = ("mechanical", "electrical", "software", "logistics", "process")

#: Role pre-assigned to every module root so serialized files can identify it.
BASE_ROLE = "AutomationMLBaseRoleClassLib"


class ModelError(ValueError):
    """Raised when a construction-time invariant would be broken."""


# ---------------------------------------------------------------------------
# Value checks
# ---------------------------------------------------------------------------

#: Characters that XML 1.0 cannot carry at all (controls other than tab,
#: line feed and carriage return, surrogates, U+FFFE and U+FFFF).
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def non_xml_char(value: str) -> str | None:
    """The first character of value that XML cannot carry, as U+XXXX, or None."""
    found = _NOT_XML.search(value)
    return f"U+{ord(found.group()):04X}" if found else None


def _require_clean(value: str, what: str) -> None:
    """ModelError unless `value` is a str that XML can carry and that holds
    no carriage return.

    A printable string passes in one C call: str.isprintable() is false for
    every control character (carriage return included), every surrogate
    and U+FFFE and U+FFFF, since Unicode classes them as Cc, Cs or Cn. A
    string that is not printable (one with a tab, a line feed or a space
    other than U+0020, say) takes the full checks, which give the verdict
    and word the error.
    """
    if isinstance(value, str) and value.isprintable():
        return
    if not isinstance(value, str):
        raise ModelError(f"{what} must be a string, not {type(value).__name__}")
    if "\r" in value:
        raise ModelError(f"{what} must not contain carriage returns")
    bad = non_xml_char(value)
    if bad:
        raise ModelError(f"{what} must not contain the character {bad}, which XML cannot carry")


def _require_type(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise ModelError(f"{what} must be of type {kind.__name__}, not {type(value).__name__}")


def _require_name(name: str, what: str) -> None:
    if not isinstance(name, str) or not is_name(name):
        raise ModelError(f"invalid {what} name {name!r}")


def _number(text: str) -> float:
    """float() of a plain ASCII number, whitespace around it allowed: float()
    alone also reads digit-group underscores (`1_0`) and non-ASCII digits."""
    core = text if text.isascii() else text.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return float(core)


def parse_triple(text: str) -> tuple[float, float, float]:
    """Parse a "(x,y,z)" string into three finite floats, each read as
    _number reads it. An ASCII text without an underscore, the common case,
    is read with the C-level float() alone: on such a part _number does
    nothing but call float()."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ModelError(f"not a triple: {text!r}")
    parts = stripped[1:-1].split(",")
    if len(parts) != 3:
        raise ModelError(f"not a triple: {text!r}")
    try:
        x, y, z = map(float if text.isascii() and "_" not in text else _number, parts)
    except ValueError:
        raise ModelError(f"not a triple: {text!r}") from None
    if not all(map(math.isfinite, (x, y, z))):
        raise ModelError(f"not a triple of finite numbers: {text!r}")
    return (x, y, z)


# A validator takes the value and a label for messages, and returns the value
# to store (route priorities become ints) or raises ModelError or PathError.

def _enum(*allowed: str) -> Callable[[str, str], str]:
    def check(value: str, what: str) -> str:
        if value not in allowed:
            raise ModelError(f"invalid {what} {value!r}; expected one of {', '.join(allowed)}")
        return value
    return check


_NUMBER = r"\s*[+-]?(?:\d{1,20}(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d{1,2})?\s*"
_PLAIN_TRIPLE = re.compile(rf"\s*\({_NUMBER}(?:,{_NUMBER}){{2}}\)\s*", re.ASCII)


def _triple(value: str, what: str) -> str:
    """`value`, empty or a triple parse_triple accepts. A plain triple passes
    in one fullmatch of _PLAIN_TRIPLE: ASCII whitespace, which strip() and
    float() skip, around three ASCII decimals without `_`, which float()
    reads as _number does; at most 20 integer digits (the fraction adds
    less than 1) and a 2-digit exponent keep each below 1e120, so finite.
    Any other text takes parse_triple, which gives the verdict and words
    the error."""
    if value and not _PLAIN_TRIPLE.fullmatch(value):
        parse_triple(value)
    return value


def _positive_triple(value: str, what: str) -> str:
    if value and not all(v > 0 for v in parse_triple(value)):
        raise ModelError(f"{what} must be strictly positive, got {value!r}")
    return value


def _seconds(value: str, what: str) -> str:
    if value == "":
        return value
    try:
        seconds = _number(value)
    except ValueError:
        raise ModelError(f"{what} is not a number: {value!r}") from None
    if not math.isfinite(seconds):
        raise ModelError(f"{what} must be a finite number, got {value!r}")
    if seconds < 0:
        raise ModelError(f"{what} must be non-negative, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """An int (not a bool), or a string that is an integer's canonical
    decimal form (no sign other than '-', no leading zeros, spaces,
    underscores or non-ASCII digits), so that writing the value back gives
    the same text."""
    if type(value) is int:
        return value
    if not isinstance(value, str):
        raise ModelError(f"{what} must be an int or a string, not {type(value).__name__}")
    _require_clean(value, what)
    try:
        number = int(value)
    except ValueError:
        raise ModelError(f"{what} is not an integer: {value!r}") from None
    if str(number) != value:
        raise ModelError(f"{what} is not a canonical decimal integer: {value!r}")
    return number


def _path(value: str, what: str) -> str:
    if not value:
        raise PathError(f"{what} is empty")
    split_path(value)
    return value


def _optional_path(value: str, what: str) -> str:
    if value:
        split_path(value)
    return value


def _ordered_corners(space: InteractionSpace) -> None:
    if space.min_corner and space.max_corner:
        low, high = parse_triple(space.min_corner), parse_triple(space.max_corner)
        if any(a > b for a, b in zip(low, high)):
            raise ModelError(f"interaction space {space.name!r} has min > max")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

def param(default: Any = "", unit: str = "", check: Callable[[Any, str], Any] | None = None):
    """Declare a dataclass field as a parameter: its default (valid by
    declaration; MISSING for a required field, read as "" when not given),
    its unit and its validator. ElementSpec derives its params from these."""
    text = "" if default is MISSING else str(default)
    return field(default=default, metadata={"param": (unit, text, check)})


@record
class Parameter:
    """A named engineering-time value with an optional unit."""

    name: str
    value: str = ""
    unit: str = ""


@record
class ExternalRef:
    """Reference to an external document via an interface class."""

    name: str
    interface_class: str
    ref_uri: str = ""


@record
class Annotation:
    """Role and interface identifiers attached to one element."""

    roles: tuple[str, ...] = ()
    external_refs: tuple[ExternalRef, ...] = ()


@record
class Element:
    """Base of the element and entry types: the element's own annotation."""

    annotation: Annotation = field(default=Annotation(), repr=False, kw_only=True)


@record
class Identification(Element):
    """The module's name, identifier and type."""

    name: str = param()
    identifier: str = param()
    module_type: str = param()


@record
class GeneralDescription(Element):
    """Static, engineering-time information about the module."""

    identification: Identification = field(default_factory=Identification)
    main_dimensions: str = param(unit="mm", check=_positive_triple)  # "(length,width,height)"
    static_attributes: tuple[Parameter, ...] = ()


@record
class RuntimeVariable(Element):
    """Declaration of a runtime value (no engineering-time valuation)."""

    name: str
    data_type: str = param()
    unit: str = param()
    description: str = param()


@record
class StatusDescription(Element):
    """The runtime variables the module exposes."""

    runtime_variables: tuple[RuntimeVariable, ...] = ()


@record
class LogisticFunction(Element):
    """One logistic function of the module, with its behavior reference."""

    name: str
    category: str = param("material_flow", check=_enum(*FUNCTION_CATEGORIES))
    behavior_ref: str = param()  # document id of a behavior description


@record
class Route(Element):
    """A route of material between two ports, with its priority."""

    from_port: str = param(MISSING)
    to_port: str = param(MISSING)
    priority: int = param(0, check=_integer)


@record
class FunctionDescription(Element):
    """The module's logistic functions and routes."""

    logistic_functions: tuple[LogisticFunction, ...] = ()
    routes: tuple[Route, ...] = ()


@record
class Port(Element):
    """A named point where material enters or leaves the module."""

    name: str
    direction: str = param("in", check=_enum(*PORT_DIRECTIONS))
    position: str = param(unit="mm", check=_triple)  # "(x,y,z)"


@record
class InteractionSpace(Element):
    """A named box, by its corners, where the module meets its neighbours."""

    name: str
    min_corner: str = param(unit="mm", check=_triple)
    max_corner: str = param(unit="mm", check=_triple)


@record
class InterfaceDescription(Element):
    """The module's ports and interaction spaces."""

    ports: tuple[Port, ...] = ()
    interaction_spaces: tuple[InteractionSpace, ...] = ()


@record
class ControlFunction(Element):
    """One control function and the document holding its code body."""

    name: str
    language_tag: str = param()  # IEC 61131-3 language name, free string
    body_ref: str = param()  # document id of the code body


@record
class Variable(Element):
    """One control variable of the module's program."""

    name: str
    data_type: str = param()
    scope: str = param()


@record
class IoMapEntry(Element):
    """Mapping of one electrical signal to a control variable."""

    component_path: str = param(MISSING, check=_path)
    logical_address: str = param()
    variable_name: str = param()
    data_type: str = param()
    direction: str = param("input", check=_enum(*IO_DIRECTIONS))


@record
class Platform(Element):
    """The controller and bus coupler the module's control runs on."""

    controller_type: str = param()
    bus_coupler_type: str = param()


@record
class ControlDescription(Element):
    """The module's control functions, variables, io mapping and platform."""

    control_functions: tuple[ControlFunction, ...] = ()
    variables: tuple[Variable, ...] = ()
    io_mapping: tuple[IoMapEntry, ...] = ()
    platform: Platform = field(default_factory=Platform)


@record
class Component(Element):
    """One sensor, actuator, conveyor or switch of the module."""

    name: str
    kind: str = param("sensor", check=_enum(*COMPONENT_KINDS))
    component_type: str = param()
    position: str = param(unit="mm", check=_triple)
    main_dimensions: str = param(unit="mm", check=_triple)
    latency: str = param(unit="s", check=_seconds)


@record
class DocumentReference(Element):
    """A document of one discipline and stage, and the element it is assigned to."""

    id: str
    discipline: str = param("logistics", check=_enum(*DISCIPLINES))
    stage: str = param("logistics_planning", check=_enum(*STAGES))
    name: str = param()
    server_path: str = param()  # stored verbatim, never validated as a filesystem path
    assigned_element: str = param(check=_optional_path)


@record
class CrossReference:
    """A link from one element path to another, with its kind."""

    source: str
    target: str
    kind: str = ""


@record
class ModuleModel(Element):
    """Root aggregate for one module."""

    id: str
    name: str = param()
    general: GeneralDescription = field(default_factory=GeneralDescription)
    status: StatusDescription = field(default_factory=StatusDescription)
    function: FunctionDescription = field(default_factory=FunctionDescription)
    interface: InterfaceDescription = field(default_factory=InterfaceDescription)
    control: ControlDescription = field(default_factory=ControlDescription)
    components: tuple[Component, ...] = ()
    documents: tuple[DocumentReference, ...] = ()
    cross_refs: tuple[CrossReference, ...] = ()


# ---------------------------------------------------------------------------
# The meta-model schema
# ---------------------------------------------------------------------------

@record
class Param:
    """One parameter as its param() field declares it: name, unit, default text, validator."""

    name: str
    unit: str = ""
    default: str = ""
    check: Callable[[Any, str], Any] | None = None


@record
class ElementSpec:
    """One element of the meta model, or one list of entries.

    `path` is the attribute path below the module root; its segments are
    also the element path segments and the CAEX InternalElement names. `key`
    is "" for a single element, else the entry field that names an entry in
    paths ("name" or "id") or "index" for position-addressed lists. `cls` is
    the rule-table class. `surface` says whether the parameters belong to the
    parameter surface (resolve, set_parameter, tables, completeness); the
    module name and the document fields are written to files but are not
    parameters. `extra` names a field holding an open set of Parameters, and
    `invariant` checks a whole element after its parameters. `params` are
    the param() fields of `node_type`, in field order; `names` by name;
    `required` those declared param(MISSING).
    """

    path: tuple[str, ...]
    key: str
    node_type: type
    cls: str
    surface: bool = True
    extra: str = ""
    invariant: Callable[[Any], None] | None = None
    params: tuple[Param, ...] = field(init=False)
    required: tuple[Param, ...] = field(init=False, repr=False, compare=False)
    #: "port", "runtime variable", ...: used in messages
    label: str = field(init=False, repr=False, compare=False)
    names: dict[str, Param] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        declared = [f for f in fields(self.node_type) if "param" in f.metadata]
        params = tuple(Param(f.name, *f.metadata["param"]) for f in declared)
        words = re.sub(r"(?<!^)(?=[A-Z])", " ", self.node_type.__name__).lower()
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "required", tuple(
            p for p, f in zip(params, declared) if f.default is MISSING))
        object.__setattr__(self, "label", words)
        object.__setattr__(self, "names", {p.name: p for p in params})

    def writable(self, name: str) -> bool:
        """Whether `name` is a parameter set_parameter and table rows may write."""
        return self.surface and (name in self.names or bool(self.extra))


ROOT = ElementSpec((), "", ModuleModel, "Module", surface=False)

#: Every element and entry list, in document order (the order of
#: walk and of the serialized file).
SCHEMA: tuple[ElementSpec, ...] = (
    ROOT,
    ElementSpec(("general",), "", GeneralDescription, "General", extra="static_attributes"),
    ElementSpec(("general", "identification"), "", Identification, "General.Identification"),
    ElementSpec(("status",), "", StatusDescription, "Status"),
    ElementSpec(("status", "runtime_variables"), "name", RuntimeVariable,
                "Status.RuntimeVariable"),
    ElementSpec(("function",), "", FunctionDescription, "Function"),
    ElementSpec(("function", "logistic_functions"), "name", LogisticFunction,
                "Function.LogisticFunction"),
    ElementSpec(("function", "routes"), "index", Route, "Function.Route"),
    ElementSpec(("interface",), "", InterfaceDescription, "Interface"),
    ElementSpec(("interface", "ports"), "name", Port, "Interface.Port"),
    ElementSpec(("interface", "interaction_spaces"), "name", InteractionSpace,
                "Interface.InteractionSpace", invariant=_ordered_corners),
    ElementSpec(("control",), "", ControlDescription, "Control"),
    ElementSpec(("control", "control_functions"), "name", ControlFunction,
                "Control.ControlFunction"),
    ElementSpec(("control", "variables"), "name", Variable, "Control.Variable"),
    ElementSpec(("control", "io_mapping"), "index", IoMapEntry, "Control.IoMapEntry"),
    ElementSpec(("control", "platform"), "", Platform, "Control.Platform"),
    ElementSpec(("components",), "name", Component, "Component"),
    ElementSpec(("documents",), "id", DocumentReference, "Document", surface=False),
)

# Cross references are addressable by index but are links, not elements: they
# have no CAEX element, no rule class and no parameters, so SCHEMA leaves them out.
_CROSS_REFS = ElementSpec(("cross_refs",), "index", CrossReference, "", surface=False)

_BY_PATH = {spec.path: spec for spec in SCHEMA + (_CROSS_REFS,)}
_BY_TYPE = {spec.node_type: spec for spec in SCHEMA + (_CROSS_REFS,)}

#: The message label ("port position") of each schema parameter, keyed by
#: the identity of its Param record, which SCHEMA keeps alive.
_LABELS = {id(p): f"{spec.label} {p.name}" for spec in SCHEMA for p in spec.params}

#: Child specs of each spec by name, in document order.
CHILDREN: dict[tuple[str, ...], dict[str, ElementSpec]] = {
    spec.path: {c.path[-1]: c for c in SCHEMA if c.path and c.path[:-1] == spec.path}
    for spec in SCHEMA
}

#: The top-level sub-trees that carry parameters.
SUBTREES = tuple(spec.path[0] for spec in SCHEMA if len(spec.path) == 1 and spec.surface)


def spec_of(node: object) -> ElementSpec:
    """The schema record of an element or entry node; ModelError for any other value."""
    try:
        return _BY_TYPE[type(node)]
    except KeyError:
        raise ModelError(f"{type(node).__name__} is not a node of the meta model") from None


def spec_at(path: str) -> ElementSpec:
    """The schema record of the element or list at `path` below the module id."""
    return _BY_PATH[tuple(path.split("/"))]


def get(model: ModuleModel, spec: ElementSpec):
    """The element, or the tuple of entries, at `spec` in `model`."""
    node = model
    for segment in spec.path:
        node = getattr(node, segment)
    return node


def _put(node, path: tuple[str, ...], value, position: int | None = None):
    """`node` with `value` at attribute `path`, or as entry `position` of the list there."""
    if path:
        head = path[0]
        return replace(node, **{head: _put(getattr(node, head), path[1:], value, position)})
    return value if position is None else node[:position] + (value,) + node[position + 1:]


def keyed(spec: ElementSpec, items: tuple) -> list[tuple[str, object]]:
    """(path segment, entry) for each entry of one list."""
    if spec.key == "index":
        return [(str(i), entry) for i, entry in enumerate(items)]
    return list(zip(map(attrgetter(spec.key), items), items))


def param_rows(spec: ElementSpec, node) -> list[tuple[str, str, str]]:
    """(name, value, unit) of every parameter of one element, in canonical
    order; the open attribute set, if any, comes last."""
    rows = [(p.name, str(getattr(node, p.name)), p.unit) for p in spec.params]
    if spec.extra:
        rows.extend((p.name, p.value, p.unit) for p in getattr(node, spec.extra))
    return rows


def unit_mismatch(spec: ElementSpec, name: str, unit: str, expected: str) -> str:
    """The message for a value of parameter `name` given in `unit`, not in `expected`."""
    return (f"{spec.label} {name} has unit {unit!r}; "
            f"expected {repr(expected) if expected else 'none'}")


def check_value(spec: ElementSpec, param: Param, value):
    """Validate one parameter value; returns the value to store. A value is
    a str, except that an int-declared parameter (a route priority) also
    takes an int, never a bool or a float: any other value could not be
    written to a file and read back equal. A printable str passes
    _require_clean (see there) without a call: one of a parameter without a
    validator is returned at once, and one with a validator goes straight to
    it. The label of a schema parameter ("port position") is looked up in
    _LABELS, made once with the schema; any other spec's is formatted here."""
    check = param.check
    clean = isinstance(value, str) and value.isprintable()
    if clean and check is None:
        return value
    what = _LABELS.get(id(param)) or f"{spec.label} {param.name}"
    if not clean and check is not _integer:
        _require_clean(value, what)
    return check(value, what) if check else value


def check_node(spec: ElementSpec, node, taken=()):
    """Validate an element or entry and return the node to store: its key
    name first, its parameter values, its open attribute set (each a
    Parameter, checked as add_static_attribute checks it) and its annotation
    (an Annotation whose references are ExternalRefs, checked as with_roles
    and with_external_ref check theirs), then the rest of check_shape."""
    if spec.key in ("name", "id"):
        _require_name(getattr(node, spec.key), spec.label)
    changes = {}
    for param in spec.params:
        value = getattr(node, param.name)
        stored = check_value(spec, param, value)
        if stored is not value:
            changes[param.name] = stored
    names: set[str] = set()
    for attr in getattr(node, spec.extra) if spec.extra else ():
        _require_type(attr, Parameter, "attribute")
        names.add(check_attribute(spec, names, attr.name, attr.value, attr.unit).name)
    given = node.annotation
    _require_type(given, Annotation, "annotation")
    if given.roles or given.external_refs:
        ann = check_roles(Annotation(), given.roles)
        for ref in given.external_refs:
            _require_type(ref, ExternalRef, "external reference")
            ann = check_external_ref(ann, spec.label, ref)
        changes["annotation"] = ann
    if changes:
        node = replace(node, **changes)
    return check_shape(spec, node, taken)


def check_shape(spec: ElementSpec, node, taken=()):
    """Validate what check_node does beyond the values and return `node`:
    its key name, the invariant and, for an entry to be appended to a list
    whose keys are `taken` (any container; unused for index-keyed lists),
    that its key is new."""
    keyed = spec.key in ("name", "id")
    if keyed:
        _require_name(getattr(node, spec.key), spec.label)
    if spec.invariant:
        spec.invariant(node)
    if keyed and getattr(node, spec.key) in taken:
        raise ModelError(f"duplicate {spec.label} {getattr(node, spec.key)!r}")
    return node


def check_attribute(spec: ElementSpec, taken, name: str, value: str, unit: str) -> Parameter:
    """Validate one attribute of an open set (`spec.extra`) whose names are `taken`."""
    _require_name(name, "attribute")
    _require_clean(value, "attribute value")
    _require_clean(unit, "attribute unit")
    if name in spec.names:
        raise ModelError(f"{name!r} is a built-in parameter, not an attribute")
    if name in taken:
        raise ModelError(f"duplicate static attribute {name!r}")
    return Parameter(name, value, unit)


def check_roles(ann: Annotation, roles) -> Annotation:
    """`ann` with the validated `roles` merged in, without repeats."""
    merged = dict.fromkeys(ann.roles)
    for role in roles:
        _require_name(role, "role identifier")
        merged[role] = None
    return Annotation(tuple(merged), ann.external_refs)


def check_external_ref(ann: Annotation, path: str, ref: ExternalRef) -> Annotation:
    """`ann` (at `path`) with the validated `ref` appended."""
    _require_name(ref.name, "external reference")
    _require_name(ref.interface_class, "interface class")
    _require_clean(ref.ref_uri, "refURI")
    if any(r.name == ref.name for r in ann.external_refs):
        raise ModelError(f"duplicate external reference {ref.name!r} at {path!r}")
    return replace(ann, external_refs=ann.external_refs + (ref,))


def check_cross_ref(source: str, target: str, kind: str) -> CrossReference:
    """A validated cross reference; dangling endpoints are permitted."""
    split_path(source)
    split_path(target)
    if source == target:
        raise ModelError(f"cross reference source equals target: {source!r}")
    _require_clean(kind, "cross reference kind")
    return CrossReference(source, target, kind)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

#: Most segments a module id may have. A model file nests the module root
#: under two wrapper elements and one element per id segment, and the
#: module's own elements reach six levels below its root, so every file the
#: writer produces stays well inside the reader's xmlio.MAX_DEPTH (256).
MAX_ID_SEGMENTS = 200


def check_module_id(id: str) -> None:
    """Validate a module id: non-empty, path grammar, at most MAX_ID_SEGMENTS segments."""
    if not id:
        raise ModelError("module id must be non-empty")
    segments = split_path(id)
    if len(segments) > MAX_ID_SEGMENTS:
        raise ModelError(
            f"module id has {len(segments)} segments; at most {MAX_ID_SEGMENTS} are allowed")


def new_module(id: str, name: str) -> ModuleModel:
    """Create an empty module with the five sub-class containers.

    The module root is pre-annotated with the base role class so serialized
    files can identify it.
    """
    check_module_id(id)
    _require_clean(name, "module name")
    return ModuleModel(id=id, name=name, annotation=Annotation(roles=(BASE_ROLE,)))


def set_element(model: ModuleModel, node) -> ModuleModel:
    """Replace a single element (the root, a container or a singleton) by a
    validated `node` of the same type. It sets that element alone: the
    node's child elements and entry lists, and the root's id and cross
    references, must be the model's, since each is edited by its own builder."""
    spec = spec_of(node)
    if spec.key:
        raise ModelError(f"set_element sets an element, not a {spec.label} entry")
    held = get(model, spec)
    fixed = (*CHILDREN[spec.path], *(() if spec.path else ("id", "cross_refs")))
    changed = [name for name in fixed if getattr(node, name) != getattr(held, name)]
    if changed:
        raise ModelError(f"set_element sets the {spec.label} alone; its "
                         f"{', '.join(changed)} must be the model's")
    return _put(model, spec.path, check_node(spec, node))


def add_entry(model: ModuleModel, entry) -> ModuleModel:
    """Append a validated entry to the list its type belongs to."""
    spec = spec_of(entry)
    if spec is _CROSS_REFS:
        raise ModelError("a cross reference is added with add_cross_ref, not add_entry")
    if not spec.key:
        raise ModelError(f"add_entry appends an entry, not the {spec.label} element")
    items = get(model, spec)
    taken = () if spec.key == "index" else map(attrgetter(spec.key), items)
    return _put(model, spec.path, items + (check_node(spec, entry, taken),))


def set_identification(
    model: ModuleModel,
    name: str | None = None,
    identifier: str | None = None,
    module_type: str | None = None,
) -> ModuleModel:
    given = {"name": name, "identifier": identifier, "module_type": module_type}
    return set_element(model, replace(
        model.general.identification, **{k: v for k, v in given.items() if v is not None}))


def set_main_dimensions(model: ModuleModel, dims: str) -> ModuleModel:
    return set_element(model, replace(model.general, main_dimensions=dims))


def add_static_attribute(model: ModuleModel, name: str, value: str, unit: str = "") -> ModuleModel:
    attrs = model.general.static_attributes
    added = check_attribute(spec_of(model.general), (p.name for p in attrs), name, value, unit)
    return _put(model, ("general", "static_attributes"), attrs + (added,))


def _adder(node_type: type, name: str):
    """The builder `name`: it appends node_type(...) with add_entry, and its
    signature is the dataclass's with `model` in front."""
    def build(model: ModuleModel, *args, **kwargs) -> ModuleModel:
        return add_entry(model, node_type(*args, **kwargs))

    own = inspect.signature(node_type)
    first = inspect.Parameter("model", inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              annotation="ModuleModel")
    build.__signature__ = own.replace(
        parameters=(first, *own.parameters.values()), return_annotation="ModuleModel")
    build.__name__ = build.__qualname__ = name
    build.__doc__ = f"Append {node_type.__name__}(...) to its list, as add_entry does."
    return build


add_runtime_variable = _adder(RuntimeVariable, "add_runtime_variable")
add_logistic_function = _adder(LogisticFunction, "add_logistic_function")
add_route = _adder(Route, "add_route")
add_port = _adder(Port, "add_port")
add_interaction_space = _adder(InteractionSpace, "add_interaction_space")
add_control_function = _adder(ControlFunction, "add_control_function")
add_variable = _adder(Variable, "add_variable")
add_io_entry = _adder(IoMapEntry, "add_io_entry")
add_component = add_document = add_entry  # given the whole entry


def set_platform(model: ModuleModel, controller_type: str, bus_coupler_type: str) -> ModuleModel:
    return set_element(model, Platform(
        controller_type, bus_coupler_type, annotation=model.control.platform.annotation))


def replace_document(model: ModuleModel, doc: DocumentReference) -> ModuleModel:
    """Swap an existing document reference (matched by id) for `doc`,
    validated as check_node validates it; the stored annotation is kept."""
    _require_type(doc, DocumentReference, "document")
    spec = spec_of(doc)
    index = Resolver(model).position(spec, doc.id)
    if index is None:
        raise ModelError(f"unknown document id {doc.id!r}")
    doc = replace(doc, annotation=model.documents[index].annotation)
    return _put(model, spec.path, check_node(spec, doc), index)


def add_cross_ref(model: ModuleModel, source: str, target: str, kind: str) -> ModuleModel:
    """Record a reference between two element paths.

    Dangling endpoints are permitted here; the consistency checks flag them.
    Inserting the same (source, target, kind) triple twice is a no-op. Each
    call compares the sources, then, if one is equal, the triples of every
    reference, and copies the list, all at C level; the file reader
    validates every link with check_cross_ref and removes repeats through
    one set instead.
    """
    ref = check_cross_ref(source, target, kind)
    refs = model.cross_refs
    fields = attrgetter("source", "target", "kind")
    if ref.source in map(attrgetter("source"), refs) and fields(ref) in map(fields, refs):
        return model
    return _put(model, _CROSS_REFS.path, refs + (ref,))


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

def annotation_at(model: ModuleModel, path: str) -> Annotation:
    """The annotation of the element at `path`; empty when none is there."""
    found = Resolver(model).resolved(path)
    return found.node.annotation if found is not None and found.is_element else Annotation()


def _annotate(model: ModuleModel, path: str, change) -> ModuleModel:
    found = Resolver(model).locate(path)
    if found is None or not found.is_element:
        if _value(found) is None:
            raise ModelError(f"path does not resolve: {path!r}")
        raise ModelError(f"path does not address an element: {path!r}")
    spec, index, node = found[:3]
    return _put(model, spec.path, replace(node, annotation=change(node.annotation)), index)


def with_roles(model: ModuleModel, path: str, *roles: str) -> ModuleModel:
    """Attach role identifiers to the element at `path` (idempotent)."""
    return _annotate(model, path, lambda ann: check_roles(ann, roles))


def with_external_ref(model: ModuleModel, path: str, ref: ExternalRef) -> ModuleModel:
    """Attach an external document reference to the element at `path`."""
    _require_type(ref, ExternalRef, "external reference")
    return _annotate(model, path, lambda ann: check_external_ref(ann, path, ref))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def walk(model: ModuleModel):
    """Yield (spec, path, node) for the root, containers, and every entry."""
    mid = model.id
    for spec in SCHEMA:
        node = get(model, spec)
        path = join_path(mid, *spec.path)
        if not spec.key:
            yield spec, path, node
            continue
        for key, entry in keyed(spec, node):
            yield spec, f"{path}/{key}", entry


def component_paths(model: ModuleModel) -> dict[str, Component]:
    """Each component by its element path (the first of a repeated name, as
    resolve() finds it), for looking stored paths up without decoding them."""
    prefix = join_path(model.id, "components") + "/"
    found: dict[str, Component] = {}
    for component in model.components:
        found.setdefault(prefix + component.name, component)
    return found


def iter_parameters(model: ModuleModel):
    """Yield (element_path, name, value, unit) for every scalar parameter."""
    for spec, path, node in walk(model):
        if spec.surface:
            for name, value, unit in param_rows(spec, node):
                yield path, name, value, unit


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def _position(segment: str) -> int | None:
    """The index a canonical decimal segment names: "0", "7", "12", but not
    "00", "+1" or non-ASCII digits."""
    if segment.isascii() and segment.isdigit() and (segment == "0" or segment[0] != "0"):
        return int(segment)
    return None


def cell(spec: ElementSpec, node, name: str) -> tuple[str, str] | None:
    """(value, unit) of parameter `name` of `node`, an element of `spec`:
    a schema parameter, else an open-set attribute; None if there is none."""
    param = spec.names.get(name)
    if param is not None:
        return str(getattr(node, name)), param.unit
    for attribute in getattr(node, spec.extra) if spec.extra else ():
        if attribute.name == name:
            return attribute.value, attribute.unit
    return None


def _value(found):
    """resolve()'s answer for a Resolver.locate record (or None)."""
    if found is None:
        return None
    spec, _index, node, tail, _rest = found
    if not tail or node is None:
        return tuple(node) if type(node) is list else node
    if len(tail) > 1 or not spec.surface:
        return None
    value = cell(spec, node, tail[0])
    return value and value[0]


_new = tuple.__new__  # builds a _Located without its generated __new__


class _Located(NamedTuple):
    """Where a path lands, as Resolver.locate decodes it: the spec it falls
    under; the entry's position (None unless it names an existing entry);
    the node (the element, the entry, None for a missing entry, or a list
    path's entries); the segments below the node (a parameter name) and
    those below the module id. `value` is resolve()'s answer, `is_element`
    whether the path names an existing element, not a list, parameter,
    missing entry or cross reference."""

    spec: ElementSpec
    index: int | None
    node: Any
    tail: tuple[str, ...]
    rest: tuple[str, ...]

    value = property(_value)

    @property
    def is_element(self) -> bool:
        spec = self.spec
        return not self.tail and type(self.node) is spec.node_type and bool(spec.cls)


def resolve(model: ModuleModel, path: str):
    """Return the element, entry list or parameter value at `path`, or None.

    Not-found is a value; only a syntactically malformed path raises
    PathError. A parameter path is an element path plus the parameter name;
    a list path (`<id>/components`, `<id>/status/runtime_variables`, ...)
    resolves to the tuple of its entries, empty or not. An index segment is
    a canonical decimal ("3", not "03").
    """
    return Resolver(model)(path)


class Resolver:
    """resolve() for a batch of paths of one model, and the working copy of
    a batch of edits of it (a table import).

    The first lookup of a key in a keyed list finds it by a C-level scan of
    the list's keys, so a resolver made for one lookup does no Python-level
    work per entry. From the second lookup on, the list is indexed (key ->
    position) and a lookup costs a dictionary probe; one resolver per
    operation keeps a whole check or table import linear.

    locate() decodes a path once into the _Located record that resolution,
    the edits, ownership, rule classes and table rows all read.

    The edits are stored in the model the resolver holds, so every lookup
    sees every edit: an element with one _put, a list on its first write as
    a Python-list copy, which later writes change in place. model() gives
    those lists as tuples; a resolver never edited gives the model it got.
    """

    def __init__(self, model: ModuleModel):
        self._model = model
        self.id = model.id
        self._prefix = model.id + "/"
        self._depth = model.id.count("/") + 1
        self._lists: dict[tuple[str, ...], list] = {}  # the written lists, held in _model
        self._positions: dict[tuple[str, ...], dict[str, int]] = {}
        self._scanned: set[tuple[str, ...]] = set()  # lists searched once, unindexed

    def part(self, spec: ElementSpec):
        """The current element, or sequence of entries, at `spec`; a written
        list is found with one probe, and no probe is made before a write."""
        return (self._lists and self._lists.get(spec.path)) or get(self._model, spec)

    def keys(self, spec: ElementSpec) -> dict[str, int]:
        """Key -> position of the current entries of a name- or id-keyed list."""
        positions = self._positions.get(spec.path)
        if positions is None:
            positions = self._positions[spec.path] = {}
            for index, entry in enumerate(self.part(spec)):
                positions.setdefault(getattr(entry, spec.key), index)
        return positions

    def position(self, spec: ElementSpec, key: str) -> int | None:
        """Position of the first entry keyed `key` in the list of `spec`, or None."""
        if spec.path in self._positions or spec.path in self._scanned:
            return self.keys(spec).get(key)
        self._scanned.add(spec.path)
        try:
            return indexOf(map(attrgetter(spec.key), self.part(spec)), key)
        except ValueError:
            return None

    def locate(self, path: str) -> _Located | None:
        """The _Located record of `path`, or None outside the module; the
        spec and `rest` need no entry to exist. A malformed path raises PathError."""
        segments = split_path(path)
        if path != self.id and not path.startswith(self._prefix):
            return None
        rest = segments[self._depth:]
        spec = _BY_PATH.get(rest[:2]) or _BY_PATH.get(rest[:1]) or ROOT
        tail = rest[len(spec.path):]
        node = self.part(spec)
        index = None
        if spec.key and tail:
            key, tail = tail[0], tail[1:]
            index = _position(key) if spec.key == "index" else self.position(spec, key)
            if index is None or index >= len(node):
                index = node = None
            else:
                node = node[index]
        return _new(_Located, (spec, index, node, tail, rest))

    def __call__(self, path: str):
        """resolve() on the current model"""
        return _value(self.locate(path))

    def resolved(self, path: str) -> _Located | None:
        """The _Located record of `path` if it resolves, else None, also for
        a malformed path (a model built without the builders can hold one)."""
        try:
            found = self.locate(path)
        except PathError:
            return None
        return found if _value(found) is not None else None

    def _entries(self, spec: ElementSpec) -> list:
        """The list of `spec` to write in place: on its first write, a list
        copy stored in the model."""
        held = self._lists.get(spec.path)
        if held is None:
            held = self._lists[spec.path] = list(get(self._model, spec))
            self._model = _put(self._model, spec.path, held)
        return held

    def put(self, spec: ElementSpec, position: int | None, node) -> None:
        """Store `node` as given: as the element at `spec` when `position` is
        None, else as the entry at `position` of its list, whose key it keeps.
        An element must keep the written lists below it, as one read here does."""
        if position is None:
            self._model = _put(self._model, spec.path, node)
        else:
            self._entries(spec)[position] = node

    def append(self, spec: ElementSpec, entry) -> None:
        """Add `entry`, stored as given, to the list of `spec`."""
        entries = self._entries(spec)
        entries.append(entry)
        positions = self._positions.get(spec.path)
        if positions is not None:
            positions.setdefault(getattr(entry, spec.key), len(entries) - 1)

    def model(self) -> ModuleModel:
        """The model with every edit, its written lists as tuples."""
        model = self._model
        for path, entries in self._lists.items():
            model = _put(model, path, tuple(entries))
        return model


# ---------------------------------------------------------------------------
# Generic parameter writes (used by the table exchange)
# ---------------------------------------------------------------------------

def set_parameter(model: ModuleModel, element_path: str, name: str, value: str) -> ModuleModel:
    """Write one scalar parameter addressed by element path + name.

    Unknown element paths raise ModelError; on the general element an unknown
    parameter name creates a new static attribute (the table workflow may
    request attributes that do not exist yet).
    """
    found = Resolver(model).locate(element_path)
    if _value(found) is None:
        raise ModelError(f"unknown element path {element_path!r}")
    spec, index, node = found[:3]
    if not found.is_element or not spec.surface or not (spec.params or spec.extra):
        raise ModelError(f"element {element_path!r} has no writable parameters")
    return _put(model, spec.path, write_parameter(spec, node, name, value), index)


def write_parameter(spec: ElementSpec, node, name: str, value: str, unit: str = ""):
    """`node`, an element of `spec`, with one parameter written and validated
    as set_parameter() validates it; an unknown name in an open attribute
    set (`spec.extra`) adds a static attribute in `unit`. A given unit must
    be the unit of the cell the name already has, checked before the value.
    A checked value equal to the stored one (of the same type) gives `node`
    itself, still checked against the invariant."""
    found = unit and cell(spec, node, name)
    if found and unit != found[1]:
        raise ModelError(unit_mismatch(spec, name, unit, found[1]))
    _require_clean(value, "parameter value")
    if not spec.writable(name):
        raise ModelError(f"unknown {spec.label} parameter {name!r}")
    if name not in spec.names:
        attrs = getattr(node, spec.extra)
        for i, param in enumerate(attrs):
            if param.name == name:
                if param.value == value:
                    return node
                attrs = attrs[:i] + (replace(param, value=value),) + attrs[i + 1:]
                return replace(node, **{spec.extra: attrs})
        added = check_attribute(spec, (p.name for p in attrs), name, value, unit)
        return replace(node, **{spec.extra: attrs + (added,)})
    checked, stored = check_value(spec, spec.names[name], value), getattr(node, name)
    if checked == stored and type(checked) is type(stored):
        updated = node
    else:
        updated = replace(node, **{name: checked})
    if spec.invariant:
        spec.invariant(updated)
    return updated


# ---------------------------------------------------------------------------
# Removal (tamper and what-if analysis)
# ---------------------------------------------------------------------------

def remove_element(model: ModuleModel, path: str) -> ModuleModel:
    """Remove one removable element (list entries only, not containers).

    The entry's annotation goes with it. References pointing at the removed
    element are kept and become dangling. Removing an entry of an
    index-addressed list (io_mapping, routes, cross_refs) shifts the indexes
    of later entries, which keep their annotations; paths held elsewhere
    (cross references, document assignments) are the caller's concern.
    """
    found = Resolver(model).locate(path)
    if _value(found) is None:
        raise ModelError(f"unknown element path {path!r}")
    if found.index is None or found.tail:
        raise ModelError(f"not a removable element: {path!r}")
    items = get(model, found.spec)
    return _put(model, found.spec.path, items[:found.index] + items[found.index + 1:])
