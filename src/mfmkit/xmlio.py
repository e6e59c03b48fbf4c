"""Canonical XML reading and writing shared by the file formats.

Both exchange formats (the CAEX-subset module files and the generated
control-code files) use the same byte-level conventions: UTF-8, LF line
endings, 2-space indent, a fixed attribute order per element, and
self-closing tags for empty non-root elements. Free text lives in dedicated
text elements; everywhere else, non-whitespace character data is rejected.

A format declares its elements once, in a table from tag name to Tag: the
attributes and children each element allows, in canonical order, the
function that builds the element's value and its inverse, which splits a
value back into attributes, children and text. parse_tree reads a document
against such a table and serialize_tree writes one; neither knows a format.
A text element that only carries its parent's value (CAEX `Value`) is
declared folded: it is checked as an element and may occur once in its
parent, and its text is its parent's; the reader keeps no record for it.

The byte-level rules exist only here: UTF-8 or ASCII encoding, no DOCTYPE
declarations or processing instructions, nesting at most MAX_DEPTH deep,
non-whitespace text only inside text elements, no text element mixing text
with child elements, and expat's own errors. The structural rules come
from the table: the root tag, each element's tag within its parent, its
attribute names, at most one folded child, unique keys, and whatever a
`build` raises. The start rules are kept once, in _refusal. Every error is
an XmlError with the source line and column: a fast pass of expat builds
the value or gives up, asking _refusal once per element shape (parent tag,
tag, attribute names) in a document, and a placing pass then reads the
document again, asks _refusal at every element and reports the first error
with its line and column. The writer escapes only an attribute value that
holds `&`, `<`, `>`, `"`, a tab, line feed or carriage return, and only
text that holds `&`, `<`, `>` or a carriage return.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import field
from types import MappingProxyType
from xml.parsers import expat

from .records import record

DECLARATION = '<?xml version="1.0" encoding="utf-8"?>'

#: Deepest element nesting the reader accepts (the root is at depth 1). The
#: layers above walk trees recursively; this bound keeps every such walk far
#: below the interpreter's recursion limit.
MAX_DEPTH = 256


class XmlError(ValueError):
    """Malformed or unsupported XML, with a source position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


@record
class Tag:
    """One element of a format, for reading and for writing.

    The allowed attributes are `required` then `optional`, which is also
    their canonical order; the writer always writes the required ones and
    omits an optional one whose value is empty. `children` are the allowed
    child elements in canonical order.

    `build(attrs, kids, text)` makes the element's value from its
    attributes (a dict), its children's values (a mapping from tag to the
    list of values, in document order; tags that do not occur are absent;
    read-only and shared when there are none) and its text. It may raise
    XmlError without a position; the reader places it at the element.
    `split(value)` is the inverse: the attribute values in canonical order,
    one sequence of child values per entry of `children`, and the text.

    `text` marks an element whose character data is significant. With a
    `key`, the keys of an element's values must differ among its siblings
    of the same tag, checked at the end of the second one.

    A `folded` text element (never the root) has no attributes, build or
    split: its text is its parent's `text` for `build` and from `split`,
    which gives the folded child an empty sequence; an empty text is not
    written. It occurs at most once in its parent, checked at the start of
    the second.
    """

    required: tuple[str, ...]
    optional: tuple[str, ...]
    children: tuple[str, ...]
    build: Callable[[dict, dict, str], object] | None
    split: Callable[[object], tuple[tuple, tuple, str]] | None
    text: bool = False
    key: Callable[[object], str] | None = None
    folded: bool = False
    attrs: tuple[str, ...] = field(init=False)
    allowed: frozenset[str] = field(init=False)
    needed: frozenset[str] = field(init=False)
    child_tags: frozenset[str] = field(init=False)

    def __post_init__(self):
        if self.folded and (self.required or self.optional):
            raise ValueError("a folded element takes no attributes")
        object.__setattr__(self, "attrs", self.required + self.optional)
        object.__setattr__(self, "allowed", frozenset(self.attrs))
        object.__setattr__(self, "needed", frozenset(self.required))
        object.__setattr__(self, "child_tags", frozenset(self.children))


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

class _Unplaced(Exception):
    """The fast pass gives up: the placing pass reads the document and reports."""


#: What `build` gets as the children of an element that has none.
_NO_KIDS = MappingProxyType({})


def _scan(data: bytes, root: str, tags: dict[str, Tag], placing: bool):
    """The value of a document read in one strict pass of expat against `tags`.

    Each open element is a record [tag, Tag (None if unknown), attrs, child
    values by tag (None until the first child ends), keys of the children
    (None until the first keyed child ends), text parts (None unless a text
    element), folded child's text (None unless one was read)] on a stack
    whose bottom record takes the root as its one child; the placing pass
    adds [has children, start position]. Most elements are leaves, so a
    record allocates no dict or list of its own: the end of its first child
    makes the child dict with that child's list in it, and `build` is handed
    the shared, read-only _NO_KIDS when no child came. A text element's
    character data goes straight to the C-level `append` of its parts. The
    start of an element checks it against its parent and its attributes
    (_refusal); the end builds its value, or takes a folded element's text,
    for the parent. The two passes have handlers of their own, picked once.

    The fast pass builds or raises. It buffers character data (one callback
    per run of text between two tags) and keeps the distinct runs outside
    text elements in a set, checked for stray text at its end. It asks
    _refusal only for a signature (parent tag, tag, attribute names in
    document order) it has not admitted yet in this document, or for a
    folded element whose parent already holds a folded child's text:
    _refusal reads nothing else (the parent's Tag is the parent tag's, and
    the bottom record's tag is None), so an admitted signature has the
    verdict _refusal would give. `admitted` maps it, one part per level, to
    the tag's Tag, which the start reads from there. A folded element gets
    no record: its end hands the parent the joined text. It raises
    _Unplaced on expat's own errors, a DOCTYPE declaration, a processing
    instruction, too deep a nesting, a child of a text element, stray text,
    a refused start or a repeated key; the XML declaration's encoding error
    and `build`'s errors pass through as they are.

    The placing pass reports the first error with its line and column. It
    reads unbuffered, asks _refusal at every start until the first
    structural error, records each element's start position and checks each
    run of text where it stands. A byte-level error is raised where it is
    met; the first structural error stops the building but not the pass, so
    a byte-level error anywhere wins over a structural error before it.
    """
    spec_of = tags.get
    stack = [[None, Tag((), (), (root,), None, None), {}, None, None, None, None, False, ()]]
    depth = MAX_DEPTH
    parser = expat.ParserCreate()
    parser.buffer_text = not placing
    text = None  # the parts of the innermost text element

    if not placing:
        admitted = {}  # parent tag -> tag -> attribute names -> the Tag, once admitted
        runs = set()  # the distinct runs of text outside text elements
        other = runs.add  # the character data handler outside text elements
        loose = None  # the parts of a folded element, which has no record

        def start(tag, attrs):
            nonlocal text, loose
            if text is not None or len(stack) > depth:
                raise _Unplaced  # a child of a text element, or too deep
            parent = stack[-1]
            names = tuple(attrs)
            try:
                spec = admitted[parent[0]][tag][names]
            except KeyError:  # a signature not admitted yet
                spec = None
            if spec is None or parent[6] is not None and spec.folded:
                spec = spec_of(tag)
                if _refusal(tag, spec, attrs, parent) is not None:
                    raise _Unplaced
                admitted.setdefault(parent[0], {}).setdefault(tag, {})[names] = spec
            if spec.text:
                text = []
                parser.CharacterDataHandler = text.append
                if spec.folded:
                    loose = text
                    return
            stack.append([tag, spec, attrs, None, None, text, None])

        def end(tag):
            nonlocal text, loose
            if loose is not None:
                stack[-1][6] = "".join(loose)
                text = loose = None
                parser.CharacterDataHandler = other
                return
            tag, spec, attrs, kids, _keys, parts, value = stack.pop()
            if parts is not None:
                value = "".join(parts)
                text = None
                parser.CharacterDataHandler = other
            value = spec.build(attrs, kids or _NO_KIDS, value or "")
            parent = stack[-1]
            if spec.key is not None and not _new_key(parent, tag, spec, value):
                raise _Unplaced
            siblings = parent[3]
            if siblings is None:
                parent[3] = {tag: [value]}
            elif tag in siblings:
                siblings[tag].append(value)
            else:
                siblings[tag] = [value]

        def refuse(_message):
            raise _Unplaced
    else:
        failure = None  # the first structural error, a truthy XmlError
        texts = {tag for tag, spec in tags.items() if spec.text}

        def here():
            return parser.CurrentLineNumber, parser.CurrentColumnNumber + 1

        def refuse(message):  # a byte-level error where expat stands
            raise XmlError(message, *here())

        def other(data):
            if data.strip():
                refuse(f"unexpected text inside <{stack[-1][0]}>")

        def start(tag, attrs):
            nonlocal text, failure
            if text is not None:  # a child of a text element
                stack[-1][7] = True
                text = None
                parser.CharacterDataHandler = other
            if len(stack) > depth:
                refuse(f"elements nested deeper than {depth} levels")
            parent, spec, where = stack[-1], spec_of(tag), here()
            if not failure:
                message = _refusal(tag, spec, attrs, parent)
                if message is not None:
                    failure = XmlError(message, *where)
            record = [tag, spec, attrs, None, None, None, None, False, where]
            if tag in texts:
                text = record[5] = []
                parser.CharacterDataHandler = text.append
            stack.append(record)

        def end(tag):
            nonlocal text, failure
            tag, spec, attrs, kids, _keys, parts, value, mixed, where = stack.pop()
            parent = stack[-1]
            if parts is not None:
                if parts and mixed:
                    raise XmlError(f"element <{tag}> mixes text and child elements", *where)
                value = "".join(parts)
                text = parent[5]
                parser.CharacterDataHandler = other if text is None else text.append
            if failure:
                return
            if spec.folded:
                parent[6] = value
                return
            try:
                value = spec.build(attrs, kids or _NO_KIDS, value or "")
            except XmlError as error:
                failure = error if error.line is not None else XmlError(error.args[0], *where)
                return
            if spec.key is not None and not _new_key(parent, tag, spec, value):
                failure = XmlError(f"duplicate {tag} name {spec.key(value)!r}", *where)
                return
            siblings = parent[3]
            if siblings is None:
                parent[3] = {tag: [value]}
            elif tag in siblings:
                siblings[tag].append(value)
            else:
                siblings[tag] = [value]

    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.CharacterDataHandler = other
    parser.StartDoctypeDeclHandler = lambda *args: refuse(
        "DOCTYPE declarations are not supported")
    parser.ProcessingInstructionHandler = lambda target, data: refuse(
        f"processing instruction <?{target}?> is not supported")
    parser.XmlDeclHandler = _decl
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        if not placing:
            raise _Unplaced from None
        raise XmlError(expat.errors.messages[exc.code], exc.lineno, exc.offset + 1) from None
    finally:  # the handlers hold the parser: break the cycle
        parser = None
    if placing:
        if failure:
            raise failure
    elif any(run.strip() for run in runs):
        raise _Unplaced
    return stack[0][3][root][0]


def _decl(version, encoding, standalone):
    if encoding is not None and encoding.lower() not in ("utf-8", "us-ascii"):
        raise XmlError(f"unsupported encoding {encoding!r}; files must be UTF-8", 1, 1)


def _refusal(tag: str, spec: Tag | None, attrs: dict, parent: list) -> str | None:
    """Why the start of a `tag` element (Tag `spec`, None if unknown) with
    `attrs` below the record `parent` is refused, or None: the one copy of
    the structural start rules, in the order they are reported. The
    verdict reads the parent's tag and Tag, the attribute names and, for a
    folded element, whether the parent already holds a folded child's
    text; the attribute values play no part. So a None for one (parent tag,
    tag, attribute names) holds for every later element of that signature
    below a parent without a folded child's text, which the fast pass
    relies on."""
    if tag not in parent[1].child_tags:
        if parent[0] is None:
            return f"unsupported root element <{tag}>"
        return f"unsupported element <{tag}> in {parent[0]}"
    if spec.folded and parent[6] is not None:
        return f"multiple <{tag}> children"
    for key in attrs:
        if key not in spec.allowed:
            return f"unsupported attribute {key!r} on <{tag}>"
    for key in spec.required:
        if key not in attrs:
            return f"missing attribute {key!r} on <{tag}>"
    return None


def _new_key(parent: list, tag: str, spec: Tag, value) -> bool:
    """Record the key of `value`, a new `tag` child of the record `parent`;
    False when a sibling of the same tag already has it."""
    key, keys = (tag, spec.key(value)), parent[4]
    if keys is None:
        parent[4] = {key}
    elif key in keys:
        return False
    else:
        keys.add(key)
    return True


def every(kids: dict, tag: str) -> tuple:
    """The values of all `tag` children in `kids` (as `build` gets them)."""
    return tuple(kids.get(tag, ()))


def parse_tree(data: bytes, root: str, tags: dict[str, Tag]):
    """The value of a document whose root element is `root`, read against
    `tags`: the first byte-level error, else the first structural error,
    is raised as XmlError. A document the fast pass cannot build, for
    whatever reason it raises, is read again by the placing pass, which
    gives the error its place."""
    if not isinstance(data, bytes):
        raise TypeError("expected bytes")
    try:
        return _scan(data, root, tags, placing=False)
    except (_Unplaced, XmlError):
        return _scan(data, root, tags, placing=True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})
# literal whitespace in attribute values would be normalized on re-parse
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                               "\r": "&#13;", "\n": "&#10;", "\t": "&#9;"})
_TEXT_SPECIAL = re.compile("[&<>\r]")
_ATTR_SPECIAL = re.compile('[&<>"\r\n\t]')


def _escape_attr(value: str) -> str:
    return value.translate(_ATTR_ESCAPES) if _ATTR_SPECIAL.search(value) else value


def _escape_text(value: str) -> str:
    return value.translate(_TEXT_ESCAPES) if _TEXT_SPECIAL.search(value) else value


def _write(value, tag: str, tags: dict[str, Tag], pad: str, lines: list[str]) -> None:
    spec = tags[tag]
    values, kids, text = spec.split(value)
    head = tag
    for name, attr in zip(spec.attrs, values):
        if attr or name in spec.needed:
            head += f' {name}="{_escape_attr(attr)}"'
    if spec.text and text:
        lines.append(f"{pad}<{head}>{_escape_text(text)}</{tag}>")
    elif text or any(kids):  # any text here is a folded child's
        lines.append(f"{pad}<{head}>")
        inner = pad + "  "
        for child, items in zip(spec.children, kids):
            for item in items:
                _write(item, child, tags, inner, lines)
            if text and tags[child].folded:
                lines.append(f"{inner}<{child}>{_escape_text(text)}</{child}>")
        lines.append(f"{pad}</{tag}>")
    elif not pad:  # the root, the one element written at pad ""
        lines.append(f"{pad}<{head}>")
        lines.append(f"{pad}</{tag}>")
    else:
        lines.append(f"{pad}<{head}/>")


def serialize_tree(value, root: str, tags: dict[str, Tag]) -> bytes:
    """Write `value` as a document whose root element is `root`, in
    canonical form (the root is always expanded)."""
    lines = [DECLARATION]
    _write(value, root, tags, "", lines)
    lines.append("")  # the final line feed
    text = "\n".join(lines)
    del lines  # freed before the bytes are made
    return text.encode("utf-8")
