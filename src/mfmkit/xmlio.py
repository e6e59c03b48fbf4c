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
`build` raises. Every error is an XmlError with the source line and column:
a fast pass of expat builds the value or gives up, and a placing pass then
reads the document again and reports the first error with its line and
column. The writer escapes only an attribute value that holds `&`, `<`,
`>`, `"`, a tab, line feed or carriage return, and only text that holds
`&`, `<`, `>` or a carriage return.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import field
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
    attributes (a dict), its children's values (a dict from tag to the list
    of values, in document order; tags that do not occur are absent) and
    its text. It may raise XmlError without a position; the reader places
    it at the element. `split(value)` is the inverse: the attribute values
    in canonical order, one sequence of child values per entry of
    `children`, and the text.

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


def _scan(data: bytes, root: str, tags: dict[str, Tag], placing: bool):
    """The value of a document read in one strict pass of expat against `tags`.

    Each open element is a record [tag, Tag (None if unknown), attrs, child
    values by tag, keys of the children, text parts (None unless a text
    element), has children, folded child's text, start position] on a stack
    whose bottom record takes the root as its one child. A text element's
    character data goes straight to the C-level `append` of its parts. The
    start of an element checks it against its parent and its attributes;
    the end builds its value, or takes a folded element's text, for the
    parent.

    The fast pass builds or gives up. It buffers character data (one
    callback per run of text between two tags) and keeps the distinct runs
    outside text elements in a set, checked for stray text at its end. A
    folded element gets no record: its start checks it against the parent
    record, its end hands the parent the joined text. On any error but the
    XML declaration's encoding, on stray text or on a child of a text
    element, it raises _Unplaced.

    The placing pass reports the first error with its line and column. It
    reads unbuffered, records each element's start position and checks each
    run of text where it stands. A byte-level error is raised where it is
    met; the first structural error stops the building but not the pass, so
    a byte-level error anywhere wins over a structural error before it.
    """
    spec_of = tags.get
    stack = [[None, Tag((), (), (root,), None, None), {}, {}, None, None, False, None, ()]]
    texts = {tag for tag, spec in tags.items() if spec.text}
    folded = {tag for tag in texts if tags[tag].folded}
    parser = expat.ParserCreate()
    parser.buffer_text = not placing
    failure = None  # the placing pass's first structural error, a truthy XmlError
    text = loose = None  # the parts of the innermost text element, and of a folded one
    runs = set()  # the fast pass's distinct runs of text outside text elements

    def here():
        return parser.CurrentLineNumber, parser.CurrentColumnNumber + 1

    def refuse(message):  # a byte-level error where expat stands
        if not placing:
            raise _Unplaced
        raise XmlError(message, *here())

    def fail(error):  # a structural error, which stops the building but not the pass
        nonlocal failure
        if not placing:
            raise _Unplaced
        failure = error

    def chars(data):
        if data.strip():
            refuse(f"unexpected text inside <{stack[-1][0]}>")
    other = chars if placing else runs.add  # the handler outside text elements

    def start(tag, attrs):
        nonlocal text, loose
        if text is not None:  # a child of a text element
            if not placing:
                raise _Unplaced
            stack[-1][6] = True
            text = None
            parser.CharacterDataHandler = other
        if len(stack) > MAX_DEPTH:
            refuse(f"elements nested deeper than {MAX_DEPTH} levels")
        parent = stack[-1]
        if tag in folded:
            if not failure and (attrs or parent[7] is not None
                                or tag not in parent[1].child_tags):
                fail(XmlError(_error(tag, tags[tag], attrs, parent), *here()))
            if not placing:
                text = loose = []
                parser.CharacterDataHandler = loose.append
                return
            spec = tags[tag]
        else:
            spec = spec_of(tag)
            keys = attrs.keys()
            if not failure and not (tag in parent[1].child_tags
                                    and keys <= spec.allowed and keys >= spec.needed):
                fail(XmlError(_error(tag, spec, attrs, parent), *here()))
        record = [tag, spec, attrs, {}, None, None, False, None, here() if placing else ()]
        if tag in texts:
            text = record[5] = []
            parser.CharacterDataHandler = text.append
        stack.append(record)

    def end(tag):
        nonlocal text, loose
        if loose is not None:  # a folded element of the fast pass, which has no record
            stack[-1][7] = "".join(loose)
            text = loose = None
            parser.CharacterDataHandler = other
            return
        tag, spec, attrs, kids, _keys, parts, mixed, value, where = stack.pop()
        parent = stack[-1]
        if parts is None and not placing:
            value = value or ""
        else:  # a text element, or any element of the placing pass
            if parts and mixed:  # which only the placing pass sees
                raise XmlError(f"element <{tag}> mixes text and child elements", *where)
            value = (value or "") if parts is None else "".join(parts)
            text = parent[5]
            parser.CharacterDataHandler = other if text is None else text.append
            if not failure and spec.folded:  # which only the placing pass keeps a record of
                parent[7] = value
                return
        if failure:
            return
        try:
            value = spec.build(attrs, kids, value)
        except XmlError as error:
            return fail(error if error.line is not None else XmlError(error.args[0], *where))
        if spec.key is not None:
            key, keys = (tag, spec.key(value)), parent[4] or set()
            if key in keys:
                return fail(XmlError(f"duplicate {tag} name {key[1]!r}", *where))
            keys.add(key)
            parent[4] = keys
        parent[3].setdefault(tag, []).append(value)

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
    if any(run.strip() for run in runs):
        raise _Unplaced
    if failure:
        raise failure
    return stack[0][3][root][0]


def _decl(version, encoding, standalone):
    if encoding is not None and encoding.lower() not in ("utf-8", "us-ascii"):
        raise XmlError(f"unsupported encoding {encoding!r}; files must be UTF-8", 1, 1)


def _error(tag, spec, attrs, parent) -> str:
    """The error a start found in an element below the record `parent`."""
    if tag not in parent[1].child_tags:
        if parent[0] is None:
            return f"unsupported root element <{tag}>"
        return f"unsupported element <{tag}> in {parent[0]}"
    if spec.folded and parent[7] is not None:
        return f"multiple <{tag}> children"
    for key in attrs:
        if key not in spec.allowed:
            return f"unsupported attribute {key!r} on <{tag}>"
    key = next(key for key in spec.required if key not in attrs)
    return f"missing attribute {key!r} on <{tag}>"


def every(kids: dict, tag: str) -> tuple:
    """The values of all `tag` children in `kids` (as `build` gets them)."""
    return tuple(kids.get(tag, ()))


def parse_tree(data: bytes, root: str, tags: dict[str, Tag]):
    """The value of a document whose root element is `root`, read against
    `tags`: the first byte-level error, else the first structural error,
    is raised as XmlError."""
    if not isinstance(data, bytes):
        raise TypeError("expected bytes")
    try:
        return _scan(data, root, tags, placing=False)
    except _Unplaced:
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
