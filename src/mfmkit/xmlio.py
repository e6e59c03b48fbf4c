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
parent, and its text is its parent's.

Reading is one strict pass of expat over the bytes. The byte-level rules
exist only here: UTF-8 or ASCII encoding, no DOCTYPE declarations or
processing instructions, nesting at most MAX_DEPTH deep, non-whitespace
text only inside text elements, no text element mixing text with child
elements, and expat's own errors. The structural rules come from the
table: the root tag, each element's tag within its parent, its attribute
names, at most one folded child, unique keys, and whatever a `build`
raises. Every error is an XmlError with the source line and column. The
writer escapes only an attribute value that holds `&`, `<`, `>`, `"`, a tab,
line feed or carriage return, and only text that holds `&`, `<`, `>` or a
carriage return.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from xml.parsers import expat

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


@dataclass(frozen=True, slots=True)
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

    A `folded` text element (never the root) has no build or split: its
    text is its parent's `text` for `build` and from `split`, which gives
    the folded child an empty sequence; an empty text is not written. It
    occurs at most once in its parent, checked at the start of the second.
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
        object.__setattr__(self, "attrs", self.required + self.optional)
        object.__setattr__(self, "allowed", frozenset(self.attrs))
        object.__setattr__(self, "needed", frozenset(self.required))
        object.__setattr__(self, "child_tags", frozenset(self.children))


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

class _Unplaced(Exception):
    """A text or expat error seen by the buffered pass, which cannot place it."""


class _Reader:
    """One strict pass of expat over a document, building its value.

    Each open element is a record [tag, Tag (None if unknown), attrs, line,
    column, child values by tag, keys of the children, text parts (None
    unless a text element), has children, folded child's text]. The start
    of an element checks it against its parent and its attributes (`_error`
    names a failure); the end builds its value, or takes a folded element's
    text, for the parent. The first structural error stops the building but
    not the pass: it is raised only after the whole input has passed the
    byte-level rules, so a byte-level error anywhere wins over a structural
    error before it.

    Character data is buffered: a run of text between two tags costs one
    callback. Expat delivers a run only when the markup after it arrives and
    drops a pending run when it fails, so a buffered pass can neither place
    a text error nor tell whether one precedes an expat error. When it meets
    either, parse_tree runs the byte-level rules again without buffering
    (and without building), which reports the first error at its exact
    position.
    """

    def __init__(self, root: str, tags: dict[str, Tag]):
        self.root = root
        self.tags = tags
        self.value = None
        self.failure: XmlError | None = None

    def scan(self, data: bytes, buffered: bool) -> None:
        self._stack: list[list] = []
        self._text: list[str] | None = None   # parts of the innermost text element
        self._building = buffered
        self._buffered = buffered
        self._parser = parser = expat.ParserCreate()
        parser.buffer_text = buffered
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._chars
        parser.StartDoctypeDeclHandler = self._doctype
        parser.ProcessingInstructionHandler = self._pi
        parser.XmlDeclHandler = self._decl
        try:
            parser.Parse(data, True)
        except expat.ExpatError as exc:
            if buffered:
                raise _Unplaced from None
            raise XmlError(expat.errors.messages[exc.code], exc.lineno, exc.offset + 1) from None
        finally:  # its handlers hold this reader, and with it the value
            self._parser = None

    def _fail(self, error: XmlError) -> None:
        self.failure = error
        self._building = False

    def _pos(self) -> tuple[int, int]:
        return self._parser.CurrentLineNumber, self._parser.CurrentColumnNumber + 1

    def _decl(self, version, encoding, standalone):
        if encoding is not None and encoding.lower() not in ("utf-8", "us-ascii"):
            raise XmlError(f"unsupported encoding {encoding!r}; files must be UTF-8", 1, 1)

    def _doctype(self, *args):
        raise XmlError("DOCTYPE declarations are not supported", *self._pos())

    def _pi(self, target, data):
        raise XmlError(f"processing instruction <?{target}?> is not supported", *self._pos())

    def _start(self, tag, attrs):
        parser = self._parser
        line = parser.CurrentLineNumber
        column = parser.CurrentColumnNumber + 1
        stack = self._stack
        if len(stack) == MAX_DEPTH:
            raise XmlError(f"elements nested deeper than {MAX_DEPTH} levels", line, column)
        if self._text is not None:
            stack[-1][8] = True
        spec = self.tags.get(tag)
        self._text = [] if spec is not None and spec.text else None
        if self._building:
            if stack:
                parent = stack[-1]
                known = tag in parent[1].child_tags and (not spec.folded or parent[9] is None)
            else:
                known = tag == self.root
            keys = attrs.keys()
            if not (known and keys <= spec.allowed and keys >= spec.needed):
                self._fail(self._error(tag, spec, attrs, line, column, known))
        stack.append([tag, spec, attrs, line, column, {}, None, self._text, False, None])

    def _error(self, tag, spec, attrs, line, column, known) -> XmlError:
        """The error `_start` found; `known`: the tag may stand where it is."""
        if not known:
            if not self._stack:
                return XmlError(f"unsupported root element <{tag}>", line, column)
            record = self._stack[-1]
            if tag not in record[1].child_tags:
                return XmlError(f"unsupported element <{tag}> in {record[0]}", line, column)
            return XmlError(f"multiple <{tag}> children", line, column)
        for key in attrs:
            if key not in spec.allowed:
                return XmlError(f"unsupported attribute {key!r} on <{tag}>", line, column)
        key = next(key for key in spec.required if key not in attrs)
        return XmlError(f"missing attribute {key!r} on <{tag}>", line, column)

    def _end(self, tag):
        stack = self._stack
        tag, spec, attrs, line, column, kids, _keys, parts, mixed, folded = stack.pop()
        if parts is None:
            text = folded or ""
        else:
            if parts and mixed:
                raise XmlError(f"element <{tag}> mixes text and child elements", line, column)
            text = "".join(parts)
        parent = stack[-1] if stack else None
        self._text = parent[7] if parent is not None else None
        if not self._building:
            return
        if spec.folded:
            parent[9] = text
            return
        try:
            value = spec.build(attrs, kids, text)
            if parent is None:
                self.value = value
                return
            if spec.key is not None:
                key = (tag, spec.key(value))
                keys = parent[6]
                if keys is None:
                    keys = parent[6] = set()
                if key in keys:
                    raise XmlError(f"duplicate {tag} name {key[1]!r}", line, column)
                keys.add(key)
        except XmlError as error:
            if error.line is None:
                error = XmlError(error.args[0], line, column)
            self._fail(error)
            return
        siblings = parent[5]
        if tag in siblings:
            siblings[tag].append(value)
        else:
            siblings[tag] = [value]

    def _chars(self, data):
        if self._text is not None:
            self._text.append(data)
        elif self._stack and data.strip():
            if self._buffered:
                raise _Unplaced
            raise XmlError(f"unexpected text inside <{self._stack[-1][0]}>", *self._pos())


def every(kids: dict, tag: str) -> tuple:
    """The values of all `tag` children in `kids` (as `build` gets them)."""
    return tuple(kids.get(tag, ()))


def parse_tree(data: bytes, root: str, tags: dict[str, Tag]):
    """The value of a document whose root element is `root`, read against
    `tags`: the first byte-level error, else the first structural error,
    is raised as XmlError."""
    if not isinstance(data, bytes):
        raise TypeError("expected bytes")
    reader = _Reader(root, tags)
    try:
        reader.scan(data, buffered=True)
    except _Unplaced:
        _Reader(root, tags).scan(data, buffered=False)
        raise AssertionError("the unbuffered pass found no error") from None
    if reader.failure is not None:
        raise reader.failure
    return reader.value


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
