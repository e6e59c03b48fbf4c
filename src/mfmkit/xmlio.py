"""Canonical XML reading and writing shared by the file formats.

Both exchange formats (the CAEX-subset module files and the generated
control-code files) use the same byte-level conventions: UTF-8, LF line
endings, 2-space indent, a fixed attribute order defined by the caller, and
self-closing tags for empty non-root elements. Free text lives in dedicated
value elements; everywhere else, non-whitespace character data is rejected.

Reading is one strict pass of expat over the bytes (`Reader`). The reader
enforces the byte-level rules, which exist only here: UTF-8 or ASCII
encoding, no DOCTYPE declarations or processing instructions, nesting at
most MAX_DEPTH deep, non-whitespace text only inside the caller's text tags,
no text tag mixing text with child elements, and expat's own errors, all as
XmlError with the source line and column. A format layer subclasses Reader
and builds its own objects from the start and end events; parse_tree is the
generic one and builds an XmlNode tree.
"""
from __future__ import annotations

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
class XmlNode:
    """One element: tag, ordered attributes, children, optional text."""

    tag: str
    attrs: tuple[tuple[str, str], ...] = ()
    children: tuple["XmlNode", ...] = ()
    text: str = ""
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def get(self, name: str, default: str = "") -> str:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def has(self, name: str) -> bool:
        return any(key == name for key, _ in self.attrs)


def check_attrs(node: XmlNode, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> None:
    """Reject attributes outside `allowed` and require those in `required`."""
    check_attributes(node.tag, dict(node.attrs), allowed, required, node.line, node.column)


def check_attributes(tag: str, attrs: dict[str, str], allowed, required,
                     line: int, column: int) -> None:
    """Reject the names in `attrs` outside `allowed`, in document order, then
    require those in `required`, in its order."""
    for key in attrs:
        if key not in allowed:
            raise XmlError(f"unsupported attribute {key!r} on <{tag}>", line, column)
    for key in required:
        if key not in attrs:
            raise XmlError(f"missing attribute {key!r} on <{tag}>", line, column)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

class _Unplaced(Exception):
    """A text or expat error seen by the buffered pass, which cannot place it."""


def _ignore(*_args) -> None:
    pass


class Reader:
    """One strict pass over a document; subclasses consume its events.

    Subclasses implement `start(tag, attrs, line, column)` and `end(tag,
    text)`: `attrs` is a dict in document order, `text` the character data
    of a text tag (else ""). A hook that finds a structural error raises
    XmlError. The reader keeps the first one, stops calling the hooks and
    raises it only after the whole input has passed the byte-level rules, so
    a byte-level error anywhere wins over a structural error before it.

    Character data is buffered: a run of text between two tags costs one
    callback. Expat delivers a run only when the markup after it arrives and
    drops a pending run when it fails, so a buffered pass can neither place
    a text error nor tell whether one precedes an expat error. When it meets
    either, `read` runs the byte-level rules again without buffering (and
    without hooks), which reports the first error at its exact position.
    """

    def __init__(self, text_tags: frozenset[str] = frozenset()):
        self.text_tags = text_tags

    def start(self, tag: str, attrs: dict[str, str], line: int, column: int) -> None:
        pass

    def end(self, tag: str, text: str) -> None:
        pass

    def read(self, data: bytes) -> None:
        """Run the pass; raise the first byte-level, then structural, error."""
        if not isinstance(data, bytes):
            raise TypeError("expected bytes")
        try:
            self._scan(data, buffered=True)
        except _Unplaced:
            Reader(self.text_tags)._scan(data, buffered=False)
            raise AssertionError("the unbuffered pass found no error") from None
        if self._failure is not None:
            raise self._failure

    def _scan(self, data: bytes, buffered: bool) -> None:
        # The open elements: a tag, or [tag, line, column, text parts,
        # has children] for a text tag. _text is the innermost element's
        # parts when it is a text tag, else None.
        self._stack: list = []
        self._text: list[str] | None = None
        self._failure: XmlError | None = None
        self._rooted = False
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
        if not self._rooted:
            raise XmlError("document has no root element", 1, 1)

    def _fail(self, error: XmlError) -> None:
        self._failure = error
        self.start = self.end = _ignore

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
        self._rooted = True
        if self._text is not None:
            stack[-1][4] = True
        if tag in self.text_tags:
            self._text = []
            stack.append([tag, line, column, self._text, False])
        else:
            self._text = None
            stack.append(tag)
        try:
            self.start(tag, attrs, line, column)
        except XmlError as error:
            self._fail(error)

    def _end(self, tag):
        stack = self._stack
        top = stack.pop()
        if top.__class__ is str:
            text = ""
        else:
            _tag, line, column, parts, has_children = top
            if parts and has_children:
                raise XmlError(f"element <{tag}> mixes text and child elements", line, column)
            text = "".join(parts)
        self._text = stack[-1][3] if stack and stack[-1].__class__ is list else None
        try:
            self.end(tag, text)
        except XmlError as error:
            self._fail(error)

    def _chars(self, data):
        if self._text is not None:
            self._text.append(data)
        elif self._stack and data.strip():
            if self._buffered:
                raise _Unplaced
            raise XmlError(f"unexpected text inside <{self._stack[-1]}>", *self._pos())


class _TreeBuilder(Reader):
    def __init__(self, text_tags: frozenset[str]):
        super().__init__(text_tags)
        self.root: XmlNode | None = None
        self._open: list[list] = []  # [tag, attrs, children, line, column]

    def start(self, tag, attrs, line, column):
        self._open.append([tag, tuple(attrs.items()), [], line, column])

    def end(self, tag, text):
        tag, attrs, children, line, column = self._open.pop()
        node = XmlNode(tag, attrs, tuple(children), text, line, column)
        if self._open:
            self._open[-1][2].append(node)
        else:
            self.root = node


def parse_tree(data: bytes, text_tags: frozenset[str] = frozenset()) -> XmlNode:
    """Parse bytes into an XmlNode tree.

    `text_tags` names the elements whose character data is significant;
    non-whitespace text anywhere else is an error. Nesting deeper than
    MAX_DEPTH is an error.
    """
    builder = _TreeBuilder(text_tags)
    builder.read(data)
    return builder.root


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _escape_attr(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    value = value.replace('"', "&quot;")
    # literal whitespace in attribute values would be normalized on re-parse
    return value.replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#9;")


def _escape_text(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return value.replace("\r", "&#13;")


def _render(node: XmlNode, depth: int, lines: list[str], expand_empty: bool) -> None:
    pad = "  " * depth
    head = node.tag
    for key, value in node.attrs:
        head += f' {key}="{_escape_attr(value)}"'
    if node.children:
        lines.append(f"{pad}<{head}>")
        for child in node.children:
            _render(child, depth + 1, lines, False)
        lines.append(f"{pad}</{node.tag}>")
    elif node.text:
        lines.append(f"{pad}<{head}>{_escape_text(node.text)}</{node.tag}>")
    elif expand_empty:
        lines.append(f"{pad}<{head}>")
        lines.append(f"{pad}</{node.tag}>")
    else:
        lines.append(f"{pad}<{head}/>")


def serialize_tree(root: XmlNode) -> bytes:
    """Serialize a tree in canonical form (the root is always expanded)."""
    lines = [DECLARATION]
    _render(root, 0, lines, expand_empty=True)
    return ("\n".join(lines) + "\n").encode("utf-8")
