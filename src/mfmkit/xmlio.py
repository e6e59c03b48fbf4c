"""Canonical XML reading and writing shared by the file formats.

Both exchange formats (the CAEX-subset module files and the generated
control-code files) use the same byte-level conventions: UTF-8, LF line
endings, 2-space indent, a fixed attribute order defined by the caller, and
self-closing tags for empty non-root elements. Free text lives in dedicated
value elements; everywhere else, non-whitespace character data is rejected.

Parsing is strict: unknown constructs are for the schema layers to reject,
but DOCTYPE declarations, processing instructions and nesting deeper than
MAX_DEPTH fail here, and every node records its source line/column for error
reporting.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from xml.parsers import expat

DECLARATION = '<?xml version="1.0" encoding="utf-8"?>'

#: Deepest element nesting parse_tree accepts (the root is at depth 1). The
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
    for key, _value in node.attrs:
        if key not in allowed:
            raise XmlError(f"unsupported attribute {key!r} on <{node.tag}>", node.line, node.column)
    for key in required:
        if not node.has(key):
            raise XmlError(f"missing attribute {key!r} on <{node.tag}>", node.line, node.column)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _TreeBuilder:
    def __init__(self, text_tags: frozenset[str]):
        self.text_tags = text_tags
        self.root: XmlNode | None = None
        self._stack: list[list] = []  # [tag, attrs, children, text_parts, line, col]
        self._parser = expat.ParserCreate()
        self._parser.ordered_attributes = True
        self._parser.StartElementHandler = self._start
        self._parser.EndElementHandler = self._end
        self._parser.CharacterDataHandler = self._chars
        self._parser.StartDoctypeDeclHandler = self._doctype
        self._parser.ProcessingInstructionHandler = self._pi
        self._parser.XmlDeclHandler = self._decl

    def _pos(self) -> tuple[int, int]:
        return self._parser.CurrentLineNumber, self._parser.CurrentColumnNumber + 1

    def _decl(self, version, encoding, standalone):
        if encoding is not None and encoding.lower() not in ("utf-8", "us-ascii"):
            raise XmlError(f"unsupported encoding {encoding!r}; files must be UTF-8", 1, 1)

    def _doctype(self, *args):
        line, col = self._pos()
        raise XmlError("DOCTYPE declarations are not supported", line, col)

    def _pi(self, target, data):
        line, col = self._pos()
        raise XmlError(f"processing instruction <?{target}?> is not supported", line, col)

    def _start(self, tag, attr_list):
        line, col = self._pos()
        if len(self._stack) == MAX_DEPTH:
            raise XmlError(f"elements nested deeper than {MAX_DEPTH} levels", line, col)
        attrs = tuple((attr_list[i], attr_list[i + 1]) for i in range(0, len(attr_list), 2))
        self._stack.append([tag, attrs, [], [], line, col])

    def _chars(self, data):
        if not self._stack:
            return
        frame = self._stack[-1]
        if frame[0] in self.text_tags:
            frame[3].append(data)
        elif data.strip():
            line, col = self._pos()
            raise XmlError(f"unexpected text inside <{frame[0]}>", line, col)

    def _end(self, tag):
        tag_, attrs, children, text_parts, line, col = self._stack.pop()
        if text_parts and children:
            raise XmlError(f"element <{tag_}> mixes text and child elements", line, col)
        node = XmlNode(
            tag=tag_, attrs=attrs, children=tuple(children),
            text="".join(text_parts), line=line, column=col,
        )
        if self._stack:
            self._stack[-1][2].append(node)
        else:
            self.root = node

    def parse(self, data: bytes) -> XmlNode:
        if not isinstance(data, bytes):
            raise TypeError("expected bytes")
        try:
            self._parser.Parse(data, True)
        except expat.ExpatError as exc:
            raise XmlError(
                expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
            ) from None
        if self.root is None:
            raise XmlError("document has no root element", 1, 1)
        return self.root


def parse_tree(data: bytes, text_tags: frozenset[str] = frozenset()) -> XmlNode:
    """Parse bytes into an XmlNode tree.

    `text_tags` names the elements whose character data is significant;
    non-whitespace text anywhere else is an error. Nesting deeper than
    MAX_DEPTH is an error.
    """
    return _TreeBuilder(text_tags).parse(data)


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
