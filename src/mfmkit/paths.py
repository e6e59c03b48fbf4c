"""Element path grammar.

Every addressable thing in a module model has a slash-separated path. A
segment is either a name made only of the characters [A-Za-z0-9_.-] or a
zero-based decimal index without leading zeros for entries of unnamed lists
(io_mapping, routes, cross_refs).
"""
from __future__ import annotations

import re

_SEGMENT_RE = re.compile(r"[A-Za-z0-9_.-]+")
_PATH_RE = re.compile(r"[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*")


class PathError(ValueError):
    """Raised for a syntactically malformed element path."""


def split_path(path: str) -> tuple[str, ...]:
    """Split and validate a path into its segments.

    A path is valid when each of its "/"-separated segments is, so one
    `fullmatch` of the segment grammar joined by "/" settles a valid path in
    one C call. Only a path that fails it is walked segment by segment, to
    name its first bad segment.
    """
    if isinstance(path, str) and _PATH_RE.fullmatch(path):
        return tuple(path.split("/"))
    if not isinstance(path, str) or not path:
        raise PathError("empty path" if isinstance(path, str)
                        else f"path must be a str, not {type(path).__name__}")
    seg = next(seg for seg in path.split("/") if not _SEGMENT_RE.fullmatch(seg))
    raise PathError(f"malformed path segment {seg!r} in {path!r}")


def join_path(*segments: str) -> str:
    """Join segments into a path string."""
    return "/".join(segments)


def is_name(segment: str) -> bool:
    """True when the segment is a valid name (also true for pure indexes)."""
    return bool(_SEGMENT_RE.fullmatch(segment))
