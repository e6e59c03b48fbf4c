"""Frozen record classes, made with one compiled function each.

`@record` makes a class a frozen, slotted dataclass, as
`@dataclass(frozen=True, slots=True)` does: fields(), replace(), astuple()
and is_dataclass() work on it, and it compares, hashes, prints, pickles and
copies the same way. dataclass() compiles six methods per class from source,
which every command paid for at start-up. Here dataclass() is asked for none
of them; the class gets an `__init__` made from one template, the only code
compiled for it, and the functions below, written once and shared by every
record: __eq__, __hash__, __repr__, the frozen __setattr__ and __delattr__,
and the pickling state. Each reads its class's field names through a
C-level getter made once per class.
"""
from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from reprlib import recursive_repr

_set = object.__setattr__


class _Factory:
    """The default a field with a default_factory has in its __init__'s signature."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()

#: The one source every record's __init__ is made from.
_INIT = "def __init__(self{params}):\n{body}\n"


def _init(cls, flds) -> None:
    """Give `cls` the __init__ dataclass() makes for a frozen class: its
    fields as parameters (keyword-only ones after a `*`), each stored with
    object.__setattr__, then __post_init__ if the class has one."""
    namespace = {"_set": _set, "_FACTORY": _FACTORY}
    params, keywords, body = [], [], []
    for f in flds:
        if f.default is not MISSING:
            namespace[f"_d_{f.name}"] = f.default
            default, value = f"=_d_{f.name}", f"_d_{f.name}"
        elif f.default_factory is not MISSING:
            namespace[f"_f_{f.name}"] = f.default_factory
            default, value = "=_FACTORY", f"_f_{f.name}()"
        else:
            default = value = ""
        if f.init:
            (keywords if f.kw_only else params).append(f.name + default)
            if f.default_factory is not MISSING:
                value = f"{value} if {f.name} is _FACTORY else {f.name}"
            else:
                value = f.name
        if value:
            body.append(f"  _set(self, {f.name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    if keywords:
        params += ["*", *keywords]
    listed = "".join(f", {p}" for p in params)
    exec(_INIT.format(params=listed, body="\n".join(body) or "  pass"), namespace)
    init = namespace["__init__"]
    init.__annotations__ = {f.name: f.type for f in flds if f.init} | {"return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init


def _getter(names: tuple[str, ...]):
    """A function giving the tuple of the attributes `names` of an object."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:  # attrgetter of one name gives the value, not a 1-tuple
        one = attrgetter(*names)
        return lambda record: (one(record),)
    return lambda record: ()


def __eq__(self, other):
    cls = self.__class__
    if other.__class__ is cls:
        return cls._compared(self) == cls._compared(other)
    return NotImplemented


def __hash__(self):
    return hash(self.__class__._compared(self))


@recursive_repr()
def __repr__(self):
    cls = self.__class__
    return cls._shown_format % cls._shown(self)


def __setattr__(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def __delattr__(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def __getstate__(self):
    return list(self.__class__._stored(self))


def __setstate__(self, state):
    for name, value in zip(self._stored_names, state):
        _set(self, name, value)


_SHARED = (__eq__, __hash__, __repr__, __setattr__, __delattr__, __getstate__, __setstate__)


def record(cls):
    """`cls` as a frozen, slotted dataclass: the class decorator to use in
    place of @dataclass(frozen=True, slots=True). A field is hashed when it
    is compared; field(hash=...) is not read."""
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    flds = fields(cls)
    stored = tuple(f.name for f in flds)
    cls._stored_names = stored
    cls._stored = _getter(stored)
    cls._compared = _getter(tuple(f.name for f in flds if f.compare))  # also hashed
    shown = tuple(f.name for f in flds if f.repr)
    cls._shown = _getter(shown)
    cls._shown_format = f"{cls.__qualname__}({', '.join(f'{name}=%r' for name in shown)})"
    _init(cls, flds)
    for function in _SHARED:
        setattr(cls, function.__name__, function)
    return cls
