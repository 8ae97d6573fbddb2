"""Frozen value records whose methods are written once here, not compiled per class.

`record` installs `__init__` (by position or keyword, then any `__post_init__`),
a `Name(field=value, ...)` repr, `==` and `hash` over the field tuple unless
`eq=False`, and `__setattr__`/`__delattr__` that raise FrozenInstanceError.
"""

from operator import attrgetter


# Fields are set one by one, as compiled dataclass methods do: filling `__dict__`
# instead would give every instance a dict of its own, 64 more bytes each.
_set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def _bind(cls, names, defaults, args, kwargs):
    """The field values of a constructor call, in field order."""
    values = {**defaults, **dict(zip(names, args)), **kwargs}
    repeated = kwargs.keys() & set(names[: len(args)])
    if len(args) > len(names) or repeated or values.keys() != set(names):
        given = f"{len(args)} positional arguments and the keywords {list(kwargs)}"
        raise TypeError(f"{cls.__qualname__}() takes ({', '.join(names)}); got {given}")
    return [values[name] for name in names]


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def record(cls=None, *, eq=True):
    """Make `cls` a frozen record; `record(eq=False)` keeps identity equality."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    checked = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)
        if checked:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{type(self).__qualname__}({fields})"

    cls.__record_fields__, cls.__init__, cls.__repr__ = names, __init__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    if eq:
        cls.__hash__ = lambda self: hash(key(self))
        cls.__eq__ = lambda self, other: (
            key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented
        )
    return cls
