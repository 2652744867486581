"""Frozen records: bayescal's value classes, as ``dataclass(frozen=True)`` makes
them, without importing ``dataclasses`` and so ``inspect``. A record's fields
are exactly its annotations; an attribute that ``__post_init__`` sets, such as
``BackgroundData.h1_stats``, is a plain attribute, not a field."""

from operator import attrgetter


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Give ``cls`` an ``__init__`` over its annotated fields, in order, with
    the class-level values as defaults, that then calls ``__post_init__``;
    ``__eq__`` (within one class), ``__hash__`` and ``__repr__`` over the
    fields; and ``AttributeError`` on assignment or deletion."""
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init, key = getattr(cls, "__post_init__", lambda self: None), attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or kwargs.keys() - names[len(args):] or len(given) < len(names):
                raise TypeError(f"{cls.__name__}() takes the fields {names}; got {args}, {kwargs}")
            args = [given[n] for n in names]
        self.__dict__.update(zip(names, args))
        post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls.__record_fields__, cls.__init__, cls.__eq__, cls.__repr__ = names, __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def fields(obj) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return obj.__record_fields__


def asdict(obj):
    """A record as a dict of its fields, with each record, list, tuple and
    dict in it converted in turn; any other value is shared, not copied."""
    if hasattr(type(obj), "__record_fields__"):
        return {n: asdict(getattr(obj, n)) for n in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(asdict, obj))
    if isinstance(obj, dict):
        return {asdict(k): asdict(v) for k, v in obj.items()}
    return obj


def replace(obj, **changes):
    """A new record like ``obj`` but for ``changes``, and validated anew."""
    return type(obj)(**{**{n: getattr(obj, n) for n in fields(obj)}, **changes})
