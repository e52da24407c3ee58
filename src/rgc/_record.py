"""Frozen value records, made without dataclasses.

``@record`` reads a class's own field annotations, in order, and gives
the class one generic closure for each of ``__init__``, ``__eq__``,
``__hash__``, ``__repr__``, ``__setattr__`` and ``__delattr__``.  No
source text is generated, so decorating a class costs a few dict
operations, and this module imports only ``operator``.

A class attribute named like a field is that field's default.  The
instance keeps its ``__dict__``, so ``__post_init__`` may normalize a
field with ``object.__setattr__`` and ``functools.cached_property``
works; equality and hash read the fields only, so cached values never
enter them.  Assignment and deletion raise ``AttributeError``.  Records
do not inherit from each other.

``require_int`` is the one check, for record fields and library
arguments alike, that a value is exactly an int.
"""

from operator import attrgetter


def record(cls):
    """Make cls a frozen record of its annotated fields."""
    name = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    known = frozenset(names)
    count = len(names)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    setattr_ = object.__setattr__

    def unexpected(kw):
        return TypeError(f"{name}() got an unexpected argument "
                         f"{min(kw.keys() - known)!r}")

    def bind(args, kw):
        """kw with the positional arguments and the defaults added."""
        if len(args) > count:
            raise TypeError(f"{name}() has {count} fields, got "
                            f"{len(args)} positional arguments")
        given = dict(zip(names, args))
        if not given.keys().isdisjoint(kw):
            raise TypeError(f"{name}() got multiple values for "
                            f"{min(given.keys() & kw.keys())!r}")
        if not known.issuperset(kw):
            raise unexpected(kw)
        kw.update(given)
        for f in names:
            if f not in kw:
                if f not in defaults:
                    raise TypeError(f"{name}() missing argument {f!r}")
                kw[f] = defaults[f]
        return kw

    def __init__(self, *args, **kw):
        if args or len(kw) != count:
            kw = bind(args, kw)
        # one store per field: reading self.__dict__ here would
        # materialize it, and every later attribute read would become a
        # dict lookup
        try:
            for f in names:
                setattr_(self, f, kw[f])
        except KeyError:
            # as many keywords as fields, but one of them unknown
            raise unexpected(kw) from None
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{name}({fields})"

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to {name}.{attr}: records "
                             f"are frozen")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete {name}.{attr}: records are "
                             f"frozen")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def require_int(what: str, v) -> None:
    """ValueError unless v's type is exactly int: a bool, float, str or
    None is refused, not rounded, converted or defaulted."""
    if type(v) is not int:
        raise ValueError(f"{what} {v!r} is a {type(v).__name__}, not an "
                         f"int")
