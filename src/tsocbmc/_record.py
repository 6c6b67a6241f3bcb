"""Value records: the package's value classes, built without generated code.

`@record` gives a class with annotated fields what a dataclass would: an
`__init__` over the fields in order, by position or keyword, with defaults
(`factory(list)` makes one per instance) and a `__post_init__` call;
equality by exact class and field values; the `Name(a=..., b=...)` repr;
and, frozen by default, a hash of the field tuple and no assignment.
`@record(frozen=False)` leaves the fields assignable and the record
unhashable.  A method the class defines itself is kept.  Nothing is
compiled: `__init__` is a fixed function of the fields' arity with its
parameters renamed to them, the rest are closures over an `attrgetter`.
"""
from operator import attrgetter

_set = object.__setattr__


class factory:
    """A field default made by calling `make` once per instance."""

    def __init__(self, make):
        self.make = make


def _setter(names):
    # one object.__setattr__ per field, as fast as a written-out __init__;
    # each call returns None, so `or` runs them all
    n0, n1, n2, n3, n4, n5, n6, n7 = names + ("",) * (8 - len(names))
    return (
        lambda s, a: _set(s, n0, a),
        lambda s, a, b: _set(s, n0, a) or _set(s, n1, b),
        lambda s, a, b, c: _set(s, n0, a) or _set(s, n1, b) or _set(s, n2, c),
        lambda s, a, b, c, d: _set(s, n0, a) or _set(s, n1, b)
        or _set(s, n2, c) or _set(s, n3, d),
        lambda s, a, b, c, d, e: _set(s, n0, a) or _set(s, n1, b)
        or _set(s, n2, c) or _set(s, n3, d) or _set(s, n4, e),
        lambda s, a, b, c, d, e, f: _set(s, n0, a) or _set(s, n1, b)
        or _set(s, n2, c) or _set(s, n3, d) or _set(s, n4, e) or _set(s, n5, f),
        lambda s, a, b, c, d, e, f, g: _set(s, n0, a) or _set(s, n1, b)
        or _set(s, n2, c) or _set(s, n3, d) or _set(s, n4, e) or _set(s, n5, f)
        or _set(s, n6, g),
        lambda s, a, b, c, d, e, f, g, h: _set(s, n0, a) or _set(s, n1, b)
        or _set(s, n2, c) or _set(s, n3, d) or _set(s, n4, e) or _set(s, n5, f)
        or _set(s, n6, g) or _set(s, n7, h),
    )[len(names) - 1]


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls=None, *, frozen=True):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names, own = tuple(cls.__annotations__), vars(cls)
    defaults = tuple(own[f] for f in names if f in own)
    if not 0 < len(names) <= 8 or any(
            f in own for f in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a record takes 1 to 8 fields, "
                        "those with defaults last")
    made = [(f, own[f]) for f in names if isinstance(own.get(f), factory)]
    post = own.get("__post_init__")
    init = _setter(names)
    init.__code__ = init.__code__.replace(co_name="__init__",
                                          co_varnames=("self",) + names)
    init.__defaults__, init.__qualname__ = defaults, f"{cls.__qualname__}.__init__"
    if made or post:
        base = init

        def init(self, *args, **kw):
            base(self, *args, **kw)
            for f, d in made:
                if getattr(self, f) is d:
                    _set(self, f, d.make())
            if post:
                post(self)
    # the tuple of field values, also for one field
    get = attrgetter(*names) if len(names) > 1 else (
        lambda obj, one=attrgetter(names[0]): (one(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(names, get(self)))
        return f"{type(self).__qualname__}({body})"

    methods = {"__init__": init, "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": (lambda self: hash(get(self))) if frozen else None,
               "_fields": names}
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    for f, _ in made:
        delattr(cls, f)
    return cls


def asdict(obj) -> dict:
    """The record's fields and their values, in field order."""
    return {f: getattr(obj, f) for f in obj._fields}


def replace(obj, **changes):
    """A copy of the record with the given fields changed; the class's
    checks (`__post_init__`) run on the copy."""
    return type(obj)(**{**asdict(obj), **changes})
