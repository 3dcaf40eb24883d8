"""The base class of the immutable records that must be type-strict. Plain
value rows are NamedTuples and mutable state is ``__slots__`` classes; README
"Start-up" says why."""

from operator import attrgetter


class Record:
    """An immutable record whose fields are its class's ``__slots__`` (bar a
    ``__dict__`` slot, where a ``cached_property`` keeps its value), given by
    position or by name; ``_defaults`` maps the trailing optional fields to
    their values. A record equals only a record of its own class with equal
    fields, so ``FrameLoad("t", "f", "x") != BehaviorEdge("t", "f", "x")``,
    unlike two NamedTuples. Setting an attribute raises."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._values = attrgetter(*fields or ("__class__",))
        # __init__ is generated, as collections.namedtuple generates __new__: it
        # binds its arguments like any function and stores each field through
        # its slot's setter, about twice as fast as object.__setattr__ per field.
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
        namespace["_defaults"] = cls._defaults
        params = "".join(f", {name}=_defaults[{name!r}]" if name in cls._defaults else f", {name}"
                         for name in fields)
        body = "".join(f"\n    _set_{name}(self, {name})" for name in fields)
        exec(f"def __init__(self{params}):{body or ' pass'}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # deleting a field raises the same way

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash((type(self), self._values(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
