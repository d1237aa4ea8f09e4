"""`record`, the class decorator of tmkit's value classes.

tmkit avoids `@dataclass` for its start-up cost: its module imports
`inspect`, `ast`, `dis` and `tokenize`, and it execs five or six
functions per class, ~1 ms a class on Python 3.11. `record` execs only
`__init__`, once per class, as `collections.namedtuple` does `__new__`.

The fields are the class annotations, in order, with optional defaults.
A record class keeps its methods and gets `__init__` over the fields,
positional or by keyword; `__eq__` of the fields, `NotImplemented` for
another class; `__hash__` of the fields, so one holding a list or dict
is unhashable; the dataclass repr; read-only fields; and `__reduce__`
to (class, fields), so that copy and pickle rebuild it by `__init__`.

`record` returns a new class with the fields as `__slots__`, as
`dataclass(slots=True)` does: an `Action` builds in ~310 ns, not ~480
with an instance dict, at <5 us more per class (Python 3.11). Only a
class with a `cached_property` (`StaticModel`, `BehavioralModel`) keeps
a `__dict__`, for its cache. No method may use zero-argument `super()`
or `__class__`: they name the class statement's class, thrown away.
"""

from functools import cached_property
from operator import attrgetter


def record(cls):
    fields = tuple(cls.__annotations__)
    body = {name: value for name, value in vars(cls).items()
            if name not in ("__dict__", "__weakref__")}
    namespace = {name: body.pop(name) for name in fields if name in body}
    params = ", ".join(f"{name}={name}" if name in namespace else name
                       for name in fields)  # a default is a global
    exec(f"def __init__(self, {params}):" + "".join(
        f"\n    _set_{name}(self, {name})" for name in fields), namespace)
    key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in fields)
        return f"{type(self).__qualname__}({items})"

    def read_only(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    dict_slot = any(isinstance(v, cached_property) for v in body.values())
    cls = type(cls)(cls.__name__, cls.__bases__, {
        "__init__": namespace["__init__"], "__eq__": __eq__,
        "__hash__": lambda self: hash(key(self)), "__repr__": __repr__,
        "__setattr__": read_only, "__delattr__": read_only,
        "__reduce__": lambda self: (type(self), tuple(
            getattr(self, name) for name in fields)),
        **body, "__slots__": fields + ("__dict__",) * dict_slot})
    namespace.update((f"_set_{n}", getattr(cls, n).__set__) for n in fields)
    return cls
