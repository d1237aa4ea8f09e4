"""`record`, the class decorator of tmkit's value classes.

tmkit avoids `@dataclass` for its start-up cost: its module imports
`inspect`, `ast`, `dis` and `tokenize`, and it execs five or six
functions per class, ~1 ms a class on Python 3.11. `record` execs only
`__init__`, once per class, as `collections.namedtuple` does `__new__`,
and a record is built as fast as a dataclass.

The fields are the class annotations, in order, with optional defaults.
A record class gets `__init__` over them, positional or by keyword;
`__eq__`, true for exactly its class and equal fields and
`NotImplemented` for another class; `__hash__` of the fields, so a
record holding a list or dict is unhashable; the dataclass repr
`Name(field=value, ...)`; and immutability: setting or deleting an
attribute raises AttributeError. Methods the class defines are kept.
"""

from operator import attrgetter


def record(cls):
    fields = tuple(cls.__annotations__)
    params = ", ".join(f"{name}=_cls.{name}" if name in vars(cls) else name
                       for name in fields)
    namespace = {"_cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):" + "".join(
        f"\n    _set(self, {name!r}, {name})" for name in fields), namespace)
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

    methods = {"__init__": namespace["__init__"], "__eq__": __eq__,
               "__hash__": lambda self: hash(key(self)),
               "__repr__": __repr__, "__setattr__": read_only,
               "__delattr__": read_only}
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls
