"""Frozen record classes without the dataclasses module, whose import also
loads inspect, ast, dis and tokenize, and whose decorator generates each
class's methods when its module is imported."""


class Record:
    """A frozen record, like a frozen dataclass of the same fields.

    The fields are the class annotations, in order; a class-level value is
    a field's default, and _uncompared names the fields left out of == and
    hash.  A call with one positional argument per field skips the
    binding of keywords and defaults.  The fields are written to the
    instance dict in one update, and nothing runs after.  A class that
    checks its fields, or is built in a hot loop, writes them the same way
    in its own __init__, with no binding at all, as PolygonComplex does,
    of which a census builds thousands.  VertexCycle
    and GraftSite take the positional path: one build or realize makes at
    most 91 VertexCycles and 54 GraftSites.
    """

    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls = type(self)
            values = {f: vars(cls)[f] for f in fields if f in vars(cls)}
            values.update(zip(fields, args), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields) or kwargs.keys() & set(fields[:len(args)]):
                raise TypeError("%s() takes %s; got %d positional and %s" % (
                    cls.__qualname__, ", ".join(fields), len(args), ", ".join(kwargs) or "no keywords"))
            args = [values[f] for f in fields]
        self.__dict__.update(zip(fields, args))

    def _key(self):
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
