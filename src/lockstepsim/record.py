"""Record classes. A `Record` subclass lists its fields as annotations, in
order (`field_names`); a class-level value is a field's default. It gets
`__init__` (then `__post_init__`), `__eq__` by type and values and `__repr__`
as closures over the names, in place of any the body defines;
`frozen=True` adds `__hash__` and refuses assignment, else it is unhashable.
A class-level `bounds = {field: (minimum, maximum)}` holds inclusive bounds,
None for no limit, on a value or each element of a tuple; `__init__` refuses
a value outside them with a ConfigError naming the field."""

from .errors import ConfigError


def bound_error(v, bound):
    """How `v` breaks `bound`, a (minimum, maximum) pair, or None; NaN breaks either limit."""
    lo, hi = bound
    if lo is not None and not v >= lo:
        return f"must be >= {lo}, got {v}"
    if hi is not None and not v <= hi:
        return f"must be <= {hi}, got {v}"
    return None


class Record:
    bounds = {}

    def __init_subclass__(cls, frozen=False):
        names = cls.field_names = tuple(cls.__annotations__)
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        post_init = getattr(cls, "__post_init__", None)

        def values(self):
            return tuple([getattr(self, n) for n in names])

        def __init__(self, *args, **kwargs):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or kwargs.keys() & names[:len(args)] or given.keys() ^ set(names):
                raise TypeError(f"{cls.__name__}() takes {names}, got {len(args)} args and {sorted(kwargs)}")
            for name, bound in cls.bounds.items():
                v = given[name]
                for i, x in enumerate(v if isinstance(v, tuple) else (v,)):
                    if error := bound_error(x, bound):
                        raise ConfigError(f"{name}{f'[{i}]' if isinstance(v, tuple) else ''}: {error}")
            self.__dict__.update([(n, given[n]) for n in names])
            if post_init is not None:
                post_init(self)

        def __eq__(self, other):
            return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

        def __repr__(self):
            return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

        def refuse(self, name, *value):
            raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

        methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__, "__hash__": None}
        if frozen:
            methods.update(__hash__=lambda self: hash(values(self)), __setattr__=refuse, __delattr__=refuse)
        for name, method in methods.items():
            setattr(cls, name, method)
