"""Exception types and the value-record base shared across the package."""

from operator import attrgetter


class SclError(Exception):
    """Base class for all library errors."""


class InputError(SclError):
    """Malformed user input: bad word syntax, bad weights, bad flags."""


class TrivialWordError(InputError):
    """A nonempty word was required but the input reduces to the identity."""


class TrivialSubgroupError(InputError):
    """Every generator of a would-be subgroup reduces to the identity."""


class PeripheralSubgroupError(InputError):
    """A cyclic subgroup generated by a peripheral element; its limit set is
    a single point, so it is excluded from the subgroup universe."""


class ParabolicError(SclError):
    """A hyperbolic length was requested for a parabolic (peripheral) class."""


class DiscretenessError(SclError):
    """A nontrivial word with |trace| < 2; the representation is not discrete
    and faithful, so the surface configuration is broken."""


class ConfigError(SclError):
    """A surface configuration is unusable for the requested operation."""


class LemmaHypothesisError(SclError):
    """Fiber statistics were requested for a seed with zero boundary image."""


class InternalConsistencyError(SclError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ResourceLimitError(SclError):
    """A configured cap was hit. ``partial`` carries whatever was computed."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class Record:
    """Immutable value with the fields named in ``_fields``, in order.

    Built from positional or keyword values, with ``_defaults`` for the
    fields left out; equal only to a record of its own type with equal
    fields; hashed as the tuple of its fields; shown as
    ``Name(field=value, ...)``.  Assignment raises ``AttributeError``.
    It is what a frozen dataclass would give, without importing
    ``dataclasses``, whose ``inspect`` import was most of scl's start-up.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls._fields)  # which returns one field bare, not in a tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        values = {**self._defaults, **kwargs, **given}
        if (len(args) > len(self._fields) or given.keys() & kwargs.keys()
                or values.keys() != set(self._fields)):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {self._fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)} by keyword")
        for f in self._fields:
            object.__setattr__(self, f, values[f])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"a {type(self).__qualname__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a {type(self).__qualname__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
