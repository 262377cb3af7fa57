"""Exception types, one per CLI exit code, and the base of the read-only records."""


class ContractViolationError(ValueError):
    """An input failed a mathematical precondition (non-unitary, wrong dimension, ...)."""


class DesignFormatError(ValueError):
    """A design, or a design file, is malformed."""


class InfeasibleDesignError(ValueError):
    """Requested design parameters cannot saturate the frame-potential bound."""


class ReadOnlyRecord:
    """Base of slotted records whose fields are set once, by `_set` in __init__;
    they pickle and print as the tuple of their fields in slot order, and
    compare by identity: a field may be an array, whose == is not a bool."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):  # pickle and copy through __init__, which the fields fill in order
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
