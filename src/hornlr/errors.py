"""Exception types shared across the package, `brief`, which every
error message uses to show a caller's value, `require_type`, which
turns a wrong argument type into an InputError, and `as_int`, the one
rule for an integer argument.

The CLI maps these onto exit codes: bad input or unmet preconditions exit
with 2, a theorem violation (a check that is mathematically guaranteed to
pass reported a failure, signalling a bug) exits with 1, I/O problems
exit with 3.
"""

import operator
import reprlib


class InputError(ValueError):
    """Invalid argument or unmet operation precondition."""


class FormatError(InputError):
    """A graph or partition file/string could not be parsed."""


class TheoremViolation(RuntimeError):
    """A verified mathematical identity failed on concrete data."""


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past the limit of int-to-decimal conversion
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"


def brief(value) -> str:
    """`value` abbreviated for an error message, as `reprlib.repr` does;
    an int with more digits than Python converts to a decimal string
    (4300 by default) is shown by its bit length instead of raising
    ValueError, so the InputError being built is the one raised."""
    return _Brief().repr(value)


def require_type(kind: type, **values) -> None:
    """Raise InputError naming the first of `values` (argument name to
    value) that is not an instance of `kind`, so that a list or None in
    place of a library object is a rejected input, not an AttributeError
    from deep inside the call."""
    for name, value in values.items():
        if not isinstance(value, kind):
            raise InputError(f"{name} must be a {kind.__name__}, got {brief(value)}")


def as_int(value, name: str, least: int | None = None) -> int:
    """`value` as a Python int, the package's one rule for an integer
    argument: whatever `operator.index` accepts (an int, a numpy integer),
    except a bool, Python's or numpy's. Otherwise, or when `least` is given
    and the value is below it, raise InputError naming the argument."""
    try:
        # numpy's bool by its dtype: numpy 2 refuses it in operator.index,
        # numpy 1 only warns
        if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {brief(value)}") from None
    if least is not None and value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {brief(value)}")
    return value
