"""Exception types shared across the package, the JSON value checks of the
input readers that raise them, and the range, integer, shape and
sample-period checks."""

from math import inf
from operator import index


class ContractViolationError(ValueError):
    """A caller-side precondition was violated (dimensions, lengths, ranges)."""


class SingularInnovationError(ArithmeticError):
    """An innovation variance of the filter is not positive and finite;
    the message names its step and measurement row."""


class IllConditionedDataError(ValueError):
    """Regression data is rank deficient and the fit is not exact; the
    message states the regressor's condition number."""


class UnsupportedStructureError(ValueError):
    """Model structure cannot be realized for filtering (static or feedthrough)."""


class KinematicsFormatError(ValueError):
    """Kinematics text did not match the expected layout; message names row/column."""


class UnknownChannelNameError(KeyError):
    """A requested channel label does not exist; message lists available names."""

    __str__ = Exception.__str__  # the message, without the quotes of KeyError


def is_int(value) -> bool:
    """A JSON integer (``true`` and ``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


def is_list_of(value, check) -> bool:
    return isinstance(value, list) and all(map(check, value))


def _as_float(name: str, value, must: str) -> float:
    """``value`` as a float, or ``<name> must <must>, got …`` if it is an integer too large for one."""
    try:
        return float(value)
    except OverflowError:
        raise ContractViolationError(f"{name} must {must}, got an integer too large for a float") from None


def _must(bounds: tuple) -> str:
    least, most = bounds
    if least == -inf and most == inf:
        return "be finite"
    return f"be in [{least}, {most}{')' if most == inf else ']'}"


def check_range(name: str, value, bounds: tuple) -> None:
    """Raise ``<name> must be in [least, most), got <value>`` unless ``value`` is finite and
    within ``bounds``, a (least, most) pair whose infinite bounds are open (both: ``must be finite``).
    An integer is compared exactly, however large."""
    least, most = bounds
    if not (least <= value <= most and abs(value) < inf):
        raise ContractViolationError(f"{name} must {_must(bounds)}, got {value}")


def to_int(name: str, value, bounds: tuple) -> int:
    """``value`` as an int if it is an integer (a numpy integer too) within ``bounds``,
    checked by :func:`check_range`; anything else raises ``<name> must be an integer, got <value>``."""
    try:
        value = index(value)
    except TypeError:
        raise ContractViolationError(f"{name} must be an integer, got {value!r}") from None
    check_range(name, value, bounds)
    return value


def check_shape(name: str, arr, shape: tuple) -> None:
    """Raise ``<name> must have shape (N, 2), got (5, 3)`` unless ``arr.shape``
    matches ``shape``, in which a ``None`` (printed ``N``) matches any length."""
    if len(arr.shape) != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        dims = ["N" if want is None else str(want) for want in shape]
        expected = f"({', '.join(dims)}{',' if len(dims) == 1 else ''})"
        raise ContractViolationError(f"{name} must have shape {expected}, got {arr.shape}")


def to_float(name: str, value, bounds: tuple) -> float:
    """``value`` as a float, checked by :func:`check_range`; an integer too large
    for a float is out of range too."""
    value = _as_float(name, value, _must(bounds))
    check_range(name, value, bounds)
    return value


def check_dt(dt, name: str = "dt") -> float:
    """The sample period ``dt``, called ``name``, as a float if it is positive and finite."""
    dt = _as_float(name, dt, "be positive and finite")
    if not 0.0 < dt < inf:
        raise ContractViolationError(f"{name} must be positive and finite, got {dt}")
    return dt
