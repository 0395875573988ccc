"""Exception types shared across the package, the JSON value checks of the
input readers that raise them, and the range and sample-period checks."""

from math import inf


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
