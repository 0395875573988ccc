"""Exception types shared across the package, the JSON value checks of the
input readers that raise them, and the sample-period check."""


class ContractViolationError(ValueError):
    """A caller-side precondition was violated (dimensions, lengths, ranges)."""


class SingularInnovationError(ArithmeticError):
    """An innovation variance of the filter is not positive and finite;
    the message names its step and measurement row."""


class IllConditionedDataError(ValueError):
    """Regression data is rank deficient and the fit is not exact.

    Carries ``condition`` — the ratio of the largest to smallest singular
    value of the regressor matrix.
    """

    def __init__(self, message, condition=float("inf")):
        super().__init__(message)
        self.condition = condition


class UnsupportedStructureError(ValueError):
    """Model structure cannot be realized for filtering (static or feedthrough)."""


class KinematicsFormatError(ValueError):
    """Kinematics text did not match the expected layout; message names row/column."""


class UnknownChannelNameError(KeyError):
    """A requested channel label does not exist; message lists available names."""


def is_int(value) -> bool:
    """A JSON integer (``true`` and ``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


def is_list_of(value, check) -> bool:
    return isinstance(value, list) and all(map(check, value))


def check_dt(dt) -> float:
    """The sample period ``dt`` as a float, if it is positive and finite."""
    if not 0.0 < float(dt) < float("inf"):
        raise ContractViolationError(f"dt must be positive and finite, got {float(dt)}")
    return float(dt)
