"""Exception types and the number checks shared across the package."""
import math
import numbers


def is_int(x) -> bool:
    """An integer of any kind but bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A finite real number of any kind but bool; an int past the float
    range is not finite."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class StringcapError(Exception):
    """Base class for all package errors."""


class ChartMismatchError(StringcapError):
    """A point or vector lives in a chart the domain does not know about."""


class InvalidInputError(StringcapError):
    """NaN or otherwise malformed numeric input."""


class RankDeficientError(StringcapError):
    """Embedding Jacobian has rank below its column count."""


class BasepointMismatchError(StringcapError):
    """Loop concatenation requires a shared basepoint."""


class InfiniteLengthError(StringcapError):
    """The support function is infinite along the sampled loop."""

    def __init__(self, message: str, t: float, params=None):
        super().__init__(message)
        self.t = t
        self.params = params


class LoopValidationError(StringcapError):
    """A loop violates closure or derivative-consistency requirements."""


class ScenarioParameterError(StringcapError):
    """Out-of-range or inconsistent scenario parameters."""


class DerivationError(StringcapError):
    """A certificate cannot be derived, or fails its own replay."""


class MissingAxiomError(DerivationError):
    """A certificate derivation needs a rewrite axiom the scenario lacks."""

    def __init__(self, rule_id: str):
        super().__init__(f"scenario does not register the rewrite axiom {rule_id!r}")
        self.rule_id = rule_id


class IncompatibleBindingError(DerivationError):
    """Star product arguments have no declared transverse intersection."""
