"""Exception types raised across the package."""


class ChipFiringError(Exception):
    """Base class for all chipfire errors."""


class InvalidParams(ChipFiringError):
    """Game parameters outside the domain an operation supports."""


class InvariantViolation(ChipFiringError):
    """A conserved quantity failed an exact check during a run."""


class InvalidBase(InvalidParams):
    """Base b/a requires coprime a < b."""


class ParseError(ChipFiringError):
    """Malformed digit-word text."""


class DivisionByZero(ChipFiringError, ZeroDivisionError):
    """State polynomial evaluated at t=0 with support right of the origin."""


class InconsistentLog(ChipFiringError):
    """A firing log does not satisfy the side-value equations for its state."""


class NotDivisible(ChipFiringError):
    """Weighted vertex sum is not a multiple of b-a."""


class EqualRates(ChipFiringError):
    """Firing-count-from-weighted-sum is undefined when a == b."""


class CensusMismatch(ChipFiringError):
    """Dormant-settlement enumeration disagrees with the closed formulas."""


class ScanExhausted(ChipFiringError):
    """A simulation scan hit its limit before finding its target."""


class NotRegular(ChipFiringError):
    """Elevated-game operation applied to a left word with a digit below a."""


class WindowFailure(ChipFiringError):
    """The fast path found no regular left word or no consistent settlement
    index past a certified H: the H was miscertified, an internal fault."""
