"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ParseError -> 2, PreconditionError -> 3,
NumericError -> 4.  Message phrases are stable; tests match on them.  A
diagram that does not repeat has one refusal, NotStationaryError;
HorizonExceededError is a walk past the last level of one (`PathWalker`).
The float norms overflow by one rule, `martingale.weighted`: beyond the
floats, weights blame alpha (AlphaOverflowError), values NumericError.
"""


class AdicError(Exception):
    pass


class ParseError(AdicError):
    exit_code = 2


class PreconditionError(AdicError):
    exit_code = 3


class NumericError(AdicError):
    exit_code = 4


class LevelOverflowError(PreconditionError):
    def __init__(self, msg="level overflow"):
        super().__init__(msg)


class HorizonExceededError(PreconditionError):
    def __init__(self, msg="horizon exceeded"):
        super().__init__(msg)


class NotProperlyOrderedError(PreconditionError):
    def __init__(self, msg="not properly ordered"):
        super().__init__(msg)


class NotStationaryError(PreconditionError):
    def __init__(self, msg="needs a stationary diagram"):
        super().__init__(msg)


class InsufficientStabilizationError(PreconditionError):
    def __init__(self, msg="insufficient stabilization level"):
        super().__init__(msg)


class NormTooLargeError(PreconditionError):
    def __init__(self, msg="norm too large for Neumann regime"):
        super().__init__(msg)


class AlphaOverflowError(NumericError):
    def __init__(self, alpha):
        super().__init__("alpha %s overflows the float norms" % (alpha,))


class ObstructedError(PreconditionError):
    """Raised by the transfer solver when invariant distributions do not vanish."""

    def __init__(self, distribution_values):
        self.distribution_values = list(distribution_values)
        super().__init__("obstructed: D = %s" % (self.distribution_values,))
