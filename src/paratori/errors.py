"""Exception taxonomy shared across the solvers, operators and CLI.

Every failure mode that a caller might reasonably want to branch on gets its
own class.  The hierarchy is the exit-code contract: a class carries the
process exit code of its branch (2, but 3 under HypothesisViolated, 4 for
SmallDivisorUnderflow, 5 under BoundViolated), an error's facts live in
``detail`` alone; the CLI prints ``payload()`` and exits with ``exit_code``.
"""


class ParatoriError(Exception):
    """Base class for all library errors; ``detail`` holds the keyword
    arguments, the facts the message states, for machines."""

    exit_code = 2

    def __init__(self, message, **detail):
        super().__init__(message)
        self.detail = detail

    def payload(self):
        """The one JSON object the CLI writes to stderr."""
        return {"error": type(self).__name__, "exit_code": self.exit_code,
                "message": str(self), "detail": self.detail}


class ConfigError(ParatoriError):
    """Bad or inconsistent user-supplied configuration."""


class DimensionMismatch(ParatoriError):
    pass


class StructureViolation(ParatoriError):
    """Input data does not have the required triangular/reduced structure."""


class NonZeroAverage(ParatoriError):
    """A cohomological right-hand side has a nonzero mean, so no solution."""


class SingularSystem(ParatoriError):
    """Linear step system is singular away from the expected resonant order."""


class TruncationTooLow(ParatoriError):
    """Requested order cannot be represented at the current Fourier/Taylor cut."""


class HypothesisViolated(ParatoriError):
    """A standing hypothesis of the construction fails for the given data."""

    exit_code = 3


class NonPositiveLeadingCoefficient(HypothesisViolated):
    """Mean of the leading nonlinear coefficient must be positive."""


class ZeroLeadingCoefficient(HypothesisViolated):
    pass


class EnergyBelowThreshold(HypothesisViolated):
    """Energy level too low for the channel to be open."""


class SmallDivisorUnderflow(ParatoriError):
    """A divisor |e^{2 pi i k.w} - 1| or |k.w| fell below the safety floor.
    ``detail``: ``mode`` (the integer frequency vector), ``magnitude`` and
    ``floor``; a solve adds the ``order`` and ``component`` it stopped at."""

    exit_code = 4

    def __init__(self, mode, magnitude, floor):
        mode = tuple(int(m) for m in mode)
        super().__init__("divisor %.3e below floor %.3e at mode %s"
                         % (magnitude, floor, mode), mode=list(mode),
                         magnitude=float(magnitude), floor=float(floor))


class BoundViolated(ParatoriError):
    """A certified inequality failed on the verification grid; ``detail``
    holds a (starting point, iterate) ``witness`` as ``witness_point`` and
    ``witness_iterate``."""

    exit_code = 5

    def __init__(self, message, witness=None, **detail):
        if witness is not None:
            detail.update(witness_point=witness[0], witness_iterate=witness[1])
        super().__init__(message, **detail)


class ContractViolated(BoundViolated):
    """The invariance defect of a pair exceeds its tolerance below the
    contract orders.  ``detail``: ``order`` (u-order of the defect
    coefficient), ``component`` ("x", "y" or "theta_<axis>"), ``defect``
    (the coefficient norm) and ``tol`` (the bound it exceeds: the solve's
    ``assert_tol`` times the size of the pair)."""

    def __init__(self, order, component, defect, tol):
        detail = dict(order=int(order), component=str(component),
                      defect=float(defect), tol=float(tol))
        super().__init__("invariance defect %(defect).3e in %(component)s at "
                         "order %(order)d exceeds %(tol).3e" % detail, **detail)


class TailNotConverged(BoundViolated):
    """An orbit-sum or integral tail did not reach the requested tolerance."""


class FlowLeftSector(BoundViolated):
    """A trajectory escaped the sector during a bound check."""


class Diverged(BoundViolated):
    """An iteration grew instead of contracting; ``detail["report"]``
    holds the sweeps so far."""
