"""Exception taxonomy shared across the solvers, operators and CLI.

Every failure mode that a caller might reasonably want to branch on gets its
own class.  The hierarchy is the exit-code contract: a class carries the
process exit code of its branch (2, but 3 under HypothesisViolated, 4 for
SmallDivisorUnderflow, 5 under BoundViolated), each error builds its own
``detail``, and the CLI prints ``payload()`` and exits with ``exit_code``.
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

    Attributes: ``mode`` (the integer frequency vector), ``magnitude`` and
    ``floor``.
    """

    exit_code = 4

    def __init__(self, mode, magnitude, floor):
        self.mode = tuple(int(m) for m in mode)
        self.magnitude = float(magnitude)
        self.floor = float(floor)
        super().__init__(
            "divisor %.3e below floor %.3e at mode %s"
            % (self.magnitude, self.floor, self.mode),
            mode=list(self.mode), magnitude=self.magnitude, floor=self.floor)


class BoundViolated(ParatoriError):
    """A certified inequality failed on the verification grid, at the
    (starting point, iterate) ``witness`` when one is given."""

    exit_code = 5

    def __init__(self, message, witness=None, **detail):
        self.witness = witness
        if witness is not None:
            detail.update(witness_point=witness[0], witness_iterate=witness[1])
        super().__init__(message, **detail)


class ContractViolated(BoundViolated):
    """The invariance defect of a pair exceeds its tolerance below the
    contract orders.

    Attributes: ``order`` (u-order of the defect coefficient),
    ``component`` ("x", "y" or "theta_<axis>"), ``defect`` (the coefficient
    norm) and ``tol`` (the bound it exceeds: the solve's ``assert_tol``
    times the size of the pair).
    """

    def __init__(self, order, component, defect, tol):
        self.order = int(order)
        self.component = str(component)
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            "invariance defect %.3e in %s at order %d exceeds %.3e"
            % (self.defect, self.component, self.order, self.tol),
            order=self.order, component=self.component, defect=self.defect,
            tol=self.tol)


class TailNotConverged(BoundViolated):
    """An orbit-sum or integral tail did not reach the requested tolerance."""


class FlowLeftSector(BoundViolated):
    """A trajectory escaped the sector during a bound check."""


class Diverged(BoundViolated):
    """An iteration grew instead of contracting; ``detail["report"]``
    holds the sweeps so far."""
