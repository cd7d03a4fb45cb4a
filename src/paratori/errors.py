"""Exception taxonomy shared across the solvers, operators and CLI.

Every failure mode that a caller might reasonably want to branch on gets its
own class.  The CLI maps these onto process exit codes (see cli.py).
"""


class ParatoriError(Exception):
    """Base class for all library errors."""


class ConfigError(ParatoriError):
    """Bad or inconsistent user-supplied configuration."""


class DimensionMismatch(ParatoriError):
    pass


class StructureViolation(ParatoriError):
    """Input data does not have the required triangular/reduced structure."""


class NonZeroAverage(ParatoriError):
    """A cohomological right-hand side has a nonzero mean, so no solution."""


class SmallDivisorUnderflow(ParatoriError):
    """A divisor |e^{2 pi i k.w} - 1| or |k.w| fell below the safety floor.

    Attributes: ``mode`` (the integer frequency vector) and ``magnitude``.
    """

    def __init__(self, mode, magnitude, floor):
        self.mode = tuple(int(m) for m in mode)
        self.magnitude = float(magnitude)
        self.floor = float(floor)
        super().__init__(
            "divisor %.3e below floor %.3e at mode %s"
            % (self.magnitude, self.floor, self.mode)
        )


class CNotInvertible(ParatoriError):
    """The shear coefficient c(theta) vanishes somewhere (or has zero mean)."""


class NonPositiveLeadingCoefficient(ParatoriError):
    """Mean of the leading nonlinear coefficient must be positive."""


class ZeroLeadingCoefficient(ParatoriError):
    pass


class HypothesisViolated(ParatoriError):
    """A standing hypothesis of the construction fails for the given data."""


class SingularSystem(ParatoriError):
    """Linear step system is singular away from the expected resonant order."""


class TruncationTooLow(ParatoriError):
    """Requested order cannot be represented at the current Fourier/Taylor cut."""


class EnergyBelowThreshold(ParatoriError):
    """Energy level too low for the channel to be open."""


class BoundViolated(ParatoriError):
    """A certified inequality failed on the verification grid."""


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
            % (self.defect, self.component, self.order, self.tol)
        )


class TailNotConverged(ParatoriError):
    """An orbit-sum or integral tail did not reach the requested tolerance."""


class FlowLeftSector(ParatoriError):
    """A trajectory escaped the sector during a bound check."""


class Diverged(ParatoriError):
    """An iteration grew instead of contracting."""
