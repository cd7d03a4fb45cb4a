"""The input dynamics: their one polynomial type and their structure rules.

A ``TaylorFourierMap`` holds a map or a vector field that is polynomial in
the planar variables (x, y) with truncated Fourier coefficients in the
angles.  Angle axes split into ``d`` dynamic axes (rotating with the torus,
where the parameterization gets angular corrections) and ``drive`` external
phase axes (quasiperiodic forcing; rigid by fiat).  Maps advance the dynamic
angles by a fixed rotation; fields rotate all angle axes with constant
frequencies.

Every term table (``x_terms``, ``y_terms``, each ``theta_terms[a]``) is an
``XYPoly`` truncated at its own total degree; a coefficient is read with
``FTPoly.coefficient``, and tables are evaluated pointwise, several at
once, by ``jets.TableStack``.  Its arithmetic is the ``jets.FTPoly`` core
shared with ``TFJet``, and ``XYPoly.subst`` is the one-table case of
``jets.substitute``, the same door that evaluates term tables at u-jets.
This module holds no evaluation of its own.  A table is only read at its own
degree: whatever computes with it builds an ``XYPoly`` at the degree it
needs from the table's ``terms``.

The admissibility rule of each solver class is one function here:
``TaylorFourierMap.validate_reduced`` (the triangular power class, with
positive means of the shear and of the leading coefficient) and
``validate_shear_field`` (the shear class of vector fields, with a nonzero
mean of the leading coefficient and a positive mean shear).  They share the
rule that the x-part is exactly shear * y.  Each runs once per entry point:
in ``cli.RunConfig`` for the data it builds, in ``solve_to_order`` and in
``solve_helicoure``; the order steps trust it.  Input arrives in these
shapes: the one change of variables the program runs, the wall model's
y_new = y + (1 + g(theta)) y^2, belongs to ``applications``.
"""

from .errors import (ConfigError, DimensionMismatch,
                     NonPositiveLeadingCoefficient, StructureViolation,
                     ZeroLeadingCoefficient)
from .jets import FTPoly, substitute


class XYPoly(FTPoly):
    """Polynomial in (x, y) with FourierSeries coefficients, truncated by
    total degree: the ``FTPoly`` core with exponents (l, m)."""

    __slots__ = ()
    _ZERO = (0, 0)

    @staticmethod
    def _key(lm):
        l, m = int(lm[0]), int(lm[1])
        if l < 0 or m < 0:
            raise StructureViolation("negative exponent (%d, %d)" % (l, m))
        return (l, m)

    @staticmethod
    def _add(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @staticmethod
    def _degree(lm):
        return lm[0] + lm[1]

    def subst(self, px, py, tails=()):
        """Substitute x -> px, y -> py, theta_a -> theta_a + W_a.

        px, py are XYPoly with zero constant term; ``tails`` lists one
        XYPoly displacement of positive minimal total degree per angle axis
        (None for none).  The one-table case of ``jets.substitute``.
        """
        return substitute([self.terms], px, py, tails, self.trunc)[0]


class TaylorFourierMap:
    """A map or vector field, polynomial in (x, y), Fourier in the angles.

    For kind="map" the full images are
        x' = x + (x_terms),  y' = y + (y_terms),
        theta' = theta + omega + (theta_terms),
    i.e. term tables hold only the deviation from the identity.  For
    kind="field" the tables are the velocities themselves and the angle
    velocities are  freqs + (theta_terms on the first d axes).  The
    constructor takes each table as an {(l, m): series-or-number} dict and
    keeps it as an ``XYPoly`` truncated at its own total degree.
    """

    def __init__(self, kind, d, drive, cut, freqs, x_terms, y_terms, theta_terms,
                 k=None, p=None):
        if kind not in ("map", "field"):
            raise ConfigError("kind must be 'map' or 'field', got %r" % (kind,))
        self.kind = kind
        self.d = int(d)
        self.drive = int(drive)
        self.dim = self.d + self.drive
        self.cut = int(cut)
        self.freqs = tuple(float(w) for w in freqs)
        if kind == "map" and self.drive:
            raise ConfigError("maps take no drive axes; driven phases are a flow concept")
        axes = self.d if kind == "map" else self.dim
        if len(self.freqs) != axes:
            raise DimensionMismatch("%d frequencies for %d rotating angle axes"
                                    % (len(self.freqs), axes))
        self.x_terms = self._table(x_terms)
        self.y_terms = self._table(y_terms)
        if len(theta_terms) != self.d:
            raise DimensionMismatch("%d angle term tables for d = %d"
                                    % (len(theta_terms), self.d))
        self.theta_terms = [self._table(t) for t in theta_terms]
        self.k = None if k is None else int(k)
        self.p = None if p is None else int(p)

    def _table(self, terms):
        """An {(l, m): series-or-number} table as the XYPoly truncated at
        its own total degree."""
        deg = max((l + m for l, m in terms), default=0)
        return XYPoly(self.dim, self.cut, deg, terms)

    # ----- structure checks ---------------------------------------------

    def shear(self):
        return self.x_terms.coefficient((0, 1))

    def validate_reduced(self):
        """Check that the data is in the power class, the one admissibility
        rule of the order-by-order solver.

        x-part exactly c(theta) y; y-part led by a(theta) x^k with no term
        of total degree below k; angle parts with no term of total degree
        below p, where 2p > k - 1 (with d == 0 no angle-part condition
        applies and p is ignored); then positive means of c and a.
        """
        k = self.k
        if k is None or k < 2:
            raise StructureViolation("need the leading y-order k >= 2")
        _check_exact_shear(self)
        _check_tail(self.y_terms, k, "the y-part")
        if (k, 0) not in self.y_terms.terms:
            raise StructureViolation("y-part misses the leading x^%d term" % k)
        p = self.p
        if self.d and (p is None or p < 1):
            raise StructureViolation("need the leading angle-drift order p >= 1")
        if self.d and not (2 * p > k - 1):
            raise StructureViolation("orders violate 2p > k - 1")
        for a in range(self.d):
            _check_tail(self.theta_terms[a], p, "angle axis %d" % a)
        cbar = self.shear().average()
        abar = self.y_terms.coefficient((k, 0)).average()
        if cbar == 0.0 or abar == 0.0:
            raise ZeroLeadingCoefficient(
                "mean shear %.3e, mean leading coefficient %.3e" % (cbar, abar))
        if cbar < 0.0 or abar < 0.0:
            raise NonPositiveLeadingCoefficient(
                "need positive means: shear %.3e, leading %.3e" % (cbar, abar))

    # ----- symmetry transform (fields) ------------------------------------

    def transformed_field(self, sx=1, sy=1, time_sign=1):
        """Conjugate the field by (x, y) -> (sx x, sy y) and rescale time.

        Angle frequencies pick up the time sign (a time reversal also runs
        every forcing hull backwards).
        """
        if self.kind != "field" or {sx, sy, time_sign} - {1, -1}:
            raise ConfigError("transformed_field takes a field and signs +-1")

        def tx(table, out_sign):
            return {
                (l, m): s * (time_sign * out_sign * sx**l * sy**m)
                for (l, m), s in table.terms.items()
            }

        return TaylorFourierMap(
            "field",
            self.d,
            self.drive,
            self.cut,
            tuple(time_sign * w for w in self.freqs),
            tx(self.x_terms, sx),
            tx(self.y_terms, sy),
            [tx(t, 1) for t in self.theta_terms],
            k=self.k,
            p=self.p,
        )


def _check_exact_shear(data):
    """The x-part rule of both structure classes: exactly shear * y."""
    if list(data.x_terms.terms) != [(0, 1)]:
        raise StructureViolation("x-part must be exactly shear * y, found "
                                 "terms %s" % sorted(data.x_terms.terms))


def _check_tail(table, lead, where):
    """The tail rule of the power class: no term of total degree below the
    leading order ``lead`` (for a pure-x term, no power of x below it)."""
    if table.terms and table.min_order < lead:
        raise StructureViolation("%s has a term of total degree %d, below "
                                 "its leading order %d"
                                 % (where, table.min_order, lead))


def validate_shear_field(fd):
    """Check that a vector field is in the shear class, the one
    admissibility rule of the shear-class solve.

    x-part exactly c(theta) y; y-part led by b(theta) x y with every other
    term divisible by y^2; angle parts d(theta) y plus terms of total
    degree >= 2, on at least one dynamic angle; then a nonzero mean of b
    and a positive mean of c.
    """
    if fd.kind != "field":
        raise StructureViolation("shear class is a vector-field structure")
    _check_exact_shear(fd)
    if (1, 1) not in fd.y_terms.terms:
        raise StructureViolation("y-part misses the leading x*y term")
    for (l, m) in fd.y_terms.terms:
        if m == 0:
            raise StructureViolation("y-part term x^%d has no y factor" % l)
        if m == 1 and l != 1:
            raise StructureViolation("single-y term (%d, 1) outside the class" % l)
    if fd.d < 1:
        raise StructureViolation("shear class needs at least one dynamic angle")
    for a in range(fd.d):
        for (l, m) in fd.theta_terms[a].terms:
            if (l, m) != (0, 1) and l + m < 2:
                raise StructureViolation(
                    "angle term (%d, %d) on axis %d outside the class" % (l, m, a))
    if fd.y_terms.coefficient((1, 1)).average() == 0.0:
        raise ZeroLeadingCoefficient("mean of the leading x*y coefficient is zero")
    cbar = fd.shear().average()
    if cbar <= 0.0:
        raise NonPositiveLeadingCoefficient("mean shear %.3e must be positive" % cbar)

