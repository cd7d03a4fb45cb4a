"""The input dynamics: their one polynomial type, their structure rules,
and the coordinate changes that bring general input into shape.

A ``TaylorFourierMap`` holds a map or a vector field that is polynomial in
the planar variables (x, y) with truncated Fourier coefficients in the
angles.  Angle axes split into ``d`` dynamic axes (rotating with the torus,
where the parameterization gets angular corrections) and ``drive`` external
phase axes (quasiperiodic forcing; rigid by fiat).  Maps advance the dynamic
angles by a fixed rotation; fields rotate all angle axes with constant
frequencies.

Every term table (``x_terms``, ``y_terms``, each ``theta_terms[a]``) is an
``XYPoly`` truncated at its own total degree; a coefficient is read with
``FTPoly.coefficient``, and ``XYPoly.eval`` is the one pointwise evaluator.
Its arithmetic is the ``jets.FTPoly`` core shared with ``TFJet``, and
``XYPoly.subst`` is ``jets.substitute``, the same code that evaluates term
tables at u-jets, on a ``jets.power_table`` it builds once per call; only
the x- and y-derivatives are its own.  A table is only read at its own
degree: whatever computes with it builds an ``XYPoly`` at the degree it
needs from the table's ``terms``.

The admissibility rule of each solver class is one function here:
``TaylorFourierMap.validate_reduced`` (the triangular power class, with
positive means of the shear and of the leading coefficient) and
``validate_shear_field`` (the shear class of vector fields, with a nonzero
mean of the leading coefficient and a positive mean shear).  They share the
rule that the x-part is exactly shear * y.  Each runs once per entry point:
in ``cli.RunConfig`` for the data it builds, in ``solve_to_order`` and in
``solve_helicoure``; the order steps trust it.  The normalizations live
here too: ``reduce_general_map`` / ``reduce_general_field`` make the x-part
exactly  x + c(theta) * y  (maps) or  c(theta) * y  (fields), with a
``NormalizationRecord`` that pulls computed manifolds back.
"""

import numpy as np

from .errors import (ConfigError, DimensionMismatch,
                     NonPositiveLeadingCoefficient, StructureViolation,
                     ZeroLeadingCoefficient)
from .fourier import eval_stack, reciprocal
from .jets import (FTPoly, eval_xy_terms, power_table, stack_coefficients,
                   substitute)


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

    def diff_x(self):
        out = self._empty()
        for (l, m), s in self.terms.items():
            if l >= 1:
                out.set_coefficient((l - 1, m), s * l)
        return out

    def diff_y(self):
        out = self._empty()
        for (l, m), s in self.terms.items():
            if m >= 1:
                out.set_coefficient((l, m - 1), s * m)
        return out

    def subst(self, px, py, tails=()):
        """Substitute x -> px, y -> py, theta_a -> theta_a + W_a.

        px, py are XYPoly with zero constant term; ``tails`` lists one
        XYPoly displacement of positive minimal total degree per angle axis
        (None for none).
        """
        if (0, 0) in px.terms or (0, 0) in py.terms:
            raise StructureViolation("substituted polynomials need zero constant term")
        powers = power_table(px, py, tails, self.trunc, [self.terms])
        return substitute(self.terms, powers, self.trunc)

    def eval(self, x, y, ang=None):
        """Pointwise sum_{l,m} s_{lm}(ang) x^l y^m, every coefficient from
        one ``eval_stack`` call.

        Real or complex x, y and angles; returns an array of the broadcast
        shape of x, y and the angle batch, a number when all are scalars.
        """
        keys, coeffs = stack_coefficients([self])
        vals = np.moveaxis(eval_stack(coeffs, ang), 0, -1)
        l, m = np.reshape(keys, (-1, 2)).T
        x = np.asarray(x)[..., None]
        y = np.asarray(y)[..., None]
        out = np.sum(vals * x**l * y**m, axis=-1)
        return out if out.ndim else out.item()


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

    def validate_xy_shear(self):
        """Check x-part is led by shear * y with an invertible shear (the
        prerequisite for normalization)."""
        if (0, 1) not in self.x_terms.terms:
            raise StructureViolation("x-part misses a shear * y term")
        for (l, m) in self.x_terms.terms:
            if (l, m) != (0, 1) and l + m < 2:
                raise StructureViolation("x-part has an extra linear term %s" % ((l, m),))

    # ----- pointwise evaluation ------------------------------------------

    def eval(self, x, y, ang=None):
        """Image (map) or velocity (field) at points.

        Returns (X, Y, A) with A of shape batch + (dim,) holding the full
        angle image/velocity (dynamic axes first, then drive axes).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = self.x_terms.eval(x, y, ang)
        dy = self.y_terms.eval(x, y, ang)
        batch = np.broadcast(x, y).shape
        ang_out = np.zeros(batch + (self.dim,))
        for a in range(self.d):
            ang_out[..., a] = self.theta_terms[a].eval(x, y, ang)
        if self.kind == "map":
            X = x + dx
            Y = y + dy
            for a in range(self.d):
                ang_out[..., a] += np.asarray(ang)[..., a] + self.freqs[a]
            return X, Y, ang_out
        for j in range(self.dim):
            ang_out[..., j] += self.freqs[j]
        return dx, dy, ang_out

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

    def __repr__(self):
        return "TaylorFourierMap(kind=%s, d=%d, drive=%d, cut=%d, k=%s, p=%s)" % (
            self.kind, self.d, self.drive, self.cut, self.k, self.p)


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


class NormalizationRecord:
    """Change of variables  y_new = y + h(x, y, theta)  and its inverse
    y = y_new + H(x, y_new, theta), kept so manifolds of the normalized
    system can be pulled back to the original coordinates."""

    def __init__(self, shear, forward, inverse):
        self.shear = shear
        self.forward = forward
        self.inverse = inverse

    def pullback(self, jx, jy_new, tails, trunc):
        """Original-variable y-jet from normalized-variable jets: the
        inverse change at u-jets (x -> jx, y -> jy_new,
        theta_a -> theta_a + W_a)."""
        terms = self.inverse.terms
        powers = power_table(jx, jy_new, tails, trunc, [terms])
        return eval_xy_terms(terms, powers, trunc)


def _xy_identity(dim, cut, deg, which):
    lm = (1, 0) if which == "x" else (0, 1)
    return XYPoly(dim, cut, deg, {lm: 1.0})


def _inverse_change(h, deg):
    """Solve  y = ynew - h(x, y, theta)  for y as a polynomial in (x, ynew)."""
    dim, cut = h.dim, h.cut
    ynew = _xy_identity(dim, cut, deg, "y")
    xid = _xy_identity(dim, cut, deg, "x")
    Y = ynew.copy()
    for _ in range(deg + 1):
        Y_next = ynew - h.subst(xid, Y)
        if all(
            (Y_next.coefficient(lm) - Y.coefficient(lm)).is_zero(1e-15)
            for lm in set(Y_next.terms) | set(Y.terms)
        ):
            Y = Y_next
            break
        Y = Y_next
    return Y


def _drop_dust(terms, scale):
    """Drop Fourier-truncation dust: terms of norm at most 1e-10 * scale."""
    return {lm: s for lm, s in terms.items() if s.coeff_norm() > 1e-10 * scale}


def _shear_change(data, kind, deg):
    """The change of variables that makes the x-part exactly shear * y.

    With x-part f = c(theta) (y + h), the new vertical variable is
    y + h = f / c.  Returns (c, f, g = f / c, record), the record holding h
    and the inverse change y = ynew + H(x, ynew, theta).
    """
    if data.kind != kind:
        raise StructureViolation("expected a %s, got kind %r" % (kind, data.kind))
    data.validate_xy_shear()
    c = data.shear()
    f = XYPoly(data.dim, data.cut, deg, data.x_terms.terms)
    g = f.mul_series(reciprocal(c))
    h = g - _xy_identity(data.dim, data.cut, deg, "y")
    return c, f, g, NormalizationRecord(c, h, _inverse_change(h, deg))


def reduce_general_map(mp, deg):
    """Normalize a map so its x-part becomes exactly  x + c(theta) * y.

    The input needs an invertible shear coefficient on the  y  term of the
    x-part; everything else in the x-part is absorbed into a new vertical
    variable.  Returns (reduced map, NormalizationRecord).  Coefficients
    below 1e-10 times the data size are discarded: the normalization is
    exact only up to the Fourier cut, so forbidden slots collect dust at the
    truncation level.
    """
    c, f, g, record = _shear_change(mp, "map", deg)
    dim, cut, Y = mp.dim, mp.cut, record.inverse
    xid = _xy_identity(dim, cut, deg, "x")

    # full images in the original variables
    Fx = xid + f
    Fy = _xy_identity(dim, cut, deg, "y") + XYPoly(dim, cut, deg, mp.y_terms.terms)
    Bs = [XYPoly(dim, cut, deg, t.terms) for t in mp.theta_terms]

    # re-express the images in (x, y_new)
    Fx_n = Fx.subst(xid, Y)
    Fy_n = Fy.subst(xid, Y)
    Bs_n = [B.subst(xid, Y) for B in Bs]

    # the new vertical coordinate after one step: g evaluated on the image,
    # with the angle argument theta + omega + B
    omega_full = list(mp.freqs) + [0.0] * mp.drive
    ynew_image = g.shift(omega_full).subst(Fx_n, Fy_n, Bs_n)

    scale = max(1.0, c.coeff_norm())
    y_terms = {lm: s for lm, s in ynew_image.terms.items() if lm != (0, 1)}
    y_id_defect = ynew_image.coefficient((0, 1)) - 1.0
    y_terms[(0, 1)] = y_id_defect

    reduced = TaylorFourierMap(
        "map",
        mp.d,
        0,
        cut,
        mp.freqs,
        {(0, 1): c},
        _drop_dust(y_terms, scale),
        [_drop_dust(B.terms, scale) for B in Bs_n],
        k=mp.k,
        p=mp.p,
    )
    return reduced, record


def reduce_general_field(fd, deg):
    """Normalize a field so its x-part becomes exactly  c(theta) * y."""
    c, Xx, g, record = _shear_change(fd, "field", deg)
    dim, cut, Y = fd.dim, fd.cut, record.inverse
    xid = _xy_identity(dim, cut, deg, "x")

    Xy = XYPoly(dim, cut, deg, fd.y_terms.terms)
    Bs = [XYPoly(dim, cut, deg, t.terms) for t in fd.theta_terms]

    gdot = g.diff_x() * Xx + g.diff_y() * Xy
    for j in range(dim):
        gj = g.diff_theta(j)
        if gj.is_zero():
            continue
        gdot = gdot + gj.scale(fd.freqs[j])
        if j < fd.d and not Bs[j].is_zero():
            gdot = gdot + gj * Bs[j]

    ynew_dot = gdot.subst(xid, Y)
    Bs_n = [B.subst(xid, Y) for B in Bs]

    scale = max(1.0, c.coeff_norm())
    reduced = TaylorFourierMap(
        "field",
        fd.d,
        fd.drive,
        cut,
        fd.freqs,
        {(0, 1): c},
        _drop_dust(ynew_dot.terms, scale),
        [_drop_dust(B.terms, scale) for B in Bs_n],
        k=fd.k,
        p=fd.p,
    )
    return reduced, record
