"""Fourier–Taylor polynomials: the shared coefficient-table core, jets in a
scalar variable u, and plain scalar polynomials in u.

``FTPoly`` is the one implementation of the algebra of polynomials with
``FourierSeries`` coefficients, truncated at a total degree ``trunc``:
coefficient table, sums, the truncated product, scaling, the angle
derivative and the angle shift.  Its two classes differ only in the
exponent type.  ``TFJet`` (exponent ``n``, defined here) holds the
components of manifold parameterizations and their residuals;
``mapdata.XYPoly`` (exponent ``(l, m)``) holds the term tables of the input
dynamics and normalizes them.
``substitute`` is the one door to composition, for both classes: term
tables evaluated at two polynomials and angle displacements.  It builds
every power of the substituted polynomials and of the displacements once,
in one power table shared by all the tables substituted at that point (the
2 + d tables of one residual, the three tables of the expanded wall field),
and evaluates each table on it with ``eval_xy_terms`` and ``angle_taylor``
(the expansion of s(theta + W) in the displacement W).

``JetStack`` evaluates several jets on one mode box together: one
``fourier.eval_stack`` call for all their coefficients, then one u-power
contraction; ``TFJet.eval_grid`` is its one-jet case.

``UPoly`` is the scalar-coefficient special case used for normal forms (the
inner dynamics).  It is kept separate from ``FTPoly`` for its pointwise
evaluation (the orbit iterates, and the first Taylor coefficient of each
trajectory step), its plain coefficients (the higher ones) and its scalar
products (the powers of the inner polynomial in ``TFJet.compose_inner``).
"""

import math

import numpy as np

from .errors import DimensionMismatch, StructureViolation
from .fourier import FourierSeries, eval_stack, on_box, products


class UPoly:
    """Scalar polynomial sum_n a_n u^n with truncation order."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc):
        self.trunc = int(trunc)
        self.terms = {}
        for n, a in terms.items():
            a = float(a)
            if a != 0.0 and n <= self.trunc:
                self.terms[int(n)] = a

    def coeff(self, n):
        return self.terms.get(n, 0.0)

    def orders(self):
        return sorted(self.terms)

    def __call__(self, u):
        u = np.asarray(u)
        out = np.zeros(u.shape, dtype=np.result_type(u, float))
        for n, a in self.terms.items():
            out = out + a * u**n
        if out.ndim:
            return out
        return complex(out) if np.iscomplexobj(out) else float(out)

    def __add__(self, other):
        t = dict(self.terms)
        for n, a in other.terms.items():
            t[n] = t.get(n, 0.0) + a
        return UPoly(t, min(self.trunc, other.trunc))

    def scale(self, c):
        return UPoly({n: c * a for n, a in self.terms.items()}, self.trunc)

    def mul(self, other):
        trunc = min(self.trunc, other.trunc)
        t = {}
        for n, a in self.terms.items():
            for m, b in other.terms.items():
                if n + m <= trunc:
                    t[n + m] = t.get(n + m, 0.0) + a * b
        return UPoly(t, trunc)


class FTPoly:
    """Polynomial with FourierSeries coefficients, truncated by total degree.

    ``terms`` maps an exponent to a nonzero series on the box (dim, cut);
    exponents of total degree above ``trunc`` are dropped.  A subclass fixes
    the exponent type with ``_ZERO`` (the exponent of the constant term) and
    three static methods: ``_key`` normalizes an exponent, ``_add`` adds two
    and ``_degree`` gives the total degree.  Series are immutable, so
    polynomials share them and a copy copies only the table.  The product
    of two polynomials is one stacked ``fourier.products`` call for all
    its coefficient pairs, and each of its coefficients rounds as the sum
    of single products ``a * b`` did, bit for bit.
    """

    __slots__ = ("dim", "cut", "trunc", "terms")

    def __init__(self, dim, cut, trunc, terms=None):
        self.dim = int(dim)
        self.cut = int(cut)
        self.trunc = int(trunc)
        self.terms = {}
        if terms:
            for key, s in terms.items():
                self.set_coefficient(key, s)

    def _empty(self, trunc=None):
        return type(self)(self.dim, self.cut, self.trunc if trunc is None else trunc)

    def _constant(self, s, trunc):
        """The polynomial s (series or number) of this class and box."""
        out = self._empty(trunc)
        out.set_coefficient(self._ZERO, s)
        return out

    def _store(self, key, s):
        """Set a normalized exponent to a series of this box."""
        if self._degree(key) > self.trunc:
            return
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def _accumulate(self, key, s):
        cur = self.terms.get(key)
        self._store(key, s if cur is None else cur + s)

    def set_coefficient(self, key, s):
        self._store(self._key(key), on_box(s, self.dim, self.cut))

    def add_to_coefficient(self, key, s):
        self._accumulate(self._key(key), on_box(s, self.dim, self.cut))

    def coefficient(self, key):
        s = self.terms.get(self._key(key))
        return s if s is not None else FourierSeries.zero(self.dim, self.cut)

    @property
    def min_order(self):
        """Smallest total degree present (trunc + 1 when zero)."""
        return min((self._degree(key) for key in self.terms), default=self.trunc + 1)

    def is_zero(self):
        return not self.terms

    def copy(self):
        out = self._empty()
        out.terms = dict(self.terms)
        return out

    # ----- linear ---------------------------------------------------------

    def __add__(self, other):
        out = self._empty(min(self.trunc, other.trunc))
        out.terms = {key: s for key, s in self.terms.items()
                     if self._degree(key) <= out.trunc}
        for key, s in other.terms.items():
            out._accumulate(key, s)
        return out

    def __neg__(self):
        out = self._empty()
        out.terms = {key: -s for key, s in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = float(c)
        out = self._empty()
        if c != 0.0:
            out.terms = {key: s * c for key, s in self.terms.items()}
        return out

    def __mul__(self, other):
        """Truncated product with a polynomial of the same class or a
        number.

        The coefficient products of two polynomials run as one
        ``fourier.products`` call, ordered by self's terms and, within
        each, by other's.  Each exponent sums its rows in that order
        and drops a partial sum that is exactly zero, as adding the single
        products one by one would, so the product is bit for bit the sum of
        its ``a * b`` terms.  A product of one pair is ``a * b`` itself.
        """
        if not isinstance(other, FTPoly):
            return self.scale(other)
        trunc = min(self.trunc, other.trunc)
        out = self._empty(trunc)
        degree, add = self._degree, self._add
        right = [(degree(m), m, b) for m, b in other.terms.items()]
        triples = [(add(n, m), a, b) for n, a in self.terms.items()
                   for dm, m, b in right if degree(n) + dm <= trunc]
        if len(triples) == 1:
            ((key, a, b),) = triples
            out._store(key, a * b)
        elif triples:
            keys, lefts, rights = zip(*triples)
            sums = {}
            for key, row in zip(keys, products(lefts, rights)):
                cur = sums.get(key)
                if cur is None:
                    cur = sums[key] = np.array(row)
                else:
                    cur += row
                if not cur.any():
                    del sums[key]
            out.terms = {key: FourierSeries(c, symmetrize=False)
                         for key, c in sums.items()}
        return out

    __rmul__ = __mul__

    # ----- angle calculus -------------------------------------------------

    def diff_theta(self, axis):
        out = self._empty()
        for key, s in self.terms.items():
            out._store(key, s.diff(axis))
        return out

    def shift(self, delta):
        out = self._empty()
        for key, s in self.terms.items():
            out._store(key, s.shift(delta))
        return out


class TFJet(FTPoly):
    """Truncated polynomial in u with FourierSeries coefficients."""

    __slots__ = ()
    _ZERO = 0

    @staticmethod
    def _key(n):
        n = int(n)
        if n < 0:
            raise StructureViolation("negative jet order %d" % n)
        return n

    @staticmethod
    def _add(n, m):
        return n + m

    @staticmethod
    def _degree(n):
        return n

    def orders(self):
        return sorted(self.terms)

    def tail(self, from_order):
        out = TFJet(self.dim, self.cut, self.trunc)
        out.terms = {n: s for n, s in self.terms.items() if n >= from_order}
        return out

    def mul_upoly(self, p):
        trunc = min(self.trunc, p.trunc)
        out = TFJet(self.dim, self.cut, trunc)
        for n, a in self.terms.items():
            for m, b in p.terms.items():
                if n + m <= trunc:
                    out.add_to_coefficient(n + m, a * b)
        return out

    # ----- calculus and composition ----------------------------------------

    def derivative_u(self):
        out = TFJet(self.dim, self.cut, self.trunc)
        for n, s in self.terms.items():
            if n >= 1:
                out.set_coefficient(n - 1, s * n)
        return out

    def compose_inner(self, r_poly, delta=None):
        """self(r(u), theta + delta) for a scalar inner polynomial r.

        r must have zero constant term; delta defaults to no angle shift.
        """
        if r_poly.coeff(0) != 0.0:
            raise StructureViolation("inner polynomial needs zero constant term")
        src = self if delta is None else self.shift(delta)
        trunc = min(self.trunc, r_poly.trunc)
        out = TFJet(self.dim, self.cut, trunc)
        # cache powers of r up to the largest needed order
        powers = {0: UPoly({0: 1.0}, trunc)}
        top = max(src.terms, default=0)
        for j in range(1, top + 1):
            powers[j] = powers[j - 1].mul(r_poly)
        for n, s in src.terms.items():
            for m, a in powers[n].terms.items():
                out.add_to_coefficient(m, s * a)
        return out

    # ----- evaluation -------------------------------------------------------

    def eval_grid(self, u_values, theta_points=None):
        """Values on the product of a u-array and a batch of angle points:
        the one-jet case of ``JetStack.eval_grid``.

        Returns shape (len(u),) + batch_shape; complex u or angles give
        complex values.
        """
        return JetStack([self]).eval_grid(u_values, theta_points)[0]

    def __repr__(self):
        return "TFJet(orders=%s, trunc=%d)" % (self.orders(), self.trunc)


def stack_coefficients(polys):
    """The exponents and the coefficient boxes of ``FTPoly``s on one mode
    box, all stacked on one leading axis in the order of the polys."""
    boxes = {(p.dim, p.cut) for p in polys}
    if len(boxes) != 1:
        raise DimensionMismatch("polynomials on different boxes %s" % boxes)
    ((dim, cut),) = boxes
    keys = [key for p in polys for key in p.terms]
    coeffs = [s.coeffs for p in polys for s in p.terms.values()]
    return keys, np.reshape(coeffs, (len(keys),) + (2 * cut + 1,) * dim)


class JetStack:
    """Jets on one mode box, evaluated together.

    Their coefficients are stacked once, so each evaluation makes one
    ``eval_stack`` call (one mode basis for the angle batch) and one
    contraction with a u-power matrix that keeps each jet's terms apart.
    """

    def __init__(self, jets):
        orders, self.coeffs = stack_coefficients(jets)
        self.orders = np.array(orders, dtype=int)
        owner = np.repeat(np.arange(len(jets)), [len(j.terms) for j in jets])
        self.select = (owner == np.arange(len(jets))[:, None]).astype(float)

    def eval_grid(self, u_values, theta_points=None):
        """Values of every jet on the product of a u-array and a batch of
        angle points: shape (jets, len(u)) + batch_shape, complex when u or
        the angles are.

        A u of shape (steps, rows) pairs each step's rows with that step's
        own angle batch, angles of shape (steps,) + batch_shape + (dim,),
        and gives shape (jets, steps, rows) + batch_shape.
        """
        u = np.atleast_1d(np.asarray(u_values))
        u = u.astype(np.result_type(u, float), copy=False)
        lead = u.ndim - 1
        vals = eval_stack(self.coeffs, theta_points)
        batch = vals.shape[1 + lead:]
        vals = np.moveaxis(vals.reshape(vals.shape[:1 + lead] + (-1,)), 0, -2)
        select = self.select.reshape((len(self.select),) + (1,) * u.ndim + (-1,))
        u_pow = select * u[..., None] ** self.orders
        return (u_pow @ vals).reshape(u_pow.shape[:-1] + batch)


# ----- substitution with its angle-argument Taylor expansion -----------------


def substitute(tables, px, py, tails, trunc):
    """Evaluate {(l, m): series-or-float} term tables at polynomials.

    Computes, for every table,  sum_{l,m} s_{lm}(theta + W) * px^l * py^m
    truncated at ``trunc``, in the class and box of px: one polynomial per
    table, in their order.  px and py must vanish at the origin; ``tails``
    lists one displacement W_a of px's class per angle axis (None for none).
    The powers of (px, py, W) are built once, in one ``_power_table``, and
    shared by all the tables, so no power is multiplied out twice.
    """
    if px._ZERO in px.terms or py._ZERO in py.terms:
        raise StructureViolation("substituted polynomials need zero constant term")
    powers = _power_table(px, py, tails, trunc, tables)
    return [eval_xy_terms(terms, powers, trunc) for terms in tables]


def _power_table(px, py, tails, trunc, tables):
    """Every power that substituting (px, py, theta + W) into the term
    ``tables`` needs, each built once.

    Returns (xp, yp, wp): xp[l] = px^l and yp[m] = py^m up to the largest
    exponents in ``tables``, truncated at ``trunc``, and for every angle axis
    wp[a] = [1, W_a, W_a^2, ...] up to W_a^(trunc // min_order(W_a)) or the
    first zero power (None for an absent or zero displacement).  Every
    nonzero displacement must vanish at the origin so the angle expansion
    terminates.
    """
    one = px._constant(1.0, trunc)
    exponents = [lm for terms in tables for lm in terms]
    xp = [one]
    for _ in range(max((l for l, _ in exponents), default=0)):
        xp.append(xp[-1] * px)
    yp = [one]
    for _ in range(max((m for _, m in exponents), default=0)):
        yp.append(yp[-1] * py)
    wp = []
    for w in tails:
        if w is None or w.is_zero():
            wp.append(None)
            continue
        if w.min_order < 1:
            raise StructureViolation("angle displacement must vanish at the origin")
        pows = [one]
        for _ in range(trunc // w.min_order):
            w_pow = pows[-1] * w
            if w_pow.is_zero():
                break
            pows.append(w_pow)
        wp.append(pows)
    return xp, yp, wp


def angle_taylor(poly, wp):
    """Expand poly(theta + W) in powers of the displacement W.

    ``poly`` is an ``FTPoly`` whose coefficients are evaluated at displaced
    angles; ``wp`` holds per angle axis the powers [1, W_a, W_a^2, ...] of
    ``_power_table`` (None for no displacement).
    """
    trunc = poly.trunc
    for axis, w_pows in enumerate(wp):
        if w_pows is None:
            continue
        acc = poly._empty(trunc)
        d_poly = poly
        for j, w_pow in enumerate(w_pows):
            if j > 0:
                d_poly = d_poly.diff_theta(axis)
            acc = acc + (d_poly * w_pow).scale(1.0 / math.factorial(j))
            if d_poly.is_zero():
                break
        poly = acc
    return poly


def eval_xy_terms(terms, powers, trunc):
    """Evaluate one {(l, m): series-or-float} term table at the
    ``_power_table`` of (px, py, W): the per-table body of ``substitute``."""
    xp, yp, wp = powers
    out = xp[0]._empty(trunc)
    for (l, m), s in sorted(terms.items()):
        coeff = angle_taylor(xp[0]._constant(s, trunc), wp)
        out = out + coeff * xp[l] * yp[m]
    return out
