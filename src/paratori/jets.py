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
``multiply`` is the one jet product: a batch of products of one class
and box, whose operands all get their spectra in stacked transforms first
and whose coefficient pairs all go through one ``fourier._products``
call; ``FTPoly.__mul__`` is its one-product case.  ``_sum_rows`` is the
one summation: every polynomial that adds coefficients per exponent (sums,
the rows of a product, the Taylor sums and term sums of a substitution,
the u-products) is built by it, and so are ``diff_theta`` and ``shift``.
``substitute`` is the one door to composition, for both classes: term
tables evaluated at two polynomials and angle displacements.  It builds
every power of the substituted polynomials and of the displacements once,
in one power table shared by all the tables substituted at that point (the
2 + d tables of one residual, the three tables of the expanded wall field),
and evaluates each table on it with ``eval_xy_terms``, one stacked product
per stage of the table: ``angle_taylor`` (the expansion of s(theta + W) in
the displacement W) makes one ``multiply`` call per displaced axis for all
the table's coefficients, then one call multiplies them all by their px^l
and one by their py^m.  Every series keeps the angle derivatives asked
of it (``FourierSeries.derivatives``), so the tables of a solve are
differentiated once, not at every substitution.

Pointwise evaluation of polynomials lives here too, in two stacks that
share their construction: ``JetStack`` (jets) and ``TableStack`` (term
tables).  A stack's coefficients are stacked and cut to their occupied
band once, when it is built; each evaluation is one
``fourier._eval_band`` call for all of them, then the powers of u, or of
x and y, from one power routine (``_powers``: a table filled by repeated
products, gathered per term), contracted with each polynomial's own
terms.  A polynomial's values do not depend on the others in its stack.

``UPoly`` is the scalar-coefficient special case used for normal forms (the
inner dynamics).  It is kept separate from ``FTPoly`` for its pointwise
evaluation (the orbit iterates, and the first Taylor coefficient of each
trajectory step), its plain coefficients (the higher ones) and its scalar
products (the powers of the inner polynomial in ``TFJet.compose_inner``).
"""

import itertools
import math

import numpy as np

from .errors import DimensionMismatch, StructureViolation
from .fourier import (FourierSeries, _cache_spectra, _eval_band, _products,
                      _to_band, on_box)

# the dtypes that UPoly evaluates on as they are
_FLOATS = (np.dtype(float), np.dtype(complex))


class UPoly:
    """Scalar polynomial sum_n a_n u^n with truncation order.

    A negative order is refused (StructureViolation).  An order above
    ``trunc`` is dropped, as is a zero coefficient: sums and
    ``pairs.residual_jets`` truncate a polynomial by building it again at
    the lower ``trunc``."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc):
        self.trunc = int(trunc)
        self.terms = {}
        for n, a in terms.items():
            n, a = int(n), float(a)
            if n < 0:
                raise StructureViolation("negative polynomial order %d" % n)
            if a != 0.0 and n <= self.trunc:
                self.terms[n] = a

    def coeff(self, n):
        return self.terms.get(n, 0.0)

    def orders(self):
        return sorted(self.terms)

    def __call__(self, u):
        """sum_n a_n u^n at the points ``u``: an array of u's shape, a float
        or a complex for a scalar.  A u that is not a float or complex
        array is converted to one first.

        The terms are added in their order to a sum that starts at zero, as
        ``0 + a_n u^n + ...``, but in place: each term is one power and one
        product (u itself for n = 1) and makes no other temporary."""
        u = np.asarray(u)
        scalar = not u.ndim
        if scalar or u.dtype not in _FLOATS:
            u = np.atleast_1d(u).astype(np.result_type(u, float), copy=False)
        out = None
        for n, a in self.terms.items():
            if n == 1:
                term = np.multiply(a, u)
            else:
                term = u**n
                np.multiply(a, term, out=term)
            if out is None:
                out = np.add(term, 0.0, out=term)  # the zero the sum starts at
            else:
                np.add(out, term, out=out)
        if out is None:
            out = np.zeros_like(u)
        if not scalar:
            return out
        return complex(out[0]) if np.iscomplexobj(out) else float(out[0])

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
    ``set_coefficient`` refuses an exponent of total degree above
    ``trunc``, and every other operation drops those terms.  A subclass fixes
    the exponent type with ``_ZERO`` (the exponent of the constant term) and
    three static methods: ``_key`` normalizes an exponent, ``_add`` adds two
    and ``_degree`` gives the total degree.  Series are immutable, so
    polynomials share them and a copy copies only the table.  The product
    of two polynomials is the one-product case of ``multiply``, which
    stacks the coefficient pairs of a batch of products; each coefficient
    rounds as the sum of single products ``a * b`` did, bit for bit.
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

    def set_coefficient(self, key, s):
        key, s = self._key(key), on_box(s, self.dim, self.cut)
        if self._degree(key) > self.trunc:
            raise StructureViolation("exponent %s above the truncation %d"
                                     % (key, self.trunc))
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def add_to_coefficient(self, key, s):
        key, s = self._key(key), on_box(s, self.dim, self.cut)
        if self._degree(key) <= self.trunc:
            _sum_rows(self, [(key, s)], self.terms.items())

    def _terms_upto(self, trunc):
        """The (exponent, series) terms of total degree at most ``trunc``."""
        return [(key, s) for key, s in self.terms.items()
                if self._degree(key) <= trunc]

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
        if (other.dim, other.cut) != (self.dim, self.cut):
            raise DimensionMismatch("sum of boxes (dim, cut) %s and %s" % (
                (self.dim, self.cut), (other.dim, other.cut)))
        out = self._empty(min(self.trunc, other.trunc))
        _sum_rows(out, other._terms_upto(out.trunc),
                  self._terms_upto(out.trunc))
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
        """Truncated product with a polynomial of the same class and box
        (the one-pair case of ``multiply``) or with a number."""
        if not isinstance(other, FTPoly):
            return self.scale(other)
        return multiply([(self, other)])[0]

    __rmul__ = __mul__

    # ----- angle calculus -------------------------------------------------

    def diff_theta(self, axis):
        out = self._empty()
        _sum_rows(out, ((key, s.diff(axis)) for key, s in self.terms.items()))
        return out

    def shift(self, delta):
        out = self._empty()
        _sum_rows(out, ((key, s.shift(delta)) for key, s in self.terms.items()))
        return out


def multiply(pairs):
    """``[a * b for a, b in pairs]``, truncated products of ``FTPoly``s of
    one class and box (DimensionMismatch otherwise).

    Every coefficient series of the batch first gets its forward spectrum,
    in stacked transforms.  A product of one coefficient pair is that
    ``a * b``; the pairs of the others, by a's terms and then b's, go
    through one ``fourier._products`` call, whose rows stream stack by
    stack into ``_sum_rows``, so every product is bit for bit the sum of
    its ``a * b`` terms and no batch holds all its rows at once.
    """
    pairs = list(pairs)
    boxes = {(p.dim, p.cut) for pair in pairs for p in pair}
    if len(boxes) > 1:
        raise DimensionMismatch("products on boxes (dim, cut) %s"
                                % sorted(boxes))
    outs, singles, stacked = [], [], []
    # the coefficient pairs of the stacked products
    lefts, rights = [], []
    for a, b in pairs:
        trunc = min(a.trunc, b.trunc)
        out = a._empty(trunc)
        outs.append(out)
        degree, add = a._degree, a._add
        right = [(degree(m), m, y) for m, y in b.terms.items()]
        triples = [(add(n, m), x, y) for n, x in a.terms.items()
                   for dm, m, y in right if degree(n) + dm <= trunc]
        if len(triples) == 1:
            singles.append((out, triples[0]))
        elif triples:
            keys, xs, ys = zip(*triples)
            stacked.append((out, keys))
            lefts.extend(xs)
            rights.extend(ys)
    operands = lefts + rights + [s for _, t in singles for s in t[1:]]
    if not operands:
        return outs
    # the box of the series: a dim-0 polynomial keeps its own cut, but its
    # series sit on the one-mode box
    dim, cut = operands[0].dim, operands[0].cut
    if dim and cut:
        _cache_spectra(operands, dim, cut)
    for out, (key, x, y) in singles:
        _sum_rows(out, [(key, x * y)])
    rows = itertools.chain.from_iterable(_products(lefts, rights, dim, cut))
    for out, keys in stacked:
        _sum_rows(out, zip(keys, rows))
    return outs


def _sum_rows(out, rows, start=()):
    """Set ``out.terms`` to the sums per exponent of the (exponent, series)
    terms ``start`` and the (exponent, series or array) ``rows``, none above
    ``out.trunc``, added in their order.  A partial sum that is exactly zero
    is dropped, so the next row starts its exponent again, at the end of the
    table and with its signed zeros.  A sum of one series is that series.
    An array is summed into in place: one that owns its data is the
    caller's to give, a view (a row of a stack) is copied first."""
    sums = dict(start)
    for key, row in rows:
        cur = sums.get(key)
        if cur is None:
            if type(row) is FourierSeries:
                sums[key], cur = row, row.coeffs
            else:
                cur = sums[key] = (np.asarray(row) if row.base is None
                                   else row.copy())
        else:
            if type(cur) is FourierSeries:
                cur = sums[key] = np.array(cur.coeffs)
            cur += row.coeffs if type(row) is FourierSeries else row
        if not np.count_nonzero(cur):
            del sums[key]
    out.terms = {key: s if type(s) is FourierSeries
                 else FourierSeries(s, symmetrize=False)
                 for key, s in sums.items()}


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
        _sum_rows(out, ((n + m, a.coeffs * b) for n, a in self.terms.items()
                        for m, b in p.terms.items() if n + m <= trunc))
        return out

    # ----- calculus and composition ----------------------------------------

    def derivative_u(self):
        out = TFJet(self.dim, self.cut, self.trunc)
        _sum_rows(out, ((n - 1, s * n) for n, s in self.terms.items() if n))
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
        _sum_rows(out, ((m, s.coeffs * a) for n, s in src.terms.items()
                        for m, a in powers[n].terms.items()))
        return out


# ----- pointwise evaluation --------------------------------------------------


class _Stack:
    """``FTPoly``s on one mode box, evaluated together.

    Their coefficient boxes are stacked on one leading axis in the order of
    the polys and cut to their occupied band (``fourier._to_band``) once,
    when the stack is built, so each evaluation is one
    ``fourier._eval_band`` call for all of them.  Each poly's terms are the
    contiguous slice of the stack it is given, and ``exponents`` holds one
    row per exponent component (n for jets; l and m for term tables), one
    column per stacked term.
    """

    def __init__(self, polys):
        dim, cut = polys[0].dim, polys[0].cut
        keys = [key for p in polys for key in p.terms]
        coeffs = [s.coeffs for p in polys for s in p.terms.values()]
        self.coeffs = _to_band(np.reshape(coeffs, (len(keys),)
                                          + (2 * cut + 1,) * dim))
        width = np.size(polys[0]._ZERO)   # 1 for jets, 2 for term tables
        self.exponents = np.array(keys, dtype=int).reshape(len(keys), width).T
        ends = np.cumsum([len(p.terms) for p in polys])
        self.slices = [slice(e - len(p.terms), e) for e, p in zip(ends, polys)]


def _powers(x, exponents):
    """x^e for each of the nonnegative integer ``exponents``, on a new last
    axis: a table of x^0 .. x^max, each power filled in place by one
    product x^e = x^(e-1) x, then gathered per term.  An integer x is taken
    as a float."""
    x = np.asarray(x)
    table = np.empty((exponents.max(initial=1) + 1,) + x.shape,
                     dtype=np.result_type(x, float))
    table[0], table[1] = 1.0, x
    for e in range(2, len(table)):
        np.multiply(table[e - 1], x, out=table[e, ...])
    return table.transpose((*range(1, table.ndim), 0))[..., exponents]


class JetStack(_Stack):
    """Jets on one mode box, evaluated together: each jet is contracted
    with the u-powers of its own slice alone, one batched matrix product
    per jet."""

    def eval_grid(self, u_values, theta_points=None):
        """Values of every jet on the product of a u-array and a batch of
        angle points: shape (jets, len(u)) + batch_shape, complex when u or
        the angles are.

        A u of shape (steps, rows) pairs each step's rows with that step's
        own angle batch, angles of shape (steps,) + batch_shape + (dim,),
        and gives shape (jets, steps, rows) + batch_shape.
        """
        u = np.atleast_1d(np.asarray(u_values))
        lead = u.ndim - 1
        vals = _eval_band(self.coeffs, theta_points)
        batch = vals.shape[1 + lead:]
        # (steps.., terms, points): the stacked axis second last
        vals = vals.reshape(vals.shape[:1 + lead] + (math.prod(batch),)
                            ).transpose((*range(1, 1 + lead), 0, 1 + lead))
        u_pow = _powers(u, self.exponents[0])
        out = np.empty((len(self.slices),) + u.shape + vals.shape[-1:],
                       dtype=np.result_type(u_pow, vals))
        for jet, terms in zip(out, self.slices):   # a zero jet sums no term
            np.matmul(u_pow[..., terms], vals[..., terms, :], out=jet)
        return out.reshape(out.shape[:1 + u.ndim] + batch)


class TableStack(_Stack):
    """Term tables (``mapdata.XYPoly``) on one mode box, evaluated
    together: each table is the sum of its own terms times their x^l y^m."""

    def eval(self, x, y, ang=None):
        """Every table's values at (x, y, ang), real or complex x, y and
        angles (an array or a ``fourier.AngleBatch``): a list of arrays of
        the broadcast shape of x, y and the angle batch, one per table."""
        vals = _eval_band(self.coeffs, ang)
        vals = vals.transpose((*range(1, vals.ndim), 0))
        l, m = self.exponents
        terms = vals * _powers(x, l) * _powers(y, m)
        return [np.sum(terms[..., s], axis=-1) for s in self.slices]


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


def angle_taylor(polys, wp):
    """Expand every poly of one term table at displaced angles,
    p(theta + W), in powers of the displacement W.

    ``polys`` are ``FTPoly``s of one class and box whose coefficients are
    evaluated at displaced angles; ``wp`` holds per angle axis the powers
    [1, W_a, W_a^2, ...] of ``_power_table`` (None for no displacement).
    Per displaced axis one ``multiply`` call takes the pairs
    (d^j p / d theta_a^j, W_a^j) of every poly, j from 0 up to the first
    zero derivative or the last power, and ``_taylor_sum`` adds each
    poly's products.  Every poly takes its derivatives term by term from
    ``FourierSeries.derivatives``, which keeps them with the series, so a
    table coefficient (the tables of a solve do not change) is
    differentiated once per solve, however many substitutions expand it.
    """
    for axis, w_pows in enumerate(wp):
        if w_pows is None:
            continue
        pairs, counts = [], []
        for p in polys:
            derivs = _angle_derivatives(p, axis, len(w_pows))
            pairs.extend(zip(derivs, w_pows))
            counts.append(len(derivs))
        prods = iter(multiply(pairs))
        polys = [_taylor_sum([next(prods) for _ in range(k)]) for k in counts]
    return polys


def _angle_derivatives(p, axis, count):
    """[p, dp/d theta_axis, ...]: ``count`` polys, or fewer ending at the
    first zero one, each term the derivative its series keeps
    (``FourierSeries.derivatives``)."""
    chains = [(k, s.derivatives(axis, count)) for k, s in p.terms.items()]
    derivs = [p]
    for j in range(1, count):
        if derivs[-1].is_zero():
            break
        derivs.append(p._empty())
        derivs[-1].terms = {k: chain[j] for k, chain in chains
                            if j < len(chain) and not chain[j].is_zero()}
    return derivs


def _taylor_sum(prods):
    """sum_j prods[j] / j!, truncated at the lowest truncation of the
    prods: the scaled coefficient arrays, j ascending, summed by
    ``_sum_rows`` as adding the scaled polynomials one by one did."""
    out = prods[0]._empty(min(q.trunc for q in prods))
    scales = [1.0 / math.factorial(j) for j in range(len(prods))]
    _sum_rows(out, ((key, s.coeffs * c) for q, c in zip(prods, scales)
                    for key, s in q._terms_upto(out.trunc)))
    return out


def eval_xy_terms(terms, powers, trunc):
    """Evaluate one {(l, m): series-or-float} term table at the
    ``_power_table`` of (px, py, W): the per-table body of ``substitute``.

    The table is one batch at every stage: one ``angle_taylor`` call for
    all its coefficients, then one ``multiply`` call for every
    coefficient times its px^l and one for those times py^m; the terms
    are then summed in sorted order by one ``_sum_rows``, as adding them
    one by one did."""
    xp, yp, wp = powers
    one = xp[0]
    lms, series = zip(*sorted(terms.items())) if terms else ((), ())
    coeffs = angle_taylor([one._constant(s, trunc) for s in series], wp)
    coeffs = multiply([(c, xp[l]) for c, (l, _) in zip(coeffs, lms)])
    coeffs = multiply([(c, yp[m]) for c, (_, m) in zip(coeffs, lms)])
    out = one._empty(min([trunc] + [c.trunc for c in coeffs]))
    _sum_rows(out, (term for c in coeffs for term in c._terms_upto(out.trunc)))
    return out
