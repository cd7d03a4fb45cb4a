"""Truncated multivariate Fourier series on a torus.

Coefficients live on the centered integer box ``|k|_inf <= cut`` and are
stored densely as a complex array of shape ``(2*cut+1,)**dim`` with mode k at
index ``k + cut`` along each axis.  All series represent real-valued
functions, so coefficients satisfy ``c[-k] == conj(c[k])``; arithmetic
re-imposes this symmetry to stop round-off drift.

``dim == 0`` is allowed and means "a constant": the box ``(2*cut+1,)**0``
is the empty shape, so the coefficient array is a zero-dimensional complex
array holding mode ``()``, and every method below treats it as the box it
is.  This keeps autonomous problems (no angular variables at all) on the
same code path as quasiperiodic ones; only ``diophantine_margin`` (whose
punctured box is empty) singles it out.

A product of two series is their convolution: both boxes zero-padded to
n per axis, n the smallest 11-smooth length >= 4*cut+1, a forward FFT of
each, one inverse FFT of the product of the spectra, then the centre
``|k| <= cut`` of the result, symmetrized.  ``_products`` is the one
product entry: it takes many pairs at once, the forward spectra still
missing in stacked FFTs (each series keeps its spectrum from its first
product on), and yields the products stack by stack, at most
``STACK_ENTRIES`` complex entries per transform.  numpy runs the same FFT
plan row by row, so each row rounds as a single product did.  It trusts
its boxes: ``FourierSeries.__mul__`` (the one-row case) and
``jets.multiply`` (a batch of jet products in one call) check them.  That
batch gives every operand its spectrum before its first product, so its
one-pair products ``a * b`` find their spectra cached too.  A series is
immutable from construction: its coefficients are read-only from the
moment it is built, so a cached spectrum can never go stale and a series
can be shared instead of copied.  For the same reason a series keeps the
chain of its angle derivatives once asked for it
(``FourierSeries.derivatives``, in ``jets.angle_taylor``).

Construction checks its array every time: it must be cubic with an odd
side (DimensionMismatch otherwise), it is converted to complex unless it
already is a complex ndarray, symmetrized unless ``symmetrize=False`` says
the caller's array already is, and made read-only.

The transforms are numpy's one-axis FFTs, taken along the box axes in
order.  The forward transform is unscaled (``_cache_spectra``).  The
inverse (``_inverse_centre``) is unscaled too, except that the 1/N of the
whole box, N = n**dim, multiplies each real and imaginary part once,
right after the pass along the first box axis.  That is where SciPy's
n-dimensional inverse FFT, which runs the same pocketfft as numpy >= 2.0,
applies it, so every product rounds as it did when the products were
SciPy's FFT convolution.  The seed-0 reference pairs were made that way,
and until the pair comparison has a rounding-aware gate any change in
rounding moves them far past its tolerance.  Importing this module loads
numpy only.

Pointwise values come from ``eval_stack``: a stack of coefficient boxes is
cut to its occupied band, the smallest centred box holding every nonzero
coefficient, and evaluated at a batch of angles against one mode basis per
axis, built from powers of e^{2 pi i theta} up to that band: one
exponential per point, real or complexified (the negative modes are the
conjugates of its powers, or their reciprocals), none at band 0.
``FourierSeries.eval`` is its one-row case; the stacks of polynomials in
``jets`` (``JetStack``, ``TableStack``), evaluated many times, are cut to
their band once, when they are built, and call ``_eval_band`` alone; no
other module reaches these two.  A row's values are the same in every
stack it is evaluated in.  A term table whose series carry a few low modes
on a large box is evaluated on those modes alone.  An ``AngleBatch`` keeps
the bases of its angles, so every stack evaluated on one batch shares
them; a lower band takes the central rows of a basis, bit for bit its own
basis.
"""

import functools
import math

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NonZeroAverage,
    SmallDivisorUnderflow,
)

TWO_PI_I = 2j * np.pi
_COMPLEX = np.dtype(complex)
# the slice that reverses one axis: a box indexed by it on every axis is
# np.flip of the box, without np.flip's axis bookkeeping
_REVERSED = slice(None, None, -1)

# the default floor of the divisors a cohomological solve divides by
SD_FLOOR = 1e-12


@functools.lru_cache(maxsize=None)
def _fast_len(m):
    """The smallest 11-smooth integer >= m: the FFT length SciPy's
    ``next_fast_len(m, False)`` picks for complex data."""
    n = m
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _inverse_centre(spec, cut):
    """Entries cut .. 3*cut on every box axis of the inverse FFTs of a
    stack of spectra, shape (m,) + (n,)*dim: the modes |k| <= cut of m
    products.  An unscaled pass along the first box axis, the 1/N scale
    (N = n**dim, one row's size) on each real and imaginary part, then
    unscaled passes along the other box axes.  The first pass overwrites
    ``spec``; each pass is cut to the kept entries of its axis, so the
    later passes transform only those rows.  The scale sits where SciPy's
    inverse applies it, so every kept entry of a row is SciPy's ``ifftn``
    of that row bit for bit (the module docstring says why that
    matters)."""
    keep = slice(cut, 3 * cut + 1)
    out = np.fft.ifft(spec, axis=1, norm="forward", out=spec)[:, keep]
    parts = out.view(np.float64)
    parts *= 1.0 / math.prod(spec.shape[1:])
    for k in range(2, spec.ndim):
        out = np.fft.ifft(out, axis=k, norm="forward")
        out = out[(slice(None),) * k + (keep,)]
    return out


# complex entries of one stacked transform at most: a jet product with more
# pairs runs in several stacks.  2^13 (128 KiB a stack) keeps the transient
# stacks of a batch below the resident peak at no cost in time; 2^12 split
# the 1,089-entry rows of 2-D boxes too finely and was slower
STACK_ENTRIES = 1 << 13


def _stack_rows(dim, cut):
    """Rows of one stacked transform on the box (dim, cut)."""
    return max(1, STACK_ENTRIES // _fast_len(4 * cut + 1) ** dim)


def _products(lefts, rights, dim, cut):
    """The coefficient rows of ``[a * b for a, b in zip(lefts, rights)]``
    for two equally long lists of series trusted to sit on the box (dim,
    cut), yielded in stacks of at most ``_stack_rows`` rows, every row
    symmetrized and bit for bit what its pair gives alone.  Missing spectra
    are taken first, stacked.  A box of one mode multiplies elementwise
    (SciPy's FFT convolution skips axes of length 1 too)."""
    transform = dim and cut
    if transform:
        _cache_spectra(lefts + rights, dim, cut)
    step = _stack_rows(dim, cut)
    for i in range(0, len(lefts), step):
        if transform:
            out = np.array([a._spec for a in lefts[i:i + step]])
            out *= np.array([b._spec for b in rights[i:i + step]])
            out = _inverse_centre(out, cut)
        else:
            out = (np.array([a.coeffs for a in lefts[i:i + step]])
                   * np.array([b.coeffs for b in rights[i:i + step]]))
        # 0.5 * (out + conj(flip(out))), as FourierSeries symmetrizes, with
        # one temporary
        sym = np.conj(out[(slice(None),) + (_REVERSED,) * dim])
        sym += out
        sym *= 0.5
        # the spectra stack (``out`` may be a view of it) is not held while
        # the rows are read: it would raise the resident peak by one stack
        del out
        yield sym


def _cache_spectra(series, dim, cut):
    """Give every series of the box (dim, cut) its forward spectrum, the
    FFT of its coefficients zero-padded to n per axis, n the smallest
    11-smooth length >= 4*cut+1.  The series without one are stacked, at
    most ``STACK_ENTRIES`` complex entries at a time, and transformed by
    ``np.fft.fft(., n, axis=k)`` for k = 1 .. dim in turn, unscaled.
    Taken in this order each row rounds as SciPy's n-dimensional FFT of
    its padded box does (the module docstring says why that matters).
    Each series keeps a copy of its row, not a view that would keep the
    whole stack alive."""
    todo = list({id(s): s for s in series if s._spec is None}.values())
    n, rows = _fast_len(4 * cut + 1), _stack_rows(dim, cut)
    for i in range(0, len(todo), rows):
        chunk = todo[i:i + rows]
        spec = np.array([s.coeffs for s in chunk])
        for k in range(1, dim + 1):
            spec = np.fft.fft(spec, n, axis=k)
        for s, row in zip(chunk, spec):
            s._spec = row.copy()


def angle_grid(dim, samples):
    """The product grid of the 1-D angle ``samples`` on every axis: shape
    (n,)*dim + (dim,), the angle vector last.  At dim 0 it is the one empty
    point, shape (0,)."""
    samples = np.asarray(samples, dtype=float)
    grid = samples[np.indices((samples.size,) * dim)]
    return np.ascontiguousarray(np.moveaxis(grid, 0, -1))


def _mode_dot(cut, dim, vec):
    """Array over the mode box holding k . vec."""
    out = np.zeros((2 * cut + 1,) * dim)
    for a in range(dim):
        shape = [1] * dim
        shape[a] = 2 * cut + 1
        out = out + (np.arange(-cut, cut + 1) * vec[a]).reshape(shape)
    return out


@functools.lru_cache(maxsize=None)
def _diff_factor(cut, dim, axis):
    """2 pi i k_axis over the mode box (read-only): the multiplier of the
    derivative along one angle axis."""
    vec = np.zeros(dim)
    vec[axis] = 1.0
    factor = TWO_PI_I * _mode_dot(cut, dim, vec)
    factor.flags.writeable = False
    return factor


class FourierSeries:
    """Dense real-symmetric Fourier polynomial on T^dim.

    Immutable from construction: ``__init__`` makes ``coeffs`` read-only
    (with ``symmetrize=False``, the caller's array itself), so constructors
    fill a fresh array first, and every holder of a series may share it.
    """

    __slots__ = ("dim", "cut", "coeffs", "_spec", "_derivs")

    def __init__(self, coeffs, symmetrize=True):
        # a complex ndarray is taken as it is (np.asarray would return it
        # unchanged); anything else, a numpy scalar included, is converted
        if type(coeffs) is not np.ndarray or coeffs.dtype is not _COMPLEX:
            coeffs = np.asarray(coeffs, dtype=complex)
        shape = coeffs.shape
        n = shape[0] if shape else 1
        if n % 2 != 1 or shape.count(n) != len(shape):
            raise DimensionMismatch("coefficient box %s is not cubic with "
                                    "an odd side" % (shape,))
        if symmetrize:
            # 0.5 * (coeffs + conj(flip(coeffs))) with one temporary; ufuncs
            # turn a 0-d array into a scalar, so keep an array
            sym = np.conj(coeffs[(_REVERSED,) * len(shape)])
            sym += coeffs
            sym *= 0.5
            coeffs = np.asarray(sym)
        coeffs.setflags(write=False)
        self.dim = len(shape)
        self.cut = n // 2
        self.coeffs = coeffs
        self._spec = self._derivs = None

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim, cut):
        return cls(np.zeros((2 * cut + 1,) * dim, dtype=complex), symmetrize=False)

    @classmethod
    def constant(cls, value, dim, cut):
        c = np.zeros((2 * cut + 1,) * dim, dtype=complex)
        c[(cut,) * dim] = float(value)
        return cls(c, symmetrize=False)

    @classmethod
    def from_modes(cls, modes, dim, cut):
        """Build from a {mode tuple: complex coeff} dict.

        The mirror coefficient of every listed nonzero mode is filled in
        automatically so the result is real.
        """
        coeffs = np.zeros((2 * cut + 1,) * dim, dtype=complex)
        for k, c in modes.items():
            k = tuple(int(x) for x in (k if isinstance(k, tuple) else (k,)))
            if len(k) != dim:
                raise DimensionMismatch("mode %s has wrong length" % (k,))
            if any(abs(x) > cut for x in k):
                raise DimensionMismatch("mode %s outside |k| <= %d" % (k, cut))
            idx = tuple(x + cut for x in k)
            coeffs[idx] += complex(c)
            if any(x != 0 for x in k):
                midx = tuple(-x + cut for x in k)
                coeffs[midx] += np.conj(complex(c))
        # the zero mode must already be real; symmetrize cheaply anyway
        return cls(coeffs)

    # ----- basic queries ------------------------------------------------

    def average(self):
        c0 = self.coeffs[(self.cut,) * self.dim]
        return float(np.real(c0))

    def oscillatory(self):
        c = self.coeffs.copy()
        c[(self.cut,) * self.dim] = 0.0
        return FourierSeries(c, symmetrize=False)

    def coeff_norm(self):
        return float(np.sum(np.abs(self.coeffs)))

    def is_zero(self):
        return not np.count_nonzero(self.coeffs)

    # ----- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim or self.cut != other.cut:
            raise DimensionMismatch(
                "series boxes differ: dim %d cut %d vs dim %d cut %d"
                % (self.dim, self.cut, other.dim, other.cut)
            )

    def __add__(self, other):
        if isinstance(other, FourierSeries):
            self._check_compatible(other)
            return FourierSeries(self.coeffs + other.coeffs, symmetrize=False)
        c = self.coeffs.copy()
        c[(self.cut,) * self.dim] += float(other)
        return FourierSeries(c, symmetrize=False)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, FourierSeries) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __neg__(self):
        return FourierSeries(-self.coeffs, symmetrize=False)

    def __mul__(self, other):
        if not isinstance(other, FourierSeries):
            return FourierSeries(self.coeffs * float(other), symmetrize=False)
        self._check_compatible(other)
        (row,) = next(_products([self], [other], self.dim, self.cut))
        return FourierSeries(row, symmetrize=False)

    __rmul__ = __mul__

    def shift(self, delta):
        """Compose with the rigid rotation theta -> theta + delta."""
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (self.dim,):
            raise DimensionMismatch("shift %s on a %d-torus" % (delta, self.dim))
        phase = np.exp(TWO_PI_I * _mode_dot(self.cut, self.dim, delta))
        return FourierSeries(self.coeffs * phase)

    def diff(self, axis):
        """Partial derivative along one angular axis."""
        if not 0 <= axis < self.dim:
            raise DimensionMismatch("axis %d on a %d-torus" % (axis, self.dim))
        return FourierSeries(self.coeffs * _diff_factor(self.cut, self.dim, axis))

    def derivatives(self, axis, count):
        """[self, d self, d^2 self, ...] along one angle axis: ``count``
        series, or fewer when one is zero (it is then the last).  The chain
        is kept with the series and extended on demand, so each derivative,
        and the spectrum its first product caches on it, is taken once in
        the life of the series.  The kept chain starts at the first
        derivative: holding the series itself would make a reference cycle
        that only the garbage collector frees."""
        if self._derivs is None:
            self._derivs = {}
        chain = self._derivs.setdefault(axis, [])
        last = chain[-1] if chain else self
        while len(chain) + 1 < count and not last.is_zero():
            last = last.diff(axis)
            chain.append(last)
        return [self] + chain[:max(0, count - 1)]

    # ----- evaluation ---------------------------------------------------

    def eval(self, theta=None):
        """Evaluate at angles: the one-row case of ``eval_stack``.

        ``theta`` has shape (dim,) for a single point or (..., dim) for a
        batch (None is the one point of dim 0), or is an ``AngleBatch``;
        returns a real float or a real array of the batch shape.
        Complexified angles are accepted (analytic continuation off the
        real torus); the result is then complex.
        """
        vals = eval_stack(self.coeffs[None], theta)[0]
        return vals if vals.ndim else vals.item()

    # ----- interchange --------------------------------------------------

    def to_payload(self):
        """Sparse half-spectrum payload: mode 0 plus lexicographically
        positive modes with a nonzero coefficient; the mirror half is
        implied by realness.  C order is lexicographic in k and puts -k at
        flat index ``size - 1 - i``, so the half is the flat indices from
        ``size // 2`` on, already in order."""
        flat = self.coeffs.ravel()
        nonzero = np.flatnonzero(flat)
        half = nonzero >= flat.size // 2
        values = flat[nonzero[half]]
        modes = np.argwhere(self.coeffs)[half] - self.cut
        entries = [[k, re, im] for k, re, im in zip(
            modes.tolist(), values.real.tolist(), values.imag.tolist())]
        return {"dim": self.dim, "cut": self.cut, "modes": entries}

    @classmethod
    def from_payload(cls, payload):
        """Inverse of ``to_payload``, placed on the box with numpy as
        ``from_modes`` places one mode at a time: each coefficient and the
        conjugate at its mirror, then symmetrized.  Every mode must be
        ``dim`` integers on the box, listed once and without its mirror
        (DimensionMismatch otherwise)."""
        dim, cut = int(payload["dim"]), int(payload["cut"])
        entries = [(k, re, im) for k, re, im in payload["modes"]]
        try:
            modes = np.array([k for k, _, _ in entries] or np.empty((0, dim)),
                             dtype=float)
        except ValueError as err:
            raise DimensionMismatch("modes are not lists of %d indices: %s"
                                    % (dim, err))
        if modes.shape != (len(entries), dim):
            raise DimensionMismatch("modes of shape %s on a %d-torus"
                                    % (modes.shape, dim))

        def refuse(bad, why):
            if bad.any():
                raise DimensionMismatch("mode %s %s"
                                        % (entries[np.argmax(bad)][0], why))

        refuse((modes != np.round(modes)).any(axis=1), "is not integer")
        refuse((np.abs(modes) > cut).any(axis=1), "is outside |k| <= %d" % cut)
        size = (2 * cut + 1) ** dim
        flat = (modes.astype(int) + cut) @ (2 * cut + 1) ** np.arange(dim - 1, -1, -1)
        # C order puts the mirror of flat index i at size - 1 - i
        mirror = size - 1 - flat
        listed = np.bincount(flat, minlength=size)
        moving = flat != size // 2
        refuse(listed[flat] > 1, "is listed twice")
        refuse(moving & (listed[mirror] > 0), "is listed with its mirror")
        values = np.empty(len(entries), dtype=complex)
        values.real = [re for _, re, _ in entries]
        values.imag = [im for _, _, im in entries]
        coeffs = np.zeros(size, dtype=complex)
        coeffs[flat] += values
        coeffs[mirror[moving]] += np.conj(values[moving])
        return cls(coeffs.reshape((2 * cut + 1,) * dim))


def _axis_basis(t, cut):
    """e^{2 pi i k t} for k = -cut..cut at every point of ``t``, shape
    (2*cut+1, points).  One exponential per point (none at cut 0); the
    higher powers are products of lower ones, pass by pass power n + j =
    power j * power n for j = 1..n, so the table doubles each pass and
    every power takes the same products whatever the cut.  The negative
    modes are the conjugates of the positive ones for real t and their
    reciprocals for complex t, each row from its own positive row, so the
    basis of a lower cut is bit for bit the central rows of this one."""
    out = np.empty((2 * cut + 1, t.size), dtype=complex)
    out[cut] = 1.0
    powers = out[cut:]
    if cut:
        powers[1] = np.exp(TWO_PI_I * t)
    n = 1
    while n < cut:
        m = min(n, cut - n)
        np.multiply(powers[1:m + 1], powers[n], out=powers[n + 1:n + m + 1])
        n += m
    negate = np.reciprocal if np.iscomplexobj(t) else np.conj
    negate(out[:cut:-1], out=out[:cut])
    return out


class AngleBatch:
    """A batch of angles on T^dim, shape (..., dim) (None is the one point
    of dim 0), whose mode bases every stack evaluated on it shares.

    The basis of an axis is built on first use (``_axis_basis``) at the
    band asked for and kept; a stack of a lower band takes its central
    rows, which are that band's basis bit for bit, and a wider band
    rebuilds it at that band.  Complexified angles are accepted; the values
    on them are complex.
    """

    __slots__ = ("dim", "complex", "batch", "points", "_bases")

    def __init__(self, theta, dim):
        self.dim = dim
        self.complex = np.iscomplexobj(theta)
        theta = np.asarray(() if theta is None else theta,
                           dtype=complex if self.complex else float)
        if theta.shape[-1:] != (dim,):
            raise DimensionMismatch("angles of shape %s on a %d-torus"
                                    % (theta.shape, dim))
        self.batch = theta.shape[:-1]
        self.points = theta.reshape(math.prod(self.batch), dim)
        self._bases = [None] * dim

    def basis(self, axis, band):
        """e^{2 pi i k theta_axis} for k = -band..band on every point of
        the batch, shape (2*band+1, points)."""
        built = self._bases[axis]
        if built is None or len(built) < 2 * band + 1:
            built = self._bases[axis] = _axis_basis(self.points[:, axis],
                                                    band)
            built.flags.writeable = False  # every stack reads views of it
        top = len(built) // 2
        return built[top - band:top + band + 1]


def eval_stack(coeffs, theta=None):
    """Values of a stack of series at a batch of angles.

    ``coeffs`` holds m coefficient boxes, shape (m,) + (2*cut+1,)*dim;
    ``theta`` has shape (..., dim), None being the one point of dim 0, or
    is an ``AngleBatch`` of dim axes.  Returns shape (m,) + batch, real for
    real angles and complex for complexified ones.  The stack is first cut
    to its occupied band (``_to_band``), then evaluated on it
    (``_eval_band``); a stack that is evaluated many times
    (``jets.JetStack``, ``jets.TableStack``) is cut once, when it is
    built, and calls ``_eval_band`` alone.
    """
    return _eval_band(_to_band(np.asarray(coeffs, dtype=complex)), theta)


def _to_band(coeffs):
    """A complex stack of m coefficient boxes cut to its occupied band, the
    smallest centred box |k|_inf <= K that holds every nonzero coefficient
    (only exact zeros are dropped): a view of shape (m,) + (2K+1,)*dim."""
    dim = coeffs.ndim - 1
    cut = coeffs.shape[-1] // 2 if dim else 0
    band = int(np.abs(np.argwhere(coeffs)[:, 1:] - cut).max(initial=0))
    return coeffs[(slice(None),) + (slice(cut - band, cut + band + 1),) * dim]


def _eval_band(vals, theta):
    """``eval_stack`` of a stack already cut to its band: its box is the
    band K.  Each axis takes the batch's mode basis up to K, built once per
    batch however many stacks are evaluated on it.  Every point shares the
    first axis's basis, so that axis is one matrix product, (m, ..., 2K+1)
    @ (2K+1, points); each later axis is contracted point by point against
    its own basis.  A dim-0 stack is its constants on every point.

    A row's values do not depend on the other rows of its stack: numpy
    hands a product of one row to BLAS's matrix-vector kernel, which rounds
    differently from the matrix kernel, so a stack of one row on one axis
    is evaluated with a zero row under it."""
    m, dim = len(vals), vals.ndim - 1
    angles = theta if isinstance(theta, AngleBatch) else AngleBatch(theta, dim)
    if angles.dim != dim:
        raise DimensionMismatch("a batch of angles on a %d-torus for series "
                                "on a %d-torus" % (angles.dim, dim))
    band = vals.shape[-1] // 2 if dim else 0
    if dim == 1 and m == 1:
        vals = np.concatenate([vals, np.zeros_like(vals)])
    if dim:
        # the first box axis last for the product, then the points in its
        # place, by the transposes np.moveaxis makes, without its overhead
        vals = (vals.transpose((0, *range(2, dim + 1), 1))
                @ angles.basis(0, band)).transpose((0, dim, *range(1, dim)))
    else:
        vals = vals[:, None]
    for a in range(1, dim):
        vals = np.einsum("ib,mbi...->mb...", angles.basis(a, band), vals)
    vals = np.broadcast_to(vals[:m], (m, len(angles.points)))
    return np.array((vals if angles.complex else vals.real).reshape(
        (m,) + angles.batch))


def on_box(s, dim, cut, what="coefficient"):
    """``s`` on the mode box |k|_inf <= cut of T^dim: a number becomes that
    constant series, a series must already have the box's shape."""
    if not isinstance(s, FourierSeries):
        return FourierSeries.constant(float(s), dim, cut)
    if s.coeffs.shape != (2 * cut + 1,) * dim:
        raise DimensionMismatch("%s box %s does not match dim %d cut %d"
                                % (what, s.coeffs.shape, dim, cut))
    return s


# ----- cohomological equations -------------------------------------------


def _check_zero_average(h):
    """NonZeroAverage unless |mean(h)| <= 1e-10 max(1, coefficient norm)."""
    tol = 1e-10 * max(1.0, h.coeff_norm())
    if abs(h.average()) > tol:
        raise NonZeroAverage(
            "right-hand side has average %.3e (tolerance %.3e)"
            % (h.average(), tol)
        )


def _divisor(kind, freqs, cut):
    """(divisor, magnitude) over the mode box of ``freqs``: the map divisor
    e^{2 pi i k.freqs} - 1 and its modulus, or the flow divisor
    2 pi i k.freqs and |k.freqs|."""
    kf = _mode_dot(cut, freqs.size, freqs)
    if kind == "map":
        divisor = np.exp(TWO_PI_I * kf) - 1.0
        return divisor, np.abs(divisor)
    if kind == "flow":
        return TWO_PI_I * kf, np.abs(kf)
    raise ConfigError("divisor kind must be 'map' or 'flow', got %r" % (kind,))


def _guarded_divide(h, divisor, mag, floor):
    """h.coeffs / divisor with the zero mode forced to 0 and a floor check
    on the divisor magnitude ``mag``, applied only where the numerator is
    actually nonzero."""
    need = np.asarray(np.abs(h.coeffs) > 0.0)
    need[(h.cut,) * h.dim] = False
    bad = need & (mag < floor)
    if np.any(bad):
        idx = np.unravel_index(np.argmin(np.where(bad, mag, np.inf)), mag.shape)
        mode = tuple(int(i) - h.cut for i in idx)
        raise SmallDivisorUnderflow(mode, float(mag[idx]), floor)
    safe = np.where(mag < floor, 1.0, divisor)
    out = np.where(need, h.coeffs / safe, 0.0)
    return FourierSeries(np.asarray(out, dtype=complex))


def solve_sd_map(h, omega, floor=SD_FLOOR):
    """Solve phi(theta + omega) - phi(theta) = h(theta) with zero average.

    Coefficients: phi_k = h_k / (e^{2 pi i k.omega} - 1) for k != 0 and
    phi_0 = 0.  Raises when the mean of h is not (numerically) zero or a
    needed divisor falls below ``floor``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if h.dim != omega.size:
        raise DimensionMismatch("omega length %d vs series dim %d" % (omega.size, h.dim))
    _check_zero_average(h)
    return _guarded_divide(h, *_divisor("map", omega, h.cut), floor)


def solve_sd_flow(h, freqs, floor=SD_FLOOR):
    """Solve the directional derivative equation freqs . grad phi = h.

    Coefficients: phi_k = h_k / (2 pi i k.freqs) for k != 0, phi_0 = 0.
    The floor guards |k.freqs| itself.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if h.dim != freqs.size:
        raise DimensionMismatch("freqs length %d vs series dim %d" % (freqs.size, h.dim))
    _check_zero_average(h)
    return _guarded_divide(h, *_divisor("flow", freqs, h.cut), floor)


def diophantine_margin(freqs, k_max, kind="map"):
    """Smallest divisor magnitude over the punctured mode box |k|_inf <= k_max.

    ``kind="map"`` measures |e^{2 pi i k.freqs} - 1|, ``kind="flow"``
    measures |k.freqs|, and any other kind raises ConfigError.  Returns
    (margin, mode achieving it).
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    _, mag = _divisor(kind, freqs, k_max)
    if freqs.size == 0:
        return float("inf"), ()
    mag[(k_max,) * freqs.size] = np.inf
    idx = np.unravel_index(np.argmin(mag), mag.shape)
    return float(mag[idx]), tuple(int(i) - k_max for i in idx)
