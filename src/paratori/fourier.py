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
``|k| <= cut`` of the result, symmetrized.  A jet product is one stacked
transform: ``products`` takes all its pairs at once, the forward spectra
still missing in stacked FFTs (each series keeps its spectrum from its
first product on), then the products of the spectra and their inverses
in one stack, at most ``STACK_ENTRIES`` complex entries per transform.
numpy runs the same FFT plan row by row, so each row rounds as a single
product did; ``FourierSeries.__mul__`` is the one-row case.  A series is
immutable from construction: its coefficients are read-only from the
moment it is built, so a cached spectrum can never go stale and a series
can be shared instead of copied.

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
axis, built once for the batch from powers of e^{2 pi i theta} up to that
band; ``FourierSeries.eval`` is its one-row case.  A term table whose
series carry a few low modes on a large box is evaluated on those modes
alone.
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


def _mode_range(cut):
    return np.arange(-cut, cut + 1)


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
# pairs runs in several stacks
STACK_ENTRIES = 1 << 14


def _stack_rows(dim, cut):
    """Rows of one stacked transform on the box (dim, cut)."""
    return max(1, STACK_ENTRIES // _fast_len(4 * cut + 1) ** dim)


def products(lefts, rights):
    """The coefficient stack of ``[a * b for a, b in zip(lefts, rights)]``,
    shape (m,) + box, each row symmetrized and bit for bit what its pair
    gives alone.  Every operand must sit on one mode box
    (DimensionMismatch otherwise); a box of one mode multiplies
    elementwise."""
    lefts, rights = list(lefts), list(rights)
    boxes = {(s.dim, s.cut) for s in lefts + rights}
    if len(boxes) != 1 or len(lefts) != len(rights):
        raise DimensionMismatch("products of %d by %d series on boxes "
                                "(dim, cut) %s" % (len(lefts), len(rights),
                                                   sorted(boxes)))
    ((dim, cut),) = boxes
    box = (2 * cut + 1,) * dim
    if math.prod(box) == 1:
        # a box of one mode has no axis to transform (SciPy's FFT
        # convolution skips axes of length 1 too)
        out = (np.array([a.coeffs for a in lefts])
               * np.array([b.coeffs for b in rights]))
    else:
        _cache_spectra(lefts + rights, dim, cut)
        out = np.empty((len(lefts),) + box, dtype=complex)
        rows = _stack_rows(dim, cut)
        for i in range(0, len(lefts), rows):
            spec = np.array([a._spec for a in lefts[i:i + rows]])
            spec *= np.array([b._spec for b in rights[i:i + rows]])
            out[i:i + rows] = _inverse_centre(spec, cut)
    # 0.5 * (out + conj(flip(out))), as FourierSeries symmetrizes, with
    # one temporary
    sym = np.conj(np.flip(out, axis=tuple(range(1, dim + 1))))
    sym += out
    sym *= 0.5
    return sym


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
        out = out + (_mode_range(cut) * vec[a]).reshape(shape)
    return out


class FourierSeries:
    """Dense real-symmetric Fourier polynomial on T^dim.

    Immutable from construction: ``__init__`` makes ``coeffs`` read-only
    (with ``symmetrize=False``, the caller's array itself), so constructors
    fill a fresh array first, and every holder of a series may share it.
    """

    __slots__ = ("dim", "cut", "coeffs", "_spec")

    def __init__(self, coeffs, symmetrize=True):
        coeffs = np.asarray(coeffs, dtype=complex)
        self.dim = coeffs.ndim
        n = max(coeffs.shape, default=1)
        if n % 2 != 1 or coeffs.shape != (n,) * self.dim:
            raise DimensionMismatch("coefficient box %s is not cubic with "
                                    "an odd side" % (coeffs.shape,))
        self.cut = n // 2
        if symmetrize:
            # ufuncs turn a 0-d array into a scalar; keep an array
            coeffs = np.asarray(0.5 * (coeffs + np.conj(np.flip(coeffs))))
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self._spec = None

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

    def is_zero(self, tol=0.0):
        """Every coefficient within ``tol`` of zero in modulus (a NaN is
        never zero)."""
        if tol == 0.0:
            return not self.coeffs.any()
        return float(np.max(np.abs(self.coeffs))) <= tol

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

    def _spectrum(self):
        """The forward FFT of the coefficients zero-padded to n per axis:
        the one-row case of ``_cache_spectra``.  Computed once: ``coeffs``
        is read-only, so the spectrum never goes stale."""
        _cache_spectra([self], self.dim, self.cut)
        return self._spec

    def __mul__(self, other):
        if not isinstance(other, FourierSeries):
            return FourierSeries(self.coeffs * float(other), symmetrize=False)
        return FourierSeries(products([self], [other])[0], symmetrize=False)

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
        vec = np.zeros(self.dim)
        vec[axis] = 1.0
        factor = TWO_PI_I * _mode_dot(self.cut, self.dim, vec)
        return FourierSeries(self.coeffs * factor)

    # ----- evaluation ---------------------------------------------------

    def eval(self, theta=None):
        """Evaluate at angles: the one-row case of ``eval_stack``.

        ``theta`` has shape (dim,) for a single point or (..., dim) for a
        batch (None is the one point of dim 0); returns a real float or a
        real array of the batch shape.  Complexified angles are accepted
        (analytic continuation off the real torus); the result is then
        complex.
        """
        vals = eval_stack(self.coeffs[None], theta)[0]
        return vals if vals.ndim else vals.item()

    def values_on_grid(self, n):
        """Real values on the uniform n-per-axis grid (FFT synthesis)."""
        if n < 2 * self.cut + 1:
            raise DimensionMismatch("%d points miss |k| <= %d" % (n, self.cut))
        big = np.zeros((n,) * self.dim, dtype=complex)
        picks = [_mode_range(self.cut) % n for _ in range(self.dim)]
        big[np.ix_(*picks)] = self.coeffs
        return np.asarray(np.real(np.fft.ifftn(big) * big.size))

    def sup_grid(self, n=None):
        if n is None:
            n = max(64, 4 * self.cut + 1)
        return float(np.max(np.abs(self.values_on_grid(n))))

    # ----- interchange --------------------------------------------------

    def to_payload(self):
        """Sparse half-spectrum payload: mode 0 plus lexicographically
        positive modes with a nonzero coefficient; the mirror half is
        implied by realness."""
        entries = []
        for idx in np.ndindex(*self.coeffs.shape):
            k = tuple(i - self.cut for i in idx)
            first = next((x for x in k if x != 0), 0)
            if first < 0:
                continue
            v = complex(self.coeffs[idx])
            if v == 0:
                continue
            entries.append([list(k), v.real, v.imag])
        entries.sort(key=lambda e: e[0])
        return {"dim": self.dim, "cut": self.cut, "modes": entries}

    @classmethod
    def from_payload(cls, payload):
        """Inverse of ``to_payload``: the half spectrum through
        ``from_modes``, which checks each mode against the box and adds the
        mirror, so a payload listing a mode and its mirror is refused."""
        modes = {tuple(k): complex(re, im) for k, re, im in payload["modes"]}
        for k in modes:
            if any(k) and tuple(-x for x in k) in modes:
                raise DimensionMismatch("mode %s listed with its mirror" % (k,))
        return cls.from_modes(modes, int(payload["dim"]), int(payload["cut"]))

    def __repr__(self):
        return "FourierSeries(dim=%d, cut=%d, |c|_1=%.3e)" % (
            self.dim,
            self.cut,
            self.coeff_norm(),
        )


def _axis_basis(t, cut):
    """e^{2 pi i k t} for k = -cut..cut at every point of ``t``, shape
    (2*cut+1, points).  One exponential of each sign per point; the higher
    powers are products of lower ones, power n + j = power n * power j, so
    the table doubles each pass.  For real t the negative modes come out as
    the exact conjugates of the positive ones."""
    powers = np.empty((cut + 1, 2, t.size), dtype=complex)
    powers[0] = 1.0
    powers[1:2] = np.exp(np.multiply.outer((-TWO_PI_I, TWO_PI_I), t))
    n = 1
    while n < cut:
        m = min(n, cut - n)
        np.multiply(powers[1:m + 1], powers[n], out=powers[n + 1:n + m + 1])
        n += m
    return np.concatenate([powers[:0:-1, 0], powers[:, 1]])


def eval_stack(coeffs, theta=None):
    """Values of a stack of series at a batch of angles.

    ``coeffs`` holds m coefficient boxes, shape (m,) + (2*cut+1,)*dim;
    ``theta`` has shape (..., dim), None being the one point of dim 0.
    Returns shape (m,) + batch, real for real angles and complex for
    complexified ones.  The stack is first cut to its occupied band, the
    smallest centred box |k|_inf <= K that holds every nonzero coefficient
    (only exact zeros are dropped).  The mode basis of each axis is built
    once for the whole batch up to K (``_axis_basis``) and the stack is
    contracted against it one axis at a time, so a dim-0 stack is its
    constants on every point.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    dim = coeffs.ndim - 1
    complex_in = np.iscomplexobj(theta)
    theta = np.asarray(() if theta is None else theta,
                       dtype=complex if complex_in else float)
    if theta.shape[-1:] != (dim,):
        raise DimensionMismatch("angles of shape %s on a %d-torus"
                                % (theta.shape, dim))
    batch = theta.shape[:-1]
    pts = theta.reshape(math.prod(batch), dim)
    cut = coeffs.shape[-1] // 2 if dim else 0
    band = int(np.abs(np.argwhere(coeffs)[:, 1:] - cut).max(initial=0))
    vals = coeffs[(slice(None),) + (slice(cut - band, cut + band + 1),) * dim]
    vals = vals[:, None]
    for a in range(dim):
        basis = _axis_basis(pts[:, a], band)
        vals = np.einsum("ib,mbi...->mb...", basis, vals)
    vals = np.broadcast_to(vals, (coeffs.shape[0], pts.shape[0]))
    return np.array((vals if complex_in else vals.real).reshape(
        (coeffs.shape[0],) + batch))


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


def solve_sd_map(h, omega, floor=1e-12):
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


def solve_sd_flow(h, freqs, floor=1e-12):
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
