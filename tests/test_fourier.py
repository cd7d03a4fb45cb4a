"""Trigonometric-polynomial layer: arithmetic, calculus, difference and
derivative equations along a rotation, payload round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sp_fft, signal

from paratori import fourier
from paratori.cli import MAX_BOX
from paratori.errors import (ConfigError, DimensionMismatch, NonZeroAverage,
                             SmallDivisorUnderflow)
from paratori.fourier import (TWO_PI_I, AngleBatch, FourierSeries,
                              _axis_basis, _cache_spectra, _fast_len,
                              _inverse_centre, _products, _stack_rows,
                              angle_grid, diophantine_margin, eval_stack,
                              on_box, solve_sd_flow, solve_sd_map)
from paratori.jets import TFJet, multiply

from conftest import GOLDEN, dense_series, mode_sum, sup_grid, values_on_grid


def random_series(rng, dim, cut, n_modes=5, scale=1.0, k_max=None):
    k_max = cut if k_max is None else k_max
    f = FourierSeries.zero(dim, cut)
    for _ in range(n_modes):
        mode = tuple(int(rng.integers(-k_max, k_max + 1)) for _ in range(dim))
        if all(m == 0 for m in mode):
            continue
        z = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        f = f + FourierSeries.from_modes({mode: z}, dim, cut)
    return f


def test_constant_and_average():
    f = FourierSeries.constant(3.5, 2, 4)
    assert f.average() == 3.5
    assert f.oscillatory().coeff_norm() == 0.0
    g = f + FourierSeries.from_modes({(1, 0): 0.25}, 2, 4)
    assert abs(g.average() - 3.5) < 1e-15
    assert abs(g.oscillatory().coeff_norm() - 0.5) < 1e-15


def test_eval_matches_cosine():
    # from_modes with the conjugate completion: {k: a/2} represents a*cos
    f = FourierSeries.from_modes({(3,): 0.5}, 1, 8)
    th = np.array([0.17])
    assert abs(f.eval(th) - np.cos(2 * np.pi * 3 * 0.17)) < 1e-14


def test_grid_round_trip():
    # the FFT synthesis on the uniform grid against pointwise evaluation at
    # the same nodes
    rng = np.random.default_rng(7)
    f = random_series(rng, 2, 6)
    vals = values_on_grid(f, 16)
    nodes = angle_grid(2, np.arange(16) / 16)
    assert np.max(np.abs(vals - f.eval(nodes))) < 1e-13 * max(1.0, f.coeff_norm())


def test_product_against_grid():
    # mode content kept inside half the box so the product does not truncate
    rng = np.random.default_rng(11)
    f = random_series(rng, 1, 12, k_max=6) + 1.0
    g = random_series(rng, 1, 12, k_max=6) + 2.0
    n = 64
    prod = f * g
    lhs = values_on_grid(prod, n)
    rhs = values_on_grid(f, n) * values_on_grid(g, n)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _fftconvolve_product(a, b):
    """The series product by its first definition: scipy's fftconvolve of
    the two boxes, cut to the centre box and symmetrized."""
    full = signal.fftconvolve(a.coeffs, b.coeffs)
    m = a.cut
    return FourierSeries(full[(slice(m, 3 * m + 1),) * a.dim])


def fresh(s):
    """The series again, with no cached spectrum."""
    return FourierSeries(s.coeffs, symmetrize=False)


def products(lefts, rights):
    """Every row that ``fourier._products`` yields for the pairs, on the
    box of the first operand, in one array; no stack is longer than
    ``_stack_rows`` rows."""
    dim, cut = lefts[0].dim, lefts[0].cut
    stacks = list(_products(lefts, rights, dim, cut))
    assert all(0 < len(st) <= _stack_rows(dim, cut) for st in stacks)
    return np.concatenate(stacks)


@pytest.mark.parametrize("dim,cut", [(0, 0), (1, 0), (1, 1), (1, 16),
                                     (1, 32), (2, 8), (3, 2)])
def test_product_is_fftconvolve_bit_for_bit(dim, cut):
    rng = np.random.default_rng(5)
    a, b = dense_series(rng, dim, cut), dense_series(rng, dim, cut)
    const = FourierSeries.constant(2.5, dim, cut)
    # the second (a, b) multiplies operands whose spectra are cached
    uncached = FourierSeries(a.coeffs, symmetrize=False)
    pairs = [(a, b), (a, b), (b, a), (a, a), (uncached, b), (a, const),
             (const, b)]
    for x, y in pairs:
        want = _fftconvolve_product(x, y).coeffs
        assert np.array_equal((x * y).coeffs, want)
    # the stacked kernel, on operands whose spectra are not cached yet
    stack = products([fresh(x) for x, _ in pairs], [fresh(y) for _, y in pairs])
    for (x, y), row in zip(pairs, stack):
        assert np.array_equal(row, _fftconvolve_product(x, y).coeffs)


@pytest.mark.parametrize("dim,cut", [(0, 0), (1, 0), (1, 32), (2, 3), (3, 2)])
def test_stacked_products_are_single_products_bit_for_bit(dim, cut):
    # more pairs than one stacked transform holds, with repeated and
    # constant operands, first without and then with cached spectra
    rng = np.random.default_rng(17)
    pool = [dense_series(rng, dim, cut) for _ in range(6)]
    pool += [FourierSeries.constant(-1.5, dim, cut), pool[0] + 2.0]
    one_mode = cut == 0 or dim == 0
    m = 40 if one_mode else _stack_rows(dim, cut) + 3
    pick = rng.integers(len(pool), size=(2, m))
    lefts, rights = [[pool[i] for i in row] for row in pick]
    want = [(fresh(a) * fresh(b)).coeffs for a, b in zip(lefts, rights)]
    for _ in range(2):
        stack = products(lefts, rights)
        assert stack.shape == (m,) + (2 * cut + 1,) * dim
        for row, single in zip(stack, want):
            assert np.array_equal(np.atleast_1d(row).view(float),
                                  np.atleast_1d(single).view(float))
    if not one_mode:
        # each series keeps its own spectrum, not a view into a stack
        assert all(s._spec.base is None for s in pool)


def test_stacked_products_need_one_box():
    # the product entry trusts its boxes: a series product and a batch of
    # jet products check them first
    a, b = FourierSeries.constant(1.0, 1, 3), FourierSeries.constant(1.0, 1, 4)
    c = FourierSeries.constant(1.0, 2, 3)
    for x, y in ((a, b), (a, c), (c, b)):
        with pytest.raises(DimensionMismatch):
            x * y
    jet = {s: TFJet(s.dim, s.cut, 3, {1: s, 2: s}) for s in (a, b, c)}
    for other in (b, c):
        with pytest.raises(DimensionMismatch):
            multiply([(jet[a], jet[a]), (jet[a], jet[other])])


@pytest.mark.parametrize("dim,cuts", [(1, range(1, 49)), (2, range(1, 13)),
                                      (3, range(1, 5))])
def test_transforms_are_scipy_fft_bit_for_bit(dim, cuts):
    # the products round as SciPy's transforms do, as the seed-0 reference
    # pairs were made
    rng = np.random.default_rng(13)
    for cut in cuts:
        a, b = dense_series(rng, dim, cut), dense_series(rng, dim, cut)
        n = sp_fft.next_fast_len(4 * cut + 1, False)
        _cache_spectra([a, b], dim, cut)
        assert np.array_equal(a._spec, sp_fft.fftn(a.coeffs, (n,) * dim))
        spec = a._spec * b._spec
        centre = (slice(cut, 3 * cut + 1),) * dim
        want = sp_fft.ifftn(spec)[centre]
        # the stacked inverse overwrites its input, so it goes second
        assert np.array_equal(_inverse_centre(spec[None], cut)[0], want)


def test_fft_length_is_scipy_next_fast_len():
    for m in range(1, 4098):
        assert _fast_len(m) == sp_fft.next_fast_len(m, False), m
    # the largest 1-D box the command line admits
    m = 4 * ((MAX_BOX - 1) // 2) + 1
    assert _fast_len(m) == sp_fft.next_fast_len(m, False)


@pytest.mark.parametrize("dim,cut", [(0, 0), (1, 0), (1, 8), (2, 3)])
def test_every_series_is_read_only_from_construction(dim, cut):
    rng = np.random.default_rng(9)
    a, b = dense_series(rng, dim, cut), dense_series(rng, dim, cut)
    built = [FourierSeries.zero(dim, cut), FourierSeries.constant(2.0, dim, cut),
             FourierSeries.from_modes({(0,) * dim: 1.5}, dim, cut),
             FourierSeries.from_payload(a.to_payload()), a.oscillatory(),
             a + 1.0, 1.0 + a, a - 1.0, 1.0 - a, a + b, a - b, -a, a * 2.0,
             a * b, b * a]
    if dim:
        h, omega = a.oscillatory(), np.array([GOLDEN, np.sqrt(2.0)])[:dim]
        built += [a.shift(np.full(dim, 0.1)), a.diff(0),
                  solve_sd_map(h, omega), solve_sd_flow(h, omega)]
    first = a * b
    for s in [a, b] + built:
        # a write would leave a cached spectrum stale: it raises instead
        with pytest.raises(ValueError):
            s.coeffs[(cut,) * dim] = 1.0
    assert np.array_equal((a * b).coeffs, first.coeffs)


@pytest.mark.parametrize("shape", [(4,), (0,), (3, 5), (2, 2), (3, 3, 4),
                                   (5, 5, 1)])
def test_construction_refuses_a_box_not_cubic_with_an_odd_side(shape):
    for coeffs in (np.zeros(shape, dtype=complex), np.zeros(shape),
                   np.zeros(shape).tolist()):
        with pytest.raises(DimensionMismatch):
            FourierSeries(coeffs)
        with pytest.raises(DimensionMismatch):
            FourierSeries(coeffs, symmetrize=False)


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_construction_symmetrizes_by_default(dim):
    # the default build is 0.5 * (c + conj(flip(c))) bit for bit, on a copy
    # that leaves the caller's array as it was; symmetrize=False keeps the
    # caller's complex array itself, made read-only
    rng = np.random.default_rng(53)
    box = (5,) * dim
    c = np.array(rng.standard_normal(box) + 1j * rng.standard_normal(box))
    c[(0,) * dim] = -0.0 - 0.0j
    want = np.asarray(0.5 * (c + np.conj(np.flip(c))))
    for given in (c, c.tolist(), c.astype(np.complex64).astype(complex)):
        s = FourierSeries(given)
        assert s.coeffs is not given and s.coeffs.dtype == complex
        assert s.coeffs.shape == box and (s.dim, s.cut) == (dim, 2 if dim else 0)
        if given is c:
            assert s.coeffs.tobytes() == want.tobytes()
    assert c.flags.writeable
    kept = FourierSeries(c, symmetrize=False)
    assert kept.coeffs is c and not c.flags.writeable
    # numbers and numpy scalars are the one-mode box
    for z in (2.0 + 1.0j, np.complex128(2.0 + 1.0j), np.float64(2.0)):
        s = FourierSeries(z)
        assert s.coeffs.shape == () and s.coeffs[()] == 2.0
        assert not s.coeffs.flags.writeable


def test_diff_is_exact_on_modes():
    f = FourierSeries.from_modes({(2, -1): 0.3 + 0.1j}, 2, 4)
    df = f.diff(0)
    th = np.array([0.2, 0.6])
    h = 1e-6
    fd = (f.eval(np.array([0.2 + h, 0.6])) - f.eval(np.array([0.2 - h, 0.6]))) / (2 * h)
    assert abs(df.eval(th) - fd) < 1e-7


def test_shift_translates_argument():
    rng = np.random.default_rng(3)
    f = random_series(rng, 1, 8)
    g = f.shift(np.array([GOLDEN]))
    th = np.array([0.41])
    assert abs(g.eval(th) - f.eval(th + GOLDEN)) < 1e-13


def test_box_checks_are_typed():
    # the mode-box checks raise DimensionMismatch, also under python -O
    with pytest.raises(DimensionMismatch):
        FourierSeries.from_modes({(5,): 1.0}, 1, 4)
    with pytest.raises(DimensionMismatch):
        FourierSeries(np.zeros((4,)))
    f = FourierSeries.from_modes({(1,): 0.5}, 1, 4)
    with pytest.raises(DimensionMismatch):
        f.shift(np.array([0.1, 0.2]))
    with pytest.raises(DimensionMismatch):
        f.diff(1)
    with pytest.raises(DimensionMismatch):
        values_on_grid(f, 8)


def test_dim_zero_series_is_the_one_coefficient_box():
    # a constant on T^0 runs the same box code as any other series
    c = FourierSeries.constant(2.5, 0, 7)
    assert c.coeffs.shape == () and c.cut == 0
    assert (c * c).average() == 6.25 and c.shift(()).average() == 2.5
    assert sup_grid(c) == 2.5
    assert FourierSeries.from_payload(c.to_payload()).average() == 2.5
    assert solve_sd_map(c - 2.5, ()).is_zero()
    assert on_box(c, 0, 16) is c and on_box(1.5, 0, 16).average() == 1.5
    f = FourierSeries.from_modes({(1,): 0.5}, 1, 4)
    for dim, cut in ((0, 0), (1, 8), (2, 4)):
        with pytest.raises(DimensionMismatch):
            on_box(f, dim, cut)
    assert angle_grid(0, [0.0, 0.5]).shape == (0,)
    grid = angle_grid(2, [0.0, 0.5])
    assert grid.shape == (2, 2, 2) and grid[1, 0].tolist() == [0.5, 0.0]


def test_eval_accepts_complex_angles():
    f = FourierSeries.from_modes({(1,): 0.5}, 1, 4)
    z = np.array([0.1 + 0.05j])
    want = np.cos(2 * np.pi * z[0])
    assert abs(f.eval(z) - want) < 1e-13


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("cut", [0, 1, 32])
@pytest.mark.parametrize("complex_angles", [False, True])
def test_eval_stack_matches_per_mode_sum(dim, cut, complex_angles):
    # the power-built basis against one exponential per mode, on a stack of
    # dense rows; imaginary parts up to 2e-3 keep |e^{2 pi i k.theta}| <= 2.3
    rng = np.random.default_rng(100 * dim + cut)
    rows = [dense_series(rng, dim, cut) for _ in range(3)]
    theta = rng.random((2, 3, dim))
    if complex_angles:
        theta = theta + 2e-3j * rng.uniform(-1, 1, theta.shape)
    vals = eval_stack([s.coeffs for s in rows], theta)
    assert vals.shape == (3, 2, 3) and np.iscomplexobj(vals) == complex_angles
    for s, got in zip(rows, vals):
        want = mode_sum(s, theta)
        if not complex_angles:
            want = want.real
        tol = 1e-13 * s.coeff_norm()
        assert np.max(np.abs(got - want)) <= tol
        batch = s.eval(theta)
        assert batch.shape == (2, 3) and np.max(np.abs(batch - want)) <= tol
        point = s.eval(theta[1, 2])
        assert type(point) is (complex if complex_angles else float)
        assert abs(point - want[1, 2]) <= tol
    if dim == 0:
        assert type(rows[0].eval()) is float
        assert rows[0].eval() == rows[0].average()
    with pytest.raises(DimensionMismatch):
        rows[0].eval(np.zeros(dim + 1))


def full_box_values(coeffs, theta):
    """A stack contracted against the basis of its whole box, axis by
    axis: values of shape (rows,) + batch, complex."""
    dim = coeffs.ndim - 1
    pts = theta.reshape(np.prod(theta.shape[:-1], dtype=int), dim)
    vals = coeffs[:, None]
    for a in range(dim):
        basis = _axis_basis(pts[:, a], coeffs.shape[-1] // 2)
        vals = np.einsum("ib,mbi...->mb...", basis, vals)
    vals = np.broadcast_to(vals, (len(coeffs), len(pts)))
    return vals.reshape((len(coeffs),) + theta.shape[:-1])


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
@pytest.mark.parametrize("complex_angles", [False, True])
def test_eval_stack_contracts_only_the_occupied_band(monkeypatch, dim,
                                                      complex_angles):
    # a stack is cut to the smallest centred box holding its nonzero
    # coefficients before the contraction; the values agree with the
    # whole-box contraction, and one coefficient at |k| = cut keeps the box
    cut = 5
    rng = np.random.default_rng(10 + dim)
    theta = rng.random((4, 3, dim))
    if complex_angles:
        theta = theta + 2e-3j * rng.uniform(-1, 1, theta.shape)
    box = (3,) + (2 * cut + 1,) * dim
    narrow = np.zeros(box, dtype=complex)
    inside = (slice(None),) + (slice(cut - 2, cut + 3),) * dim
    narrow[inside] = (rng.standard_normal(narrow[inside].shape)
                      + 1j * rng.standard_normal(narrow[inside].shape))
    narrow[1] = 0.0
    cases = [(narrow, 2 if dim else 0), (np.zeros(box, dtype=complex), 0)]
    if dim:
        wide = narrow.copy()
        wide[(2,) + (cut,) * (dim - 1) + (2 * cut,)] = 0.5
        cases.append((wide, cut))
    built = []
    monkeypatch.setattr(fourier, "_axis_basis",
                        lambda t, k: built.append(k) or _axis_basis(t, k))
    for coeffs, band in cases:
        built.clear()
        got = eval_stack(coeffs, theta)
        assert built == [band] * dim
        want = full_box_values(coeffs, theta)
        assert np.iscomplexobj(got) == complex_angles
        for row, g, w in zip(coeffs, got, want):
            tol = 1e-14 * np.abs(row).sum()
            assert np.max(np.abs(g - (w if complex_angles else w.real))) <= tol


def two_sign_basis(t, cut):
    """The mode basis from one exponential of each sign per point, the
    powers of each sign doubled pass by pass: the negative modes are
    products of e^{-2 pi i t} itself."""
    powers = np.empty((cut + 1, 2, t.size), dtype=complex)
    powers[0] = 1.0
    powers[1:2] = np.exp(np.multiply.outer((-TWO_PI_I, TWO_PI_I), t))
    n = 1
    while n < cut:
        m = min(n, cut - n)
        np.multiply(powers[1:m + 1], powers[n], out=powers[n + 1:n + m + 1])
        n += m
    return np.concatenate([powers[:0:-1, 0], powers[:, 1]])


@pytest.mark.parametrize("complex_angles", [False, True])
def test_a_lower_band_is_the_centre_of_a_wider_basis(complex_angles):
    # the doubling passes do not depend on the cut, so the basis of every
    # lower cut is bit for bit the central rows of a wider one; the positive
    # modes are the powers of e^{2 pi i t}; for real angles the negative
    # modes are their conjugates, bit for bit the products of
    # e^{-2 pi i t}, for complex ones their reciprocals
    rng = np.random.default_rng(5)
    t = rng.uniform(-3.0, 3.0, 5000)
    if complex_angles:
        t = t + 2e-3j * rng.uniform(-1, 1, t.size)
    top = 40
    wide = _axis_basis(t, top)
    signs = two_sign_basis(t, top)
    assert wide[top:].tobytes() == signs[top:].tobytes()
    if complex_angles:
        assert wide[:top].tobytes() == np.reciprocal(wide[:top:-1]).tobytes()
    else:
        assert wide.tobytes() == signs.tobytes()
        assert wide[:top].tobytes() == np.conj(wide[:top:-1]).tobytes()
    for band in range(top):
        centre = wide[top - band:top + band + 1]
        assert _axis_basis(t, band).tobytes() == centre.tobytes()


def test_the_basis_takes_one_exponential_per_point(monkeypatch):
    # real and complex angles alike take e^{2 pi i t} alone, and band 0 no
    # exponential at all
    sizes = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
    t = np.linspace(0.0, 1.0, 7)
    for angles in (t, t + 1e-3j):
        sizes.clear()
        basis = _axis_basis(angles, 0)
        assert sizes == [] and basis.tobytes() == np.ones((1, 7), complex).tobytes()
        _axis_basis(angles, 5)
        assert sum(sizes) == 7


def banded_stack(rng, dim, cut, bands):
    """A stack of one row per band, each row's coefficients filling the
    centred box |k|_inf <= band of the box of ``cut``."""
    out = np.zeros((len(bands),) + (2 * cut + 1,) * dim, dtype=complex)
    for i, band in enumerate(bands):
        box = (i,) + (slice(cut - band, cut + band + 1),) * dim
        out[box] = (rng.standard_normal(out[box].shape)
                    + 1j * rng.standard_normal(out[box].shape))
    return out


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
@pytest.mark.parametrize("complex_angles", [False, True])
def test_stacks_share_the_bases_of_an_angle_batch(monkeypatch, dim,
                                                  complex_angles):
    # stacks of mixed bands evaluated through one AngleBatch give a fresh
    # eval_stack's values bit for bit, from one basis per axis
    cut = 4
    rng = np.random.default_rng(30 + dim)
    theta = rng.uniform(-1.0, 2.0, (3, 2, dim))
    if complex_angles:
        theta = theta + 2e-3j * rng.uniform(-1, 1, theta.shape)
    stacks = [banded_stack(rng, dim, cut, bands)
              for bands in ((4, 1), (0,), (2, 3, 0), (1, 1))]
    fresh = [eval_stack(c, theta) for c in stacks]
    series = FourierSeries(stacks[2][1])
    alone = series.eval(theta)
    built = []
    monkeypatch.setattr(fourier, "_axis_basis",
                        lambda t, k: built.append(k) or _axis_basis(t, k))
    batch = AngleBatch(theta, dim)
    for c, want in zip(stacks, fresh):
        got = eval_stack(c, batch)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert series.eval(batch).tobytes() == alone.tobytes()
    assert built == [4] * dim
    # a band wider than the one built rebuilds the axis's basis at it
    built.clear()
    batch = AngleBatch(theta, dim)
    for c, want in zip(stacks[::-1], fresh[::-1]):
        assert eval_stack(c, batch).tobytes() == want.tobytes()
    assert built == [1] * dim + [3] * dim + [4] * dim
    with pytest.raises(DimensionMismatch):
        eval_stack(banded_stack(rng, dim + 1, cut, (1,)), batch)


def test_difference_equation_residual():
    # phi(theta + omega) - phi(theta) = h, checked on a fine grid
    rng = np.random.default_rng(23)
    h = random_series(rng, 1, 16)
    h = h - h.average()
    phi = solve_sd_map(h, (GOLDEN,))
    resid = phi.shift(np.array([GOLDEN])) - phi - h
    assert sup_grid(resid, 256) < 1e-12 * max(1.0, sup_grid(h, 256))


def test_derivative_equation_residual():
    freqs = (GOLDEN, np.sqrt(2))
    rng = np.random.default_rng(29)
    h = random_series(rng, 2, 8)
    h = h - h.average()
    phi = solve_sd_flow(h, freqs)
    resid = phi.diff(0) * freqs[0] + phi.diff(1) * freqs[1] - h
    assert sup_grid(resid, 128) < 1e-10 * max(1.0, sup_grid(h, 128))


def test_difference_equation_rejects_average():
    h = FourierSeries.constant(0.2, 1, 4)
    with pytest.raises(NonZeroAverage):
        solve_sd_map(h, (GOLDEN,))


@pytest.mark.parametrize("solve", [solve_sd_map, solve_sd_flow])
def test_solves_refuse_a_frequency_vector_of_another_length(solve):
    h = FourierSeries.from_modes({(1,): 0.5}, 1, 4)
    with pytest.raises(DimensionMismatch, match="length 2 vs series dim 1") \
            as err:
        solve(h, (GOLDEN, 0.3))
    assert err.value.exit_code == 2


def test_from_modes_refuses_a_mode_of_another_length():
    with pytest.raises(DimensionMismatch, match="wrong length") as err:
        FourierSeries.from_modes({(1, 1): 0.5}, 1, 4)
    assert err.value.exit_code == 2


def test_resonant_rotation_underflows():
    h = FourierSeries.from_modes({(2,): 0.5}, 1, 4)
    with pytest.raises(SmallDivisorUnderflow) as ei:
        solve_sd_map(h, (0.5,))
    err = ei.value
    assert tuple(err.detail["mode"]) in ((2,), (-2,))
    assert err.detail["magnitude"] < err.detail["floor"]


def test_flow_zero_frequency_mode_underflows():
    # mode orthogonal to the frequency vector: k . freqs = 0
    h = FourierSeries.from_modes({(0, 1): 0.5}, 2, 4)
    with pytest.raises(SmallDivisorUnderflow):
        solve_sd_flow(h, (GOLDEN, 0.0))


def test_diophantine_margin_orders():
    good, _ = diophantine_margin((GOLDEN,), 32, kind="map")
    near, mode = diophantine_margin((0.5 + 1e-9,), 32, kind="map")
    assert good > 1e-3
    assert near < 1e-7
    assert mode[0] % 2 == 0  # an even multiple of the near-half frequency
    margin, _ = diophantine_margin((GOLDEN, np.sqrt(2)), 16, kind="flow")
    assert margin > 0


@pytest.mark.parametrize("freqs", [(GOLDEN,), ()])
def test_diophantine_margin_refuses_an_unknown_kind(freqs):
    # a typed error, on every torus dimension, the constant box included
    with pytest.raises(ConfigError, match="'torus'"):
        diophantine_margin(freqs, 8, kind="torus")


def test_payload_round_trip():
    rng = np.random.default_rng(5)
    f = random_series(rng, 2, 5) + 0.7
    p = f.to_payload()
    g = FourierSeries.from_payload(p)
    assert (f - g).coeff_norm() < 1e-15
    assert p["dim"] == 2 and p["cut"] == 5
    # half-spectrum storage: no mode and its negation both present
    seen = {tuple(m[0]) for m in p["modes"]}
    for mode in seen:
        if any(mode):
            assert tuple(-x for x in mode) not in seen


@pytest.mark.parametrize("dim,cut", [(0, 0), (0, 3), (1, 0), (1, 6), (2, 3)])
def test_payload_round_trip_is_bit_exact(dim, cut):
    # a payload reads back to the series that wrote it, to the last bit, and
    # places its modes as from_modes does one at a time
    rng = np.random.default_rng(19 + dim)
    for f in (dense_series(rng, dim, cut), random_series(rng, dim, cut) + 0.7,
              FourierSeries.zero(dim, cut), FourierSeries.constant(-1.5, dim, cut)):
        payload = f.to_payload()
        back = FourierSeries.from_payload(payload)
        assert back.coeffs.tobytes() == f.coeffs.tobytes()
        looped = FourierSeries.from_modes(
            {tuple(k): complex(re, im) for k, re, im in payload["modes"]},
            dim, cut)
        assert back.coeffs.tobytes() == looped.coeffs.tobytes()


@pytest.mark.parametrize("dim,modes", [
    (1, [[[2], 0.5, 0.1], [[1], 0.25, 0.0], [[2], 0.5, 0.1]]),
    (2, [[[0, 0], 1.0, 0.0], [[0, 0], 1.0, 0.0]]),
    (1, [[[1.5], 0.5, 0.0]]),
    (2, [[[1, 0], 0.5, 0.0], [[0, 1e-9], 0.5, 0.0]]),
    (1, [[[1], 0.5, 0.0], [[-1], 0.5, 0.0]]),
    (2, [[[1, -2], 0.5, 0.0], [[0, 1], 0.1, 0.0], [[-1, 2], 0.5, 0.0]]),
], ids=["twice", "zero_mode_twice", "not_integer", "not_integer_2d",
        "with_mirror", "with_mirror_2d"])
def test_payload_refuses_a_mode_twice_not_integer_or_with_its_mirror(dim, modes):
    # the last entry used to win, 1.5 was read as mode 1, and a mirror would
    # be added twice
    with pytest.raises(DimensionMismatch):
        FourierSeries.from_payload({"dim": dim, "cut": 3, "modes": modes})


def test_real_series_has_no_symmetry_defect():
    rng = np.random.default_rng(13)
    f = random_series(rng, 1, 6)
    c = f.coeffs
    assert np.max(np.abs(c - np.conj(np.flip(c)))) < 1e-15
    vals = values_on_grid(f, 32)
    assert np.max(np.abs(vals.imag)) < 1e-13


@given(st.integers(-4, 4), st.integers(-4, 4),
       st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=40, deadline=None)
def test_shift_composes(k1, k2, d1, d2):
    f = FourierSeries.from_modes({(k1, k2): 0.3 + 0.2j}, 2, 4)
    a = f.shift(np.array([d1, d2])).shift(np.array([d2, d1]))
    b = f.shift(np.array([d1 + d2, d1 + d2]))
    assert (a - b).coeff_norm() < 1e-12


@given(st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_difference_solver_is_linear(scale):
    h = FourierSeries.from_modes({(1,): 0.25, (3,): -0.1}, 1, 8)
    a = solve_sd_map(h * scale, (GOLDEN,))
    b = solve_sd_map(h, (GOLDEN,)) * scale
    assert (a - b).coeff_norm() < 1e-13


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
@pytest.mark.parametrize("complex_angles", [False, True])
def test_a_row_evaluates_alike_in_every_stack(dim, complex_angles):
    # a row's values do not depend on the rows stacked with it: every row,
    # alone or in any stretch of the stack, gives the whole stack's values
    # bit for bit, one-row stacks and band 0 included
    cut = 3
    rng = np.random.default_rng(40 + dim)
    theta = rng.random((5, 7, dim))
    if complex_angles:
        theta = theta + 2e-3j * rng.uniform(-1, 1, theta.shape)
    for bands in ((3, 1, 0, 2, 3), (0, 0, 0)):
        stack = banded_stack(rng, dim, cut, bands)
        whole = eval_stack(stack, theta)
        for i in range(len(stack)):
            for j in range(i + 1, len(stack) + 1):
                part = eval_stack(stack[i:j], theta)
                assert part.tobytes() == whole[i:j].tobytes(), (i, j)
