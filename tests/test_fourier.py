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
from paratori.fourier import (FourierSeries, _axis_basis, _fast_len,
                              _inverse_centre, angle_grid, diophantine_margin, eval_stack,
                              on_box, products, solve_sd_flow, solve_sd_map)

from conftest import GOLDEN, dense_series, mode_sum


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
    vals = f.values_on_grid(16)
    nodes = angle_grid(2, np.arange(16) / 16)
    assert np.max(np.abs(vals - f.eval(nodes))) < 1e-13 * max(1.0, f.coeff_norm())


def test_product_against_grid():
    # mode content kept inside half the box so the product does not truncate
    rng = np.random.default_rng(11)
    f = random_series(rng, 1, 12, k_max=6) + 1.0
    g = random_series(rng, 1, 12, k_max=6) + 2.0
    n = 64
    prod = f * g
    lhs = prod.values_on_grid(n)
    rhs = f.values_on_grid(n) * g.values_on_grid(n)
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
    m = 40 if one_mode else fourier._stack_rows(dim, cut) + 3
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
    a, b = FourierSeries.constant(1.0, 1, 3), FourierSeries.constant(1.0, 1, 4)
    c = FourierSeries.constant(1.0, 2, 3)
    for lefts, rights in (([a], [b]), ([a, a], [a, c]), ([a, a], [a])):
        with pytest.raises(DimensionMismatch):
            products(lefts, rights)
    with pytest.raises(DimensionMismatch):
        a * b


@pytest.mark.parametrize("dim,cuts", [(1, range(1, 49)), (2, range(1, 13)),
                                      (3, range(1, 5))])
def test_transforms_are_scipy_fft_bit_for_bit(dim, cuts):
    # the products round as SciPy's transforms do, as the seed-0 reference
    # pairs were made
    rng = np.random.default_rng(13)
    for cut in cuts:
        a, b = dense_series(rng, dim, cut), dense_series(rng, dim, cut)
        n = sp_fft.next_fast_len(4 * cut + 1, False)
        assert np.array_equal(a._spectrum(), sp_fft.fftn(a.coeffs, (n,) * dim))
        spec = a._spectrum() * b._spectrum()
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
        f.values_on_grid(8)


def test_dim_zero_series_is_the_one_coefficient_box():
    # a constant on T^0 runs the same box code as any other series
    c = FourierSeries.constant(2.5, 0, 7)
    assert c.coeffs.shape == () and c.cut == 0
    assert (c * c).average() == 6.25 and c.shift(()).average() == 2.5
    assert c.sup_grid() == 2.5
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


def test_difference_equation_residual():
    # phi(theta + omega) - phi(theta) = h, checked on a fine grid
    rng = np.random.default_rng(23)
    h = random_series(rng, 1, 16)
    h = h - h.average()
    phi = solve_sd_map(h, (GOLDEN,))
    resid = phi.shift(np.array([GOLDEN])) - phi - h
    assert resid.sup_grid(256) < 1e-12 * max(1.0, h.sup_grid(256))


def test_derivative_equation_residual():
    freqs = (GOLDEN, np.sqrt(2))
    rng = np.random.default_rng(29)
    h = random_series(rng, 2, 8)
    h = h - h.average()
    phi = solve_sd_flow(h, freqs)
    resid = phi.diff(0) * freqs[0] + phi.diff(1) * freqs[1] - h
    assert resid.sup_grid(128) < 1e-10 * max(1.0, h.sup_grid(128))


def test_difference_equation_rejects_average():
    h = FourierSeries.constant(0.2, 1, 4)
    with pytest.raises(NonZeroAverage):
        solve_sd_map(h, (GOLDEN,))


def test_resonant_rotation_underflows():
    h = FourierSeries.from_modes({(2,): 0.5}, 1, 4)
    with pytest.raises(SmallDivisorUnderflow) as ei:
        solve_sd_map(h, (0.5,))
    err = ei.value
    assert tuple(err.mode) in ((2,), (-2,))
    assert err.magnitude < err.floor


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


def test_real_series_has_no_symmetry_defect():
    rng = np.random.default_rng(13)
    f = random_series(rng, 1, 6)
    c = f.coeffs
    assert np.max(np.abs(c - np.conj(np.flip(c)))) < 1e-15
    vals = f.values_on_grid(32)
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
