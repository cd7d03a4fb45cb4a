"""Truncated power series in the radial variable, scalar and with
trigonometric-polynomial coefficients."""

import math

import numpy as np
import pytest

from paratori import fourier, jets
from paratori.errors import DimensionMismatch, StructureViolation
from paratori.fourier import FourierSeries
from paratori.jets import (JetStack, TFJet, UPoly, angle_taylor, multiply,
                           substitute)
from paratori.mapdata import XYPoly

from conftest import GOLDEN, dense_series, mode_sum


def test_upoly_mul_matches_convolution():
    a = UPoly({1: 2.0, 3: -1.0}, 8)
    b = UPoly({2: 0.5, 4: 3.0}, 8)
    c = a.mul(b)
    # coefficients by hand: u^3: 1.0, u^5: 6.0 - 0.5, u^7: -3.0
    assert abs(c.coeff(3) - 1.0) < 1e-15
    assert abs(c.coeff(5) - 5.5) < 1e-15
    assert abs(c.coeff(7) + 3.0) < 1e-15
    assert c.coeff(9) == 0.0  # beyond truncation


def test_upoly_eval_scalar_and_array():
    p = UPoly({1: 1.0, 2: -1.0}, 6)
    assert abs(p(0.1) - 0.09) < 1e-16
    z = np.array([0.1, 0.2 + 0.1j])
    vals = p(z)
    assert np.allclose(vals, z - z * z)


def upoly_value_by_the_old_loop(p, u):
    """sum_n a_n u^n as a fresh zero array plus one new array per term."""
    u = np.asarray(u)
    out = np.zeros(u.shape, dtype=np.result_type(u, float))
    for n, a in p.terms.items():
        out = out + a * u**n
    if out.ndim:
        return out
    return complex(out) if np.iscomplexobj(out) else float(out)


def test_upoly_call_keeps_every_bit_of_the_term_by_term_sum():
    # the in-place evaluation adds the same terms in the same order to a
    # sum that starts at zero: bit for bit the old loop's values, signed
    # zeros, infinities and NaNs included, and a float or a complex for a
    # scalar
    rng = np.random.default_rng(12)
    specials = np.array([0.0, -0.0, 1e-310, -2.5, np.inf, -np.inf, np.nan])
    polys = [UPoly({1: 1.0, 2: -1.0}, 12),
             UPoly({0: 0.5, 1: 1.0, 2: -6.2, 3: 1.3e-3, 7: 2.5}, 12),
             UPoly({3: -1.0}, 5), UPoly({0: -2.0}, 4), UPoly({}, 3)]
    # every complex value of the specials as its real and imaginary part
    grid = np.empty((7, 7), dtype=complex)
    grid.real, grid.imag = specials[:, None], specials
    points = [rng.standard_normal(50) * 0.3,
              rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)),
              specials, grid.ravel(), np.arange(-3, 4), 0.3, -0.0,
              0.2 - 0.1j, complex(-0.0, 0.0), np.float64(-0.7),
              np.complex128(1j), np.array(0.5), 2]
    with np.errstate(invalid="ignore", over="ignore"):
        for p in polys:
            for u in points:
                want = upoly_value_by_the_old_loop(p, u)
                got = p(u)
                assert type(got) is type(want)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.shape == want.shape
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_jet_mul_and_eval_grid():
    cut, trunc = 4, 6
    c1 = FourierSeries.from_modes({(1,): 0.5}, 1, cut)
    a = TFJet(1, cut, trunc, {1: c1, 2: FourierSeries.constant(2.0, 1, cut)})
    b = TFJet(1, cut, trunc, {1: FourierSeries.constant(1.0, 1, cut)})
    prod = a * b
    u = np.array([0.05])
    th = np.array([[0.3]])
    got = JetStack([prod]).eval_grid(u, th)[0, 0, 0]
    want = (0.05 * np.cos(2 * np.pi * 0.3) + 2.0 * 0.05 ** 2) * 0.05
    assert abs(got - want) < 1e-14


def test_eval_grid_matches_per_coefficient_sums():
    # complex u and complexified angles on a 2-torus, against the sum over
    # orders of u^n times each coefficient's per-mode sum; a stack of jets
    # (one of them zero) gives every jet's own values
    rng = np.random.default_rng(3)
    cut, trunc = 5, 6
    a = TFJet(2, cut, trunc, {n: dense_series(rng, 2, cut) for n in (0, 2, 5)})
    b = TFJet(2, cut, trunc, {1: dense_series(rng, 2, cut)})
    u = np.array([0.3 + 0.1j, -0.2j, 0.5])
    theta = rng.random((4, 2)) + 1e-3j * rng.uniform(-1, 1, (4, 2))
    for jet in (a, b):
        want = sum(np.multiply.outer(u ** n, mode_sum(s, theta))
                   for n, s in jet.terms.items())
        scale = sum(s.coeff_norm() for s in jet.terms.values())
        got = JetStack([jet]).eval_grid(u, theta)[0]
        assert got.shape == (3, 4)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    zero = TFJet(2, cut, trunc)
    stacked = JetStack([a, zero, b]).eval_grid(u, theta)
    assert stacked.shape == (3, 3, 4) and not stacked[1].any()
    for got, jet in ((stacked[0], a), (stacked[2], b)):
        want = JetStack([jet]).eval_grid(u, theta)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("complex_inputs", [False, True],
                         ids=["real", "complex"])
def test_jet_stack_contracts_each_jet_on_its_own_terms(complex_inputs):
    # a block of orbit steps: u of shape (steps, rows), each step with its
    # own angles of shape (steps, points, dim); jets of 3, 0, 1 and 2 terms
    # (the zero jet in the middle) give every jet its own values, and real
    # u and angles a real result
    rng = np.random.default_rng(11)
    dim, cut, trunc = 2, 3, 6
    stack = [TFJet(dim, cut, trunc, {n: dense_series(rng, dim, cut)
                                     for n in (1, 2, 6)}),
             TFJet(dim, cut, trunc),
             TFJet(dim, cut, trunc, {3: dense_series(rng, dim, cut)}),
             TFJet(dim, cut, trunc, {0: dense_series(rng, dim, cut),
                                     4: dense_series(rng, dim, cut)})]
    u = rng.uniform(0.1, 0.6, (4, 3))
    theta = rng.random((4, 5, dim))
    if complex_inputs:
        u = u * np.exp(1j * rng.uniform(-0.5, 0.5, u.shape))
        theta = theta + 1e-3j * rng.uniform(-1, 1, theta.shape)
    got = JetStack(stack).eval_grid(u, theta)
    assert got.shape == (4, 4, 3, 5)
    assert np.iscomplexobj(got) == complex_inputs
    assert not got[1].any()
    for row, jet in zip(got, stack):
        own = JetStack([jet]).eval_grid(u, theta)[0]
        assert own.dtype == row.dtype
        assert np.max(np.abs(row - own)) <= 1e-14 * np.max(np.abs(own),
                                                             initial=0.0)
        want = sum(u[..., None] ** n * mode_sum(s, theta)[:, None]
                   for n, s in jet.terms.items())
        scale = sum(s.coeff_norm() for s in jet.terms.values())
        assert np.max(np.abs(row - want)) <= 1e-13 * scale


def test_jet_stack_finds_its_band_once(monkeypatch):
    # the stack is cut to its occupied band when it is built; evaluating it
    # searches no band
    rng = np.random.default_rng(13)
    jets = [TFJet(1, 4, 6, {n: dense_series(rng, 1, 4) for n in (1, 3)}),
            TFJet(1, 4, 6, {2: dense_series(rng, 1, 4)})]
    stack = JetStack(jets)
    monkeypatch.setattr(np, "argwhere", None)
    assert stack.eval_grid(np.array([0.1, 0.2]), rng.random((3, 1))).shape == (
        2, 2, 3)


def test_jet_compose_inner_numeric():
    cut, trunc = 4, 8
    osc = FourierSeries.from_modes({(1,): 0.25}, 1, cut)
    jet = TFJet(1, cut, trunc, {2: FourierSeries.constant(1.0, 1, cut) + osc,
                                3: FourierSeries.constant(-0.5, 1, cut)})
    r = UPoly({1: 1.0, 2: -1.0}, trunc)
    comp = jet.compose_inner(r)
    u, t = 3e-3, 0.62
    ru = r(u)
    want = (1.0 + 0.5 * np.cos(2 * np.pi * t)) * ru ** 2 - 0.5 * ru ** 3
    got = JetStack([comp]).eval_grid(np.array([u]), np.array([[t]]))[0, 0, 0]
    assert abs(got - want) < 1e-14 + 100 * u ** (trunc + 1)


def test_jet_compose_inner_with_angle_shift():
    # composing with the inner map may also advance the angles
    cut, trunc = 4, 6
    osc = FourierSeries.from_modes({(1,): 0.5}, 1, cut)
    jet = TFJet(1, cut, trunc, {2: osc})
    r = UPoly({1: 1.0}, trunc)
    shifted = jet.compose_inner(r, delta=np.array([GOLDEN]))
    u, t = 1e-2, 0.2
    want = np.cos(2 * np.pi * (t + GOLDEN)) * u ** 2
    got = JetStack([shifted]).eval_grid(np.array([u]),
                                        np.array([[t]]))[0, 0, 0]
    assert abs(got - want) < 1e-13


def test_jet_tail_and_orders():
    cut = 2
    jet = TFJet(1, cut, 9, {2: FourierSeries.constant(1.0, 1, cut),
                            5: FourierSeries.constant(3.0, 1, cut),
                            7: FourierSeries.constant(-1.0, 1, cut)})
    assert jet.min_order == 2 and jet.orders()[-1] == 7
    t = jet.tail(5)
    assert t.orders() == [5, 7]


def test_jet_derivative_and_theta_derivative():
    cut = 4
    osc = FourierSeries.from_modes({(1,): 0.5}, 1, cut)
    jet = TFJet(1, cut, 6, {3: osc})
    du = jet.derivative_u()
    assert du.orders() == [2]
    assert abs(du.coefficient(2).eval(np.array([0.0])) - 3.0) < 1e-14
    dth = jet.diff_theta(0)
    # d/dtheta cos(2 pi theta) = -2 pi sin(...)
    got = dth.coefficient(3).eval(np.array([0.25]))
    assert abs(got + 2 * np.pi) < 1e-12




def test_jets_share_their_series():
    cut, trunc = 4, 6
    s1 = FourierSeries.from_modes({(1,): 0.5}, 1, cut)
    s2 = FourierSeries.constant(2.0, 1, cut)
    s3 = FourierSeries.constant(-1.0, 1, cut)
    a = TFJet(1, cut, trunc, {1: s1, 2: s2})
    b = TFJet(1, cut, trunc, {3: s3})
    assert a.coefficient(1) is s1
    assert a.copy().terms[2] is s2 and a.copy().terms is not a.terms
    total = a + b
    assert total.terms[1] is s1 and total.terms[2] is s2 and total.terms[3] is s3
    assert a.tail(2).terms == {2: s2} and a.tail(2).terms[2] is s2


def same_poly(a, b):
    """Two polynomials with the same exponents and equal coefficient arrays."""
    return set(a.terms) == set(b.terms) and all(
        np.array_equal(a.terms[key].coeffs, b.terms[key].coeffs)
        for key in a.terms)


def product_pair_by_pair(p, q):
    """The truncated product one coefficient pair at a time: each a * b
    added to the series of its exponent, and a sum that is exactly zero
    dropped, so the next pair starts its exponent again at the end of the
    table.  The oracle of the stacked product, on series sums alone."""
    trunc = min(p.trunc, q.trunc)
    sums = {}
    for n, a in p.terms.items():
        for m, b in q.terms.items():
            if p._degree(n) + q._degree(m) <= trunc:
                key = p._add(n, m)
                s = a * b if key not in sums else sums[key] + a * b
                if s.is_zero():
                    sums.pop(key, None)
                else:
                    sums[key] = s
    out = p._empty(trunc)
    out.terms = sums
    return out


def product_cases(rng):
    """Pairs of polynomials: jets on dims 0-2 with constant coefficients
    (a dim-0 jet on cut 3 too: its series sit on the one-mode box, cut 0),
    a product with exact cancellations (a partial sum of exponent 3 is 0
    before a last term lands on it), a one-pair product, and XYPolys."""
    s, c = dense_series(rng, 1, 4), FourierSeries.constant(0.5, 1, 4)
    cases = [
        (TFJet(dim, cut, 7, {n: dense_series(rng, dim, cut) for n in (0, 1, 3)}),
         TFJet(dim, cut, 6, {1: dense_series(rng, dim, cut), 2: 1.5, 4: -2.0}))
        for dim, cut in ((0, 0), (0, 3), (1, 6), (2, 2))]
    cases.append((TFJet(1, 4, 8, {1: s, 2: s, 0: c}),
                   TFJet(1, 4, 8, {2: -s, 1: s, 3: dense_series(rng, 1, 4)})))
    cases.append((TFJet(1, 4, 8, {2: s}), TFJet(1, 4, 8, {3: c})))
    xy = [XYPoly(2, 3, 4, {lm: dense_series(rng, 2, 3) for lm in keys})
          for keys in ([(0, 1), (1, 0), (1, 1), (0, 3)], [(1, 0), (2, 0), (0, 2)])]
    cases.append(tuple(xy))
    return cases


def recorded_stacks(monkeypatch):
    """Every coefficient stack that ``jets`` gets from ``fourier._products``,
    in the order they come."""
    stacks = []

    def recorded(lefts, rights, dim, cut):
        for stack in fourier._products(lefts, rights, dim, cut):
            stacks.append(stack)
            yield stack

    monkeypatch.setattr(jets, "_products", recorded)
    return stacks


def assert_same_products(got, want, stacks):
    """Same class, truncation and exponents in the same order, coefficients
    equal to the last bit (signed zeros included), and no stored series a
    view into a stack."""
    assert type(got) is type(want) and got.trunc == want.trunc
    assert list(got.terms) == list(want.terms)
    for key, s in got.terms.items():
        assert s.coeffs.tobytes() == want.terms[key].coeffs.tobytes()
        assert not s.coeffs.flags.writeable
        assert not any(np.shares_memory(s.coeffs, st) for st in stacks)


def test_products_are_the_pair_by_pair_sums_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(23)
    stacks = recorded_stacks(monkeypatch)
    cases = product_cases(rng)
    for p, q in cases:
        assert_same_products(p * q, product_pair_by_pair(p, q), stacks)
    assert len(stacks) == len(cases) - 1


@pytest.mark.parametrize("rows", [None, 2])
def test_multiply_is_the_pair_by_pair_products(monkeypatch, rows):
    # one batch per class and box gives each pair's own product, also when
    # the rows run in stacks of two
    rng = np.random.default_rng(23)
    stacks = recorded_stacks(monkeypatch)
    if rows is not None:
        monkeypatch.setattr(fourier, "_stack_rows", lambda dim, cut: rows)
    batches = {}
    for p, q in product_cases(rng):
        batches.setdefault((type(p), p.dim, p.cut), []).append((p, q))
    for pairs in batches.values():
        for got, (p, q) in zip(multiply(pairs), pairs, strict=True):
            assert_same_products(got, product_pair_by_pair(p, q), stacks)
    # every coefficient pair is one row, except the one-pair product's:
    # that is a * b, outside any stack of this module
    pair_rows = [sum(p._degree(n) + q._degree(m) <= min(p.trunc, q.trunc)
                     for n in p.terms for m in q.terms)
                 for pairs in batches.values() for p, q in pairs]
    assert sum(len(st) for st in stacks) == sum(n for n in pair_rows if n > 1)
    if rows is not None:
        assert max(len(st) for st in stacks) == rows
    other_box = TFJet(1, 5, 4, {1: dense_series(rng, 1, 5), 2: 0.5})
    for pairs in batches.values():
        with pytest.raises(DimensionMismatch):
            multiply(pairs + [(other_box, other_box)])


@pytest.mark.parametrize("other_box", [(1, 0), (0, 4), (1, 5), (2, 4)])
def test_sums_need_one_box(other_box):
    # + and - refuse a polynomial on another box, a one-mode one too
    # (whose constant numpy would otherwise add to every mode), on shared
    # and disjoint exponents alike
    rng = np.random.default_rng(31)
    dim, cut = other_box
    a = TFJet(1, 4, 3, {1: dense_series(rng, 1, 4)})
    for key in (1, 2):
        b = TFJet(dim, cut, 3, {key: dense_series(rng, dim, cut)})
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(DimensionMismatch):
                op(a, b)
            with pytest.raises(DimensionMismatch):
                op(b, a)


def test_multiply_with_zero_products(monkeypatch):
    # a product is zero when an operand is, when truncation drops every
    # pair, or when its exponents cancel exactly; a batch of such products
    # makes no stack, and zeros in a batch leave the others unchanged
    rng = np.random.default_rng(29)
    stacks = recorded_stacks(monkeypatch)
    s, c = dense_series(rng, 1, 3), dense_series(rng, 1, 3)
    zero, high = TFJet(1, 3, 6), TFJet(1, 3, 6, {4: s, 5: c})
    cancel = (TFJet(1, 3, 3, {1: s, 2: s}), TFJet(1, 3, 3, {2: c, 1: -c}))
    zeros = [(zero, high), (high, zero), (zero, zero), (high, high)]
    got = multiply(zeros)
    assert [p.is_zero() for p in got] == [True] * 4 and not stacks
    assert [p.trunc for p in got] == [6] * 4
    mixed = [zeros[0], cancel, (high, TFJet(1, 3, 6, {1: c, 2: s})), zeros[3]]
    got = multiply(mixed)
    assert got[0].is_zero() and got[3].is_zero() and len(stacks) == 1
    assert 3 not in got[1].terms and list(got[1].terms) == [2]
    for p, (a, b) in zip(got, mixed):
        assert_same_products(p, product_pair_by_pair(a, b), stacks)


def test_a_sum_restarted_after_an_exact_zero_keeps_a_negative_zero():
    # three rows on one exponent: the first two cancel exactly, so the sum
    # is dropped and the third starts it again, keeping the -0.0 it carries
    # (added to the zero sum it would read +0.0); for sums of series, of
    # stacked products, of Taylor terms and of the two u-products
    rng = np.random.default_rng(53)
    cut, trunc = 2, 4
    x, y = dense_series(rng, 1, cut), dense_series(rng, 1, cut)
    # sin(2 pi theta) cos(4 pi theta) has mode 0 exactly -0.0
    a = FourierSeries.from_modes({(1,): 1j}, 1, cut)
    b = FourierSeries.from_modes({(2,): -1.0}, 1, cut)
    r = a * b
    assert r.coeffs[cut] == 0 and np.signbit(r.coeffs[cut].real)
    assert np.count_nonzero(r.coeffs) and not np.signbit(0.0 + r.coeffs[cut].real)

    def jet(*series):
        return TFJet(1, cut, trunc, dict(enumerate(series)))

    jet_x = TFJet(1, cut, trunc, {1: x})
    jet_x.add_to_coefficient(1, -x)
    jet_x.add_to_coefficient(1, r)
    three_rows = [
        ((jet(0, x) + jet(0, -x)) + jet(0, r)).terms[1],
        jet_x.terms[1],
        (jet(x, -x, a) * jet(b, y, y)).terms[2],
        multiply([(jet(x, -x, a), jet(b, y, y))])[0].terms[2],
        jets._taylor_sum([jet(0, x), jet(0, -x), jet(0, r)]).terms[1],
        jet(0, x, x * -0.5, r).compose_inner(
            UPoly({1: 1.0, 2: 1.0, 3: 1.0}, trunc)).terms[3],
        jet(x, -x, r).mul_upoly(UPoly({2: 1.0, 1: 1.0, 0: 1.0}, trunc)).terms[2],
    ]
    for s in three_rows:
        assert np.signbit(s.coeffs[cut].real) and s.coeffs[cut] == 0
        assert np.count_nonzero(s.coeffs)


def test_a_series_no_row_reaches_keeps_its_identity():
    # a sum shares the series that no row adds to, with the spectrum they
    # cached in a product, and rebuilds only the sums
    rng = np.random.default_rng(59)
    s0, s1, t = (dense_series(rng, 1, 4) for _ in range(3))
    s0 * s1
    spectra = s0._spec, s1._spec
    a = TFJet(1, 4, 6, {0: s0, 1: s1})
    b = TFJet(1, 4, 6, {1: t, 3: t})
    for total in (a + b, a - b):
        assert total.terms[0] is s0 and total.terms[1] is not s1
        assert list(total.terms) == [0, 1, 3]
    assert (a + b).terms[3] is t
    a.add_to_coefficient(3, t)
    assert a.terms[0] is s0 and a.terms[1] is s1 and a.terms[3] is t
    a.add_to_coefficient(0, t)
    assert a.terms[0] is not s0 and a.terms[1] is s1
    assert (s0._spec, s1._spec) == spectra and list(a.terms) == [0, 1, 3]


def test_sums_leave_out_the_terms_above_their_truncation():
    # a sum is truncated at the lower truncation of its terms: a term above
    # it is left out, not summed, whichever operand or Taylor term holds it
    rng = np.random.default_rng(61)
    s, t, u = (dense_series(rng, 1, 3) for _ in range(3))
    high, low = TFJet(1, 3, 5, {1: s, 4: t, 5: u}), TFJet(1, 3, 3, {1: t, 3: u})
    for total in (high + low, low + high, high - low):
        assert total.trunc == 3 and list(total.terms) in ([1, 3], [3, 1])
    assert (high + low).terms[3] is u and (low + high).terms[3] is u
    p = XYPoly(1, 3, 4, {(2, 2): s, (1, 0): t})
    q = XYPoly(1, 3, 3, {(0, 1): u, (1, 0): s})
    assert list((p + q).terms) == [(1, 0), (0, 1)]
    taylor = jets._taylor_sum([high, low])
    assert taylor.trunc == 3 and list(taylor.terms) == [1, 3]
    high.add_to_coefficient(6, s)
    assert list(high.terms) == [1, 4, 5]
    with pytest.raises(DimensionMismatch):
        high.add_to_coefficient(6, dense_series(rng, 1, 2))


def assert_own_series(s, stacks=()):
    """A series as the algebra must return it: read-only, on the box of its
    own coefficient shape, and no view of a stack of products."""
    assert not s.coeffs.flags.writeable
    assert s.coeffs.ndim == s.dim
    assert s.coeffs.shape == (2 * s.cut + 1,) * s.dim
    assert not any(np.shares_memory(s.coeffs, st) for st in stacks)


@pytest.mark.parametrize("dim,cut", [(0, 0), (0, 3), (1, 0), (1, 6), (2, 2)])
def test_the_algebra_returns_read_only_series_on_their_own_box(monkeypatch,
                                                               dim, cut):
    # sums, differences, negations, scalings, single and stacked products,
    # Taylor sums and derivatives: a dim-0 polynomial keeps its own cut,
    # its series carry the one-mode box of their shape
    rng = np.random.default_rng(41)
    stacks = recorded_stacks(monkeypatch)
    a = TFJet(dim, cut, 6, {n: dense_series(rng, dim, cut) for n in (0, 1, 3)})
    b = TFJet(dim, cut, 5, {1: dense_series(rng, dim, cut), 2: 1.5})
    x, y = a.terms[0], b.terms[1]
    got = [x + y, x - y, x + 1.0, 1.0 - x, -x, x * 2.0, x * y]
    polys = [a + b, a - b, -a, a.scale(0.5), a * b, a * 3.0,
             jets._taylor_sum([a, b, a * b])]
    polys += multiply([(a, b), (b, a), (a, a), (b, b.scale(2.0))])
    if dim:
        got += [x.diff(0), *x.derivatives(0, 4)]
        polys.append(a.diff_theta(dim - 1))
    assert stacks and polys[4].terms
    for p in polys:
        assert (p.dim, p.cut) == (dim, cut)
        got += p.terms.values()
    for s in got:
        assert_own_series(s, stacks)
        assert s.dim == dim and s.cut == (cut if dim else 0)


def jets_copy(p):
    """``p`` on fresh series with no cached spectrum."""
    return type(p)(p.dim, p.cut, p.trunc,
                   {key: FourierSeries(s.coeffs.copy(), symmetrize=False)
                    for key, s in p.terms.items()})


@pytest.mark.parametrize("rows", [None, 2])
def test_a_multiply_batch_transforms_its_operands_before_any_product(
        monkeypatch, rows):
    # every forward transform of a batch with several one-pair products is
    # a stacked one (of at most ``rows`` rows), made before the first
    # product, one row per distinct operand: the one-pair products (a * b,
    # outside the stacks) transform no operand of their own
    rng = np.random.default_rng(43)
    dim, cut = 1, 5
    jet = [TFJet(dim, cut, 6, {n: dense_series(rng, dim, cut)}) for n in (1, 2)]
    wide = TFJet(dim, cut, 6, {0: dense_series(rng, dim, cut),
                               1: dense_series(rng, dim, cut)})
    pairs = [(jet[0], jet[1]), (jet[1], jet[1]), (wide, jet[0]),
             (jet[1], TFJet(dim, cut, 6, {3: dense_series(rng, dim, cut)}))]
    want = [product_pair_by_pair(jets_copy(p), jets_copy(q)) for p, q in pairs]
    operands = {id(s) for pair in pairs for p in pair for s in p.terms.values()}
    events = []
    real_fft, real_products = np.fft.fft, fourier._products

    def fft(a, *args, **kwargs):
        events.append(("fft", len(a)))
        return real_fft(a, *args, **kwargs)

    def product(lefts, rights, dim, cut):
        events.append(("product", len(lefts)))
        return real_products(lefts, rights, dim, cut)

    monkeypatch.setattr(np.fft, "fft", fft)
    monkeypatch.setattr(fourier, "_products", product)
    monkeypatch.setattr(jets, "_products", product)
    if rows is not None:
        monkeypatch.setattr(fourier, "_stack_rows", lambda dim, cut: rows)
    got = multiply(pairs)
    monkeypatch.undo()
    for p, w in zip(got, want, strict=True):
        assert_same_products(p, w, ())
    ffts = [n for kind, n in events if kind == "fft"]
    # three one-pair products and one stack of the wide product's two rows
    assert [n for kind, n in events if kind == "product"] == [1, 1, 1, 2]
    assert [kind for kind, _ in events[:len(ffts)]] == ["fft"] * len(ffts)
    assert sum(ffts) == len(operands) == 5
    assert len(ffts) == (1 if rows is None else 3)


def test_substitutions_take_each_table_derivative_once(monkeypatch):
    # two substitutions on the same tables differentiate each table
    # coefficient once, along its displaced axis, and give bit for bit what
    # tables of fresh series give
    rng = np.random.default_rng(47)
    cut, trunc = 4, 6

    def tables():
        r = np.random.default_rng(5)
        return [{(0, 1): dense_series(r, 1, cut),
                 (2, 0): FourierSeries.constant(0.5, 1, cut),
                 (1, 1): dense_series(r, 1, cut)},
                {(1, 0): dense_series(r, 1, cut),
                 (0, 2): FourierSeries.constant(-1.0, 1, cut)}]

    px = TFJet(1, cut, trunc, {1: dense_series(rng, 1, cut), 2: 0.3})
    py = TFJet(1, cut, trunc, {2: dense_series(rng, 1, cut)})
    tails = [TFJet(1, cut, trunc, {1: dense_series(rng, 1, cut),
                                   3: dense_series(rng, 1, cut)})]
    shared = tables()
    calls = []
    real_diff = FourierSeries.diff

    def diff(self, axis):
        calls.append(self)
        return real_diff(self, axis)

    monkeypatch.setattr(FourierSeries, "diff", diff)
    first = substitute(shared, px, py, tails, trunc)
    # every table coefficient and each of its nonzero derivatives is
    # differentiated once, and the second substitution differentiates none
    coefficients = [s for t in shared for s in t.values()]
    assert {id(s) for s in coefficients} <= {id(s) for s in calls}
    assert len({id(s) for s in calls}) == len(calls) > len(coefficients)
    del calls[:]
    second = substitute(shared, px, py, tails, trunc)
    assert not calls
    monkeypatch.undo()
    fresh = substitute(tables(), px, py, tails, trunc)
    for got in (first, second):
        for p, want in zip(got, fresh, strict=True):
            assert_same_products(p, want, ())


def angle_taylor_term_by_term(poly, wp):
    """The expansion of one polynomial, one power of W at a time, as sums
    of scaled products: the oracle of the batched ``angle_taylor``."""
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


def test_angle_taylor_is_the_term_by_term_expansion(monkeypatch):
    # a dim-2 table displaced along both axes, one displacement truncated
    # lower than the table: dense, angle-constant and zero coefficients,
    # each expanded as alone, bit for bit, with one stack per axis
    rng = np.random.default_rng(31)
    dim, cut, trunc = 2, 2, 6
    terms = {(0, 1): dense_series(rng, dim, cut), (1, 0): 0.7,
             (1, 1): FourierSeries.from_modes({(0, 1): 0.5}, dim, cut),
             (0, 2): 0.0, (2, 1): dense_series(rng, dim, cut)}
    px = TFJet(dim, cut, trunc, {1: dense_series(rng, dim, cut), 2: 0.4})
    py = TFJet(dim, cut, trunc, {2: dense_series(rng, dim, cut)})
    tails = [TFJet(dim, cut, trunc, {1: dense_series(rng, dim, cut),
                                     2: dense_series(rng, dim, cut)}),
             TFJet(dim, cut, trunc - 2, {2: dense_series(rng, dim, cut),
                                         3: 0.3})]
    _, _, wp = jets._power_table(px, py, tails, trunc, [terms])
    polys = [px._constant(s, trunc) for _, s in sorted(terms.items())]
    stacks = recorded_stacks(monkeypatch)
    got = angle_taylor(polys, wp)
    assert len(stacks) == 2
    for p, want in zip(got, [angle_taylor_term_by_term(p, wp) for p in polys],
                       strict=True):
        assert_same_products(p, want, stacks)
    # the zero coefficient, sorted second, keeps the table's truncation
    assert got[1].is_zero() and got[1].trunc == trunc
    assert all(not p.is_zero() and p.trunc == trunc - 2
               for p in got[:1] + got[2:])
    # evaluating the table is one batch per stage: one per displaced axis,
    # then the products by px^l and by py^m
    powers = jets._power_table(px, py, tails, trunc, [terms])
    del stacks[:]
    jets.eval_xy_terms(terms, powers, trunc)
    assert len(stacks) == 2 + 2


def test_substitute_shares_its_power_table_bit_for_bit():
    # tables substituted together give, coefficient for coefficient, what
    # each gives on its own, at polynomials and at jets with a nonzero
    # angle displacement alike
    rng = np.random.default_rng(11)
    cut = 3
    tables = [
        {(0, 1): dense_series(rng, 1, cut), (0, 2): 0.5},
        {(1, 1): dense_series(rng, 1, cut), (2, 0): -1.0,
         (0, 3): dense_series(rng, 1, cut)},
        {(0, 0): 0.2, (1, 0): dense_series(rng, 1, cut)},
    ]
    at_polys = (XYPoly(1, cut, 5, {(1, 0): 1.0,
                                   (0, 2): dense_series(rng, 1, cut)}),
                XYPoly(1, cut, 5, {(0, 1): 1.0, (1, 1): 0.3}),
                [XYPoly(1, cut, 5, {(1, 0): dense_series(rng, 1, cut)})])
    at_jets = (TFJet(1, cut, 7, {1: dense_series(rng, 1, cut), 2: 0.4}),
               TFJet(1, cut, 7, {2: dense_series(rng, 1, cut)}),
               [TFJet(1, cut, 7, {1: dense_series(rng, 1, cut)})])
    for px, py, tails in (at_polys, at_jets):
        together = substitute(tables, px, py, tails, px.trunc)
        assert len(together) == len(tables)
        for terms, got in zip(tables, together):
            (alone,) = substitute([terms], px, py, tails, px.trunc)
            assert not got.is_zero() and same_poly(got, alone)


def test_substitute_refuses_a_constant_term():
    cut = 2
    moving = TFJet(1, cut, 4, {1: 1.0})
    offset = TFJet(1, cut, 4, {0: 0.1, 1: 1.0})
    for px, py in ((offset, moving), (moving, offset)):
        with pytest.raises(StructureViolation):
            substitute([{(1, 0): 1.0}], px, py, [], 4)
