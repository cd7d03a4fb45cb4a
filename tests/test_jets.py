"""Truncated power series in the radial variable, scalar and with
trigonometric-polynomial coefficients."""

import numpy as np

from paratori.fourier import FourierSeries
from paratori.jets import JetStack, TFJet, UPoly

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


def test_jet_mul_and_eval_grid():
    cut, trunc = 4, 6
    c1 = FourierSeries.from_modes({(1,): 0.5}, 1, cut)
    a = TFJet(1, cut, trunc, {1: c1, 2: FourierSeries.constant(2.0, 1, cut)})
    b = TFJet(1, cut, trunc, {1: FourierSeries.constant(1.0, 1, cut)})
    prod = a * b
    u = np.array([0.05])
    th = np.array([[0.3]])
    got = prod.eval_grid(u, th)[0, 0]
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
        got = jet.eval_grid(u, theta)
        assert got.shape == (3, 4)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    zero = TFJet(2, cut, trunc)
    stacked = JetStack([a, zero, b]).eval_grid(u, theta)
    assert stacked.shape == (3, 3, 4) and not stacked[1].any()
    for got, jet in ((stacked[0], a), (stacked[2], b)):
        want = jet.eval_grid(u, theta)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
    got = comp.eval_grid(np.array([u]), np.array([[t]]))[0, 0]
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
    got = shifted.eval_grid(np.array([u]), np.array([[t]]))[0, 0]
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


