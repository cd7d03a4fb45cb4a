"""Bivariate polynomial containers with angle-dependent coefficients and the
reduced map/field holders built from them."""

import numpy as np
import pytest

from paratori.applications import (_inverse_change, _pulled_back,
                                   _xy_identity)
from paratori.errors import StructureViolation
from paratori.fourier import AngleBatch, FourierSeries, on_box
from paratori.jets import JetStack, TableStack, TFJet, UPoly, substitute
from paratori.mapdata import TaylorFourierMap, XYPoly
from paratori.pairs import ManifoldPair

from conftest import (GOLDEN, dense_series, mode_sum, one_mode, reference_map,
                      shear_example, table_values)


def test_xypoly_eval_and_arithmetic():
    cut = 4
    p = XYPoly(1, cut, 5)
    p.set_coefficient((2, 0), one_mode(1.0, 0.2, 1, cut))
    p.set_coefficient((0, 1), 3.0)
    q = p + p.scale(0.5)
    x, y, th = 0.3, -0.2, np.array([0.1])
    want = 1.5 * ((1 + 0.2 * np.cos(2 * np.pi * 0.1)) * x**2 + 3 * y)
    assert abs(TableStack([q]).eval(x, y, th)[0] - want) < 1e-14


def test_xypoly_eval_matches_per_coefficient_sums():
    # complex x, y and complexified angles against sum s_lm(ang) x^l y^m with
    # each coefficient summed mode by mode; scalars give a 0-d array
    rng = np.random.default_rng(4)
    cut = 6
    p = XYPoly(1, cut, 4, {lm: dense_series(rng, 1, cut)
                           for lm in ((0, 0), (2, 0), (1, 1), (0, 3))})
    x = np.array([[0.3 + 0.2j, -0.1], [0.05j, 0.4]])
    y = np.array([-0.2 + 0.1j, 0.3j])
    ang = rng.random((2, 2, 1)) + 1e-3j * rng.uniform(-1, 1, (2, 2, 1))
    want = sum(mode_sum(s, ang) * x**l * y**m for (l, m), s in p.terms.items())
    scale = sum(s.coeff_norm() for s in p.terms.values())
    got = TableStack([p]).eval(x, y, ang)[0]
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    (point,) = TableStack([p]).eval(x[0, 0], y[0], ang[0, 0])
    assert point.shape == () and np.iscomplexobj(point)
    assert abs(point - want[0, 0]) <= 1e-13 * scale


def stack_tables(rng, dim, cut):
    """Term tables on one box: several terms with l and m both > 0, a
    float coefficient, an empty table and one-term tables."""
    return [XYPoly(dim, cut, 5, {(0, 0): dense_series(rng, dim, cut),
                                 (2, 1): dense_series(rng, dim, cut),
                                 (1, 3): 0.75}),
            XYPoly(dim, cut, 3),
            XYPoly(dim, cut, 4, {(3, 1): dense_series(rng, dim, cut)}),
            XYPoly(dim, cut, 2, {(0, 2): -1.25}),
            XYPoly(dim, cut, 2, {(1, 1): dense_series(rng, dim, cut),
                                 (2, 0): dense_series(rng, dim, cut)})]


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("complex_inputs", [False, True],
                         ids=["real", "complex"])
def test_table_stack_rows_are_each_tables_own_eval(dim, complex_inputs):
    # one stacked evaluation per angle batch gives every table bit for bit
    # the values of a stack of it alone on the same batch, the empty table
    # zeros
    rng = np.random.default_rng(20 + dim)
    tables = stack_tables(rng, dim, 3)
    x = rng.uniform(-0.4, 0.4, (3, 4, 5))
    y = rng.uniform(-0.4, 0.4, (3, 4, 5))
    theta = rng.random((3, 4, 5, dim))
    if complex_inputs:
        x = x + 1j * rng.uniform(-0.4, 0.4, x.shape)
        y = y * np.exp(1j * rng.uniform(-1, 1, y.shape))
        theta = theta + 2e-3j * rng.uniform(-1, 1, theta.shape)
    batch = AngleBatch(theta, dim)
    got = TableStack(tables).eval(x, y, batch)
    assert len(got) == len(tables) and not got[1].any()
    for row, table in zip(got, tables):
        own = TableStack([table]).eval(x, y, AngleBatch(theta, dim))[0]
        assert row.shape == own.shape == (3, 4, 5)
        assert np.iscomplexobj(row) == complex_inputs
        assert row.dtype == own.dtype and row.tobytes() == own.tobytes()
        want = sum((mode_sum(on_box(s, dim, 3), theta) * x**l * y**m
                    for (l, m), s in table.terms.items()), np.zeros(x.shape))
        scale = sum(s.coeff_norm() for s in table.terms.values())
        assert np.max(np.abs(row - want), initial=0.0) <= 1e-13 * scale
        # a scalar point gives a 0-d array
        (point,) = TableStack([table]).eval(x[0, 0, 0], y[0, 0, 0],
                                            theta[0, 0, 0])
        assert point.shape == () and np.iscomplexobj(point) == complex_inputs
        assert abs(point - want[0, 0, 0]) <= 1e-13 * max(scale, 1.0)


def test_table_stack_finds_its_band_once(monkeypatch):
    # the stack is cut to its occupied band when it is built; evaluating it
    # searches no band
    rng = np.random.default_rng(7)
    stack = TableStack(stack_tables(rng, 1, 4))
    monkeypatch.setattr(np, "argwhere", None)
    vals = stack.eval(0.1, 0.2, rng.random((6, 1)))
    assert [v.shape for v in vals] == [(6,)] * 5


def test_xypoly_mul_numeric():
    cut = 2
    a = XYPoly(1, cut, 6, {(1, 0): 2.0, (0, 1): 1.0})
    b = XYPoly(1, cut, 6, {(1, 1): 1.0, (0, 0): -0.5})
    prod = a * b
    x, y = 0.2, 0.4
    vals = TableStack([prod, a, b]).eval(x, y, np.array([0.0]))
    assert abs(vals[0] - vals[1] * vals[2]) < 1e-14


def test_xypoly_derivatives():
    q = XYPoly(1, 4, 4, {(1, 0): one_mode(0.0, 1.0, 1, 4)})
    # d/dtheta cos(2 pi theta) at theta = 0.25 is -2 pi
    (got,) = TableStack([q.diff_theta(0)]).eval(1.0, 0.0, np.array([0.25]))
    assert abs(got + 2 * np.pi) < 1e-12


def test_xypoly_subst_numeric():
    cut, deg = 2, 8
    p = XYPoly(1, cut, deg, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 0.5})
    px = XYPoly(1, cut, deg, {(1, 0): 1.0, (0, 2): 0.3})
    py = XYPoly(1, cut, deg, {(0, 1): 1.0, (2, 0): -0.1})
    comp = p.subst(px, py)
    x, y = 0.05, 0.04
    inner_x, inner_y, got = TableStack([px, py, comp]).eval(
        x, y, np.array([0.0]))
    (direct,) = TableStack([p]).eval(inner_x, inner_y, np.array([0.0]))
    assert abs(got - direct) < 1e-10 * max(1, abs(direct))


def to_jet(p, jx, jy, tails, trunc):
    """p at u-jets (x -> jx, y -> jy, theta_a -> theta_a + W_a)."""
    return substitute([p.terms], jx, jy, tails, trunc)[0]


def test_xypoly_to_jet_numeric():
    cut, trunc = 4, 8
    p = XYPoly(1, cut, 6, {(2, 0): one_mode(1.0, 0.4, 1, cut), (0, 1): 2.0})
    jx = TFJet(1, cut, trunc, {2: FourierSeries.constant(1.0, 1, cut)})
    jy = TFJet(1, cut, trunc, {3: FourierSeries.constant(-2.0, 1, cut)})
    w = TFJet(1, cut, trunc, {1: FourierSeries.constant(-1.0, 1, cut)})
    jet = to_jet(p, jx, jy, [w], trunc)
    u, t = 1e-2, 0.37
    xv, yv, tv = u**2, -2 * u**3, t - u
    want = (1 + 0.4 * np.cos(2 * np.pi * tv)) * xv**2 + 2 * yv
    got = JetStack([jet]).eval_grid(np.array([u]), np.array([[t]]))[0, 0, 0]
    assert abs(got - want) < 1e-13 + 100 * u ** (trunc + 1)


def test_inverse_change_round_trip():
    # the mode box must hold the full product spectrum of the composition
    # (degree-8 terms mix up to 7 copies of the mode-1 coefficient)
    cut, deg = 8, 8
    h = XYPoly(1, cut, deg)
    h.set_coefficient((0, 2), one_mode(1.0, 0.3, 1, cut))
    h.set_coefficient((1, 1), 0.2)
    inv = _inverse_change(h, deg)
    xid = _xy_identity(1, cut, deg, "x")
    yid = _xy_identity(1, cut, deg, "y")
    fwd = yid + h
    for first, second in ((fwd, inv), (inv, fwd)):
        resid = second.subst(xid, first) - yid
        for lm, s in resid.terms.items():
            if sum(lm) <= deg:
                # coefficients grow like Catalan numbers; 1e-11 is roundoff
                assert s.coeff_norm() < 1e-11, lm


def test_reduced_map_validates_reference():
    mp = reference_map(cut=8)
    mp.validate_reduced()
    assert mp.k == 2 and mp.p == 1
    assert abs(mp.shear().average() - 1.0) < 1e-15


def test_reduced_map_rejects_low_order_dirt():
    cut = 4
    good = dict(x_terms={(0, 1): 1.0}, y_terms={(2, 0): 6.0},
                theta_terms=[{(1, 0): 1.0}])
    mp = TaylorFourierMap("map", 1, 0, cut, (GOLDEN,),
                          {(0, 1): 1.0, (1, 0): 0.1}, good["y_terms"],
                          good["theta_terms"], k=2, p=1)
    with pytest.raises(StructureViolation):
        mp.validate_reduced()
    mp = TaylorFourierMap("map", 1, 0, cut, (GOLDEN,),
                          good["x_terms"], {(2, 0): 6.0, (1, 0): 0.1},
                          good["theta_terms"], k=2, p=1)
    with pytest.raises(StructureViolation):
        mp.validate_reduced()
    # order hypothesis: k = 4 with p = 1 violates 2p > k - 1
    mp = TaylorFourierMap("map", 1, 0, cut, (GOLDEN,),
                          good["x_terms"], {(4, 0): 6.0},
                          good["theta_terms"], k=4, p=1)
    with pytest.raises(StructureViolation):
        mp.validate_reduced()


def test_drive_only_field_needs_no_angle_structure():
    # with no dynamic angles the angle-part condition is vacuous
    fd = TaylorFourierMap("field", 0, 1, 4, (np.sqrt(2),),
                          {(0, 1): 1.0},
                          {(2, 0): one_mode(6.0, 0.5, 1, 4)},
                          [], k=2, p=None)
    fd.validate_reduced()


def test_transformed_field_is_numeric_conjugation():
    fd = shear_example()
    tf = fd.transformed_field(sx=1, sy=-1, time_sign=-1)
    x, y, th = 0.2, 0.3, np.array([0.15])
    fx, fy, *fth = table_values(fd, x, -y, th)
    gx, gy, *gth = table_values(tf, x, y, th)
    assert abs(gx - (-1) * fx) < 1e-14
    assert abs(gy - (-1) * (-1) * fy) < 1e-14
    assert np.max(np.abs(np.add(gth, fth))) < 1e-14
    assert tf.freqs == tuple(-w for w in fd.freqs)


def test_transformed_field_involution():
    fd = reference_map(cut=8)
    fd = TaylorFourierMap("field", fd.d, fd.drive, fd.cut, fd.freqs,
                          fd.x_terms.terms, fd.y_terms.terms,
                          [t.terms for t in fd.theta_terms], k=2, p=1)
    once = fd.transformed_field(1, -1, -1)
    twice = once.transformed_field(1, -1, -1)
    x, y, th = 0.1, -0.2, np.array([0.63])
    a = table_values(fd, x, y, th)
    b = table_values(twice, x, y, th)
    assert abs(a[0] - b[0]) < 1e-14 and abs(a[1] - b[1]) < 1e-14
    assert np.max(np.abs(np.subtract(a[2:], b[2:]))) < 1e-14
    assert once.freqs == tuple(-w for w in fd.freqs)
    assert twice.freqs == fd.freqs


def test_inverse_change_pullback():
    # _pulled_back carries the vertical jet through the inverse change by
    # one substitute call and leaves the other jets as they are
    cut, deg, trunc = 4, 6, 7
    h = XYPoly(1, cut, deg, {(0, 2): 1.0})
    jx = TFJet(1, cut, trunc, {2: FourierSeries.constant(1.0, 1, cut)})
    jy_new = TFJet(1, cut, trunc, {2: FourierSeries.constant(0.5, 1, cut)})
    tails = [TFJet(1, cut, trunc)]
    pair = ManifoldPair("field", "shear", "stable", cut, trunc, 2, None,
                        None, (GOLDEN,), 1, 0, jx, jy_new, tails,
                        UPoly({2: -1.0}, trunc))
    out = _pulled_back(pair, _inverse_change(h, deg))
    assert out.x.terms == jx.terms and out.diagnostics["wall_coordinates"]
    back = out.y
    # y = y_new - y_new^2 + 2 y_new^3 - ... evaluated on the jet
    u = 0.05
    y_new = 0.5 * u**2
    direct = JetStack([back]).eval_grid(np.array([u]),
                                        np.array([[0.0]]))[0, 0, 0]
    series = y_new - y_new**2 + 2 * y_new**3
    assert abs(direct - series) < 1e-12


def test_displacement_guard_and_absent_displacements():
    # a displacement must vanish at the origin, for polynomial and jet
    # substitution alike; None and a zero displacement mean none
    cut, deg = 4, 6
    p = XYPoly(1, cut, deg, {(2, 0): one_mode(1.0, 0.4, 1, cut), (0, 1): 2.0})
    px, py = _xy_identity(1, cut, deg, "x"), _xy_identity(1, cut, deg, "y")
    with pytest.raises(StructureViolation):
        p.subst(px, py, [XYPoly(1, cut, deg, {(0, 0): 0.1, (1, 0): 1.0})])
    jx = TFJet(1, cut, deg, {2: 1.0})
    jy = TFJet(1, cut, deg, {3: -2.0})
    with pytest.raises(StructureViolation):
        to_jet(p, jx, jy, [TFJet(1, cut, deg, {0: 0.1, 1: -1.0})], deg)

    def same(a, b):
        return set(a.terms) == set(b.terms) and all(
            np.array_equal(a.terms[key].coeffs, b.terms[key].coeffs)
            for key in a.terms)

    plain = p.subst(px, py)
    for tails in ([None], [XYPoly(1, cut, deg)]):
        assert same(p.subst(px, py, tails), plain)
    assert set(plain.terms) == set(p.terms)
    for key, s in p.terms.items():
        assert (plain.terms[key] - s).coeff_norm() < 1e-13
    jet = to_jet(p, jx, jy, [], deg)
    for tails in ([None], [TFJet(1, cut, deg)]):
        assert same(to_jet(p, jx, jy, tails, deg), jet)
