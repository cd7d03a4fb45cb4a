"""Bivariate polynomial containers with angle-dependent coefficients and the
reduced map/field holders built from them."""

import numpy as np
import pytest

from paratori.errors import StructureViolation
from paratori.fourier import FourierSeries
from paratori.jets import TFJet
from paratori.map_solver import solve_to_order
from paratori.mapdata import (NormalizationRecord, TaylorFourierMap, XYPoly,
                              _inverse_change, _xy_identity,
                              reduce_general_field, reduce_general_map)

from conftest import GOLDEN, one_mode, reference_map, shear_example


def test_xypoly_eval_and_arithmetic():
    cut = 4
    p = XYPoly(1, cut, 5)
    p.set_coefficient((2, 0), one_mode(1.0, 0.2, 1, cut))
    p.set_coefficient((0, 1), 3.0)
    q = p + p.scale(0.5)
    x, y, th = 0.3, -0.2, np.array([0.1])
    want = 1.5 * ((1 + 0.2 * np.cos(2 * np.pi * 0.1)) * x**2 + 3 * y)
    assert abs(q.eval(x, y, th) - want) < 1e-14


def test_xypoly_mul_numeric():
    cut = 2
    a = XYPoly(1, cut, 6, {(1, 0): 2.0, (0, 1): 1.0})
    b = XYPoly(1, cut, 6, {(1, 1): 1.0, (0, 0): -0.5})
    prod = a * b
    x, y = 0.2, 0.4
    assert abs(prod.eval(x, y, np.array([0.0]))
               - a.eval(x, y, np.array([0.0])) * b.eval(x, y, np.array([0.0]))) < 1e-14


def test_xypoly_derivatives():
    p = XYPoly(1, 2, 6, {(3, 2): 2.0})
    assert abs(p.diff_x().eval(0.5, 0.5, np.array([0.0])) - 6 * 0.25 * 0.25) < 1e-14
    assert abs(p.diff_y().eval(0.5, 0.5, np.array([0.0])) - 4 * 0.125 * 0.5) < 1e-14
    q = XYPoly(1, 4, 4, {(1, 0): one_mode(0.0, 1.0, 1, 4)})
    # d/dtheta cos(2 pi theta) at theta = 0.25 is -2 pi
    got = q.diff_theta(0).eval(1.0, 0.0, np.array([0.25]))
    assert abs(got + 2 * np.pi) < 1e-12


def test_xypoly_subst_numeric():
    cut, deg = 2, 8
    p = XYPoly(1, cut, deg, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 0.5})
    px = XYPoly(1, cut, deg, {(1, 0): 1.0, (0, 2): 0.3})
    py = XYPoly(1, cut, deg, {(0, 1): 1.0, (2, 0): -0.1})
    comp = p.subst(px, py)
    x, y = 0.05, 0.04
    inner_x = px.eval(x, y, np.array([0.0]))
    inner_y = py.eval(x, y, np.array([0.0]))
    direct = p.eval(inner_x, inner_y, np.array([0.0]))
    assert abs(comp.eval(x, y, np.array([0.0])) - direct) < 1e-10 * max(1, abs(direct))


def test_xypoly_to_jet_numeric():
    cut, trunc = 4, 8
    p = XYPoly(1, cut, 6, {(2, 0): one_mode(1.0, 0.4, 1, cut), (0, 1): 2.0})
    jx = TFJet(1, cut, trunc, {2: FourierSeries.constant(1.0, 1, cut)})
    jy = TFJet(1, cut, trunc, {3: FourierSeries.constant(-2.0, 1, cut)})
    w = TFJet(1, cut, trunc, {1: FourierSeries.constant(-1.0, 1, cut)})
    jet = p.to_jet(jx, jy, [w], trunc)
    u, t = 1e-2, 0.37
    xv, yv, tv = u**2, -2 * u**3, t - u
    want = (1 + 0.4 * np.cos(2 * np.pi * tv)) * xv**2 + 2 * yv
    got = jet.eval_grid(np.array([u]), np.array([[t]]))[0, 0]
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


def test_shear_prerequisite_check():
    fd = shear_example()
    fd.validate_xy_shear()
    bad = TaylorFourierMap("field", 1, 0, 4, (GOLDEN,),
                           {(0, 1): 2.0, (1, 0): 0.1},
                           {(1, 1): -1.0}, [{(0, 1): 3.0}])
    with pytest.raises(StructureViolation):
        bad.validate_xy_shear()


def test_transformed_field_is_numeric_conjugation():
    fd = shear_example()
    tf = fd.transformed_field(sx=1, sy=-1, time_sign=-1)
    x, y, th = 0.2, 0.3, np.array([0.15])
    fx, fy, fth = fd.eval(x, -y, th)
    gx, gy, gth = tf.eval(x, y, th)
    assert abs(gx - (-1) * fx) < 1e-14
    assert abs(gy - (-1) * (-1) * fy) < 1e-14
    assert np.max(np.abs(gth + fth)) < 1e-14


def test_transformed_field_involution():
    fd = reference_map(cut=8)
    fd = TaylorFourierMap("field", fd.d, fd.drive, fd.cut, fd.freqs,
                          fd.x_terms.terms, fd.y_terms.terms,
                          [t.terms for t in fd.theta_terms], k=2, p=1)
    twice = fd.transformed_field(1, -1, -1).transformed_field(1, -1, -1)
    x, y, th = 0.1, -0.2, np.array([0.63])
    a = fd.eval(x, y, th)
    b = twice.eval(x, y, th)
    assert abs(a[0] - b[0]) < 1e-14 and abs(a[1] - b[1]) < 1e-14
    assert np.max(np.abs(a[2] - b[2])) < 1e-14
    assert twice.freqs == fd.freqs


def test_normalization_record_pullback():
    cut, deg, trunc = 4, 6, 7
    h = XYPoly(1, cut, deg, {(0, 2): 1.0})
    record = NormalizationRecord(None, h, _inverse_change(h, deg))
    jx = TFJet(1, cut, trunc, {2: FourierSeries.constant(1.0, 1, cut)})
    jy_new = TFJet(1, cut, trunc, {2: FourierSeries.constant(0.5, 1, cut)})
    tails = [TFJet(1, cut, trunc)]
    back = record.pullback(jx, jy_new, tails, trunc)
    # y = y_new - y_new^2 + 2 y_new^3 - ... evaluated on the jet
    u = 0.05
    y_new = 0.5 * u**2
    direct = back.eval_grid(np.array([u]), np.array([[0.0]]))[0, 0]
    series = y_new - y_new**2 + 2 * y_new**3
    assert abs(direct - series) < 1e-12


def general_dynamics(kind, cut):
    """Reference dynamics whose x-part also has x^2 and x y terms."""
    x_terms = {(0, 1): one_mode(1.0, 0.1, 1, cut), (2, 0): 0.3,
               (1, 1): one_mode(0.2, 0.1, 1, cut)}
    return TaylorFourierMap(kind, 1, 0, cut, (GOLDEN,), x_terms,
                            {(2, 0): one_mode(6.0, 1.0, 1, cut)},
                            [{(1, 0): 1.0}], k=2, p=1)


def test_general_map_normalization_conjugates():
    cut, deg = 8, 6
    mp = general_dynamics("map", cut)
    reduced, record = reduce_general_map(mp, deg)
    reduced.validate_reduced()
    assert solve_to_order(reduced, 4).order == 4
    # reduced(x, y + h, theta) is the change y -> y + h applied to mp(x, y, theta)
    h = record.forward
    errs = []
    for s in (1.0, 0.5, 0.25):
        x, y, th = 0.02 * s, 0.01 * s, np.array([0.3])
        X, Y, TH = mp.eval(x, y, th)
        want = np.array([X, Y + h.eval(X, Y, TH), TH[0]])
        gx, gy, gth = reduced.eval(x, y + h.eval(x, y, th), th)
        errs.append(np.max(np.abs(np.array([gx, gy, gth[0]]) - want)))
    # the conjugacy defect decays at the truncation degree of the change
    rate = np.log2(errs[0] / errs[-1]) / 2
    assert rate > deg + 0.5
    assert errs[-1] < 1e-12


def test_general_field_normalization_validates():
    reduced, record = reduce_general_field(general_dynamics("field", 8), 6)
    reduced.validate_reduced()
    assert reduced.x_terms.terms.keys() == {(0, 1)}


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
        p.to_jet(jx, jy, [TFJet(1, cut, deg, {0: 0.1, 1: -1.0})], deg)

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
    jet = p.to_jet(jx, jy, [], deg)
    for tails in ([None], [TFJet(1, cut, deg)]):
        assert same(p.to_jet(jx, jy, tails, deg), jet)
