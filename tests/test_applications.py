"""Preset problem families: the forced anharmonic oscillator at its parabolic
degenerate equilibrium and the atom--wall scattering system in exponential
wall coordinates."""

import math

import numpy as np
import pytest

from paratori.applications import (HeCuParams, OscillatorParams,
                                   build_hecu_field, build_oscillator_field,
                                   hecu_field_degree, hecu_manifolds)
from paratori.errors import EnergyBelowThreshold, HypothesisViolated
from paratori.flow_solver import solve_flow_to_order, solve_helicoure
from paratori.fourier import FourierSeries
from paratori.mapdata import TaylorFourierMap, XYPoly
from paratori.pairs import residual_jets, residual_report

from conftest import table_values


def test_autonomous_oscillator_is_exactly_solvable():
    p = OscillatorParams(c_pot=1.0, n_pot=2, alpha=6.0, g=1.0)
    fd = build_oscillator_field(p)
    assert fd.d == 0 and fd.drive == 0
    pair, residual = solve_flow_to_order(fd, 6)
    # leading balance: inner velocity coefficient -sqrt(mean/6)
    assert abs(pair.inner.coeff(2) + 1.0) < 1e-13
    rep = residual_report(pair, residual)
    for comp in rep.components:
        # no angles: exact annihilation below the contract; the cubic
        # potential term leaves a pure truncation tail, nothing lower
        assert comp["annihilated_max"] == 0.0
        assert comp["exact"] or comp["slope"] > comp["expected_order"] - 0.25


def test_forced_oscillator_slopes():
    g = FourierSeries.from_modes({(1,): 0.15}, 1, 12) + 1.0
    p = OscillatorParams(c_pot=1.0, n_pot=2, alpha=1.0, g=g, nu=(np.sqrt(2),))
    fd = build_oscillator_field(p)
    assert fd.d == 0 and fd.drive == 1
    pair, residual = solve_flow_to_order(fd, 5)
    assert abs(pair.inner.coeff(2) + math.sqrt(1.0 / 6.0)) < 1e-13
    rep = residual_report(pair, residual, u_lo=1e-4, u_hi=1e-3, n_grid=16)
    expected = {"x": 7, "y": 8}
    for comp in rep.components:
        want = expected[comp["name"]]
        assert comp["slope"] is None or abs(comp["slope"] - want) < 0.2, comp
        assert comp["annihilated_max"] < 1e-9 * pair.size()


def test_oscillator_needs_positive_mean_forcing():
    # the builder trusts its caller; the solve's class check refuses the field
    g = FourierSeries.from_modes({(1,): 0.5}, 1, 8) - 0.2
    fd = build_oscillator_field(
        OscillatorParams(c_pot=1.0, n_pot=2, alpha=1.0, g=g, nu=(np.sqrt(2),)))
    with pytest.raises(HypothesisViolated):
        solve_flow_to_order(fd, 3)


def test_oscillator_time_reversal_is_involutive():
    g = FourierSeries.from_modes({(1,): 0.15}, 1, 8) + 1.0
    p = OscillatorParams(c_pot=1.0, n_pot=2, alpha=1.0, g=g, nu=(np.sqrt(2),))
    fd = build_oscillator_field(p)
    reversed_fd = fd.transformed_field(sx=1, sy=-1, time_sign=-1)
    back = reversed_fd.transformed_field(sx=1, sy=-1, time_sign=-1)
    x, y = 0.1, -0.07
    th = np.array([0.3])
    a, b = table_values(fd, x, y, th), table_values(back, x, y, th)
    assert abs(a[0] - b[0]) < 1e-14 and abs(a[1] - b[1]) < 1e-14
    # the drive axis runs backwards once and forwards again
    assert reversed_fd.freqs == tuple(-w for w in fd.freqs)
    assert back.freqs == fd.freqs


def test_oscillator_unstable_matches_transformed_construction():
    g = FourierSeries.from_modes({(1,): 0.15}, 1, 12) + 1.0
    p = OscillatorParams(c_pot=1.0, n_pot=2, alpha=1.0, g=g, nu=(np.sqrt(2),))
    fd = build_oscillator_field(p)
    direct, _ = solve_flow_to_order(fd, 5, branch="unstable")
    mirrored, _ = solve_flow_to_order(
        fd.transformed_field(sx=1, sy=-1, time_sign=-1), 5)
    # the time-reversal conjugation negates the vertical jet and the inner
    # velocity while fixing the horizontal jet
    for n in direct.x.orders():
        assert (direct.x.coefficient(n)
                - mirrored.x.coefficient(n)).coeff_norm() < 1e-13
    for n in direct.y.orders():
        assert (direct.y.coefficient(n)
                + mirrored.y.coefficient(n)).coeff_norm() < 1e-13
    for n in direct.inner.orders():
        assert abs(direct.inner.coeff(n) + mirrored.inner.coeff(n)) < 1e-13


def test_wall_field_displayed_constants():
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35)
    fd, _ = build_hecu_field(p)
    A = 2 * p.m * (p.h - p.D)
    assert abs(fd.shear().average() - 2 * p.D * p.alpha_morse) < 1e-14
    assert abs(fd.y_terms.coefficient((1, 1)).average()
               + p.alpha_morse / p.m) < 1e-14
    assert abs(fd.theta_terms[0].coefficient((0, 1)).average()
               + p.D / math.sqrt(A)) < 1e-14
    assert abs(fd.freqs[0] - math.sqrt(A) / p.m) < 1e-14


def test_wall_field_expanded_coefficients():
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35, g_surface=0.3)
    fd, _ = build_hecu_field(p, expansion="expanded")
    D, m = p.D, p.m
    A = 2 * m * (p.h - D)
    c = 2 * D * p.alpha_morse
    gamma = 1.3
    # the normalizing change makes the horizontal part pure shear, exactly
    assert set(fd.x_terms.terms) == {(0, 1)}
    assert abs(fd.x_terms.coefficient((0, 1)).average() - c) < 1e-12
    # vertical part: b x (y + gamma y^2 - 2 gamma^2 y^3 + 5 gamma^3 y^4 - ...)
    b = -p.alpha_morse / m
    for j, cat in ((1, 1.0), (2, gamma), (3, -2 * gamma ** 2),
                   (4, 5 * gamma ** 3), (5, -14 * gamma ** 4)):
        got = fd.y_terms.coefficient((1, j)).average()
        assert abs(got - b * cat) < 1e-10 * max(1, abs(b * cat)), j
    # angle velocity: linear coefficient doubles against the displayed form,
    # quadratic coefficient (D/sqrt(A)) (gamma - 2 m D / A)
    assert abs(fd.theta_terms[0].coefficient((0, 1)).average()
               + 2 * D / math.sqrt(A)) < 1e-12
    want_q02 = (D / math.sqrt(A)) * (gamma - 2 * m * D / A)
    assert abs(fd.theta_terms[0].coefficient((0, 2)).average() - want_q02) < 1e-12
    assert abs(fd.theta_terms[0].coefficient((2, 0)).average()
               + 1 / (2 * m * math.sqrt(A))) < 1e-12


def test_wall_expanded_leading_drift_vanishes():
    # the doubled angle slope and the curvature term cancel in the solvability
    # average: the manifold has no first-order angular drift in the
    # normalized variables
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35)
    fd, _ = build_hecu_field(p, expansion="expanded")
    pair, _ = solve_helicoure(fd, 4, theta_leading="cohomological")
    assert abs(pair.tail_coeff_avg(0, 1)) < 1e-10


def test_wall_energy_threshold():
    with pytest.raises(EnergyBelowThreshold):
        build_hecu_field(HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=6.0))


def test_wall_manifolds_report():
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35)
    stable, unstable, report, _ = hecu_manifolds(p, 5)
    devs = report["relative_deviations"]
    assert max(devs.values()) <= 1e-10
    sp = report["sign_pattern"]
    assert sp["stable_contracts"] and sp["unstable_expands"]
    assert sp["opposite_normal_form"] <= 1e-12
    assert sp["shared_vertical"] <= 1e-12 and sp["shared_angular"] <= 1e-12
    assert stable.diagnostics.get("wall_coordinates")
    assert unstable.diagnostics.get("wall_coordinates")
    # the branches part ways at the leading angular coefficient's sign
    assert stable.tail_coeff_avg(0, 1) < 0 < unstable.tail_coeff_avg(0, 1)


def test_wall_pullback_changes_vertical_jet_only():
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35)
    fd, _ = build_hecu_field(p, deg=7)
    normalized, _ = solve_helicoure(fd, 5)
    stable, _, _, _ = hecu_manifolds(p, 5)
    for n in normalized.x.orders():
        assert (normalized.x.coefficient(n)
                - stable.x.coefficient(n)).coeff_norm() < 1e-14
    # vertical jets agree through cubic order (the change is quadratic in y,
    # and y itself starts at u^2) and differ at the quartic coefficient
    assert abs(normalized.y_coeff_avg(2) - stable.y_coeff_avg(2)) < 1e-14
    assert abs(normalized.y_coeff_avg(3) - stable.y_coeff_avg(3)) < 1e-14
    diff4 = abs(normalized.y_coeff_avg(4) - stable.y_coeff_avg(4))
    want = normalized.y_coeff_avg(2) ** 2  # gamma = 1 at zero corrugation
    assert abs(diff4 - abs(want)) < 1e-12


def wall_field(p, deg):
    """The wall field in its original coordinates, before the change
    y_new = y + (1 + g) y^2: x-part c y + c (1 + g) y^2, y-part b x y and
    angle part omega (sqrt(1 - s) - 1), the root expanded to degree ``deg``,
    with s = (4 m D / A) y + (1 + g) (2 m D / A) y^2 + x^2 / A."""
    D, m = p.D, p.m
    A = 2 * m * (p.h - D)
    omega = math.sqrt(A) / m
    c, b = 2 * D * p.alpha_morse, -p.alpha_morse / m
    gamma = p.g_surface + 1.0
    minus_s = XYPoly(1, p.cut, deg, {(0, 1): -4 * m * D / A,
                                     (0, 2): -gamma * (2 * m * D / A),
                                     (2, 0): -1 / A})
    # sqrt(1 - s) - 1 = sum_{j >= 1} binom(1/2, j) (-s)^j
    angle = XYPoly(1, p.cut, deg)
    power, binom = XYPoly(1, p.cut, deg, {(0, 0): 1.0}), 1.0
    for j in range(1, deg + 1):
        binom *= (1.5 - j) / j
        power = power * minus_s
        angle = angle + power.scale(omega * binom)
    return TaylorFourierMap("field", 1, 0, p.cut, (omega,),
                            {(0, 1): c, (0, 2): gamma * c}, {(1, 1): b},
                            [angle.terms])


@pytest.mark.parametrize("g_surface", [
    0.0, FourierSeries.from_modes({(0,): 0.2, (1,): 0.05}, 1, 8)],
    ids=["flat", "corrugated"])
def test_wall_manifolds_are_invariant_in_wall_coordinates(g_surface):
    # the pulled-back pairs against the system as written down, not against
    # the shear-form field they were solved for; a corrugation that depends
    # on the angle also runs the change's swirl term.  The cohomological
    # convention solves the order-2 angle average that the closed form
    # leaves as a documented defect, which a varying corrugation carries
    # into y.
    n = 5
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35,
                   g_surface=g_surface)
    wall = wall_field(p, hecu_field_degree(n))
    stable, unstable, _, _ = hecu_manifolds(p, n, expansion="expanded",
                                            theta_leading="cohomological")
    for pair in (stable, unstable):
        rep = residual_report(pair, residual_jets(wall, pair))
        for comp in rep.components:
            # within 0.15 of an integer order at or above the contract
            slope, near = comp["slope"], round(comp["slope"])
            assert near >= comp["expected_order"], comp
            assert abs(slope - near) <= 0.15, comp
            assert comp["annihilated_max"] <= 1e-12 * comp["scale"], comp
