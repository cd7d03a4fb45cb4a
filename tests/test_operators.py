"""Sector geometry, iterate confinement, the right inverse of the transfer
difference/derivative along the inner dynamics, and the fixed-point probe."""

import numpy as np
import pytest

from paratori.errors import (BoundViolated, FlowLeftSector, HypothesisViolated,
                             TailNotConverged)
from paratori.fourier import FourierSeries
from paratori.jets import UPoly
from paratori.map_solver import solve_to_order
from paratori.mapdata import TaylorFourierMap
from paratori.operators import (Sector, contraction_probe,
                                drift_derivative, flow_inverse,
                                flow_inverse_norm_limit, flow_orbit_integral,
                                map_inverse_norm_limit, orbit_sum_inverse,
                                sector_iterate_check, transfer_difference)

from conftest import GOLDEN, reference_map

R = UPoly({1: 1.0, 2: -1.0}, 12)


def test_sector_geometry():
    sec = Sector(np.pi / 2, 0.05, 2)
    assert sec.contains(0.03)
    assert not sec.contains(0.06)       # outside the radius
    assert not sec.contains(0.03j)      # argument pi/2 exceeds the half-opening
    zs = sec.grid(4, 5)
    assert zs.shape == (4, 5)
    assert np.all(np.abs(zs) < 0.05)
    assert sec.contains(zs).all()


def test_iterates_stay_inside_with_margin():
    sec = Sector(np.pi / 2, 0.05, 2)
    rep = sector_iterate_check(R, sec, 0.5, 1000, grid_shape=(20, 20))
    assert rep["min_slack"] >= 0.0
    assert rep["iterations"] == 1000
    assert rep["max_slack"] > 0


def test_iterates_leave_an_oversized_sector():
    with pytest.raises(BoundViolated) as ei:
        sector_iterate_check(R, Sector(np.pi / 2, 0.99, 2), 0.5, 50)
    u0, j = ei.value.witness
    assert abs(u0) <= 0.99 and j >= 0


def test_decay_rate_must_be_admissible():
    with pytest.raises(HypothesisViolated):
        sector_iterate_check(R, Sector(np.pi / 2, 0.05, 2), 0.9, 10)


def test_orbit_sum_forward_identity():
    eta = lambda u, th: u ** 5 * (1.0 + 0.3 * np.cos(2 * np.pi * th[0]))
    phi = lambda u, th: orbit_sum_inverse(eta, R, (GOLDEN,), u, th,
                                          eta_order=5, mu=0.5, tail_tol=1e-13)
    u0, th0 = 0.04, np.array([0.2])
    fwd = transfer_difference(phi, R, (GOLDEN,), u0, th0)
    assert abs(fwd - eta(u0, th0)) < 1e-8


def test_orbit_sum_against_brute_force():
    eta = lambda u, th: u ** 5 * (1.0 + 0.3 * np.cos(2 * np.pi * th[0]))
    u0, th0 = 0.04, np.array([0.2])
    brute = 0.0
    z, th = u0, th0.copy()
    for _ in range(400000):
        brute += eta(z, th)
        z = R(z)
        th = th + GOLDEN
    val = orbit_sum_inverse(eta, R, (GOLDEN,), u0, th0, eta_order=5, mu=0.5,
                            tail_tol=1e-12)
    assert abs(val + brute) < 1e-10


def test_map_inverse_norm_bound_on_samples():
    n = 4
    sec = Sector(np.pi / 2, 0.05, 2)
    lim = map_inverse_norm_limit(n, 2, 0.5, sec.rho)
    eta = lambda u, th: u ** (n + 1)
    worst = 0.0
    for r in np.geomspace(0.002, 0.0499, 6):
        for ph in np.linspace(-np.pi / 4 * 0.99, np.pi / 4 * 0.99, 5):
            u = r * np.exp(1j * ph)
            v = orbit_sum_inverse(eta, R, (GOLDEN,), u, None, eta_order=n + 1,
                                  mu=0.5, tail_tol=1e-14)
            worst = max(worst, abs(v) / abs(u) ** n)
    assert worst <= lim


def test_right_inverses_need_a_convergent_tail():
    # eta_order <= k - 1 gives a divergent sum or integral, and a growing
    # normal form gives no decay bound; both are typed hypothesis failures
    Y = UPoly({2: -1.0}, 12)
    eta = lambda u, th: u
    with pytest.raises(HypothesisViolated):
        orbit_sum_inverse(eta, R, (), 0.04, None, eta_order=1, mu=0.5)
    with pytest.raises(HypothesisViolated):
        flow_orbit_integral(eta, Y, (), 0.04, None, eta_order=1, mu=0.5)
    with pytest.raises(HypothesisViolated):
        orbit_sum_inverse(eta, UPoly({1: 1.0, 2: 1.0}, 12), (), 0.04, None,
                          eta_order=5, mu=0.5)
    with pytest.raises(HypothesisViolated):
        flow_orbit_integral(eta, UPoly({2: 1.0}, 12), (), 0.04, None,
                            eta_order=3, mu=0.5)


def test_flow_integral_stops_when_the_trajectory_leaves_the_sector():
    # the start u = 0.03 already lies outside the sector of radius 0.01
    with pytest.raises(FlowLeftSector):
        flow_orbit_integral(lambda u, th: u ** 3, UPoly({2: -1.0}, 12), (),
                            0.03, None, eta_order=3, mu=0.5,
                            sector=Sector(np.pi / 2, 0.01, 2))


def test_orbit_sum_gives_up_on_a_tail_that_decays_too_slowly():
    # at a decay rate of 1e-9 the tail estimate is billions of times the
    # term it follows, so no tail target is met within the term budget
    with pytest.raises(TailNotConverged):
        orbit_sum_inverse(lambda u, th: u ** 3, R, (), 0.04, None,
                          eta_order=3, mu=1e-9)


def test_flow_integral_oracle():
    # velocity -u^2 integrates u/(1+su); int_0^inf (u/(1+su))^3 ds = u^2/2
    Y = UPoly({2: -1.0}, 12)
    for u0 in (0.05, 0.02, 0.007):
        got = flow_orbit_integral(lambda u, th: u ** 3, Y, (), u0, None,
                                  eta_order=3, mu=0.5, tol=1e-10)
        assert abs(got - u0 ** 2 / 2) < 1e-8


def test_flow_inverse_solves_derivative_equation():
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * th[0]))
    vel = UPoly({2: -1.0, 3: 0.5}, 12)
    phi = lambda u, th: flow_orbit_integral(eta, vel, (GOLDEN,), u, th,
                                            eta_order=3, mu=0.5, tol=1e-12)
    u0, th0 = 0.03, np.array([0.7])
    dv = drift_derivative(phi, vel, (GOLDEN,), u0, th0, step=1e-4)
    assert abs(dv + eta(u0, th0)) < 1e-6


def test_flow_inverse_norm_bound_on_samples():
    n = 4
    Y = UPoly({2: -1.0}, 12)
    lim = flow_inverse_norm_limit(n, 2, 0.5)
    worst = 0.0
    for u0 in np.geomspace(0.003, 0.049, 5):
        v = flow_inverse(lambda u, th: u ** (n + 1), Y, (), u0, None,
                         eta_order=n + 1, mu=0.5, tol=1e-12)
        worst = max(worst, abs(v) / u0 ** n)
    assert worst <= lim


def test_probe_contracts_on_reference_map():
    # small instance of the fixed-point iteration: truncate at order 5 and
    # run a few sweeps; every update ratio must stay below one and the
    # invariance defect of the candidates must keep shrinking
    mp = reference_map(cut=16)
    pair = solve_to_order(mp, 5)
    sec = Sector(np.pi / 2, 0.02, 2)
    # at this low truncation the first correction is O(1) in the weighted
    # norm, so give the locality check a wide ball; contraction is the point
    rep = contraction_probe(mp, pair, sec, mu=0.5, samples=(5, 4, 4),
                            n_iter=6, ball_alpha=2.0)
    assert not rep["left_ball"]
    assert len(rep["factors"]) >= 4
    assert all(f < 1 for f in rep["factors"])
    d = rep["defect_norms"]
    assert all(d[i + 1] < d[i] for i in range(min(4, len(d) - 1)))
