"""Sector geometry, iterate confinement, the right inverse of the transfer
difference/derivative along the inner dynamics, and the fixed-point probe."""

import mpmath
import numpy as np
import pytest

from paratori.errors import (BoundViolated, ConfigError, FlowLeftSector,
                             HypothesisViolated, TailNotConverged)
from paratori.fourier import FourierSeries
from paratori.jets import UPoly
from paratori.map_solver import solve_to_order
from paratori.mapdata import TaylorFourierMap
from paratori.operators import (Sector, contraction_probe, flow_inverse,
                                flow_inverse_norm_limit, flow_orbit_integral,
                                map_inverse_norm_limit, orbit_sum_inverse,
                                sector_iterate_check)
from paratori.pairs import residual_report
from paratori import quadrature
from paratori.quadrature import QUAD_CHUNK, _G7_W, _GK_W, _GK_X

from conftest import (GOLDEN, drift_derivative, reference_map,
                      transfer_difference)

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


@pytest.mark.parametrize("u0", [0.03, 0.03 * np.exp(0.3j)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("m", [1, 9, 20])
def test_flow_integral_matches_a_closed_form_trajectory(m, u0):
    # velocity -u^2 has the trajectory u0/(1 + s u0), so the integral of
    # u^3 (1 + 0.2 sin 2 pi m theta) along it is u0^2/2 plus an oscillatory
    # integral that mpmath evaluates without any ODE solver; at m = 20 a
    # half-period panel of omega holds 12 periods of eta, more than one
    # 15-point rule resolves, so only the panel refinement meets tol
    th0, tol = 0.7, 1e-10
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * m * th[0]))
    got = flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (GOLDEN,), u0,
                              np.array([th0]), eta_order=3, mu=0.5, tol=tol)
    with mpmath.workdps(30):
        z0 = mpmath.mpmathify(u0)
        w = 2 * mpmath.pi * m * mpmath.mpf(GOLDEN)
        osc = mpmath.quadosc(
            lambda s: (z0 / (1 + s * z0)) ** 3
            * mpmath.sin(2 * mpmath.pi * m * mpmath.mpf(th0) + w * s),
            [0, mpmath.inf], omega=w)
        want = complex(z0 ** 2 / 2 + osc / 5)
    assert abs(got - want) <= tol


def test_gauss_kronrod_rule():
    # the embedded rule is 7-point Gauss, and Kronrod's 15 points integrate
    # every polynomial of degree up to 22 exactly
    xg, wg = np.polynomial.legendre.leggauss(7)
    assert np.abs(_GK_X[1::2] - xg).max() < 1e-15
    assert np.abs(_G7_W[1::2] - wg).max() < 1e-15
    assert not _G7_W[::2].any()
    for n in range(23):
        assert abs(_GK_W @ _GK_X ** n - (1 + (-1) ** n) / (n + 1)) < 1e-15


def test_flow_integrand_contract_and_chunk_bound():
    # eta sees 1-D complex points with one angle column each, never more
    # than QUAD_CHUNK of them at once
    sizes = []

    def eta(u, th):
        assert u.ndim == 1 and np.iscomplexobj(u)
        assert th.shape == (2, u.size)
        assert u.size <= QUAD_CHUNK
        sizes.append(u.size)
        return u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * th[0])
                         + 0.1 * np.cos(2 * np.pi * th[1]))

    vel = UPoly({2: -1.0, 3: 0.5}, 12)
    kw = dict(eta_order=3, mu=0.5, tol=1e-8, sector=Sector(np.pi / 2, 0.05, 2))
    flow_orbit_integral(eta, vel, (GOLDEN, np.sqrt(2.0)), 0.03 + 0.005j,
                        np.array([0.7, 0.2]), **kw)
    assert max(sizes) > QUAD_CHUNK // 2   # the chunking was exercised
    with pytest.raises(FlowLeftSector):
        flow_orbit_integral(eta, vel, (GOLDEN, np.sqrt(2.0)), 0.06,
                            np.array([0.7, 0.2]), **kw)


def test_flow_quadrature_limits(monkeypatch):
    # a non-finite integrand, and more panels to bisect than the memory
    # bound allows (lowered here so that a small case reaches it), end in
    # TailNotConverged instead of bisecting without end
    vel, th0 = UPoly({2: -1.0}, 12), np.array([0.7])
    kw = dict(eta_order=3, mu=0.5, tol=1e-8)
    eta = lambda u, th: np.where(np.mod(th[0], 1.0) < 0.1, np.nan, u ** 3)
    with pytest.raises(TailNotConverged, match="not finite"):
        flow_orbit_integral(eta, vel, (GOLDEN,), 0.03, th0, **kw)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * 20 * th[0]))
    with pytest.raises(TailNotConverged, match="to bisect"):
        flow_orbit_integral(eta, vel, (GOLDEN,), 0.03, th0, **kw)


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


def test_measurements_refuse_a_non_finite_residual():
    # the report and the probe measure the residual a solve hands over; one
    # non-finite coefficient in it is refused before anything is measured,
    # and the ConfigError names its order and component
    mp = reference_map(cut=8)
    pair, (gx, gy, gt) = solve_to_order(mp, 3)
    bad = gy.copy()
    bad.set_coefficient(5, FourierSeries.constant(np.inf, pair.dim, pair.cut))
    residual = (gx, bad, gt)
    sec = Sector(np.pi / 2, 0.02, 2)
    # a probe small enough to end quickly should it start on the residual
    probe = dict(mu=0.5, samples=(2, 2, 1), n_iter=1)
    for measure in (lambda: residual_report(pair, residual),
                    lambda: contraction_probe(mp, pair, residual, sec, **probe)):
        with pytest.raises(ConfigError) as err:
            measure()
        assert err.value.detail == {"order": 5, "component": "y"}


def test_probe_contracts_on_reference_map():
    # small instance of the fixed-point iteration: truncate at order 5 and
    # run a few sweeps; every update ratio must stay below one and the
    # invariance defect of the candidates must keep shrinking
    mp = reference_map(cut=16)
    pair, residual = solve_to_order(mp, 5)
    sec = Sector(np.pi / 2, 0.02, 2)
    # at this low truncation the first correction is O(1) in the weighted
    # norm, so give the locality check a wide ball; contraction is the point
    rep = contraction_probe(mp, pair, residual, sec, mu=0.5, samples=(5, 4, 4),
                            n_iter=6, ball_alpha=2.0)
    assert not rep["left_ball"]
    assert len(rep["factors"]) >= 4
    assert all(f < 1 for f in rep["factors"])
    d = rep["defect_norms"]
    assert all(d[i + 1] < d[i] for i in range(min(4, len(d) - 1)))
    # values of this instance with one np.exp per mode and coefficient: a
    # change of evaluation order may move them only at rounding level
    assert rep["factors"] == pytest.approx(
        [0.318746448892, 0.848320456118, 0.357862942378, 0.887311976596,
         0.377108318649], rel=1e-6)
    assert d == pytest.approx(
        [13.5531085773, 2.06633427497, 1.76908521728, 0.628917904703,
         0.544511596035, 0.199830629842, 0.184165748863], rel=1e-6)
