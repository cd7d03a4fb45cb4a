"""Sector geometry, iterate confinement, the right inverse of the transfer
difference/derivative along the inner dynamics, and the fixed-point probe."""

import importlib.util
import itertools
import json
import math
import os
import sys

import mpmath
import numpy as np
import pytest

from paratori import operators
from paratori.cli import main
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
    assert (str(ei.value), ei.value.witness) == sector_step_at_a_time(
        R, Sector(np.pi / 2, 0.99, 2), 0.5, 50, (20, 20))


def sector_step_at_a_time(inner, sector, mu, n_iter, grid_shape):
    """The sector check one iterate at a time: (min_slack, max_slack), or
    (message, witness) of the first failing iterate."""
    k = sector.k
    u0 = sector.grid(*grid_shape).ravel()
    r0 = np.abs(u0)
    z = u0.copy()
    lo, hi = np.inf, -np.inf
    for j in range(n_iter + 1):
        inside = sector.contains(z, slack=1e-15)
        if j and not inside.all():
            i = int(np.argmin(inside))
            return ("iterate %d of %s left the sector" % (j, u0[i]),
                    (complex(u0[i]), j))
        bound = r0 / (1.0 + j * mu * r0 ** (k - 1)) ** (1.0 / (k - 1))
        slack = bound - np.abs(z)
        worst = float(slack.min())
        if worst < -1e-13 * r0.max():
            i = int(np.argmin(slack))
            return ("decay bound violated at iterate %d of %s by %.3e"
                    % (j, u0[i], -worst), (complex(u0[i]), j))
        lo, hi = min(lo, worst), max(hi, float(slack.max()))
        z = inner(z)
    return lo, hi


@pytest.mark.parametrize("inner,sector,mu", [
    (R, Sector(np.pi / 2, 0.05, 2), 0.5),
    (UPoly({1: 1.0, 2: -1.0, 3: -0.73}, 12), Sector(np.pi / 2, 0.02, 2), 0.5),
    (UPoly({1: 1.0, 3: -1.0}, 12), Sector(0.7, 0.5, 3), 0.3),
])
def test_blocked_sector_check_keeps_every_slack(inner, sector, mu):
    # 400 points take blocks of QUAD_CHUNK // 400 = 5 iterates, and the
    # 1001 iterates 0..1000 leave a last block of one
    assert 1001 % (QUAD_CHUNK // 400) == 1
    rep = sector_iterate_check(inner, sector, mu, 1000, grid_shape=(20, 20))
    want = sector_step_at_a_time(inner, sector, mu, 1000, (20, 20))
    assert (rep["min_slack"], rep["max_slack"]) == want
    assert rep["points"] == 400 and rep["iterations"] == 1000


class Kicked(UPoly):
    """R, except that its ``j``-th call multiplies the value at each start
    index ``i`` by ``kicks[i]``: iterate j of those starts is moved."""

    def __init__(self, j, kicks):
        super().__init__(R.terms, R.trunc)
        self.j, self.kicks, self.calls = j, kicks, 0

    def __call__(self, u):
        out = super().__call__(u)
        self.calls += 1
        if self.calls == self.j:
            for i, kick in self.kicks.items():
                out[i] *= kick
        return out


TURN, GROW = np.exp(1j * np.pi / 2), 1.5   # out of the sector, off the bound


@pytest.mark.parametrize("j,kicks", [
    (1, {17: TURN}),            # in the first block
    (7, {3: TURN}),             # inside the second block
    (7, {3: GROW}),
    (10, {3: GROW, 250: TURN}),  # both at the first iterate of a block
    (12, {3: GROW, 40: GROW}),  # the larger violation is the witness
    (1000, {5: GROW}),          # the last block, of one iterate
    (999, {5: TURN}),
])
def test_blocked_sector_check_fails_where_a_step_at_a_time_check_does(j,
                                                                       kicks):
    # a start kicked out of the sector or off the decay bound at iterate j
    # raises with the message and witness of a check of one iterate at a
    # time, in whichever block the iterate falls (blocks of 5 iterates)
    sector = Sector(np.pi / 2, 0.05, 2)
    want = sector_step_at_a_time(Kicked(j, kicks), sector, 0.5, 1000, (20, 20))
    assert want[1][1] == j
    with pytest.raises(BoundViolated) as ei:
        sector_iterate_check(Kicked(j, kicks), sector, 0.5, 1000,
                             grid_shape=(20, 20))
    assert (str(ei.value), ei.value.witness) == want


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


def step_at_a_time(term, inner, freqs, z0, pts0, eta_orders, mu, targets):
    """The orbit sum one step per term call: the reference for the blocked
    loop, with the same stopping rule."""
    rules = {c: operators._decay(inner, o, mu, z0)
             for c, o in eta_orders.items()}
    totals = None
    active = np.ones(z0.size, dtype=bool)
    z, shift, j = z0, np.zeros(pts0.shape[1]), 0
    while active.any():
        if j > operators._J_MAX:
            raise TailNotConverged("reference loop past the term budget")
        terms = term(z[active][None], np.mod(pts0 + shift, 1.0)[None])
        if totals is None:
            totals = {c: np.zeros_like(t[0]) for c, t in terms.items()}
        done = True
        for c, t in terms.items():
            totals[c][active] += t[0]
            q, x = rules[c]
            tail = operators._tail(np.abs(t[0]).max(axis=1), j, x[active], q)
            done = done & (tail <= targets[c][active] / 2)
        if j >= operators._J_MIN:
            active[np.flatnonzero(active)[done]] = False
        z, shift, j = inner(z), shift + freqs, j + 1
    return {c: -t for c, t in totals.items()}


def test_right_inverses_refuse_a_start_at_the_fixed_point():
    # at u = 0 the decay bound has no rate: a typed hypothesis failure, not
    # a division by zero
    eta = lambda u, th: u ** 3
    with pytest.raises(HypothesisViolated):
        orbit_sum_inverse(eta, R, (), 0.0, None, eta_order=3, mu=0.5)
    with pytest.raises(HypothesisViolated):
        flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (), 0.0, None,
                            eta_order=3, mu=0.5)


@pytest.mark.parametrize("u", [0.04, 0.03 + 0.01j, 0.004])
def test_orbit_sum_evaluates_under_twice_the_terms_it_sums(u):
    # the blocks double from _J_MIN, so the sum stopping mid-block has
    # evaluated fewer than twice the terms it summed; its value is the
    # step-at-a-time loop's bit for bit
    theta = np.array([0.2])
    points = []

    def eta(z, th):
        points.append(z.size)
        return z ** 5 * (1.0 + 0.3 * np.cos(2 * np.pi * th[0]))

    def term(zs, pts):
        return {"eta": np.reshape(eta(zs[:, 0], pts[:, 0].T), (-1, 1, 1))}

    want = step_at_a_time(term, R, (GOLDEN,), np.array([u]), theta[None],
                          {"eta": 5}, 0.5, {"eta": np.array([1e-11])})
    summed = sum(points)
    points.clear()
    got = orbit_sum_inverse(eta, R, (GOLDEN,), u, theta, eta_order=5, mu=0.5,
                            tail_tol=1e-11)
    assert got == want["eta"][0, 0]
    assert summed > operators._J_MIN and sum(points) < 2 * summed


# a unit of 2^-60: a sum of fewer than 2^53 of them is exact, so the
# component "count" totals -(terms summed) * COUNT_UNIT on every row
COUNT_UNIT = 2.0 ** -60


def vector_term(zs, pts):
    """Two components over (steps, rows, angle points) plus the counter."""
    z = zs[..., None]
    wave = np.cos(2 * np.pi * pts[..., 0])[:, None, :]
    return {"a": z ** 3 * (1.0 + 0.3 * wave),
            "b": z ** 4 * (0.5 - 0.2j * wave),
            "count": np.full(z.shape[:2] + (pts.shape[1],), COUNT_UNIT)}


def test_blocked_orbit_sum_matches_a_step_at_a_time_loop():
    # the orbit sum evaluates its terms on blocks of steps; its totals and
    # the step where each row stops are those of one step per term call
    sec = Sector(np.pi / 2, 0.02, 2)
    z0 = sec.grid(4, 3, r_min_factor=0.5).ravel()
    pts0 = np.array([[0.0], [0.3], [0.7]])
    orders = {"a": 3, "b": 4, "count": 3}
    targets = {"a": 1e-2 * np.abs(z0) ** 2, "b": 1e-3 * np.abs(z0) ** 3,
               "count": np.ones(z0.size)}
    args = (R, (GOLDEN,), z0, pts0, orders, 0.5, targets)
    calls = []

    def counted(zs, pts):
        calls.append(zs.shape)
        return vector_term(zs, pts)

    got = operators._orbit_sum(counted, *args)
    want = step_at_a_time(vector_term, *args)
    stops = -got["count"][:, 0] / COUNT_UNIT
    assert np.array_equal(stops, -want["count"][:, 0] / COUNT_UNIT)
    assert len(set(stops)) > 3 and stops.min() > operators._J_MIN
    assert np.all(got["count"] == got["count"][:, :1])
    for c in ("a", "b"):
        assert got[c].shape == (z0.size, len(pts0))
        assert np.array_equal(got[c], want[c])
    # a block holds at most QUAD_CHUNK points and there are far fewer blocks
    # than steps
    assert all(s * r * len(pts0) <= QUAD_CHUNK for s, r in calls)
    assert len(calls) < stops.max() / 10


def test_blocked_orbit_sum_stops_at_the_term_budget(monkeypatch):
    # at a decay rate of 1e-9 no row meets its target: both loops give up
    # past _J_MAX terms, and the blocked one evaluates no term beyond it
    monkeypatch.setattr(operators, "_J_MAX", 300)
    z0 = Sector(np.pi / 2, 0.02, 2).grid(3, 2).ravel()
    pts0 = np.array([[0.1], [0.6]])
    args = (R, (GOLDEN,), z0, pts0, {"a": 3, "b": 4, "count": 3}, 1e-9,
            {c: np.full(z0.size, 1e-12) for c in ("a", "b", "count")})
    steps = []

    def counted(zs, pts):
        steps.append(len(zs))
        return vector_term(zs, pts)

    with pytest.raises(TailNotConverged):
        operators._orbit_sum(counted, *args)
    assert sum(steps) == 301
    with pytest.raises(TailNotConverged):
        step_at_a_time(vector_term, *args)


def probe_grid(dim, samples=(5, 4, 6)):
    """The probe's sector x torus axes and flat sample points."""
    n_r, n_phi, n_th = samples
    u2 = Sector(np.pi / 2, 0.02, 2).grid(n_r, n_phi, r_min_factor=0.5)
    theta_axis = np.linspace(0.0, 1.0, n_th, endpoint=False)
    return (np.log(np.abs(u2[:, 0])), np.angle(u2[0, :]), [theta_axis] * dim,
            u2.ravel())


def multilinear(lr, ph, th):
    """Data multilinear in the grid coordinates (log radius, argument, one
    angle)."""
    return (1.0 + 2.0 * lr) * (3.0 - ph) * (0.5 + th) + 0.25 * lr * th


def test_grid_function_is_exact_on_multilinear_data():
    # weight 0 stores the data as it is, weight 2 divides by u^2 and
    # multiplies back; within the unwrapped angle cells both are exact
    log_r, args, axes, z = probe_grid(1)
    nodes = multilinear(np.log(np.abs(z))[:, None], np.angle(z)[:, None],
                        axes[0][None, :])
    f = operators._GridFunction(log_r, args, axes, z,
                                [nodes, nodes * z[:, None] ** 2], [0, 2])
    rng = np.random.default_rng(3)
    zs = np.exp(rng.uniform(log_r[0], log_r[-1], (3, 7))
                + 1j * rng.uniform(args[0], args[-1], (3, 7)))
    pts = rng.uniform(0.0, axes[0][-1], (3, 5, 1))
    plain, weighted = f(zs, pts)
    want = multilinear(np.log(np.abs(zs))[..., None],
                       np.angle(zs)[..., None], pts[:, None, :, 0])
    assert plain.shape == (3, 7, 5)
    assert np.max(np.abs(plain - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(weighted - want * zs[..., None] ** 2)) <= (
        1e-13 * np.max(np.abs(want * zs[..., None] ** 2)))


def test_grid_function_clamps_the_sector_and_wraps_the_angles():
    log_r, args, axes, z = probe_grid(1)
    rng = np.random.default_rng(4)
    data = rng.standard_normal((z.size, axes[0].size))
    f = operators._GridFunction(log_r, args, axes, z, [data], [0])
    # outside the radius and argument range: the nearest edge of the box
    out = np.array([[np.exp(log_r[-1] + 0.3 + 1j * (args[-1] + 0.2)),
                     np.exp(log_r[0] - 0.5 + 1j * (args[0] - 0.1))]])
    edge = np.array([[np.exp(log_r[-1] + 1j * args[-1]),
                      np.exp(log_r[0] + 1j * args[0])]])
    pts = np.array([[[0.05], [0.45]]])
    assert np.array_equal(f(out, pts)[0], f(edge, pts)[0])
    # across theta = 1 -> 0: a shift by whole turns changes nothing, and
    # halfway through the last cell sits the mean of the last node and node 0
    zs = z[None, :]
    last = axes[0][-1]
    assert np.allclose(f(zs, pts + 3.0)[0], f(zs, pts)[0], rtol=0, atol=1e-14)
    mid = f(zs, np.array([[[(last + 1.0) / 2]]]))[0][0, :, 0]
    assert np.allclose(mid, (data[:, -1] + data[:, 0]) / 2, rtol=0, atol=1e-14)
    # a one-node argument axis is constant along the argument
    flat = operators._GridFunction(log_r, args[:1], axes, z[::len(args)],
                                   [data[::len(args)]], [0])
    assert np.array_equal(flat(out, pts)[0],
                          flat(np.abs(out).astype(complex), pts)[0])
    assert np.allclose(flat(z[None, ::len(args)], axes[0][None, :, None])[0][0],
                       data[::len(args)], rtol=0, atol=1e-14)


def clamped_cell(nodes, x):
    """Bracketing node indices (i, j) and weight w of points ``x`` clamped
    to the ends of an ascending axis (i == j and w == 0 on a one-node
    axis)."""
    x = np.clip(x, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                0, max(nodes.size - 2, 0))
    j = np.minimum(i + 1, nodes.size - 1)
    span = nodes[j] - nodes[i]
    w = np.divide(x - nodes[i], span, out=np.zeros_like(x), where=span > 0)
    return i, j, w


def corner_by_corner(f, z, pts):
    """The interpolation of a _GridFunction ``f`` summed over all
    2^(2+dim) cell corners on the full (steps, rows, points) broadcast, on
    the flat (radius, argument, angles...) table, each point clamped to the
    box before its cell is found: the formula the separable interpolation
    replaced."""
    table = f.table.reshape(-1, len(f.weights))
    sizes = [a.size for a in f.axes]
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    z = np.asarray(z, dtype=complex)[..., None]
    coords = [np.log(np.abs(z)), np.angle(z)]
    coords += [np.mod(pts[..., None, :, a], 1.0) for a in range(pts.shape[-1])]
    sides = []
    for nodes, x, stride in zip(f.axes, coords, strides):
        i, j, w = clamped_cell(nodes, x)
        sides.append(((i * stride, 1.0 - w), (j * stride, w)))
    vals = 0.0
    for corner in itertools.product(*sides):
        index = sum(offset for offset, _ in corner)
        weight = math.prod(factor for _, factor in corner)
        vals = vals + weight[..., None] * table[index]
    return [vals[..., i] * z ** w for i, w in enumerate(f.weights)]


@pytest.mark.parametrize("dim", [1, 2])
def test_separable_interpolation_agrees_with_the_corner_sum(dim):
    # complex data with weights [1, 3, 0], at points inside the box, clamped
    # outside its radii and arguments, and at angles across 1 -> 0 and
    # shifted by whole turns: the separable sum agrees with the sum over
    # every corner to 1e-15 of the largest value
    log_r, args, axes, z = probe_grid(dim, samples=(5, 4, 4))
    rng = np.random.default_rng(15 + dim)
    n_th = 4 ** dim
    values = [rng.standard_normal((z.size, n_th))
              + 1j * rng.standard_normal((z.size, n_th)) for _ in range(3)]
    weights = [1, 3, 0]
    f = operators._GridFunction(log_r, args, axes, z, values, weights)
    inside = np.exp(rng.uniform(log_r[0], log_r[-1], (3, 7))
                    + 1j * rng.uniform(args[0], args[-1], (3, 7)))
    outside = np.exp(rng.uniform(log_r[0] - 0.3, log_r[-1] + 0.3, (3, 7))
                     + 1j * rng.uniform(args[0] - 0.3, args[-1] + 0.3, (3, 7)))
    last = axes[0][-1]
    across = rng.uniform(last, 1.0, (3, 5, dim))   # the cell that wraps to 0
    for zs in (inside, outside):
        for pts in (rng.random((3, 5, dim)), across,
                    across + rng.integers(-3, 4, (3, 5, dim))):
            got = f(zs, pts)
            want = corner_by_corner(f, zs, pts)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (3, 7, 5)
                assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_function_agrees_with_scipy(dim):
    # the numpy interpolation against SciPy's RegularGridInterpolator on
    # the same padded table, at points inside and outside the sector box
    from scipy.interpolate import RegularGridInterpolator

    log_r, args, axes, z = probe_grid(dim, samples=(5, 4, 4))
    rng = np.random.default_rng(5 + dim)
    n_th = 4 ** dim
    values = [rng.standard_normal((z.size, n_th))
              + 1j * rng.standard_normal((z.size, n_th)) for _ in range(3)]
    weights = [1, 3, 0]
    f = operators._GridFunction(log_r, args, axes, z, values, weights)
    zs = np.exp(rng.uniform(log_r[0] - 0.2, log_r[-1] + 0.2, (2, 6))
                + 1j * rng.uniform(args[0] - 0.2, args[-1] + 0.2, (2, 6)))
    pts = rng.uniform(-1.0, 2.0, (2, 5, dim))
    got = f(zs, pts)

    table = np.stack([v / z[:, None] ** w for v, w in zip(values, weights)],
                     axis=-1).reshape(len(log_r), len(args),
                                      *(len(t) for t in axes), len(weights))
    grid = [log_r, args]
    for i, t in enumerate(axes):
        table = np.concatenate([table, table.take([0], axis=2 + i)], axis=2 + i)
        grid.append(np.concatenate([t, [1.0]]))
    interp = RegularGridInterpolator(tuple(grid), table, bounds_error=False,
                                     fill_value=None)
    lr = np.clip(np.log(np.abs(zs)), log_r[0], log_r[-1])
    ph = np.clip(np.angle(zs), args[0], args[-1])
    cols = np.broadcast_arrays(lr[..., None], ph[..., None],
                               *np.moveaxis(np.mod(pts, 1.0)[:, None], -1, 0))
    want = interp(np.stack(cols, axis=-1))
    for i, w in enumerate(weights):
        ref = want[..., i] * zs[..., None] ** w
        assert np.max(np.abs(got[i] - ref)) <= 1e-14 * np.max(np.abs(ref))


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
    # integral in closed form, without any ODE solver; at m = 20 a
    # half-period panel of omega holds 12 periods of eta, more than one
    # 15-point rule resolves, so only the panel refinement meets tol
    th0, tol = 0.7, 1e-10
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * m * th[0]))
    got = flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (GOLDEN,), u0,
                              np.array([th0]), eta_order=3, mu=0.5, tol=tol)
    assert abs(got - one_mode_closed_form(m, "sin", u0, th0)) <= tol


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


def one_mode_closed_form(m, trig, u0, th0):
    """The integral of u^3 (1 + 0.2 trig(2 pi m theta)) along the trajectory
    u0 / (1 + s u0) of velocity -u^2, with theta = th0 + s * GOLDEN, in
    closed form at 20 digits.  With a = 1 / u0 the integrand is
    (1 + 0.2 trig(phi + w s)) / (s + a)^3, phi = 2 pi m th0 and
    w = 2 pi m GOLDEN; the integral of e^{i v s} / (s + a)^3 over s >= 0 is
    J(v) = e^{-i v a} E_3(-i v a) / a^2 (the exponential integral E_n,
    continued from real a > 0).  Writing trig through e^{+-i(phi + w s)},
    the integral is a^-2 / 2 plus 0.2 times e^{i phi} J(w) and
    e^{-i phi} J(-w) combined as trig combines them."""
    with mpmath.workdps(20):
        a = 1 / mpmath.mpmathify(u0)
        w = 2 * mpmath.pi * m * mpmath.mpf(GOLDEN)
        phase = mpmath.expj(2 * mpmath.pi * m * mpmath.mpf(th0))
        up, down = (mpmath.expj(-v * a) * mpmath.expint(3, -1j * v * a) / a ** 2
                    for v in (w, -w))
        osc = ((phase * up - down / phase) / 2j if trig == "sin"
               else (phase * up + down / phase) / 2)
        return complex(1 / (2 * a ** 2) + osc / 5)


@pytest.mark.parametrize("trig", ["sin", "cos"])
@pytest.mark.parametrize("m", [16, 32])
def test_flow_integral_closed_form_where_a_coarse_grid_aliases(m, trig):
    # on a grid of 16 or 32 angles, cos 2 pi m theta is constant and
    # sin 2 pi m theta vanishes: the angle modes must come from a grid
    # that resolves them, or the mode would pass for part of the average
    th0, tol = 0.7, 1e-10
    f = getattr(np, trig)
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * f(2 * np.pi * m * th[0]))
    got = flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (GOLDEN,), 0.03,
                              np.array([th0]), eta_order=3, mu=0.5, tol=tol)
    assert abs(got - one_mode_closed_form(m, trig, 0.03, th0)) <= tol


def test_flow_integral_keeps_a_resonant_mode_in_the_average():
    # at frequencies (w, 2w) the angle 2 theta0 - theta1 stays where it
    # starts, so the integral of u^3 (1 + 0.2 cos 2 pi (2 theta0 - theta1))
    # along u0 / (1 + s u0) is u0^2 / 2 (1 + 0.2 cos 2 pi (2 theta0 - theta1))
    tol = 1e-10
    eta = lambda u, th: u ** 3 * (
        1.0 + 0.2 * np.cos(2 * np.pi * (2 * th[0] - th[1])))
    for u0 in (0.03, 0.03 * np.exp(0.3j)):
        th0 = np.array([0.7, 0.2])
        got = flow_orbit_integral(eta, UPoly({2: -1.0}, 12),
                                  (GOLDEN, 2 * GOLDEN), u0, th0, eta_order=3,
                                  mu=0.5, tol=tol)
        want = u0 ** 2 / 2 * (1.0 + 0.2 * np.cos(2 * np.pi * (1.4 - 0.2)))
        assert abs(got - want) <= tol


def test_flow_integral_with_a_static_angle():
    # at frequencies (w, 0) theta1 stays where it starts: the integral is
    # the one-mode closed form times 1 + 0.3 cos 2 pi theta1
    tol = 1e-10
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * th[0])) * (
        1.0 + 0.3 * np.cos(2 * np.pi * th[1]))
    for u0 in (0.03, 0.03 * np.exp(0.3j)):
        got = flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (GOLDEN, 0.0),
                                  u0, np.array([0.7, 0.2]), eta_order=3,
                                  mu=0.5, tol=tol)
        want = one_mode_closed_form(1, "sin", u0, 0.7) * (
            1.0 + 0.3 * np.cos(2 * np.pi * 0.2))
        assert abs(got - want) <= tol


@pytest.mark.parametrize("freqs,theta", [
    ((), None),                                 # no angles
    ((0.0,), np.array([0.7])),                  # an angle that stays
    ((GOLDEN,), np.array([0.7])),               # one moving angle
    ((GOLDEN, 2 * GOLDEN), np.array([0.7, 0.2])),   # a resonant mode
    ((GOLDEN, np.sqrt(2.0)), np.array([0.7, 0.2])),
])
def test_flow_integral_of_a_real_start_is_a_float(freqs, theta):
    # a real start and an integrand real on real points give a Python
    # float, whatever the path: no imaginary dust from the FFT phases
    def eta(u, th):
        if th is None:
            return u ** 3
        return u ** 3 * (1.0 + 0.2 * np.cos(2 * np.pi * (2 * th[0] - th[-1]))
                         + 0.1 * np.sin(2 * np.pi * th[0]))

    kw = dict(eta_order=3, mu=0.5, tol=1e-10)
    vel = UPoly({2: -1.0, 3: 0.5}, 12)
    assert type(flow_orbit_integral(eta, vel, freqs, 0.03, theta, **kw)) \
        is float
    assert type(flow_inverse(eta, vel, freqs, 0.03, theta, **kw)) is float


def test_flow_integral_angle_grid_limit(monkeypatch):
    # an angle grid that would need more points than the limit (lowered
    # here so that a 20th mode reaches it), and a velocity that is not
    # finite on the segment of an integral without angles, end in
    # TailNotConverged
    kw = dict(eta_order=3, mu=0.5, tol=1e-10)
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * 20 * th[0]))
    monkeypatch.setattr(operators, "_GRID_MAX", 64)
    with pytest.raises(TailNotConverged, match="angle grid"):
        flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (GOLDEN,), 0.03,
                            np.array([0.7]), **kw)
    with pytest.raises(TailNotConverged, match="not finite"):
        flow_orbit_integral(lambda u, th: u ** 3,
                            UPoly({2: -1.0, 3: np.nan}, 12), (), 0.03, None,
                            **kw)


@pytest.mark.parametrize("u0", [0.03, 0.004, 0.03 * np.exp(0.5j),
                                0.01 * np.exp(-0.7j)])
def test_trajectory_matches_the_closed_form(u0):
    # velocity -u^2 has the trajectory u0/(1 + s u0); the Taylor steps and
    # their series between the step ends follow it to rounding level
    ts, along = quadrature.trajectory(UPoly({2: -1.0}, 12), u0,
                                      lambda s, z: s >= 1e5, None)
    assert ts[0] == 0.0 and ts[-1] >= 1e5 and np.all(np.diff(ts) > 0)
    inside = np.random.default_rng(3).uniform(0.0, ts[-1], 20000)
    for s in (ts, inside, (ts[1:] + ts[:-1]) / 2):
        want = u0 / (1.0 + s * u0)
        assert np.max(np.abs(along(s) - want) / np.abs(want)) <= 1e-14


def test_trajectory_limits(monkeypatch):
    # a stop test that still fails at the time limit (lowered here so that
    # a short trajectory reaches it), and a velocity whose Taylor series is
    # not finite, end in TailNotConverged instead of stepping without end;
    # the integrand has an angle, since without one no trajectory is stepped
    kw = dict(eta_order=3, mu=0.5, tol=1e-8)
    eta = lambda u, th: u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * th[0]))
    th0 = np.array([0.7])
    monkeypatch.setattr(quadrature, "_T_MAX", 50.0)
    with pytest.raises(TailNotConverged, match="at time 5.000e[+]01"):
        flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (GOLDEN,), 0.03, th0,
                            **kw)
    monkeypatch.undo()
    with pytest.raises(TailNotConverged, match="non-finite Taylor step"):
        flow_orbit_integral(eta, UPoly({2: -1.0, 3: np.nan}, 12), (GOLDEN,),
                            0.03, th0, **kw)


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
    # the Banach estimate reads the last of the five factors
    lam = rep["factors"][-1]
    assert rep["banach_estimate"]["distance"] == pytest.approx(
        lam / (1 - lam) * rep["update_norms"][-1], rel=1e-15)


ARTIFACTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "artifacts.py")


def test_probe_contracts_on_two_angle_axes(tmp_path, monkeypatch):
    # the contraction probe on the 2-torus map of tools/artifacts.py, the one
    # probe whose interpolation and term tables run on two angle axes;
    # loading that script puts src/ and perfbench/ on sys.path, so the
    # path is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("artifacts", ARTIFACTS)
    artifacts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(artifacts)
    command, config = artifacts.EXTRA_RUNS["map-2torus-probe"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "operators.json").read_text())["contraction"]
    assert rep["grid"] == {"radii": 4, "arguments": 3, "angles": 4, "dim": 2}
    assert all(f < 1 for f in rep["factors"])
    # values at the corner-by-corner interpolation and one evaluation per
    # term table: the separable interpolation and the stacked tables may
    # move them only at rounding level
    assert rep["factors"] == pytest.approx([0.0104851323415, 0.469243434741],
                                           rel=1e-6)
    assert rep["defect_norms"] == pytest.approx(
        [626.420091608, 10.6081016276, 3.27992493987, 0.994542721704],
        rel=1e-6)
