"""Sector geometry, iterate confinement, the right inverse of the transfer
difference/derivative along the inner dynamics, and the fixed-point probe."""

import mpmath
import numpy as np
import pytest

from paratori import operators
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
    calls = []

    def eta(z, th):
        calls.append(z)
        return z ** 5 * (1.0 + 0.3 * np.cos(2 * np.pi * th[0]))

    def term(zs, pts):
        return {"eta": np.reshape([eta(z, p[0]) for z, p in zip(zs[:, 0], pts)],
                                  (-1, 1, 1))}

    want = step_at_a_time(term, R, (GOLDEN,), np.array([u]), theta[None],
                          {"eta": 5}, 0.5, {"eta": np.array([1e-11])})
    summed = len(calls)
    calls.clear()
    got = orbit_sum_inverse(eta, R, (GOLDEN,), u, theta, eta_order=5, mu=0.5,
                            tail_tol=1e-11)
    assert got == want["eta"][0, 0]
    assert summed > operators._J_MIN and len(calls) < 2 * summed


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
        assert np.max(np.abs(got[c] - want[c])) <= 1e-15 * np.max(np.abs(want[c]))
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
    # not finite, end in TailNotConverged instead of stepping without end
    kw = dict(eta_order=3, mu=0.5, tol=1e-8)
    eta = lambda u, th: u ** 3
    monkeypatch.setattr(quadrature, "_T_MAX", 50.0)
    with pytest.raises(TailNotConverged, match="at time 5.000e[+]01"):
        flow_orbit_integral(eta, UPoly({2: -1.0}, 12), (), 0.03, None, **kw)
    monkeypatch.undo()
    with pytest.raises(TailNotConverged, match="non-finite Taylor step"):
        flow_orbit_integral(eta, UPoly({2: -1.0, 3: np.nan}, 12), (), 0.03,
                            None, **kw)


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
