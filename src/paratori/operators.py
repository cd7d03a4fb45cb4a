"""Numerical diagnostics for the correction operators behind the manifold
construction: sector dynamics bounds, right inverses of the transfer
difference by orbit sums (maps) and by quadrature along trajectories
(flows), and a fixed-point contraction probe.

Everything here is a sampled, fixed-resolution diagnostic — grids and
truncation indices are finite and reported, so the outputs are evidence,
not certified enclosures.

The module runs on numpy alone: the contraction probe interpolates
its candidate corrections multilinearly (``_GridFunction``), and the
trajectory integrals step their ODE by its Taylor series
(``quadrature.trajectory``).
"""

import itertools
import math

import numpy as np

from .errors import (
    BoundViolated,
    ConfigError,
    Diverged,
    HypothesisViolated,
    StructureViolation,
    TailNotConverged,
)
from .fourier import angle_grid
from .jets import JetStack
from .pairs import check_finite
from .quadrature import QUAD_CHUNK, panel_quadrature, trajectory

_J_MIN, _J_MAX = 16, 60000   # first and last orbit term where a sum may stop


class Sector:
    """Complex sector |arg u| < beta/2, 0 < |u| < rho, for order-k dynamics."""

    def __init__(self, beta, rho, k):
        k = int(k)
        if k < 2:
            raise ConfigError("sector order k must be >= 2, got %d" % k)
        if not (0.0 < beta < np.pi / (k - 1)):
            raise ConfigError(
                "sector opening %.4f outside (0, pi/%d)" % (beta, k - 1))
        if not (0.0 < rho < 1.0):
            raise ConfigError("sector radius %.4f outside (0, 1)" % rho)
        self.beta = float(beta)
        self.rho = float(rho)
        self.k = k

    def contains(self, u, slack=0.0):
        u = np.asarray(u, dtype=complex)
        r = np.abs(u)
        ok = (r > 0) & (r < self.rho + slack)
        ok &= np.abs(np.angle(u)) < self.beta / 2 + slack
        return ok if ok.ndim else bool(ok)

    def grid(self, n_r, n_phi, r_min_factor=1e-3):
        """Complex samples: geometric radii x uniform arguments, inset from
        the boundary by a relative 1e-9."""
        radii = np.geomspace(self.rho * r_min_factor, self.rho * (1 - 1e-9), n_r)
        half = self.beta / 2 * (1 - 1e-9)
        args = np.linspace(-half, half, n_phi) if n_phi > 1 else np.array([0.0])
        return radii[:, None] * np.exp(1j * args[None, :])

    def max_decay_rate(self, leading):
        """Largest admissible decay-rate constant for a leading coefficient."""
        kappa = (self.k - 1) * self.beta / 2
        return (self.k - 1) * abs(leading) * np.cos(kappa)


def _check_decay_rate(sector, leading, mu):
    limit = sector.max_decay_rate(leading)
    if not (0.0 < mu < limit):
        raise HypothesisViolated(
            "decay rate %.6f outside (0, %.6f)" % (mu, limit))


def _normal_form_order(inner):
    """Leading nonlinear order and coefficient of a normal-form polynomial."""
    orders = [n for n in inner.orders() if n >= 2 and inner.coeff(n) != 0.0]
    if not orders:
        raise StructureViolation("inner polynomial has no nonlinear term")
    k = orders[0]
    return k, inner.coeff(k)


def _decay(inner, eta_order, mu, u):
    """(q, x) of the sector decay bound: an integrand of u-order
    ``eta_order`` decays like (1 + s x)^{-q}, q = eta_order / (k - 1),
    x = mu |u|^{k-1}.  The bound needs a decaying normal form, q > 1 and
    starts u off the fixed point 0, where x vanishes."""
    if np.any(np.asarray(u) == 0):
        raise HypothesisViolated("orbit sums and trajectory integrals need "
                                 "starts u != 0")
    k, lead = _normal_form_order(inner)
    if lead >= 0.0:
        raise HypothesisViolated("orbit sums and trajectory integrals need a "
                                 "decaying normal form, lead %.3e" % lead)
    q = eta_order / (k - 1)
    if q <= 1.0:
        raise HypothesisViolated("integrand order %s gives no convergent tail "
                                 "at k = %d" % (eta_order, k))
    return q, mu * np.abs(u) ** (k - 1)


def _tail(term, s, x, q):
    """Decay-bound estimate of all that follows a term of modulus ``term``
    at step or time ``s``."""
    return term * (1.0 + s * x) / ((q - 1.0) * x)


def _orbit_sum(term, inner, freqs, z0, pts0, eta_orders, mu, targets):
    """-sum_j term(R^j(z0), pts0 + j*omega), per component a (rows, angle
    points) array.  A row stops once j >= _J_MIN and every component's
    tail after the j-th term is at most half of its per-row target.

    The orbit and the angles do not depend on the terms, so ``term`` takes
    a block of steps of the rows still running: ``zs`` of shape (steps,
    rows) and ``pts`` of shape (steps, angle points, dim), and returns per
    component an array of shape (steps, rows, angle points).  A block holds
    at most ``QUAD_CHUNK`` points (at least one step), and at most
    max(_J_MIN, j) steps from step j, so the blocks double from _J_MIN and
    a row that stops mid-block wastes fewer steps than it summed.  Within
    a block the terms are summed and the rows stopped one step at a time,
    as a loop over single steps would.
    """
    rules = {c: _decay(inner, o, mu, z0) for c, o in eta_orders.items()}
    totals = None
    active = np.ones(z0.size, dtype=bool)
    z, shift = z0, np.zeros(pts0.shape[1])
    j = 0
    while active.any():
        if j > _J_MAX:
            raise TailNotConverged(
                "%d rows above tail target after %d orbit terms"
                % (int(active.sum()), _J_MAX))
        rows = np.flatnonzero(active)
        steps = min(max(1, QUAD_CHUNK // (rows.size * len(pts0))),
                    max(_J_MIN, j), _J_MAX + 1 - j)
        zs = np.empty((steps, rows.size), dtype=z.dtype)
        pts = np.empty((steps,) + pts0.shape)
        for s in range(steps):
            zs[s] = z[rows]
            pts[s] = np.mod(pts0 + shift, 1.0)
            z = inner(z)
            shift = shift + freqs
        block = term(zs, pts)
        if totals is None:  # the first terms fix the dtype: real in, real out
            totals = {c: np.zeros_like(t[0]) for c, t in block.items()}
        for s in range(steps):
            live = active[rows]
            done = np.ones(int(live.sum()), dtype=bool)
            for c, t in block.items():
                t = t[s, live]
                totals[c][active] += t
                q, x = rules[c]
                tail = _tail(np.abs(t).max(axis=1), j, x[active], q)
                done &= tail <= targets[c][active] / 2
            if j >= _J_MIN:
                active[np.flatnonzero(active)[done]] = False
            j += 1
            if not active.any():
                break
    return {c: -t for c, t in totals.items()}


def sector_iterate_check(inner, sector, mu, n_iter, grid_shape=(20, 20)):
    """Iterate sector samples under the map normal form and check the decay
    bound |R^j(u)| <= |u| / (1 + j mu |u|^{k-1})^{1/(k-1)} at every step.

    Returns a report with the extreme slacks (bound minus actual modulus);
    raises BoundViolated with a witness point if the bound fails (beyond
    1e-13 of the grid radius) or an iterate leaves the sector.
    """
    if abs(inner.coeff(1) - 1.0) > 1e-14:
        raise StructureViolation("normal form must be tangent to the identity")
    k, lead = _normal_form_order(inner)
    if k != sector.k:
        raise ConfigError("sector order %d vs normal-form order %d" % (sector.k, k))
    if lead >= 0.0:
        raise HypothesisViolated(
            "decaying branch needs a negative leading coefficient, got %.3e" % lead)
    _check_decay_rate(sector, lead, mu)

    u0 = sector.grid(*grid_shape).ravel()
    r0 = np.abs(u0)
    scale = r0.max()
    z = u0.copy()
    min_slack, max_slack = np.inf, -np.inf
    for j in range(n_iter + 1):
        if j and not np.all(sector.contains(z, slack=1e-15)):
            i = int(np.argmin(sector.contains(z, slack=1e-15)))
            raise BoundViolated(
                "iterate %d of %s left the sector" % (j, u0[i]),
                witness=(complex(u0[i]), j))
        bound = r0 / (1.0 + j * mu * r0 ** (k - 1)) ** (1.0 / (k - 1))
        slack = bound - np.abs(z)
        worst = float(slack.min())
        if worst < -1e-13 * scale:
            i = int(np.argmin(slack))
            raise BoundViolated(
                "decay bound violated at iterate %d of %s by %.3e"
                % (j, u0[i], -worst), witness=(complex(u0[i]), j))
        min_slack = min(min_slack, worst)
        max_slack = max(max_slack, float(slack.max()))
        z = inner(z)
    return {
        "min_slack": float(min_slack),
        "max_slack": float(max_slack),
        "iterations": int(n_iter),
        "points": int(u0.size),
    }


def map_inverse_norm_limit(order, k, mu, rho):
    """Weighted-norm limit for the orbit-sum inverse on order-``order`` data."""
    return rho ** (k - 1) + (k - 1) / (mu * order)


def flow_inverse_norm_limit(order, k, mu):
    """Weighted-norm limit for the trajectory-integral inverse."""
    return (k - 1) / (mu * order)


def orbit_sum_inverse(eta, inner, freqs, u, theta=None, *, eta_order, mu,
                      tail_tol=1e-12):
    """Right inverse of the transfer difference by orbit summation.

    Returns -sum_{j>=0} eta(R^j(u), theta + j*omega), truncated once the
    analytic tail estimate (from the sector decay bound, using the stated
    u-order of eta and the decay rate mu) drops below half of ``tail_tol``:
    the contraction probe's orbit sum on one point.
    """
    pts0 = np.reshape([] if theta is None else theta, (1, -1)).astype(float)

    def term(zs, pts):
        return {"eta": np.reshape(
            [eta(z, None if theta is None else p[0])
             for z, p in zip(zs[:, 0], pts)], (-1, 1, 1))}

    total = _orbit_sum(term, inner, freqs, np.array([u]), pts0,
                       {"eta": eta_order}, mu, {"eta": np.array([tail_tol])})
    return total["eta"][0, 0]


def flow_orbit_integral(eta, velocity, freqs, u, theta=None, *, eta_order, mu,
                        tol=1e-10, sector=None):
    """Integral of eta along the decaying scalar trajectory, from 0 to
    infinity: the trajectory solves du/ds = velocity(u) with angles advancing
    linearly, theta(s) = theta + s*omega.

    ``eta(u, theta)`` takes a 1-D complex array of points ``u`` and, per
    point, the angles as the columns of a (dim, u.size) array (``None``
    without angles), and returns an array of shape ``u.shape``; it is never
    called on more than ``quadrature.QUAD_CHUNK`` points at once.

    The error is split in two halves of ``tol``.  ``velocity`` is a
    ``jets.UPoly``, and the trajectory is stepped by its Taylor series of
    order 20 (``quadrature.trajectory``) to the first step end T where the
    analytic decay-bound tail after T is at most tol/2 (TailNotConverged if
    that takes beyond time 1e9, or for a non-finite step).  The integral
    over [0, T] then takes Gauss-Kronrod (7, 15) panels on the step series:
    the steps, cut to at most half the shortest angle period, and bisected
    until each panel's |K15 - G7| is within its width's share of tol/2
    (TailNotConverged for a non-finite eta or a quadrature past
    ``quadrature.panel_quadrature``'s limits).  ``sector`` checks the
    trajectory at every step end (FlowLeftSector).

    The derivative of the returned quantity (as a function of the starting
    point) along the drift equals minus the integrand.
    """
    q, x = _decay(velocity, eta_order, mu, u)
    freqs = np.asarray(freqs, dtype=float)
    th0 = None if theta is None else np.asarray(theta, dtype=float)

    def integrand(s, z):
        angles = None if th0 is None else th0[:, None] + freqs[:, None] * s
        return eta(z, angles)

    def tail_small(s, z):
        term = abs(integrand(np.array([s]), np.array([z]))[0])
        return _tail(term, s, x, q) <= tol / 2

    edges, along = trajectory(velocity, u, tail_small, sector)
    width = None
    if th0 is not None and np.any(freqs):
        width = 1.0 / (2.0 * np.abs(freqs).max())
    value = complex(panel_quadrature(lambda s: integrand(s, along(s)),
                                     edges, width, tol / 2))
    return value if abs(value.imag) > 1e-300 else value.real


def flow_inverse(eta, velocity, freqs, u, theta=None, **kw):
    """Right inverse of the drift-derivative operator: minus the trajectory
    integral of eta (same keywords as flow_orbit_integral)."""
    return -flow_orbit_integral(eta, velocity, freqs, u, theta=theta, **kw)


# ----- contraction probe ----------------------------------------------------


def _cell(nodes, x):
    """Bracketing node indices (i, j) and weight w of points ``x`` on an
    ascending axis, ``x`` clamped to the axis ends: x = (1-w) x_i + w x_j
    (i == j and w == 0 on a one-node axis)."""
    x = np.clip(x, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                0, max(nodes.size - 2, 0))
    j = np.minimum(i + 1, nodes.size - 1)
    span = nodes[j] - nodes[i]
    w = np.divide(x - nodes[i], span, out=np.zeros_like(x), where=span > 0)
    return i, j, w


class _GridFunction:
    """Interpolated candidate correction on the sector x torus grid.

    Stores each component's values normalized by u^weight, stacked on a
    trailing value axis of one (log radius, argument, angles...) table, so
    a query finds its bracketing cells once for all components, and
    interpolates multilinearly between the cell corners.  The sector
    coordinates are clamped to the grid box (nearest-edge continuation);
    each torus axis carries its node 0 again at angle 1, so the angles
    wrap across 1 -> 0.
    """

    def __init__(self, log_r, args, theta_axes, z_flat, values, weights):
        self.weights = weights
        scaled = np.stack([v / z_flat[:, None] ** w
                           for v, w in zip(values, weights)], axis=-1)
        pad = scaled.reshape(len(log_r), len(args),
                             *(len(t) for t in theta_axes), len(weights))
        self.axes = [log_r, args]
        for i, t in enumerate(theta_axes):
            pad = np.concatenate([pad, pad.take([0], axis=2 + i)], axis=2 + i)
            self.axes.append(np.concatenate([t, [1.0]]))
        self.table = pad.reshape(-1, len(weights))

    def __call__(self, z, pts):
        """Per component, its interpolated values on the rows ``z`` times
        the angle points ``pts``: z of shape (steps, rows) and pts of shape
        (steps, points, dim) give (steps, rows, points) arrays."""
        z = np.asarray(z, dtype=complex)[..., None]
        coords = [np.log(np.abs(z)), np.angle(z)]
        coords += [np.mod(pts[..., None, :, a], 1.0)
                   for a in range(pts.shape[-1])]
        cells = [_cell(a, c) for a, c in zip(self.axes, coords)]
        shape = tuple(a.size for a in self.axes)
        vals = 0.0
        for corner in itertools.product((0, 1), repeat=len(cells)):
            index = np.ravel_multi_index(
                [j if upper else i for (i, j, _), upper in zip(cells, corner)],
                shape)
            weight = math.prod(w if upper else 1.0 - w
                               for (_, _, w), upper in zip(cells, corner))
            vals = vals + weight[..., None] * self.table[index]
        return [vals[..., i] * z ** w for i, w in enumerate(self.weights)]


def _weighted_sup(values, z, weight):
    return float(np.max(np.abs(values) / np.abs(z)[:, None] ** weight))


def contraction_probe(mp, pair, residual, sector, mu, *, samples, n_iter,
                      ball_alpha=0.5):
    """Iterate the correction fixed point from zero on a sector grid,
    around the pair and its full invariance defect ``residual`` as the
    solve hands it over, for ``n_iter`` sweeps on a grid of ``samples`` =
    (radii, arguments, angles per axis); the CLI states both defaults.

    The candidate correction (one scalar field per component, weighted by
    u^{o-k} at the component's contract order o: u^n, u^{n+k-1} and
    u^{n+2p-k-1}) lives on a fixed (radius, argument, angles) grid.  Each
    sweep evaluates the displaced-coefficient remainder pointwise and
    applies the orbit-sum inverse along the normal-form dynamics, to a
    weighted tail target of 1e-4 times the last nonzero update norm (at
    least 1e-14), then reports the weighted norm of the update, the ratio
    of successive update norms, and the weighted invariance defect of the
    corrected parameterization.  After the last sweep it states the Banach
    estimate lambda / (1 - lambda) times the last update norm, lambda the
    last factor, of the distance to the fixed point (None without a factor
    below one).  Raises Diverged when the ratio stays at or above one for
    five consecutive sweeps, and ConfigError (``check_finite``) when the
    residual holds a non-finite coefficient.

    The undisplaced jets (x, y, the angle tails and the defect tails) are
    stacked once into a ``JetStack``, and the orbit sums evaluate them, and
    the whole remainder, on blocks of orbit steps.

    The radial band spans [rho / 2, rho]: well below the outer radius the
    weighted quantities sink under double-precision roundoff of the
    evaluated differences, so a narrow band keeps every row meaningful.
    """
    if mp.kind != "map" or pair.kind != "map":
        raise StructureViolation("the contraction probe runs on maps only")
    n, k, d, dim = pair.order, pair.k, pair.d, pair.dim
    if sector.k != k:
        raise ConfigError("sector order %d vs problem order %d" % (sector.k, k))
    inner = pair.inner
    _check_decay_rate(sector, inner.coeff(k), mu)
    if not np.all(sector.contains(inner(sector.grid(8, 5).ravel()), slack=1e-12)):
        raise BoundViolated("normal form does not map the sector into itself")

    n_r, n_phi, n_th = samples
    u2 = sector.grid(n_r, n_phi, r_min_factor=0.5)
    z0 = u2.ravel()
    log_r = np.log(np.abs(u2[:, 0]))
    args = np.angle(u2[0, :])
    theta_axis = np.linspace(0.0, 1.0, n_th, endpoint=False)
    theta_axes = [theta_axis] * dim
    pts0 = angle_grid(dim, theta_axis).reshape(n_th ** dim, dim)
    nu, nt = z0.size, pts0.shape[0]

    ox, oy, ot = pair.contract_orders()
    comps = ["x", "y"] + ["t%d" % a for a in range(d)]
    orders = dict(zip(comps, [ox, oy] + [ot] * d))
    weights = {c: o - k for c, o in orders.items()}
    eta_orders = {c: o - 1 for c, o in orders.items()}

    # keep only the genuine defect tail; orders below the invariance contract
    # hold solver roundoff certified small, and would otherwise put a noise
    # floor under the weighted orbit-sum targets
    check_finite(residual)
    gx, gy, gt = residual
    defects = [gx.tail(ox), gy.tail(oy)] + [g.tail(ot) for g in gt]
    jets = JetStack([pair.x, pair.y, *pair.tails, *defects])
    c_series = mp.shear()

    def remainder(z, pts, f):
        """The three displaced-coefficient remainder components plus the
        current defect, evaluated pointwise on the rows ``z`` times the
        angle points ``pts``: z of shape (rows,) with pts of shape (points,
        dim), or a block of orbit steps, z of shape (steps, rows) with pts
        of shape (steps, points, dim).  The undisplaced jets take one
        stacked evaluation."""
        vals = jets.eval_grid(z, pts)
        kx, ky = vals[0], vals[1]
        base = pts[..., None, :, :] + np.moveaxis(vals[2:2 + d], 0, -1)
        disp = base + np.moveaxis(
            np.reshape([f[c] for c in comps[2:]], (d,) + kx.shape), 0, -1)
        defect = dict(zip(comps, vals[2 + d:]))
        c_base = c_series.eval(base)
        c_disp = c_series.eval(disp)
        out = {"x": ky * (c_disp - c_base) + f["y"] * c_disp + defect["x"],
               "y": (mp.y_terms.eval(kx + f["x"], ky + f["y"], disp)
                     - mp.y_terms.eval(kx, ky, base) + defect["y"])}
        for a in range(d):
            out["t%d" % a] = (
                mp.theta_terms[a].eval(kx + f["x"], ky + f["y"], disp)
                - mp.theta_terms[a].eval(kx, ky, base) + defect["t%d" % a])
        return out

    def defect_gap(rem_new, rem_prev):
        """Weighted sup of the corrected pair's invariance defect.

        Each sweep solves the difference equation exactly (up to the orbit
        tail), so the shifted-candidate term cancels against the previous
        remainder and the defect of the new candidate is the remainder
        difference evaluated on the grid nodes -- no interpolation enters.
        """
        worst = 0.0
        for c in comps:
            worst = max(worst, _weighted_sup(rem_new[c] - rem_prev[c],
                                             z0, eta_orders[c]))
        return worst

    report = {
        "order": n,
        "weights": weights,
        "grid": {"radii": n_r, "arguments": n_phi, "angles": n_th, "dim": dim},
        "update_norms": [],
        "factors": [],
        "defect_norms": [],
        "ball_alpha": ball_alpha,
        "left_ball": False,
        "note": "fixed-resolution sampled diagnostic, not a certified bound",
        "banach_estimate": {
            "distance": None,
            "note": "lambda / (1 - lambda) times the last update norm, lambda "
                    "the last factor: an estimate of the weighted distance "
                    "to the fixed point, not a certified bound"},
    }

    arrays = {c: np.zeros((nu, nt), dtype=complex) for c in comps}
    rem_prev = remainder(z0, pts0, arrays)
    report["defect_norms"].append(
        max(_weighted_sup(rem_prev[c], z0, eta_orders[c]) for c in comps))
    prev_update = None
    tol_scale = report["defect_norms"][0]
    bad_streak = 0
    for m in range(n_iter):
        tol_weighted = max(1e-14, 1e-4 * tol_scale)
        candidate = _GridFunction(log_r, args, theta_axes, z0,
                                  [arrays[c] for c in comps],
                                  [weights[c] for c in comps])
        new = _orbit_sum(
            lambda z, pts: remainder(z, pts,
                                     dict(zip(comps, candidate(z, pts)))),
            inner, pair.freqs, z0, pts0, eta_orders, mu,
            {c: tol_weighted * np.abs(z0) ** weights[c] for c in comps})
        upd = max(_weighted_sup(new[c] - arrays[c], z0, weights[c]) for c in comps)
        report["update_norms"].append(upd)
        if prev_update is not None and prev_update > 0:
            factor = upd / prev_update
            report["factors"].append(factor)
            bad_streak = bad_streak + 1 if factor >= 1.0 else 0
            if bad_streak >= 5:
                raise Diverged(
                    "update ratio at or above one for 5 consecutive sweeps",
                    report=report)
        prev_update = upd
        if upd > 0:
            tol_scale = upd
        arrays = new
        size = max(_weighted_sup(arrays[c], z0, weights[c]) for c in comps)
        if size > ball_alpha:
            report["left_ball"] = True
        rem_new = remainder(z0, pts0, arrays)
        report["defect_norms"].append(defect_gap(rem_new, rem_prev))
        rem_prev = rem_new
    if report["factors"] and report["factors"][-1] < 1.0:
        lam = report["factors"][-1]
        report["banach_estimate"]["distance"] = (
            lam / (1.0 - lam) * report["update_norms"][-1])
    return report
