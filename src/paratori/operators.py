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
(``quadrature.trajectory``).  The per-step work of the orbit sums runs
on blocks of steps: the iterates are stepped one at a time, then the terms
and the stop rules take the whole block as arrays, each value bit for bit
what a loop over single steps gives.  On a block the probe pays per point,
not per corner or per table: the interpolation is separable (the radius
and argument corners on the block's rows, then the angle corners on its
angle points), and the term tables are one stack, evaluated once per angle
image (``jets.TableStack``).
"""

import itertools
import math

import numpy as np

from .errors import (
    BoundViolated,
    ConfigError,
    Diverged,
    FlowLeftSector,
    HypothesisViolated,
    StructureViolation,
    TailNotConverged,
)
from .fourier import AngleBatch, angle_grid
from .jets import JetStack, TableStack
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
    a row that stops mid-block wastes fewer steps than it summed.  The tail
    rule runs on the block's (steps, rows) array at once, and each row
    stops at its first step that meets it.  The row's total is read from a
    cumulative sum along the step axis that starts at its running total:
    the additions run in step order, so every total rounds as a loop over
    single steps rounds it.
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
        js = np.arange(j, j + steps)[:, None]
        done = js >= _J_MIN
        for c, t in block.items():
            q, x = rules[c]
            tail = _tail(np.abs(t).max(axis=2), js, x[rows], q)
            done = done & (tail <= targets[c][rows] / 2)
        stops = done.any(axis=0)
        last = np.where(stops, done.argmax(axis=0), steps - 1)
        for c, t in block.items():
            run = np.cumsum(np.concatenate([totals[c][rows][None], t]), axis=0)
            totals[c][rows] = run[last + 1, np.arange(rows.size)]
        active[rows[stops]] = False
        j += steps
    return {c: -t for c, t in totals.items()}


def sector_iterate_check(inner, sector, mu, n_iter, grid_shape=(20, 20)):
    """Iterate sector samples under the map normal form and check the decay
    bound |R^j(u)| <= |u| / (1 + j mu |u|^{k-1})^{1/(k-1)} at every step.

    Returns a report with the extreme slacks (bound minus actual modulus);
    raises BoundViolated with a witness point if the bound fails (beyond
    1e-13 of the grid radius) or an iterate leaves the sector.  The
    iterates are stepped one at a time but checked in blocks of at most
    ``QUAD_CHUNK`` points (at least one iterate); the first failing
    iterate raises, as a check of one iterate at a time would.
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
    steps = max(1, QUAD_CHUNK // u0.size)
    z = u0
    min_slack, max_slack = np.inf, -np.inf
    for j0 in range(0, n_iter + 1, steps):
        js = np.arange(j0, min(j0 + steps, n_iter + 1))
        zs = np.empty((js.size, u0.size), dtype=complex)
        # an iterate past the first one that leaves the sector may overflow;
        # it is not finite, so it leaves the sector too, and is never the
        # first failure the checks below report
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(js.size):
                zs[s] = z
                z = inner(z)
        left = ~sector.contains(zs, slack=1e-15) & (js > 0)[:, None]
        bound = r0 / (1.0 + js[:, None] * mu * r0 ** (k - 1)) ** (1.0 / (k - 1))
        slack = bound - np.abs(zs)
        bad = (left | (slack < -1e-13 * scale)).any(axis=1)
        if bad.any():
            s = int(np.argmax(bad))
            j = int(js[s])
            if left[s].any():
                i = int(np.argmax(left[s]))
                raise BoundViolated(
                    "iterate %d of %s left the sector" % (j, u0[i]),
                    witness=(complex(u0[i]), j))
            i = int(np.argmin(slack[s]))
            raise BoundViolated(
                "decay bound violated at iterate %d of %s by %.3e"
                % (j, u0[i], -slack[s, i]), witness=(complex(u0[i]), j))
        min_slack = min(min_slack, float(slack.min()))
        max_slack = max(max_slack, float(slack.max()))
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

    ``eta(u, theta)`` is called as in ``flow_orbit_integral``: on a 1-D
    array of orbit points ``u`` and their angles as the columns of a
    (dim, u.size) array (``None`` without angles), returning an array of
    shape ``u.shape``, on at most ``quadrature.QUAD_CHUNK`` points at once.
    """
    pts0 = np.reshape([] if theta is None else theta, (1, -1)).astype(float)

    def term(zs, pts):
        angles = None if theta is None else pts[:, 0].T
        return {"eta": np.reshape(eta(zs[:, 0], angles), (-1, 1, 1))}

    total = _orbit_sum(term, inner, freqs, np.array([u]), pts0,
                       {"eta": eta_order}, mu, {"eta": np.array([tail_tol])})
    return total["eta"][0, 0]


_GRID_MAX = 1 << 14   # most points of an angle grid of eta
# the second grid's shift in cells along each axis (2 points on each of 14
# axes make the largest grid): fractional parts of square roots of primes,
# so that no integer combination of them is a whole number of cells
_GRID_SHIFT = np.sqrt([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]) % 1


class _AngleModes:
    """The angle modes of eta(u, theta + .) at points u, from eta on a grid
    of n points per axis and an FFT.  ``average`` marks the modes with
    k.omega = 0 (to rounding), ``weight`` is 1 / (pi |k.omega|) on the other
    modes and 0 on these, ``upper`` marks the upper half of the spectrum,
    the modes with some |k_a| >= n/4.  The grid starts near 64 points and
    doubles in ``refine``."""

    def __init__(self, eta, theta, freqs):
        self.eta, self.theta, self.freqs = eta, theta, freqs
        self.dim = theta.size
        self._grid(1 << max(1, 6 // self.dim))

    def refine(self):
        """Double n (TailNotConverged past _GRID_MAX grid points)."""
        self._grid(2 * self.n)

    def _grid(self, n):
        self.n, dim = n, self.dim
        if n ** dim > _GRID_MAX:
            raise TailNotConverged("an angle grid of %d points per axis is "
                                   "above %d points" % (n, _GRID_MAX))
        k = np.stack(np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * dim,
                                 indexing="ij"))
        kw = np.abs(np.tensordot(self.freqs, k, axes=1))
        scale = np.tensordot(np.abs(self.freqs), np.abs(k), axes=1)
        self.average = kw <= 8 * np.finfo(float).eps * scale
        self.weight = 1.0 / (np.pi * np.where(self.average, np.inf, kw))
        self.upper = (np.abs(k) >= n / 4).any(axis=0)
        self._cells = angle_grid(dim, np.arange(n) / n).reshape(-1, dim).T

    def values(self, zs, shifted=False):
        """eta at the points ``zs`` on the grid, shifted by _GRID_SHIFT
        cells if ``shifted``: an array of shape zs.shape + (n,) * dim, from
        calls on at most QUAD_CHUNK points (TailNotConverged if any value
        is not finite)."""
        size = self.n ** self.dim
        angles = self.theta[:, None] + self._cells
        if shifted:
            angles = angles + _GRID_SHIFT[:self.dim, None] / self.n
        us = np.repeat(np.asarray(zs, dtype=complex), size)
        angles = np.tile(angles, zs.size)
        vals = np.concatenate([
            self.eta(us[i:i + QUAD_CHUNK], angles[:, i:i + QUAD_CHUNK])
            for i in range(0, us.size, QUAD_CHUNK)])
        if not np.isfinite(vals).all():
            raise TailNotConverged("integrand not finite on the angle grid "
                                   "at u = %s" % zs[0])
        return vals.reshape(zs.shape + (self.n,) * self.dim)

    def spectrum(self, z, shifted=False):
        """The moduli of the modes at the point z."""
        vals = self.values(np.array([z]), shifted)[0]
        return np.abs(np.fft.fftn(vals)) / vals.size

    def mean(self, zs):
        """The sum of the average's modes at the points ``zs``, each mode
        with its phase at theta: real where every grid value is real.  At
        most QUAD_CHUNK grid values are held at once."""
        size = self.n ** self.dim
        step = max(1, QUAD_CHUNK // size)
        out = []
        for i in range(0, zs.size, step):
            vals = self.values(zs[i:i + step])
            modes = np.fft.fftn(vals, axes=range(1, vals.ndim)) / size
            total = modes[:, self.average].sum(axis=1)
            real = ~vals.imag.reshape(len(vals), -1).any(axis=1)
            out.append(np.where(real, total.real, total))
        return np.concatenate(out)


def _segment_integral(f, velocity, z, tol):
    """Integral of f(v) / (-velocity(v)) over the segment from 0 to z, as
    the integral over t in [0, 1] of v = t z, by panel_quadrature to
    ``tol``: the integral of f from time 0 to infinity along the
    trajectory from z, whose ds is du / velocity(u)."""
    z = complex(z)

    def integrand(t):
        vals, speeds = f(t * z) * z, -velocity(t * z)
        with np.errstate(invalid="ignore"):   # panel_quadrature refuses NaN
            return vals / speeds
    return panel_quadrature(integrand, np.array([0.0, 1.0]), None, tol)


def flow_orbit_integral(eta, velocity, freqs, u, theta=None, *, eta_order, mu,
                        tol=1e-10, sector=None):
    """Integral of eta along the decaying scalar trajectory, from 0 to
    infinity: the trajectory solves du/ds = velocity(u) with angles advancing
    linearly, theta(s) = theta + s*omega.

    ``eta(u, theta)`` takes a 1-D complex array of points ``u`` and, per
    point, the angles as the columns of a (dim, u.size) array (``None``
    without angles), and returns an array of shape ``u.shape``; it is never
    called on more than ``quadrature.QUAD_CHUNK`` points at once.

    Write eta(u, theta) = sum_k eta_k(u) exp(2 pi i k.theta).  A mode with
    k.omega != 0 oscillates along the trajectory, and integrating by parts
    bounds its integral after time T by 2 |eta_k(u(T))| / |2 pi k.omega|,
    as long as |eta_k| decays along the trajectory, which the sector decay
    bound assumes.  The modes with k.omega = 0, k = 0 among them, make the
    average, which only decays like s^{-q}; but ds = du / velocity(u), so
    its integral after T is the integral of the average over v / -velocity(v)
    on the segment from 0 to u(T), which lies in the sector, a cone with
    its vertex at 0.  The error is split in tol/2 + tol/4 + tol/4:

    - ``velocity`` is a ``jets.UPoly``, and the trajectory is stepped by
      its Taylor series of order 20 (``quadrature.trajectory``) to the
      first step end T where the oscillating modes' bound above sums to at
      most tol/4 (TailNotConverged beyond time 1e9, or for a non-finite
      step).  The modes come from eta on a grid of n points per axis at
      u(T) and an FFT.  Where the bound holds, n doubles until two sums
      are each at most tol/4 in the bound's weights, where a mode of the
      average weighs its sector decay tail: the upper half of the spectrum
      at the largest weight, and the change of the moduli on a grid shifted
      by an irrational part of a cell.  A mode past the grid aliases onto
      a lower one and shows in one of them.  TailNotConverged past 2^14
      grid points, or for a non-finite eta on a grid.
    - The integral over [0, T] takes Gauss-Kronrod (7, 15) panels on the
      step series: the steps, cut to at most half the shortest angle
      period, and bisected until each panel's |K15 - G7| is within its
      width's share of tol/2.
    - The average's tail is the segment integral in v = t u(T) over t in
      [0, 1], by the same panels to tol/4, with the average from an FFT of
      each node's grid (TailNotConverged past
      ``quadrature.panel_quadrature``'s limits, or for a non-finite eta).

    Without angles, or when every frequency is 0, every mode is in the
    average: the whole integral is the segment integral from 0 to u, to
    tol, and no trajectory is stepped.  ``sector`` checks the start and
    every step end (FlowLeftSector).  A real start with a real integrand
    gives a float.

    The derivative of the returned quantity (as a function of the starting
    point) along the drift equals minus the integrand.
    """
    q, x = _decay(velocity, eta_order, mu, u)
    if sector is not None and not sector.contains(u, slack=1e-12):
        raise FlowLeftSector("trajectory start %s outside the sector" % u)
    freqs = np.asarray(freqs, dtype=float)
    if theta is None or not freqs.any():
        th = None if theta is None else np.asarray(theta, dtype=float)
        value = _segment_integral(
            lambda v: eta(v, None if th is None
                          else np.repeat(th[:, None], v.size, axis=1)),
            velocity, u, tol)
    else:
        th0 = np.asarray(theta, dtype=float)
        modes = _AngleModes(eta, th0, freqs)

        def tail_small(s, z):
            c = modes.spectrum(z)
            if np.sum(modes.weight * c) > tol / 4:
                return False
            while True:
                w = np.where(modes.average, _tail(1.0, s, x, q), modes.weight)
                alias = np.abs(c - modes.spectrum(z, shifted=True))
                if (w.max() * np.sum(c[modes.upper]) <= tol / 4
                        and np.sum(w * alias) <= tol / 4):
                    break
                modes.refine()
                c = modes.spectrum(z)
            return np.sum(modes.weight * c) <= tol / 4

        edges, along = trajectory(velocity, u, tail_small, sector)
        value = panel_quadrature(
            lambda s: eta(along(s), th0[:, None] + freqs[:, None] * s),
            edges, 1.0 / (2.0 * np.abs(freqs).max()), tol / 2)
        value += _segment_integral(modes.mean, velocity,
                                   along(edges[-1:])[0], tol / 4)
    value = complex(value)
    return value if abs(value.imag) > 1e-300 else value.real


def flow_inverse(eta, velocity, freqs, u, theta=None, **kw):
    """Right inverse of the drift-derivative operator: minus the trajectory
    integral of eta (same keywords as flow_orbit_integral)."""
    return -flow_orbit_integral(eta, velocity, freqs, u, theta=theta, **kw)


# ----- contraction probe ----------------------------------------------------


def _cell(nodes, x):
    """Bracketing node indices (i, j) and weight w of points ``x`` on an
    ascending axis, ``x`` clamped to the axis ends: x = (1-w) x_i + w x_j
    (i == j and w == 0 on a one-node axis).  A point beyond an end lies in
    the end cell, where w is clipped to 0 or 1, the weight of the clamped
    point."""
    i = np.searchsorted(nodes, x, side="right")
    i -= 1
    np.maximum(i, 0, out=i)
    np.minimum(i, max(nodes.size - 2, 0), out=i)
    if nodes.size == 1:
        return i, i, np.zeros(np.shape(x))
    low = nodes[i]
    w = x - low
    w /= nodes[i + 1] - low
    np.maximum(w, 0.0, out=w)
    np.minimum(w, 1.0, out=w)
    return i, i + 1, w


def _corners(sides):
    """(index, weight) of every corner of the cells that the (lower, upper)
    sides of some axes span, each side an (offset, weight) pair: a corner's
    index is the sum of its offsets, its weight the product of its weights
    in axis order (0 and 1 without an axis)."""
    for corner in itertools.product(*sides):
        yield (sum(offset for offset, _ in corner),
               np.asarray(math.prod(factor for _, factor in corner)))


class _GridFunction:
    """Interpolated candidate correction on the sector x torus grid.

    Stores each component's values normalized by u^weight in one table of
    shape (radius x argument nodes, angle nodes, components), so a query
    finds its bracketing cells once for all components, and interpolates
    multilinearly between the cell corners.  The interpolation is
    separable: the radial and argument factors depend on the row only and
    the angle factors on the angle point only, so the 4 radius x argument
    corners are combined on the (steps, rows) array first, and the 2^dim
    angle corners of that on the (steps, points) array.  The sector
    coordinates are clamped to the grid box (nearest-edge continuation);
    each torus axis carries its node 0 again at angle 1, so the angles
    wrap across 1 -> 0.
    """

    def __init__(self, log_r, args, theta_axes, z_flat, values, weights):
        self.weights = weights
        scaled = np.stack([v / z_flat[:, None] ** w
                           for v, w in zip(values, weights)], axis=-1)
        pad = scaled.reshape(len(log_r) * len(args),
                             *(len(t) for t in theta_axes), len(weights))
        self.axes = [log_r, args]
        for i, t in enumerate(theta_axes):
            pad = np.concatenate([pad, pad.take([0], axis=1 + i)], axis=1 + i)
            self.axes.append(np.concatenate([t, [1.0]]))
        self.table = pad.reshape(pad.shape[0], -1, len(weights))
        # the flat-index stride of each axis, in the radius x argument index
        # and in the angle index
        sizes = [a.size for a in self.axes]
        self.strides = [sizes[1], 1] + [math.prod(sizes[i + 1:])
                                        for i in range(2, len(sizes))]

    def __call__(self, z, pts):
        """Per component, its interpolated values on the rows ``z`` times
        the angle points ``pts``: z of shape (steps, rows) and pts of shape
        (steps, points, dim) give (steps, rows, points) arrays.

        Each axis's flat-index offsets and weights of its lower and upper
        node are computed once, on the (steps, rows) array for the radius
        and the argument and on the (steps, points) array for each angle."""
        z = np.asarray(z, dtype=complex)
        coords = [np.log(np.abs(z)), np.angle(z)]
        coords += [np.mod(pts[..., a], 1.0) for a in range(pts.shape[-1])]
        sides = []
        for nodes, x, stride in zip(self.axes, coords, self.strides):
            i, j, w = _cell(nodes, x)
            sides.append(((i * stride, 1.0 - w), (j * stride, w)))
        # (steps, angle nodes, rows, components)
        near = sum(weight[..., None, None] * self.table[index]
                   for index, weight in _corners(sides[:2])).swapaxes(1, 2)
        steps = np.arange(len(near))[:, None]
        vals = sum(weight[..., None, None] * near[steps, index]
                   for index, weight in _corners(sides[2:])).swapaxes(1, 2)
        z = z[..., None]
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
    stacked once into a ``JetStack``, and the 1 + d term tables (y and each
    angle) once into a ``jets.TableStack``; the orbit sums evaluate them,
    and the whole remainder, on blocks of orbit steps.  The shear and the
    table stack are evaluated at the two angle images of a block through
    one ``fourier.AngleBatch`` each, so they share its mode bases, and the
    stack takes one evaluation per image.

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
    tables = TableStack([mp.y_terms, *mp.theta_terms])
    c_series = mp.shear()

    def remainder(z, pts, f):
        """The three displaced-coefficient remainder components plus the
        current defect, evaluated pointwise on the rows ``z`` times the
        angle points ``pts``: z of shape (rows,) with pts of shape (points,
        dim), or a block of orbit steps, z of shape (steps, rows) with pts
        of shape (steps, points, dim).  The undisplaced jets take one
        stacked evaluation, the term tables one stacked evaluation per
        angle image, and the shear and the tables share one mode basis per
        axis for each of the two angle images."""
        vals = jets.eval_grid(z, pts)
        kx, ky = vals[0], vals[1]
        base = pts[..., None, :, :] + np.moveaxis(vals[2:2 + d], 0, -1)
        disp = AngleBatch(base + np.moveaxis(
            np.reshape([f[c] for c in comps[2:]], (d,) + kx.shape), 0, -1), d)
        base = AngleBatch(base, d)
        defect = dict(zip(comps, vals[2 + d:]))
        c_base = c_series.eval(base)
        c_disp = c_series.eval(disp)
        new = tables.eval(kx + f["x"], ky + f["y"], disp)
        old = tables.eval(kx, ky, base)
        out = {"x": ky * (c_disp - c_base) + f["y"] * c_disp + defect["x"]}
        for c, at_disp, at_base in zip(comps[1:], new, old):
            out[c] = at_disp - at_base + defect[c]
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
