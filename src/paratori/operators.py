"""Numerical diagnostics for the correction operators behind the manifold
construction: sector dynamics bounds, right inverses of the transfer
difference by orbit sums (maps) and by quadrature along trajectories
(flows), and a fixed-point contraction probe.

Everything here is a sampled, fixed-resolution diagnostic — grids and
truncation indices are finite and reported, so the outputs are evidence,
not certified enclosures.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import RegularGridInterpolator

from .errors import (
    BoundViolated,
    ConfigError,
    Diverged,
    FlowLeftSector,
    HypothesisViolated,
    StructureViolation,
    TailNotConverged,
)
from .fourier import angle_grid
from .pairs import residual_jets

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
    x = mu |u|^{k-1}.  The bound needs a decaying normal form and q > 1."""
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
    tail after the j-th term is at most half of its per-row target."""
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
        terms = term(z[active], np.mod(pts0 + shift, 1.0))
        if totals is None:  # the first terms fix the dtype: real in, real out
            totals = {c: np.zeros_like(t) for c, t in terms.items()}
        done = np.ones(int(active.sum()), dtype=bool)
        for c, t in terms.items():
            totals[c][active] += t
            q, x = rules[c]
            tail = _tail(np.abs(t).max(axis=1), j, x[active], q)
            done &= tail <= targets[c][active] / 2
        if j >= _J_MIN:
            active[np.flatnonzero(active)[done]] = False
        z = inner(z)
        shift = shift + freqs
        j += 1
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


def transfer_difference(phi, inner, freqs, u, theta=None):
    """(phi composed with one normal-form step) minus phi, at one point."""
    freqs = np.asarray(freqs, dtype=float)
    th = None if theta is None else np.asarray(theta, dtype=float) + freqs
    return phi(inner(u), th) - phi(u, theta)


def orbit_sum_inverse(eta, inner, freqs, u, theta=None, *, eta_order, mu,
                      tail_tol=1e-12):
    """Right inverse of the transfer difference by orbit summation.

    Returns -sum_{j>=0} eta(R^j(u), theta + j*omega), truncated once the
    analytic tail estimate (from the sector decay bound, using the stated
    u-order of eta and the decay rate mu) drops below half of ``tail_tol``:
    the contraction probe's orbit sum on one point.
    """
    pts0 = np.reshape([] if theta is None else theta, (1, -1)).astype(float)
    total = _orbit_sum(
        lambda z, pts: {"eta": np.array([[eta(z[0], None if theta is None
                                               else pts[0])]])},
        inner, freqs, np.array([u]), pts0,
        {"eta": eta_order}, mu, {"eta": np.array([tail_tol])})
    return total["eta"][0, 0]


def flow_orbit_integral(eta, velocity, freqs, u, theta=None, *, eta_order, mu,
                        tol=1e-10, sector=None):
    """Integral of eta along the decaying scalar trajectory, from 0 to
    infinity: the trajectory solves du/ds = velocity(u) with angles advancing
    linearly, and the quadrature is truncated once the analytic decay-bound
    tail drops below half of ``tol`` (DOP853 at rtol 1e-13, atol 1e-16, on
    windows growing fourfold up to time 1e9).

    The derivative of the returned quantity (as a function of the starting
    point) along the drift equals minus the integrand.
    """
    q, x = _decay(velocity, eta_order, mu, u)
    freqs = np.asarray(freqs, dtype=float)
    th0 = None if theta is None else np.asarray(theta, dtype=float)

    def angles(s):
        return None if th0 is None else th0 + s * freqs

    def rhs(s, state):
        z = state[0] + 1j * state[1]
        dz = velocity(z)
        val = complex(eta(z, angles(s)))
        return [dz.real, dz.imag, val.real, val.imag]

    state = [np.real(u), np.imag(u), 0.0, 0.0]
    t_lo, t_hi = 0.0, 1.0
    while t_hi <= 1e9:
        sol = solve_ivp(rhs, (t_lo, t_hi), state, rtol=1e-13, atol=1e-16,
                        method="DOP853")
        if not sol.success:
            raise TailNotConverged("trajectory from %s: %s" % (u, sol.message))
        state = [float(v[-1]) for v in sol.y]
        z = state[0] + 1j * state[1]
        if sector is not None and not sector.contains(z, slack=1e-12):
            raise FlowLeftSector("trajectory from %s reached %s" % (u, z))
        tail = _tail(abs(complex(eta(z, angles(t_hi)))), t_hi, x, q)
        if tail <= tol / 2:
            value = state[2] + 1j * state[3]
            return value if abs(value.imag) > 1e-300 else value.real
        t_lo, t_hi = t_hi, 4.0 * t_hi
    raise TailNotConverged(
        "tail estimate %.3e above %.3e at time %.3e" % (tail, tol / 2, t_lo))


def flow_inverse(eta, velocity, freqs, u, theta=None, **kw):
    """Right inverse of the drift-derivative operator: minus the trajectory
    integral of eta (same keywords as flow_orbit_integral)."""
    return -flow_orbit_integral(eta, velocity, freqs, u, theta=theta, **kw)


def drift_derivative(phi, velocity, freqs, u, theta=None, step=1e-6):
    """Directional derivative of phi along the drift (u-velocity plus linear
    angle advance) by one small forward/backward trajectory step each."""
    freqs = np.asarray(freqs, dtype=float)

    def advance(h):
        # single RK4 step of the scalar trajectory
        k1 = velocity(u)
        k2 = velocity(u + h / 2 * k1)
        k3 = velocity(u + h / 2 * k2)
        k4 = velocity(u + h * k3)
        z = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        th = None if theta is None else np.asarray(theta, dtype=float) + h * freqs
        return z, th

    zp, tp = advance(step)
    zm, tm = advance(-step)
    return (phi(zp, tp) - phi(zm, tm)) / (2 * step)


# ----- contraction probe ----------------------------------------------------


class _GridFunction:
    """Interpolated candidate correction on the sector x torus grid.

    Stores values normalized by u^weight on a (log radius, argument,
    angles...) grid; evaluation clamps the sector coordinates to the grid
    box (nearest-edge continuation) and wraps the torus axes.
    """

    def __init__(self, log_r, args, theta_axes, z_flat, values, weight):
        self.weight = weight
        self.log_r = log_r
        self.args = args
        scaled = values / z_flat[:, None] ** weight
        pad = scaled.reshape(len(log_r), len(args), *(len(t) for t in theta_axes))
        axes = [log_r, args]
        for i, t in enumerate(theta_axes):
            pad = np.concatenate([pad, pad.take([0], axis=2 + i)], axis=2 + i)
            axes.append(np.concatenate([t, [1.0]]))
        self._interp = RegularGridInterpolator(
            tuple(axes), pad, method="linear", bounds_error=False, fill_value=None)

    def __call__(self, z, pts):
        z = np.asarray(z, dtype=complex)
        lr = np.clip(np.log(np.abs(z)), self.log_r[0], self.log_r[-1])
        ph = np.clip(np.angle(z), self.args[0], self.args[-1])
        nu, nt = z.size, pts.shape[0]
        cols = [np.repeat(lr, nt), np.repeat(ph, nt)]
        for a in range(pts.shape[1]):
            cols.append(np.tile(np.mod(pts[:, a].real, 1.0), nu))
        vals = self._interp(np.stack(cols, axis=-1)).reshape(nu, nt)
        return vals * z[:, None] ** self.weight


def _weighted_sup(values, z, weight):
    return float(np.max(np.abs(values) / np.abs(z)[:, None] ** weight))


def contraction_probe(mp, pair, sector, mu, ball_alpha=0.5, samples=(10, 5, 8),
                      n_iter=12):
    """Iterate the correction fixed point from zero on a sector grid.

    The candidate correction (one scalar field per component, weighted by
    u^{o-k} at the component's contract order o: u^n, u^{n+k-1} and
    u^{n+2p-k-1}) lives on a fixed (radius, argument, angles) grid.  Each
    sweep evaluates the displaced-coefficient remainder pointwise and
    applies the orbit-sum inverse along the normal-form dynamics, to a
    weighted tail target of 1e-4 times the last nonzero update norm (at
    least 1e-14), then reports the weighted norm of the update, the ratio
    of successive update norms, and the weighted invariance defect of the
    corrected parameterization.  Raises Diverged when the ratio stays at or
    above one for five consecutive sweeps.

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
    gx, gy, gt = residual_jets(mp, pair)
    gjets = dict(zip(comps, [gx.tail(ox), gy.tail(oy)]
                     + [g.tail(ot) for g in gt]))
    c_series = mp.shear()

    def angle_image(z, pts, ft):
        """Stacked angle component of the parameterization plus candidate."""
        if not d:
            return None
        return np.stack([pts[None, :, a] + pair.tails[a].eval_grid(z, pts) + ft[a]
                         for a in range(d)], axis=-1)

    def remainder(z, pts, f):
        """The three displaced-coefficient remainder components plus the
        current defect, evaluated pointwise."""
        kx = pair.x.eval_grid(z, pts)
        ky = pair.y.eval_grid(z, pts)
        base = angle_image(z, pts, [0.0] * d)
        disp = angle_image(z, pts, [f["t%d" % a] for a in range(d)])
        if d:
            c_base = c_series.eval(base)
            c_disp = c_series.eval(disp)
        else:
            c_base = c_disp = np.full(kx.shape, c_series.average(), dtype=complex)
        out = {"x": (ky * (c_disp - c_base) + f["y"] * c_disp
                     + gjets["x"].eval_grid(z, pts)),
               "y": (mp.y_terms.eval(kx + f["x"], ky + f["y"], disp)
                     - mp.y_terms.eval(kx, ky, base)
                     + gjets["y"].eval_grid(z, pts))}
        for a in range(d):
            out["t%d" % a] = (
                mp.theta_terms[a].eval(kx + f["x"], ky + f["y"], disp)
                - mp.theta_terms[a].eval(kx, ky, base)
                + gjets["t%d" % a].eval_grid(z, pts))
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
        grid_fns = {c: _GridFunction(log_r, args, theta_axes, z0, arrays[c],
                                     weights[c]) for c in comps}
        new = _orbit_sum(
            lambda z, pts: remainder(z, pts, {c: grid_fns[c](z, pts)
                                              for c in comps}),
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
    return report
