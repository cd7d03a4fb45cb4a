"""Quadrature along a decaying trajectory: the numerical core of
``operators.flow_orbit_integral``.

``trajectory`` steps the polynomial ODE du/ds = Y(u) by its own Taylor
series (Jorba and Zou, Experimental Mathematics 14, 2005) until a stopping
test holds at a step end; the series of the steps are the trajectory's
dense output, one vectorized function of time.  ``panel_quadrature``
integrates a vectorized integrand by Gauss-Kronrod (7, 15) over panels
cut from sorted edges, bisecting panels until their error estimates meet a
width-proportional budget: the trajectory's steps for the integral up to
the stop, and the one segment [0, 1] for the angle average's tail, taken
in the u variable.  This module needs numpy only.
"""

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import FlowLeftSector, TailNotConverged


def _gauss_kronrod_15():
    """Nodes on [-1, 1] of the 15-point Kronrod rule, its weights, and the
    weights of the embedded 7-point Gauss rule (zero on the Kronrod-only
    nodes); QUADPACK's qk15 table, from the outermost node inwards."""
    half = np.array([
        0.9914553711208126392, 0.9491079123427585245, 0.8648644233597690727,
        0.7415311855993944398, 0.5860872354676911302, 0.4058451513773971669,
        0.2077849550078984676, 0.0])
    wk = np.array([
        0.02293532201052922496, 0.06309209262997855329, 0.1047900103222501838,
        0.1406532597155259187, 0.1690047266392679028, 0.1903505780647854099,
        0.2044329400752988924, 0.2094821410847278280])
    wg = np.array([
        0.0, 0.1294849661688696932, 0.0, 0.2797053914892766679,
        0.0, 0.3818300505051189449, 0.0, 0.4179591836734693877])
    return (np.concatenate([-half, half[-2::-1]]),
            np.concatenate([wk, wk[-2::-1]]), np.concatenate([wg, wg[-2::-1]]))


_GK_X, _GK_W, _G7_W = _gauss_kronrod_15()
QUAD_CHUNK = 2048     # most quadrature nodes per integrand call
_PANELS_PER_CALL = QUAD_CHUNK // _GK_X.size
_T_MAX = 1e9          # trajectory time past which a tail counts as unconverged
_ORDER = 20           # Taylor order of a trajectory step
_STEP_EPS = 1e-16     # last-term bound of a step, relative to |u| at its start
_MAX_PASSES = 40      # bisection passes before a quadrature gives up
_MAX_PANELS = 1 << 21  # most panels one pass may bisect (memory bound)
_ROUNDING = 50 * np.finfo(float).eps   # panel error estimate at rounding level


def trajectory(velocity, u, stop, sector):
    """Taylor steps of du/ds = velocity(u) = sum_n a_n u^n from u until
    ``stop(s, u(s))`` holds at a step end.

    A step from z takes the series sum_j c_j t^j of order 20: c_0 = z, c_1 =
    velocity(z), (j+1) c_{j+1} = sum_n a_n p_{n,j}, with the powers p_n =
    u^n of the series from Miller's recurrence z j p_{n,j} = sum_{i=1..j}
    ((n+1) i - j) c_i p_{n,j-i}.  Its length is the largest h with |c_j| h^j
    <= 1e-16 |z| for the last two coefficients (Jorba and Zou; a zero one
    bounds nothing, and no step passes time 1e9).  The sector check runs at
    every step end (FlowLeftSector); a non-finite series, or a stop test
    still failing at time 1e9, raises TailNotConverged.  Returns the step
    ends and u(s) as one vectorized function: Horner's rule on each node's
    step series.
    """
    orders = np.array(velocity.orders())
    a = np.array([velocity.coeff(n) for n in orders], dtype=complex)
    weights = [(orders[:, None] + 1) * np.arange(1, j + 1) - j
               for j in range(_ORDER)]
    p = np.empty((orders.size, _ORDER), dtype=complex)
    z, s = complex(u), 0.0
    ts, steps = [s], []
    while True:
        c = np.empty(_ORDER + 1, dtype=complex)
        c[0], c[1], p[:, 0] = z, velocity(z), z ** orders
        for j in range(1, _ORDER):
            p[:, j] = (weights[j] * p[:, j - 1::-1]) @ c[1:j + 1] / (j * z)
            c[j + 1] = a @ p[:, j] / (j + 1)
        if not np.isfinite(c).all():
            raise TailNotConverged("trajectory from %s: non-finite Taylor "
                                   "step at time %.3e" % (u, s))
        h = _T_MAX - s
        for j in (_ORDER - 1, _ORDER):
            if c[j] != 0:
                h = min(h, (_STEP_EPS * abs(z) / abs(c[j])) ** (1.0 / j))
        z, s = complex(polyval(h, c)), s + h
        ts.append(s)
        steps.append(c)
        if sector is not None and not sector.contains(z, slack=1e-12):
            raise FlowLeftSector("trajectory from %s reached %s" % (u, z))
        if stop(s, z):
            break
        if s >= _T_MAX:
            raise TailNotConverged("tail above its target at time %.3e" % s)
    ts, steps = np.array(ts), np.array(steps)

    def at(s):
        i = np.clip(np.searchsorted(ts, s, side="right") - 1, 0, len(steps) - 1)
        return polyval(s - ts[i], steps[i].T, tensor=False)
    return ts, at


def _step_panels(edges, width):
    """Chunks (lo, hi) of at most _PANELS_PER_CALL panels covering the steps
    between the sorted ``edges``, each step cut into equal panels no wider
    than ``width`` (``None``: one panel per step)."""
    steps = np.diff(edges)
    cuts = np.ones(steps.size) if width is None else np.ceil(steps / width)
    first, count = np.cumsum(cuts) - cuts, cuts.sum()
    for start in np.arange(0.0, count, _PANELS_PER_CALL):
        idx = np.arange(start, min(start + _PANELS_PER_CALL, count))
        k = np.searchsorted(first, idx, side="right") - 1
        j, w = idx - first[k], steps[k] / cuts[k]
        yield edges[k] + j * w, np.where(j + 1 == cuts[k], edges[k + 1],
                                         edges[k] + (j + 1) * w)


def panel_quadrature(f, edges, width, tol):
    """Integral of f from edges[0] to edges[-1] by Gauss-Kronrod (7, 15).

    The first pass takes the steps between the sorted ``edges``, each cut
    into equal panels no wider than ``width`` (``None``: one panel per
    step).  A panel is accepted when |K15 - G7| is at most its width's share
    of ``tol`` over the total width, or at rounding level of its own
    integral; every other panel is bisected for the next pass.  Each pass
    calls f on at most QUAD_CHUNK nodes at a time and keeps only the panels
    it bisects.  Returns the sum of the accepted K15s.  A non-finite value
    of f, more than 2**21 panels to bisect, or panels still above their
    share after 40 passes raise TailNotConverged.
    """
    per_width = tol / (edges[-1] - edges[0])
    total = 0.0
    chunks = _step_panels(edges, width)
    for _ in range(_MAX_PASSES):
        failed = []
        for a, b in chunks:
            half = (b - a)[:, None] / 2
            vals = f(((a + b)[:, None] / 2 + half * _GK_X).ravel())
            vals = half * vals.reshape(a.size, _GK_X.size)
            k15 = vals @ _GK_W
            err = np.abs(k15 - vals @ _G7_W)
            if not np.isfinite(err).all():
                raise TailNotConverged("integrand not finite between %.6g "
                                       "and %.6g" % (a[0], b[-1]))
            ok = ((err <= per_width * (b - a))
                  | (err <= _ROUNDING * (np.abs(vals) @ _GK_W)))
            total = total + k15[ok].sum()
            if not ok.all():
                failed.append((a[~ok], b[~ok]))
        if not failed:
            return total
        lo, hi = (np.concatenate(side) for side in zip(*failed))
        if 2 * lo.size > _MAX_PANELS:
            raise TailNotConverged("%d quadrature panels to bisect, more "
                                   "than %d" % (2 * lo.size, _MAX_PANELS))
        mid = (lo + hi) / 2
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        chunks = [(lo[i:i + _PANELS_PER_CALL], hi[i:i + _PANELS_PER_CALL])
                  for i in range(0, lo.size, _PANELS_PER_CALL)]
    raise TailNotConverged("%d quadrature panels above their error share "
                           "after %d bisections" % (lo.size, _MAX_PASSES))
