"""Quadrature along a decaying trajectory: the numerical core of
``operators.flow_orbit_integral``.

``trajectory`` steps a scalar complex ODE with DOP853 until a stopping test
holds at a step end, ``step_polynomials`` turns the steps' dense output into
one vectorized function of time, and ``panel_quadrature`` integrates a
vectorized integrand over panels cut from the steps by Gauss-Kronrod
(7, 15), bisecting panels until their error estimates meet a
width-proportional budget.

SciPy's DOP853 is imported on first use, by ``trajectory``, so importing
this module loads numpy only.
"""

import numpy as np
from numpy.polynomial.chebyshev import chebval, chebvander

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
_MAX_PASSES = 40      # bisection passes before a quadrature gives up
_MAX_PANELS = 1 << 21  # most panels one pass may bisect (memory bound)
_ROUNDING = 50 * np.finfo(float).eps   # panel error estimate at rounding level


def trajectory(velocity, u, stop, sector):
    """DOP853 steps of du/ds = velocity(u) from u, on the two real components
    at rtol 1e-13, atol 1e-16, until ``stop(s, u(s))`` holds at a step end
    (TailNotConverged if it still fails at time 1e9); the sector check runs
    at every step end.  Returns the dense output of the steps taken as one
    ``OdeSolution``."""
    from scipy.integrate import DOP853, OdeSolution

    def rhs(s, state):
        dz = velocity(complex(state[0], state[1]))
        return [dz.real, dz.imag]

    solver = DOP853(rhs, 0.0, [np.real(u), np.imag(u)], _T_MAX,
                    rtol=1e-13, atol=1e-16)
    ts, pieces = [0.0], []
    while True:
        message = solver.step()
        if solver.status == "failed":
            raise TailNotConverged("trajectory from %s: %s" % (u, message))
        ts.append(solver.t)
        pieces.append(solver.dense_output())
        z = complex(solver.y[0], solver.y[1])
        if sector is not None and not sector.contains(z, slack=1e-12):
            raise FlowLeftSector("trajectory from %s reached %s" % (u, z))
        if stop(solver.t, z):
            return OdeSolution(ts, pieces)
        if solver.status == "finished":
            raise TailNotConverged("tail above its target at time %.3e"
                                   % solver.t)


def step_polynomials(path):
    """u(s) along a DOP853 trajectory as one vectorized function of s.

    DOP853's dense output is a polynomial of degree 7 in each step, so
    ``path`` evaluated at 8 Chebyshev points of a step fixes it; the
    returned function sums the Chebyshev series of each node's step at
    once, with no grouping of the nodes by step.
    """
    ts = path.ts
    h = np.diff(ts)
    cheb = np.cos((2 * np.arange(8) + 1) * np.pi / 16)
    vals = path((ts[:-1, None] + h[:, None] * (cheb + 1) / 2).ravel())
    coef = np.linalg.solve(chebvander(cheb, 7),
                           (vals[0] + 1j * vals[1]).reshape(h.size, 8).T)

    def at(s):
        i = np.clip(np.searchsorted(ts, s, side="right") - 1, 0, h.size - 1)
        return chebval(2 * (s - ts[i]) / h[i] - 1, coef[:, i], tensor=False)
    return at


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
