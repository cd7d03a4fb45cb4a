"""Manifold parameterization pairs, invariance residuals, and reports.

A pair couples the parameterization jets K = (x-jet, y-jet, angle tails)
with the inner normal form: for maps a polynomial  u + r_k u^k + ...  acting
jointly with the rigid angle rotation, for fields a polynomial vector field
u-component acting jointly with constant angle frequencies.

Residuals are computed as full jets of the invariance defect, which a
solve hands over with its pair, and measured on their polynomial tails.
The input dynamics enter a residual through one ``jets.substitute`` call,
which composes all their term tables with the pair's jets.
Direct floating-point evaluation of the defect saturates at machine
precision long before the interesting orders, so slope measurements use
the exactly-representable tail and a separate check that the annihilated
lower-order coefficients are numerically zero.
"""

from itertools import zip_longest

import numpy as np

from .errors import ConfigError
from .fourier import angle_grid
from .jets import JetStack, TFJet, UPoly, substitute


def contract_orders(family, n, k=None, p=None, d=0):
    """Leading orders (x, y, angle tails) the invariance defect reaches at
    invariance order n: the orders the step at n reads.  Power class
    (n+k, n+2k-1, n+2p-1), no tail order and p ignored when d = 0; shear
    class (n+2, n+3, n+2)."""
    if family == "shear":
        return (n + 2, n + 3, n + 2)
    return (n + k, n + 2 * k - 1, n + 2 * p - 1 if d else None)


def named_components(jets, orders=(None, None, None)):
    """(name, jet, order) of each component of (x, y, tails) jets and their
    (x, y, tail) orders; the names are x, y and theta_<axis>."""
    (x, y, tails), (ox, oy, ot) = jets, orders
    return ([("x", x, ox), ("y", y, oy)]
            + [("theta_%d" % a, w, ot) for a, w in enumerate(tails)])


class ManifoldPair:
    """Parameterization jets plus inner normal form for one branch."""

    # the header, in constructor order: every field besides the jets, the
    # inner polynomial and the diagnostics (``copy``, ``ioutil.pair_payload``
    # and ``ioutil.pair_from_payload`` read it)
    HEADER = ("kind", "family", "branch", "cut", "trunc", "order", "k", "p",
              "freqs", "d", "drive")

    def __init__(self, kind, family, branch, cut, trunc, order, k, p, freqs,
                 d, drive, x, y, tails, inner, diagnostics=None):
        # "map" | "field", "power" | "shear", "stable" | "unstable"
        self.kind, self.family, self.branch = kind, family, branch
        self.cut, self.trunc, self.order, self.d, self.drive = map(
            int, (cut, trunc, order, d, drive))
        self.k, self.p = (None if v is None else int(v) for v in (k, p))
        self.freqs = tuple(float(w) for w in freqs)
        self.dim = self.d + self.drive
        self.x, self.y, self.tails, self.inner = x, y, list(tails), inner
        self.diagnostics = dict(diagnostics or {})

    def copy(self):
        """The jets' tables are copied; their series and the inner
        polynomial, never written in place, are shared."""
        return ManifoldPair(
            *(getattr(self, key) for key in self.HEADER), self.x.copy(),
            self.y.copy(), [w.copy() for w in self.tails], self.inner,
            self.diagnostics)

    def contract_orders(self):
        """Leading orders the invariance defect must reach at this order."""
        return contract_orders(self.family, self.order, self.k, self.p, self.d)

    def size(self):
        vals = [1.0]
        for jet in [self.x, self.y] + self.tails:
            for s in jet.terms.values():
                vals.append(s.coeff_norm())
        vals.extend(abs(a) for a in self.inner.terms.values())
        return max(vals)

    def inner_coeff(self, n):
        return self.inner.coeff(n)

    def y_coeff_avg(self, n):
        return self.y.coefficient(n).average()

    def tail_coeff_avg(self, axis, n):
        return self.tails[axis].coefficient(n).average()


def residual_jets(data, pair, top=None):
    """Invariance defect of the pair for the given map/field, as jets.

    Maps:    F(K(u, theta)) - K(r(u), theta + omega)
    Fields:  X(K(u, theta)) - DK(u, theta) . (Y(u), freqs)
    The angle components are expressed through the tails, so the trivial
    rotation part cancels identically.  One ``substitute`` call evaluates
    all 2 + d term tables at (x-jet, y-jet, theta + tails), on one power
    table.

    ``top`` cuts the defect at that order (default: the pair's truncation).
    Every coefficient up to the cut is the full residual's, bit for bit: a
    truncated product skips only the terms above its truncation, so it adds
    the others in the same order.  No order above the cut is computed.
    """
    tails = pair.tails
    trunc = pair.x.trunc if top is None else min(top, pair.x.trunc)
    inner = UPoly(pair.inner.terms, min(trunc, pair.inner.trunc))
    tables = [t.terms for t in [data.x_terms, data.y_terms] + data.theta_terms]
    fx, fy, *ft = substitute(tables, pair.x, pair.y, tails, trunc)
    if data.kind == "map":
        om = np.asarray(data.freqs, dtype=float)
        gx = pair.x + fx - pair.x.compose_inner(inner, om)
        gy = pair.y + fy - pair.y.compose_inner(inner, om)
        gt = [tails[a] + ft[a] - tails[a].compose_inner(inner, om)
              for a in range(pair.d)]
        return gx, gy, gt

    freqs = np.asarray(data.freqs, dtype=float)

    def transport(jet):
        out = jet.derivative_u().mul_upoly(inner)
        for j in range(pair.dim):
            if freqs[j] != 0.0:
                out = out + jet.diff_theta(j).scale(freqs[j])
        return out

    gx = fx - transport(pair.x)
    gy = fy - transport(pair.y)
    gt = [ft[a] - transport(tails[a]) for a in range(pair.d)]
    return gx, gy, gt


def check_finite(residual):
    """Refuse a residual (gx, gy, gt) with a non-finite coefficient.

    Finite data that overflows inside the solve shows up here first; the
    ConfigError names the order and component of the first such coefficient.
    """
    for name, jet, _ in named_components(residual):
        for n in jet.orders():
            if not np.isfinite(jet.terms[n].coeffs).all():
                raise ConfigError(
                    "the data overflows inside the solve: the residual of %s "
                    "at order %d is beyond the float range" % (name, n),
                    order=n, component=name)


def compare_pairs(a, b, tol=1e-11):
    """First u-order where two pairs differ, per component.

    Returns {"x": n_or_None, "y": ..., "theta": [per axis], "inner": ...};
    None means no difference above tol anywhere in the shared order range.
    A NaN difference counts as a difference, and an angle tail that only
    one pair has is compared with the zero jet.
    """
    top = min(a.trunc, b.trunc)
    zero = TFJet(a.dim, a.cut, top)

    def first_diff_jet(ja, jb):
        for n in range(0, top + 1):
            d = ja.coefficient(n) - jb.coefficient(n)
            if not d.coeff_norm() <= tol:
                return n
        return None

    out = {
        "x": first_diff_jet(a.x, b.x),
        "y": first_diff_jet(a.y, b.y),
        "theta": [first_diff_jet(wa, wb) for wa, wb
                  in zip_longest(a.tails, b.tails, fillvalue=zero)],
    }
    inner_diff = None
    for n in range(0, top + 1):
        if not abs(a.inner.coeff(n) - b.inner.coeff(n)) <= tol:
            inner_diff = n
            break
    out["inner"] = inner_diff
    return out


class ResidualReport:
    """Tail-jet measurement of the invariance defect of a pair."""

    def __init__(self, u_values, components):
        self.u_values = np.asarray(u_values, dtype=float)
        # components: list of dicts with keys
        #   name, expected_order, sups, slope, annihilated_max, scale, exact
        self.components = components


def residual_report(pair, residual, u_lo=1e-3, u_hi=1e-2, n_u=9, n_grid=24):
    """Measure the pair's full invariance defect ``residual`` (gx, gy, gt),
    as a solve hands it over, order by order.

    For every component the defect jet is split at the expected leading
    order: coefficients below it must be numerically zero (reported as
    ``annihilated_max``, to be compared against ``scale``), and the tail is
    evaluated on a u-geometric grid times an angle grid to fit a log-log
    slope (reported as ``slope``; None when the tail is identically zero).
    The 2 + d tails are evaluated together, in one ``jets.JetStack``.
    A non-finite coefficient at any order is refused first (``check_finite``).
    """
    check_finite(residual)
    u = np.geomspace(u_lo, u_hi, n_u)
    mesh = angle_grid(pair.dim, np.arange(n_grid) / n_grid)
    scale = pair.size()

    named = named_components(residual, pair.contract_orders())
    tails = [jet.tail(exp_order) for _, jet, exp_order in named]
    vals = JetStack(tails).eval_grid(u, mesh)
    sups = np.max(np.abs(vals.reshape(len(tails), u.size, -1)), axis=2)
    comps = []
    for (name, jet, exp_order), tail, sup in zip(named, tails, sups):
        ann = max([0.0] + [s.coeff_norm() for n, s in jet.terms.items()
                           if n < exp_order])
        good = sup > 0
        slope = None
        if np.count_nonzero(good) >= 2:
            slope = float(np.polyfit(np.log(u[good]), np.log(sup[good]), 1)[0])
        comps.append({
            "name": name, "expected_order": exp_order, "slope": slope,
            "annihilated_max": ann, "scale": scale, "exact": tail.is_zero(),
            "sups": sup,
        })
    return ResidualReport(u, comps)
