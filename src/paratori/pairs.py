"""Manifold parameterization pairs, invariance residuals, and reports.

A pair couples the parameterization jets K = (x-jet, y-jet, angle tails)
with the inner normal form: for maps a polynomial  u + r_k u^k + ...  acting
jointly with the rigid angle rotation, for fields a polynomial vector field
u-component acting jointly with constant angle frequencies.

Residuals are computed as full jets of the invariance defect and measured on
their polynomial tails.  Direct floating-point evaluation of the defect
saturates at machine precision long before the interesting orders, so slope
measurements use the exactly-representable tail and a separate check that
the annihilated lower-order coefficients are numerically zero.
"""

import numpy as np

from .fourier import angle_grid
from .jets import UPoly, eval_xy_terms, power_table


class ManifoldPair:
    """Parameterization jets plus inner normal form for one branch."""

    def __init__(self, kind, family, branch, cut, trunc, order, k, p, freqs,
                 d, drive, x, y, tails, inner, diagnostics=None):
        self.kind = kind            # "map" | "field"
        self.family = family        # "power" | "shear"
        self.branch = branch        # "stable" | "unstable"
        self.cut = int(cut)
        self.trunc = int(trunc)
        self.order = int(order)
        self.k = None if k is None else int(k)
        self.p = None if p is None else int(p)
        self.freqs = tuple(float(w) for w in freqs)
        self.d = int(d)
        self.drive = int(drive)
        self.dim = self.d + self.drive
        self.x = x
        self.y = y
        self.tails = list(tails)
        self.inner = inner
        self.diagnostics = dict(diagnostics or {})

    def copy(self):
        return ManifoldPair(
            self.kind, self.family, self.branch, self.cut, self.trunc,
            self.order, self.k, self.p, self.freqs, self.d, self.drive,
            self.x.copy(), self.y.copy(), [w.copy() for w in self.tails],
            UPoly(dict(self.inner.terms), self.inner.trunc),
            dict(self.diagnostics),
        )

    def contract_orders(self):
        """Leading orders the invariance defect must reach at this order."""
        n = self.order
        if self.family == "shear":
            return (n + 2, n + 3, n + 2)
        k, p = self.k, self.p
        if self.d == 0:
            return (n + k, n + 2 * k - 1, None)
        return (n + k, n + 2 * k - 1, n + 2 * p - 1)

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


def residual_jets(data, pair):
    """Invariance defect of the pair for the given map/field, as jets.

    Maps:    F(K(u, theta)) - K(r(u), theta + omega)
    Fields:  X(K(u, theta)) - DK(u, theta) . (Y(u), freqs)
    The angle components are expressed through the tails, so the trivial
    rotation part cancels identically.  One ``power_table`` of the
    substitution (x-jet, y-jet, theta + tails) serves all 2 + d term tables.
    """
    tails = pair.tails
    trunc = pair.x.trunc
    tables = [t.terms for t in [data.x_terms, data.y_terms] + data.theta_terms]
    powers = power_table(pair.x, pair.y, tails, trunc, tables)
    fx, fy, *ft = (eval_xy_terms(terms, powers, trunc) for terms in tables)
    if data.kind == "map":
        om = np.asarray(data.freqs, dtype=float)
        gx = pair.x + fx - pair.x.compose_inner(pair.inner, om)
        gy = pair.y + fy - pair.y.compose_inner(pair.inner, om)
        gt = [tails[a] + ft[a] - tails[a].compose_inner(pair.inner, om)
              for a in range(pair.d)]
        return gx, gy, gt

    freqs = np.asarray(data.freqs, dtype=float)

    def transport(jet):
        out = jet.derivative_u().mul_upoly(pair.inner)
        for j in range(pair.dim):
            if freqs[j] != 0.0:
                out = out + jet.diff_theta(j).scale(freqs[j])
        return out

    gx = fx - transport(pair.x)
    gy = fy - transport(pair.y)
    gt = [ft[a] - transport(tails[a]) for a in range(pair.d)]
    return gx, gy, gt


def compare_pairs(a, b, tol=1e-11):
    """First u-order where two pairs differ, per component.

    Returns {"x": n_or_None, "y": ..., "theta": [per axis], "inner": ...};
    None means no difference above tol anywhere in the shared order range.
    A NaN difference counts as a difference.
    """
    top = min(a.trunc, b.trunc)

    def first_diff_jet(ja, jb):
        for n in range(0, top + 1):
            d = ja.coefficient(n) - jb.coefficient(n)
            if not d.coeff_norm() <= tol:
                return n
        return None

    out = {
        "x": first_diff_jet(a.x, b.x),
        "y": first_diff_jet(a.y, b.y),
        "theta": [first_diff_jet(wa, wb) for wa, wb in zip(a.tails, b.tails)],
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


def residual_report(data, pair, u_lo=1e-3, u_hi=1e-2, n_u=9, n_grid=24):
    """Measure the invariance defect order-by-order.

    For every component the defect jet is split at the expected leading
    order: coefficients below it must be numerically zero (reported as
    ``annihilated_max``, to be compared against ``scale``), and the tail is
    evaluated on a u-geometric grid times an angle grid to fit a log-log
    slope (reported as ``slope``; None when the tail is identically zero).
    """
    gx, gy, gt = residual_jets(data, pair)
    expected = pair.contract_orders()
    u = np.geomspace(u_lo, u_hi, n_u)
    mesh = angle_grid(pair.dim, np.arange(n_grid) / n_grid)
    scale = pair.size()

    comps = []
    named = [("x", gx, expected[0]), ("y", gy, expected[1])]
    for a in range(pair.d):
        named.append(("theta_%d" % a, gt[a], expected[2]))
    for name, jet, exp_order in named:
        ann = 0.0
        for n in jet.orders():
            if n < exp_order:
                ann = max(ann, jet.coefficient(n).coeff_norm())
        tail = jet.tail(exp_order)
        if tail.is_zero():
            comps.append({
                "name": name, "expected_order": exp_order, "slope": None,
                "annihilated_max": ann, "scale": scale, "exact": True,
                "sups": np.zeros_like(u),
            })
            continue
        vals = tail.eval_grid(u, mesh)
        sups = np.max(np.abs(vals.reshape(u.size, -1)), axis=1)
        good = sups > 0
        slope = None
        if np.count_nonzero(good) >= 2:
            slope = float(np.polyfit(np.log(u[good]), np.log(sups[good]), 1)[0])
        comps.append({
            "name": name, "expected_order": exp_order, "slope": slope,
            "annihilated_max": ann, "scale": scale, "exact": False,
            "sups": sups,
        })
    return ResidualReport(u, comps)
