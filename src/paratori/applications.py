"""Preset builders for two concrete systems with a parabolic torus.

Two mechanical models reduce to the triangular field shapes the solvers
consume.  The first is an anharmonic well with a quasiperiodic parametric
kick: the origin is a degenerate rest point whose stable set is computed
from the quadratic forcing term.  The second is the scattering of a helium
atom off a periodically corrugated copper wall, where after compactifying
the wall distance the periodic orbit at infinity is parabolic and carries
stable/unstable manifolds of (x y)-shear type.

The wall model reaches that shape only through a change of variables, the
quadratic  y_new = y + (1 + g(theta)) y^2, and it owns the change: its
inverse, built once in ``build_hecu_field``, rewrites the field in the new
coordinates and carries the solved manifolds back to wall coordinates, each
by one ``jets.substitute`` call.  No other input goes through a change of
variables; the solvers take maps and fields already in their triangular
shapes.
"""

import math

from .errors import BoundViolated, ConfigError, EnergyBelowThreshold
from .fourier import SD_FLOOR, FourierSeries, on_box
from .jets import substitute
from .mapdata import TaylorFourierMap, XYPoly
from .flow_solver import solve_helicoure
from .map_solver import ASSERT_TOL
from .pairs import residual_report


# ---------------------------------------------------------------------------
# quasiperiodically kicked anharmonic well
# ---------------------------------------------------------------------------

class OscillatorParams:
    """Anharmonic well with a quadratic quasiperiodic kick.

    The model is

        x'' = -2 n_pot c_pot x^(2 n_pot - 1) + alpha x^2 g(nu t),

    a well  V = c_pot x^(2 n_pot)  plus a parametric forcing of shape g and
    amplitude alpha.  g may be a FourierSeries over as many angles as there
    are forcing frequencies, or a plain number (autonomous forcing);
    a series on one or more angles keeps its own mode box, otherwise
    ``cut`` sets it.
    """

    def __init__(self, c_pot, n_pot, alpha, g, nu=(), cut=16):
        self.c_pot = float(c_pot)
        self.n_pot = int(n_pot)
        self.alpha = float(alpha)
        self.nu = tuple(float(v) for v in nu)
        if self.c_pot <= 0:
            raise ConfigError("well coefficient must be positive")
        if self.n_pot < 2:
            raise ConfigError(
                "need a degenerate well (n_pot >= 2); n_pot = 1 gives a "
                "linear restoring force and no parabolic point")
        if isinstance(g, FourierSeries) and g.dim:
            cut = g.cut  # a given series keeps its own mode box
        self.cut = int(cut)
        self.g = on_box(g, len(self.nu), self.cut, "forcing shape")


def build_oscillator_field(p):
    """First-order field of the kicked well, ready for the power-class solve.

    Writes x' = y, y' = alpha g(tau) x^2 - 2 n_pot c_pot x^(2 n_pot - 1)
    with the well force carried as an admissible higher-order remainder.
    All angles are external drive; there is no dynamic angle equation.
    The field is in the power class whenever the mean forcing
    alpha * mean(g) is positive; its solve (or ``cli.RunConfig``) runs the
    class check, which refuses it otherwise.
    """
    y_terms = {
        (2, 0): p.g * p.alpha,
        (2 * p.n_pot - 1, 0): -2.0 * p.n_pot * p.c_pot,
    }
    return TaylorFourierMap("field", 0, len(p.nu), p.cut, p.nu,
                            {(0, 1): 1.0}, y_terms, [], k=2, p=None)


# ---------------------------------------------------------------------------
# helium scattering off a corrugated copper wall
# ---------------------------------------------------------------------------

class HeCuParams:
    """Constants of the helium/copper wall-scattering model.

    D            well depth of the wall attraction,
    alpha_morse  inverse-length stiffness of the attraction,
    m            atom mass,
    h            conserved energy; scattering states need h > D,
    g_surface    periodic corrugation profile along the wall (FourierSeries
                 over one angle, or a plain number; zero switches the
                 lateral coupling off).

    Any consistent unit system works; all outputs are in the same units.
    """

    def __init__(self, D, alpha_morse, m, h, g_surface=0.0, cut=16):
        self.D = float(D)
        self.alpha_morse = float(alpha_morse)
        self.m = float(m)
        self.h = float(h)
        if self.D <= 0 or self.alpha_morse <= 0 or self.m <= 0:
            raise ConfigError("D, alpha_morse and m must all be positive")
        if self.h <= self.D:
            raise EnergyBelowThreshold(
                "energy h = %g does not exceed the well depth D = %g; no "
                "scattering orbits reach infinity" % (self.h, self.D))
        if isinstance(g_surface, FourierSeries):
            cut = g_surface.cut  # a given series keeps its own mode box
        self.cut = int(cut)
        self.g_surface = on_box(g_surface, 1, self.cut, "corrugation")


def _xy_identity(dim, cut, deg, which):
    lm = (1, 0) if which == "x" else (0, 1)
    return XYPoly(dim, cut, deg, {lm: 1.0})


def _inverse_change(h, deg):
    """Solve  y = ynew - h(x, y, theta)  for y as a polynomial in (x, ynew)
    of total degree ``deg``: ``deg - 1`` substitutions from y = ynew, which
    is exact through degree 1, enough since each one fixes one more degree
    (h has no term below degree 2)."""
    dim, cut = h.dim, h.cut
    ynew = _xy_identity(dim, cut, deg, "y")
    xid = _xy_identity(dim, cut, deg, "x")
    Y = ynew
    for _ in range(deg - 1):
        Y = ynew - h.subst(xid, Y)
    return Y


def build_hecu_field(p, expansion="displayed", deg=6):
    """Shear-form field of the compactified scattering system.

    After restricting to the energy level h, compactifying the wall
    distance z through y = -exp(-alpha z) and straightening the vertical
    momentum equation by the quadratic change
    y_new = y + (1 + g(theta)) y^2, the motion near the parabolic orbit at
    infinity takes the (x y)-shear triangular form.  Returns the field and
    the inverse change  y = Y(x, y_new, theta), an ``XYPoly``, for pulling
    solved jets back to wall coordinates.

    expansion="displayed" keeps only the leading coefficients

        c = 2 D alpha,   b = -alpha / m,   d = -D / sqrt(2 m (h - D)),

    while expansion="expanded" carries the full Taylor expansion of the
    angular square-root equation (and of the change of variables) to total
    degree ``deg``.  The expansion is asymptotic near the orbit: the
    square-root argument can vanish near y = A / (4 m D) or p = sqrt(A),
    with A = 2 m (h - D), and nothing enforces it.  The field is in the
    shear class by construction; ``solve_helicoure`` checks it.
    """
    if expansion not in ("displayed", "expanded"):
        raise ConfigError("expansion must be 'displayed' or 'expanded'")
    D, alpha, m = p.D, p.alpha_morse, p.m
    A = 2.0 * m * (p.h - D)
    omega = math.sqrt(A) / m
    c = 2.0 * D * alpha
    b = -alpha / m
    d1 = D / math.sqrt(A)
    cut = p.cut
    g = p.g_surface
    gamma = g + 1.0

    h_fwd = XYPoly(1, cut, deg, {(0, 2): gamma})
    y_inv = _inverse_change(h_fwd, deg)

    if expansion == "displayed":
        fd = TaylorFourierMap("field", 1, 0, cut, (omega,),
                              {(0, 1): c}, {(1, 1): b}, [{(0, 1): -d1}])
    else:
        # vertical momentum: exactly c * y_new by construction of the change
        pdot = XYPoly(1, cut, deg, {(0, 1): c, (0, 2): gamma * c})
        ydot = XYPoly(1, cut, deg, {(1, 1): b})
        # angular speed sqrt(A - s) / m with s collecting the wall potential
        # and the vertical kinetic term
        s_over = XYPoly(1, cut, deg, {
            (0, 1): 4.0 * m * D / A,
            (0, 2): gamma * (2.0 * m * D / A),
            (2, 0): 1.0 / A,
        })
        root = XYPoly(1, cut, deg, {(0, 0): 1.0})
        spow = XYPoly(1, cut, deg, {(0, 0): 1.0})
        cj = 1.0
        for j in range(1, deg + 1):
            cj *= (2 * j - 3) / (2.0 * j)
            spow = spow * s_over
            root = root + spow.scale(cj)
        theta_full = root.scale(omega)
        theta_dev = theta_full + XYPoly(1, cut, deg, {(0, 0): -omega})

        # the changed vertical coordinate moves with both the old vertical
        # equation and, through the corrugation, the angular one
        stretch = XYPoly(1, cut, deg, {(0, 0): 1.0, (0, 1): gamma * 2.0})
        swirl = XYPoly(1, cut, deg, {(0, 2): g.diff(0)})
        ydot_new = stretch * ydot + swirl * theta_full

        pdot_n, ydot_n, theta_n = substitute(
            [pdot.terms, ydot_new.terms, theta_dev.terms],
            _xy_identity(1, cut, deg, "x"), y_inv, (), deg)
        scale = max(s.coeff_norm() for s in
                    list(pdot_n.terms.values()) + list(ydot_n.terms.values())
                    + list(theta_n.terms.values()))
        tol = 1e-13 * scale

        def clean(poly):
            return {lm: s for lm, s in poly.terms.items()
                    if s.coeff_norm() > tol}

        fd = TaylorFourierMap("field", 1, 0, cut, (omega,),
                              clean(pdot_n), clean(ydot_n), [clean(theta_n)])
    return fd, y_inv


def _pulled_back(pair, y_inv):
    """Same manifold in wall coordinates: vertical jet through the inverse
    change y_inv at (x-jet, y-jet, theta + tails), everything else
    untouched."""
    out = pair.copy()
    (out.y,) = substitute([y_inv.terms], pair.x, pair.y, pair.tails,
                          pair.trunc)
    out.diagnostics["wall_coordinates"] = True
    return out


def hecu_field_degree(n_target):
    return max(6, n_target + 2)


def hecu_manifolds(p, n_target, expansion="displayed",
                   theta_leading="closed_form", sd_floor=SD_FLOOR,
                   assert_tol=ASSERT_TOL):
    """Stable and unstable wall-scattering manifolds plus a check report.

    Solves both branches of the shear-form field to order ``n_target``,
    verifies the closed-form leading coefficients

        K2y = -1/(4 m D),  K1theta = -1/(alpha sqrt(2 m (h - D))),
        |Y2| = alpha/(2 m),  omega = sqrt(2 (h - D)/m),

    against the solved jets (the first three in the default
    displayed/closed_form convention), checks the branch sign pattern (the
    two branches share the vertical and angular leading-coefficient
    magnitudes and have opposite-sign normal-form leading terms), fits the
    slopes of the residuals the two solves hand over, and finally pulls
    both parameterizations back to wall coordinates; BoundViolated names
    every failed check.
    ``sd_floor`` and ``assert_tol`` go to both solves.  Returns
    (stable pair, unstable pair, report dict, residual reports), the last
    the ResidualReport of each branch by name, measured in the solve
    coordinates before the pullback.
    """
    fd, y_inv = build_hecu_field(p, expansion=expansion,
                                 deg=hecu_field_degree(n_target))
    solved = {branch: solve_helicoure(fd, n_target, branch, theta_leading,
                                      sd_floor, assert_tol)
              for branch in ("stable", "unstable")}
    stable, unstable = solved["stable"][0], solved["unstable"][0]

    D, alpha, m = p.D, p.alpha_morse, p.m
    A = 2.0 * m * (p.h - D)
    closed = {
        "K2y": -1.0 / (4.0 * m * D),
        "K1theta": -1.0 / (alpha * math.sqrt(A)),
        "Y2": alpha / (2.0 * m),
        "omega": math.sqrt(A) / m,
    }
    got = {
        "K2y": stable.y_coeff_avg(2),
        "K1theta": stable.tail_coeff_avg(0, 1),
        "Y2": abs(stable.inner_coeff(2)),
        "omega": stable.freqs[0],
    }
    deviations = {key: abs(got[key] - closed[key]) / abs(closed[key])
                  for key in closed}

    sign_pattern = {
        "stable_contracts": stable.inner_coeff(2) < 0,
        "unstable_expands": unstable.inner_coeff(2) > 0,
        "shared_vertical": abs(abs(unstable.y_coeff_avg(2))
                               - abs(stable.y_coeff_avg(2))),
        "shared_angular": abs(abs(unstable.tail_coeff_avg(0, 1))
                              - abs(stable.tail_coeff_avg(0, 1))),
        "opposite_normal_form": abs(unstable.inner_coeff(2)
                                    + stable.inner_coeff(2)),
    }

    slopes = {}
    reports = {}
    for name, (pair, residual) in solved.items():
        rep = residual_report(pair, residual)
        reports[name] = rep
        slopes[name] = {comp["name"]: comp["slope"] for comp in rep.components}

    report = {
        "closed_forms": closed,
        "computed": got,
        "relative_deviations": deviations,
        "sign_pattern": sign_pattern,
        "residual_slopes": slopes,
        "expansion": expansion,
        "theta_leading": theta_leading,
    }
    failed = [key for key in ("stable_contracts", "unstable_expands")
              if not sign_pattern[key]]
    failed += [key for key in ("opposite_normal_form", "shared_vertical",
                               "shared_angular")
               if not sign_pattern[key] <= 1e-12]
    if (expansion == "displayed" and theta_leading == "closed_form"
            and not max(deviations.values()) <= 1e-10):
        failed.append("relative_deviations")
    # a slope of None marks an identically-zero tail (exact solve)
    failed += ["residual_slopes.%s.%s" % (name, comp)
               for name in slopes for comp, slope in slopes[name].items()
               if not (slope is None or slope > n_target + 2 - 0.25)]
    if failed:
        raise BoundViolated("wall-scattering checks failed: %s"
                            % ", ".join(failed))

    return (_pulled_back(stable, y_inv), _pulled_back(unstable, y_inv),
            report, reports)
