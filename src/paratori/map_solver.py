"""Order-by-order construction of invariant manifolds of parabolic tori for
maps in reduced form, and the seed, order step and solve loop shared with
vector fields.  The admissibility rules live with the input dynamics in
mapdata; this module reads its data only through the term tables.

The input map must have the triangular structure
    x' = x + c(theta) y
    y' = y + a(theta) x^k + (admissible tail)
    theta' = theta + omega + d(theta) x^p + (admissible tail)
with mean(c) > 0 and mean(a) > 0, which ``TaylorFourierMap.validate_reduced``
checks.  ``solve_to_order`` is the entry point: it runs that check and the
branch check once, and everything it calls trusts its caller.  The
parameterization is sought as
    K(u, theta) = (u^2 + ..., K_y u^{k+1} + ..., theta + W(u, theta)),
conjugating the map to the polynomial normal form
    u' = u + r_k u^k (+ r_{2k-1} u^{2k-1}),   theta' = theta + omega.

Both structure classes (the power class here, the shear class of
flow_solver) share one solve loop, ``raise_to_order``, and only their
tables differ.  ``power_seed`` and ``shear_seed`` state a class's seed,
and ``init_order2`` builds the pair from either and closes its first
order.  ``extend_order`` is the one order step: it reads the averaged
defect at the pair's contract orders (``pairs.contract_orders``), solves
a small linear system for the new average (theta-independent)
coefficients, then ``close_order`` solves one cohomological equation per
component at the same orders, raises the order and checks the invariance
contract.  ``_power_system`` and
``_shear_system`` state that system as one table (the 2x2 rows for the
new x and y averages, one row per angle tail, the normal-form correction's
column, its closed form at the resonant order and the orders where
everything lands), and one ``_average_step`` solves either table.  Each
system is singular exactly once, at its resonant order (n = k in the power
class, n = 2 in the shear class), where the correction (r_{2k-1}, or Y_3)
restores solvability and the new average x-coefficient is fixed to zero
by convention.

Each step evaluates the invariance defect twice: once after the averaged
step, for the cohomological right-hand sides, and once for the contract
check.  Both are cut at the largest contract order of the pair at that
moment, the highest order the step (or the next step's opening) reads:
up to the cut they are exact for the pair, bit for bit the coefficients
of the full residual, and above it they hold nothing.  ``close_order``
returns the checked residual, and the next ``extend_order`` reads its
averages from it.  A solve is truncated one order above its largest
contract order at ``n_target`` (``truncation``), so the check of the step
that reaches ``n_target`` expands the full residual, which the solve
returns with the pair for the measurements after it.  Stepping a pair
past that order raises TruncationTooLow.
"""

from collections import namedtuple

import numpy as np

from .errors import (ConfigError, ContractViolated, SingularSystem,
                     SmallDivisorUnderflow, TruncationTooLow)
from .fourier import SD_FLOOR, diophantine_margin, solve_sd_flow, solve_sd_map
from .jets import TFJet, UPoly
from .pairs import (ManifoldPair, check_finite, contract_orders,
                    named_components, residual_jets)

# the default bound of an order step's defect below the contract orders,
# relative to the size of the pair (``_check_contract``)
ASSERT_TOL = 1e-9


def _sd_solver(data, sd_floor):
    """Cohomological-equation solver matching the kind of the data."""
    freqs = np.asarray(data.freqs, dtype=float)
    if data.kind == "map":
        return lambda h: solve_sd_map(h, freqs, sd_floor)
    return lambda h: solve_sd_flow(h, freqs, sd_floor)


def _top(orders):
    """The largest contract order: the cut of an order step's residuals."""
    return max(o for o in orders if o is not None)


def truncation(family, n_target, k=None, p=None, d=0):
    """Truncation of a solve to ``n_target``: one above the largest contract
    order at ``n_target``, the highest order its last step reads."""
    return _top(contract_orders(family, n_target, k, p, d)) + 1


# The seed of a structure class: family, branch, starting order, contract
# exponents k and p (None in the shear class), the {order: coefficient}
# terms of x, y, each angle tail and the inner normal form, diagnostics.
_Seed = namedtuple("_Seed", "family branch order k p x y tails inner diagnostics")


def power_seed(mp, branch):
    """Seed of the power class at order 1, from the square-root balance
    between the shear and the leading coefficient; the same for maps and
    fields, with the normal form read as a step map or as a velocity."""
    k, p = mp.k, mp.p
    cbar = mp.shear().average()
    abar = mp.y_terms.coefficient((k, 0)).average()
    sign = -1.0 if branch == "stable" else 1.0
    r_k = sign * np.sqrt(cbar * abar / (2.0 * (k + 1)))
    lead_w = 2 * p - k + 1 if mp.d else None
    tails = [{lead_w: t.coefficient((p, 0)).average() / (lead_w * r_k)}
             for t in mp.theta_terms]
    inner = {1: 1.0, k: r_k} if mp.kind == "map" else {k: r_k}
    return _Seed("power", branch, 1, k, p, {2: 1.0}, {k + 1: 2.0 * r_k / cbar},
                 tails, inner, {})


def shear_seed(fd, theta_leading):
    """Seed of the shear class at order 0: a graph over u ~ x with the
    inner velocity Y_2 u^2, on the branch the sign of mean(b) names
    (negative: stable).  The leading angle coefficients follow
    ``theta_leading``; their distance from the cohomological values is
    recorded."""
    cbar = fd.shear().average()
    bbar = fd.y_terms.coefficient((1, 1)).average()
    y2 = bbar / 2.0
    eta2 = bbar / (2.0 * cbar)
    dbar = [t.coefficient((0, 1)).average() for t in fd.theta_terms]
    cohom = [(db * eta2 + t.coefficient((2, 0)).average()) / y2
             for db, t in zip(dbar, fd.theta_terms)]
    used = cohom if theta_leading == "cohomological" else [
        2.0 * db / cbar for db in dbar]
    return _Seed("shear", "stable" if bbar < 0 else "unstable", 0, None, None,
                 {1: 1.0}, {2: eta2}, [{1: w} for w in used], {2: y2},
                 {"theta_leading_mode": theta_leading,
                  "theta_leading_defect": [c - w for c, w in zip(cohom, used)]})


def init_order2(data, seed, n_target=2, sd_floor=SD_FLOOR,
                assert_tol=ASSERT_TOL):
    """The pair of a seed table, truncated for a solve to ``n_target``,
    with its first order closed, and its checked residual (the opening
    residual of the first ``extend_order``).  The data and the seed are
    trusted: the entry points have checked them."""
    trunc = truncation(seed.family, n_target, seed.k, seed.p, data.d)
    x, y, *tails = (TFJet(data.dim, data.cut, trunc, terms)
                    for terms in [seed.x, seed.y] + seed.tails)
    margin = diophantine_margin(data.freqs, data.cut,
                                "map" if data.kind == "map" else "flow")
    pair = ManifoldPair(
        data.kind, seed.family, seed.branch, data.cut, trunc, seed.order,
        seed.k, seed.p, data.freqs, data.d, data.drive, x, y, tails,
        UPoly(seed.inner, trunc), dict(margin=margin, **seed.diagnostics))
    # oscillatory completion at the seed's contract orders
    return pair, close_order(data, pair, sd_floor, assert_tol)


def _check_contract(data, pair, tol):
    """Raise ContractViolated unless every defect coefficient below the
    contract orders is within ``tol`` times the size of the pair; return
    the residual jets it checked, cut at the largest contract order, or
    full where that order is one below the truncation (at ``n_target``).

    A non-finite coefficient up to the cut means finite data overflowed
    inside the solve: ``check_finite`` refuses it as a ConfigError naming
    the order and component, before any bound is read.  In the shear
    class's closed-form convention the order-2 angle average is a
    documented defect (``theta_leading_defect``), so only its oscillatory
    part is checked there.
    """
    orders = pair.contract_orders()
    top = _top(orders)
    if top + 1 == pair.trunc:
        top = pair.trunc
    residual = residual_jets(data, pair, top=top)
    check_finite(residual)
    bound = tol * pair.size()
    pinned = pair.diagnostics.get("theta_leading_mode") == "closed_form"
    for name, jet, lead in named_components(residual, orders):
        for n in jet.orders():
            if n >= lead:
                break
            coeff = jet.terms[n]
            if pinned and n == 2 and name.startswith("theta"):
                coeff = coeff.oscillatory()
            defect = coeff.coeff_norm()
            if not defect <= bound:
                raise ContractViolated(n, name, defect, bound)
    return residual


def close_order(data, pair, sd_floor, assert_tol):
    """End of every order step and seed: solve the oscillatory parts at the
    contract orders of the current order, raise the order, check it.
    Returns the checked residual, which opens the next order step.  A
    SmallDivisorUnderflow names the order and component it stopped at."""
    if pair.dim:
        sd = _sd_solver(data, sd_floor)
        orders = pair.contract_orders()
        residual = residual_jets(data, pair, top=_top(orders))
        for (name, g, n), jet in zip(named_components(residual, orders),
                                     [pair.x, pair.y] + pair.tails):
            try:
                jet.add_to_coefficient(n, sd(g.coefficient(n).oscillatory()))
            except SmallDivisorUnderflow as err:
                err.detail.update(order=n, component=name)
                raise
    pair.order += 1
    return _check_contract(data, pair, assert_tol)


# The averaged linear system of one order step, as a structure class states
# it.  ``step`` is the order that names the step; ``rows`` the 2x2
# coefficients of the new x and y averages (xi, eta) in the x and y rows;
# ``tails`` one (coef_xi, coef_eta, coef_corr, div) per angle tail, whose
# new average is (g + coef_eta eta + coef_xi xi - coef_corr corr) / div;
# ``corr_col`` the normal-form correction's coefficients in the x and y
# rows; ``closed_form`` the correction as a function of the x and y
# averages at the resonant order (None elsewhere); ``lands`` the orders
# where xi, eta, the tails and the correction land.
_System = namedtuple("_System", "step rows tails corr_col closed_form lands")


def _power_system(mp, pair):
    """Averaged system of the power class at order n, singular at n = k,
    where the correction r_{2k-1} restores solvability.  It lands at
    (n+1, n+k, n+2p-k, n+k-1), with no tail order when d = 0."""
    n, k, p, d = pair.order, pair.k, pair.p, pair.d
    r_k = pair.inner.coeff(k)
    cbar = mp.shear().average()
    abar = mp.y_terms.coefficient((k, 0)).average()
    lead_w = 2 * p - k + 1 if d else None
    tails = [(p * mp.theta_terms[a].coefficient((p, 0)).average(), 0.0,
              lead_w * pair.tails[a].coefficient(lead_w).average(),
              (n + 2 * p - k) * r_k) for a in range(d)]
    rho = None
    if n == k:
        def rho(gxb, gyb):
            return (2 * k * r_k * gxb + cbar * gyb) / (2.0 * (3 * k + 1) * r_k)
    return _System(n, [[-(n + 1) * r_k, cbar], [k * abar, -(n + k) * r_k]],
                   tails, (2.0, (k + 1) * pair.y.coefficient(k + 1).average()),
                   rho, (n + 1, n + k, n + 2 * p - k if d else None, n + k - 1))


def _shear_system(fd, pair):
    """Averaged system of the shear class, new average x-coefficient at
    n = order + 1, singular at n = 2, where the cubic velocity coefficient
    Y_3 restores solvability.  It lands at (n, n+1, n, 3)."""
    n = pair.order + 1
    cbar = fd.shear().average()
    b = fd.y_terms.coefficient((1, 1))
    bbar = b.average()
    y2 = pair.inner.coeff(2)
    y_lead = pair.y.coefficient(2)
    tails = [(2 * fd.theta_terms[a].coefficient((2, 0)).average(),
              fd.theta_terms[a].coefficient((0, 1)).average(),
              pair.tails[a].coefficient(1).average(), n * y2)
             for a in range(pair.d)]
    y3 = None
    if n == 2:
        def y3(gxb, gyb):
            return gxb / 3.0 + 2.0 * cbar * gyb / (3.0 * bbar)
    rows = [[-n * y2, cbar], [(b * y_lead).average(), bbar - (n + 1) * y2]]
    return _System(n, rows, tails, (1.0, 2.0 * y_lead.average()), y3,
                   (n, n + 1, n, 3))


def _average_step(system, pair, gxb, gyb, gtb):
    """Solve a class's averaged system for (xi, eta, tail averages, corr):
    the 2x2 block first, then each tail average from its own row.

    Away from the resonant order the block must be regular, else
    SingularSystem.  At the resonant order xi = 0 by convention, the closed
    form gives the correction and the x row gives eta; ``degenerate_step``
    records the block's det and the y row's residual relative to
    max(1, |rhs|), the left-null-vector condition.  The tail rows' residual
    vanishes by construction, so it is not recorded.
    """
    n, rows, tails = system.step, system.rows, system.tails
    mat = np.array(rows)
    det = float(np.linalg.det(mat))
    det_scale = float(np.prod(np.linalg.norm(mat, axis=1)))
    if system.closed_form is None:
        if abs(det) <= 1e-12 * det_scale:
            raise SingularSystem("%s step %d unexpectedly singular" % (pair.family, n))
        xi, eta = np.linalg.solve(mat, np.array([-gxb, -gyb]))
        corr = 0.0
    else:
        corr = system.closed_form(gxb, gyb)
        cx, cy = system.corr_col
        rx, ry = -gxb + cx * corr, -gyb + cy * corr
        xi, eta = 0.0, rx / rows[0][1]
        pair.diagnostics["degenerate_step"] = {
            "order": n, "det": det, "det_scale": det_scale,
            "normal_form_coeff": float(corr),
            "solvability_defect": abs(rows[1][1] * eta - ry)
            / max(1.0, float(np.hypot(rx, ry))),
        }
    ws = [(g + coef_eta * eta + coef_xi * xi - coef_corr * corr) / div
          for g, (coef_xi, coef_eta, coef_corr, div) in zip(gtb, tails)]
    return xi, eta, ws, corr


def extend_order(data, pair, opening, sd_floor=SD_FLOOR,
                 assert_tol=ASSERT_TOL):
    """One induction step: raise the invariance order of the pair by one.

    The one order step for maps and fields and for both structure classes:
    the averaged defect at the contract orders fixes the new averages
    through the class's averaged system, then ``close_order`` completes the
    oscillatory parts and checks the contract.  ``opening`` is the residual
    ``residual_jets(data, pair)`` of the pair as it stands, as the previous
    step (or the seed) returned it; the closing residual is returned for
    the next step.
    """
    orders = pair.contract_orders()
    top = _top(orders)
    if top > pair.trunc:
        raise TruncationTooLow(
            "step %d needs order %d, truncation is %d" % (pair.order, top, pair.trunc))
    system = (_shear_system if pair.family == "shear" else _power_system)(data, pair)
    gxb, gyb, *gtb = (g.coefficient(o).average()
                      for _, g, o in named_components(opening, orders))
    xi, eta, ws, corr = _average_step(system, pair, gxb, gyb, gtb)
    nx, ny, nw, nr = system.lands

    if xi != 0.0:
        pair.x.add_to_coefficient(nx, xi)
    pair.y.add_to_coefficient(ny, eta)
    for a in range(pair.d):
        pair.tails[a].add_to_coefficient(nw, ws[a])
    if corr != 0.0:
        pair.inner = pair.inner + UPoly({nr: corr}, pair.inner.trunc)

    return close_order(data, pair, sd_floor, assert_tol)


def raise_to_order(data, seed, n_target, sd_floor, assert_tol):
    """The one solve loop of both classes: build the seed's pair, raise it
    one order at a time to ``n_target`` and return (pair, residual), the
    full residual of the pair that the last step checked."""
    pair, residual = init_order2(data, seed, n_target, sd_floor, assert_tol)
    while pair.order < n_target:
        residual = extend_order(data, pair, residual, sd_floor, assert_tol)
    return pair, residual


def solve_to_order(mp, n_target, branch="stable", sd_floor=SD_FLOOR,
                   assert_tol=ASSERT_TOL):
    """Construct the pair with invariance order ``n_target`` and return
    (pair, residual), the residual as ``raise_to_order`` hands it over.

    The entry point of the power class: it checks ``n_target``, the data
    (``validate_reduced``) and the branch once; the order steps trust them.
    """
    if n_target < 2:
        raise ConfigError("n_target must be at least 2, got %r" % (n_target,))
    mp.validate_reduced()
    if branch not in ("stable", "unstable"):
        raise ConfigError("branch must be stable or unstable, got %r" % (branch,))
    return raise_to_order(mp, power_seed(mp, branch), n_target, sd_floor,
                          assert_tol)
