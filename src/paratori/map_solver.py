"""Order-by-order construction of invariant manifolds of parabolic tori for
maps in reduced form, and the one order step shared with vector fields.
The admissibility rules and the inversion of a reduced map live with the
input dynamics in mapdata; this module reads its data only through the term
tables.

The input map must have the triangular structure
    x' = x + c(theta) y
    y' = y + a(theta) x^k + (admissible tail)
    theta' = theta + omega + d(theta) x^p + (admissible tail)
with mean(c) > 0 and mean(a) > 0, which ``TaylorFourierMap.validate_reduced``
checks.  ``solve_to_order`` is the entry point: it runs that check and the
branch check once, and ``init_order2`` and ``extend_order`` trust their
caller.  The parameterization is sought as
    K(u, theta) = (u^2 + ..., K_y u^{k+1} + ..., theta + W(u, theta)),
conjugating the map to the polynomial normal form
    u' = u + r_k u^k (+ r_{2k-1} u^{2k-1}),   theta' = theta + omega.

``extend_order`` is the one order step of every solver, for maps and
fields and for both structure classes (the power class here, the shear
class of flow_solver).  It reads the averaged defect at the pair's contract
orders, solves a small linear system for the new average
(theta-independent) coefficients, then ``close_order`` solves one
cohomological equation per component at the same orders, raises the order
and checks the invariance contract.  Only the averaged system is
class-specific.  In the power class it is singular exactly once, at step
n = k, where the normal-form correction r_{2k-1} restores solvability and
the new average x-coefficient is fixed to zero by convention.

Each step evaluates the invariance defect twice: once after the averaged
step, for the cohomological right-hand sides, and once for the contract
check.  The checked residual is exact for the pair as it leaves the step,
so ``close_order`` (and through it ``init_order2`` and ``extend_order``)
returns it, and the next ``extend_order`` reads its averages from it
instead of evaluating the defect again.
"""

import numpy as np

from .errors import ConfigError, ContractViolated, SingularSystem, TruncationTooLow
from .fourier import diophantine_margin, solve_sd_flow, solve_sd_map
from .jets import TFJet, UPoly
from .pairs import ManifoldPair, residual_jets


def _sd_solver(data, sd_floor):
    """Cohomological-equation solver matching the kind of the data."""
    freqs = np.asarray(data.freqs, dtype=float)
    if data.kind == "map":
        return lambda h: solve_sd_map(h, freqs, sd_floor)
    return lambda h: solve_sd_flow(h, freqs, sd_floor)


def default_trunc(n_target, k, p):
    return n_target + 2 * max(k, p if p is not None else 1)


def init_order2(mp, branch="stable", trunc=None, sd_floor=1e-12, assert_tol=1e-9):
    """Seed pair satisfying the invariance contract at order 2, and its
    checked residual (the opening residual of the first ``extend_order``).

    The averages come from closed forms (the square-root balance between the
    shear and the leading coefficient); the oscillatory parts solve one
    cohomological equation per component.  Works for maps and for fields —
    the closed forms are identical with the normal-form polynomial read as a
    step map or as a velocity.  The data and the branch are trusted: the
    caller (``solve_to_order``) has checked them.
    """
    k, p, d = mp.k, mp.p, mp.d
    dim, cut = mp.dim, mp.cut
    if trunc is None:
        trunc = default_trunc(2, k, p)
    cbar = mp.shear().average()
    abar = mp.y_terms.coefficient((k, 0)).average()
    sign = -1.0 if branch == "stable" else 1.0
    r_k = sign * np.sqrt(cbar * abar / (2.0 * (k + 1)))
    eta = 2.0 * r_k / cbar
    lead_w = 2 * p - k + 1 if d else None

    x = TFJet(dim, cut, trunc, {2: 1.0})
    y = TFJet(dim, cut, trunc, {k + 1: eta})
    tails = []
    for a in range(d):
        dbar = mp.theta_terms[a].coefficient((p, 0)).average()
        tails.append(TFJet(dim, cut, trunc, {lead_w: dbar / (lead_w * r_k)}))
    if mp.kind == "map":
        inner = UPoly({1: 1.0, k: r_k}, trunc)
    else:
        inner = UPoly({k: r_k}, trunc)

    pair = ManifoldPair(
        mp.kind, "power", branch, cut, trunc, 1, k, p, mp.freqs, d, mp.drive,
        x, y, tails, inner,
        diagnostics={
            "margin": diophantine_margin(mp.freqs, cut, mp.kind if mp.kind == "map" else "flow"),
        },
    )
    # oscillatory completion at the order-1 contract orders (k+1, 2k, 2p)
    return pair, close_order(mp, pair, sd_floor, assert_tol)


def _check_contract(data, pair, tol):
    """Raise ContractViolated unless every defect coefficient below the
    contract orders is within ``tol`` times the size of the pair; return
    the residual jets it checked.

    A non-finite coefficient at any order means finite data overflowed
    inside the solve: that is refused as a ConfigError naming the order and
    component, before any bound is read.  In the shear class's closed-form
    convention the order-2 angle average is a documented defect
    (``theta_leading_defect``), so only its oscillatory part is checked
    there.
    """
    gx, gy, gt = residual_jets(data, pair)
    ox, oy, ot = pair.contract_orders()
    named = [("x", gx, ox), ("y", gy, oy)]
    named += [("theta_%d" % a, g, ot) for a, g in enumerate(gt)]
    for name, jet, _ in named:
        for n in jet.orders():
            if not np.isfinite(jet.terms[n].coeffs).all():
                raise ConfigError(
                    "the data overflows inside the solve: the residual of %s "
                    "at order %d is beyond the float range" % (name, n),
                    order=n, component=name)
    bound = tol * pair.size()
    pinned = pair.diagnostics.get("theta_leading_mode") == "closed_form"
    for name, jet, lead in named:
        for n in jet.orders():
            if n >= lead:
                break
            coeff = jet.terms[n]
            if pinned and n == 2 and name.startswith("theta"):
                coeff = coeff.oscillatory()
            defect = coeff.coeff_norm()
            if not defect <= bound:
                raise ContractViolated(n, name, defect, bound)
    return gx, gy, gt


def close_order(data, pair, sd_floor, assert_tol):
    """End of every order step and seed: solve the oscillatory parts at the
    contract orders of the current order, raise the order, check it.
    Returns the checked residual, which opens the next order step."""
    if pair.dim:
        sd = _sd_solver(data, sd_floor)
        ox, oy, ot = pair.contract_orders()
        gx, gy, gt = residual_jets(data, pair)
        pair.x.add_to_coefficient(ox, sd(gx.coefficient(ox).oscillatory()))
        pair.y.add_to_coefficient(oy, sd(gy.coefficient(oy).oscillatory()))
        for a in range(pair.d):
            pair.tails[a].add_to_coefficient(
                ot, sd(gt[a].coefficient(ot).oscillatory()))
    pair.order += 1
    return _check_contract(data, pair, assert_tol)


def _solve_average(pair, n, mat, rhs):
    """The regular averaged step: a 2x2 solve that refuses a singular
    matrix."""
    det = float(np.linalg.det(mat))
    det_scale = float(np.prod(np.linalg.norm(mat, axis=1)))
    if abs(det) <= 1e-12 * det_scale:
        raise SingularSystem("%s step %d unexpectedly singular" % (pair.family, n))
    return np.linalg.solve(mat, rhs)


def _record_degenerate(pair, n, mat, rhs, normal_form_coeff):
    """Record that the bordered system of the degenerate step is singular
    but consistent."""
    lsq = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    pair.diagnostics["degenerate_step"] = {
        "order": n,
        "det": float(np.linalg.det(mat)),
        "det_scale": float(np.prod(np.linalg.norm(mat, axis=1))),
        "lstsq_defect": float(np.linalg.norm(mat @ lsq - rhs))
        / max(1.0, float(np.linalg.norm(rhs))),
        "normal_form_coeff": float(normal_form_coeff),
    }


def _power_average_step(mp, pair, gxb, gyb, gtb):
    """Averaged step of the power class at order n.

    Returns the (order, value) where the new averages of x, y and the tails
    and the normal-form correction land: (n+1, n+k, n+2p-k, n+k-1), with
    no tail order when d = 0.
    """
    n, k, p, d = pair.order, pair.k, pair.p, pair.d
    r_k = pair.inner.coeff(k)
    cbar = mp.shear().average()
    abar = mp.y_terms.coefficient((k, 0)).average()
    lead_w = 2 * p - k + 1 if d else None
    dbars = [mp.theta_terms[a].coefficient((p, 0)).average() for a in range(d)]
    w_leads = [pair.tails[a].coefficient(lead_w).average() for a in range(d)]
    row_x = [-(n + 1) * r_k, cbar]
    row_y = [k * abar, -(n + k) * r_k]

    if n != k:
        xi, eta = _solve_average(pair, n, np.array([row_x, row_y]),
                                 np.array([-gxb, -gyb]))
        rho = 0.0
    else:
        rho = (2 * k * r_k * gxb + cbar * gyb) / (2.0 * (3 * k + 1) * r_k)
        xi = 0.0
        eta = (-gxb + 2.0 * rho) / cbar
        eta_lead = pair.y.coefficient(k + 1).average()
        mat = np.zeros((2 + d, 2 + d))
        rhs = np.zeros(2 + d)
        mat[0, :2] = row_x
        rhs[0] = -gxb + 2.0 * rho
        mat[1, :2] = row_y
        rhs[1] = -gyb + (k + 1) * eta_lead * rho
        for a in range(d):
            mat[2 + a, 0] = p * dbars[a]
            mat[2 + a, 2 + a] = -(n + 2 * p - k) * r_k
            rhs[2 + a] = -gtb[a] + lead_w * w_leads[a] * rho
        _record_degenerate(pair, n, mat, rhs, rho)

    ws = [(gtb[a] + p * dbars[a] * xi - lead_w * w_leads[a] * rho)
          / ((n + 2 * p - k) * r_k) for a in range(d)]
    n_w = n + 2 * p - k if d else None
    return (n + 1, xi), (n + k, eta), (n_w, ws), (n + k - 1, rho)


def _shear_average_step(fd, pair, gxb, gyb, gtb):
    """Averaged step of the shear class, new average x-coefficient at
    n = order + 1.

    Returns the (order, value) where the new averages of x, y and the tails
    and the normal-form correction land: (n, n+1, n, 3).  The system is
    singular at n = 2, where the cubic velocity coefficient Y_3 restores
    solvability.
    """
    n = pair.order + 1
    d = pair.d
    cbar = fd.shear().average()
    b = fd.y_terms.coefficient((1, 1))
    bbar = b.average()
    y2 = pair.inner.coeff(2)
    beta = (b * pair.y.coefficient(2)).average()
    dbars = [fd.theta_terms[a].coefficient((0, 1)).average() for a in range(d)]
    q20s = [fd.theta_terms[a].coefficient((2, 0)).average() for a in range(d)]
    w1s = [pair.tails[a].coefficient(1).average() for a in range(d)]
    row_x = [-n * y2, cbar]
    row_y = [beta, bbar - (n + 1) * y2]

    y3 = 0.0
    if n != 2:
        xi, eta = _solve_average(pair, n, np.array([row_x, row_y]),
                                 np.array([-gxb, -gyb]))
    else:
        y3 = gxb / 3.0 + 2.0 * cbar * gyb / (3.0 * bbar)
        xi = 0.0
        eta = (-gxb + y3) / cbar
        mat = np.zeros((2 + d, 2 + d))
        rhs = np.zeros(2 + d)
        mat[0, :2] = row_x
        rhs[0] = -gxb + y3
        mat[1, :2] = row_y
        rhs[1] = -gyb + 2.0 * pair.y.coefficient(2).average() * y3
        for a in range(d):
            mat[2 + a, 0] = 2 * q20s[a]
            mat[2 + a, 1] = dbars[a]
            mat[2 + a, 2 + a] = -2 * y2
            rhs[2 + a] = -gtb[a] + w1s[a] * y3
        _record_degenerate(pair, n, mat, rhs, y3)

    ws = [(gtb[a] + dbars[a] * eta + 2.0 * q20s[a] * xi - w1s[a] * y3) / (n * y2)
          for a in range(d)]
    return (n, xi), (n + 1, eta), (n, ws), (3, y3)


def extend_order(data, pair, opening, sd_floor=1e-12, assert_tol=1e-9):
    """One induction step: raise the invariance order of the pair by one.

    The one order step for maps and fields and for both structure classes:
    the averaged defect at the contract orders fixes the new averages
    through the class's linear step, then ``close_order`` completes the
    oscillatory parts and checks the contract.  ``opening`` is the residual
    ``residual_jets(data, pair)`` of the pair as it stands, as the previous
    step (or the seed) returned it; the closing residual is returned for
    the next step.
    """
    orders = pair.contract_orders()
    top = max(o for o in orders if o is not None)
    if top > pair.trunc:
        raise TruncationTooLow(
            "step %d needs order %d, truncation is %d" % (pair.order, top, pair.trunc))
    ox, oy, ot = orders
    gx, gy, gt = opening
    average_step = (_shear_average_step if pair.family == "shear"
                    else _power_average_step)
    (nx, xi), (ny, eta), (nw, ws), (nr, rho) = average_step(
        data, pair, gx.coefficient(ox).average(), gy.coefficient(oy).average(),
        [g.coefficient(ot).average() for g in gt])

    if xi != 0.0:
        pair.x.add_to_coefficient(nx, xi)
    pair.y.add_to_coefficient(ny, eta)
    for a in range(pair.d):
        pair.tails[a].add_to_coefficient(nw, ws[a])
    if rho != 0.0:
        pair.inner = pair.inner + UPoly({nr: rho}, pair.inner.trunc)

    return close_order(data, pair, sd_floor, assert_tol)


def solve_to_order(mp, n_target, branch="stable", trunc=None, sd_floor=1e-12,
                   assert_tol=1e-9):
    """Construct the pair with invariance order ``n_target``.

    The entry point of the power class: it checks ``n_target``, the data
    (``validate_reduced``) and the branch once; the order steps trust them.
    """
    if n_target < 2:
        raise ConfigError("n_target must be at least 2, got %r" % (n_target,))
    mp.validate_reduced()
    if branch not in ("stable", "unstable"):
        raise ConfigError("branch must be stable or unstable, got %r" % (branch,))
    if trunc is None:
        trunc = default_trunc(n_target, mp.k, mp.p)
    pair, residual = init_order2(mp, branch, trunc, sd_floor, assert_tol)
    while pair.order < n_target:
        residual = extend_order(mp, pair, residual, sd_floor, assert_tol)
    return pair
