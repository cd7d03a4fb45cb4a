"""Invariant-manifold construction for vector fields.

Two structure classes are handled:

* the power class  (c(theta) y,  a(theta) x^k + ...,  omega + d(theta) x^p
  + ...) — the flow analog of the reduced map form.  The order-by-order
  induction is literally the map one with the inner normal form read as a
  velocity  du/dt = r_k u^k (+ r_{2k-1} u^{2k-1})  and the cohomological
  equations solved against the directional derivative: solve_flow_to_order
  runs map_solver.solve_to_order.  At the degenerate step the solvability
  combination reads the y-defect at order 3k-1, same as for maps.

* the shear class  (c(theta) y,  b(theta) x y + (y^2-divisible),
  omega + d(theta) y + Q(x, y, theta)) — here the parameterization is a
  graph over u ~ x, the inner velocity is the exact cubic
  Y(u) = Y_2 u^2 + Y_3 u^3, and the branch is dictated by the sign of the
  mean of b rather than chosen by a square root.  This module holds its
  seed and the branch flip; its admissibility rule (structure and leading
  means) is mapdata.validate_shear_field, beside the power-class rule, and
  the order steps are map_solver.extend_order, which solves the class's
  averaged system (map_solver._shear_system, a coefficient table beside
  the power class's) with the same averaged step.  solve_helicoure is the
  entry point: it checks the order, the branch, the convention and the
  field once, and the direct solve trusts it.  Both classes truncate a
  solve at map_solver.truncation, here n_target + 4.

For the shear class the leading angular coefficient admits two conventions:
``theta_leading="cohomological"`` solves the order-u^2 angular equation
(the invariance defect law then holds in every component), while
``theta_leading="closed_form"`` pins the widely quoted closed-form value
2 * mean(d) / mean(c), which leaves a constant angular defect at order u^2;
the discrepancy per axis is recorded in the diagnostics either way.
"""

from .errors import ConfigError, StructureViolation
from .fourier import diophantine_margin
from .jets import TFJet, UPoly
from .map_solver import close_order, extend_order, solve_to_order, truncation
from .map_solver import init_order2  # noqa: F401  only for the perfbench trace
from .mapdata import validate_shear_field
from .pairs import ManifoldPair
from .pairs import residual_jets  # noqa: F401  only for the perfbench trace


def solve_flow_to_order(fd, n_target, branch="stable", sd_floor=1e-12,
                        assert_tol=1e-9):
    """Power-class pair of a vector field, through the map induction."""
    if fd.kind != "field":
        raise StructureViolation("solve_flow_to_order takes a vector field, "
                                 "got kind %r" % (fd.kind,))
    return solve_to_order(fd, n_target, branch, sd_floor, assert_tol)


# ----- shear class ----------------------------------------------------------


def _solve_shear_direct(fd, n_target, theta_leading, sd_floor, assert_tol):
    cbar = fd.shear().average()
    bbar = fd.y_terms.coefficient((1, 1)).average()
    d, dim, cut = fd.d, fd.dim, fd.cut
    trunc = truncation("shear", n_target)
    y2 = bbar / 2.0
    eta2 = bbar / (2.0 * cbar)

    w1_cohom, w1_used = [], []
    for a in range(d):
        dbar = fd.theta_terms[a].coefficient((0, 1)).average()
        q20 = fd.theta_terms[a].coefficient((2, 0)).average()
        w_true = (dbar * eta2 + q20) / y2
        w1_cohom.append(w_true)
        w1_used.append(2.0 * dbar / cbar if theta_leading == "closed_form" else w_true)

    x = TFJet(dim, cut, trunc, {1: 1.0})
    y = TFJet(dim, cut, trunc, {2: eta2})
    tails = [TFJet(dim, cut, trunc, {1: w1_used[a]}) for a in range(d)]
    inner = UPoly({2: y2}, trunc)

    pair = ManifoldPair(
        "field", "shear", "stable" if bbar < 0 else "unstable",
        cut, trunc, 0, None, None, fd.freqs, d, fd.drive, x, y, tails, inner,
        diagnostics={
            "margin": diophantine_margin(fd.freqs, cut, "flow"),
            "theta_leading_mode": theta_leading,
            "theta_leading_defect": [w1_cohom[a] - w1_used[a] for a in range(d)],
        },
    )

    # oscillatory completion at the order-0 contract orders (2, 3, 2)
    residual = close_order(fd, pair, sd_floor, assert_tol)
    while pair.order < n_target:
        residual = extend_order(fd, pair, residual, sd_floor, assert_tol)
    return pair


def _flip_branch(pair, freqs):
    """Map the pair of the (x -> -x, t -> -t)-conjugated field back."""
    out = pair.copy()
    out.x = -pair.x
    out.inner = pair.inner.scale(-1.0)
    out.freqs = tuple(freqs)
    out.branch = "unstable" if pair.branch == "stable" else "stable"
    out.diagnostics["via_conjugation"] = True
    return out


def solve_helicoure(fd, n_target, branch="stable", theta_leading="closed_form",
                    sd_floor=1e-12, assert_tol=1e-9):
    """Manifold pair for a shear-class field.

    The sign of the mean leading coefficient fixes which branch the direct
    construction yields (negative: stable).  The opposite branch is obtained
    by conjugating with (x, t) -> (-x, -t), solving, and mapping back, which
    flips the sign of the horizontal jet and of the inner velocity.  The
    entry point of the shear class: ``n_target``, the branch, the convention
    and the field (``validate_shear_field``) are checked here once.
    """
    if n_target < 2:
        raise ConfigError("n_target must be at least 2, got %r" % (n_target,))
    if theta_leading not in ("closed_form", "cohomological"):
        raise ConfigError("theta_leading must be closed_form or cohomological, "
                          "got %r" % (theta_leading,))
    if branch not in ("stable", "unstable"):
        raise ConfigError("branch must be stable or unstable, got %r" % (branch,))
    validate_shear_field(fd)
    natural = ("stable" if fd.y_terms.coefficient((1, 1)).average() < 0
               else "unstable")
    if branch == natural:
        return _solve_shear_direct(fd, n_target, theta_leading, sd_floor,
                                   assert_tol)
    flipped = fd.transformed_field(sx=-1, sy=1, time_sign=-1)
    pair = _solve_shear_direct(flipped, n_target, theta_leading, sd_floor,
                               assert_tol)
    return _flip_branch(pair, fd.freqs)
