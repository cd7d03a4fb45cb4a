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
  mean of b rather than chosen by a square root.  Its admissibility rule
  (structure and leading means) is mapdata.validate_shear_field, its seed
  map_solver.shear_seed and its averaged system map_solver._shear_system,
  tables beside the power class's that the one seed builder, order step
  and solve loop of map_solver run; this module holds the branch flip.
  solve_helicoure is the entry point: it checks the order, the branch, the
  convention and the field once, and the solve trusts it.  Both classes
  truncate a solve at map_solver.truncation, here n_target + 4.

Every entry point returns (pair, residual), the full residual that the
solve's last step checked, mapped with the pair on a conjugated branch.

For the shear class the leading angular coefficient admits two conventions:
``theta_leading="cohomological"`` solves the order-u^2 angular equation
(the invariance defect law then holds in every component), while
``theta_leading="closed_form"`` pins the widely quoted closed-form value
2 * mean(d) / mean(c), which leaves a constant angular defect at order u^2;
the discrepancy per axis is recorded in the diagnostics either way.
"""

from .errors import ConfigError, StructureViolation
from .fourier import SD_FLOOR
from .map_solver import (ASSERT_TOL, raise_to_order, shear_seed,
                         solve_to_order)
from .map_solver import extend_order, init_order2  # noqa: F401  only for the perfbench trace
from .mapdata import validate_shear_field
from .pairs import residual_jets  # noqa: F401  only for the perfbench trace


def solve_flow_to_order(fd, n_target, branch="stable", sd_floor=SD_FLOOR,
                        assert_tol=ASSERT_TOL):
    """Power-class (pair, residual) of a vector field, by solve_to_order."""
    if fd.kind != "field":
        raise StructureViolation("solve_flow_to_order takes a vector field, "
                                 "got kind %r" % (fd.kind,))
    return solve_to_order(fd, n_target, branch, sd_floor, assert_tol)


# ----- shear class ----------------------------------------------------------


def _flip_branch(pair, residual, freqs):
    """Map the pair of the (x -> -x, t -> -t)-conjugated field back, and
    its residual with it: x kept, y and every angle tail negated."""
    pair.x = -pair.x
    pair.inner = pair.inner.scale(-1.0)
    pair.freqs = tuple(freqs)
    pair.branch = "unstable" if pair.branch == "stable" else "stable"
    pair.diagnostics["via_conjugation"] = True
    gx, gy, gt = residual
    return pair, (gx, -gy, [-g for g in gt])


def solve_helicoure(fd, n_target, branch="stable", theta_leading="closed_form",
                    sd_floor=SD_FLOOR, assert_tol=ASSERT_TOL):
    """(pair, residual) of one branch of a shear-class field.

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
    seed = shear_seed(fd, theta_leading)
    if branch == seed.branch:
        return raise_to_order(fd, seed, n_target, sd_floor, assert_tol)
    flipped = fd.transformed_field(sx=-1, sy=1, time_sign=-1)
    pair, residual = raise_to_order(flipped, shear_seed(flipped, theta_leading),
                                    n_target, sd_floor, assert_tol)
    return _flip_branch(pair, residual, fd.freqs)
