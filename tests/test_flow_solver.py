"""Invariant-manifold pairs for vector fields: the power class solved through
the shared induction, and the vertical-shear class with its direct recursion."""

import numpy as np
import pytest

from paratori.applications import HeCuParams, hecu_manifolds
from paratori.errors import (ConfigError, NonPositiveLeadingCoefficient,
                             StructureViolation, ZeroLeadingCoefficient)
from paratori.flow_solver import (solve_flow_to_order, solve_helicoure,
                                  validate_shear_field)
from paratori.fourier import FourierSeries
from paratori.mapdata import TaylorFourierMap
from paratori.pairs import residual_report

from conftest import (GOLDEN, exact_flow, one_mode, reference_flow,
                      reference_map, shear_example)


def worst_below(jets, leads):
    worst = 0.0
    for jet, lead in zip(jets, leads):
        if lead is None:
            continue
        for n in jet.orders():
            if n < lead:
                worst = max(worst, jet.coefficient(n).coeff_norm())
    return worst


def test_exact_flow_fixture():
    fd = exact_flow()
    pair, _ = solve_flow_to_order(fd, 6)
    # K = (u^2, -2u^3, theta - u) with inner velocity -u^2
    assert abs(pair.y_coeff_avg(3) + 2) < 1e-12
    assert abs(pair.inner.coeff(2) + 1) < 1e-14
    assert abs(pair.inner.coeff(3)) < 1e-14
    assert abs(pair.tail_coeff_avg(0, 1) + 1) < 1e-12
    for n in pair.x.orders():
        if n != 2:
            assert pair.x.coefficient(n).coeff_norm() < 1e-11, n
    diag = pair.diagnostics["degenerate_step"]
    assert diag["order"] == 2 and diag["solvability_defect"] < 1e-12


def test_driven_flow_slopes():
    fd = reference_flow()
    pair, residual = solve_flow_to_order(fd, 6)
    rep = residual_report(pair, residual, u_lo=1e-4, u_hi=1e-3, n_grid=12)
    expected = {"x": 8, "y": 9, "theta_0": 7}
    for comp in rep.components:
        want = expected[comp["name"]]
        assert comp["slope"] is None or abs(comp["slope"] - want) < 0.2, comp
        assert comp["annihilated_max"] < 1e-9 * pair.size()


def test_shear_example_closed_pair():
    fd = shear_example()
    pair, _ = solve_helicoure(fd, 6, theta_leading="cohomological")
    # exactly K = (u, -u^2/4, theta + 1.5 u), inner velocity -u^2/2
    assert abs(pair.y_coeff_avg(2) + 0.25) < 1e-14
    assert abs(pair.inner.coeff(2) + 0.5) < 1e-14
    assert abs(pair.tail_coeff_avg(0, 1) - 1.5) < 1e-14
    for n in pair.y.orders():
        if n != 2:
            assert pair.y.coefficient(n).coeff_norm() < 1e-12, n
    for n in pair.tails[0].orders():
        if n != 1:
            assert pair.tails[0].coefficient(n).coeff_norm() < 1e-12, n
    assert abs(pair.inner.coeff(3)) < 1e-14


def test_shear_theta_leading_conventions():
    # the two admissible leading angle coefficients differ by a factor two;
    # the alternative convention leaves a standing average defect in the
    # angle direction which is reported, not hidden
    fd = shear_example()
    closed, _ = solve_helicoure(fd, 6, theta_leading="closed_form")
    assert abs(closed.tail_coeff_avg(0, 1) - 3.0) < 1e-14
    defect = closed.diagnostics["theta_leading_defect"]
    assert abs(defect[0] + 1.5) < 1e-14


def rich_shear(cut=12):
    om = np.sqrt(2) - 1

    def series(avg, c1=0.0, s1=0.0, c2=0.0):
        f = FourierSeries.zero(1, cut) + avg
        if c1 or s1:
            f = f + FourierSeries.from_modes({(1,): 0.5 * (c1 - 1j * s1)}, 1, cut)
        if c2:
            f = f + FourierSeries.from_modes({(2,): 0.5 * c2}, 1, cut)
        return f

    return TaylorFourierMap(
        "field", 1, 0, cut, (om,),
        {(0, 1): series(2.0, 0.3, -0.2)},
        {(1, 1): series(-1.0, 0.25, 0.1, 0.05),
         (1, 2): series(0.8, -0.1),
         (2, 2): series(-0.5),
         (0, 2): series(0.4, 0.1)},
        [{(0, 1): series(3.0, -0.4), (2, 0): series(0.7, 0.15),
          (0, 2): series(-0.3, 0.0, 0.2), (1, 1): series(0.1, 0.05),
          (3, 0): series(-0.2)}])


def test_rich_shear_slopes_both_conventions():
    fd = rich_shear()
    expected = {"x": 8, "y": 9, "theta_0": 8}
    for mode in ("cohomological", "closed_form"):
        pair, residual = solve_helicoure(fd, 6, theta_leading=mode)
        rep = residual_report(pair, residual, u_lo=1e-4, u_hi=1e-3)
        for comp in rep.components:
            want = expected[comp["name"]]
            assert comp["slope"] is None or abs(comp["slope"] - want) < 0.2
            if mode == "closed_form" and comp["name"] == "theta_0":
                # the standing order-2 average defect, |Y2 * (w_alt - w_used)|
                assert abs(comp["annihilated_max"] - 1.45) < 1e-10
            else:
                assert comp["annihilated_max"] < 1e-9


def test_rich_shear_standing_defect_identity():
    fd = rich_shear()
    pair, (gx, gy, gt) = solve_helicoure(fd, 6, theta_leading="closed_form")
    resid2 = gt[0].coefficient(2).average()
    want = pair.inner.coeff(2) * pair.diagnostics["theta_leading_defect"][0]
    assert abs(resid2 - want) < 1e-12
    # only the average stands; the oscillatory part is solved
    assert gt[0].coefficient(2).oscillatory().coeff_norm() < 1e-10 * pair.size()


def test_shear_unstable_branch_against_original():
    fd = rich_shear()
    pair, (gx, gy, gt) = solve_helicoure(fd, 6, branch="unstable",
                                         theta_leading="cohomological")
    assert pair.inner.coeff(2) > 0
    assert worst_below((gx, gy, gt[0]), (8, 9, 8)) < 1e-9 * pair.size()


def test_simple_shear_unstable_branch():
    fd = shear_example()
    pair, (gx, gy, gt) = solve_helicoure(fd, 6, branch="unstable",
                                         theta_leading="cohomological")
    assert abs(pair.inner.coeff(2) - 0.5) < 1e-14
    assert worst_below((gx, gy, gt[0]), (8, 9, 8)) < 1e-11


def test_shear_structure_rejections():
    bad_y = TaylorFourierMap("field", 1, 0, 4, (GOLDEN,),
                             {(0, 1): 2.0}, {(2, 0): -1.0}, [{(0, 1): 3.0}])
    with pytest.raises(StructureViolation):
        validate_shear_field(bad_y)
    zero_mean = TaylorFourierMap("field", 1, 0, 4, (GOLDEN,),
                                 {(0, 1): 2.0},
                                 {(1, 1): one_mode(0.0, 1.0, 1, 4)},
                                 [{(0, 1): 3.0}])
    with pytest.raises(ZeroLeadingCoefficient):
        solve_helicoure(zero_mean, 3)
    neg_shear = TaylorFourierMap("field", 1, 0, 4, (GOLDEN,),
                                 {(0, 1): -2.0}, {(1, 1): -1.0},
                                 [{(0, 1): 3.0}])
    with pytest.raises(NonPositiveLeadingCoefficient):
        solve_helicoure(neg_shear, 3)


def test_power_class_flow_solve_refuses_a_map():
    with pytest.raises(StructureViolation, match="takes a vector field") \
            as err:
        solve_flow_to_order(reference_map(cut=4), 3)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("n_target", [1, 0, -3])
def test_shear_entry_points_refuse_orders_below_two(n_target):
    # the shear class needs the same order floor as solve_to_order: the
    # seed alone is an order-1 pair that no caller asked for
    with pytest.raises(ConfigError, match="n_target"):
        solve_helicoure(shear_example(), n_target)
    with pytest.raises(ConfigError, match="n_target"):
        hecu_manifolds(HeCuParams(1.0, 1.0, 1.0, 2.0), n_target)


def test_shear_positive_mean_swaps_natural_branch():
    # mean vertical coefficient > 0: the direct construction now yields the
    # expanding branch and the contracting one comes from conjugation
    fd = TaylorFourierMap("field", 1, 0, 4, (GOLDEN,),
                          {(0, 1): 2.0}, {(1, 1): 1.0}, [{(0, 1): 3.0}])
    unstable, _ = solve_helicoure(fd, 4, branch="unstable",
                               theta_leading="cohomological")
    stable, (gx, gy, gt) = solve_helicoure(fd, 4, branch="stable",
                             theta_leading="cohomological")
    assert abs(unstable.inner.coeff(2) - 0.5) < 1e-14
    assert abs(stable.inner.coeff(2) + 0.5) < 1e-14
    assert "via_conjugation" not in unstable.diagnostics
    assert stable.diagnostics.get("via_conjugation")
    assert worst_below((gx, gy, gt[0]), (6, 7, 6)) < 1e-11
