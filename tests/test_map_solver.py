"""Order-by-order construction of invariant-manifold pairs for reduced maps."""

import numpy as np
import pytest

from paratori.errors import (ConfigError, NonPositiveLeadingCoefficient,
                             SmallDivisorUnderflow, TruncationTooLow)
import paratori.flow_solver as flow_solver
import paratori.map_solver as map_solver
from paratori.flow_solver import solve_flow_to_order, solve_helicoure
from paratori.map_solver import (default_trunc, extend_order, init_order2,
                                 solve_to_order)
from paratori.ioutil import canonical_json, pair_payload
from paratori.mapdata import TaylorFourierMap
from paratori.pairs import compare_pairs, residual_jets, residual_report

from conftest import (GOLDEN, exact_map, one_mode, reference_flow,
                      reference_map, shear_example, solve_history)


def residual_below_contract(data, pair):
    """Largest invariance-defect coefficient below the contract orders."""
    gx, gy, gt = residual_jets(data, pair)
    ox, oy, ot = pair.contract_orders()
    worst = 0.0
    for jet, lead in [(gx, ox), (gy, oy)] + [(g, ot) for g in gt]:
        if lead is None:
            continue
        for n in jet.orders():
            if n < lead:
                worst = max(worst, jet.coefficient(n).coeff_norm())
    return worst


def test_exact_fixture_is_polynomial():
    mp = exact_map()
    pair = solve_to_order(mp, 6)
    # closed-form pair: K = (u^2, -2u^3 + u^4, theta - u), inner u - u^2
    assert abs(pair.y_coeff_avg(3) + 2) < 1e-12
    assert abs(pair.y_coeff_avg(4) - 1) < 1e-12
    assert abs(pair.inner.coeff(2) + 1) < 1e-14
    assert abs(pair.inner.coeff(3)) < 1e-14
    assert abs(pair.tail_coeff_avg(0, 1) + 1) < 1e-12
    for n in pair.x.orders():
        if n != 2:
            assert pair.x.coefficient(n).coeff_norm() < 1e-11, n
    for n in pair.y.orders():
        if n not in (3, 4):
            assert pair.y.coefficient(n).coeff_norm() < 1e-11, n
    assert residual_below_contract(mp, pair) < 1e-11


def test_degenerate_step_solves_cleanly():
    # at order n = k the 2x2 block is singular; the solvable bordered system
    # must carry a vanishing determinant and an exact least-squares solution
    mp = exact_map()
    pair = solve_to_order(mp, 6)
    diag = pair.diagnostics["degenerate_step"]
    assert diag["order"] == pair.k
    assert abs(diag["det"]) <= 1e-12 * max(1.0, diag["det_scale"])
    assert diag["lstsq_defect"] <= 1e-12


def test_closed_form_seeds():
    rng = np.random.default_rng(42)
    for k in (2, 3, 4):
        p = 1 if k == 2 else 2
        cbar = float(rng.uniform(0.5, 3.0))
        abar = float(rng.uniform(0.5, 5.0))
        dbar = float(rng.uniform(-2.0, 2.0)) or 1.0
        mp = TaylorFourierMap(
            "map", 1, 0, 4, (GOLDEN,),
            {(0, 1): one_mode(cbar, 0.05, 1, 4)},
            {(k, 0): one_mode(abar, 0.1, 1, 4)},
            [{(p, 0): one_mode(dbar, 0.02, 1, 4)}], k=k, p=p)
        pair, _ = init_order2(mp)
        r_k = -np.sqrt(cbar * abar / (2 * (k + 1)))
        assert abs(pair.inner.coeff(k) - r_k) < 1e-12 * abs(r_k)
        eta = 2 * r_k / cbar
        assert abs(pair.y_coeff_avg(k + 1) - eta) < 1e-12 * abs(eta)
        lead_w = 2 * p - k + 1
        w = dbar / (lead_w * r_k)
        assert abs(pair.tails[0].coefficient(lead_w).average() - w) < 1e-12 * abs(w)


def test_reference_map_orders_and_slopes(solved_reference):
    mp, pair, history = solved_reference
    assert pair.order == 8
    assert history[0].order == 2 and history[-1].order == 8
    four = history[2]
    assert four.order == 4
    rep = residual_report(mp, four)
    by_name = {c["name"]: c for c in rep.components}
    assert abs(by_name["x"]["slope"] - 6) < 0.15
    assert abs(by_name["y"]["slope"] - 7) < 0.15
    assert abs(by_name["theta_0"]["slope"] - 5) < 0.15
    for c in rep.components:
        assert c["annihilated_max"] < 1e-9 * four.size()


def test_successive_orders_differ_at_the_right_place(solved_reference):
    mp, pair, history = solved_reference
    a, b = history[1], history[2]  # orders 3 and 4
    diff = compare_pairs(a, b)
    # raising the order by one may only touch coefficients above
    # (n+1, n+k, n+2p-k) = (4, 5, 3)
    assert diff["x"] is None or diff["x"] >= 4
    assert diff["y"] is None or diff["y"] >= 5
    assert diff["theta"][0] is None or diff["theta"][0] >= 3
    same = compare_pairs(a, a)
    assert all(v is None for v in (same["x"], same["y"], same["inner"]))


def test_unstable_branch_against_original_map():
    mp = reference_map(cut=16)
    pair = solve_to_order(mp, 5, branch="unstable")
    assert abs(pair.inner.coeff(2) - 1.0) < 1e-12
    assert residual_below_contract(mp, pair) < 1e-9 * pair.size()


def test_truncation_guard():
    # one guard for both structure classes: a power-class map pair and a
    # shear-class field pair
    fd = shear_example()
    cases = [(exact_map(), solve_to_order(exact_map(), 3, trunc=7)),
             (fd, solve_helicoure(fd, 2, trunc=6))]
    for mp, pair in cases:
        opening = residual_jets(mp, pair)
        with pytest.raises(TruncationTooLow):
            while pair.order < 12:
                opening = extend_order(mp, pair, opening)


def assert_same_residual(got, fresh):
    """Two residuals (gx, gy, gt) agree in every bit of every coefficient."""
    (gx, gy, gt), (fx, fy, ft) = got, fresh
    assert len(gt) == len(ft)
    for a, b in zip([gx, gy] + list(gt), [fx, fy] + list(ft)):
        assert a.orders() == b.orders()
        for n in a.orders():
            assert np.array_equal(a.coefficient(n).coeffs,
                                  b.coefficient(n).coeffs)


def test_reused_residual_is_exact(monkeypatch):
    # the residual a step opens with (from the seed or the previous step) and
    # the one it returns are exactly a fresh evaluation, for the power class
    # (map and flow) and both branches of the shear class
    steps = []
    step = map_solver.extend_order

    def checked_step(data, pair, opening, *args):
        assert_same_residual(opening, residual_jets(data, pair))
        closing = step(data, pair, opening, *args)
        assert_same_residual(closing, residual_jets(data, pair))
        steps.append(pair.family)
        return closing

    monkeypatch.setattr(map_solver, "extend_order", checked_step)
    monkeypatch.setattr(flow_solver, "extend_order", checked_step)
    solve_to_order(reference_map(cut=8), 5)
    solve_flow_to_order(reference_flow(cut=4), 4)
    for branch in ("stable", "unstable"):
        solve_helicoure(shear_example(), 4, branch=branch)
    assert steps == ["power"] * 5 + ["shear"] * 6


def test_order_step_evaluates_the_residual_twice(monkeypatch):
    calls = []

    def counted(data, pair):
        calls.append(pair.order)
        return residual_jets(data, pair)

    monkeypatch.setattr(map_solver, "residual_jets", counted)
    mp = reference_map(cut=8)
    init_order2(mp)
    seed = len(calls)
    del calls[:]
    solve_to_order(mp, 8)
    assert len(calls) <= seed + 2 * (8 - 2)


def test_bad_arguments_are_config_errors():
    mp = exact_map()
    with pytest.raises(ConfigError):
        solve_to_order(mp, 1)
    with pytest.raises(ConfigError):
        solve_to_order(mp, 2, branch="sideways")
    fd = shear_example()
    with pytest.raises(ConfigError):
        solve_helicoure(fd, 3, branch="sideways")
    with pytest.raises(ConfigError):
        solve_helicoure(fd, 3, theta_leading="sideways")


def test_resonant_frequency_raises():
    mp = reference_map(cut=8)
    mp = TaylorFourierMap("map", 1, 0, 8, (0.5,), mp.x_terms.terms,
                          mp.y_terms.terms, [t.terms for t in mp.theta_terms],
                          k=2, p=1)
    with pytest.raises(SmallDivisorUnderflow):
        solve_to_order(mp, 3)


def test_wrong_sign_leading_coefficient():
    mp = TaylorFourierMap("map", 1, 0, 4, (GOLDEN,),
                          {(0, 1): 1.0}, {(2, 0): -6.0}, [{(1, 0): 1.0}],
                          k=2, p=1)
    with pytest.raises(NonPositiveLeadingCoefficient):
        solve_to_order(mp, 2)


def test_default_trunc_bounds_tail():
    mp = reference_map(cut=8)
    pair = solve_to_order(mp, 4)
    assert pair.trunc == default_trunc(4, 2, 1)
    assert pair.x.orders()[-1] <= pair.trunc
    assert pair.y.orders()[-1] <= pair.trunc


@pytest.mark.parametrize("build, n_target", [(exact_map, 5),
                                             (reference_flow, 4)])
def test_solve_history_matches_solve_to_order(build, n_target):
    # the residual-slope tests read per-order pairs from the conftest
    # helper; its final pair must be the entry point's, byte for byte
    data = build()
    pair, history = solve_history(data, n_target)
    assert [p.order for p in history] == list(range(2, n_target + 1))
    direct = canonical_json(pair_payload(solve_to_order(data, n_target)))
    assert canonical_json(pair_payload(pair)) == direct
    assert canonical_json(pair_payload(history[-1])) == direct
