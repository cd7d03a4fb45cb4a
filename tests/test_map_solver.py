"""Order-by-order construction of invariant-manifold pairs for reduced maps."""

import numpy as np
import pytest

from paratori.errors import (ConfigError, ContractViolated,
                             NonPositiveLeadingCoefficient, SingularSystem,
                             SmallDivisorUnderflow, TruncationTooLow)
import paratori.flow_solver as flow_solver
import paratori.map_solver as map_solver
from paratori.flow_solver import solve_flow_to_order, solve_helicoure
from paratori.map_solver import (extend_order, init_order2, power_seed,
                                 solve_to_order)
from paratori.ioutil import canonical_json, pair_payload
from paratori.fourier import FourierSeries, angle_grid
from paratori.jets import JetStack, TFJet, UPoly
from paratori.mapdata import TaylorFourierMap
from paratori.pairs import (compare_pairs, named_components, residual_jets,
                            residual_report)

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


def test_exact_fixture_is_polynomial(solved_exact_map):
    mp = exact_map()
    pair = solved_exact_map
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


def power_k3_map():
    """k = 3, p = 2 map with one angle: its averaged system has a tail row
    with a nonzero coefficient on the new x average."""
    return TaylorFourierMap(
        "map", 1, 0, 6, (GOLDEN,),
        {(0, 1): one_mode(1.0, 0.05, 1, 6)},
        {(3, 0): one_mode(4.0, 0.3, 1, 6), (2, 1): 0.5},
        [{(2, 0): one_mode(1.0, 0.1, 1, 6), (1, 1): 0.2}], k=3, p=2)


def helicoure_field():
    """Shear-class field with an oscillating b and a quadratic angle term;
    mean(b) < 0, so its natural branch is the stable one."""
    return TaylorFourierMap(
        "field", 1, 0, 8, (np.sqrt(2) - 1,),
        {(0, 1): 2.0},
        {(1, 1): one_mode(-1.0, 0.2, 1, 8), (0, 2): 0.1},
        [{(0, 1): 3.0, (2, 0): 0.25}])


@pytest.mark.parametrize("solve, resonant, landing", [
    (lambda request: request.getfixturevalue("solved_exact_map"), 2, 3),
    (lambda request: solve_to_order(power_k3_map(), 5)[0], 3, 5),
    (lambda request: solve_helicoure(helicoure_field(), 4)[0], 2, 3),
], ids=["exact_map", "power_k3_p2", "shear"])
def test_degenerate_step_solves_cleanly(request, solve, resonant, landing):
    # at the resonant order the 2x2 block is singular; it must carry a
    # vanishing determinant and meet its y row with xi = 0, and its
    # correction is the inner coefficient it lands on (2k - 1 in the power
    # class, 3 in the shear class)
    pair = solve(request)
    diag = pair.diagnostics["degenerate_step"]
    assert diag["order"] == resonant
    assert abs(diag["det"]) <= 1e-14 * diag["det_scale"]
    assert diag["solvability_defect"] <= 1e-12
    assert diag["normal_form_coeff"] == pair.inner.coeff(landing)


def test_singular_step_away_from_resonance():
    # the 2x2 block of the power class at order n has determinant
    # (n+1)(n+k) r_k^2 - k mean(a) mean(c); with r_k moved onto its zero at
    # n = 3 != k the step is refused
    mp = exact_map()
    pair, residual = init_order2(mp, power_seed(mp, "stable"), 4)
    residual = extend_order(mp, pair, residual)
    n = pair.order
    abar = mp.y_terms.coefficient((mp.k, 0)).average()
    r_k = -np.sqrt(mp.k * abar * mp.shear().average() / ((n + 1) * (n + mp.k)))
    pair.inner = UPoly({1: 1.0, mp.k: r_k}, pair.inner.trunc)
    with pytest.raises(SingularSystem) as err:
        extend_order(mp, pair, residual)
    assert err.value.exit_code == 2
    assert "power step 3" in str(err.value)


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
        pair, _ = init_order2(mp, power_seed(mp, "stable"))
        r_k = -np.sqrt(cbar * abar / (2 * (k + 1)))
        assert abs(pair.inner.coeff(k) - r_k) < 1e-12 * abs(r_k)
        eta = 2 * r_k / cbar
        assert abs(pair.y_coeff_avg(k + 1) - eta) < 1e-12 * abs(eta)
        lead_w = 2 * p - k + 1
        w = dbar / (lead_w * r_k)
        assert abs(pair.tails[0].coefficient(lead_w).average() - w) < 1e-12 * abs(w)


def test_reference_map_orders_and_slopes(solved_reference):
    mp, pair, _, history = solved_reference
    assert pair.order == 8
    assert history[0].order == 2 and history[-1].order == 8
    four = history[2]
    assert four.order == 4
    rep = residual_report(four, residual_jets(mp, four))
    by_name = {c["name"]: c for c in rep.components}
    assert abs(by_name["x"]["slope"] - 6) < 0.15
    assert abs(by_name["y"]["slope"] - 7) < 0.15
    assert abs(by_name["theta_0"]["slope"] - 5) < 0.15
    for c in rep.components:
        assert c["annihilated_max"] < 1e-9 * four.size()


def banded(jet, band):
    """A 1-D jet with every coefficient cut to the modes |k| <= band."""
    keep = np.abs(np.arange(-jet.cut, jet.cut + 1)) <= band
    return TFJet(jet.dim, jet.cut, jet.trunc,
                 {n: FourierSeries(s.coeffs * keep) for n, s in jet.terms.items()})


@pytest.mark.parametrize("case", ["map-ref", "mixed-bands", "flow-2torus"])
def test_one_stack_report_is_each_tails_own_stack(solved_reference, case):
    # residual_report evaluates the 2 + d tails in one JetStack; each
    # component's sups are bit for bit those of a stack of its tail alone:
    # on the cut-32 reference map, whose tails fill the box, on its residual
    # cut to tails of bands 1, 5 and 32, and on a 2-D box
    if case == "flow-2torus":
        pair, residual = solve_flow_to_order(reference_flow(), 6)
    else:
        _, pair, residual, _ = solved_reference
    if case == "mixed-bands":
        (gx, gy, (gt,)) = residual
        residual = (banded(gx, 1), banded(gy, 5), [banded(gt, 32)])
    rep = residual_report(pair, residual)
    mesh = angle_grid(pair.dim, np.arange(24) / 24)
    named = named_components(residual, pair.contract_orders())
    bands = []
    for comp, (name, jet, order) in zip(rep.components, named):
        alone = JetStack([jet.tail(order)])
        vals = alone.eval_grid(rep.u_values, mesh)[0]
        sups = np.max(np.abs(vals.reshape(rep.u_values.size, -1)), axis=1)
        assert comp["name"] == name and comp["slope"] is not None
        assert comp["sups"].tobytes() == sups.tobytes()
        bands.append(alone.coeffs.shape[-1] // 2)
    assert bands == {"map-ref": [32] * 3, "mixed-bands": [1, 5, 32],
                     "flow-2torus": [8] * 3}[case]


def test_successive_orders_differ_at_the_right_place(solved_reference):
    _, _, _, history = solved_reference
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
    pair, _ = solve_to_order(mp, 5, branch="unstable")
    assert abs(pair.inner.coeff(2) - 1.0) < 1e-12
    assert residual_below_contract(mp, pair) < 1e-9 * pair.size()


def test_truncation_guard():
    # one guard for both structure classes: a power-class map pair and a
    # shear-class field pair, each stepped past the order it was truncated for
    fd = shear_example()
    cases = [(exact_map(), solve_to_order(exact_map(), 3)),
             (fd, solve_helicoure(fd, 2))]
    for mp, (pair, opening) in cases:
        with pytest.raises(TruncationTooLow):
            while pair.order < 12:
                opening = extend_order(mp, pair, opening)


def top_contract_order(pair):
    """The largest contract order: the cut of an order step's residuals."""
    return max(o for o in pair.contract_orders() if o is not None)


def checked_cut(pair):
    """The cut of the residual a step evaluates for the pair as it stands:
    its largest contract order, or its truncation once that order is one
    below it (the step that reaches n_target expands the full residual)."""
    top = top_contract_order(pair)
    return pair.trunc if top + 1 == pair.trunc else top


def assert_same_below(got, full, top):
    """A residual (gx, gy, gt) cut at ``top`` agrees with the full one in
    every bit of every coefficient up to ``top`` and has no order above."""
    (gx, gy, gt), (fx, fy, ft) = got, full
    assert len(gt) == len(ft)
    for a, b in zip([gx, gy] + list(gt), [fx, fy] + list(ft)):
        assert a.orders() == [n for n in b.orders() if n <= top]
        for n in a.orders():
            assert np.array_equal(a.coefficient(n).coeffs,
                                  b.coefficient(n).coeffs)


def test_cut_residual_is_exact_below_the_cut():
    # a residual cut anywhere from the smallest to the largest contract
    # order is the full residual up to the cut, bit for bit, and stops there;
    # for the reference map and flow and both branches of the shear class
    mp, flow, fd = reference_map(cut=8), reference_flow(cut=4), shear_example()
    cases = [(mp, solve_to_order(mp, 5)), (flow, solve_flow_to_order(flow, 4))]
    cases += [(fd, solve_helicoure(fd, 4, branch=branch))
              for branch in ("stable", "unstable")]
    for data, (pair, _) in cases:
        full = residual_jets(data, pair)
        orders = [o for o in pair.contract_orders() if o is not None]
        assert max(orders) < pair.trunc
        for top in range(min(orders), max(orders) + 1):
            assert_same_below(residual_jets(data, pair, top=top), full, top)


def test_reused_residual_is_exact(monkeypatch):
    # the residual a step opens with (from the seed or the previous step) and
    # the one it returns are exactly a fresh evaluation up to the step's cut
    # (the largest contract order, the truncation at the last step) and hold
    # nothing above it, for the power class (map and flow) and both branches
    # of the shear class
    steps = []
    step = map_solver.extend_order

    def checked_step(data, pair, opening, *args):
        assert_same_below(opening, residual_jets(data, pair),
                          top_contract_order(pair))
        closing = step(data, pair, opening, *args)
        assert_same_below(closing, residual_jets(data, pair), checked_cut(pair))
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
    # at most two residuals per order step, each cut at the pair's largest
    # contract order at the moment of the call, except the last check's,
    # which is the full residual
    calls = []

    def counted(data, pair, top=None):
        calls.append((top, checked_cut(pair)))
        return residual_jets(data, pair, top=top)

    monkeypatch.setattr(map_solver, "residual_jets", counted)
    mp = reference_map(cut=8)
    init_order2(mp, power_seed(mp, "stable"))
    seed = len(calls)
    del calls[:]
    solve_to_order(mp, 8)
    assert len(calls) <= seed + 2 * (8 - 2)
    assert all(top == want for top, want in calls)


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


def test_contract_check_names_a_defect_below_the_contract_orders():
    # moving the solved x jet at order 2 leaves a defect below the contract
    # orders in exact arithmetic too, far above the solve's tolerance
    mp = reference_map(cut=8)
    pair, _ = solve_to_order(mp, 4)
    moved = pair.copy()
    moved.x.add_to_coefficient(2, 1e-3)
    with pytest.raises(ContractViolated) as err:
        map_solver._check_contract(mp, moved, map_solver.ASSERT_TOL)
    assert err.value.exit_code == 5
    assert err.value.detail["order"] < pair.contract_orders()[0]
    assert err.value.detail["defect"] > err.value.detail["tol"]


def test_resonant_frequency_raises():
    mp = reference_map(cut=8)
    mp = TaylorFourierMap("map", 1, 0, 8, (0.5,), mp.x_terms.terms,
                          mp.y_terms.terms, [t.terms for t in mp.theta_terms],
                          k=2, p=1)
    with pytest.raises(SmallDivisorUnderflow) as err:
        solve_to_order(mp, 3)
    # the seed's x-solve at order k + 1 = 3 meets the mode 2 divisor first
    assert err.value.detail["order"] == 3
    assert err.value.detail["component"] == "x"


def test_wrong_sign_leading_coefficient():
    mp = TaylorFourierMap("map", 1, 0, 4, (GOLDEN,),
                          {(0, 1): 1.0}, {(2, 0): -6.0}, [{(1, 0): 1.0}],
                          k=2, p=1)
    with pytest.raises(NonPositiveLeadingCoefficient):
        solve_to_order(mp, 2)


def test_default_trunc_bounds_tail():
    mp = reference_map(cut=8)
    pair, _ = solve_to_order(mp, 4)
    assert pair.trunc == 4 + 2 * 2  # n_target + 2 max(k, p), k = 2, p = 1
    assert pair.x.orders()[-1] <= pair.trunc
    assert pair.y.orders()[-1] <= pair.trunc


def driven_field(p):
    """A power-class field with no dynamic angle, one drive axis and the
    leading drift order ``p`` (ignored without a dynamic angle)."""
    return TaylorFourierMap("field", 0, 1, 4, (GOLDEN,), {(0, 1): 1.0},
                            {(2, 0): one_mode(6.0, 0.5, 1, 4)}, [], k=2, p=p)


@pytest.mark.parametrize("solve, n_target, trunc", [
    # power class with a dynamic angle: n + 2 max(k, p)
    (lambda n: solve_to_order(reference_map(cut=8), n)[0], 5, 9),
    # no dynamic angle: n + 2k, also when the field names p = 3 > k
    (lambda n: solve_flow_to_order(driven_field(3), n)[0], 4, 8),
    # shear class: n + 4
    (lambda n: solve_helicoure(shear_example(), n)[0], 4, 8),
], ids=["power", "power_without_angle", "shear"])
def test_truncation_follows_from_n_target(solve, n_target, trunc):
    # a solve is truncated one above the largest contract order at n_target
    pair = solve(n_target)
    assert pair.order == n_target
    assert pair.trunc == top_contract_order(pair) + 1 == trunc


def test_truncation_ignores_p_without_a_dynamic_angle():
    # with d = 0 the data's p plays no part: the pair solved with p = 3 is
    # the pair solved without p, truncation and coefficients alike
    named, plain = (pair_payload(solve_flow_to_order(driven_field(p), 4)[0])
                    for p in (3, None))
    assert (named.pop("p"), plain.pop("p")) == (3, None)
    assert canonical_json(named) == canonical_json(plain)


@pytest.mark.parametrize("build, n_target", [(exact_map, 5),
                                             (reference_flow, 4)])
def test_solve_history_matches_solve_to_order(build, n_target):
    # the residual-slope tests read per-order pairs from the conftest
    # helper; its final pair and residual must be the entry point's, byte
    # for byte and bit for bit
    data = build()
    pair, residual, history = solve_history(data, n_target)
    assert [p.order for p in history] == list(range(2, n_target + 1))
    direct_pair, direct_residual = solve_to_order(data, n_target)
    direct = canonical_json(pair_payload(direct_pair))
    assert canonical_json(pair_payload(pair)) == direct
    assert canonical_json(pair_payload(history[-1])) == direct
    assert_same_below(residual, direct_residual, pair.trunc)


@pytest.mark.parametrize("solve", [
    lambda: (reference_map(cut=8), solve_to_order(reference_map(cut=8), 5)),
    lambda: (reference_flow(cut=4), solve_flow_to_order(reference_flow(cut=4), 4)),
    lambda: (helicoure_field(), solve_helicoure(helicoure_field(), 4)),
    lambda: (helicoure_field(), solve_helicoure(helicoure_field(), 4,
                                                branch="unstable")),
], ids=["power_map", "power_field", "shear_natural", "shear_conjugated"])
def test_solve_hands_over_the_full_residual(solve):
    # every entry point returns the residual its last step checked, and it
    # is the pair's full residual at every order up to the truncation, bit
    # for bit, so nothing after a solve needs to evaluate it again
    data, (pair, residual) = solve()
    full = residual_jets(data, pair)
    assert max(jet.orders()[-1] for _, jet, _ in named_components(full)) \
        == pair.trunc
    assert_same_below(residual, full, pair.trunc)
