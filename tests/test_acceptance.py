"""Acceptance suite: the binding end-to-end checks for the package.

Each test pins a complete workflow with explicit tolerances: closed-form
seeds, residual decay orders for the reference map and its flow counterpart,
the degenerate induction step, cohomological solves at a large mode box,
sector confinement, the right-inverse identities, the wall-scattering
constants, order-to-order comparison, the fixed-point contraction probe, and
the command-line error contract.
"""

import json
import time

import numpy as np

from paratori.flow_solver import solve_helicoure
from paratori.fourier import FourierSeries, solve_sd_flow, solve_sd_map
from paratori.jets import UPoly
from paratori.map_solver import init_order2, power_seed
from paratori.mapdata import TaylorFourierMap
from paratori.operators import (Sector, contraction_probe, flow_orbit_integral,
                                orbit_sum_inverse, sector_iterate_check)
from paratori.pairs import compare_pairs, residual_jets, residual_report

from conftest import (GOLDEN, one_mode, reference_flow,
                      reference_map, run_cli, shear_example, solve_history,
                      sup_grid, transfer_difference)


def test_closed_form_seeds_on_random_problems():
    # fifty random leading datasets across the admissible order range; the
    # seeded averages must match their closed forms to 1e-12 relative,
    # within a five-second budget
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    for _ in range(50):
        k = int(rng.choice([2, 3, 4]))
        p_min = (k - 1) // 2 + 1
        p = int(rng.integers(p_min, p_min + 2))
        cbar = float(rng.uniform(0.5, 3.0))
        abar = float(rng.uniform(0.5, 5.0))
        dbar = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        mp = TaylorFourierMap(
            "map", 1, 0, 4, (GOLDEN,),
            {(0, 1): one_mode(cbar, 0.05, 1, 4)},
            {(k, 0): one_mode(abar, 0.1, 1, 4)},
            [{(p, 0): one_mode(dbar, 0.02, 1, 4)}], k=k, p=p)
        pair, _ = init_order2(mp, power_seed(mp, "stable"))
        r_k = -np.sqrt(cbar * abar / (2 * (k + 1)))
        eta = 2 * r_k / cbar
        lead_w = 2 * p - k + 1
        w = dbar / (lead_w * r_k)
        assert abs(pair.inner.coeff(k) - r_k) <= 1e-12 * abs(r_k)
        assert abs(pair.y_coeff_avg(k + 1) - eta) <= 1e-12 * abs(eta)
        assert abs(pair.tails[0].coefficient(lead_w).average()
                   - w) <= 1e-12 * abs(w)
    assert time.perf_counter() - t0 < 5.0


def test_reference_map_residual_orders():
    # solve the reference forced map through order 8 and fit the decay order
    # of each residual component on u in [1e-3, 1e-2]; the exponents must
    # match (n+2, n+3, n+1) within 0.15, all inside a minute
    t0 = time.perf_counter()
    mp = reference_map(cut=32)
    _, _, history = solve_history(mp, 8)
    for pr in history:
        n = pr.order
        rep = residual_report(pr, residual_jets(mp, pr), u_lo=1e-3, u_hi=1e-2)
        expected = {"x": n + 2, "y": n + 3, "theta_0": n + 1}
        for comp in rep.components:
            want = expected[comp["name"]]
            assert comp["slope"] is not None
            assert abs(comp["slope"] - want) <= 0.15, (n, comp)
    assert time.perf_counter() - t0 < 60.0


def test_reference_flow_residual_orders():
    # the same leading data as a vector field with one extra driving phase
    # on a two-torus hull with eight modes per axis
    t0 = time.perf_counter()
    fd = reference_flow(cut=8)
    _, _, history = solve_history(fd, 6)
    for pr in history:
        n = pr.order
        rep = residual_report(pr, residual_jets(fd, pr), u_lo=1e-4, u_hi=1e-3,
                              n_grid=12)
        expected = {"x": n + 2, "y": n + 3, "theta_0": n + 1}
        for comp in rep.components:
            want = expected[comp["name"]]
            assert comp["slope"] is not None
            assert abs(comp["slope"] - want) <= 0.15, (n, comp)
    assert time.perf_counter() - t0 < 120.0


def test_degenerate_step_is_solvable(solved_exact_map, solved_reference):
    # at order n = k the linear block is singular by construction; the
    # recorded determinant must vanish against the row-norm scale and the
    # y row must be met with xi = 0 (the block's solvability condition).
    # The exact map's correction vanishes, so only the reference map, whose
    # correction does not, sees an error in its closed form
    reference = solved_reference[1]
    for pair in (solved_exact_map, reference):
        diag = pair.diagnostics["degenerate_step"]
        assert diag["order"] == pair.k
        assert abs(diag["det"]) <= 1e-12 * max(1.0, diag["det_scale"])
        assert diag["solvability_defect"] <= 1e-12
    assert reference.diagnostics["degenerate_step"]["normal_form_coeff"] != 0.0


def test_cohomological_solves_at_large_mode_box():
    # golden-rotation difference and derivative equations with modes up to
    # 64; reconstruction residual on a 256-point grid below 1e-10 of the
    # data's sup norm
    rng = np.random.default_rng(64)
    h = FourierSeries.zero(1, 64)
    for _ in range(60):
        kk = int(rng.integers(1, 65))
        z = rng.standard_normal() + 1j * rng.standard_normal()
        h = h + FourierSeries.from_modes({(kk,): z}, 1, 64)
    norm = sup_grid(h, 256)
    phi = solve_sd_map(h, (GOLDEN,))
    res = sup_grid(phi.shift(np.array([GOLDEN])) - phi - h, 256)
    assert res <= 1e-10 * norm
    phi = solve_sd_flow(h, (GOLDEN,))
    res = sup_grid(phi.diff(0) * GOLDEN - h, 256)
    assert res <= 1e-10 * norm


def test_sector_confinement():
    # the quadratic model contraction keeps the closed sector invariant:
    # a thousand iterates of a 20 x 20 sample grid never lose slack
    inner = UPoly({1: 1.0, 2: -1.0}, 8)
    sec = Sector(np.pi / 2, 0.05, 2)
    rep = sector_iterate_check(inner, sec, 0.5, 1000, grid_shape=(20, 20))
    assert rep["min_slack"] >= 0.0
    assert rep["iterations"] == 1000


def test_right_inverse_identities():
    # difference operator: applying the transfer difference to the orbit sum
    # returns the data
    R = UPoly({1: 1.0, 2: -1.0}, 12)
    eta = lambda u, th: u ** 5 * (1.0 + 0.3 * np.cos(2 * np.pi * th[0]))
    phi = lambda u, th: orbit_sum_inverse(eta, R, (GOLDEN,), u, th,
                                          eta_order=5, mu=0.5, tail_tol=1e-13)
    u0, th0 = 0.04, np.array([0.2])
    fwd = transfer_difference(phi, R, (GOLDEN,), u0, th0)
    assert abs(fwd - eta(u0, th0)) <= 1e-8
    # flow side: the orbit integral of u^3 along the velocity -u^2 has the
    # closed value u^2/2
    Y = UPoly({2: -1.0}, 12)
    for u0 in (0.05, 0.02, 0.007):
        got = flow_orbit_integral(lambda u, th: u ** 3, Y, (), u0, None,
                                  eta_order=3, mu=0.5, tol=1e-10)
        assert abs(got - u0 ** 2 / 2) <= 1e-8


def test_wall_scattering_constants():
    # physical wall parameters: the four closed-form leading constants to
    # 1e-10 relative, plus the branch sign pattern
    from paratori.applications import HeCuParams, hecu_manifolds
    p = HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=2 * 6.35)
    stable, unstable, report, _ = hecu_manifolds(p, 5)
    assert max(report["relative_deviations"].values()) <= 1e-10
    sp = report["sign_pattern"]
    assert sp["stable_contracts"] and sp["unstable_expands"]
    assert sp["shared_vertical"] <= 1e-12
    assert sp["shared_angular"] <= 1e-12
    assert sp["opposite_normal_form"] <= 1e-12


def test_order_step_changes_only_above_the_floor(solved_reference):
    # raising the invariance order from n to n+1 may only alter
    # coefficients from (n+1, n+k, n+2p-k) upward
    mp, _, _, history = solved_reference
    k, p = mp.k, mp.p
    for a, b in zip(history, history[1:]):
        n = a.order
        if n > 6:
            break
        diff = compare_pairs(a, b)
        assert diff["x"] is None or diff["x"] >= n + 1, (n, diff)
        assert diff["y"] is None or diff["y"] >= n + k, (n, diff)
        for axis_first in diff["theta"]:
            assert axis_first is None or axis_first >= n + 2 * p - k, (n, diff)


def test_fixed_point_iteration_contracts(solved_reference):
    # iterate the correction operator from the zero candidate around the
    # order-8 pair: ten consecutive update ratios below one and a strictly
    # decreasing invariance defect
    mp, pair, residual, _ = solved_reference
    sec = Sector(np.pi / 2, 0.02, 2)
    rep = contraction_probe(mp, pair, residual, sec, mu=0.5, samples=(8, 5, 8),
                            n_iter=12)
    factors = rep["factors"]
    assert len(factors) >= 10
    assert all(f < 1 for f in factors[:10]), factors
    d = rep["defect_norms"]
    assert all(d[i + 1] < d[i] for i in range(8)), d


def test_shear_worked_example():
    # vertical-shear field with mean data (2, -1, 3): leading coefficients
    # -1/4 and -1/2, and angle drift 3 (direct closed form) or 1.5 (from the
    # solvability average)
    fd = shear_example()
    closed, _ = solve_helicoure(fd, 5, theta_leading="closed_form")
    assert abs(closed.y_coeff_avg(2) + 0.25) <= 1e-12
    assert abs(closed.inner.coeff(2) + 0.5) <= 1e-12
    assert abs(closed.tail_coeff_avg(0, 1) - 3.0) <= 1e-12
    cohom, _ = solve_helicoure(fd, 5, theta_leading="cohomological")
    assert abs(cohom.tail_coeff_avg(0, 1) - 1.5) <= 1e-12


def test_cli_reports_resonant_mode(tmp_path):
    # a rational rotation must fail fast with the machine-readable error
    # contract: exit code 4 and the resonant mode named in the payload
    config = {
        "problem": "custom-map",
        "n_target": 3,
        "map": {
            "cut": 8,
            "freqs": [0.5],
            "d": 1, "k": 2, "p": 1,
            "x_terms": {"0,1": 1.0},
            "y_terms": {"2,0": {"const": 6.0, "modes": {"1": [0.5, 0.0]}}},
            "theta_terms": [{"1,0": 1.0}],
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    res = run_cli(["solve-map", "--config", str(cfg), "--out",
                   str(tmp_path / "out")])
    assert res.returncode == 4
    err = json.loads(res.stderr)
    assert err["error"] == "SmallDivisorUnderflow"
    assert err["detail"]["mode"] in ([2], [-2])
