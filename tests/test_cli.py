"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import json
import math
import os
import runpy
import sys

import pytest

from paratori import cli, ioutil, mapdata
from paratori.applications import HeCuParams, hecu_manifolds
from paratori.cli import main
from paratori.flow_solver import solve_flow_to_order, solve_helicoure
from paratori.fourier import FourierSeries
from paratori.ioutil import canonical_json, pair_from_payload, pair_payload
from paratori.jets import TFJet, UPoly
from paratori.map_solver import solve_to_order
from paratori.mapdata import TaylorFourierMap
from paratori.pairs import ManifoldPair

from conftest import (exact_flow, exact_map, run_cli, run_python,
                      shear_example)

MAP_CONFIG = {
    "problem": "custom-map",
    "n_target": 4,
    "map": {
        "cut": 16,
        "freqs": [0.6180339887498949],
        "d": 1, "k": 2, "p": 1,
        "x_terms": {"0,1": {"const": 1.0, "modes": {"1": [0.05, 0.0]}}},
        "y_terms": {"2,0": {"const": 6.0, "modes": {"1": [0.5, 0.0]}}},
        "theta_terms": [{"1,0": 1.0}],
    },
}

HELI_CONFIG = {
    "problem": "helicoure",
    "n_target": 4,
    "theta_leading": "cohomological",
    "field": {
        "cut": 8,
        "freqs": [0.41421356237309515],
        "d": 1,
        "x_terms": {"0,1": 2.0},
        "y_terms": {"1,1": {"const": -1.0, "modes": {"1": [0.2, 0.0]}},
                    "0,2": 0.1},
        "theta_terms": [{"0,1": 3.0, "2,0": 0.25}],
    },
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_solve_map_artifacts_and_determinism(tmp_path):
    cfg = write_config(tmp_path, MAP_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli(["solve-map", "--config", str(cfg), "--out", str(out)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
    for name in ("pair.json", "residual.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    orders = summary["orders"]["pair"]
    assert orders["achieved"] == 4
    assert orders["contract"] == [6, 7, 5]
    by_name = {c["name"]: c for c in summary["residuals"]["pair"]["components"]}
    assert abs(by_name["x"]["slope"] - 6) < 0.15
    assert abs(by_name["y"]["slope"] - 7) < 0.15
    assert abs(by_name["theta_0"]["slope"] - 5) < 0.15
    pair = pair_from_payload(json.loads((out1 / "pair.json").read_text()))
    assert pair.order == 4 and pair.branch == "stable"


def test_order_and_branch_overrides(tmp_path):
    cfg = write_config(tmp_path, MAP_CONFIG)
    res = run_cli(["solve-map", "--config", str(cfg), "--out",
                   str(tmp_path / "o5"), "--order", "5", "--branch",
                   "unstable"], tmp_path)
    assert res.returncode == 0, res.stderr
    pair = pair_from_payload(
        json.loads((tmp_path / "o5" / "pair.json").read_text()))
    assert pair.order == 5 and pair.branch == "unstable"
    assert pair.inner.coeff(2) > 0


def test_resonant_frequency_exit_code(tmp_path):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    cfg_data["map"]["freqs"] = [0.5]
    cfg = write_config(tmp_path, cfg_data)
    res = run_cli(["solve-map", "--config", str(cfg), "--out",
                   str(tmp_path / "r")], tmp_path)
    assert res.returncode == 4, res.stderr
    err = json.loads(res.stderr)
    assert err["error"] == "SmallDivisorUnderflow"
    assert err["exit_code"] == 4
    # the offending mode is named so the user can adjust the frequency box
    assert err["detail"]["mode"] in ([2], [-2])
    assert err["detail"]["magnitude"] < err["detail"]["floor"]


def test_bad_order_exit_code(tmp_path):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    cfg_data["n_target"] = 1
    cfg = write_config(tmp_path, cfg_data)
    res = run_cli(["solve-map", "--config", str(cfg), "--out",
                   str(tmp_path / "r")], tmp_path)
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stderr)["error"] == "ConfigError"


def test_problem_kind_mismatch(tmp_path):
    cfg = write_config(tmp_path, MAP_CONFIG)
    res = run_cli(["solve-flow", "--config", str(cfg), "--out",
                   str(tmp_path / "r")], tmp_path)
    assert res.returncode == 2, res.stderr


def test_compare_command(tmp_path):
    cfg = write_config(tmp_path, MAP_CONFIG)
    for order, name in ((3, "n3"), (4, "n4")):
        res = run_cli(["solve-map", "--config", str(cfg), "--out",
                       str(tmp_path / name), "--order", str(order)], tmp_path)
        assert res.returncode == 0, res.stderr
    res = run_cli(["compare", str(tmp_path / "n3" / "pair.json"),
                   str(tmp_path / "n4" / "pair.json")], tmp_path)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert not rep["identical"]
    diff = rep["first_differing_order"]
    # raising order 3 -> 4 first touches (n+1, n+k, n+2p-k) = (4, 5, 3)
    assert diff["x"] == 4 and diff["y"] == 5 and diff["theta"][0] == 3
    res = run_cli(["compare", str(tmp_path / "n3" / "pair.json"),
                   str(tmp_path / "n3" / "pair.json")], tmp_path)
    assert json.loads(res.stdout)["identical"]


def test_sweep_writes_indexed_runs(tmp_path):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    cfg_data["sweep"] = [
        {"map": {"y_terms": {"2,0": {"const": 5.0}}}},
        {"map": {"y_terms": {"2,0": {"const": 7.0}}}},
    ]
    cfg = write_config(tmp_path, cfg_data)
    out = tmp_path / "sweep"
    res = run_cli(["solve-map", "--config", str(cfg), "--out", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    index = json.loads((out / "sweep_index.json").read_text())
    assert [e["dir"] for e in index] == ["sweep_000", "sweep_001"]
    inners = []
    for e in index:
        pair = pair_from_payload(
            json.loads((out / e["dir"] / "pair.json").read_text()))
        inners.append(pair.inner.coeff(2))
    # non-decreasing leading coefficient magnitude with the mean forcing
    assert abs(inners[0]) < abs(inners[1])


def test_diagnose_operators(tmp_path):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    cfg_data["n_target"] = 5
    cfg_data["sector"] = {"beta": 1.5707963267948966, "rho": 0.02}
    cfg_data["diagnostics"] = {"mu": 0.5, "iterates": 400, "grid": [10, 8],
                               "probe": {"ball_alpha": 2.0,
                                         "samples": [5, 4, 4], "n_iter": 4}}
    cfg = write_config(tmp_path, cfg_data)
    out = tmp_path / "diag"
    res = run_cli(["diagnose-operators", "--config", str(cfg), "--out",
                   str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    ops = json.loads((out / "operators.json").read_text())
    assert ops["sector_iterates"]["min_slack"] >= 0
    assert ops["sector_iterates"]["iterations"] == 400
    assert 0 < ops["inverse_norm_limit"] < 1
    assert all(f < 1 for f in ops["contraction"]["factors"])


def test_diagnose_rejects_wide_sector(tmp_path):
    # a wide opening, a missing radius and a non-numeric opening
    for i, sector in enumerate([{"beta": 4.0, "rho": 0.02}, {"beta": 1.0},
                                {"beta": "wide", "rho": 0.02}]):
        cfg_data = json.loads(json.dumps(MAP_CONFIG))
        cfg_data["sector"] = sector
        cfg_data["diagnostics"] = {"mu": 0.5, "iterates": 10, "grid": [4, 4]}
        cfg = write_config(tmp_path, cfg_data, "sector_%d.json" % i)
        res = run_cli(["diagnose-operators", "--config", str(cfg), "--out",
                       str(tmp_path / "d")], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == "ConfigError"


def test_helicoure_run_and_convention(tmp_path):
    cfg = write_config(tmp_path, HELI_CONFIG)
    out_c = tmp_path / "cohom"
    res = run_cli(["helicoure", "--config", str(cfg), "--out", str(out_c)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    pair = pair_from_payload(json.loads((out_c / "pair.json").read_text()))
    # cohomological convention with the quadratic angle term:
    # (3 * (-1/4) + 1/4) / (-1/2) = 1
    assert abs(pair.tail_coeff_avg(0, 1) - 1.0) < 1e-12
    cfg_data = json.loads(json.dumps(HELI_CONFIG))
    cfg_data["theta_leading"] = "closed_form"
    cfg2 = write_config(tmp_path, cfg_data, "closed.json")
    out_f = tmp_path / "closed"
    res = run_cli(["helicoure", "--config", str(cfg2), "--out", str(out_f)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    pair = pair_from_payload(json.loads((out_f / "pair.json").read_text()))
    # closed-form convention: 2 * 3 / 2 = 3
    assert abs(pair.tail_coeff_avg(0, 1) - 3.0) < 1e-12


def test_oscillator_run(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "oscillator", "n_target": 4,
        "oscillator": {"c_pot": 1.0, "n_pot": 2, "alpha": 1.0,
                       "nu": [1.4142135623730951],
                       "g": {"const": 1.0, "modes": {"1": [0.15, 0.0]}},
                       "cut": 12},
    })
    out = tmp_path / "osc"
    res = run_cli(["oscillator", "--config", str(cfg), "--out", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    deltas = summary["oracle_deltas"]
    assert deltas["normal_form_lead"] < 1e-12


def test_hecu_run(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "hecu", "n_target": 3,
        "hecu": {"D": 6.35, "alpha_morse": 1.05, "m": 1.0, "h": 12.7},
    })
    out = tmp_path / "wall"
    res = run_cli(["hecu", "--config", str(cfg), "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    for name in ("stable.json", "unstable.json", "hecu_report.json",
                 "residual_stable.csv", "residual_unstable.csv",
                 "summary.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "hecu_report.json").read_text())
    assert max(report["relative_deviations"].values()) <= 1e-10
    assert report["sign_pattern"]["stable_contracts"]


def test_hecu_corrugation_from_config(tmp_path):
    # a {const, modes} corrugation reaches the expanded build from the CLI
    # and gives the Python API's stable pair byte for byte
    g_surface = {"const": 0.2, "modes": {"1": [0.05, 0.0]}}
    cfg = write_config(tmp_path, {
        "problem": "hecu", "n_target": 3, "theta_leading": "cohomological",
        "hecu": {"D": 6.35, "alpha_morse": 1.05, "m": 1.0, "h": 12.7,
                 "g_surface": g_surface, "cut": 8, "expansion": "expanded"},
    })
    out = tmp_path / "wall"
    res = run_cli(["hecu", "--config", str(cfg), "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    g = FourierSeries.from_modes({(1,): 0.05}, 1, 8) + 0.2
    stable, _, _, _ = hecu_manifolds(
        HeCuParams(D=6.35, alpha_morse=1.05, m=1.0, h=12.7, g_surface=g),
        3, "expanded", "cohomological")
    assert (out / "stable.json").read_text() == canonical_json(
        pair_payload(stable))


def test_contract_violation_is_typed_under_optimize(tmp_path):
    # the invariance contract is checked by a typed error, so it still runs
    # (and names where it failed) when python -O strips assert statements
    for name, base, command in (("map", MAP_CONFIG, "solve-map"),
                                ("heli", HELI_CONFIG, "helicoure"),
                                ("hecu", HECU_CONFIG, "hecu")):
        cfg_data = json.loads(json.dumps(base))
        cfg_data["assert_tol"] = 1e-300
        cfg = write_config(tmp_path, cfg_data, "%s.json" % name)
        res = run_cli([command, "--config", str(cfg), "--out",
                       str(tmp_path / name)], tmp_path, python_flags=["-O"])
        assert res.returncode == 5, res.stderr
        err = json.loads(res.stderr)
        assert err["error"] == "ContractViolated"
        assert err["exit_code"] == 5
        detail = err["detail"]
        assert detail["component"] in ("x", "y", "theta_0")
        assert isinstance(detail["order"], int)
        assert detail["defect"] > detail["tol"] > 0


def test_missing_config_is_a_usage_error(tmp_path):
    res = run_cli(["solve-map", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x")], tmp_path)
    assert res.returncode == 2, res.stderr


@pytest.mark.parametrize("args,match", [
    (["solve-map", "--config", "{tmp}/nope.json"], "cannot read"),
    (["solve-map", "--config", "{tmp}/broken.json"], "not valid JSON"),
    (["solve-map", "--out", "{tmp}"], "--config"),
], ids=["config_missing", "config_not_json", "usage"])
def test_unusable_command_line_exits_2(tmp_path, capsys, args, match):
    (tmp_path / "broken.json").write_text('{"problem": ')
    code = main([a.format(tmp=tmp_path) for a in args])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "ConfigError"
    assert match in err["message"]


# malformed configs: each one edits a copy of MAP_CONFIG in place
MALFORMED = [
    ("sd_floor_nan", lambda c: c.update(sd_floor=math.nan)),
    ("assert_tol_inf", lambda c: c.update(assert_tol=math.inf)),
    ("freqs_wrong_length", lambda c: c["map"].update(freqs=[0.6, 0.3])),
    ("mode_outside_box", lambda c: c["map"]["y_terms"]["2,0"]["modes"]
     .update({"17": [0.1, 0.0]})),
    ("cut_negative", lambda c: c["map"].update(cut=-1)),
    ("n_target_not_a_number", lambda c: c.update(n_target="abc")),
    ("k_missing", lambda c: c["map"].pop("k")),
    ("coefficient_nan", lambda c: c["map"]["y_terms"]["2,0"]
     .update(const=math.nan)),
    ("n_target_not_integral", lambda c: c.update(n_target=3.9)),
    ("cut_not_integral", lambda c: c["map"].update(cut=16.5)),
    # a mode box beyond cli.MAX_BOX coefficients, before numpy is asked for it
    ("cut_box_too_large", lambda c: c["map"].update(cut=1e300)),
    ("cut_box_just_too_large", lambda c: c["map"].update(cut=2 ** 15)),
    ("assert_tol_a_string", lambda c: c.update(assert_tol="1e-9")),
    ("theta_leading_unknown", lambda c: c.update(theta_leading="x")),
    ("exponent_key_malformed", lambda c: c["map"]["y_terms"]
     .update({"2;1": 1.0})),
    ("exponent_negative", lambda c: c["map"]["y_terms"].update({"3,-1": 1.0})),
    # two spellings of one exponent or mode: a dict would keep only one
    ("exponent_spelled_twice", lambda c: c["map"]["y_terms"]
     .update({"02,0": 1.0})),
    ("mode_spelled_twice", lambda c: c["map"]["y_terms"]["2,0"]["modes"]
     .update({"+1": [0.1, 0.0]})),
    ("sweep_not_a_list", lambda c: c.update(sweep={"n_target": 3})),
    # finite, but the mode and its mirror overflow once the series is built
    ("coefficient_overflows_its_series", lambda c: c["map"]["y_terms"]["2,0"]
     ["modes"].update({"1": [1e308, 0.0]})),
    # more angle axes than a numpy 1.x array holds, on a box of one mode
    ("axes_too_many", lambda c: c["map"].update(
        d=70, cut=0, freqs=[0.6180339887498949] * 70,
        theta_terms=[{"1,0": 1.0}] * 70)),
    # truncation orders whose angle expansion needs 171!, beyond a float
    ("trunc_too_large", lambda c: c.update(trunc=171)),
    ("n_target_truncation_too_large", lambda c: c.update(n_target=167)),
    # the truncation follows from n_target: a config that names one is
    # refused, however valid the value looks
    ("trunc_given", lambda c: c.update(trunc=12)),
    ("sweep_entry_gives_trunc", lambda c: c.update(sweep=[{}, {"trunc": 12}])),
    # a misspelled key is refused by name, not left to its default
    ("top_level_key_misspelled", lambda c: c.update(sd_flor=1e-3)),
    ("map_key_misspelled", lambda c: c["map"].update(freq=[0.6])),
    ("series_key_misspelled", lambda c: c["map"]["y_terms"]["2,0"]
     .update(mode={"1": [0.1, 0.0]})),
    ("sweep_entry_key_misspelled",
     lambda c: c.update(sweep=[{}, {"assert_tolerance": 1e-3}])),
    # every sweep entry is checked before the first one is solved
    ("sweep_later_entry_malformed",
     lambda c: c.update(sweep=[{}, {"map": {"cut": -1}}])),
    ("sweep_entry_switches_problem",
     lambda c: c.update(sweep=[{}, {"problem": "hecu",
                                    "hecu": {"D": 6.35, "alpha_morse": 1.05,
                                             "m": 1.0, "h": 12.7}}])),
    ("sweep_entry_holds_a_sweep",
     lambda c: c.update(sweep=[{}, {"sweep": []}])),
    # a later entry's structure is checked before the first entry is solved
    ("sweep_later_entry_misses_k",
     lambda c: c.update(sweep=[{}, {"map": {"k": None}}])),
    ("sweep_later_entry_x_part_not_pure_shear",
     lambda c: c.update(sweep=[{}, {"map": {"x_terms": {"1,0": 0.1}}}])),
    # finite data that overflows only inside the solve
    ("data_overflows_in_the_solve", lambda c: c["map"]["y_terms"]
     .update({"3,0": 1e200})),
    ("data_overflows_early_in_the_solve", lambda c: c["map"]["y_terms"]
     .update({"3,0": 1e308})),
]


# a numpy warning on the way to exit 2 fails the case
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit", [e for _, e in MALFORMED],
                         ids=[name for name, _ in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, edit):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    edit(cfg_data)
    cfg = write_config(tmp_path, cfg_data)
    code = main(["solve-map", "--config", str(cfg), "--out",
                 str(tmp_path / "o")])
    stderr = capsys.readouterr().err
    assert code == 2, stderr
    err = json.loads(stderr)
    assert set(err) == {"error", "exit_code", "message", "detail"}
    assert err["exit_code"] == 2
    assert err["error"] in ("ConfigError", "DimensionMismatch",
                            "StructureViolation")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit,block,key", [
    (lambda c: c.update(assert_tolerance=1e-3), "config", "assert_tolerance"),
    (lambda c: c["map"]["x_terms"]["0,1"].update(konst=1.0), "x_terms[0,1]",
     "konst"),
])
def test_unknown_key_is_named(tmp_path, capsys, edit, block, key):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    edit(cfg_data)
    code = main(["solve-map", "--config", str(write_config(tmp_path, cfg_data)),
                 "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "ConfigError"
    assert err["detail"] == {"block": block, "key": key}
    assert repr(key) in err["message"]


@pytest.mark.parametrize("edit,first,second", [
    (lambda c: c["map"]["y_terms"].update({"02,0": 1.0}), "2,0", "02,0"),
    (lambda c: c["map"]["y_terms"]["2,0"]["modes"].update({"+1": [0.1, 0.0]}),
     "1", "+1"),
], ids=["exponent", "mode"])
def test_a_key_spelled_twice_names_both_spellings(tmp_path, capsys, edit,
                                                  first, second):
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    edit(cfg_data)
    code = main(["solve-map", "--config", str(write_config(tmp_path, cfg_data)),
                 "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "ConfigError"
    assert "spelled twice, as %r and %r" % (first, second) in err["message"]


# malformed operator, oscillator and hecu blocks: each edit is caught before
# the solve starts
DIAG_CONFIG = dict(json.loads(json.dumps(MAP_CONFIG)),
                   sector={"beta": 1.5707963267948966, "rho": 0.02},
                   diagnostics={"mu": 0.5, "iterates": 10, "grid": [4, 4],
                                "probe": {"samples": [5, 4, 4], "n_iter": 2}})
OSC_CONFIG = {"problem": "oscillator", "n_target": 4,
              "oscillator": {"c_pot": 1.0, "n_pot": 2, "alpha": 1.0,
                             "nu": [1.4142135623730951], "cut": 12}}
HECU_CONFIG = {"problem": "hecu", "n_target": 3,
               "hecu": {"D": 6.35, "alpha_morse": 1.05, "m": 1.0, "h": 12.7}}

MALFORMED_BLOCKS = [
    ("mu_not_a_number", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["diagnostics"].update(mu="abc")),
    ("iterates_not_a_number", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["diagnostics"].update(iterates="x")),
    ("n_iter_not_a_number", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["diagnostics"]["probe"].update(n_iter="x")),
    ("grid_one_entry", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["diagnostics"].update(grid=[20])),
    ("diagnostics_not_an_object", "diagnose-operators", DIAG_CONFIG,
     lambda c: c.update(diagnostics=[1])),
    ("sector_not_an_object", "diagnose-operators", DIAG_CONFIG,
     lambda c: c.update(sector=[1])),
    ("oscillator_cut_not_a_number", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(cut="x")),
    ("oscillator_nu_not_a_list", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(nu="abc")),
    ("hecu_D_not_a_number", "hecu", HECU_CONFIG,
     lambda c: c["hecu"].update(D="abc")),
    ("hecu_cut_negative", "hecu", HECU_CONFIG,
     lambda c: c["hecu"].update(cut=-1)),
    ("hecu_cut_box_too_large", "hecu", HECU_CONFIG,
     lambda c: c["hecu"].update(cut=1e300)),
    ("oscillator_cut_box_too_large", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(cut=1e300)),
    ("hecu_g_surface_two_axes", "hecu", HECU_CONFIG,
     lambda c: c["hecu"].update(g_surface={"modes": {"1,1": [0.1, 0.0]}})),
    ("hecu_expansion_unknown", "hecu", HECU_CONFIG,
     lambda c: c["hecu"].update(expansion="x")),
    ("diagnose_with_a_sweep", "diagnose-operators", DIAG_CONFIG,
     lambda c: c.update(sweep=[{}])),
    ("field_axes_too_many", "solve-flow", HELI_CONFIG,
     lambda c: c.update(problem="custom-flow",
                        field=dict(c["field"], drive=69, cut=0))),
    ("oscillator_axes_too_many", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(nu=[1.4142135623730951] * 70, cut=0)),
    ("helicoure_n_target_truncation_too_large", "helicoure", HELI_CONFIG,
     lambda c: c.update(n_target=167)),
    ("hecu_key_misspelled", "hecu", HECU_CONFIG,
     lambda c: c["hecu"].update(expansions="expanded")),
    ("oscillator_key_misspelled", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(nu_=[1.0])),
    ("sector_key_misspelled", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["sector"].update(betta=1.0)),
    ("diagnostics_key_misspelled", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["diagnostics"].update(iterate=5)),
    ("probe_key_misspelled", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["diagnostics"]["probe"].update(niter=2)),
    ("field_block_on_a_map_config", "diagnose-operators", DIAG_CONFIG,
     lambda c: c.update(field=c["map"])),
    ("hecu_trunc_too_large", "hecu", HECU_CONFIG,
     lambda c: c.update(trunc=171)),
    ("hecu_n_target_truncation_too_large", "hecu", HECU_CONFIG,
     lambda c: c.update(n_target=167)),
    # the map's own constructor refuses a drive axis (constant coefficients,
    # so that no one-axis mode is refused on the two-axis box first)
    ("map_with_a_drive_axis", "solve-map", MAP_CONFIG,
     lambda c: c["map"].update(drive=1, x_terms={"0,1": 1.0},
                               y_terms={"2,0": 6.0})),
    # an opening of pi/(k - 1) or more
    ("sector_opening_too_wide", "diagnose-operators", DIAG_CONFIG,
     lambda c: c["sector"].update(beta=math.pi)),
]


@pytest.mark.parametrize("command,base,edit",
                         [case[1:] for case in MALFORMED_BLOCKS],
                         ids=[case[0] for case in MALFORMED_BLOCKS])
def test_malformed_block_exits_2_before_the_solve(tmp_path, capsys,
                                                  monkeypatch, command, base,
                                                  edit):
    import paratori.cli as cli

    def no_solve(*args, **kwargs):
        raise RuntimeError("the solve started on a malformed config")

    for name in ("solve_to_order", "solve_flow_to_order", "solve_helicoure",
                 "hecu_manifolds"):
        monkeypatch.setattr(cli, name, no_solve)
    cfg_data = json.loads(json.dumps(base))
    edit(cfg_data)
    cfg = write_config(tmp_path, cfg_data)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    stderr = capsys.readouterr().err
    assert code == 2, stderr
    err = json.loads(stderr)
    assert set(err) == {"error", "exit_code", "message", "detail"}
    assert err["error"] == "ConfigError" and err["exit_code"] == 2


def test_map_modes_on_a_drive_axis_are_refused_as_short(tmp_path, capsys):
    # a drive axis makes the box two-axis, so MAP_CONFIG's one-axis modes
    # are refused before the map's own no-drive refusal is reached
    cfg_data = json.loads(json.dumps(MAP_CONFIG))
    cfg_data["map"]["drive"] = 1
    cfg = write_config(tmp_path, cfg_data)
    code = main(["solve-map", "--config", str(cfg), "--out",
                 str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "ConfigError"
    assert err["message"].endswith(
        "x_terms[0,1]: mode 1 has 1 axes, expected 2")


def test_diagnose_refuses_the_growing_branch(tmp_path, capsys):
    # the unstable branch's normal form grows: the sector check refuses it
    code = main(["diagnose-operators", "--config",
                 str(write_config(tmp_path, DIAG_CONFIG)), "--out",
                 str(tmp_path / "d"), "--branch", "unstable"])
    err = json.loads(capsys.readouterr().err)
    assert code == 3 and err["error"] == "HypothesisViolated"
    assert "negative leading coefficient" in err["message"]
    assert not (tmp_path / "d").exists()


def test_probe_states_its_banach_estimate(tmp_path):
    # operators.json carries lambda / (1 - lambda) times the last update
    # norm, lambda the last factor, marked as an estimate like the note
    cfg = write_config(tmp_path, DIAG_CONFIG)
    assert main(["diagnose-operators", "--config", str(cfg), "--out",
                 str(tmp_path / "d")]) == 0
    ops = json.loads((tmp_path / "d" / "operators.json").read_text())
    con = ops["contraction"]
    lam = con["factors"][-1]
    assert 0 < lam < 1
    est = con["banach_estimate"]
    assert est["distance"] == pytest.approx(
        lam / (1 - lam) * con["update_norms"][-1], rel=1e-15)
    assert "estimate" in est["note"] and "not a certified bound" in est["note"]


FLOW_CONFIG = {"problem": "custom-flow", "n_target": 3,
               "field": dict(MAP_CONFIG["map"], cut=8)}

# runs refused before any output: a helicoure sweep whose second entry
# leaves the shear class, a hecu sweep whose second entry closes the
# channel (h <= D), an oscillator whose data overflows in the solve, a
# diagnose run whose defect overflows only at the truncation, above the
# orders the order steps read (the last step's check reads the full
# residual and refuses it before the probe starts), sweeps whose second
# entry has a leading mean of the wrong sign or zero, and oscillators whose
# mean forcing is negative or zero (alpha 0 leaves no x^2 term at all)
REFUSED_RUNS = [
    ("diagnose_data_overflows_at_the_truncation", "diagnose-operators",
     DIAG_CONFIG, lambda c: c["map"]["y_terms"].update({"3,0": 1e200}),
     "ConfigError"),
    ("helicoure_sweep_pure_x_squared", "helicoure", HELI_CONFIG,
     lambda c: c.update(sweep=[{}, {"field": {"y_terms": {"2,0": 1.0}}}]),
     "StructureViolation"),
    ("hecu_sweep_energy_below_the_well", "hecu", HECU_CONFIG,
     lambda c: c.update(sweep=[{}, {"hecu": {"h": 6.0}}]),
     "EnergyBelowThreshold"),
    ("oscillator_alpha_overflows", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(alpha=1e308), "ConfigError"),
    ("solve_map_sweep_negative_leading_mean", "solve-map", MAP_CONFIG,
     lambda c: c.update(sweep=[{}, {"map": {"y_terms": {"2,0": -6.0}}}]),
     "NonPositiveLeadingCoefficient"),
    ("solve_map_sweep_zero_shear_mean", "solve-map", MAP_CONFIG,
     lambda c: c.update(sweep=[{}, {"map": {"x_terms": {"0,1": {
         "const": 0.0}}}}]),
     "ZeroLeadingCoefficient"),
    ("helicoure_sweep_negative_shear_mean", "helicoure", HELI_CONFIG,
     lambda c: c.update(sweep=[{}, {"field": {"x_terms": {"0,1": -2.0}}}]),
     "NonPositiveLeadingCoefficient"),
    ("solve_flow_sweep_negative_leading_mean", "solve-flow", FLOW_CONFIG,
     lambda c: c.update(sweep=[{}, {"field": {"y_terms": {"2,0": -6.0}}}]),
     "NonPositiveLeadingCoefficient"),
    ("oscillator_negative_mean_forcing", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(
         g={"const": -0.2, "modes": {"1": [0.25, 0.0]}}),
     "NonPositiveLeadingCoefficient"),
    ("oscillator_zero_mean_forcing", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(
         g={"const": 0.0, "modes": {"1": [0.25, 0.0]}}),
     "ZeroLeadingCoefficient"),
    ("oscillator_alpha_zero", "oscillator", OSC_CONFIG,
     lambda c: c["oscillator"].update(alpha=0.0), "StructureViolation"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,base,edit,error",
                         [case[1:] for case in REFUSED_RUNS],
                         ids=[case[0] for case in REFUSED_RUNS])
def test_refused_run_writes_nothing(tmp_path, capsys, command, base, edit,
                                    error):
    cfg_data = json.loads(json.dumps(base))
    edit(cfg_data)
    cfg = write_config(tmp_path, cfg_data)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and code == err["exit_code"], err
    assert not (tmp_path / "o").exists()


@pytest.fixture
def class_checks(monkeypatch):
    """The names of the class checks run, in order: both checks are counted
    wherever the package binds them."""
    calls = []
    reduced = TaylorFourierMap.validate_reduced
    shear = mapdata.validate_shear_field

    def validate_reduced(self):
        calls.append("validate_reduced")
        return reduced(self)

    def validate_shear_field(fd):
        calls.append("validate_shear_field")
        return shear(fd)

    monkeypatch.setattr(TaylorFourierMap, "validate_reduced", validate_reduced)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "paratori"
                and vars(module).get("validate_shear_field") is shear):
            monkeypatch.setattr(module, "validate_shear_field",
                                validate_shear_field)
    return calls


def test_each_solve_checks_its_class_once(class_checks):
    for solve, data, check in (
            (solve_to_order, exact_map(), "validate_reduced"),
            (solve_flow_to_order, exact_flow(), "validate_reduced")):
        solve(data, 3)
        assert class_checks == [check]
        del class_checks[:]
    # the natural branch directly, the other through the flipped field
    for branch in ("stable", "unstable"):
        solve_helicoure(shear_example(), 3, branch)
        assert class_checks == ["validate_shear_field"]
        del class_checks[:]


@pytest.mark.parametrize("command,base,check", [
    ("solve-map", MAP_CONFIG, "validate_reduced"),
    ("oscillator", OSC_CONFIG, "validate_reduced"),
    ("helicoure", HELI_CONFIG, "validate_shear_field"),
    ("hecu", HECU_CONFIG, "validate_shear_field")],
    ids=["solve-map", "oscillator", "helicoure", "hecu"])
def test_a_run_checks_its_class_twice(tmp_path, class_checks, command, base,
                                      check):
    # solve-map, oscillator and helicoure: the config, then the solve; hecu
    # builds its field in the solve, whose two branches check it once each
    cfg = write_config(tmp_path, base)
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 0
    assert class_checks == [check, check]


@pytest.fixture(scope="module")
def order_3_and_4_pairs(tmp_path_factory):
    work = tmp_path_factory.mktemp("pairs")
    cfg = write_config(work, MAP_CONFIG)
    paths = []
    for order in ("3", "4"):
        code = main(["solve-map", "--config", str(cfg), "--out",
                     str(work / order), "--order", order])
        assert code == 0
        paths.append(str(work / order / "pair.json"))
    return paths


# bad compare input: a --tol value, or an edit of the saved order-3 pair
MALFORMED_COMPARE = [
    ("tol_nan", "nan", None),
    ("tol_infinite", "inf", None),
    ("tol_negative", "-1", None),
    ("tol_zero", "0", None),
    ("cut_null", "1e-11", lambda c: c.update(cut=None)),
    ("order_infinite", "1e-11", lambda c: c.update(order=math.inf)),
    ("inner_a_list", "1e-11", lambda c: c.update(inner=[])),
    ("mode_null", "1e-11",
     lambda c: c["x"]["2"]["modes"][0].__setitem__(0, None)),
    ("mode_outside_box", "1e-11",
     lambda c: c["x"]["2"]["modes"][0].__setitem__(0, [99])),
    # the payload is a half spectrum: a mirror mode would be added twice
    ("mode_and_its_mirror", "1e-11",
     lambda c: c["x"]["3"]["modes"].append([[-1], 0.0, 0.0])),
    ("mode_listed_twice", "1e-11",
     lambda c: c["x"]["3"]["modes"].append(list(c["x"]["3"]["modes"][0]))),
    ("mode_not_integer", "1e-11",
     lambda c: c["x"]["2"]["modes"][0].__setitem__(0, [1.5])),
    # a NaN passes every `> tol` test, so it must not get as far
    ("coefficient_nan", "1e-11",
     lambda c: c["y"][max(c["y"], key=int)]["modes"][-1]
     .__setitem__(1, math.nan)),
    ("inner_nan", "1e-11", lambda c: c["inner"].update({"3": math.nan})),
]


@pytest.mark.parametrize("tol,edit", [case[1:] for case in MALFORMED_COMPARE],
                         ids=[case[0] for case in MALFORMED_COMPARE])
def test_compare_rejects_bad_input(tmp_path, capsys, order_3_and_4_pairs,
                                   tol, edit):
    a, b = order_3_and_4_pairs
    if edit is not None:
        with open(a) as fh:
            payload = json.load(fh)
        edit(payload)
        a = str(write_config(tmp_path, payload, "pair.json"))
    code = main(["compare", a, b, "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    assert json.loads(captured.err)["error"] == "ConfigError"


REFERENCE_PAIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench",
    "reference", "map-ref.pair.json")


def test_the_reference_pair_is_identical_to_itself(capsys):
    assert main(["compare", REFERENCE_PAIR, REFERENCE_PAIR]) == 0
    assert json.loads(capsys.readouterr().out)["identical"] is True


def test_the_module_run_as_a_script_exits_with_mains_status(capsys,
                                                           monkeypatch):
    # python -m paratori.cli, in this process: runpy warns that the module
    # is imported already, then runs it again as __main__
    monkeypatch.setattr(sys, "argv", ["paratori", "compare", REFERENCE_PAIR,
                                      REFERENCE_PAIR])
    with pytest.warns(RuntimeWarning, match="paratori.cli"), \
            pytest.raises(SystemExit) as exit_:
        runpy.run_module("paratori.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert json.loads(capsys.readouterr().out)["identical"] is True


# order keys outside 0..trunc (12 in the reference pair), each added to a
# copy of the reference pair: (component, order, value)
BAD_ORDERS = [
    ("x", "17", lambda p: p["x"]["2"]),
    ("inner", "-1", lambda p: 0.5),
    ("inner", "15", lambda p: 0.5),
    ("x", "-1", lambda p: p["x"]["2"]),
    ("x", "02", lambda p: p["x"]["2"]),
]


@pytest.mark.parametrize("component,order,value", BAD_ORDERS,
                         ids=["x_above_trunc", "inner_negative",
                              "inner_above_trunc", "x_negative",
                              "x_leading_zero"])
def test_compare_refuses_an_order_outside_the_truncation(
        tmp_path, capsys, component, order, value):
    with open(REFERENCE_PAIR) as fh:
        payload = json.load(fh)
    payload[component][order] = value(payload)
    edited = str(write_config(tmp_path, payload, "edited.json"))
    code = main(["compare", edited, REFERENCE_PAIR])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert err["detail"] == {"component": component, "order": order}
    assert err["message"].startswith(edited + ": ")


# header edits of the reference pair (trunc 12) that compare refuses before
# it reads an order key: a truncation above ioutil.MAX_TRUNC or not an
# integer, an order outside 0..trunc, a k or p that is not an integer, a
# kind, family or branch of another name, and frequencies for three axes
# of a map on one
BAD_HEADERS = [
    ("trunc", 171, "expected at most 170"),
    ("trunc", "12", "expected a finite number"),
    ("trunc", 12.5, "expected an integer"),
    ("order", 13, "expected at most trunc 12"),
    ("order", -3, "expected at least 0"),
    ("k", 2.5, "expected an integer"),
    ("p", "1", "expected a finite number"),
    ("kind", "banana", "expected 'map' or 'field', got 'banana'"),
    ("family", "nope", "expected 'power' or 'shear', got 'nope'"),
    ("branch", "sideways", "expected 'stable' or 'unstable', got 'sideways'"),
    ("freqs", [0.6, 0.3, 0.1], "expected 1 for a map, got 3"),
]


@pytest.mark.parametrize("key,value,match", BAD_HEADERS,
                         ids=["trunc_above_max", "trunc_a_string",
                              "trunc_a_fraction", "order_above_trunc",
                              "order_negative", "k_a_fraction", "p_a_string",
                              "kind_unknown", "family_unknown",
                              "branch_unknown", "freqs_too_many"])
def test_compare_refuses_a_bad_truncation_or_order(tmp_path, capsys,
                                                   monkeypatch, key, value,
                                                   match):
    def no_jet(*args):
        raise AssertionError("a jet was built")

    with open(REFERENCE_PAIR) as fh:
        payload = json.load(fh)
    payload[key] = value
    edited = str(write_config(tmp_path, payload, "edited.json"))
    monkeypatch.setattr(ioutil, "jet_from_payload", no_jet)
    code = main(["compare", edited, REFERENCE_PAIR])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("%s: %s: " % (edited, key))
    assert match in err["message"]


def _reference_pair_text():
    with open(REFERENCE_PAIR) as fh:
        return fh.read()


@pytest.mark.parametrize("command,text,key", [
    # a config whose y_terms names one exponent twice, literally
    ("solve-map", lambda: json.dumps(MAP_CONFIG).replace(
        '"y_terms": {', '"y_terms": {"2,0": 7.0, '), "2,0"),
    # the reference pair with an order key of inner written twice
    ("compare", lambda: _reference_pair_text().replace(
        '"inner":{', '"inner":{"2":-2,'), "2"),
], ids=["config", "pair_file"])
def test_a_key_written_twice_is_refused(tmp_path, capsys, command, text, key):
    # json.load alone would keep the later of the two values and run on
    path = tmp_path / "input.json"
    path.write_text(text())
    argv = {"solve-map": ["solve-map", "--config", str(path), "--out",
                          str(tmp_path / "o")],
            "compare": ["compare", str(path), REFERENCE_PAIR]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, captured.out
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert err["message"] == "%s: key %r written twice" % (path, key)
    assert err["detail"] == {"key": key}
    assert not (tmp_path / "o").exists()


def test_compare_refuses_a_mode_with_too_few_indices(tmp_path, capsys):
    # a one-index mode names no coefficient of a series on two angles
    jet = TFJet(2, 1, 3, {1: 1.0})
    pair = ManifoldPair("field", "power", "stable", 1, 3, 2, 2, 1, (0.6, 1.4),
                        1, 1, jet, jet.copy(), [jet.copy()],
                        UPoly({2: -1.0}, 3))
    payload = pair_payload(pair)
    b = write_config(tmp_path, payload, "b.json")
    payload["x"]["1"]["modes"] = [[[1], 1.0, 0.0]]
    a = write_config(tmp_path, payload, "a.json")
    code = main(["compare", str(a), str(b)])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    assert json.loads(captured.err)["error"] == "ConfigError"


# autonomous runs: with no angle axes every series is the one-coefficient box
AUTONOMOUS = [
    ("oscillator", {"problem": "oscillator", "n_target": 6,
                    "oscillator": {"c_pot": 1.0, "n_pot": 2, "alpha": 6.0,
                                   "nu": [], "g": 1.0, "cut": 4}}),
    ("solve-map", {"problem": "custom-map", "n_target": 6,
                   "map": {"cut": 4, "freqs": [], "d": 0, "k": 2,
                           "x_terms": {"0,1": 1.0},
                           "y_terms": {"2,0": 6.0, "3,0": 0.5, "1,1": 0.25},
                           "theta_terms": []}}),
]


@pytest.mark.parametrize("command,config", AUTONOMOUS,
                         ids=[command for command, _ in AUTONOMOUS])
def test_autonomous_run_on_both_branches(tmp_path, command, config):
    branches = ["stable", "unstable"]
    cfg = write_config(tmp_path, dict(config, sweep=[{"branch": b}
                                                     for b in branches]))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    for i, branch in enumerate(branches):
        entry = "sweep_%03d" % i
        summary = json.loads((runs[0] / entry / "summary.json").read_text())
        assert summary["branch"] == branch
        pair = json.loads((runs[0] / entry / "pair.json").read_text())
        assert pair["d"] == pair["drive"] == 0
        assert all(s["dim"] == 0 for s in pair["y"].values())
        for comp in summary["residuals"]["pair"]["components"]:
            assert comp["exact"] or (comp["slope"]
                                     > comp["expected_order"] - 0.25), comp
            assert comp["annihilated_max"] <= 1e-9 * comp["scale"], comp
        for name in ("pair.json", "residual.csv", "summary.json"):
            assert ((runs[0] / entry / name).read_bytes()
                    == (runs[1] / entry / name).read_bytes())


# every run, then one trajectory integral, in one process where any import
# of SciPy fails
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from paratori.cli import main
from paratori.jets import UPoly
from paratori.operators import flow_inverse
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
print(flow_inverse(lambda u, th: u ** 3, UPoly({2: -1.0}, 12), (), 0.03,
                   None, eta_order=3, mu=0.5))
"""


def test_no_command_loads_scipy(tmp_path):
    # the solves, the map diagnosis with its contraction probe, and the
    # trajectory integrals all run on numpy alone
    runs = [[command, "--config", str(write_config(tmp_path, config,
                                                   command + ".json")),
             "--out", str(tmp_path / command)]
            for command, config in [("solve-map", MAP_CONFIG),
                                    ("solve-flow", FLOW_CONFIG),
                                    ("hecu", HECU_CONFIG),
                                    ("diagnose-operators", DIAG_CONFIG)]]
    res = run_python(["-c", _WITHOUT_SCIPY, json.dumps(runs)])
    assert res.returncode == 0, res.stderr
    codes, value = res.stdout.splitlines()
    assert json.loads(codes) == [0, 0, 0, 0]
    # int_0^inf (u0 / (1 + s u0))^3 ds = u0^2 / 2
    assert abs(float(value) + 0.03 ** 2 / 2) < 1e-10
