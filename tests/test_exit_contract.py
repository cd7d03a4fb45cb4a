"""Exit-code contract fuzzer: every subcommand, run in process on a mutated
small config (compare: a mutated pair payload), exits 0, 2, 3, 4 or 5, and
a nonzero exit writes exactly the documented JSON object to stderr."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from paratori.cli import MAX_GRID_BYTES, RunConfig, main

GOLDEN = 0.6180339887498949

# small base configs (cut 4, order 3) of the solve subcommands
MAP = {"problem": "custom-map", "n_target": 3, "branch": "stable",
       "sd_floor": 1e-12, "assert_tol": 1e-9,
       "map": {"cut": 4, "freqs": [GOLDEN], "d": 1, "k": 2, "p": 1,
               "x_terms": {"0,1": {"const": 1.0, "modes": {"1": [0.05, 0.0]}}},
               "y_terms": {"2,0": {"const": 6.0, "modes": {"1": [0.5, 0.0]}}},
               "theta_terms": [{"1,0": 1.0}]}}
BASES = {
    "solve-map": dict(MAP, sweep=[{"branch": "unstable"}]),
    "solve-flow": {
        "problem": "custom-flow", "n_target": 3,
        "field": {"cut": 4, "freqs": [GOLDEN, 1.4142135623730951], "d": 1,
                  "drive": 1, "k": 2, "p": 1,
                  "x_terms": {"0,1": 1.0},
                  "y_terms": {"2,0": {"const": 6.0,
                                      "modes": {"1,1": [0.2, 0.0]}}},
                  "theta_terms": [{"1,0": 1.0}]}},
    "helicoure": {
        "problem": "helicoure", "n_target": 3,
        "theta_leading": "cohomological",
        "field": {"cut": 4, "freqs": [0.41421356237309515], "d": 1,
                  "x_terms": {"0,1": 2.0},
                  "y_terms": {"1,1": {"const": -1.0,
                                      "modes": {"1": [0.2, 0.0]}},
                              "0,2": 0.1},
                  "theta_terms": [{"0,1": 3.0, "2,0": 0.25}]}},
    "oscillator": {
        "problem": "oscillator", "n_target": 3,
        "oscillator": {"c_pot": 1.0, "n_pot": 2, "alpha": 1.0,
                       "nu": [1.4142135623730951],
                       "g": {"const": 1.0, "modes": {"1": [0.15, 0.0]}},
                       "cut": 4}},
    "hecu": {
        "problem": "hecu", "n_target": 3, "theta_leading": "closed_form",
        "hecu": {"D": 6.35, "alpha_morse": 1.05, "m": 1.0, "h": 12.7,
                 "g_surface": 0.0, "cut": 4, "expansion": "displayed"}},
    "diagnose-operators": dict(
        MAP, sector={"beta": 1.5707963267948966, "rho": 0.02},
        diagnostics={"mu": 0.5, "iterates": 10, "grid": [4, 4]}),
}

# what replaces a leaf; 1000 stands for any large size (cut, axes, order)
VALUES = [None, True, "x", [], {}, -1, 0, 0.5, 2.5, 1000, math.nan, math.inf,
          -math.inf]


def _paths(node, prefix=()):
    """(path, is_leaf) of every object member and list item below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,), not isinstance(child, (dict, list))
        yield from _paths(child, prefix + (key,))


def mutations(base):
    """Every deletion of an object key and every leaf replacement."""
    out = []
    for path, leaf in _paths(base):
        if isinstance(path[-1], str):
            out.append((path, "delete"))
        if leaf:
            out += [(path, value) for value in VALUES]
    return out


def mutate(base, mutation):
    path, value = mutation
    out = copy.deepcopy(base)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def run(command, payload, work, pair_path):
    """Write the input into ``work`` and run the subcommand on it in
    process; compare gets the input as its first pair.  Returns the exit
    code and stderr."""
    path = os.path.join(work, "input.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    out = os.path.join(work, "out")
    argv = ([command, path, pair_path] if command == "compare"
            else [command, "--config", path]) + ["--out", out]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    """A pair payload of the small map, the base input of compare."""
    work = tmp_path_factory.mktemp("pair")
    code, stderr = run("solve-map", MAP, str(work), None)
    assert code == 0, stderr
    path = work / "out" / "pair.json"
    return str(path), json.loads(path.read_text())


@pytest.mark.parametrize("command", sorted(BASES) + ["compare"])
def test_exit_contract_holds_on_mutated_input(command, saved_pair):
    pair_path, pair = saved_pair
    base = pair if command == "compare" else BASES[command]

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(st.sampled_from(mutations(base)))
    def fuzz(mutation):
        with tempfile.TemporaryDirectory() as work:
            code, stderr = run(command, mutate(base, mutation), work,
                               pair_path)
        assert code in (0, 2, 3, 4, 5), (code, stderr)
        if code:
            payload = json.loads(stderr)
            assert set(payload) == {"error", "exit_code", "message", "detail"}
            assert payload["exit_code"] == code

    fuzz()


def _huge_boxes(pair):
    """Every series payload of a pair payload set to the box of 10^12
    modes either side, with the header's cut."""
    for jet in [pair["x"], pair["y"]] + pair["tails"]:
        for series in jet.values():
            series.update(cut=10 ** 12, modes=[])
    pair["cut"] = 10 ** 12


@pytest.mark.parametrize("edit", [
    # one x coefficient on a box of 2 * 10^12 + 1 modes
    lambda p: p["x"][min(p["x"])].update(cut=10 ** 12, modes=[]),
    # a tail coefficient on a 2-torus in a pair on the 1-torus
    lambda p: p["tails"][0][min(p["tails"][0])].update(dim=2),
    # a header box past cli.MAX_BOX, every series on it
    _huge_boxes,
    # more angle axes than cli.MAX_AXES
    lambda p: p.update(drive=40),
])
def test_compare_refuses_a_huge_series_box_by_file(tmp_path, monkeypatch,
                                                   saved_pair, edit):
    # compare checks the boxes of a pair payload on its numbers and exits 2
    # naming the file, before any series is built
    from paratori.fourier import FourierSeries

    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")

    pair_path, pair = saved_pair
    payload = copy.deepcopy(pair)
    edit(payload)
    monkeypatch.setattr(FourierSeries, "from_payload", no_series)
    code, stderr = run("compare", payload, str(tmp_path), pair_path)
    assert code == 2, stderr
    error = json.loads(stderr)
    assert error["error"] == "ConfigError"
    assert error["message"].startswith(str(tmp_path / "input.json"))


def _set_nan(pair, component):
    """Set the last number of ``component`` of a pair payload to NaN and
    return the detail that names it."""
    if component == "freqs":
        pair["freqs"][-1] = math.nan
        return {"component": "freqs", "index": len(pair["freqs"]) - 1}
    if component == "inner":
        order = max(pair["inner"], key=int)
        pair["inner"][order] = math.nan
        return {"component": "inner", "order": int(order)}
    jet = pair["tails"][0] if component == "tails[0]" else pair[component]
    order = max(jet, key=int)
    entry = jet[order]["modes"][-1]
    entry[2] = math.nan
    return {"component": component, "order": int(order), "mode": entry[0]}


@pytest.mark.parametrize("component", ["x", "y", "tails[0]", "inner", "freqs"])
def test_compare_names_a_non_finite_number_by_file_and_place(
        tmp_path, saved_pair, component):
    # a NaN in a pair payload is refused with exit 2, naming the file, the
    # component, and its index, order or order and mode
    pair_path, pair = saved_pair
    payload = copy.deepcopy(pair)
    detail = _set_nan(payload, component)
    code, stderr = run("compare", payload, str(tmp_path), pair_path)
    assert code == 2, stderr
    error = json.loads(stderr)
    assert error["error"] == "ConfigError"
    assert error["detail"] == detail
    assert error["message"].startswith(str(tmp_path / "input.json"))
    assert "non-finite number in %s" % component in error["message"]


@pytest.mark.parametrize("cut", [{"cut": 4}, {}])
def test_compare_accepts_a_one_mode_pair(tmp_path, cut):
    # an autonomous oscillator's pair sits on the one-mode box: its series
    # have cut 0 whatever the header's cut (4, or the default 16), and
    # compare of the pair with itself reads them
    config = {"problem": "oscillator", "n_target": 3,
              "oscillator": dict({"c_pot": 1.0, "n_pot": 2, "alpha": 6.0,
                                  "g": 1.0, "nu": []}, **cut)}
    code, stderr = run("oscillator", config, str(tmp_path), None)
    assert code == 0, stderr
    pair_path = str(tmp_path / "out" / "pair.json")
    with open(pair_path) as fh:
        pair = json.load(fh)
    assert pair["cut"] == cut.get("cut", 16)
    assert {s["cut"] for s in pair["x"].values()} == {0}
    (tmp_path / "compare").mkdir()
    code, stderr = run("compare", pair, str(tmp_path / "compare"), pair_path)
    assert code == 0, stderr


# cut 4 on the 1-torus: 16 * 9 bytes per probe sample
PROBE_POINTS = MAX_GRID_BYTES // (16 * 9)


@pytest.mark.parametrize("key,edit", [
    ("diagnostics.grid", lambda d: d.update(grid=[10 ** 7, 10 ** 7])),
    # 8192 x 8193 points of 16 bytes: 8192 points past cli.MAX_GRID_BYTES
    ("diagnostics.grid", lambda d: d.update(grid=[8192, 8193])),
    ("diagnostics.probe.samples",
     lambda d: d.update(probe={"samples": [8, 5, 10 ** 7], "n_iter": 1})),
    # one angle past the most the bound allows on a 2 x 2 sector grid
    ("diagnostics.probe.samples",
     lambda d: d.update(probe={"samples": [2, 2, PROBE_POINTS // 4 + 1]})),
])
def test_an_oversized_diagnostics_grid_is_refused_by_name(tmp_path, monkeypatch,
                                                         key, edit):
    # a grid past cli.MAX_GRID_BYTES exits 2 naming its key, before the
    # solve and before any grid is built
    import paratori.cli as cli
    from paratori.operators import Sector

    def no_allocation(*args, **kwargs):
        raise AssertionError("the run went past the config check")

    monkeypatch.setattr(cli, "solve_to_order", no_allocation)
    monkeypatch.setattr(Sector, "grid", no_allocation)
    config = copy.deepcopy(BASES["diagnose-operators"])
    edit(config["diagnostics"])
    code, stderr = run("diagnose-operators", config, str(tmp_path), None)
    assert code == 2, stderr
    payload = json.loads(stderr)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(key + ": a grid of ")


@pytest.mark.parametrize("dim,cut", [(1, 32767), (3, 19), (4, 7)])
def test_default_grids_pass_the_config_check(dim, cut):
    # the default probe samples (8 x 5 x 8^dim) and a 300 x 300 sector grid
    # pass on a dim-torus map at the largest cut cli.MAX_BOX admits
    block = {"cut": cut, "freqs": [math.sqrt(q) for q in (2, 3, 5, 7)][:dim],
             "k": 2, "p": 1, "x_terms": {"0,1": 1.0},
             "y_terms": {"2,0": 6.0},
             "theta_terms": [{"1,0": 1.0}] * dim}
    config = dict(BASES["diagnose-operators"], map=block,
                  diagnostics={"grid": [300, 300], "probe": {}})
    assert RunConfig(config, "diagnose-operators").probe["samples"] == [8, 5, 8]


@pytest.mark.parametrize("key,diagnostics,size,bound,counts", [
    ("diagnostics.iterates", lambda n: {"iterates": n, "grid": [4, 4]}, 16,
     "MAX_GRID_STEPS", [10 ** 12]),
    # the default probe samples, 8 x 5 x 8 on the 1-torus at cut 4, each
    # building 16 * 9 bytes of mode bases a sweep; 2 * 10^8 sweeps pass the
    # sector check's bound but would run for months
    ("diagnostics.probe.n_iter",
     lambda n: {"iterates": 1, "grid": [4, 4], "probe": {"n_iter": n}},
     320 * 16 * 9, "MAX_PROBE_BYTES", [10 ** 12, 200000000]),
])
def test_a_never_ending_diagnostics_run_is_refused_by_name(
        tmp_path, monkeypatch, key, diagnostics, size, bound, counts):
    # iterates x sector grid points past cli.MAX_GRID_STEPS, or sweeps x
    # probe samples x bytes a sample past cli.MAX_PROBE_BYTES, exits 2
    # naming the key, before the solve and before any grid is built: the
    # huge ``counts``, and one step past a bound patched small (one step
    # fewer passes the check)
    import paratori.cli as cli
    from paratori.operators import Sector

    def no_run(*args, **kwargs):
        raise AssertionError("the run went past the config check")

    monkeypatch.setattr(cli, "solve_to_order", no_run)
    monkeypatch.setattr(Sector, "grid", no_run)
    base = BASES["diagnose-operators"]
    runs = [(count, getattr(cli, bound)) for count in counts]
    for count, limit in runs + [(3, 2 * size)]:
        monkeypatch.setattr(cli, bound, limit)
        config = dict(base, diagnostics=diagnostics(count))
        code, stderr = run("diagnose-operators", config, str(tmp_path), None)
        assert code == 2, stderr
        payload = json.loads(stderr)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(key + ": ")
    RunConfig(dict(base, diagnostics=diagnostics(2)), "diagnose-operators")


def test_the_largest_grids_pass_the_config_check():
    config = dict(BASES["diagnose-operators"],
                  diagnostics={"grid": [8192, 8192],
                               "probe": {"samples": [2, 2, PROBE_POINTS // 4]}})
    RunConfig(config, "diagnose-operators")
