"""Write the CLI artifacts of the benchmark workloads, and compare two trees.

Usage: python tools/artifacts.py DIR
       python tools/artifacts.py --compare A B

Runs ``paratori.cli.main`` of this checkout on the config of each benchmark
workload (``perfbench/inputs.make_inputs``) at seeds 0, 1 and 2, and writes
each run's config and artifacts into DIR/<workload>-<seed>/.  It also
runs, at seed 0 on small configs, the CLI problems that no workload runs
(``EXTRA_RUNS``), each into DIR/<name>-0/, so the comparison covers every
path of the algebra: the one-mode box of an autonomous oscillator, an
oscillator with one drive angle, helicoure on both branches (the unstable
one is solved conjugated), hecu with the displayed field, the unstable
branches of solve-map and solve-flow, a map on the 2-torus with both
angles displaced (the one run whose angle expansion differentiates
polynomials of several terms), the contraction probe on that map (the
one probe on two angle axes), and the probe workload's probe on a grid
whose orbit sums reach past the steps that ``operators._Orbit`` keeps.  For
flow-2torus it also writes ``values.json``: the two trajectory values of
the benchmark (``perfbench/tasks.trajectory_values`` on the run's pair, at
the benchmark's tolerance), so the comparison covers the trajectory
integrator too.  The artifacts are deterministic: two runs in fresh
interpreters give trees that ``diff -r`` finds equal, and so do two
checkouts whose arithmetic agrees.

``--compare A B`` prints how many files of two such trees differ in bytes
and how many differ in values: JSON files parsed and compared with ``==``,
CSV files cell by cell, each cell parsed as a JSON number where it is one
(``NaN`` equals ``NaN`` there).  A file present in one tree only differs in
both.  It names every file that differs in values, with the largest
relative difference |a - b| / max(|a|, |b|) among its numbers and where it
occurs: a JSON path such as ``$.residuals.pair.components[1].slope``, or a
CSV cell as its line and column, counted from 1.  A difference in anything
but the value of a number (a string, a key, a length) counts as infinite,
and so does a file in one tree only.  Its last line is the largest of these
moves over all files, with its file and place, or ``none``: the rounding
bound of a refactor in one line.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from inputs import FLOW_INTEGRAL, WORKLOADS, make_inputs  # noqa: E402
from paratori.cli import main  # noqa: E402
from paratori.ioutil import canonical_json, pair_from_payload  # noqa: E402
from tasks import trajectory_values  # noqa: E402

SEEDS = (0, 1, 2)

_OSCILLATOR = {"c_pot": 1.0, "n_pot": 2, "alpha": 6.0, "g": 1.0, "nu": [],
               "cut": 4}
_HELICOURE = {"problem": "helicoure", "n_target": 4,
              "theta_leading": "cohomological",
              "field": {"cut": 8, "freqs": [0.41421356237309515], "d": 1,
                        "x_terms": {"0,1": 2.0},
                        "y_terms": {"1,1": {"const": -1.0,
                                            "modes": {"1": [0.2, 0.0]}},
                                    "0,2": 0.1},
                        "theta_terms": [{"0,1": 3.0, "2,0": 0.25}]}}
_MAP_2TORUS = {
    "problem": "custom-map", "n_target": 5,
    "map": {"cut": 4, "freqs": [0.6180339887498949, 0.41421356237309515],
            "d": 2, "k": 2, "p": 1,
            "x_terms": {"0,1": {"const": 1.0,
                                "modes": {"1,0": [0.05, 0.0]}}},
            "y_terms": {"2,0": {"const": 6.0,
                                "modes": {"1,0": [0.5, 0.0],
                                          "0,1": [0.2, 0.0]}}},
            "theta_terms": [{"1,0": 1.0},
                            {"1,0": {"const": 0.5,
                                     "modes": {"1,1": [0.1, 0.0]}}}]}}
_PROBE = make_inputs("probe", 0)["config"]
# name: (command, config) of each CLI problem that no workload runs
EXTRA_RUNS = {
    "oscillator-dim0": ("oscillator", {"problem": "oscillator", "n_target": 6,
                                       "oscillator": _OSCILLATOR}),
    "oscillator-drive": ("oscillator", {
        "problem": "oscillator", "n_target": 4,
        "oscillator": dict(_OSCILLATOR, alpha=1.0, nu=[1.4142135623730951],
                           g={"const": 1.0, "modes": {"1": [0.15, 0.0]}},
                           cut=12)}),
    "helicoure-stable": ("helicoure", dict(_HELICOURE, branch="stable")),
    "helicoure-unstable": ("helicoure", dict(_HELICOURE, branch="unstable")),
    "hecu-displayed": ("hecu", {"problem": "hecu", "n_target": 3,
                                "hecu": {"D": 6.35, "alpha_morse": 1.05,
                                         "m": 1.0, "h": 12.7,
                                         "expansion": "displayed"}}),
    "map-ref-unstable": ("solve-map", dict(make_inputs("map-ref", 0)["config"],
                                           branch="unstable")),
    "flow-2torus-unstable": ("solve-flow",
                             dict(make_inputs("flow-2torus", 0)["config"],
                                  branch="unstable")),
    "map-2torus": ("solve-map", _MAP_2TORUS),
    "map-2torus-probe": ("diagnose-operators", dict(
        _MAP_2TORUS, sector={"beta": math.pi / 2, "rho": 0.02},
        diagnostics={"mu": 0.5, "probe": {"samples": [4, 3, 4],
                                          "n_iter": 3}})),
    # 400 rows keep 327 orbit steps, and the deepest sweep reaches step 514
    "probe-past-cap": ("diagnose-operators", dict(
        _PROBE, diagnostics=dict(_PROBE["diagnostics"],
                                 probe={"samples": [20, 20, 4],
                                        "n_iter": 3}))),
}


def _run(command, config, target):
    """Write ``config`` into ``target`` and run the command on it there."""
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, sort_keys=True)
    code = main([command, "--config", path, "--out", target])
    if code != 0:
        raise SystemExit("%s exited %d" % (target, code))


def write_artifacts(out_dir):
    for name, (command, config) in EXTRA_RUNS.items():
        _run(command, config, os.path.join(out_dir, "%s-0" % name))
    for workload in WORKLOADS:
        for seed in SEEDS:
            run = make_inputs(workload, seed)
            target = os.path.join(out_dir, "%s-%d" % (workload, seed))
            _run(run["command"], run["config"], target)
            if workload == "flow-2torus":
                with open(os.path.join(target, "pair.json")) as fh:
                    pair = pair_from_payload(json.load(fh))
                values = trajectory_values(pair, run["starts"],
                                           FLOW_INTEGRAL["tol"])
                with open(os.path.join(target, "values.json"), "w") as fh:
                    fh.write(canonical_json(values))


def _cell(text):
    try:
        return json.loads(text, parse_constant=str)
    except ValueError:
        return text


def _values(path):
    with open(path) as fh:
        if path.endswith(".csv"):
            return [[_cell(c) for c in line.split(",")] for line in fh]
        return json.load(fh, parse_constant=str)


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _moves(a, b, path=()):
    """(relative difference, path) of each place where two parsed values
    differ, the path a tuple of keys and indices; a difference that is not
    between two numbers is infinite."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in sorted(a):
            yield from _moves(a[key], b[key], path + (key,))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _moves(x, y, path + (i,))
    elif _number(a) and _number(b):
        if a != b:
            yield abs(a - b) / max(abs(a), abs(b)), path
    elif a != b:
        yield math.inf, path


def _where(name, path):
    if name.endswith(".csv") and path:
        return ", ".join("%s %d" % (what, i + 1)
                         for what, i in zip(("line", "column"), path))
    return "$" + "".join("[%d]" % key if isinstance(key, int) else "." + key
                         for key in path)


def largest_move(name, a, b):
    """The largest relative difference between two parsed artifacts and
    where it occurs, or None when their values are equal."""
    move = max(_moves(a, b), key=lambda m: m[0], default=None)
    if move is None:
        return None
    return move[0], _where(name, move[1])


def compare_trees(a, b):
    """Print the numbers of files that differ in bytes and in values, the
    largest relative move in each file that differs in values, and last
    the largest of them all with its file and place, or none."""
    in_bytes, moves = 0, []   # (relative move, file, place) per file
    for name in sorted(_files(a) | _files(b)):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            in_bytes += 1
            moves.append((math.inf, name, None))
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                continue
        in_bytes += 1
        move = largest_move(name, _values(pa), _values(pb))
        if move:
            moves.append((move[0], name, move[1]))
    for rel, name, where in moves:
        print("differs in values: %s (%s)" % (name, "in one tree only"
              if where is None else "largest relative difference %.3g at %s"
              % (rel, where)))
    print("files that differ in bytes: %d" % in_bytes)
    print("files that differ in values: %d" % len(moves))
    if not moves:
        print("largest relative difference: none")
        return
    rel, name, where = max(moves, key=lambda move: move[0])
    print("largest relative difference: %.3g in %s%s"
          % (rel, name, "" if where is None else " at " + where))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare_trees(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 2:
        write_artifacts(sys.argv[1])
    else:
        raise SystemExit(__doc__.split("\n\n")[1])
