"""One benchmark task per workload: an in-process CLI call plus its checks.

``run_task`` returns the list of failed checks (empty when the task is
correct).  Reference-free checks run on every seed; on seed 0 the outputs
are also compared with the artifacts in ``reference/``, which were written
by ``make_reference.py`` from the unmodified program.
"""

import json
import math
import os

import numpy as np

import paratori.cli
from paratori import operators
from paratori.ioutil import pair_from_payload
from paratori.pairs import compare_pairs

from inputs import FLOW_INTEGRAL

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
SLOPE_TOL = 0.15
PAIR_TOL = 1e-11
FACTOR_RTOL = 1e-6

# artifacts compared with the reference on seed 0, per workload
PAIR_FILES = {"map-ref": ["pair.json"], "flow-2torus": ["pair.json"],
              "hecu-expanded": ["stable.json", "unstable.json"], "probe": []}


def load_reference(workload):
    """Reference artifacts of one workload (seed 0)."""
    def read(name):
        return _read(REFERENCE_DIR, "%s.%s" % (workload, name))
    ref = {"pairs": {os.path.splitext(name)[0]: pair_from_payload(read(name))
                     for name in PAIR_FILES[workload]}}
    if workload == "probe":
        ref["operators"] = read("operators.json")
    if workload == "flow-2torus":
        ref["values"] = read("values.json")
    return ref


def _read(directory, name):
    with open(os.path.join(directory, name)) as fh:
        return json.load(fh)


def _check_residuals(summary, pairs, assert_tol, shear, fails):
    """Slopes at the contract orders and annihilated low orders.

    Power class: every slope within SLOPE_TOL of the contract order.  Shear
    class: within SLOPE_TOL of an integer order at or above the contract
    (the solver's own check is a lower bound, and at these inputs y and
    theta come out one order better).  In the shear class's closed-form
    convention the order-2 angle average is left unsolved by design
    (``theta_leading_defect``), so the theta annihilated maximum must equal
    that documented defect times |Y2| instead of vanishing.
    """
    for name, rep in sorted(summary["residuals"].items()):
        pair = pairs[name]
        for comp in rep["components"]:
            tag = "%s.%s" % (name, comp["name"])
            exp, slope = comp["expected_order"], comp["slope"]
            if slope is None:
                if not comp["exact"]:
                    fails.append("%s: no slope" % tag)
            elif shear:
                near = round(slope)
                if near < exp or abs(slope - near) > SLOPE_TOL:
                    fails.append("%s: slope %.4f vs contract %d"
                                 % (tag, slope, exp))
            elif abs(slope - exp) > SLOPE_TOL:
                fails.append("%s: slope %.4f vs contract %d" % (tag, slope, exp))
            limit = assert_tol * comp["scale"]
            ann = comp["annihilated_max"]
            if (shear and comp["name"].startswith("theta_")
                    and pair.diagnostics.get("theta_leading_mode")
                    == "closed_form"):
                axis = int(comp["name"].split("_")[1])
                ann = abs(ann - abs(pair.diagnostics["theta_leading_defect"][axis]
                                    * pair.inner_coeff(2)))
            if not ann <= limit:
                fails.append("%s: annihilated %.3e above %.3e"
                             % (tag, ann, limit))


def _compare_pairs(pairs, ref, fails):
    for name, pair in sorted(pairs.items()):
        diff = compare_pairs(pair, ref["pairs"][name], tol=PAIR_TOL)
        if any(v is not None for v in
               [diff["x"], diff["y"], diff["inner"]] + diff["theta"]):
            fails.append("%s differs from reference: %s" % (name, diff))


def _check_probe(ops, ref, fails):
    con = ops["contraction"]
    factors, defects = con["factors"], con["defect_norms"]
    if not factors or not all(f < 1.0 for f in factors):
        fails.append("probe factors %s not all below one" % factors)
    if not all(b < a for a, b in zip(defects, defects[1:])):
        fails.append("defect norms %s not strictly decreasing" % defects)
    if not ops["sector_iterates"]["min_slack"] >= 0.0:
        fails.append("sector min_slack %r negative"
                     % ops["sector_iterates"]["min_slack"])
    if ref is not None:
        want = ref["operators"]["contraction"]["factors"]
        if len(want) != len(factors) or any(
                abs(f - w) > FACTOR_RTOL * abs(w) for f, w in zip(factors, want)):
            fails.append("probe factors %s vs reference %s" % (factors, want))


class _Integrand:
    """u^3 (1 + 0.2 sin 2 pi theta0 + 0.1 cos 2 pi theta1), counting calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, u, theta):
        self.calls += 1
        return u ** 3 * (1.0 + 0.2 * np.sin(2 * np.pi * theta[0])
                         + 0.1 * np.cos(2 * np.pi * theta[1]))


def trajectory_values(pair, starts, tol, counter=None):
    """flow_inverse of the benchmark integrand at each start point."""
    eta = _Integrand()
    fi = FLOW_INTEGRAL
    sector = operators.Sector(fi["sector_beta"], fi["sector_rho"], pair.k)
    values = []
    for start in starts:
        u = complex(*start["u"]) if start["u"][1] else start["u"][0]
        values.append(operators.flow_inverse(
            eta, pair.inner, pair.freqs, u, np.array(start["theta"]),
            eta_order=fi["eta_order"], mu=fi["mu"], tol=tol, sector=sector))
    if counter is not None:
        counter("operators.integrand", eta.calls)
    return values


def _check_flow(pair, starts, values, ref, fails):
    fi = FLOW_INTEGRAL
    order = fi["eta_order"] - 1
    limit = operators.flow_inverse_norm_limit(order, pair.k, fi["mu"])
    for i, (start, v) in enumerate(zip(starts, values)):
        u = abs(complex(*start["u"]))
        if not (math.isfinite(abs(v)) and abs(v) / u ** order <= limit):
            fails.append("trajectory %d: value %r outside limit %.3g"
                         % (i, v, limit))
        if ref is not None:
            want = complex(*ref["values"][i])
            if not abs(v - want) <= fi["tol"]:
                fails.append("trajectory %d: %r vs reference %r" % (i, v, want))


def run_task(workload, inputs, config_path, out_dir, ref, counter=None):
    """Run one task; return the failed checks as strings."""
    argv = [inputs["command"], "--config", config_path, "--out", out_dir]
    code = paratori.cli.main(argv)
    if code != 0:
        return ["exit code %r" % code]
    fails = []
    assert_tol = inputs["config"].get("assert_tol", 1e-9)
    if workload == "probe":
        _check_probe(_read(out_dir, "operators.json"), ref, fails)
        return fails
    pairs = {os.path.splitext(name)[0]: pair_from_payload(_read(out_dir, name))
             for name in PAIR_FILES[workload]}
    _check_residuals(_read(out_dir, "summary.json"), pairs, assert_tol,
                     workload == "hecu-expanded", fails)
    if ref is not None:
        _compare_pairs(pairs, ref, fails)
    if workload == "flow-2torus":
        pair = pairs["pair"]
        values = trajectory_values(pair, inputs["starts"], FLOW_INTEGRAL["tol"],
                                   counter)
        _check_flow(pair, inputs["starts"], values, ref, fails)
    return fails
