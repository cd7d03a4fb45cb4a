"""Deterministic serialization of series, pairs and residual reports."""

import json

import numpy as np

from paratori.ioutil import (canonical_json, pair_from_payload, pair_payload,
                             report_payload, residual_csv)
from paratori.map_solver import solve_to_order
from paratori.pairs import compare_pairs, residual_report

from conftest import exact_map, reference_map


def test_canonical_json_is_stable_and_sorted():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5, None, True], "c": {"y": 2, "x": 1}}
    s1 = canonical_json(obj)
    s2 = canonical_json(json.loads(s1))
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')
    # 17 significant digits keep doubles exact through a text round trip
    assert json.loads(s1)["b"] == 1.0 / 3.0


def test_canonical_json_handles_numpy_scalars():
    s = canonical_json({"v": np.float64(0.1), "n": np.int64(3),
                        "z": 1 + 2j, "arr": np.array([1.0, 2.0])})
    back = json.loads(s)
    assert back["v"] == 0.1 and back["n"] == 3
    assert back["z"] == {"im": 2.0, "re": 1.0}
    assert back["arr"] == [1.0, 2.0]


def test_pair_payload_round_trip():
    mp = exact_map()
    pair, _ = solve_to_order(mp, 5)
    payload = pair_payload(pair)
    back = pair_from_payload(payload)
    diff = compare_pairs(pair, back, tol=1e-15)
    assert diff["x"] is None and diff["y"] is None and diff["inner"] is None
    assert all(v is None for v in diff["theta"])
    assert back.branch == pair.branch and back.order == pair.order
    assert back.freqs == pair.freqs
    # payload text is reproducible byte for byte
    assert canonical_json(payload) == canonical_json(pair_payload(back))


def test_report_payload_and_csv():
    mp = reference_map(cut=16)
    pair, residual = solve_to_order(mp, 3)
    rep = residual_report(pair, residual, n_u=5, n_grid=12)
    payload = report_payload(rep)
    names = [c["name"] for c in payload["components"]]
    assert names == ["x", "y", "theta_0"]
    assert len(payload["u_values"]) == 5
    csv = residual_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "u,x_sup,y_sup,theta_0_sup"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == rep.u_values[0]


def test_compare_pairs_counts_nan_as_a_difference():
    pair, _ = solve_to_order(exact_map(), 3)
    bad = pair.copy()
    top = bad.y.orders()[-1]
    bad.y.set_coefficient(top, bad.y.coefficient(top) * float("nan"))
    bad.inner = bad.inner + type(bad.inner)({3: float("nan")}, bad.inner.trunc)
    diff = compare_pairs(pair, bad)
    assert diff["y"] == top and diff["inner"] == 3
    assert diff["x"] is None


def test_compare_pairs_counts_a_missing_tail_as_the_zero_jet():
    pair, _ = solve_to_order(exact_map(), 3)
    bare = pair.copy()
    bare.tails = []
    lead = pair.tails[0].orders()[0]
    assert compare_pairs(pair, bare) == {"x": None, "y": None,
                                         "theta": [lead], "inner": None}
    assert compare_pairs(bare, pair)["theta"] == [lead]
    bare.tails = [pair.tails[0].tail(pair.trunc + 1)]
    assert compare_pairs(bare, pair)["theta"] == [lead]
