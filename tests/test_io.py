"""Deterministic serialization of series, pairs and residual reports."""

import inspect
import json
import math

import numpy as np
import pytest

from paratori.errors import ConfigError
from paratori.fourier import FourierSeries
from paratori.ioutil import (canonical_json, pair_from_payload, pair_payload,
                             report_payload, residual_csv)
from paratori.map_solver import solve_to_order
from paratori.pairs import ManifoldPair, compare_pairs, residual_report

from conftest import dense_series, exact_map, reference_map


def test_canonical_json_is_stable_and_sorted():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5, None, True], "c": {"y": 2, "x": 1}}
    s1 = canonical_json(obj)
    s2 = canonical_json(json.loads(s1))
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')
    # a float's repr reads back to the same double
    assert json.loads(s1)["b"] == 1.0 / 3.0


def test_canonical_json_round_trips_edge_doubles():
    values = [5e-324, 1e16, 0.1, 1.0 / 3.0, 3.0, -0.0, 0.5344890793012511]
    text = canonical_json(values)
    assert text == "[5e-324,1e+16,0.1,0.3333333333333333,3.0,-0.0," \
                   "0.5344890793012511]\n"
    back = json.loads(text)
    assert back == values
    assert all(type(v) is float for v in back)
    assert math.copysign(1.0, back[5]) == -1.0


def test_canonical_json_handles_numpy_scalars():
    s = canonical_json({"v": np.float64(0.1), "n": np.int64(3),
                        "z": 1 + 2j, "arr": np.array([1.0, 2.0]),
                        "c": np.complex128(-0.5 + 0.25j),
                        "carr": np.array([1j, 2.0]), "f32": np.float32(0.5),
                        "iarr": np.arange(3), "t": (1, np.int32(2))})
    back = json.loads(s)
    assert back["v"] == 0.1 and back["n"] == 3
    assert back["z"] == {"im": 2.0, "re": 1.0}
    assert back["arr"] == [1.0, 2.0]
    assert back["c"] == {"im": 0.25, "re": -0.5}
    assert back["carr"] == [{"im": 1.0, "re": 0.0}, {"im": 0.0, "re": 2.0}]
    assert back["f32"] == 0.5 and back["iarr"] == [0, 1, 2]
    assert back["t"] == [1, 2]


def test_canonical_json_writes_the_non_finite_tokens():
    s = canonical_json([float("nan"), float("inf"), -np.inf,
                        np.float64("nan")])
    assert s == "[NaN,Infinity,-Infinity,NaN]\n"
    back = json.loads(s)
    assert math.isnan(back[0]) and back[1:3] == [math.inf, -math.inf]


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes"])
def test_canonical_json_refuses_an_unsupported_type(bad):
    with pytest.raises(ConfigError, match="cannot serialize"):
        canonical_json({"k": [bad]})


def looped_payload(f):
    """The half-spectrum payload one mode at a time: the reference for the
    array-built ``to_payload``."""
    entries = []
    for idx in np.ndindex(*f.coeffs.shape):
        k = tuple(i - f.cut for i in idx)
        first = next((x for x in k if x != 0), 0)
        if first < 0:
            continue
        v = complex(f.coeffs[idx])
        if v == 0:
            continue
        entries.append([list(k), v.real, v.imag])
    entries.sort(key=lambda e: e[0])
    return {"dim": f.dim, "cut": f.cut, "modes": entries}


@pytest.mark.parametrize("dim,cut", [(0, 0), (0, 3), (1, 0), (1, 6), (2, 3),
                                     (3, 2)])
def test_series_payload_is_the_mode_loop(dim, cut):
    rng = np.random.default_rng(17 + dim)
    dense = dense_series(rng, dim, cut)
    # a symmetric mask keeps the series real and leaves exact zeros
    mask = rng.random(dense.coeffs.shape) < 0.4
    mask = mask & np.flip(mask)
    sparse = FourierSeries(dense.coeffs * mask)
    imaginary = FourierSeries(1j * dense.coeffs.imag)
    for f in (dense, sparse, imaginary, FourierSeries.zero(dim, cut),
              FourierSeries.constant(-0.0, dim, cut)):
        payload = f.to_payload()
        assert payload == looped_payload(f)
        assert json.loads(canonical_json(payload)) == payload
        back = FourierSeries.from_payload(payload)
        assert np.array_equal(back.coeffs, f.coeffs)


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


def test_the_pair_header_is_the_constructors_leading_fields():
    # copy, pair_payload and pair_from_payload read the header from this list
    header = ManifoldPair.HEADER
    params = list(inspect.signature(ManifoldPair).parameters)
    assert params[:len(header)] == list(header)
    assert params[len(header):] == ["x", "y", "tails", "inner", "diagnostics"]
    pair, _ = solve_to_order(exact_map(), 3)
    copy = pair.copy()
    assert [getattr(copy, key) for key in header] == [
        getattr(pair, key) for key in header]
    assert copy.diagnostics == pair.diagnostics
    assert copy.diagnostics is not pair.diagnostics


@pytest.mark.parametrize("edit,match", [
    (lambda p: p.update(trunc=171), "trunc: expected at most 170, got 171"),
    (lambda p: p["x"][min(p["x"])].update(dim=2),
     "a series of (dim, cut) (2, 16) in a pair of (dim, cut) (1, 16)"),
], ids=["trunc_above_max", "series_off_the_box"])
def test_pair_from_payload_checks_before_any_series_is_built(monkeypatch, edit,
                                                             match):
    # the Python API reads a pair file as compare does
    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")

    pair, _ = solve_to_order(reference_map(cut=16), 3)
    payload = json.loads(canonical_json(pair_payload(pair)))
    edit(payload)
    monkeypatch.setattr(FourierSeries, "from_payload", no_series)
    with pytest.raises(ConfigError) as err:
        pair_from_payload(payload)
    assert str(err.value) == match


def _nan_at(payload, component, pick, mode, part):
    """Set the ``part`` (1: re, 2: im) of mode number ``mode`` of a pair
    payload's series at the order ``pick`` (min or max) chooses to NaN, and
    return the detail that names it."""
    jet = (payload["tails"][0] if component == "tails[0]"
           else payload[component])
    order = pick(jet, key=int)
    entry = jet[order]["modes"][mode]
    entry[part] = math.nan
    return {"component": component, "order": int(order), "mode": entry[0]}


def _x_later_re_earlier_im(payload):
    _nan_at(payload, "x", max, -1, 1)
    return _nan_at(payload, "x", max, 1, 2)


def _y_and_x(payload):
    _nan_at(payload, "y", min, 0, 1)
    return _nan_at(payload, "x", max, -1, 2)


def _tails_and_inner(payload):
    _nan_at(payload, "tails[0]", min, 0, 1)
    payload["inner"]["3"] = math.inf
    return {"component": "inner", "order": 3}


def _inner_and_freqs(payload):
    payload["inner"]["2"] = math.nan
    payload["freqs"][0] = -math.inf
    return {"component": "freqs", "index": 0}


@pytest.mark.parametrize("edit", [_x_later_re_earlier_im, _y_and_x,
                                  _tails_and_inner, _inner_and_freqs])
def test_pair_from_payload_names_the_first_non_finite_number(edit):
    # with several NaNs or infinities in a payload, the one named is the
    # first in walk order: freqs, inner, x, y, tails, and in a series mode
    # by mode, an earlier mode's im before a later mode's re
    pair, _ = solve_to_order(reference_map(cut=16), 3)
    payload = json.loads(canonical_json(pair_payload(pair)))
    detail = edit(payload)
    with pytest.raises(ConfigError, match="non-finite number in") as err:
        pair_from_payload(payload)
    assert err.value.detail == detail


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
    for i, line in enumerate(lines[1:]):
        row = [float(v) for v in line.split(",")]
        assert row[0] == rep.u_values[i]
        assert row[1:] == [c["sups"][i] for c in rep.components]


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
