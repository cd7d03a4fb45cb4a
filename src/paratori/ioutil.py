"""Deterministic artifact serialization.

Everything written to disk goes through ``canonical_json`` or
``residual_csv``: the standard library's JSON encoder with keys sorted, no
timestamps, so rerunning the same configuration reproduces the artifact
byte for byte.  A float is spelled as its ``repr``, the shortest string
that reads back to the same double (``-0.0`` keeps its sign, ``3.0`` stays
a float); NaN and the infinities are the tokens ``NaN``, ``Infinity`` and
``-Infinity``.
"""

import json

import numpy as np

from .errors import ConfigError
from .fourier import FourierSeries
from .jets import TFJet, UPoly
from .pairs import ManifoldPair


def _plain(obj):
    """The JSON form of what the standard encoder does not know: a complex
    number is ``{"im", "re"}``, a numpy integer or float the Python one, an
    array a list; anything else is a ConfigError."""
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise ConfigError("cannot serialize %r" % type(obj).__name__)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_plain) + "\n"


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

def jet_payload(jet):
    return {str(n): jet.coefficient(n).to_payload() for n in jet.orders()}


def jet_from_payload(payload, dim, cut, trunc):
    jet = TFJet(dim, cut, trunc)
    for key, sp in payload.items():
        jet.set_coefficient(int(key), FourierSeries.from_payload(sp))
    return jet


def upoly_payload(poly):
    return {str(n): poly.coeff(n) for n in poly.orders()}


def pair_payload(pair):
    return {
        "kind": pair.kind,
        "family": pair.family,
        "branch": pair.branch,
        "cut": pair.cut,
        "trunc": pair.trunc,
        "order": pair.order,
        "k": pair.k,
        "p": pair.p,
        "freqs": list(pair.freqs),
        "d": pair.d,
        "drive": pair.drive,
        "x": jet_payload(pair.x),
        "y": jet_payload(pair.y),
        "tails": [jet_payload(w) for w in pair.tails],
        "inner": upoly_payload(pair.inner),
        "diagnostics": pair.diagnostics,
    }


def _non_finite(payload):
    """The ConfigError naming the first NaN or infinite number of a pair
    payload: its component (freqs, inner, x, y or tails[i]), and its index,
    order or order and mode."""
    bad = lambda *vs: not np.isfinite(np.asarray(vs, dtype=float)).all()
    for i, v in enumerate(payload["freqs"]):
        if bad(v):
            return ConfigError("manifold payload holds a non-finite number "
                               "in freqs[%d]" % i, component="freqs", index=i)
    for n, v in payload["inner"].items():
        if bad(v):
            return ConfigError("manifold payload holds a non-finite number "
                               "in inner at order %s" % n, component="inner",
                               order=int(n))
    jets = [("x", payload["x"]), ("y", payload["y"])] + [
        ("tails[%d]" % i, w) for i, w in enumerate(payload["tails"])]
    for name, jet in jets:
        for n, sp in jet.items():
            for k, re, im in sp["modes"]:
                if bad(re, im):
                    return ConfigError(
                        "manifold payload holds a non-finite number in %s at "
                        "order %s, mode %s" % (name, n, k), component=name,
                        order=int(n), mode=k)


def pair_from_payload(payload):
    """The pair of a payload; a NaN or infinite coefficient, frequency or
    normal-form value is a ConfigError that names where the first one is,
    raised before any series is built."""
    numbers = list(payload["freqs"]) + list(payload["inner"].values())
    for jet in [payload["x"], payload["y"]] + list(payload["tails"]):
        numbers += [v for sp in jet.values() for _, re, im in sp["modes"]
                    for v in (re, im)]
    if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
        raise _non_finite(payload)
    cut, trunc = int(payload["cut"]), int(payload["trunc"])
    dim = int(payload["d"]) + int(payload["drive"])
    inner = UPoly({int(n): v for n, v in payload["inner"].items()}, trunc)
    return ManifoldPair(
        payload["kind"], payload["family"], payload["branch"], cut, trunc,
        int(payload["order"]),
        payload.get("k"), payload.get("p"),
        tuple(payload["freqs"]), int(payload["d"]), int(payload["drive"]),
        jet_from_payload(payload["x"], dim, cut, trunc),
        jet_from_payload(payload["y"], dim, cut, trunc),
        [jet_from_payload(w, dim, cut, trunc) for w in payload["tails"]],
        inner, payload.get("diagnostics", {}))


def report_payload(report):
    keep = ("name", "expected_order", "slope", "annihilated_max", "scale",
            "exact")
    return {"u_values": list(report.u_values),
            "components": [{key: comp[key] for key in keep}
                           for comp in report.components]}


def residual_csv(report):
    """Sup of the tail defect per component on the fit grid, one row per u."""
    names = [comp["name"] for comp in report.components]
    lines = [",".join(["u"] + ["%s_sup" % n for n in names])]
    for i, u in enumerate(report.u_values):
        row = [u] + [comp["sups"][i] for comp in report.components]
        lines.append(",".join(json.dumps(float(v)) for v in row))
    return "\n".join(lines) + "\n"
