"""Deterministic artifact serialization.

Everything written to disk goes through ``canonical_json`` or
``residual_csv``: keys sorted, floats always printed with 17 significant
digits, no timestamps, so rerunning the same configuration reproduces the
artifact byte for byte.
"""

import json

import numpy as np

from .errors import ConfigError
from .fourier import FourierSeries
from .jets import TFJet, UPoly
from .pairs import ManifoldPair


def _fmt_float(v):
    if v != v:
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "Infinity" if v > 0 else "-Infinity"
    return "%.17g" % v


def _canon(obj, out):
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _canon({"re": float(obj.real), "im": float(obj.imag)}, out)
    elif isinstance(obj, np.ndarray):
        _canon(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _canon(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    else:
        raise ConfigError("cannot serialize %r" % type(obj).__name__)


def canonical_json(obj):
    out = []
    _canon(obj, out)
    return "".join(out) + "\n"


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


def pair_from_payload(payload):
    """The pair of a payload; a NaN or infinite coefficient, frequency or
    normal-form value is a ConfigError, raised before any series is built."""
    numbers = list(payload["freqs"]) + list(payload["inner"].values())
    for jet in [payload["x"], payload["y"]] + list(payload["tails"]):
        numbers += [v for sp in jet.values() for _, re, im in sp["modes"]
                    for v in (re, im)]
    if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
        raise ConfigError("manifold payload holds a non-finite number")
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
    comps = []
    for comp in report.components:
        comps.append({
            "name": comp["name"],
            "expected_order": comp["expected_order"],
            "slope": comp["slope"],
            "annihilated_max": comp["annihilated_max"],
            "scale": comp["scale"],
            "exact": comp["exact"],
        })
    return {"u_values": list(report.u_values), "components": comps}


def residual_csv(report):
    """Sup of the tail defect per component on the fit grid, one row per u."""
    names = [comp["name"] for comp in report.components]
    lines = [",".join(["u"] + ["%s_sup" % n for n in names])]
    for i, u in enumerate(report.u_values):
        row = [_fmt_float(float(u))]
        for comp in report.components:
            row.append(_fmt_float(float(comp["sups"][i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
