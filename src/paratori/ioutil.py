"""Deterministic artifact serialization, and the one reader of pair files.

Everything written to disk goes through ``canonical_json`` or
``residual_csv``: the standard library's JSON encoder with keys sorted, no
timestamps, so rerunning the same configuration reproduces the artifact
byte for byte.  A float is spelled as its ``repr``, the shortest string
that reads back to the same double (``-0.0`` keeps its sign, ``3.0`` stays
a float); NaN and the infinities are the tokens ``NaN``, ``Infinity`` and
``-Infinity``.

``pair_payload`` writes a pair and ``pair_from_payload`` reads and checks
it, both from ``ManifoldPair.HEADER``, so every reader of a pair file
meets the bounds a config meets (``MAX_TRUNC``, ``MAX_AXES``, ``MAX_BOX``).
"""

import json
import math

import numpy as np

from .errors import ConfigError
from .fourier import FourierSeries
from .jets import TFJet, UPoly
from .pairs import ManifoldPair

# the most coefficients one Fourier series of a config or a pair file may
# hold: a mode box of (2 cut + 1)^dim coefficients above it is a ConfigError
# (the largest supported runs use a few hundred)
MAX_BOX = 2 ** 16
# the most angle axes: numpy 1.x arrays hold at most 32 dimensions
MAX_AXES = 32
# the highest truncation order: the angle expansion divides by j! for
# j <= trunc, and 171! is beyond the largest float
MAX_TRUNC = 170


def _number(value, what, cast=float, least=-math.inf):
    """A finite JSON number, integral when ``cast`` is int, converted by
    ``cast`` and at least ``least``, else a ConfigError."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or beyond a float
        finite = False
    if not finite:
        raise ConfigError("%s: expected a finite number, got %r" % (what, value))
    out = cast(value)
    if cast is int and out != value:
        raise ConfigError("%s: expected an integer, got %r" % (what, value))
    if out < least:
        raise ConfigError("%s: expected at least %s, got %r" % (what, least, value))
    return out


def _check_box(dim, cut, what):
    """ConfigError naming ``what`` unless the mode box of (2 cut + 1)^dim
    coefficients holds at most MAX_BOX, on at most MAX_AXES angle axes."""
    if dim > MAX_AXES:
        raise ConfigError("%s: %d angle axes exceed %d" % (what, dim, MAX_AXES))
    # compared in logarithms: the box of a huge cut or dim is never built
    if dim * math.log(2 * cut + 1) > math.log(MAX_BOX):
        raise ConfigError("%s.cut: a box of (2*%d+1)^%d modes exceeds %d "
                          "coefficients" % (what, cut, dim, MAX_BOX))


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
    payload = {key: getattr(pair, key) for key in ManifoldPair.HEADER}
    payload.update(x=jet_payload(pair.x), y=jet_payload(pair.y),
                   tails=[jet_payload(w) for w in pair.tails],
                   inner=upoly_payload(pair.inner),
                   diagnostics=pair.diagnostics)
    return payload


def _jets(payload):
    """(component, jet payload) of x, y and each angle tail of a pair."""
    return [("x", payload["x"]), ("y", payload["y"])] + [
        ("tails[%d]" % i, w) for i, w in enumerate(payload["tails"])]


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
    for name, jet in _jets(payload):
        for n, sp in jet.items():
            for k, re, im in sp["modes"]:
                if bad(re, im):
                    return ConfigError(
                        "manifold payload holds a non-finite number in %s at "
                        "order %s, mode %s" % (name, n, k), component=name,
                        order=int(n), mode=k)


def pair_from_payload(payload):
    """The pair of a payload, checked in full before any series is built.
    Its header as a config's: ``trunc`` an integer from 0 to MAX_TRUNC,
    ``order`` one from 0 to ``trunc``, ``k`` and ``p`` null or integers, and
    a box of ``d`` + ``drive`` axes and ``cut`` that ``_check_box`` admits.
    Then every series on that box (its dim, and its cut off the one-mode
    box of dim 0, whose series have cut 0), every order key of a jet or of
    ``inner`` an integer from 0 to ``trunc`` in plain decimal digits (as
    ``pair_payload`` writes it), and no NaN or infinite number.  Each
    refusal is a ConfigError; an order key or a number names where the
    first bad one is."""
    head = {key: payload[key] for key in ManifoldPair.HEADER}
    for key in ("cut", "trunc", "order", "d", "drive"):
        head[key] = _number(head[key], key, int, 0)
    for key in ("k", "p"):
        if head[key] is not None:
            head[key] = _number(head[key], key, int)
    dim, cut, trunc = head["d"] + head["drive"], head["cut"], head["trunc"]
    if trunc > MAX_TRUNC:
        raise ConfigError("trunc: expected at most %d, got %d"
                          % (MAX_TRUNC, trunc))
    if head["order"] > trunc:
        raise ConfigError("order: expected at most trunc %d, got %d"
                          % (trunc, head["order"]))
    _check_box(dim, cut, "manifold payload")
    orders = {str(i) for i in range(trunc + 1)}
    numbers = list(payload["freqs"])
    for name, jet in [("inner", payload["inner"])] + _jets(payload):
        for n, entry in jet.items():
            if n not in orders:
                raise ConfigError(
                    "manifold payload has order %r in %s, outside 0..%d"
                    % (n, name, trunc), component=name, order=n)
            if name == "inner":
                numbers.append(entry)
                continue
            box = entry["dim"], entry["cut"]
            if box[0] != dim or (dim and box[1] != cut):
                raise ConfigError("a series of (dim, cut) %r in a pair of "
                                  "(dim, cut) %r" % (box, (dim, cut)))
            numbers += [re for _, re, _ in entry["modes"]]
            numbers += [im for _, _, im in entry["modes"]]
    if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
        raise _non_finite(payload)
    x, y, *tails = (jet_from_payload(jet, dim, cut, trunc)
                    for _, jet in _jets(payload))
    inner = UPoly({int(n): v for n, v in payload["inner"].items()}, trunc)
    return ManifoldPair(**head, x=x, y=y, tails=tails, inner=inner,
                        diagnostics=payload.get("diagnostics", {}))


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
