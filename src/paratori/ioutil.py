"""Deterministic artifact serialization, and the one reader of pair files.

Everything written to disk goes through ``canonical_json`` or
``residual_csv``: the standard library's JSON encoder with keys sorted, no
timestamps, so rerunning the same configuration reproduces the artifact
byte for byte.  A float is spelled as its ``repr``, the shortest string
that reads back to the same double (``-0.0`` keeps its sign, ``3.0`` stays
a float); NaN and the infinities are the tokens ``NaN``, ``Infinity`` and
``-Infinity``.

``pair_payload`` writes a pair and ``pair_from_payload`` reads and checks
it in one walk, both from ``ManifoldPair.HEADER``: every reader of a pair
file meets the bounds a config meets (``MAX_TRUNC``, ``MAX_AXES``,
``MAX_BOX``), and a refusal names the first bad key or number it met.
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


def pair_from_payload(payload):
    """The pair of a payload, checked in full before any series is built:
    the header as a config's (``kind``, ``family`` and ``branch`` one of
    their two names, ``trunc`` an integer from 0 to MAX_TRUNC, ``order``
    one from 0 to ``trunc``, ``k`` and ``p`` null or integers, a box of
    ``d`` + ``drive`` axes and ``cut`` that ``_check_box`` admits, and a
    frequency per rotating axis: ``d``, and ``drive`` in a field), then in
    one walk each series on that box (cut 0 on the one-mode box of dim 0),
    each order key of a jet or of ``inner`` an integer from 0 to ``trunc``
    in plain digits (as ``pair_payload`` writes it), and each number
    finite.  A refusal is a ConfigError; a bad order key or number is the
    first in walk order (``freqs``, ``inner``, ``x``, ``y``, ``tails[i]``;
    a series mode by mode), named in the message and ``detail``."""
    head = {key: payload[key] for key in ManifoldPair.HEADER}
    for key, names in (("kind", ("map", "field")),
                       ("family", ("power", "shear")),
                       ("branch", ("stable", "unstable"))):
        if head[key] not in names:
            raise ConfigError("%s: expected %r or %r, got %r"
                              % (key, *names, head[key]))
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
    axes = head["d"] if head["kind"] == "map" else dim   # rotating axes
    if len(head["freqs"]) != axes:
        raise ConfigError("freqs: expected %d for a %s, got %d"
                          % (axes, head["kind"], len(head["freqs"])))
    orders = {str(i) for i in range(trunc + 1)}
    numbers, starts = list(head["freqs"]), []   # where each entry starts
    for name, jet in [("inner", payload["inner"])] + _jets(payload):
        for n, entry in jet.items():
            if n not in orders:
                raise ConfigError(
                    "manifold payload has order %r in %s, outside 0..%d"
                    % (n, name, trunc), component=name, order=n)
            starts.append((len(numbers), name, n, entry))
            if name == "inner":
                numbers.append(entry)
                continue
            box = entry["dim"], entry["cut"]
            if box[0] != dim or (dim and box[1] != cut):
                raise ConfigError("a series of (dim, cut) %r in a pair of "
                                  "(dim, cut) %r" % (box, (dim, cut)))
            numbers += [re for _, re, _ in entry["modes"]]
            numbers += [im for _, _, im in entry["modes"]]
    bad = ~np.isfinite(np.asarray(numbers, dtype=float))
    if bad.any():   # name the first bad number: in freqs, inner or a mode
        first = int(bad.argmax())
        at, detail = "freqs[%d]" % first, dict(component="freqs", index=first)
        if first >= len(head["freqs"]):
            start, name, n, entry = [s for s in starts if s[0] <= first][-1]
            at = "%s at order %s" % (name, n)
            detail = dict(component=name, order=int(n))
            if name != "inner":
                m = len(entry["modes"])
                i = np.flatnonzero(bad[start:start + m]
                                   | bad[start + m:start + 2 * m])[0]
                detail["mode"] = entry["modes"][i][0]
                at += ", mode %s" % (detail["mode"],)
        raise ConfigError("manifold payload holds a non-finite number in "
                          + at, **detail)
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
