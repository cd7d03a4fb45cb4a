"""Command line front end.

Subcommands run one problem each from a JSON config file and write
deterministic artifacts (manifold payload, residual CSV, summary) into the
output directory.  Success exits 0.  Every failure is a ParatoriError,
and the error hierarchy is the exit-code contract (see errors.py): the run
exits with the error's ``exit_code`` (2 configuration, 3 hypothesis, 4 small
divisor, 5 bound) and writes its ``payload()``, one JSON object, to stderr.
A command line that argparse rejects is a ConfigError like any other.
``compare`` reads a pair file through ``ioutil.pair_from_payload``, which
checks it; ``ioutil`` owns the bounds configs share with pair files.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import operators
from .applications import (HeCuParams, OscillatorParams,
                           build_oscillator_field, hecu_manifolds)
from .errors import ConfigError, DimensionMismatch, ParatoriError
from .flow_solver import solve_flow_to_order, solve_helicoure
from .fourier import SD_FLOOR, FourierSeries
from .ioutil import (MAX_AXES, MAX_BOX, MAX_TRUNC, _check_box, _number,
                     canonical_json, pair_from_payload, pair_payload,
                     report_payload, residual_csv)
from .map_solver import ASSERT_TOL, solve_to_order, truncation
from .mapdata import TaylorFourierMap, validate_shear_field
from .pairs import compare_pairs, residual_report

# the most bytes one array over a diagnostics grid may take, 1 GiB: the
# sector check's largest arrays hold one complex value (16 bytes) per point
# of its radii x arguments, and the probe's the mode bases of an angle
# image over its radii x arguments x angles^dim, at most 2 cut + 1 complex
# values per axis and point (the shear and the term tables reach no higher
# band than the cut)
MAX_GRID_BYTES = 2 ** 30
# the most point-steps one sector check may take: it steps every point of
# its grid once per iterate.  2^36 lets the largest sector grid
# MAX_GRID_BYTES admits (8192 x 8192 points) run the default 1000 iterates,
# and bounds a run that a huge count would keep going for days
MAX_GRID_STEPS = 2 ** 36
# the most bytes of mode bases one contraction probe may build over all its
# sweeps: the default 10 sweeps of the largest sample set MAX_GRID_BYTES
# admits, or on the reference map (cut 32, 1040 bytes a sample) about 32,000
# sweeps of the default 320 samples, an hour at 0.3 ms a sample-sweep
MAX_PROBE_BYTES = 10 * MAX_GRID_BYTES

# the problem a config must name for each subcommand that reads one
_PROBLEMS = {
    "solve-map": "custom-map",
    "solve-flow": "custom-flow",
    "helicoure": "helicoure",
    "oscillator": "oscillator",
    "hecu": "hecu",
    "diagnose-operators": "custom-map",
}
# the block that holds each problem's data or parameters
_BLOCKS = {"custom-map": "map", "custom-flow": "field", "helicoure": "field",
           "oscillator": "oscillator", "hecu": "hecu"}
# the top-level keys of every config besides its problem block
_COMMON_KEYS = ("problem", "n_target", "branch", "theta_leading", "sd_floor",
                "assert_tol")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _positive(value, what):
    """A finite positive number (a tolerance or floor), else a ConfigError."""
    out = _number(value, what)
    if out <= 0:
        raise ConfigError("%s: expected a positive number, got %r"
                          % (what, value))
    return out


def _entry(block, key, what, cast=float, default=None, least=-math.inf):
    """``block[key]`` (``default`` when missing) through _number."""
    if key not in block and default is None:
        raise ConfigError("%s block misses %r" % (what, key))
    return _number(block.get(key, default), "%s.%s" % (what, key), cast, least)


def _cut(block, what, dim, default=None):
    """``block["cut"]``: a non-negative integer whose mode box of
    (2 cut + 1)^dim coefficients ``_check_box`` admits."""
    cut = _entry(block, "cut", what, int, default, 0)
    _check_box(dim, cut, what)
    return cut


def _check_samples(counts, point_bytes, what):
    """ConfigError when a grid of ``counts`` points per axis, at
    ``point_bytes`` bytes per point, takes more than MAX_GRID_BYTES; the
    size is a product of Python integers, so an oversized grid is never
    built."""
    total = math.prod(counts)
    if total * point_bytes > MAX_GRID_BYTES:
        raise ConfigError("%s: a grid of %d points at %d bytes each exceeds "
                          "%d bytes" % (what, total, point_bytes,
                                        MAX_GRID_BYTES))


def _check_steps(count, size, what, bound, unit):
    """ConfigError when ``count`` steps of ``size`` units pass ``bound``."""
    if count * size > bound:
        raise ConfigError("%s: %d steps of %d %s each exceed %d %s"
                          % (what, count, size, unit, bound, unit))


def _numbers(value, what, cast=float, least=None):
    """A config list of numbers; ``least`` fixes its length and bounds."""
    if not isinstance(value, list) or (least and len(value) != len(least)):
        raise ConfigError("%s must be a list of %s numbers"
                          % (what, len(least) if least else "finite"))
    return [_number(v, what, cast, lo)
            for v, lo in zip(value, least or [-math.inf] * len(value))]


def _object(block, what, keys=None):
    """A config object; a missing one reads as empty.  With ``keys``, a key
    outside them is a ConfigError: a misspelled setting is refused, not
    left to its default."""
    if block is not None and not isinstance(block, dict):
        raise ConfigError("%s must be an object" % what)
    unknown = sorted(set(block or ()) - set(keys)) if keys else []
    if unknown:
        raise ConfigError("%s: unknown key %r" % (what, unknown[0]),
                          block=what, key=unknown[0])
    return block or {}


def _series_spec(spec, dim, cut, what):
    """A coefficient from config: plain number, or {const, modes} where
    modes maps 'k1,k2,...' to [re, im] of the one-sided coefficient."""
    if isinstance(spec, (int, float)):
        return FourierSeries.constant(_number(spec, what), dim, cut)
    if not isinstance(spec, dict) or not isinstance(spec.get("modes", {}), dict):
        raise ConfigError("%s: expected number or {const, modes}" % what)
    _object(spec, what, ("const", "modes"))
    s = FourierSeries.constant(_number(spec.get("const", 0.0), what), dim, cut)
    modes, spelled = {}, {}
    for key, val in spec.get("modes", {}).items():
        try:
            mode = tuple(int(t) for t in str(key).split(","))
            re, im = _number(val[0], what), _number(val[1], what)
        except (ValueError, IndexError, TypeError, ConfigError):
            raise ConfigError("%s: bad mode entry %r" % (what, key))
        if len(mode) != dim:
            raise ConfigError("%s: mode %s has %d axes, expected %d"
                              % (what, key, len(mode), dim))
        if max(map(abs, mode), default=0) > cut:
            raise ConfigError("%s: mode %s outside the box |k| <= %d"
                              % (what, key, cut))
        if mode in spelled:   # a dict would keep only the last spelling
            raise ConfigError("%s: mode %s spelled twice, as %r and %r"
                              % (what, mode, spelled[mode], key))
        spelled[mode], modes[mode] = key, complex(re, im)
    if modes:
        # symmetrizing adds each coefficient to its mirror, which overflows
        # above about 9e307: such a series is refused here, not solved to NaN
        s = s + FourierSeries.from_modes(modes, dim, cut)
        if not np.isfinite(s.coeffs).all():
            raise ConfigError("%s: a coefficient is beyond the float range "
                              "once its series is built" % what)
    return s


def _terms_spec(block, dim, cut, what):
    out, spelled = {}, {}
    for key, spec in _object(block, what).items():
        try:
            l, m = (int(t) for t in str(key).split(","))
        except ValueError:
            raise ConfigError("%s: bad exponent key %r, expected 'l,m'"
                              % (what, key))
        if l < 0 or m < 0:
            raise ConfigError("%s: negative exponent in %r" % (what, key))
        if (l, m) in spelled:   # a dict would keep only the last spelling
            raise ConfigError("%s: exponent %s spelled twice, as %r and %r"
                              % (what, (l, m), spelled[(l, m)], key))
        spelled[(l, m)] = key
        out[(l, m)] = _series_spec(spec, dim, cut, "%s[%s]" % (what, key))
    return out


def _map_from_config(block, kind):
    block = _object(block, kind, ("cut", "freqs", "d", "drive", "k", "p",
                                  "x_terms", "y_terms", "theta_terms"))
    freqs = _numbers(block.get("freqs"), "freqs")
    d = _number(block.get("d", len(freqs) if kind == "map" else 1), "d", int, 0)
    drive = _number(block.get("drive", 0), "drive", int, 0)
    dim = d + drive
    cut = _cut(block, kind, dim)
    k, p = (None if block.get(key) is None else _number(block[key], key, int)
            for key in ("k", "p"))
    theta_blocks = block.get("theta_terms", [])
    if not isinstance(theta_blocks, list) or len(theta_blocks) != d:
        raise ConfigError("theta_terms must list one table per axis, d = %d" % d)
    return TaylorFourierMap(
        kind, d, drive, cut, freqs,
        _terms_spec(block.get("x_terms"), dim, cut, "x_terms"),
        _terms_spec(block.get("y_terms"), dim, cut, "y_terms"),
        [_terms_spec(t, dim, cut, "theta_terms[%d]" % a)
         for a, t in enumerate(theta_blocks)],
        k=k, p=p)


class RunConfig:
    """One run of a subcommand, checked in full before any solve starts.

    ``command`` fixes the problem the config must name.  Besides the common
    settings it holds the parsed problem block: ``data`` (the map or field
    to solve; built from ``params`` for the oscillator), ``params`` and
    ``expansion`` for hecu, and for diagnose-operators the ``sector``, the
    iterate check settings and the optional ``probe`` keywords.  The data
    passes its class's admissibility check here, structure and leading
    means alike: ``validate_reduced`` for custom maps and fields and the
    oscillator, ``validate_shear_field`` for helicoure.  hecu builds its
    field in the solve (whose ``solve_helicoure`` checks it); its
    parameters refuse a closed channel here.
    """

    def __init__(self, raw, command, order=None, branch=None):
        self.problem = _PROBLEMS[command]
        if raw.get("problem") != self.problem:
            raise ConfigError("config problem is %r but %s expects %r"
                              % (raw.get("problem"), command, self.problem))
        if "sweep" in raw:
            raise ConfigError("only the top level of a solve config takes "
                              "a sweep")
        kind = _BLOCKS[self.problem]
        _object(raw, "config", _COMMON_KEYS + (kind,) + (
            ("sector", "diagnostics") if command == "diagnose-operators"
            else ()))
        self.n_target = _number(order if order is not None
                                else raw.get("n_target", 0), "n_target", int, 2)
        self.branch = branch or raw.get("branch", "stable")
        if self.branch not in ("stable", "unstable"):
            raise ConfigError("branch must be stable or unstable")
        self.theta_leading = raw.get("theta_leading", "closed_form")
        if self.theta_leading not in ("closed_form", "cohomological"):
            raise ConfigError("theta_leading must be closed_form or "
                              "cohomological")
        # the keywords every order-by-order solve takes besides the branch
        self.solve_kw = {
            "sd_floor": _positive(raw.get("sd_floor", SD_FLOOR), "sd_floor"),
            "assert_tol": _positive(raw.get("assert_tol", ASSERT_TOL),
                                    "assert_tol")}

        if self.problem == "hecu":
            block = _object(raw.get("hecu"), "hecu",
                            ("D", "alpha_morse", "m", "h", "g_surface", "cut",
                             "expansion"))
            cut = _cut(block, "hecu", 1, 16)
            self.params = HeCuParams(
                *(_entry(block, key, "hecu")
                  for key in ("D", "alpha_morse", "m", "h")),
                _series_spec(block.get("g_surface", 0.0), 1, cut,
                             "hecu.g_surface"),
                cut=cut)
            self.expansion = block.get("expansion", "displayed")
            if self.expansion not in ("displayed", "expanded"):
                raise ConfigError("hecu.expansion must be displayed or "
                                  "expanded")
        elif self.problem == "oscillator":
            block = _object(raw.get("oscillator"), "oscillator",
                            ("c_pot", "n_pot", "alpha", "g", "nu", "cut"))
            nu = _numbers(block.get("nu", []), "oscillator.nu")
            cut = _cut(block, "oscillator", len(nu), 16)
            self.params = OscillatorParams(
                _entry(block, "c_pot", "oscillator"),
                _entry(block, "n_pot", "oscillator", int),
                _entry(block, "alpha", "oscillator"),
                _series_spec(block.get("g", 1.0), len(nu), cut, "oscillator g"),
                nu=nu, cut=cut)
            self.data = build_oscillator_field(self.params)
        else:
            self.data = _map_from_config(raw.get(kind), kind)
        if self.problem == "helicoure":
            validate_shear_field(self.data)
        elif self.problem != "hecu":
            self.data.validate_reduced()
        self._check_truncation()

        if command == "diagnose-operators":
            sec = _object(raw.get("sector"), "sector", ("beta", "rho"))
            self.sector = operators.Sector(
                *(_entry(sec, key, "sector") for key in ("beta", "rho")),
                self.data.k)
            diag = _object(raw.get("diagnostics"), "diagnostics",
                           ("mu", "iterates", "grid", "probe"))
            self.mu = _entry(diag, "mu", "diagnostics", default=0.5)
            self.iterates = _entry(diag, "iterates", "diagnostics", int, 1000, 0)
            self.grid = _numbers(diag.get("grid", [20, 20]), "diagnostics.grid",
                                 int, (1, 1))
            _check_samples(self.grid, 16, "diagnostics.grid")
            _check_steps(self.iterates, math.prod(self.grid),
                         "diagnostics.iterates", MAX_GRID_STEPS, "points")
            self.probe = diag.get("probe")
            if self.probe is not None:
                probe = _object(self.probe, "diagnostics.probe",
                                ("ball_alpha", "samples", "n_iter"))
                self.probe = {
                    "ball_alpha": _entry(probe, "ball_alpha",
                                         "diagnostics.probe", default=0.5),
                    "samples": _numbers(probe.get("samples", [8, 5, 8]),
                                        "diagnostics.probe.samples", int,
                                        (2, 2, 1)),
                    "n_iter": _entry(probe, "n_iter", "diagnostics.probe",
                                     int, 10, 0)}
                n_r, n_phi, n_th = self.probe["samples"]
                samples = [n_r, n_phi] + [n_th] * self.data.dim
                size = 16 * max(self.data.dim, 1) * (2 * self.data.cut + 1)
                _check_samples(samples, size, "diagnostics.probe.samples")
                _check_steps(self.probe["n_iter"], math.prod(samples) * size,
                             "diagnostics.probe.n_iter", MAX_PROBE_BYTES,
                             "bytes")

    def _check_truncation(self):
        """ConfigError unless the solve's truncation order, derived from
        n_target, is at most MAX_TRUNC.  It bounds every order the run
        builds at: hecu's field build, of degree max(6, n_target + 2), stays
        below the shear truncation n_target + 4."""
        n = self.n_target
        if self.problem in ("hecu", "helicoure"):
            top = truncation("shear", n)
        else:
            top = truncation("power", n, self.data.k, self.data.p, self.data.d)
        if top > MAX_TRUNC:
            raise ConfigError("truncation order %d is above %d (n_target %d)"
                              % (top, MAX_TRUNC, n))


def _load_json(path):
    def unique(pairs):   # json.load alone keeps a doubled key's last value
        out = {}
        for k, v in pairs:
            if k in out:
                raise ConfigError("%s: key %r written twice" % (path, k), key=k)
            out[k] = v
        return out

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as err:
        raise ConfigError("cannot read %s: %s" % (path, err))
    except ValueError as err:
        raise ConfigError("%s is not valid JSON: %s" % (path, err))


def _deep_merge(base, override):
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# solve commands
# ---------------------------------------------------------------------------

def _solve(cfg):
    """Solve one checked run: (pairs, residual reports, summary extras), the
    reports keyed like the pairs."""
    if cfg.problem == "hecu":
        # residuals are measured in the solve coordinates; the emitted pairs
        # live in wall coordinates
        stable, unstable, report, reports = hecu_manifolds(
            cfg.params, cfg.n_target, cfg.expansion, cfg.theta_leading,
            **cfg.solve_kw)
        return ({"stable": stable, "unstable": unstable}, reports,
                {"hecu_report": report})
    data, extras = cfg.data, {}
    if cfg.problem == "custom-map":
        pair, residual = solve_to_order(data, cfg.n_target, cfg.branch,
                                        **cfg.solve_kw)
    elif cfg.problem == "helicoure":
        pair, residual = solve_helicoure(data, cfg.n_target, cfg.branch,
                                         cfg.theta_leading, **cfg.solve_kw)
        extras["theta_leading"] = cfg.theta_leading
    else:
        pair, residual = solve_flow_to_order(data, cfg.n_target, cfg.branch,
                                             **cfg.solve_kw)
    if cfg.problem == "oscillator":
        abar = cfg.params.alpha * cfg.params.g.average()
        quadratic = data.y_terms.coefficient((2, 0)).average()
        extras["oracle_deltas"] = {
            "quadratic_mean": abs(quadratic - abar),
            "normal_form_lead": abs(
                abs(pair.inner_coeff(2)) - math.sqrt(abar / 6.0)),
        }
    return {"pair": pair}, {"pair": residual_report(pair, residual)}, extras


def _run_solve(cfg, out_dir):
    """Solve one checked run and write its pairs, residuals and summary."""
    pairs, reports, extras = _solve(cfg)
    summary = dict(extras, problem=cfg.problem, branch=cfg.branch,
                   n_target=cfg.n_target, residuals={}, orders={})
    one = len(pairs) == 1
    for name, pair in sorted(pairs.items()):
        _write(out_dir, "pair.json" if one else "%s.json" % name,
               canonical_json(pair_payload(pair)))
        _write(out_dir, "residual.csv" if one else "residual_%s.csv" % name,
               residual_csv(reports[name]))
        summary["residuals"][name] = report_payload(reports[name])
        summary["orders"][name] = {
            "achieved": pair.order,
            "contract": list(pair.contract_orders()),
            "truncation": pair.trunc,
        }
    if "hecu_report" in extras:
        _write(out_dir, "hecu_report.json",
               canonical_json(extras["hecu_report"]))
    _write(out_dir, "summary.json", canonical_json(summary))


def _cmd_solve(args):
    raw = _object(_load_json(args.config), "config root")
    sweep = raw.pop("sweep", None)
    if sweep is not None and not (isinstance(sweep, list) and all(
            isinstance(entry, dict) for entry in sweep)):
        raise ConfigError("sweep must be a list of override objects")
    if not sweep:
        _run_solve(RunConfig(raw, args.command, args.order, args.branch),
                   args.out)
        return 0
    # every entry is checked before the first one is solved
    runs = [RunConfig(_deep_merge(raw, entry), args.command, args.order,
                      args.branch) for entry in sweep]
    index = []
    for i, (cfg, entry) in enumerate(zip(runs, sweep)):
        _run_solve(cfg, os.path.join(args.out, "sweep_%03d" % i))
        index.append({"entry": i, "override": entry, "dir": "sweep_%03d" % i})
    _write(args.out, "sweep_index.json", canonical_json(index))
    return 0


# ---------------------------------------------------------------------------
# operator diagnostics
# ---------------------------------------------------------------------------

def _cmd_diagnose(args):
    cfg = RunConfig(_object(_load_json(args.config), "config root"),
                    args.command, args.order, args.branch)
    sector = cfg.sector
    pair, residual = solve_to_order(cfg.data, cfg.n_target, cfg.branch,
                                    **cfg.solve_kw)
    out = {"order": pair.order, "mu": cfg.mu,
           "sector": {"beta": sector.beta, "rho": sector.rho, "k": sector.k}}

    out["sector_iterates"] = operators.sector_iterate_check(
        pair.inner, sector, cfg.mu, cfg.iterates, grid_shape=cfg.grid)

    out["inverse_norm_limit"] = operators.map_inverse_norm_limit(
        pair.order, pair.k, cfg.mu, sector.rho)

    if cfg.probe is not None:
        out["contraction"] = operators.contraction_probe(
            cfg.data, pair, residual, sector, cfg.mu, **cfg.probe)
    _write(args.out, "operators.json", canonical_json(out))
    return 0


# ---------------------------------------------------------------------------
# artifact comparison
# ---------------------------------------------------------------------------

def _cmd_compare(args):
    def load_pair(path):
        payload = _load_json(path)
        try:
            return pair_from_payload(payload)
        except ConfigError as err:   # the header, a box, an order or a number
            raise ConfigError("%s: %s" % (path, err), **err.detail)
        except (ValueError, KeyError, TypeError, IndexError, OverflowError,
                AttributeError, DimensionMismatch) as err:
            raise ConfigError("%s is not a manifold payload: %r" % (path, err))

    tol = _positive(args.tol, "--tol")
    a, b = load_pair(args.a), load_pair(args.b)
    diff = compare_pairs(a, b, tol=tol)
    report = {
        "a": {"path": args.a, "order": a.order, "branch": a.branch},
        "b": {"path": args.b, "order": b.order, "branch": b.branch},
        "tol": tol,
        "first_differing_order": diff,
        "identical": all(v is None for v in
                         [diff["x"], diff["y"], diff["inner"]] + diff["theta"]),
    }
    text = canonical_json(report)
    if args.out:
        _write(args.out, "compare.json", text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = _Parser(prog="paratori",
                     description="Invariant manifolds of parabolic tori: "
                                 "order-by-order solves and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _PROBLEMS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--order", type=int, default=None)
        sp.add_argument("--branch", choices=("stable", "unstable"),
                        default=None)

    cp = sub.add_parser("compare")
    cp.add_argument("a")
    cp.add_argument("b")
    cp.add_argument("--out", default=None)
    cp.add_argument("--tol", type=float, default=1e-11)

    try:
        args = parser.parse_args(argv)
        # finite data that overflows in a solve is refused by its contract
        # check (exit 2), so numpy's warnings on the way would be noise
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "compare":
                return _cmd_compare(args)
            if args.command == "diagnose-operators":
                return _cmd_diagnose(args)
            return _cmd_solve(args)
    except ParatoriError as err:
        sys.stderr.write(canonical_json(err.payload()))
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
