"""Command line front end.

Subcommands run one problem each from a JSON config file and write
deterministic artifacts (manifold payload, residual CSV, summary) into the
output directory.  Every failure exits through the documented code map:

    0  success
    2  configuration problem (bad file, bad schema, bad structure)
    3  violated solvability hypothesis (signs, energy threshold, ...)
    4  small-divisor underflow (resonant or near-resonant frequency)
    5  diagnostic bound violation (sector/orbit/contraction checks)

with a machine-readable JSON description of the error on stderr.
"""

import argparse
import json
import math
import os
import sys

from . import operators
from .applications import (HeCuParams, OscillatorParams,
                           build_oscillator_field, hecu_manifolds)
from .errors import (BoundViolated, CNotInvertible, ConfigError,
                     ContractViolated, DimensionMismatch, Diverged,
                     EnergyBelowThreshold, FlowLeftSector, HypothesisViolated,
                     NonPositiveLeadingCoefficient, NonZeroAverage,
                     ParatoriError, SingularSystem, SmallDivisorUnderflow,
                     StructureViolation, TailNotConverged, TruncationTooLow,
                     ZeroLeadingCoefficient)
from .flow_solver import solve_flow_to_order, solve_helicoure
from .fourier import FourierSeries
from .ioutil import (canonical_json, pair_from_payload, pair_payload,
                     report_payload, residual_csv)
from .map_solver import solve_to_order
from .mapdata import TaylorFourierMap
from .pairs import compare_pairs, residual_report

_CODE_CONFIG = 2
_CODE_HYPOTHESIS = 3
_CODE_SMALL_DIVISOR = 4
_CODE_BOUND = 5

_ERROR_CODES = (
    (SmallDivisorUnderflow, _CODE_SMALL_DIVISOR),
    ((BoundViolated, TailNotConverged, Diverged, FlowLeftSector), _CODE_BOUND),
    ((HypothesisViolated, NonPositiveLeadingCoefficient,
      ZeroLeadingCoefficient, CNotInvertible, EnergyBelowThreshold),
     _CODE_HYPOTHESIS),
    ((ConfigError, DimensionMismatch, StructureViolation, NonZeroAverage,
      SingularSystem, TruncationTooLow), _CODE_CONFIG),
)


def _error_payload(err):
    detail = {}
    if isinstance(err, SmallDivisorUnderflow):
        detail = {"mode": list(err.mode), "magnitude": err.magnitude,
                  "floor": err.floor}
    elif isinstance(err, ContractViolated):
        detail = {"order": err.order, "component": err.component,
                  "defect": err.defect, "tol": err.tol}
    elif isinstance(err, BoundViolated) and hasattr(err, "witness"):
        u, j = err.witness
        detail = {"witness_point": complex(u), "witness_iterate": int(j)}
    for cls, code in _ERROR_CODES:
        if isinstance(err, cls):
            return code, {"error": type(err).__name__, "exit_code": code,
                          "message": str(err), "detail": detail}
    return _CODE_CONFIG, {"error": type(err).__name__,
                          "exit_code": _CODE_CONFIG,
                          "message": str(err), "detail": detail}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(canonical_json({
            "error": "ConfigError", "exit_code": _CODE_CONFIG,
            "message": message, "detail": {}}))
        raise SystemExit(_CODE_CONFIG)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _number(value, what, cast=float, least=-math.inf):
    """A finite config number converted by ``cast`` and at least ``least``,
    else a ConfigError."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s: expected a number, got %r" % (what, value))
    if not math.isfinite(out):
        raise ConfigError("%s: expected a finite number, got %r" % (what, value))
    if out < least:
        raise ConfigError("%s: expected at least %s, got %r" % (what, least, value))
    return out


def _entry(block, key, what, cast=float, default=None, least=-math.inf):
    """``block[key]`` (``default`` when missing) through _number."""
    if key not in block and default is None:
        raise ConfigError("%s block misses %r" % (what, key))
    return _number(block.get(key, default), "%s.%s" % (what, key), cast, least)


def _numbers(value, what, cast=float, least=None):
    """A config list of numbers; ``least`` fixes its length and bounds."""
    if not isinstance(value, list) or (least and len(value) != len(least)):
        raise ConfigError("%s must be a list of %s numbers"
                          % (what, len(least) if least else "finite"))
    return [_number(v, what, cast, lo)
            for v, lo in zip(value, least or [-math.inf] * len(value))]


def _object(block, what):
    """A config object; a missing one reads as empty."""
    if block is not None and not isinstance(block, dict):
        raise ConfigError("%s must be an object" % what)
    return block or {}


def _series_spec(spec, dim, cut, what):
    """A coefficient from config: plain number, or {const, modes} where
    modes maps 'k1,k2,...' to [re, im] of the one-sided coefficient."""
    if isinstance(spec, (int, float)):
        return FourierSeries.constant(_number(spec, what), dim, cut)
    if not isinstance(spec, dict) or not isinstance(spec.get("modes", {}), dict):
        raise ConfigError("%s: expected number or {const, modes}" % what)
    s = FourierSeries.constant(_number(spec.get("const", 0.0), what), dim, cut)
    modes = {}
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
        modes[mode] = complex(re, im)
    if modes:
        s = s + FourierSeries.from_modes(modes, dim, cut)
    return s


def _terms_spec(block, dim, cut, what):
    out = {}
    for key, spec in _object(block, what).items():
        try:
            l, m = (int(t) for t in str(key).split(","))
        except ValueError:
            raise ConfigError("%s: bad exponent key %r, expected 'l,m'"
                              % (what, key))
        if l < 0 or m < 0:
            raise ConfigError("%s: negative exponent in %r" % (what, key))
        out[(l, m)] = _series_spec(spec, dim, cut, "%s[%s]" % (what, key))
    return out


def _map_from_config(block, kind):
    block = _object(block, kind)
    for key in ("cut", "freqs"):
        if key not in block:
            raise ConfigError("problem block misses %r" % key)
    freqs = _numbers(block["freqs"], "freqs")
    d = _number(block.get("d", len(freqs) if kind == "map" else 1), "d", int, 0)
    drive = _number(block.get("drive", 0), "drive", int, 0)
    if kind == "map" and drive:
        raise ConfigError("maps take no drive axes; bake forcing into d")
    dim = d + drive
    cut = _number(block["cut"], "cut", int, 0)
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
    """Validated run settings shared by the solve subcommands."""

    _PROBLEMS = ("custom-map", "custom-flow", "oscillator", "hecu",
                 "helicoure")

    def __init__(self, raw, order=None, branch=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        self.raw = raw
        self.problem = raw.get("problem")
        if self.problem not in self._PROBLEMS:
            raise ConfigError("problem must be one of %s, got %r"
                              % (", ".join(self._PROBLEMS), self.problem))
        self.n_target = _number(order if order is not None
                                else raw.get("n_target", 0), "n_target", int, 2)
        self.branch = branch or raw.get("branch", "stable")
        if self.branch not in ("stable", "unstable"):
            raise ConfigError("branch must be stable or unstable")
        trunc = raw.get("trunc")
        sd_floor = _number(raw.get("sd_floor", 1e-12), "sd_floor")
        assert_tol = _number(raw.get("assert_tol", 1e-9), "assert_tol")
        if sd_floor <= 0 or assert_tol <= 0:
            raise ConfigError("tolerances must be positive")
        # the keywords every order-by-order solve takes
        self.solve_kw = {"branch": self.branch, "sd_floor": sd_floor,
                         "trunc": None if trunc is None
                         else _number(trunc, "trunc", int),
                         "assert_tol": assert_tol}
        self.theta_leading = raw.get("theta_leading", "closed_form")
        self.sweep = raw.get("sweep")
        if self.sweep is not None and not isinstance(self.sweep, list):
            raise ConfigError("sweep must be a list of override objects")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError("cannot read config: %s" % err)
    except ValueError as err:
        raise ConfigError("config is not valid JSON: %s" % err)


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

def _solve_one(cfg):
    """Build and solve the configured problem; returns (pairs, summary)."""
    problem, raw = cfg.problem, cfg.raw
    extras = {}
    if problem == "custom-map":
        data = _map_from_config(raw.get("map"), "map")
        pairs = {"pair": solve_to_order(data, cfg.n_target, **cfg.solve_kw)}
    elif problem == "custom-flow":
        data = _map_from_config(raw.get("field"), "field")
        pairs = {"pair": solve_flow_to_order(data, cfg.n_target,
                                             **cfg.solve_kw)}
    elif problem == "helicoure":
        data = _map_from_config(raw.get("field"), "field")
        pairs = {"pair": solve_helicoure(data, cfg.n_target,
                                         theta_leading=cfg.theta_leading,
                                         **cfg.solve_kw)}
        extras["theta_leading"] = cfg.theta_leading
    elif problem == "oscillator":
        block = _object(raw.get("oscillator"), "oscillator")
        nu = _numbers(block.get("nu", []), "oscillator.nu")
        cut = _entry(block, "cut", "oscillator", int, 16, 0)
        params = OscillatorParams(
            _entry(block, "c_pot", "oscillator"),
            _entry(block, "n_pot", "oscillator", int),
            _entry(block, "alpha", "oscillator"),
            _series_spec(block.get("g", 1.0), len(nu), cut, "oscillator g"),
            nu=nu, cut=cut)
        data = build_oscillator_field(params)
        pair = solve_flow_to_order(data, cfg.n_target, **cfg.solve_kw)
        pairs = {"pair": pair}
        abar = params.alpha * params.g.average()
        extras["oracle_deltas"] = {
            "quadratic_mean": abs(data.coefficient_y((2, 0)).average() - abar),
            "normal_form_lead": abs(
                abs(pair.inner_coeff(2)) - math.sqrt(abar / 6.0)),
        }
    elif problem == "hecu":
        block = _object(raw.get("hecu"), "hecu")
        params = HeCuParams(
            *(_entry(block, key, "hecu") for key in ("D", "alpha_morse", "m", "h")),
            _entry(block, "g_surface", "hecu", default=0.0),
            cut=_entry(block, "cut", "hecu", int, 16, 0))
        stable, unstable, rep, reports = hecu_manifolds(
            params, cfg.n_target,
            expansion=block.get("expansion", "displayed"),
            theta_leading=cfg.theta_leading, return_reports=True)
        pairs = {"stable": stable, "unstable": unstable}
        extras["hecu_report"] = rep
        return None, pairs, extras, reports
    else:  # pragma: no cover - guarded by RunConfig
        raise ConfigError("unhandled problem %r" % problem)
    return data, pairs, extras, None


def _summarize(cfg, data, pairs, extras, out_dir, ready_reports=None):
    summary = {"problem": cfg.problem, "branch": cfg.branch,
               "n_target": cfg.n_target}
    summary.update(extras)
    for name, pair in sorted(pairs.items()):
        fname = "pair.json" if len(pairs) == 1 else "%s.json" % name
        _write(out_dir, fname, canonical_json(pair_payload(pair)))
        rep = None
        if ready_reports is not None:
            rep = ready_reports.get(name)
        elif data is not None:
            rep = residual_report(data, pair)
        if rep is not None:
            csv_name = ("residual.csv" if len(pairs) == 1
                        else "residual_%s.csv" % name)
            _write(out_dir, csv_name, residual_csv(rep))
            summary.setdefault("residuals", {})[name] = report_payload(rep)
        summary.setdefault("orders", {})[name] = {
            "achieved": pair.order,
            "contract": list(pair.contract_orders()),
            "truncation": pair.trunc,
        }
    _write(out_dir, "summary.json", canonical_json(summary))
    return summary


def _run_solve(cfg, out_dir):
    data, pairs, extras, ready_reports = _solve_one(cfg)
    if cfg.problem == "hecu":
        # residual measurements come from the solve coordinates; the emitted
        # pairs live in wall coordinates
        _write(out_dir, "hecu_report.json",
               canonical_json(extras["hecu_report"]))
    _summarize(cfg, data, pairs, extras, out_dir, ready_reports)
    return 0


def _cmd_solve(args, expected_problem):
    raw = _load_config(args.config)
    cfg = RunConfig(raw, order=args.order, branch=args.branch)
    if cfg.problem != expected_problem:
        raise ConfigError("config problem is %r but the subcommand expects %r"
                          % (cfg.problem, expected_problem))
    if cfg.sweep:
        index = []
        for i, override in enumerate(cfg.sweep):
            if not isinstance(override, dict):
                raise ConfigError("sweep entry %d is not an object" % i)
            merged = _deep_merge(raw, override)
            merged.pop("sweep", None)
            sub = RunConfig(merged, order=args.order, branch=args.branch)
            sub_dir = os.path.join(args.out, "sweep_%03d" % i)
            _run_solve(sub, sub_dir)
            index.append({"entry": i, "override": override,
                          "dir": "sweep_%03d" % i})
        _write(args.out, "sweep_index.json", canonical_json(index))
        return 0
    return _run_solve(cfg, args.out)


# ---------------------------------------------------------------------------
# operator diagnostics
# ---------------------------------------------------------------------------

def _cmd_diagnose(args):
    raw = _load_config(args.config)
    cfg = RunConfig(raw, order=args.order, branch=args.branch)
    if cfg.problem != "custom-map":
        raise ConfigError("diagnose-operators runs on a custom-map config")
    data = _map_from_config(raw.get("map"), "map")
    sec = _object(raw.get("sector"), "sector")
    beta, rho = (_entry(sec, key, "sector") for key in ("beta", "rho"))
    diag = _object(raw.get("diagnostics"), "diagnostics")
    mu = _entry(diag, "mu", "diagnostics", default=0.5)
    iterates = _entry(diag, "iterates", "diagnostics", int, 1000, 0)
    grid = _numbers(diag.get("grid", [20, 20]), "diagnostics.grid", int, (1, 1))
    probe = diag.get("probe")
    if probe is not None:
        probe = _object(probe, "diagnostics.probe")
        probe = {"ball_alpha": _entry(probe, "ball_alpha", "diagnostics.probe",
                                      default=0.5),
                 "samples": _numbers(probe.get("samples", [8, 5, 8]),
                                     "diagnostics.probe.samples", int, (2, 2, 1)),
                 "n_iter": _entry(probe, "n_iter", "diagnostics.probe", int,
                                  10, 0)}
    data.validate_reduced()  # the sector needs a valid leading order k
    sector = operators.Sector(beta, rho, data.k)
    pair = solve_to_order(data, cfg.n_target, **cfg.solve_kw)
    out = {"order": pair.order, "mu": mu,
           "sector": {"beta": sector.beta, "rho": sector.rho, "k": sector.k}}

    out["sector_iterates"] = operators.sector_iterate_check(
        pair.inner, sector, mu, iterates, grid_shape=grid)

    out["inverse_norm_limit"] = operators.map_inverse_norm_limit(
        pair.order, pair.k, mu, sector.rho)

    if probe is not None:
        out["contraction"] = operators.contraction_probe(
            data, pair, sector, mu, **probe)
    _write(args.out, "operators.json", canonical_json(out))
    return 0


# ---------------------------------------------------------------------------
# artifact comparison
# ---------------------------------------------------------------------------

def _cmd_compare(args):
    def load_pair(path):
        try:
            with open(path) as fh:
                return pair_from_payload(json.load(fh))
        except OSError as err:
            raise ConfigError("cannot read %s: %s" % (path, err))
        except (ValueError, KeyError) as err:
            raise ConfigError("%s is not a manifold payload: %s" % (path, err))

    a, b = load_pair(args.a), load_pair(args.b)
    diff = compare_pairs(a, b, tol=args.tol)
    report = {
        "a": {"path": args.a, "order": a.order, "branch": a.branch},
        "b": {"path": args.b, "order": b.order, "branch": b.branch},
        "tol": args.tol,
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

    solve_names = {
        "solve-map": "custom-map",
        "solve-flow": "custom-flow",
        "helicoure": "helicoure",
        "oscillator": "oscillator",
        "hecu": "hecu",
    }
    for name in list(solve_names) + ["diagnose-operators"]:
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

    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "diagnose-operators":
            return _cmd_diagnose(args)
        return _cmd_solve(args, solve_names[args.command])
    except ParatoriError as err:
        code, payload = _error_payload(err)
        sys.stderr.write(canonical_json(payload))
        return code


if __name__ == "__main__":
    raise SystemExit(main())
