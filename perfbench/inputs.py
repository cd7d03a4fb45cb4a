"""Workload inputs, generated from a seed with the standard library only.

Seed 0 is the default: it reproduces the reference configurations exactly
(the data of ``tests/conftest.py::reference_map`` / ``reference_flow`` and
the helium/copper wall problem), and only on seed 0 are outputs compared
against the stored reference artifacts.  Any other seed perturbs

* every forcing amplitude (the non-zero Fourier modes of the map and flow
  coefficients) by a relative factor drawn uniformly from
  ``1 +- AMPLITUDE_BAND``;
* for ``hecu-expanded``, which has no forcing, the well depth ``D`` and the
  energy ``h`` by a relative factor drawn from ``1 +- HECU_BAND``;
* for ``flow-2torus``, the two trajectory start points: radii drawn from
  ``START_RADII``, the argument of the complex point from
  ``+- START_ARG``, and every start angle from [0, 1).

The perturbations keep the mode boxes, orders and term structure, so every
seed does the same algebra; only the trajectory integrals vary slightly in
their step counts.
"""

import math
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

AMPLITUDE_BAND = 0.05
HECU_BAND = 0.02
START_RADII = (0.02, 0.035)
START_ARG = 0.3

# trajectory-integral settings of flow-2torus: integrand
# u^3 (1 + 0.2 sin 2 pi theta0 + 0.1 cos 2 pi theta1), order 3, decay rate
# mu, quadrature tolerance tol; start points lie in Sector(pi/2, rho, 2)
FLOW_INTEGRAL = {"eta_order": 3, "mu": 0.5, "tol": 1e-7,
                 "reference_tol": 1e-10, "sector_beta": math.pi / 2,
                 "sector_rho": 0.05}
DEFAULT_STARTS = [
    {"u": [0.03, 0.0], "theta": [0.7, 0.2]},
    {"u": [0.02, 0.005], "theta": [0.3, 0.9]},
]

WORKLOADS = ("map-ref", "hecu-expanded", "probe", "flow-2torus")


def _series(const, modes):
    """Config coefficient: const plus real one-sided mode amplitudes."""
    return {"const": const, "modes": {k: [v, 0.0] for k, v in modes.items()}}


def _map_block(scale):
    return {
        "cut": 32, "freqs": [GOLDEN], "d": 1, "k": 2, "p": 1,
        "x_terms": {"0,1": _series(1.0, {"1": 0.05 * scale()})},
        "y_terms": {"2,0": _series(6.0, {"1": 0.5 * scale()})},
        "theta_terms": [{"1,0": 1.0}],
    }


def _flow_block(scale):
    return {
        "cut": 8, "freqs": [GOLDEN, math.sqrt(2.0)], "d": 1, "drive": 1,
        "k": 2, "p": 1,
        "x_terms": {"0,1": _series(1.0, {"1,0": 0.05 * scale(),
                                         "0,1": 0.03 * scale()})},
        "y_terms": {"2,0": _series(6.0, {"1,0": 0.5 * scale(),
                                         "1,1": 0.2 * scale()})},
        "theta_terms": [{"1,0": _series(1.0, {"0,1": 0.1 * scale()})}],
    }


def _starts(rng):
    out = []
    for complex_point in (False, True):
        r = rng.uniform(*START_RADII)
        arg = rng.uniform(-START_ARG, START_ARG) if complex_point else 0.0
        out.append({"u": [r * math.cos(arg), r * math.sin(arg)],
                    "theta": [rng.random(), rng.random()]})
    return out


def make_inputs(workload, seed):
    """Return {"command", "config", "starts"} for one workload and seed.

    ``command`` is the CLI subcommand, ``config`` the JSON config it reads
    and ``starts`` the trajectory start points (flow-2torus only).
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random(seed)

    def scale(band=AMPLITUDE_BAND):
        return 1.0 if seed == 0 else 1.0 + rng.uniform(-band, band)

    starts = None
    if workload == "map-ref":
        command = "solve-map"
        config = {"problem": "custom-map", "n_target": 8,
                  "map": _map_block(scale)}
    elif workload == "probe":
        command = "diagnose-operators"
        config = {"problem": "custom-map", "n_target": 8,
                  "map": _map_block(scale),
                  "sector": {"beta": math.pi / 2, "rho": 0.02},
                  "diagnostics": {"mu": 0.5, "iterates": 1000,
                                  "grid": [20, 20],
                                  "probe": {"samples": [8, 5, 8],
                                            "n_iter": 4}}}
    elif workload == "hecu-expanded":
        command = "hecu"
        config = {"problem": "hecu", "n_target": 5,
                  "hecu": {"D": 6.35 * scale(HECU_BAND), "alpha_morse": 1.05,
                           "m": 1.0, "h": 12.7 * scale(HECU_BAND),
                           "expansion": "expanded"}}
    else:
        command = "solve-flow"
        config = {"problem": "custom-flow", "n_target": 6,
                  "field": _flow_block(scale)}
        starts = DEFAULT_STARTS if seed == 0 else _starts(rng)
    return {"command": command, "config": config, "starts": starts}
