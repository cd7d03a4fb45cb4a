"""Shared builders for the test suite.

Most tests construct small problem instances inline; the builders here are
the ones reused across files (the reference quasi-periodic map and the two
exactly-solvable fixtures whose parameterizations are known in closed form),
plus the launchers that the subprocess tests share, the two pointwise
oracles of the right-inverse identities (``transfer_difference``,
``drift_derivative``), which no program code needs, the per-mode
reference sum (``mode_sum``) that pointwise evaluation is checked against,
the grid values and grid sup norm of a series by FFT synthesis
(``values_on_grid``, ``sup_grid``),
``solve_history``, a power-class solve that keeps the pair of every
order for the residual-slope tests, and the session fixtures that share
one solve between tests.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import paratori
from paratori.errors import DimensionMismatch
from paratori.fourier import FourierSeries
from paratori.jets import TableStack
from paratori.map_solver import (extend_order, init_order2, power_seed,
                                 solve_to_order)
from paratori.mapdata import TaylorFourierMap

GOLDEN = (np.sqrt(5) - 1) / 2

# Directory holding the paratori package this test process imported: src/
# under the tier-1 command, site-packages for an installed copy.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    paratori.__file__)))


def run_python(args, cwd=None):
    """Run `python args` in a separate process.

    The child gets PYTHONPATH with PACKAGE_ROOT first, so it runs the same
    package as the tests from any working directory, even when the suite's
    own PYTHONPATH is relative.  Entries already in PYTHONPATH follow it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + list(args),
                          capture_output=True, text=True,
                          cwd=None if cwd is None else str(cwd), env=env)


def run_cli(args, cwd=None, python_flags=()):
    """Run `python [python_flags] -m paratori.cli args` through
    ``run_python``."""
    return run_python(list(python_flags) + ["-m", "paratori.cli"] + args, cwd)


def transfer_difference(phi, inner, freqs, u, theta=None):
    """(phi composed with one normal-form step) minus phi, at one point."""
    freqs = np.asarray(freqs, dtype=float)
    th = None if theta is None else np.asarray(theta, dtype=float) + freqs
    return phi(inner(u), th) - phi(u, theta)


def drift_derivative(phi, velocity, freqs, u, theta=None, step=1e-6):
    """Directional derivative of phi along the drift (u-velocity plus linear
    angle advance) by one small forward/backward trajectory step each."""
    freqs = np.asarray(freqs, dtype=float)

    def advance(h):
        # single RK4 step of the scalar trajectory
        k1 = velocity(u)
        k2 = velocity(u + h / 2 * k1)
        k3 = velocity(u + h / 2 * k2)
        k4 = velocity(u + h * k3)
        z = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        th = None if theta is None else np.asarray(theta, dtype=float) + h * freqs
        return z, th

    zp, tp = advance(step)
    zm, tm = advance(-step)
    return (phi(zp, tp) - phi(zm, tm)) / (2 * step)


def mode_sum(series, theta):
    """sum_k c_k e^{2 pi i k.theta} of a series at angles (..., dim), one
    np.exp per mode: complex, of the batch shape."""
    theta = np.asarray(theta)
    total = np.zeros(theta.shape[:-1], dtype=complex)
    for idx in np.ndindex(*series.coeffs.shape):
        k = np.array(idx, dtype=float) - series.cut
        total += series.coeffs[idx] * np.exp(2j * np.pi * (theta @ k))
    return total


def table_values(data, x, y, theta):
    """Every term table of a map or field at one point, through one
    ``TableStack``: [x_terms, y_terms, theta_terms[0], ...]."""
    return TableStack([data.x_terms, data.y_terms]
                      + data.theta_terms).eval(x, y, theta)


def values_on_grid(series, n):
    """Real values of a series on the uniform n-per-axis grid, by FFT
    synthesis: shape (n,) * dim."""
    if n < 2 * series.cut + 1:
        raise DimensionMismatch("%d points miss |k| <= %d" % (n, series.cut))
    big = np.zeros((n,) * series.dim, dtype=complex)
    picks = [np.arange(-series.cut, series.cut + 1) % n] * series.dim
    big[np.ix_(*picks)] = series.coeffs
    return np.asarray(np.real(np.fft.ifftn(big) * big.size))


def sup_grid(series, n=None):
    """The grid sup norm of a series: the largest modulus of its
    ``values_on_grid``, by default on max(64, 4 cut + 1) points per axis."""
    if n is None:
        n = max(64, 4 * series.cut + 1)
    return float(np.max(np.abs(values_on_grid(series, n))))


def dense_series(rng, dim, cut):
    """A real series with a random coefficient on every mode of the box."""
    box = (2 * cut + 1,) * dim
    return FourierSeries(rng.standard_normal(box) + 1j * rng.standard_normal(box))


def one_mode(avg, amp, dim, cut, axis=0):
    """avg + amp*cos(2 pi theta_axis) as a series on the dim-torus."""
    mode = tuple(1 if a == axis else 0 for a in range(dim))
    f = FourierSeries.zero(dim, cut) + avg
    if amp:
        f = f + FourierSeries.from_modes({mode: 0.5 * amp}, dim, cut)
    return f


def reference_map(cut=32):
    """Quasi-periodically forced parabolic map used throughout.

    x' = x + c(theta) y,  y' = y + a(theta) x^2,  theta' = theta + omega + x
    with c = 1 + 0.1 cos(2 pi theta), a = 6 + cos(2 pi theta).
    """
    c = one_mode(1.0, 0.1, 1, cut)
    a2 = one_mode(6.0, 1.0, 1, cut)
    d1 = FourierSeries.zero(1, cut) + 1.0
    return TaylorFourierMap("map", 1, 0, cut, (GOLDEN,),
                            {(0, 1): c}, {(2, 0): a2}, [{(1, 0): d1}],
                            k=2, p=1)


def reference_flow(cut=8):
    """Same leading data as an ODE with one extra driving phase.

    theta lives on a 2-torus hull: one dynamic angle (frequency omega at
    leading order) plus one driven phase rotating at sqrt(2).
    """
    c = FourierSeries.zero(2, cut) + 1.0 \
        + FourierSeries.from_modes({(1, 0): 0.05, (0, 1): 0.03}, 2, cut)
    a2 = FourierSeries.zero(2, cut) + 6.0 \
        + FourierSeries.from_modes({(1, 0): 0.5, (1, 1): 0.2}, 2, cut)
    d1 = FourierSeries.zero(2, cut) + 1.0 \
        + FourierSeries.from_modes({(0, 1): 0.1}, 2, cut)
    return TaylorFourierMap("field", 1, 1, cut, (GOLDEN, np.sqrt(2)),
                            {(0, 1): c}, {(2, 0): a2}, [{(1, 0): d1}],
                            k=2, p=1)


def exact_map(cut=4):
    """Map whose stable pair is polynomial: K = (u^2, -2u^3 + u^4, theta - u)
    with inner contraction u - u^2.  Every tail coefficient beyond these
    vanishes, so the solver output can be checked exactly."""
    return TaylorFourierMap(
        "map", 1, 0, cut, (GOLDEN,),
        {(0, 1): 1.0},
        {(2, 0): 6.0, (1, 1): 5.0, (3, 0): 3.0, (2, 1): 2.0, (4, 0): -1.0},
        [{(1, 0): 1.0}], k=2, p=1)


def exact_flow(cut=4):
    """Field with polynomial stable pair K = (u^2, -2u^3, theta - u) and
    inner velocity -u^2: xdot = y, ydot = 6 x^2, thetadot = omega + x."""
    return TaylorFourierMap(
        "field", 1, 0, cut, (GOLDEN,),
        {(0, 1): 1.0},
        {(2, 0): 6.0},
        [{(1, 0): 1.0}], k=2, p=1)


def shear_example(cut=4):
    """Vertical-shear field from the worked example: xdot = 2y,
    ydot = -xy, thetadot = omega + 3y.  Stable pair is again polynomial."""
    return TaylorFourierMap(
        "field", 1, 0, cut, (GOLDEN,),
        {(0, 1): 2.0},
        {(1, 1): -1.0},
        [{(0, 1): 3.0}])


def solve_history(data, n_target):
    """The pair of a power-class map or field solved to order ``n_target``
    as ``solve_to_order`` solves it, with a copy of the pair at every order:
    returns (final_pair, final_residual, history) where history[i] has
    invariance order 2 + i."""
    pair, residual = init_order2(data, power_seed(data, "stable"), n_target)
    history = [pair.copy()]
    while pair.order < n_target:
        residual = extend_order(data, pair, residual)
        history.append(pair.copy())
    return pair, residual, history


@pytest.fixture(scope="session")
def solved_reference():
    """Reference map solved once to order 8 with the pair at every order;
    reused by the slope, comparison and probe tests to keep the suite fast.
    Returns (map, final_pair, final_residual, history) where history[i] has
    invariance order 2 + i."""
    mp = reference_map()
    return (mp,) + solve_history(mp, 8)


@pytest.fixture(scope="session")
def solved_exact_map():
    """``exact_map`` solved once to order 6 through ``solve_to_order``; its
    degenerate-step record is read by the acceptance and map-solver tests."""
    pair, _ = solve_to_order(exact_map(), 6)
    return pair
