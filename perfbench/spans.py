"""Layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of the ``paratori`` modules by
timing wrappers.  A function is wrapped wherever it is bound: every module
attribute and class attribute inside the package that holds the original
object is pointed at the wrapper (so ``FourierSeries.__rmul__`` is covered
with ``__mul__``, and ``residual_jets`` in ``pairs``, ``map_solver`` and
``flow_solver`` alike).  ``install`` fails if an original stays reachable
anywhere in the package.

Spans are aggregated in memory per name: call count, inclusive seconds and
seconds spent in directly nested spans (for self time).  A span nested in a
span of the same name adds to the count but not again to the time.
"""

import sys
import time

import numpy as np

from paratori.fourier import FourierSeries
from paratori.jets import TFJet

# (span name, module, attribute path) of every wrapped function
TARGETS = [
    ("fourier.mul", "paratori.fourier", "FourierSeries.__mul__"),
    ("fourier.eval", "paratori.fourier", "FourierSeries.eval"),
    ("fourier.solve_sd", "paratori.fourier", "solve_sd_map"),
    ("fourier.solve_sd", "paratori.fourier", "solve_sd_flow"),
    ("jets.tfjet_mul", "paratori.jets", "TFJet.__mul__"),
    ("jets.tfjet_mul", "paratori.jets", "TFJet.mul_upoly"),
    ("jets.angle_taylor", "paratori.jets", "angle_taylor"),
    ("jets.eval_xy_terms", "paratori.jets", "eval_xy_terms"),
    ("jets.compose_inner", "paratori.jets", "TFJet.compose_inner"),
    ("jets.upoly_call", "paratori.jets", "UPoly.__call__"),
    ("mapdata.subst", "paratori.mapdata", "XYPoly.subst"),
    ("pairs.residual_jets", "paratori.pairs", "residual_jets"),
    ("pairs.residual_report", "paratori.pairs", "residual_report"),
    ("map_solver.extend_order", "paratori.map_solver", "extend_order"),
    ("map_solver.init_order2", "paratori.map_solver", "init_order2"),
    ("flow_solver.solve_helicoure", "paratori.flow_solver", "solve_helicoure"),
    ("flow_solver.solve_flow_to_order", "paratori.flow_solver",
     "solve_flow_to_order"),
    ("operators.contraction_probe", "paratori.operators", "contraction_probe"),
    ("operators.sector_iterate_check", "paratori.operators",
     "sector_iterate_check"),
    ("operators.flow_orbit_integral", "paratori.operators",
     "flow_orbit_integral"),
    ("applications.build_hecu_field", "paratori.applications",
     "build_hecu_field"),
    ("applications.hecu_manifolds", "paratori.applications", "hecu_manifolds"),
    ("ioutil.canonical_json", "paratori.ioutil", "canonical_json"),
    ("cli.main", "paratori.cli", "main"),
]

# bindings named explicitly as import sites that must end up wrapped
REQUIRED_SITES = [
    ("paratori.fourier", "FourierSeries.__rmul__"),
    ("paratori.pairs", "residual_jets"),
    ("paratori.map_solver", "residual_jets"),
    ("paratori.flow_solver", "residual_jets"),
    ("paratori.flow_solver", "extend_order"),
    ("paratori.flow_solver", "init_order2"),
    ("paratori.cli", "solve_flow_to_order"),
    ("paratori.cli", "solve_helicoure"),
    ("paratori.cli", "hecu_manifolds"),
    ("paratori.cli", "residual_report"),
    ("paratori.cli", "canonical_json"),
    ("paratori.applications", "solve_helicoure"),
    ("paratori.applications", "residual_report"),
]


def _resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _is_constant(series):
    """Every coefficient off the zero mode is exactly zero."""
    c = series.coeffs
    nz = np.count_nonzero(c)
    if series.dim == 0 or nz == 0:
        return True
    return nz == 1 and c[(series.cut,) * series.dim] != 0


class Tracer:
    """Aggregated spans plus the product counters of the Fourier layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}          # name -> [calls, inclusive_s, child_s]
        self.mul_coeffs = 0      # input coefficients of series products
        self.mul_const = 0       # series products with a constant operand
        self._stack = []         # child-seconds accumulator per open span
        self._open = {}          # name -> nesting depth
        self._patched = []       # (owner, attribute, original)

    # ----- recording ------------------------------------------------------

    def _wrap(self, name, fn, record=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, open_ = self._stack, self._open
        clock = self.clock

        def span(*args, **kwargs):
            if record is not None and not record(*args):
                return fn(*args, **kwargs)
            depth = open_.get(name, 0)
            open_[name] = depth + 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[name] = depth
                stats[0] += 1
                if depth == 0:
                    stats[1] += dt
                    stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt

        span.__wrapped__ = fn
        return span

    def _series_product(self, a, b=None, *rest):
        if not isinstance(b, FourierSeries):
            return False
        self.mul_coeffs += a.coeffs.size + b.coeffs.size
        if _is_constant(a) or _is_constant(b):
            self.mul_const += 1
        return True

    @staticmethod
    def _jet_product(a, b=None, *rest):
        return isinstance(b, TFJet)

    def count(self, name, n=1):
        """Add calls to a counter that has no timing (benchmark-side)."""
        self.stats.setdefault(name, [0, 0.0, 0.0])[0] += n

    # ----- installation ---------------------------------------------------

    def install(self):
        """Wrap every target wherever the package binds it."""
        record = {("paratori.fourier", "FourierSeries.__mul__"):
                  self._series_product,
                  ("paratori.jets", "TFJet.__mul__"): self._jet_product}
        wrappers = {}
        for name, module, path in TARGETS:
            fn = _resolve(module, path)
            wrappers[id(fn)] = (fn, self._wrap(name, fn,
                                               record.get((module, path))))
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        left = [(owner.__name__, attr) for owner in self._owners()
                for attr, value in vars(owner).items()
                if id(value) in wrappers and wrappers[id(value)][0] is value]
        missing = [site for site in REQUIRED_SITES
                   if getattr(_resolve(*site), "__wrapped__", None) is None]
        if left or missing:
            self.uninstall()
            raise RuntimeError("unwrapped bindings: %s" % (left + missing))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    @staticmethod
    def _owners():
        """Every paratori module and every class defined in one."""
        out = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "paratori"
                                   or mod_name.startswith("paratori.")):
                continue
            out.append(mod)
            for value in vars(mod).values():
                if (isinstance(value, type)
                        and value.__module__.startswith("paratori")
                        and value not in out):
                    out.append(value)
        return out
