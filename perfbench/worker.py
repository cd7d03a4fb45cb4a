"""Closed-loop task runner for one workload, started by ``run.py``.

One process, one thread: tasks run one after another until the window has
passed (at least one task), each timed by wall clock and process CPU time.
Host-speed samples (``hostspeed.py``) are taken between tasks and every
half second during them.  With ``--trace 1`` the first half of the window
runs untraced and the second half with the layer spans of ``spans.py``
installed; per-layer values are reported per traced task.  The last line
of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy
import paratori
import scipy

from hostspeed import HostSpeed
from inputs import make_inputs
from spans import Tracer
from tasks import load_reference, run_task

# per-layer metrics read from one span: "<span>.<field>", where field is
# "calls", "s" (inclusive seconds) or "self_s"
SPAN_METRICS = [
    "fourier.mul.calls", "fourier.mul.s",
    "fourier.eval.calls", "fourier.eval.s",
    "fourier.solve_sd.calls", "fourier.solve_sd.s",
    "jets.tfjet_mul.calls", "jets.tfjet_mul.s",
    "jets.angle_taylor.calls", "jets.angle_taylor.s",
    "jets.eval_xy_terms.s", "jets.compose_inner.s", "jets.upoly_call.calls",
    "mapdata.subst.calls", "mapdata.subst.s",
    "pairs.residual_jets.calls", "pairs.residual_jets.s",
    "pairs.residual_report.s",
    "map_solver.extend_order.calls", "map_solver.extend_order.s",
    "map_solver.extend_order.self_s", "map_solver.init_order2.s",
    "flow_solver.solve_helicoure.s", "flow_solver.solve_flow_to_order.s",
    "operators.contraction_probe.s", "operators.sector_iterate_check.s",
    "operators.flow_orbit_integral.calls", "operators.flow_orbit_integral.s",
    "operators.integrand.calls",
    "applications.build_hecu_field.s", "applications.hecu_manifolds.s",
    "ioutil.canonical_json.s", "cli.main.self_s",
]

# spans that must record calls on a workload, from the metric table
ALL = ("map-ref", "hecu-expanded", "probe", "flow-2torus")
EXPECTED_WORK = {
    "fourier.mul": ALL,
    "fourier.eval": ("probe",),
    "fourier.solve_sd": ALL,
    "jets.tfjet_mul": ALL,
    "jets.angle_taylor": ALL,
    "jets.eval_xy_terms": ALL,
    "jets.compose_inner": ("map-ref", "probe"),
    "jets.upoly_call": ("probe", "flow-2torus"),
    "mapdata.subst": ("hecu-expanded",),
    "pairs.residual_jets": ALL,
    "pairs.residual_report": ("map-ref", "hecu-expanded", "flow-2torus"),
    "map_solver.extend_order": ("map-ref", "probe", "flow-2torus"),
    "map_solver.init_order2": ("map-ref", "probe", "flow-2torus"),
    "flow_solver.solve_helicoure": ("hecu-expanded",),
    "flow_solver.solve_flow_to_order": ("flow-2torus",),
    "operators.contraction_probe": ("probe",),
    "operators.sector_iterate_check": ("probe",),
    "operators.flow_orbit_integral": ("flow-2torus",),
    "operators.integrand": ("flow-2torus",),
    "applications.build_hecu_field": ("hecu-expanded",),
    "applications.hecu_manifolds": ("hecu-expanded",),
    "ioutil.canonical_json": ALL,
    "cli.main": ALL,
}


def order_steps(config):
    """Order steps of one task: each solved pair is built at order 2 and
    raised one order at a time to n_target (hecu solves two branches)."""
    return (config["n_target"] - 1) * (2 if config["problem"] == "hecu" else 1)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def run_window(workload, inputs, config_path, out_dir, ref, seconds, speed,
               tracer=None):
    """Run tasks until ``seconds`` have passed; return per-task records.

    Each record holds the task's wall and CPU seconds (host-speed sampling
    excluded), its wall seconds adjusted to the nominal host speed, the mean
    kernel time over its span, whether every check passed and the bytes it
    wrote.
    """
    records = []
    counter = tracer.count if tracer is not None else None
    start = time.perf_counter()
    speed.sample()
    while not records or time.perf_counter() - start < seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        first = len(speed.samples) - 1
        t0, c0 = speed.clock(), speed.cpu_clock()
        try:
            fails = run_task(workload, inputs, config_path, out_dir, ref,
                             counter)
        except Exception:  # a task that raises counts as failed
            fails = [traceback.format_exc()]
        wall, cpu = speed.clock() - t0, speed.cpu_clock() - c0
        speed.sample()
        for msg in fails:
            sys.stderr.write("task %d failed: %s\n" % (len(records), msg))
        records.append({"wall": wall, "cpu": cpu,
                        "adjusted": speed.adjusted(wall, first),
                        "kernel": statistics.mean(speed.samples[first:]),
                        "ok": not fails,
                        "bytes": _dir_bytes(out_dir)
                        if os.path.isdir(out_dir) else 0})
    return records


def adjusted_p50(records):
    """Median over tasks of the wall time at the nominal host speed."""
    return statistics.median(r["adjusted"] for r in records)


def task_metrics(records):
    """(gated end-to-end metrics, metrics reported only) of a window;
    set-up time is measured by run.py."""
    walls = [r["wall"] for r in records]
    gated = {"task_adj_s.p50": {"value": adjusted_p50(records), "unit": "s"}}
    reported = {
        "task_s.p50": {"value": statistics.median(walls), "unit": "s"},
        "task_cpu_s.p50": {"value": statistics.median(r["cpu"]
                                                      for r in records),
                           "unit": "s"},
        "tasks_per_s": {"value": len(records) / sum(walls), "unit": "1/s"},
        "kernel_s.p50": {"value": statistics.median(r["kernel"]
                                                    for r in records),
                         "unit": "s"},
    }
    return gated, reported


def layer_metrics(tracer, workload, config, traced, untraced):
    """Per-task layer values of the traced window."""
    n = len(traced)
    out = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        calls, incl, child = tracer.stats.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "s": incl, "self_s": incl - child}[field]
        out[name] = {"value": value / n,
                     "unit": "count" if field == "calls" else "s"}
    mul_calls = tracer.stats["fourier.mul"][0]
    out["fourier.mul.coeffs"] = {"value": tracer.mul_coeffs / n,
                                 "unit": "count"}
    out["fourier.mul.const_operand_ratio"] = {
        "value": tracer.mul_const / mul_calls if mul_calls else 0.0,
        "unit": "ratio"}
    out["pairs.residual_jets.per_order"] = {
        "value": tracer.stats["pairs.residual_jets"][0] / n
        / order_steps(config), "unit": "calls/order"}
    out["ioutil.bytes_written"] = {
        "value": statistics.median(r["bytes"] for r in traced),
        "unit": "bytes"}
    out["trace.overhead_ratio"] = {
        "value": adjusted_p50(traced) / adjusted_p50(untraced),
        "unit": "ratio"}
    idle = sorted(span for span, loads in EXPECTED_WORK.items()
                  if workload in loads and tracer.stats.get(span, [0])[0] == 0)
    return out, idle


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    inputs = make_inputs(args.workload, args.seed)
    config_path = os.path.join(args.work_dir, "config.json")
    out_dir = os.path.join(args.work_dir, "out")
    ref = load_reference(args.workload) if args.seed == 0 else None

    result = {"package": os.path.dirname(os.path.abspath(paratori.__file__)),
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    speed = HostSpeed()
    window = (args.workload, inputs, config_path, out_dir, ref)
    with speed.periodic():
        if not args.trace:
            result["records"] = run_window(*window, args.seconds, speed)
            result["metrics"], result["reported"] = task_metrics(
                result["records"])
        else:
            untraced = run_window(*window, args.seconds / 2, speed)
            tracer = Tracer(speed.clock)
            tracer.install()
            try:
                traced = run_window(*window, args.seconds / 2, speed, tracer)
            finally:
                tracer.uninstall()
            result["records"] = untraced + traced
            result["metrics"], result["idle_spans"] = layer_metrics(
                tracer, args.workload, inputs["config"], traced, untraced)
            result["reported"] = {}
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
