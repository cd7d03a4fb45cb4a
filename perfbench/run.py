"""paratori benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map-ref --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --compare before.json after.json

The first form measures one workload (map-ref, hecu-expanded, probe or
flow-2torus; see perfbench/workloads.json for why each was chosen).  An
untraced run times the set-up of a fresh interpreter several times; every
run then starts one worker process with single-threaded BLAS/OpenMP that
runs tasks in a closed loop for the given seconds and checks every output.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also writes the full result (environment,
samples, metrics) to FILE.

The second form prints per-metric ratios between two saved results (files
written by ``--out`` or captured stdout).

The program is always imported from ``src/`` of the checkout this script
sits in; without it the benchmark exits with status 2.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a fresh interpreter's set-up (import the CLI, load the config), timed from
# the launcher's spawn and sampled for host speed while it runs; prints
# [raw, adjusted] seconds; argv: config path, perfbench directory, spawn
# time (time.monotonic)
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import HostSpeed
speed = HostSpeed()
with speed.periodic():
    import json
    import paratori.cli
    json.load(open(sys.argv[1]))
ready = time.monotonic() - float(sys.argv[3]) - speed.wall
speed.sample()
print(json.dumps([ready, speed.adjusted(ready)]))
"""


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "paratori")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def measure_setup(config_path, env, deadline):
    """[(raw, adjusted) set-up seconds] of SETUP_REPEATS fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, config_path, HERE, repr(spawn)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.perf_counter())
        if proc.returncode != 0:
            raise BenchError("set-up interpreter exited with %d"
                             % proc.returncode)
        out.append(json.loads(proc.stdout))
    return out


def run_worker(args, work_dir, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=deadline - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = os.path.realpath(os.path.join(SRC, "paratori"))
    if os.path.realpath(result["package"]) != want:
        raise BenchError("worker imported paratori from %s, not %s"
                         % (result["package"], want))
    return result


def measure(args):
    if not os.path.isfile(os.path.join(SRC, "paratori", "__init__.py")):
        raise BenchError("no program sources at %s" % SRC)
    deadline = time.perf_counter() + DEADLINE_S
    env = _env()
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        inputs = make_inputs(args.workload, args.seed)
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(inputs["config"], fh)
        setup = [] if args.trace else measure_setup(config_path, env,
                                                   deadline)
        result = run_worker(args, work_dir, env, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    records = result["records"]
    failed = sum(not r["ok"] for r in records)
    metrics = result["metrics"]
    if args.trace:
        if result["idle_spans"]:
            raise BenchError("no calls recorded on %s for: %s"
                             % (args.workload, ", ".join(result["idle_spans"])))
    else:
        metrics = dict(setup_s={"value": statistics.median(a for _, a in setup),
                                "unit": "s"}, **metrics)
        result["reported"]["setup_raw_s"] = {
            "value": statistics.median(t for t, _ in setup), "unit": "s"}
    env_record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": result["numpy"], "scipy": result["scipy"],
        "git_revision": _revision(), "src_sha256": _src_digest(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env_record,
        "samples": {"setup_raw_s": [t for t, _ in setup],
                    "setup_s": [a for _, a in setup],
                    "task_s": [r["wall"] for r in records],
                    "task_cpu_s": [r["cpu"] for r in records]},
        "fail_ratio": failed / len(records),
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": metrics, "reported": result["reported"],
    }


def report(full):
    print("workload %s  seed %d  seconds %g  trace %d"
          % (full["workload"], full["seed"], full["seconds"], full["trace"]))
    print("environment " + json.dumps(full["environment"], sort_keys=True))
    n_tasks = full["attempted"]
    n_setup = len(full["samples"]["setup_s"])
    counts = {"setup_s": n_setup, "setup_raw_s": n_setup,
              "task_adj_s.p50": n_tasks, "task_s.p50": n_tasks,
              "task_cpu_s.p50": n_tasks, "kernel_s.p50": n_tasks}
    for name, m in list(full["metrics"].items()) + list(full["reported"].items()):
        n = counts.get(name)
        print("%-36s %16.6g %-12s%s" % (name, m["value"], m["unit"],
                                         "  (median of %d)" % n if n else ""))
    print("%-36s %16.6g %-12s  (%d failed of %d)"
          % ("fail_ratio", full["fail_ratio"], "ratio", full["failed"],
             full["attempted"]))
    print(json.dumps({key: full[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def _load_result(path):
    """Metrics of a file written by --out (reported ones included) or of a
    captured stdout (its last line)."""
    with open(path) as fh:
        text = fh.read()
    try:
        full = json.loads(text)
    except ValueError:
        full = json.loads(text.strip().splitlines()[-1])
    return dict(full["metrics"], **full.get("reported", {}))


def compare(path_a, path_b):
    a, b = _load_result(path_a), _load_result(path_b)
    better = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as fh:
            spec = json.load(fh)
        for m in spec["end_to_end"] + spec["per_layer"]:
            better[m["name"]] = m["better"]
    print("%-36s %14s %14s %10s  %-12s %s"
          % ("metric", "a", "b", "b/a", "unit", "better"))
    for name in a:
        if name not in b:
            continue
        va, vb = a[name]["value"], b[name]["value"]
        ratio = "%10.4f" % (vb / va) if va else "%10s" % "-"
        print("%-36s %14.6g %14.6g %s  %-12s %s"
              % (name, va, vb, ratio, a[name]["unit"], better.get(name, "")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        full = measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        sys.stderr.write("benchmark failed: %s\n" % err)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1)
    report(full)
    return 0


if __name__ == "__main__":
    sys.exit(main())
