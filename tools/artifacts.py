"""Write the CLI artifacts of the benchmark workloads, for byte comparison.

Usage: python tools/artifacts.py DIR

Runs ``paratori.cli.main`` of this checkout on the config of each benchmark
workload (``perfbench/inputs.make_inputs``) at seeds 0, 1 and 2, and writes
each run's config and artifacts into DIR/<workload>-<seed>/.  For
flow-2torus it also writes ``values.json``: the two trajectory values of
the benchmark (``perfbench/tasks.trajectory_values`` on the run's pair, at
the benchmark's tolerance), so the comparison covers the trajectory
integrator too.  The artifacts are deterministic: two runs in fresh
interpreters give trees that ``diff -r`` finds equal, and so do two
checkouts whose arithmetic agrees.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from inputs import FLOW_INTEGRAL, WORKLOADS, make_inputs  # noqa: E402
from paratori.cli import main  # noqa: E402
from paratori.ioutil import canonical_json, pair_from_payload  # noqa: E402
from tasks import trajectory_values  # noqa: E402

SEEDS = (0, 1, 2)


def write_artifacts(out_dir):
    for workload in WORKLOADS:
        for seed in SEEDS:
            run = make_inputs(workload, seed)
            target = os.path.join(out_dir, "%s-%d" % (workload, seed))
            os.makedirs(target, exist_ok=True)
            config = os.path.join(target, "config.json")
            with open(config, "w") as fh:
                json.dump(run["config"], fh, sort_keys=True)
            code = main([run["command"], "--config", config, "--out", target])
            if code != 0:
                raise SystemExit("%s at seed %d exited %d"
                                 % (workload, seed, code))
            if workload == "flow-2torus":
                with open(os.path.join(target, "pair.json")) as fh:
                    pair = pair_from_payload(json.load(fh))
                values = trajectory_values(pair, run["starts"],
                                           FLOW_INTEGRAL["tol"])
                with open(os.path.join(target, "values.json"), "w") as fh:
                    fh.write(canonical_json(values))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    write_artifacts(sys.argv[1])
