"""Write the seed-0 reference artifacts into perfbench/reference/.

Run from the root of a checkout of the commit the references should pin:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs each workload's CLI task once on the default inputs and keeps the
artifacts the checks compare against: the manifold pairs, the probe report,
and for flow-2torus the trajectory values recomputed at the tighter
``reference_tol``.
"""

import json
import os
import shutil
import sys

import paratori.cli
from paratori.ioutil import pair_from_payload

from inputs import FLOW_INTEGRAL, WORKLOADS, make_inputs
from tasks import PAIR_FILES, REFERENCE_DIR, trajectory_values


def main():
    root = os.path.dirname(os.path.dirname(REFERENCE_DIR))
    work = os.path.join(root, ".perfbench_work", "reference")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    try:
        for workload in WORKLOADS:
            inputs = make_inputs(workload, 0)
            config_path = os.path.join(work, "config.json")
            out_dir = os.path.join(work, workload)
            with open(config_path, "w") as fh:
                json.dump(inputs["config"], fh)
            code = paratori.cli.main([inputs["command"], "--config",
                                      config_path, "--out", out_dir])
            if code != 0:
                sys.exit("%s exited with %d" % (workload, code))
            keep = PAIR_FILES[workload] + (["operators.json"]
                                           if workload == "probe" else [])
            for name in keep:
                shutil.copy(os.path.join(out_dir, name),
                            os.path.join(REFERENCE_DIR,
                                         "%s.%s" % (workload, name)))
            if workload == "flow-2torus":
                with open(os.path.join(out_dir, "pair.json")) as fh:
                    pair = pair_from_payload(json.load(fh))
                values = trajectory_values(pair, inputs["starts"],
                                           FLOW_INTEGRAL["reference_tol"])
                with open(os.path.join(REFERENCE_DIR,
                                       "flow-2torus.values.json"), "w") as fh:
                    json.dump([[complex(v).real, complex(v).imag]
                               for v in values], fh)
            print("wrote reference for", workload, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))


if __name__ == "__main__":
    main()
