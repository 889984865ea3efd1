#!/usr/bin/env python3
"""Record the reference outputs that checks.py compares every run with.

    python3 perfbench/record_reference.py [workload ...]

Run it at the commit whose outputs are the reference. The files in
perfbench/reference/ were recorded at the seed commit; re-recording them
to make a changed program pass defeats the check. BLAS threads are
pinned to one, as in run.py: with the library's default thread count the
N = 1601 runs write other CSV bytes (their values stay within the
check's tolerance).
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from checks import REFERENCE_DIR, csv_digests, final_array, series_array  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(workload, directory=REFERENCE_DIR):
    """Run every preset of `workload` once and store its reference."""
    from porogrowth import coupling, outputs

    os.makedirs(directory, exist_ok=True)
    arrays, presets = {}, {}
    for name in workload.presets:
        cfg = workload.config(name)
        trajectory = coupling.run(cfg.scenario, cfg.params)
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            digests = csv_digests(outputs.emit_outputs(trajectory, cfg, tmp))
        arrays[name + "/series"] = series_array(trajectory)
        arrays[name + "/final"] = final_array(trajectory)
        presets[name] = {
            "steps": len(trajectory.diagnostics),
            "sweeps": sum(d.iterations for d in trajectory.diagnostics),
            "csv_sha256": digests,
        }
    base = os.path.join(directory, workload.name)
    np.savez_compressed(base + ".npz", **arrays)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.describe(), "presets": presets},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(names):
    for name in names or WORKLOADS:
        record(WORKLOADS[name])
        print(f"recorded {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
