#!/usr/bin/env python3
"""porogrowth benchmark: time to a finished, correct run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds nothing: it imports porogrowth from the checkout's `src/` and
drives it through the public API the CLI uses (`config.preset`,
`coupling.run`, `outputs.emit_outputs`), single-process and with every
BLAS/OpenMP pool pinned to one thread. A workload iteration runs all of
the workload's preset runs; iterations repeat until --seconds have
passed. Every run's output is checked (see checks.py); a run that
raises, crashes or fails the check counts as failed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of traced iterations (alternated with untraced ones, for the
tracing overhead). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs
every workload in both modes in child processes and prints every
metric. Detail (provenance, samples, failures) goes to
perfbench/.out/. README.md gives the workload rationale and the
layer -> metric -> workload table.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
sys.path.insert(0, HERE)

# numpy and porogrowth are imported inside functions, after main() has
# pinned the thread variables
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: fresh processes timed per run; setup_s is their median
SETUP_REPEATS = 9


class Tally:
    """Attempted and failed preset runs, with one reason line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.identical = 0   # runs whose CSVs match the seed byte for byte

    def fail(self, name, reason):
        self.failures.append(f"{name}: {reason}")


def run_iteration(configs, reference, out_root, tally):
    """Run every preset once; returns (wall_s, run_s, sweeps).

    wall_s sums, per preset, the time from the `coupling.run` call until
    its last CSV is written: what `porogrowth sweep` spends, without the
    benchmark's own checks in between.
    """
    from porogrowth import coupling, outputs
    from porogrowth.errors import PorogrowthError

    from checks import csv_digests

    wall = run_s = 0.0
    sweeps = 0
    for name, cfg in configs:
        tally.attempted += 1
        out_dir = os.path.join(out_root, name)
        t0 = time.perf_counter()
        try:
            trajectory = coupling.run(cfg.scenario, cfg.params)
            t1 = time.perf_counter()
            paths = outputs.emit_outputs(trajectory, cfg, out_dir)
            t2 = time.perf_counter()
        except PorogrowthError as exc:
            wall += time.perf_counter() - t0
            tally.fail(name, f"{type(exc).__name__}: {exc}")
            continue
        except Exception:
            # a crash of one run is recorded and counted, not fatal
            wall += time.perf_counter() - t0
            tally.fail(name, "crash: " + traceback.format_exc(limit=3))
            continue
        wall += t2 - t0
        run_s += t1 - t0
        sweeps += sum(d.iterations for d in trajectory.diagnostics)
        problems, identical = reference.check(name, trajectory, csv_digests(paths))
        tally.identical += identical
        if problems:
            tally.fail(name, "; ".join(problems))
        shutil.rmtree(out_dir)
    return wall, run_s, sweeps


def setup_times(workload, repeats):
    """Seconds of set-up of the workload's first preset, measured in
    `repeats` fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, probe, workload.presets[0], str(workload.nodes)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, seed, seconds, trace, reference,
            setup_repeats=SETUP_REPEATS, out_root=None, spans_path=None):
    """Measure one workload; returns the result dict (see module doc)."""
    from tracing import Tracer, layer_metrics, tail_index

    out_root = out_root or os.path.join(OUT, "runs", workload.name)
    order = workload.order(seed)
    configs = [(name, workload.config(name)) for name in order]
    setup = setup_times(workload, setup_repeats)

    tally = Tally()
    plain = []    # (wall_s, run_s, sweeps) of untraced iterations
    traced = []   # (wall_s, layer metrics) of traced iterations
    tracer = None
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            with Tracer() as tracer:
                wall, _, _ = run_iteration(configs, reference, out_root, tally)
            traced.append((wall, layer_metrics(tracer)))
        else:
            plain.append(run_iteration(configs, reference, out_root, tally))
        if (time.perf_counter() - start >= seconds
                and (not trace or traced)):
            break
    if tracer is not None and spans_path:
        tracer.write(spans_path)

    walls = [w for w, _, _ in plain]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "order": order,
        "definition": workload.describe(),
        "samples": {"wall_s": walls, "setup_s": setup,
                    "sweeps": [s for _, _, s in plain]},
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:50],
        "csv_identical_to_seed": f"{tally.identical}/{tally.attempted}",
    }
    if trace:
        result["metrics"] = traced_metrics(plain, traced)
    else:
        # needs 11 iterations in one run; otherwise take the tail over
        # repeated runs of the benchmark
        tail = tail_index(len(walls))
        result["wall_s_tail"] = None if tail is None else sorted(walls)[tail]
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


def traced_metrics(plain, traced):
    """Medians over traced iterations, plus the two cross-mode ratios."""
    names = list(traced[0][1])
    metrics = {name: statistics.median(m[name] for _, m in traced)
               for name in names}
    plain_run_s = statistics.median(r for _, r, _ in plain)
    sweeps = metrics["coupling.sweeps"]
    metrics["coupling.sweep_us"] = 1e6 * plain_run_s / sweeps if sweeps else None
    metrics["trace.overhead_ratio"] = (
        statistics.median(w for w, _ in traced)
        / statistics.median(w for w, _, _ in plain))
    return metrics


def git_commit():
    """HEAD commit of the checkout, or None when it is not a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def src_digest():
    """SHA-256 over every file under src/, identifying the code measured."""
    import hashlib

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def units():
    """Metric name -> unit, as BENCHMARK.json names them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result):
    """Print every metric by name with its unit, then the result line."""
    unit = units()
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['attempted']} runs attempted, "
          f"{result['failed']} failed")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value!r} {unit[name]}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if "provenance" in result:
        print("  provenance " + json.dumps(result["provenance"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()},
    }))


def run_one(args):
    from checks import Reference

    workload = WORKLOADS[args.workload]
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    result = measure(workload, args.seed, args.seconds, args.trace,
                     Reference(workload.name), spans_path=stem + ".spans.jsonl")
    result["provenance"] = provenance()
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return 0


def run_all(args):
    """Every workload in both modes, each in its own process."""
    unit = units()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            for metric, entry in line["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
                print(f"{name:16s} {metric:28s} {entry['value']!r} {unit[metric]}")
    with open(os.path.join(OUT, f"all-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(combined, fh, indent=1)
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "porogrowth", "__init__.py")):
        print(f"error: no porogrowth sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
