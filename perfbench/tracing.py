"""Span tracing of porogrowth from outside the package.

Each layer's public functions are wrapped at the binding their caller
looks up: `coupling._advance` calls `fixed_point_step` through the
coupling module's globals, `adr.solve_adr` calls the `solve_banded` it
imported into adr, and so on. Patching only the defining module would
miss those calls. Spans (name, start, end, parent) are kept in memory
and written out once, when the benchmark ends.
"""

import importlib
import json
import os
import statistics
import time

#: (module, attribute, span name): every binding the traced run replaces
BINDINGS = (
    ("porogrowth.coupling", "run", "coupling.run"),
    ("porogrowth.coupling", "fixed_point_step", "coupling.fixed_point_step"),
    ("porogrowth.coupling", "kinetics_fields", "constitutive.kinetics_fields"),
    ("porogrowth.coupling", "MixtureState", "state.MixtureState"),
    ("porogrowth.coupling", "sample_xi_field", "state.sample_xi_field"),
    ("porogrowth.poroelastic", "assemble", "poroelastic.assemble"),
    ("porogrowth.poroelastic", "solve", "poroelastic.solve"),
    ("porogrowth.poroelastic", "solve_banded", "linalg.solve_banded"),
    ("porogrowth.adr", "build_oxygen_problem", "adr.build_oxygen_problem"),
    ("porogrowth.adr", "build_species_problem", "adr.build_species_problem"),
    ("porogrowth.adr", "solve_adr", "adr.solve_adr"),
    ("porogrowth.adr", "assemble_adr", "adr.assemble_adr"),
    ("porogrowth.adr", "bernoulli", "adr.bernoulli"),
    ("porogrowth.adr", "solve_banded", "linalg.solve_banded"),
    ("porogrowth.outputs", "emit_outputs", "outputs.emit_outputs"),
)


class ClosureError(AssertionError):
    """The recorded spans do not nest: a child outlived its parent."""


class Tracer:
    """Records nested spans while its bindings are patched in.

    Use as a context manager; the original bindings are restored on
    exit, also when the traced code raises.
    """

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {"steps": 0, "sweeps": 0, "unknowns": 0, "bytes": 0}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[index][1:3] = t0, time.perf_counter()
                stack.pop()
                observe(name, args, None, exc)
                raise
            spans[index][1:3] = t0, time.perf_counter()
            stack.pop()
            observe(name, args, result, None)
            return result

        return traced

    def _observe(self, name, args, result, exc):
        """Counts taken at the layer boundary, outside the span."""
        counts = self.counts
        if name == "coupling.fixed_point_step":
            report = getattr(exc, "report", None) if exc else result[1]
            if report is not None:
                counts["sweeps"] += report.iterations
            counts["steps"] += exc is None
        elif name == "linalg.solve_banded":
            counts["unknowns"] += args[0].n
        elif name == "outputs.emit_outputs" and exc is None:
            counts["bytes"] += sum(os.path.getsize(p) for p in result)

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def check_closure(spans):
    """Raise ClosureError unless every child lies inside its parent.

    The benchmark is single-threaded, so the children of one span run
    one after another and their durations cannot add up to more than
    the parent's.
    """
    covered = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            raise ClosureError(f"span {i} ({name}) ends before it starts")
        if parent < 0:
            continue
        p_name, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            raise ClosureError(
                f"span {i} ({name}) leaves its parent {parent} ({p_name})")
        covered[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        # children's clock reads are nested inside the parent's, so only
        # float rounding of the differences can exceed the parent
        if covered[i] > (end - start) * (1 + 1e-9) + 1e-9:
            raise ClosureError(f"children of span {i} ({name}) exceed it")
    return covered


def layer_totals(spans, covered):
    """name -> [calls, total seconds, self seconds]."""
    totals = {}
    for (name, start, end, _), child in zip(spans, covered):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child
    return totals


def tail_index(n):
    """Index into n sorted samples of the highest percentile that has at
    least ten samples beyond it, or None when n < 11."""
    return n - 11 if n >= 11 else None


def layer_metrics(tracer):
    """Per-layer metrics of one traced workload iteration.

    Durations include the wrappers' own cost; `trace.overhead_ratio`
    (computed by the caller) says how much that is.
    """
    spans = tracer.spans
    covered = check_closure(spans)
    totals = layer_totals(spans, covered)

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    counts = tracer.counts
    steps = sorted(end - start for name, start, end, _ in spans
                   if name == "coupling.fixed_point_step")
    tail = tail_index(len(steps))
    run_s = total("coupling.run")
    # outermost spans of the layers below coupling inside coupling.run;
    # the rest of the run is coupling's own time
    below = sum(
        end - start for name, start, end, parent in spans
        if parent >= 0 and not name.startswith("coupling.")
        and spans[parent][0].startswith("coupling."))
    solves = calls("linalg.solve_banded")
    emit_s = total("outputs.emit_outputs")
    return {
        "coupling.run_s": run_s,
        "coupling.steps": counts["steps"],
        "coupling.sweeps": counts["sweeps"],
        "coupling.step_ms_p50": 1e3 * statistics.median(steps) if steps else None,
        "coupling.step_ms_tail": 1e3 * steps[tail] if tail is not None else None,
        "coupling.self_s": self_time("coupling.fixed_point_step"),
        "linalg.solve_s": total("linalg.solve_banded"),
        "linalg.calls": solves,
        "linalg.us_per_call": 1e6 * total("linalg.solve_banded") / solves if solves else None,
        "linalg.unknowns_per_call": counts["unknowns"] / solves if solves else None,
        "adr.assemble_s": self_time("adr.assemble_adr"),
        "adr.bernoulli_s": total("adr.bernoulli"),
        "adr.bernoulli_calls": calls("adr.bernoulli"),
        "adr.build_s": (total("adr.build_oxygen_problem")
                        + total("adr.build_species_problem")),
        "adr.solve_calls": calls("adr.solve_adr"),
        "poroelastic.assemble_s": total("poroelastic.assemble"),
        "poroelastic.solve_self_s": self_time("poroelastic.solve"),
        "poroelastic.calls": calls("poroelastic.solve"),
        "constitutive.kinetics_s": total("constitutive.kinetics_fields"),
        "constitutive.kinetics_calls": calls("constitutive.kinetics_fields"),
        "state.validate_s": total("state.MixtureState"),
        "state.xi_s": total("state.sample_xi_field"),
        "outputs.emit_s": emit_s,
        "outputs.bytes": counts["bytes"],
        "outputs.mb_per_s": counts["bytes"] / 1e6 / emit_s if emit_s else None,
        "trace.coverage": below / run_s if run_s else None,
    }
