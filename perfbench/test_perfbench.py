"""The benchmark's own tests: failure accounting, metric emission and the
output check, on tiny runs (N = 11, six steps)."""

import json
import os
import sys

import pytest

import run
import tracing
from checks import Reference
from record_reference import record
from workloads import SECONDS_PER_DAY, Workload

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

TINY = Workload(
    name="tiny", presets=("perfused-ic2-kg2-cthr", "static-ic1-kg1-csat"),
    nodes=11, days=6 * 3600.0 / SECONDS_PER_DAY)


class NonConvergingWorkload(Workload):
    """TINY's first preset with a tolerance no fixed point can meet."""

    def config(self, name):
        import dataclasses

        cfg = super().config(name)
        return dataclasses.replace(cfg, scenario=dataclasses.replace(
            cfg.scenario, tol=1e-16, max_iter=2))


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reference")
    record(TINY, str(directory))
    return str(directory)


def result_line(result, capsys):
    run.report(result)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_nonconvergence_counts_as_one_failure(tmp_path, capsys):
    from porogrowth import coupling
    from porogrowth.errors import NonConvergenceError

    workload = NonConvergingWorkload(
        name="tiny-failing", presets=TINY.presets[:1],
        nodes=TINY.nodes, days=TINY.days)
    cfg = workload.config(workload.presets[0])
    with pytest.raises(NonConvergenceError):
        coupling.run(cfg.scenario, cfg.params)

    result = run.measure(workload, seed=0, seconds=0.0, trace=False,
                         reference=None, setup_repeats=1, out_root=str(tmp_path))
    line = result_line(result, capsys)
    assert (line["attempted"], line["failed"], line["correct"]) == (1, 1, False)
    assert "NonConvergenceError" in result["failures"][0]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(trace, section, tiny_reference, tmp_path, capsys):
    result = run.measure(TINY, seed=0, seconds=0.0, trace=trace,
                         reference=Reference("tiny", tiny_reference),
                         setup_repeats=1, out_root=str(tmp_path))
    line = result_line(result, capsys)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(TINY.presets) * (1 + trace)
    assert set(line["metrics"]) == {m["name"] for m in benchmark_spec()[section]}
    for name, entry in line["metrics"].items():
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0, name
    assert result["csv_identical_to_seed"] == f"{line['attempted']}/{line['attempted']}"


def test_output_mismatch_counts_as_failure(tiny_reference, tmp_path):
    reference = Reference("tiny", tiny_reference)
    key = TINY.presets[0] + "/final"
    reference.arrays[key] = reference.arrays[key] * (1.0 + 1e-3)
    result = run.measure(TINY, seed=0, seconds=0.0, trace=False,
                         reference=reference, setup_repeats=1,
                         out_root=str(tmp_path))
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["failures"][0].startswith(TINY.presets[0] + ": ")


def test_closure_rejects_child_outside_parent():
    spans = [["coupling.run", 0.0, 1.0, -1], ["adr.solve_adr", 0.5, 1.5, 0]]
    with pytest.raises(tracing.ClosureError):
        tracing.check_closure(spans)


def test_tracer_restores_bindings():
    from porogrowth import adr, coupling

    originals = (adr.solve_banded, coupling.MixtureState)
    with tracing.Tracer():
        assert adr.solve_banded is not originals[0]
    assert (adr.solve_banded, coupling.MixtureState) == originals
