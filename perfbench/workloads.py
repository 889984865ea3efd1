"""The named benchmark workloads.

Performance claims refer to these workloads by name. Why each one
exists is in BENCHMARK.json and README.md. Each one drives the
simulator the way `porogrowth simulate` / `porogrowth sweep` do:
`config.preset`, then `coupling.run`, then `outputs.emit_outputs`.
"""

import dataclasses
import random
from dataclasses import dataclass

SECONDS_PER_DAY = 86400.0

#: time step of every workload: each preset's own ScenarioConfig.dt
DT_S = 3600.0


@dataclass(frozen=True)
class Workload:
    """A list of preset runs at one mesh size and horizon."""

    name: str
    presets: tuple
    nodes: int
    days: float

    @property
    def n_steps(self):
        return int(round(self.days * SECONDS_PER_DAY / DT_S))

    def order(self, seed):
        """Preset names in run order, shuffled by the seed."""
        names = list(self.presets)
        random.Random(seed).shuffle(names)
        return names

    def config(self, name):
        """RunConfig of one preset run, as the CLI builds it with overrides."""
        from porogrowth import config as config_mod

        cfg = config_mod.preset(name)
        scenario = dataclasses.replace(
            cfg.scenario, node_count=self.nodes,
            t_end=self.days * SECONDS_PER_DAY)
        return dataclasses.replace(cfg, scenario=scenario)

    def describe(self):
        return {"presets": list(self.presets), "nodes": self.nodes,
                "dt_s": DT_S, "horizon_days": self.days,
                "steps_per_run": self.n_steps}


PERFUSED = "perfused-ic2-kg2-cthr"

# spelled out here rather than taken from config.PRESET_NAMES, so that a
# change to the package cannot change the benchmark's inputs
ALL_PRESETS = tuple(
    f"{mode}-{ic}-{kg}-{cext}"
    for mode in ("static", "perfused")
    for ic in ("ic1", "ic2")
    for kg in ("kg1", "kg2")
    for cext in ("csat", "cthr")
)

WORKLOADS = {
    w.name: w for w in (
        Workload(name="preset-perfused", presets=(PERFUSED,), nodes=101,
                 days=30.0),
        # 1 day, not the CLI's 30: about 6 samples per 30 s run, with the
        # same mix of work (README.md, "Why sweep16 runs 1 day per preset")
        Workload(name="sweep16", presets=ALL_PRESETS, nodes=101, days=1.0),
        Workload(name="fine-mesh", presets=(PERFUSED,), nodes=1601, days=2.0),
    )
}
