"""Time porogrowth's set-up in this fresh process.

Set-up is what every `porogrowth simulate` pays before its first step:
`import porogrowth`, the preset config, `build_mesh` and `initial_state`.
Prints the seconds it took. Usage:

    python3 perfbench/setup_probe.py <preset> <nodes>
"""

import dataclasses
import os
import sys
import time


def main(preset_name, nodes):
    t0 = time.perf_counter()
    import porogrowth

    cfg = porogrowth.preset(preset_name)
    scenario = dataclasses.replace(cfg.scenario, node_count=int(nodes))
    mesh = porogrowth.build_mesh(scenario.length, scenario.node_count)
    porogrowth.initial_state(mesh, cfg.params, scenario)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    main(*sys.argv[1:])
