"""Output correctness check of one benchmark run, from outside the package.

A run passes when its trajectory satisfies the physical invariants and
matches the reference recorded at the seed commit (mid-node time series
at every step and the final state) within RTOL_PER_STEP * steps of each
field's scale.

Why that tolerance: each step stops its fixed point once the relative
sweep-to-sweep change is below tol = 1e-8. With a contraction factor q
the distance to the exact fixed point is then at most tol * q / (1 - q),
which is below 10 * tol for q <= 0.9 (any step that converges within the
default 100 sweeps from an O(1) start). Backward Euler on this
dissipative system does not amplify a perturbation, so per-step errors
add at most linearly: 10 * tol per step. A change that only reorders
floating-point work stays far inside this; a change to the scheme or the
fixed point does not. The tolerance is fixed here and is not to be
widened to let a change pass.

The SHA-256 of every emitted CSV is compared with the reference too, so
byte-identity with the seed stays visible; a byte difference alone does
not fail the run.
"""

import hashlib
import json
import os

import numpy as np

#: fixed-point tolerance of every preset (ScenarioConfig.tol at the seed)
FIXED_POINT_TOL = 1e-8
RTOL_PER_STEP = 10.0 * FIXED_POINT_TOL

SERIES_KEYS = ("phi_n", "phi_v", "phi_q", "phi_ecm", "phi_fl", "c", "p", "xi")
STATE_FIELDS = ("u", "p", "phi_n", "phi_v", "phi_q", "phi_ecm", "c",
                "g_n", "g_v", "g_q", "g_ecm")
SPECIES_FIELDS = ("phi_n", "phi_v", "phi_q", "phi_ecm")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def series_array(trajectory):
    """(8, steps + 1) mid-node series in SERIES_KEYS order."""
    return np.array([trajectory.mid_series[k] for k in SERIES_KEYS],
                    dtype=float)


def final_array(trajectory):
    """(11, N) final state in STATE_FIELDS order."""
    state = trajectory.states[-1]
    return np.array([getattr(state, f) for f in STATE_FIELDS], dtype=float)


def csv_digests(paths):
    """file name -> SHA-256 hex digest."""
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def invariant_problems(trajectory):
    """Violations of finiteness, phi >= 0, c >= 0 and phi_fl in (0, 1)."""
    problems = []
    if not np.all(np.isfinite(series_array(trajectory))):
        problems.append("mid-node series is not finite")
    for t, state in zip(trajectory.times, trajectory.states):
        fields = {f: np.asarray(getattr(state, f)) for f in STATE_FIELDS}
        bad = [f for f, a in fields.items() if not np.all(np.isfinite(a))]
        if bad:
            problems.append(f"t={t}: non-finite {bad}")
            continue
        for f in SPECIES_FIELDS + ("c",):
            if np.min(fields[f]) < 0.0:
                problems.append(f"t={t}: min {f} = {np.min(fields[f])} < 0")
        phi_fl = 1.0 - sum(fields[f] for f in SPECIES_FIELDS)
        if np.min(phi_fl) <= 0.0 or np.max(phi_fl) >= 1.0:
            problems.append(
                f"t={t}: phi_fl range [{np.min(phi_fl)}, {np.max(phi_fl)}] "
                "not inside (0, 1)")
    return problems


def mismatch_problems(label, keys, got, ref, rtol):
    """Rows of got that differ from ref by more than rtol * max|ref row|."""
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape}, reference {ref.shape}"]
    problems = []
    for key, g, r in zip(keys, got, ref):
        err = float(np.max(np.abs(g - r)))
        scale = float(np.max(np.abs(r)))
        if not err <= rtol * scale:
            problems.append(
                f"{label} {key}: max error {err:.3e} > {rtol:.1e} x {scale:.3e}")
    return problems


class Reference:
    """Reference outputs of one workload, recorded at the seed commit."""

    def __init__(self, workload_name, directory=REFERENCE_DIR):
        base = os.path.join(directory, workload_name)
        with open(base + ".json", encoding="utf-8") as fh:
            self.meta = json.load(fh)
        with np.load(base + ".npz") as data:
            self.arrays = {k: data[k] for k in data.files}

    def check(self, name, trajectory, digests):
        """(problems, bytes_identical) for the run of preset `name`."""
        entry = self.meta["presets"].get(name)
        if entry is None:
            return [f"{name}: no reference"], False
        n_steps = len(trajectory.series_times) - 1
        rtol = RTOL_PER_STEP * max(n_steps, 1)
        problems = invariant_problems(trajectory)
        problems += mismatch_problems(
            f"{name} mid-node", SERIES_KEYS, series_array(trajectory),
            self.arrays[name + "/series"], rtol)
        problems += mismatch_problems(
            f"{name} final", STATE_FIELDS, final_array(trajectory),
            self.arrays[name + "/final"], rtol)
        return problems, digests == entry["csv_sha256"]
