import dataclasses
import math

import numpy as np
import pytest

from porogrowth import adr, config, coupling, linalg, outputs
from porogrowth.errors import (
    NonConvergenceError,
    NonphysicalStateError,
    SingularSystemError,
)
from porogrowth.linalg import RESIDUAL_REL, check_residual
from porogrowth.mesh import build_mesh, element_means
from porogrowth.params import EPS_PHI, ModelParams
from porogrowth.scenario import ScenarioConfig
from porogrowth.state import initial_state, sample_xi_field
from porogrowth.verify import checked_solve


def short_scenario(**overrides):
    kwargs = dict(t_end=5 * 3600.0, dt=3600.0, node_count=41)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def test_zero_data_fixed_point_converges_in_two_sweeps(frozen_params):
    # static culture, reactions frozen, external oxygen equal to the
    # initial level: sweep 1 reproduces the transport-only update, sweep
    # 2 changes nothing, so the iteration stops at m = 2 with residual 0
    params = dataclasses.replace(frozen_params, c_sat=frozen_params.c_0)
    scenario = short_scenario(growth_rate=0.0, c_ext_mode="saturation")
    mesh = build_mesh(scenario.length, scenario.node_count)
    state0 = initial_state(mesh, params, scenario)
    state1, report = coupling.fixed_point_step(
        state0, mesh, scenario.dt, scenario, params)
    assert report.iterations == 2
    assert report.residuals[-1] < 1e-12  # second sweep only moves roundoff
    # no mechanics and no oxygen drift
    assert np.max(np.abs(state1.u)) < 1e-18
    assert np.max(np.abs(state1.p)) < 1e-14
    assert np.allclose(state1.c, params.c_0, rtol=1e-12)
    # species profiles relax by diffusion only: total mass conserved
    m = mesh.lumped_masses
    for name in ("phi_n", "phi_v", "phi_q", "phi_ecm"):
        assert m @ getattr(state1, name) == pytest.approx(
            m @ getattr(state0, name), rel=1e-12)


def test_frozen_kinetics_static_run_conserves_mass(frozen_params):
    scenario = short_scenario(growth_rate=0.0)
    trajectory = coupling.run(scenario, frozen_params)
    mesh = trajectory.mesh
    m = mesh.lumped_masses
    first = trajectory.states[0]
    for state in trajectory.states[1:]:
        for name in ("phi_n", "phi_v", "phi_q", "phi_ecm"):
            assert m @ getattr(state, name) == pytest.approx(
                m @ getattr(first, name), rel=1e-12)


def test_runs_are_deterministic():
    scenario = short_scenario(culture_mode="perfused")
    params = ModelParams()
    t1 = coupling.run(scenario, params)
    t2 = coupling.run(scenario, params)
    for s1, s2 in zip(t1.states, t2.states):
        for name in ("u", "p", "c", "phi_n", "phi_v", "phi_q", "phi_ecm"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))
    assert t1.mid_series == t2.mid_series


def test_zero_horizon_trajectory_is_initial_state_only():
    scenario = short_scenario(t_end=0.0)
    trajectory = coupling.run(scenario, ModelParams())
    assert trajectory.times == [0.0]
    assert len(trajectory.states) == 1
    assert trajectory.diagnostics == []
    assert len(trajectory.mid_series["phi_n"]) == 1


@pytest.mark.parametrize("mode", ["static", "perfused"])
def test_smallest_admitted_mesh_runs(mode):
    # N = 3, the fewest nodes the configuration gate admits: one interior
    # node, and blocks of 3 rows in every banded solve
    scenario = short_scenario(culture_mode=mode, node_count=3, t_end=3 * 3600.0)
    trajectory = coupling.run(scenario, ModelParams())
    assert len(trajectory.states) == 4
    assert [state.level.shape for state in trajectory.states] == [(11, 3)] * 4


def test_output_stride_thins_snapshots():
    scenario = short_scenario(output_stride=2)
    trajectory = coupling.run(scenario, ModelParams())
    # steps 2, 4 and the forced final step 5
    assert trajectory.times == [0.0, 2 * 3600.0, 4 * 3600.0, 5 * 3600.0]
    # the mid-node series still records every step
    assert len(trajectory.series_times) == 6


def test_xi_maps_are_the_snapshots_maps():
    scenario = short_scenario(culture_mode="perfused", output_stride=2)
    params = ModelParams()
    trajectory = coupling.run(scenario, params)
    assert len(trajectory.xi_maps) == len(trajectory.states) == 4
    for xi, state in zip(trajectory.xi_maps, trajectory.states):
        assert np.array_equal(
            xi, sample_xi_field(state, params, trajectory.mesh))


def test_mid_xi_series_is_the_mid_entry_of_each_map():
    # with a snapshot at every step, the time series' xi column is the
    # mid-node entry of each step's map
    trajectory = coupling.run(short_scenario(culture_mode="perfused"),
                              ModelParams())
    mid = trajectory.mesh.mid_node
    assert trajectory.times == trajectory.series_times
    assert trajectory.mid_series["xi"] == [
        int(xi[mid]) for xi in trajectory.xi_maps]


def test_nonconvergence_raises_with_report():
    scenario = short_scenario(culture_mode="perfused", max_iter=2, tol=1e-14)
    mesh = build_mesh(scenario.length, scenario.node_count)
    params = ModelParams()
    state0 = initial_state(mesh, params, scenario)
    with pytest.raises(NonConvergenceError) as exc_info:
        coupling.fixed_point_step(state0, mesh, scenario.dt, scenario, params)
    report = exc_info.value.report
    assert len(report.residuals) == scenario.max_iter


def test_run_attaches_partial_trajectory_on_failure():
    scenario = short_scenario(culture_mode="perfused", max_iter=2, tol=1e-14)
    with pytest.raises(NonConvergenceError) as exc_info:
        coupling.run(scenario, ModelParams())
    partial = exc_info.value.partial_trajectory
    assert partial.times == [0.0]
    assert len(partial.states) == 1


def test_run_attaches_recorded_prefix_on_failure_mid_run(monkeypatch, tmp_path):
    # the third step fails: the partial trajectory holds the initial
    # level and the two accepted steps, recorded as a full run records
    # them, and the CSV emission writes it
    scenario = short_scenario(culture_mode="perfused")
    params = ModelParams()
    full = coupling.run(scenario, params)
    step = coupling.fixed_point_step
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NonphysicalStateError("injected failure")
        return step(*args, **kwargs)

    monkeypatch.setattr(coupling, "fixed_point_step", failing)
    with pytest.raises(NonphysicalStateError, match="injected") as exc_info:
        coupling.run(scenario, params)
    partial = exc_info.value.partial_trajectory
    assert partial.series_times == full.series_times[:3] == [0.0, 3600.0, 7200.0]
    assert partial.times == full.times[:3]
    for a, b in zip(partial.states, full.states[:3], strict=True):
        assert np.array_equal(a.level, b.level)
    assert partial.mid_series.keys() == full.mid_series.keys()
    for key, values in partial.mid_series.items():
        assert values == full.mid_series[key][:3], key
    for a, b in zip(partial.xi_maps, full.xi_maps[:3], strict=True):
        assert np.array_equal(a, b)
    assert partial.diagnostics == full.diagnostics[:2]
    written = outputs.emit_outputs(
        partial, config.RunConfig(scenario=scenario), str(tmp_path))
    assert len(written) == 6
    with open(tmp_path / "timeseries.csv", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1 + 3
    with open(tmp_path / "diagnostics.csv", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1 + 2


def test_auto_dt_halving_retries_with_substeps(monkeypatch):
    params = ModelParams()
    sweeps = []
    sweep = coupling._sweep

    def counting(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(coupling, "_sweep", counting)
    # a static step that needs more than 5 sweeps completes through
    # bisection: its report holds every sweep of every attempt, the
    # nominal attempt's 5 unconverged residuals first
    static = short_scenario(t_end=3600.0, max_iter=5)
    trajectory = coupling.run(static, params)
    assert trajectory.series_times == [0.0, 3600.0]
    report = trajectory.diagnostics[0]
    assert min(report.residuals[:static.max_iter]) >= static.tol
    assert report.residuals[-1] < static.tol
    assert report.iterations == len(sweeps) > static.max_iter
    # a perfused step with max_iter = 4 fails at every bisection depth and
    # raises only once the 4-bisection budget is spent, with the report
    # of all its sweeps and the last attempt's message
    perfused = short_scenario(culture_mode="perfused", t_end=3600.0,
                              max_iter=4)
    sweeps.clear()
    with pytest.raises(NonConvergenceError,
                       match="fixed point failed after 4 time-step bisections; "
                             "last: fixed point did not converge in 4 sweeps"
                       ) as info:
        coupling.run(perfused, params)
    assert len(info.value.report.residuals) == len(sweeps) > perfused.max_iter


def test_bisected_step_reports_all_30_sweeps(monkeypatch):
    # the one-hour max_iter = 5 static step (the workflow's bisection
    # config): the nominal attempt and the first dt/2 sub-step
    # fail after 5 sweeps each, the four dt/4 sub-steps pass; the step's
    # report holds all 30 residuals in the order they were made
    attempts = []
    step = coupling.fixed_point_step

    def spy(state, mesh, dt, *args, **kwargs):
        try:
            result = step(state, mesh, dt, *args, **kwargs)
        except NonConvergenceError as exc:
            attempts.append((dt, exc.report))
            raise
        attempts.append((dt, result[1]))
        return result

    monkeypatch.setattr(coupling, "fixed_point_step", spy)
    cfg = config.parse_config("max_iter = 5\nT_end = 3600\n")
    trajectory = coupling.run(cfg.scenario, cfg.params)
    assert [dt for dt, _ in attempts] == [3600.0, 1800.0] + [900.0] * 4
    report, = trajectory.diagnostics
    assert report.iterations == 30
    assert report.residuals == [r for _, a in attempts for r in a.residuals]


def test_nonphysical_state_in_bisection_propagates_at_once(monkeypatch):
    # the nominal attempt does not converge; the first sub-step of the
    # first bisection finds a nonphysical state, which no deeper
    # bisection retries
    calls = []

    def failing(state, mesh, dt, *args, **kwargs):
        calls.append(dt)
        if len(calls) == 1:
            raise NonConvergenceError("injected nonconvergence",
                                      coupling.FixedPointReport([1.0]))
        raise NonphysicalStateError("injected failure")

    monkeypatch.setattr(coupling, "fixed_point_step", failing)
    scenario = short_scenario(t_end=3600.0)
    with pytest.raises(NonphysicalStateError, match="injected failure"):
        coupling.run(scenario, ModelParams())
    assert calls == [3600.0, 1800.0]


def test_only_the_nominal_attempt_starts_from_the_prediction(monkeypatch):
    # a static step that needs more than 5 sweeps: the nominal attempt
    # takes the predicted start, and every bisection sub-step starts from
    # its own previous level (start=None)
    predicted, attempts = [], []
    predict, step = coupling._predict, coupling.fixed_point_step

    def spy_predict(table):
        predicted.append(predict(table))
        return predicted[-1]

    def spy_step(state, mesh, dt, scenario, params, start=None):
        attempts.append((dt, start))
        return step(state, mesh, dt, scenario, params, start=start)

    monkeypatch.setattr(coupling, "_predict", spy_predict)
    monkeypatch.setattr(coupling, "fixed_point_step", spy_step)
    scenario = short_scenario(t_end=3600.0, max_iter=5)
    coupling.run(scenario, ModelParams())
    assert len(predicted) == 1 and len(attempts) > 1
    assert attempts[0][0] == 3600.0 and attempts[0][1] is predicted[0]
    assert all(dt < 3600.0 and start is None for dt, start in attempts[1:])


def test_growth_model_g1_accumulates_distortion():
    scenario = short_scenario(growth_model="G1", t_end=3 * 3600.0)
    trajectory = coupling.run(scenario, ModelParams())
    final = trajectory.states[-1]
    # proliferating cells are net-consuming in this window, so g_n moves
    assert np.max(np.abs(final.g_n)) > 0.0
    # G0 keeps it pinned at the initial constant
    g0_traj = coupling.run(short_scenario(t_end=3 * 3600.0), ModelParams())
    assert np.all(g0_traj.states[-1].g_n == 0.0)


def test_growth_model_g0_holds_g_initial():
    # G0 lives only in fixed_point_step: every g field of every snapshot
    # stays exactly at the configured constant, also under perfusion
    scenario = short_scenario(culture_mode="perfused", growth_model="G0",
                              g_initial=1e-3, t_end=3 * 3600.0)
    trajectory = coupling.run(scenario, ModelParams())
    assert len(trajectory.states) == 4
    for state in trajectory.states:
        for name in ("g_n", "g_v", "g_q", "g_ecm"):
            assert np.all(getattr(state, name) == 1e-3), name


def accelerator_base():
    """A physical (7, N) iterate: rows u, p, c, phi_n, phi_v, phi_q, phi_ecm.

    u and p are negative, which is physical for them but not for the
    rows the safeguard checks.
    """
    base = np.empty((7, 5))
    base[0] = -1e-4
    base[1] = -50.0
    base[2] = 3e-6
    base[3:] = [[0.05], [0.04], [0.03], [0.02]]
    step = np.zeros((7, 5))
    step[0], step[1], step[2], step[3:] = -1e-6, -1.0, -1e-8, -1e-3
    return base, step


def push_twice(base, step):
    """Drive the accelerator with a sweep map whose residual halves.

    The secant coefficient is then -1, capped at -0.95, so the second
    push proposes g1 + 0.95 step. Returns (g1, second push result).
    """
    acc = coupling._Accelerator()
    x1 = base + 2.0 * step
    assert acc.push(base, x1) is x1  # no history yet: plain sweep output
    # one scale per field row, shared by the four species rows
    peak = np.max(np.abs(x1), axis=1) + 1e-30
    assert np.array_equal(acc.scale[:3, 0], peak[:3])
    assert np.all(acc.scale[3:, 0] == np.max(np.abs(x1[3:])) + 1e-30)
    g1 = x1 + step
    return g1, acc.push(x1, g1)


def test_accelerator_returns_physical_extrapolation():
    base, step = accelerator_base()
    g1, out = push_twice(base, step)
    assert out is not g1
    assert np.allclose(out, g1 + 0.95 * step, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("row,base_value,step_value", [
    (2, 3.5e-6, -1e-6),      # c turns negative
    (3, 0.035, -1e-2),       # phi_n turns negative
    (6, 0.035, -1e-2),       # phi_ecm turns negative
    (slice(3, 7), 0.215, 1e-2),  # phi_fl = 1 - sum(phi) drops below EPS_PHI
])
def test_accelerator_rejects_unphysical_extrapolation(row, base_value, step_value):
    base, step = accelerator_base()
    base[row] = base_value
    step[row] = step_value
    g1, out = push_twice(base, step)
    # the sweep output itself is physical; only the extrapolation is not
    assert np.min(g1[2:]) >= 0.0 and np.min(1.0 - g1[3:].sum(axis=0)) > EPS_PHI
    assert out is g1


@pytest.mark.parametrize("row,base_value,step_value", [
    (2, 3.5e-6, -1.5e-6),        # c turns negative
    (3, 0.035, -0.015),          # phi_n turns negative
    (slice(3, 7), 0.2, 0.02),    # phi_fl = 1 - sum(phi) drops below EPS_PHI
])
def test_unphysical_prediction_starts_from_previous_level(
        row, base_value, step_value):
    base, step = accelerator_base()
    base[row] = base_value
    step[row] = step_value
    # three physical levels on a straight line, newest first: both the
    # linear and the quadratic predictor give base + 3 step
    levels = [base + 2.0 * step, base + step, base]
    assert all(coupling._physical(x) for x in levels)
    assert not coupling._physical(base + 3.0 * step)
    assert np.array_equal(predict(levels[:2]), levels[0])
    assert np.array_equal(predict(levels), levels[0])


def predict(levels):
    """coupling._predict on the table that coupling._push builds from
    the levels, newest first."""
    table = np.empty((coupling.HISTORY, *levels[0].shape))
    depth = 0
    for x in reversed(levels):
        depth = coupling._push(table, depth, x)
    return coupling._predict(table[:depth])


def newton_terms(history):
    """x_n, nabla x_n, nabla^2 x_n, ... of the levels, newest first, from
    an explicit backward-difference table: column j holds nabla^j at
    every level it reaches."""
    column = list(history)
    terms = [column[0]]
    while len(column) > 1:
        column = [column[i] - column[i + 1] for i in range(len(column) - 1)]
        terms.append(column[0])
    return terms


def scaled_size(term, x_n):
    """Per row max|term| / (max|x_n| + 1e-30), the max over the rows."""
    return max(np.max(np.abs(term[i])) / (np.max(np.abs(x_n[i])) + 1e-30)
               for i in range(len(x_n)))


def series_sum(terms):
    """The terms added left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def expected_start(levels):
    """The predictor's start from the levels x_0 .. x_n, oldest first:
    the Newton series through the last HISTORY levels, stopped before
    the first term whose scaled size does not shrink, or x_n when that
    is unphysical."""
    terms = newton_terms(levels[::-1][:coupling.HISTORY])
    x_n = terms[0]
    kept = 1
    while (kept < len(terms) and scaled_size(terms[kept], x_n)
           < scaled_size(terms[kept - 1], x_n)):
        kept += 1
    guess = series_sum(terms[:kept])
    return guess if coupling._physical(guess) else x_n


def smooth_levels(count):
    """count physical levels on base + step e^{0.3 t}, t = 0, 1, ...,
    oldest first: every backward difference is about 1 - e^{-0.3} = 0.26
    times the one before it."""
    base, step = accelerator_base()
    return [base + np.exp(0.3 * t) * step for t in range(count)]


def test_prediction_by_available_history():
    levels = smooth_levels(coupling.HISTORY)[::-1]   # newest first
    assert np.array_equal(predict(levels[:1]), levels[0])
    # u and p may be negative: the guard checks only c and the fractions
    starts = []
    for count in range(2, coupling.HISTORY + 1):
        start = predict(levels[:count])
        assert np.array_equal(start, expected_start(levels[:count][::-1]))
        # the smooth history keeps every term: the full series of order
        # count - 1
        assert np.array_equal(start, series_sum(newton_terms(levels[:count])))
        starts.append(start)
    assert np.array_equal(starts[0], 2.0 * levels[0] - levels[1])
    assert not any(np.array_equal(a, b) for a, b in zip(starts, starts[1:]))


@pytest.mark.parametrize("degree", range(coupling.HISTORY))
def test_polynomial_levels_are_extrapolated_exactly(degree):
    # levels on base + step q(t) with q of the given degree: the level at
    # t = HISTORY follows from the last d + 1 levels and from all HISTORY
    base, step = accelerator_base()

    def level(t):
        q = sum((0.3 * t) ** k / math.factorial(k)
                for k in range(1, degree + 1))
        return base + q * step

    exact = level(coupling.HISTORY)
    for count in (degree + 1, coupling.HISTORY):
        levels = [level(t) for t in range(coupling.HISTORY - 1,
                                          coupling.HISTORY - 1 - count, -1)]
        start = predict(levels)
        assert np.all(np.abs(start - exact).max(axis=1)
                      <= 1e-12 * np.abs(exact).max(axis=1))


@pytest.mark.parametrize("kink", range(2, coupling.HISTORY))
def test_kinked_history_truncates_the_series(kink):
    # the levels older than the newest `kink` ones carry a jump, so
    # nabla^kink x_n is the first difference that reaches it: the series
    # keeps x_n .. nabla^(kink - 1) x_n and stops there
    levels = smooth_levels(coupling.HISTORY)[::-1]   # newest first
    _, step = accelerator_base()
    levels[kink:] = [x + 2.0 * step for x in levels[kink:]]
    terms = newton_terms(levels)
    x_n = levels[0]
    sizes = [scaled_size(term, x_n) for term in terms]
    assert all(a > b for a, b in zip(sizes[:kink], sizes[1:kink]))
    assert sizes[kink] >= sizes[kink - 1]
    start = predict(levels)
    assert np.array_equal(start, series_sum(terms[:kink]))
    assert not np.array_equal(start, series_sum(terms))


def record_starts(monkeypatch):
    """Spy on the sweeps: one (start, previous, dt) per fixed_point_step
    call, taken from its first sweep, with previous the iterate rows of
    the call's level. A call differs from the one before in its level or
    its dt (a bisection's first sub-step starts from the level of the
    failed attempt, with half its dt). The start is copied: it may be a
    view of the predictor's table, which the next accepted level
    overwrites."""
    starts, last = [], [None, None]
    sweep = coupling._sweep

    def spy(mesh, x, level, dt, *args):
        if last[0] is not level or last[1] != dt:
            last[:] = level, dt
            starts.append((x.copy(), level[:7], dt))
        return sweep(mesh, x, level, dt, *args)

    monkeypatch.setattr(coupling, "_sweep", spy)
    return starts


def test_steps_start_from_polynomial_prediction(monkeypatch):
    # eight steps, so the last ones extrapolate through HISTORY levels of
    # the longer history
    starts = record_starts(monkeypatch)
    scenario = short_scenario(culture_mode="perfused", t_end=8 * 3600.0)
    coupling.run(scenario, ModelParams())
    assert len(starts) == 8          # no bisection
    # the first step starts from x_0 itself
    assert np.array_equal(starts[0][0], starts[0][1])
    levels = []
    for x, previous, _ in starts:
        levels.append(previous)
        assert np.array_equal(x, expected_start(levels))
    # the first step moves a field by more than its own size, so nabla x_1
    # does not shrink against x_1 and step 2 starts from x_1; steps 3-8
    # start from a prediction
    assert scaled_size(levels[1] - levels[0], levels[1]) >= 1.0
    assert np.array_equal(starts[1][0], starts[1][1])
    for x, previous, _ in starts[2:]:
        assert not np.array_equal(x, previous)


def test_bisection_substeps_start_from_own_level(monkeypatch):
    # max_iter = 5 is too small for every full static step, so each of
    # the five steps bisects; the nominal attempts still use the
    # prediction from the nominal levels
    starts = record_starts(monkeypatch)
    scenario = short_scenario(max_iter=5)
    trajectory = coupling.run(scenario, ModelParams())
    assert len(trajectory.diagnostics) == 5
    nominal = [s for s in starts if s[2] == scenario.dt]
    substeps = [s for s in starts if s[2] < scenario.dt]
    assert len(nominal) == 5 and len(substeps) > 10
    for x, previous, _ in substeps:
        assert np.array_equal(x, previous)
    levels = []
    for x, previous, _ in nominal:
        levels.append(previous)
        assert np.array_equal(x, expected_start(levels))
    assert not np.array_equal(nominal[-1][0], nominal[-1][1])


def restacked_prediction(levels):
    """Start iterate from the levels, newest first, with the whole
    backward-difference table rebuilt from their stack on every call:
    the reference that the in-place table of coupling._push and
    coupling._predict must equal bit for bit."""
    x_n = levels[0]
    table = np.stack(levels)
    terms = [x_n]
    for _ in range(1, len(levels)):
        table = table[:-1] - table[1:]
        terms.append(table[0])
    sizes = coupling._change(np.stack(terms), x_n)
    guess = x_n
    for k in range(1, len(terms)):
        if not sizes[k] < sizes[k - 1]:
            break
        guess = guess + terms[k]
    return guess if coupling._physical(guess) else x_n


def test_start_iterates_equal_restacked_table_bitwise(monkeypatch):
    # 120 steps: the table fills, then slides over the last HISTORY
    # levels for more than a hundred updates in place
    starts = record_starts(monkeypatch)
    cfg = config.preset("perfused-ic2-kg2-cthr")
    scenario = dataclasses.replace(cfg.scenario, t_end=5 * 86400.0)
    coupling.run(scenario, cfg.params)
    assert len(starts) == scenario.n_steps == 120    # no bisection
    levels = []                                       # newest first
    for x, previous, _ in starts:
        levels.insert(0, previous)
        reference = restacked_prediction(levels[:coupling.HISTORY])
        assert x.tobytes() == reference.tobytes()
    predicted = sum(not np.array_equal(x, previous) for x, previous, _ in starts)
    assert predicted > 100


#: total sweeps of the 3-day perfused-ic2-kg2-cthr preset run: 419 when
#: every step started from x_n, 314 with the quadratic predictor, 203
#: with the backward-difference series through HISTORY levels
SWEEPS_3_DAYS_X_N = 419
SWEEPS_3_DAYS_QUADRATIC = 314
SWEEPS_3_DAYS_PREDICTED = 203


def test_prediction_saves_sweeps_on_perfused_preset():
    cfg = config.preset("perfused-ic2-kg2-cthr")
    scenario = dataclasses.replace(cfg.scenario, t_end=3 * 86400.0)
    trajectory = coupling.run(scenario, cfg.params)
    sweeps = sum(d.iterations for d in trajectory.diagnostics)
    assert (sweeps <= SWEEPS_3_DAYS_PREDICTED < SWEEPS_3_DAYS_QUADRATIC
            < SWEEPS_3_DAYS_X_N)


def test_sweep_matches_standalone_adr_operator(frozen_params):
    # with zero velocity the species update inside the coupling loop is
    # exactly the standalone pure-diffusion ADR solve
    params = dataclasses.replace(frozen_params, c_sat=frozen_params.c_0)
    scenario = short_scenario(growth_rate=0.0)
    mesh = build_mesh(scenario.length, scenario.node_count)
    state0 = initial_state(mesh, params, scenario)
    state1, _ = coupling.fixed_point_step(
        state0, mesh, scenario.dt, scenario, params)
    n = mesh.node_count
    problem = adr.AdrProblem(
        mesh=mesh,
        weights=adr.edge_weights(mesh.h, np.full(n - 1, params.D_eta),
                                 np.zeros(n - 1)),
        velocity=np.zeros(n - 1),
        reaction=np.zeros(n),
        source=np.zeros(n),
    )
    expected = checked_solve(*adr.assemble_adr(problem, scenario.dt, state0.phi_n))
    assert np.allclose(state1.phi_n, expected, rtol=1e-13)


def test_species_edge_data_of_a_sweep_bitwise(monkeypatch):
    # the species problem of every sweep carries the edge weights of the
    # constant D_eta on every edge and of the element mean of the sweep's
    # solid velocity (u_new - u_prev) / dt, and that velocity, bit for bit
    problems, sweeps = [], []
    build, sweep = adr.build_species_problem, coupling._sweep

    def spy_build(*args):
        problems.append(build(*args))
        return problems[-1]

    def spy_sweep(mesh, x, level, dt, *args):
        sweeps.append((level[0], dt, sweep(mesh, x, level, dt, *args)))
        return sweeps[-1][2]

    monkeypatch.setattr(adr, "build_species_problem", spy_build)
    monkeypatch.setattr(coupling, "_sweep", spy_sweep)
    cfg = config.preset("perfused-ic2-kg2-cthr")
    scenario = dataclasses.replace(cfg.scenario, node_count=41,
                                   t_end=2 * cfg.scenario.dt)
    coupling.run(scenario, cfg.params)
    assert len(problems) == len(sweeps) > 2
    diffusion = np.full(scenario.node_count - 1, cfg.params.D_eta)
    h = problems[0].mesh.h
    for problem, (u_prev, dt, new) in zip(problems, sweeps):
        velocity = element_means((new[0] - u_prev) / dt)
        assert velocity.any()
        weights = adr.edge_weights(h, diffusion, velocity)
        assert problem.weights.tobytes() == weights.tobytes()
        assert problem.velocity.tobytes() == velocity.tobytes()


def test_one_bernoulli_call_per_sweep(monkeypatch):
    # both transport problems of a sweep take their edge weights from one
    # call on the stacked (t_ox, -t_ox, t_sp, -t_sp) rows, made through
    # adr's module global; the G1 growth update after convergence makes
    # none
    shapes = []
    bernoulli = adr.bernoulli

    def counting(t):
        shapes.append(np.shape(t))
        return bernoulli(t)

    monkeypatch.setattr(adr, "bernoulli", counting)
    cfg = config.preset("perfused-ic2-kg2-cthr")
    scenario = dataclasses.replace(cfg.scenario, node_count=41,
                                   growth_model="G1")
    mesh = build_mesh(scenario.length, scenario.node_count)
    state0 = initial_state(mesh, cfg.params, scenario)
    _, report = coupling.fixed_point_step(
        state0, mesh, scenario.dt, scenario, cfg.params)
    assert report.iterations > 1
    assert len(shapes) == report.iterations
    assert set(shapes) == {(2, 2, mesh.n_elements)}


def test_diagnostics_recorded_per_step():
    scenario = short_scenario()
    trajectory = coupling.run(scenario, ModelParams())
    assert len(trajectory.diagnostics) == 5
    # step i's report is diagnostics[i - 1], at series_times[i]
    assert trajectory.series_times == [i * 3600.0 for i in range(6)]
    for d in trajectory.diagnostics:
        assert 1 <= d.iterations <= scenario.max_iter
        assert len(d.residuals) == d.iterations
        assert d.residuals[-1] < scenario.tol


def test_non_finite_residual_fails_fast(monkeypatch):
    # a NaN residual is never below tol: without the check the step would
    # burn max_iter sweeps and then every dt bisection
    calls = []

    def nan_sweep(mesh, x, *args):
        calls.append(1)
        return np.full_like(x, np.nan)

    monkeypatch.setattr(coupling, "_sweep", nan_sweep)
    scenario = short_scenario()
    with pytest.raises(NonphysicalStateError) as info:
        coupling.run(scenario, ModelParams())
    assert not isinstance(info.value, NonConvergenceError)
    assert len(calls) == 1


def test_static_mechanics_rows_never_limit_a_sweep(monkeypatch):
    # static culture loads nothing: u and p are exactly 0.0 at every step,
    # so their rows of the convergence test only ever compute
    # 0 / (0 + 1e-30) = 0, and the 1e-30 floor never decides a sweep
    sizes = []
    change = coupling._change

    def spy(dx, x):
        if dx.ndim == 2:   # a sweep's residual, not the predictor's table
            sizes.append(np.abs(dx).max(axis=1) / (np.abs(x).max(axis=1) + 1e-30))
        return change(dx, x)

    monkeypatch.setattr(coupling, "_change", spy)
    cfg = config.preset("static-ic1-kg1-csat")
    scenario = dataclasses.replace(cfg.scenario, t_end=24 * 3600.0, node_count=41)
    trajectory = coupling.run(scenario, cfg.params)
    assert len(sizes) == sum(d.iterations for d in trajectory.diagnostics)
    for state in trajectory.states:
        assert not state.u.any() and not state.p.any()
    for row in sizes:
        assert row[0] == row[1] == 0.0
        assert row[2:].max() > 0.0


@pytest.mark.parametrize("overrides", [
    {},
    {"culture_mode": "perfused"},
    {"culture_mode": "perfused", "darcy_dirichlet_side": "right"},
    {"max_iter": 5},   # every step bisects
], ids=["static", "perfused", "perfused-right", "bisected"])
def test_sweep_band_is_block_diagonal(monkeypatch, overrides):
    # every sweep assembles its three systems into one band of order 6N
    # and checks it once: the entries that would couple two of its six
    # blocks, and the two outside the matrix, are zero in every sweep
    check, sweep = linalg.check_residual, coupling._sweep
    couplings, steps = [], []

    def spy_check(band, x, b):
        columns = np.arange(1, 6) * x.shape[1]
        couplings.append(np.concatenate((
            band.data[0, columns], band.data[2, columns - 1],
            band.data[[0, 2], [0, -1]])))
        return check(band, x, b)

    def spy_sweep(mesh, x, level, dt, *args):
        steps.append(dt)
        return sweep(mesh, x, level, dt, *args)

    monkeypatch.setattr(linalg, "check_residual", spy_check)
    monkeypatch.setattr(coupling, "_sweep", spy_sweep)
    scenario = short_scenario(**overrides)
    coupling.run(scenario, ModelParams())
    assert len(couplings) == len(steps) > 5
    assert not np.concatenate(couplings).any()
    if "max_iter" in overrides:   # sub-steps of dt / 2^k too
        assert min(steps) < scenario.dt


def test_residual_contract_is_checked_per_block_of_a_sweep(monkeypatch):
    # a real static sweep: p = 0, so the pressure block's bound is 0 while
    # the whole band's is about 1e-9. A perturbation of one gtsv result
    # whose residual lies below the whole band's bound but above its own
    # block's must fail that sweep, for each of the six blocks in turn
    cfg = config.preset("static-ic1-kg1-csat")
    scenario = dataclasses.replace(cfg.scenario, node_count=41)
    mesh = build_mesh(scenario.length, scenario.node_count)
    n = mesh.node_count
    level = initial_state(mesh, cfg.params, scenario).level
    args = (mesh, level[:7], level, scenario.dt, scenario, cfg.params)
    checked = []
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "check_residual", lambda *a: checked.append(a))
        coupling._sweep(*args)
    band, x, rhs = checked[0]
    rows = band.row_sums(np.abs(band.data)).reshape(6, n)
    block_bound = RESIDUAL_REL * (rows.max(axis=1) * np.abs(x).max(axis=1)
                                  + np.abs(rhs).max(axis=1))
    band_bound = RESIDUAL_REL * (rows.max() * np.abs(x).max()
                                 + np.abs(rhs).max())
    target = 1e-3 * band_bound
    mid = n // 2
    real = linalg._gtsv
    for block in range(6):
        assert block_bound[block] < target < band_bound
        # the perturbed unknown's column of A scales the residual it makes
        column = np.abs(band.data[:, block * n + mid]).max()
        error = target / column
        perturbed_x = x.copy()
        perturbed_x[block, mid] += error
        check_residual(band, perturbed_x, rhs.reshape(1, -1))
        with pytest.raises(SingularSystemError, match="exceeds contract"):
            check_residual(band, perturbed_x, rhs)

        # gtsv call 0 solves block 0, call 1 block 1, call 2 blocks 2-5
        calls = []

        def perturbed(*gtsv_args, block=block, error=error):
            *factors, solution, info = real(*gtsv_args)
            if len(calls) == min(block, 2):
                solution[max(block - 2, 0) * n + mid] += error
            calls.append(1)
            return (*factors, solution, info)

        monkeypatch.setattr(linalg, "_gtsv", perturbed)
        with pytest.raises(SingularSystemError, match="exceeds contract"):
            coupling._sweep(*args)
        assert len(calls) == 3
        monkeypatch.setattr(linalg, "_gtsv", real)
