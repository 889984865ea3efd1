"""End-to-end acceptance checks: one test per release criterion.

These exercise the full solver stack at production resolution (N = 101,
dt = 3600 s, 30-day horizon), so the module is slower than the unit
tests; the 16 preset trajectories are computed once per session.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from porogrowth import cli, config, constitutive, coupling, verify
from porogrowth.scenario import SECONDS_PER_DAY
from porogrowth.state import indicator_r, solid_and_fluid

from conftest import frozen_kinetics_params

DAY_STEPS = int(SECONDS_PER_DAY / 3600.0)


@pytest.fixture(scope="session")
def preset_runs():
    """name -> (trajectory, wall seconds) for all 16 presets."""
    runs = {}
    for name in config.PRESET_NAMES:
        cfg = config.preset(name)
        t0 = time.perf_counter()
        trajectory = coupling.run(cfg.scenario, cfg.params)
        runs[name] = (trajectory, time.perf_counter() - t0)
    return runs


def day_state(trajectory, day):
    idx = day * DAY_STEPS
    assert trajectory.times[idx] == pytest.approx(day * SECONDS_PER_DAY)
    return trajectory.states[idx]


def rel_l2_fit_residual(mesh, values, degree):
    """Relative L2 misfit of the best degree-`degree` polynomial."""
    coeffs = np.polyfit(mesh.nodes, values, degree)
    fit = np.polyval(coeffs, mesh.nodes)
    m = mesh.lumped_masses
    norm = np.sqrt(m @ values**2)
    if norm == 0.0:
        return 0.0
    return float(np.sqrt(m @ (values - fit) ** 2) / norm)


def test_criterion_1_oracle_suites():
    t0 = time.perf_counter()
    results = [verify.run_suite(name) for name in verify.SUITE_NAMES]
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in results if not r.passed]
    assert not failures, f"verify suites failed: {failures}"
    assert elapsed < 30.0, f"verify took {elapsed:.1f} s"


def test_criterion_2_positivity_and_closure(preset_runs):
    for name, (trajectory, wall) in preset_runs.items():
        assert wall < 60.0, f"{name} took {wall:.1f} s"
        for state in trajectory.states:
            for field in ("c", "phi_n", "phi_v", "phi_q", "phi_ecm"):
                low = float(np.min(getattr(state, field)))
                assert low >= -1e-12, f"{name}: {field} dips to {low}"
            _, fl = solid_and_fluid(state.level[3:7])
            assert np.min(fl) > 1e-6, f"{name}: phi_fl min {np.min(fl)}"
            assert np.max(fl) < 1.0, f"{name}: phi_fl max {np.max(fl)}"


def test_criterion_3_frozen_kinetics_conservation():
    cfg = config.preset("static-ic1-kg1-csat")
    params = frozen_kinetics_params()
    trajectory = coupling.run(cfg.scenario, params)
    m = trajectory.mesh.lumped_masses
    for prev, state in zip(trajectory.states, trajectory.states[1:]):
        for field in ("phi_n", "phi_v", "phi_q", "phi_ecm"):
            total_prev = m @ getattr(prev, field)
            total = m @ getattr(state, field)
            assert abs(total - total_prev) <= 1e-12 * abs(total_prev), (
                f"{field} drifts in one step: {total_prev} -> {total}")


def test_criterion_4_static_stays_isotropic_and_cells_vanish(preset_runs):
    trajectory, _ = preset_runs["static-ic1-kg1-csat"]
    # the presets keep a snapshot, and its xi map, at every step
    for step, xi in enumerate(trajectory.xi_maps):
        assert np.all(xi == 1), f"anisotropy appeared at step {step}"
    phi_n_mid = np.asarray(trajectory.mid_series["phi_n"])
    t_days = np.asarray(trajectory.series_times) / SECONDS_PER_DAY
    peak = int(np.argmax(phi_n_mid))
    assert t_days[peak] <= 5.0, f"phi_n peaks at day {t_days[peak]:.1f}"
    assert phi_n_mid[-1] < 0.1 * phi_n_mid[peak], (
        f"phi_n(day 30) = {phi_n_mid[-1]} vs peak {phi_n_mid[peak]}")


def test_criterion_5_static_pressure_parabolic(preset_runs):
    trajectory, _ = preset_runs["static-ic1-kg1-csat"]
    state = day_state(trajectory, 20)
    residual = rel_l2_fit_residual(trajectory.mesh, state.p, degree=2)
    assert residual < 1e-2, f"quadratic misfit {residual}"


def test_criterion_6_perfused_pressure_linear_and_anisotropic(preset_runs):
    trajectory, _ = preset_runs["perfused-ic1-kg1-csat"]
    state = day_state(trajectory, 20)
    residual = rel_l2_fit_residual(trajectory.mesh, state.p, degree=1)
    assert residual < 1e-2, f"linear misfit {residual}"
    for step, xi in enumerate(trajectory.xi_maps[1:], start=1):
        assert np.all(xi == 0), f"isotropic node at step {step}"
    # the primitive form: the perfusion stress pushes r past the
    # threshold everywhere after the very first step
    params = config.preset("perfused-ic1-kg1-csat").params
    first = trajectory.states[1]
    r_first = indicator_r(trajectory.mesh, first.u,
                          solid_and_fluid(first.level[3:7])[0],
                          first.phi_n, first.g_n)
    assert np.min(r_first) > params.r_bar, (
        f"min r = {np.min(r_first)} vs r_bar = {params.r_bar}")


def test_criterion_7_kinetics_and_stress_identities():
    from porogrowth.mesh import build_mesh
    from porogrowth.params import ModelParams
    from porogrowth.state import indicator_r, nodal_strain

    params = ModelParams()
    rng = np.random.default_rng(2024)
    n = 10_000
    phi = rng.uniform(0.0, 0.05, size=(4, n))
    phi_fl = 1.0 - phi.sum(axis=0)
    c = rng.uniform(0.0, 6.4e-6, size=n)
    h_r = rng.integers(0, 2, size=n)
    h_c = rng.integers(0, 2, size=n)
    sigma, source = constitutive.kinetics_fields(
        phi, phi_fl, c, h_r, h_c, params.k_g1, params)
    starve = params.k_qui * (1 - h_c)
    # P/C entries: with the proliferation term P11 phi_n removed, the
    # production rows are P13 phi_q, P23 phi_q, P31 phi_n + P32 phi_v
    # and P42 phi_v
    p11 = phi_fl * (c / (params.K_sat + c)) * params.k_g1
    p42 = (c * params.E * params.k_GAG / params.V_cell
           * (1.0 - phi[3] / params.phi_ecm_max))
    p13_phi_q = source[0] - p11 * phi[0]
    tol = 1e-12 * (np.abs(source) + 1e-300)
    assert np.all(np.abs(p13_phi_q - params.beta * h_r * phi[2]) <= tol[0])
    assert np.all(np.abs(source[1] - params.beta * (1 - h_r) * phi[2]) <= tol[1])
    assert np.all(np.abs(source[2] - (phi[0] / params.tau_m
                                      + params.beta * h_r * phi[1])) <= tol[2])
    assert np.all(np.abs(source[3] - p42 * phi[1]) <= tol[3])
    # beta channel balance: the two q outflows sum to beta and match
    # the q consumption net of starvation and apoptosis
    assert np.all(np.abs(p13_phi_q + source[1] - params.beta * phi[2])
                  <= 1e-12 * params.beta * phi[2] + tol[0])
    assert np.all(np.abs(sigma[2] - (params.beta + starve + params.k_apo))
                  <= 1e-12 * params.beta)
    # tau_m balance: the n -> q transfer appears on both sides
    assert np.all(np.abs(sigma[0] - (1.0 / params.tau_m + starve))
                  <= 1e-12 * sigma[0])
    assert np.all(np.abs(sigma[1] - (params.beta * h_r + starve + params.k_apo))
                  <= 1e-12 * params.beta)

    # stress: T_xx, sigma_II and tau_max of the uniaxial mixture stress,
    # against the production isotropy indicator r
    mesh = build_mesh(1.0, n)
    u = rng.uniform(-1e-3, 1e-3, size=n) * mesh.h
    u_x = nodal_strain(mesh, u)
    p = rng.uniform(-10.0, 10.0, size=n)
    g = rng.uniform(-1e-3, 1e-3, size=(4, n))
    deviator = phi.sum(axis=0) * u_x - g[0] * phi[0]
    growth_iso = params.H_B * (phi[1] * g[1] + phi[2] * g[2] + phi[3] * g[3])
    t_xx = params.H_A * deviator - p - growth_iso   # = sigma_I
    sigma_ii = params.lam * deviator - p - growth_iso
    tau_max = params.mu * deviator
    r = indicator_r(mesh, u, phi.sum(axis=0), phi[0], g[0])
    assert np.all(np.abs(r * params.mu - np.abs(tau_max))
                  <= 1e-12 * (np.abs(tau_max) + 1e-30))
    scale = np.abs(t_xx) + np.abs(sigma_ii) + 1e-30
    assert np.all(np.abs(np.abs(t_xx - sigma_ii) - 2.0 * params.mu * r)
                  <= 1e-12 * scale)


def test_criterion_8_sweep_determinism(tmp_path):
    # byte-identical CSV trees from two identical sweeps; a 2-day
    # horizon keeps the doubled 16-preset sweep affordable without
    # weakening the determinism property under test
    trees = []
    for label in ("first", "second"):
        out = str(tmp_path / label)
        code = cli.main(["sweep", "--all-presets", "--out", out,
                         "--t-end", str(2 * int(SECONDS_PER_DAY))])
        assert code == cli.EXIT_OK
        trees.append(out)
    for name in config.PRESET_NAMES:
        d1 = os.path.join(trees[0], name)
        d2 = os.path.join(trees[1], name)
        files = sorted(os.listdir(d1))
        assert files == sorted(os.listdir(d2))
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, files, shallow=False)
        assert not mismatch and not errors, (name, mismatch, errors)


def test_criterion_9_fixed_point_health(preset_runs):
    for name, (trajectory, _) in preset_runs.items():
        iters = [d.iterations for d in trajectory.diagnostics]
        assert len(iters) == 30 * DAY_STEPS, f"{name}: missing steps"
        assert max(iters) <= 100, f"{name}: worst step took {max(iters)}"
        med = float(np.median(iters))
        assert med <= 10.0, f"{name}: median sweeps {med}"
