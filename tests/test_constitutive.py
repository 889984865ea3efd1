import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porogrowth import constitutive as con
from porogrowth import poroelastic
from porogrowth.mesh import build_mesh
from porogrowth.params import ModelParams
from porogrowth.state import indicator_r, nodal_strain
from porogrowth.verify import checked_poroelastic

from conftest import lagged

PARAMS = ModelParams()


# --- permeability -----------------------------------------------------

def test_permeability_shape_values():
    assert con.permeability_shape(0.5) == pytest.approx(0.5)
    assert con.permeability_shape(0.9) == pytest.approx(8.1)
    assert con.permeability_shape(0.0) == 0.0


def test_permeability_scaling():
    assert con.permeability(0.9, PARAMS) == pytest.approx(8.1 * PARAMS.K_ref)


def test_permeability_monotone_in_phi_fl():
    phi = np.linspace(0.05, 0.95, 50)
    psi = con.permeability_shape(phi)
    assert np.all(np.diff(psi) > 0.0)


# --- diffusivity --------------------------------------------------------

def test_diffusivity_limits():
    # pure fluid recovers the fluid value; pure solid the partitioned one
    assert con.nutrient_diffusivity(1.0, PARAMS) == pytest.approx(PARAMS.D_c_fl)
    assert con.nutrient_diffusivity(0.0, PARAMS) == pytest.approx(
        PARAMS.K_eq * PARAMS.D_c_s)


def test_diffusivity_monotone_and_bounded():
    phi = np.linspace(0.0, 1.0, 101)
    d = con.nutrient_diffusivity(phi, PARAMS)
    lo = PARAMS.K_eq * PARAMS.D_c_s
    assert np.all(np.diff(d) > 0.0)
    assert np.all(d >= lo - 1e-20)
    assert np.all(d <= PARAMS.D_c_fl + 1e-20)


def test_diffusivity_mixture_value():
    # k = 0.075: D(0.9) = D_fl (0.225 + 1.665) / (3 - 0.8325)
    expected = 1e-5 * (3 * 0.075 - 2 * 0.9 * (0.075 - 1)) / (3 + 0.9 * (0.075 - 1))
    assert con.nutrient_diffusivity(0.9, PARAMS) == pytest.approx(expected)


# --- stress and the isotropy indicator ---------------------------------

def uniaxial_stresses(phi, g, u_x, p, params):
    """(T_xx, sigma_II, tau_max) of the uniaxial mixture stress.

    T_xx = sigma_I = H_A (phi_s u_x - g_n phi_n) - p - H_B sum(phi_eta
    g_eta) over eta in {v, q, ecm}; sigma_II = sigma_III swaps H_A for
    lam; tau_max = mu (phi_s u_x - g_n phi_n).
    """
    deviator = phi.sum(axis=0) * u_x - g[0] * phi[0]
    growth_iso = params.H_B * (phi[1] * g[1] + phi[2] * g[2] + phi[3] * g[3])
    t_xx = params.H_A * deviator - p - growth_iso
    sigma_ii = params.lam * deviator - p - growth_iso
    return t_xx, sigma_ii, params.mu * deviator


def test_stress_identities_randomized():
    # 10,000 random nodes: r mu = |tau_max|, and the anisotropic part
    # |sigma_I - sigma_II| of the stress is 2 mu r
    rng = np.random.default_rng(7)
    n = 10_000
    mesh = build_mesh(1.0, n)
    u = rng.uniform(-1e-3, 1e-3, size=n) * mesh.h
    p = rng.uniform(-10.0, 10.0, size=n)
    phi = rng.uniform(0.0, 0.05, size=(4, n))
    g = rng.uniform(-1e-3, 1e-3, size=(4, n))
    t_xx, sigma_ii, tau_max = uniaxial_stresses(
        phi, g, nodal_strain(mesh, u), p, PARAMS)
    r = indicator_r(mesh, u, phi.sum(axis=0), phi[0], g[0])
    assert np.all(np.abs(r * PARAMS.mu - np.abs(tau_max))
                  <= 1e-12 * (np.abs(tau_max) + 1e-30))
    # the difference of the principal stresses carries their
    # cancellation error, so scale by their magnitude
    scale = np.abs(t_xx) + np.abs(sigma_ii) + 1e-30
    assert np.all(np.abs(np.abs(t_xx - sigma_ii) - 2.0 * PARAMS.mu * r)
                  <= 1e-12 * scale)


def test_stress_axial_value():
    # steady traction-only solve with growth prestress: the momentum
    # balance makes the axial stress T_xx equal T_b at every node
    mesh = build_mesh(0.01, 31)
    n = mesh.node_count
    phi = np.repeat([[0.01], [0.02], [0.03], [0.04]], n, axis=1)
    g = np.repeat([[1e-4], [2e-4], [3e-4], [4e-4]], n, axis=1)
    u, p, _ = checked_poroelastic(mesh, poroelastic.assemble(
        mesh, *lagged(phi, g, np.zeros(n)), math.inf, PARAMS.T_b, 0.0,
        PARAMS))
    t_xx, _, tau_max = uniaxial_stresses(phi, g, nodal_strain(mesh, u), p, PARAMS)
    assert np.allclose(t_xx, PARAMS.T_b, rtol=1e-10, atol=0.0)
    r = indicator_r(mesh, u, phi.sum(axis=0), phi[0], g[0])
    assert np.allclose(PARAMS.mu * r, np.abs(tau_max), rtol=1e-12, atol=0.0)


# --- switches -----------------------------------------------------------

def test_switch_Hr():
    r_bar = PARAMS.r_bar
    assert con.switch_Hr(2.0 * r_bar, r_bar) == 1
    assert con.switch_Hr(0.5 * r_bar, r_bar) == 0
    assert con.switch_Hr(r_bar, r_bar) == 0  # tie stays isotropic
    assert con.switch_Hr(2.0 * r_bar, r_bar, inverted=True) == 0
    arr = con.switch_Hr(np.array([0.0, 1.0]), r_bar)
    assert arr.tolist() == [0, 1]


def test_switch_Hc():
    assert con.switch_Hc(PARAMS.c_thr * 1.01, PARAMS.c_thr) == 1
    assert con.switch_Hc(PARAMS.c_thr, PARAMS.c_thr) == 0
    assert con.switch_Hc(0.0, PARAMS.c_thr) == 0


# --- kinetics -----------------------------------------------------------

def production_matrix(phi, phi_fl, c, h_r, k_g, params):
    """The 4x4 production matrix P at one node, entry by entry."""
    P = np.zeros((4, 4))
    P[0, 0] = phi_fl * c / (params.K_sat + c) * k_g
    P[0, 2] = params.beta * h_r
    P[1, 2] = params.beta * (1 - h_r)
    P[2, 0] = 1.0 / params.tau_m
    P[2, 1] = params.beta * h_r
    P[3, 1] = (c * params.E * params.k_GAG / params.V_cell
               * max(0.0, 1.0 - phi[3] / params.phi_ecm_max))
    return P


def consumption_diagonal(h_r, h_c, params):
    """The diagonal of the consumption matrix C at one node."""
    starve = params.k_qui * (1 - h_c)
    return np.array([
        1.0 / params.tau_m + starve,
        params.beta * h_r + starve + params.k_apo,
        params.beta + starve + params.k_apo,
        params.k_deg,
    ])


def test_kinetics_matrix_sparsity_and_values():
    c = 4e-6
    phi = np.array([[0.01], [0.02], [0.03], [0.04]])
    sigma, source = con.kinetics_fields(
        phi, np.array([0.9]), np.array([c]), np.array([1]), np.array([1]),
        PARAMS.k_g1, PARAMS)
    monod = c / (PARAMS.K_sat + c)
    p42 = (c * PARAMS.E * PARAMS.k_GAG / PARAMS.V_cell
           * (1.0 - 0.04 / PARAMS.phi_ecm_max))
    assert source[:, 0] == pytest.approx([
        0.9 * monod * PARAMS.k_g1 * 0.01 + PARAMS.beta * 0.03,
        0.0,
        0.01 / PARAMS.tau_m + PARAMS.beta * 0.02,
        p42 * 0.02,
    ], rel=1e-14)
    assert source[1, 0] == 0.0  # h_r = 1 closes the q -> v channel
    assert sigma[:, 0] == pytest.approx([
        1.0 / PARAMS.tau_m, PARAMS.beta + PARAMS.k_apo,
        PARAMS.beta + PARAMS.k_apo, PARAMS.k_deg], rel=1e-14)
    # node j holds only species j, so source[:, j] is column j of P
    # (scaled): only P11, P13, P31, P32 and P42 are nonzero at h_r = 1
    unit = 0.01 * np.eye(4)
    _, columns = con.kinetics_fields(
        unit, 1.0 - unit.sum(axis=0), np.full(4, c), np.ones(4, dtype=int),
        np.ones(4, dtype=int), PARAMS.k_g1, PARAMS)
    mask = np.zeros((4, 4), dtype=bool)
    for ij in ((0, 0), (0, 2), (2, 0), (2, 1), (3, 1)):
        mask[ij] = True
    assert np.all(columns[mask] > 0.0)
    assert np.all(columns[~mask] == 0.0)


def test_kinetics_cross_conservation_randomized():
    # the q-outflow beta splits between the two H_r channels and the
    # n-outflow 1/tau_m reappears as q production: consumption of the
    # donor always matches the matching production entries
    rng = np.random.default_rng(11)
    n = 10_000
    phi = rng.uniform(0.0, 0.05, size=(4, n))
    phi_fl = 1.0 - phi.sum(axis=0)
    c = rng.uniform(0.0, 6.4e-6, size=n)
    h_r = rng.integers(0, 2, size=n)
    h_c = rng.integers(0, 2, size=n)
    k_g = rng.uniform(0.0, 1e-5, size=n)
    sigma, source = con.kinetics_fields(phi, phi_fl, c, h_r, h_c, k_g, PARAMS)
    starve = PARAMS.k_qui * (1 - h_c)
    # beta channel: P13 + P23 = beta, matching C33 net of starvation
    # and apoptosis
    p11 = phi_fl * (c / (PARAMS.K_sat + c)) * k_g
    from_q = source[0] - p11 * phi[0] + source[1]
    assert np.all(np.abs(from_q - PARAMS.beta * phi[2])
                  <= 1e-12 * (source[0] + source[1]) + 1e-300)
    assert np.allclose(sigma[2], PARAMS.beta + starve + PARAMS.k_apo,
                       rtol=1e-12, atol=0.0)
    # tau_m channel: the n -> q transfer shows up on both sides
    to_q_from_n = source[2] - PARAMS.beta * h_r * phi[1]
    assert np.all(np.abs(to_q_from_n - phi[0] / PARAMS.tau_m)
                  <= 1e-12 * source[2] + 1e-300)
    assert np.allclose(sigma[0], 1.0 / PARAMS.tau_m + starve,
                       rtol=1e-12, atol=0.0)
    # v consumption mirrors its H_r production into q
    assert np.allclose(sigma[1], PARAMS.beta * h_r + starve + PARAMS.k_apo,
                       rtol=1e-12, atol=0.0)


def test_kinetics_fields_matches_pointwise_matrices():
    rng = np.random.default_rng(3)
    n = 17
    phi = rng.uniform(0.0, 0.04, size=(4, n))
    phi_fl = 1.0 - phi.sum(axis=0)
    c = rng.uniform(1e-7, 6e-6, size=n)
    h_r = rng.integers(0, 2, size=n)
    h_c = rng.integers(0, 2, size=n)
    sigma, source = con.kinetics_fields(phi, phi_fl, c, h_r, h_c,
                                        PARAMS.k_g2, PARAMS)
    for i in range(n):
        P = production_matrix(phi[:, i], phi_fl[i], c[i], int(h_r[i]),
                              PARAMS.k_g2, PARAMS)
        assert np.allclose(source[:, i], P @ phi[:, i], rtol=1e-14, atol=0.0)
        assert np.allclose(sigma[:, i],
                           consumption_diagonal(int(h_r[i]), int(h_c[i]), PARAMS),
                           rtol=1e-14, atol=0.0)


def test_ecm_production_saturates():
    phi = np.array([[0.01], [0.02], [0.0], [PARAMS.phi_ecm_max + 0.01]])
    _, source = con.kinetics_fields(phi, np.array([0.8]), np.array([5e-6]),
                                    np.array([1]), np.array([1]),
                                    PARAMS.k_g1, PARAMS)
    assert source[3, 0] == 0.0


# --- oxygen sink --------------------------------------------------------

def test_oxygen_sink_value():
    c = 3.2e-6
    q_hat = con.oxygen_sink(0.005, 0.001, 0.001, c, PARAMS)
    uptake = PARAMS.R_n * 0.005 + PARAMS.R_v * 0.001 + PARAMS.R_q * 0.001
    assert q_hat == pytest.approx(-uptake / 6.4e-6, rel=1e-14)
    assert q_hat * c == pytest.approx(-uptake / 2.0, rel=1e-14)


def test_oxygen_sink_michaelis_menten_limits():
    # c >> K_half: the sink q_hat c saturates at the total uptake rate
    c = 1.0
    assert con.oxygen_sink(0.01, 0.0, 0.0, c, PARAMS) * c == pytest.approx(
        -PARAMS.R_n * 0.01, rel=1e-5)
    # c = 0: no consumption, but a finite negative linear factor
    q_hat = con.oxygen_sink(0.01, 0.0, 0.0, 0.0, PARAMS)
    assert q_hat * 0.0 == 0.0
    assert q_hat < 0.0


@given(c=st.floats(min_value=0.0, max_value=1e-5),
       phi_n=st.floats(min_value=0.0, max_value=0.2))
@settings(max_examples=50, deadline=None)
def test_oxygen_sink_never_positive(c, phi_n):
    q_hat = con.oxygen_sink(phi_n, 0.0, 0.0, c, PARAMS)
    assert q_hat * c <= 0.0
    assert q_hat <= 0.0


# --- growth distortion --------------------------------------------------

def test_growth_model_g1_forward_euler():
    g = np.zeros(3)
    phi = np.array([0.1, 0.0, 0.1])
    sigma = np.full(3, 1e-6)
    # net rate (source - sigma phi) / phi = 3e-6 where phi = 0.1; the
    # absent constituent's source is masked, not divided by phi = 0
    source = np.array([4e-7, 5e-7, 4e-7])
    out = con.growth_distortion_step(g, phi, sigma, source, 100.0)
    assert out[0] == pytest.approx(1e-4)
    assert out[1] == 0.0  # absent constituent never grows
    assert out[2] == pytest.approx(1e-4)
