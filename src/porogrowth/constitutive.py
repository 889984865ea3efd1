"""Pointwise closures: permeability, diffusivity, switches, kinetics.

All functions are pure and act elementwise on numpy arrays.
"""

import numpy as np

from .params import EPS_PHI


# --- permeability and diffusivity -----------------------------------

def permeability_shape(phi_fl):
    """Dimensionless permeability shape psi = phi_fl^2 / (1 - phi_fl).

    Singular at phi_fl = 1; the coupling loop passes only element means
    of a fluid fraction that poroelastic.assemble has checked to lie in
    (EPS_PHI, 1).
    """
    return phi_fl**2 / (1.0 - phi_fl)


def permeability(phi_fl, params):
    """Hydraulic permeability K = K_ref psi(phi_fl) (cm^3 s g^-1)."""
    return params.K_ref * permeability_shape(phi_fl)


def nutrient_diffusivity(phi_fl, params):
    """Effective oxygen diffusivity of the two-phase mixture (cm^2 s^-1).

    D = D_fl (3k - 2 phi_fl (k-1)) / (3 + phi_fl (k-1)), k = K_eq Ds/Dfl.
    Reduces to D_fl at phi_fl = 1 and to K_eq D_s at phi_fl = 0. The
    denominator is at least 3 - phi_fl > 2 for phi_fl in [0, 1), k >= 0.
    """
    k = params.k_partition
    return (params.D_c_fl * (3.0 * k - 2.0 * phi_fl * (k - 1.0))
            / (3.0 + phi_fl * (k - 1.0)))


# --- switches ---------------------------------------------------------

def switch_Hr(r, r_bar, inverted=False):
    """Anisotropy switch: 1 in the anisotropic regime r > r_bar, else 0.

    The tie r = r_bar stays isotropic (0). `inverted` flips the
    convention for sensitivity studies.
    """
    h = np.where(r > r_bar, 1, 0)
    return 1 - h if inverted else h


def switch_Hc(c, threshold):
    """Nutrient-sufficiency switch: 1 for c > threshold, else 0."""
    return np.where(c > threshold, 1, 0)


# --- population kinetics ---------------------------------------------

def kinetics_fields(phi, phi_fl, c, h_r, h_c, k_g, params):
    """Nodal reaction data for the species solves.

    phi is the (4, N) stacked fraction array, h_r and h_c the switches.
    Returns (sigma, source): sigma[eta] is the consumption diagonal
    C_eta_eta and source[eta] the production row (P phi)_eta of the
    sparse production matrix P (entries P11, P13, P23, P31, P32, P42),
    both (4, N).
    """
    monod = c / (params.K_sat + c)
    beta_r = params.beta * h_r
    starve = params.k_qui * (1 - h_c)
    source = np.empty_like(phi)
    source[0] = phi_fl * monod * k_g * phi[0] + beta_r * phi[2]
    source[1] = params.beta * (1 - h_r) * phi[2]
    source[2] = 1.0 / params.tau_m * phi[0] + beta_r * phi[1]
    source[3] = (c * params.E * params.k_GAG / params.V_cell   # P42 phi_v
                 * np.maximum(0.0, 1.0 - phi[3] / params.phi_ecm_max) * phi[1])
    # the two complementary beta channels out of q sum to beta
    sigma = np.empty_like(phi)
    sigma[0] = 1.0 / params.tau_m + starve
    sigma[1] = beta_r + starve + params.k_apo
    sigma[2] = params.beta + starve + params.k_apo
    sigma[3] = params.k_deg
    return sigma, source


# --- oxygen sink ------------------------------------------------------

def oxygen_sink(phi_n, phi_v, phi_q, c, params):
    """Lagged linear factor of the Michaelis-Menten oxygen sink.

    Q_hat = -(R_n phi_n + R_v phi_v + R_q phi_q) / (c + K_half) is the
    reaction coefficient the fixed point applies to the new
    concentration; the sink itself is Q_c = Q_hat * c.
    """
    uptake = params.R_n * phi_n + params.R_v * phi_v + params.R_q * phi_q
    return -uptake / (c + params.K_half)


# --- growth distortions ----------------------------------------------

def growth_distortion_step(g, phi, sigma, source, dt):
    """Advance the growth distortions by one step of model G1.

    G1 is a volumetric-growth surrogate: dg/dt = (source - sigma phi) /
    (3 phi), of the kinetics_fields pair, wherever the constituent is
    present (phi > EPS_PHI), forward Euler in time. (Model G0 holds g at
    its configured constants and never calls this.)
    """
    present = phi > EPS_PHI
    net_rate = (source - sigma * phi) / np.where(present, phi, 1.0)
    return g + np.where(present, net_rate * dt / 3.0, 0.0)
