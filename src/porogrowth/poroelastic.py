"""Linearized poroelastic saddle-point solve of one fixed-point sweep.

Unknowns are the nodal pairs (u_i, p_i), interleaved so the assembled
matrix stays banded with kl = ku = 3. Equal-order continuous piecewise
linear interpolation is used for both fields; element coefficients are
evaluated at midpoints as the mean of the nodal values.

Weak form, with test functions w (momentum) and q (continuity):

    int a u' w' - int p w' = T_b w(L) + int G w' - int f_u w
    int K p' q' + (1/dt) int u' q = (1/dt) int (u_prev)' q
                                    - V_b q(end) + int f_p q

where a = H_A phi_s, G = H_A g_n phi_n + H_B sum(phi_eta g_eta), and
f_u, f_p are optional manufactured-solution forcings. Essential rows
(u = 0 at the wall, p = 0 on the Dirichlet side) are replaced.
"""

import numpy as np

from .constitutive import permeability
from .errors import NonphysicalStateError
from .linalg import BandedMatrix, solve_banded
from .mesh import element_means
from .params import EPS_PHI


def assemble(mesh, phi_lagged, g_lagged, u_prev, dt, t_b, v_b, params,
             forcing_u=None, forcing_p=None, dirichlet_side="left"):
    """Assemble one sweep's linear system.

    phi_lagged is the stacked (4, N) species array, g_lagged the stacked
    (4, N) growth distortions, u_prev the displacement at the previous
    time level. dt = None drops the strain-rate coupling (steady mode).
    dirichlet_side picks which end carries p = 0; the Darcy velocity
    datum v_b applies at the opposite end. Returns (matrix, rhs, k_e):
    the interleaved BandedMatrix, its rhs and the per-element
    permeability.
    """
    n = mesh.node_count
    h = mesh.h
    phi_fl = 1.0 - phi_lagged.sum(axis=0)
    if np.min(phi_fl) <= EPS_PHI or np.max(phi_fl) >= 1.0:
        raise NonphysicalStateError(
            f"lagged fluid fraction out of range: [{np.min(phi_fl)}, {np.max(phi_fl)}]")
    phi_s = 1.0 - phi_fl

    a_e = params.H_A * element_means(phi_s)
    k_e = permeability(element_means(phi_fl), params)
    growth = (
        params.H_A * g_lagged[0] * phi_lagged[0]
        + params.H_B * (
            g_lagged[1] * phi_lagged[1]
            + g_lagged[2] * phi_lagged[2]
            + g_lagged[3] * phi_lagged[3])
    )
    g_e = element_means(growth)
    inv_dt = 0.0 if dt is None else 1.0 / dt

    matrix = BandedMatrix(n=2 * n, kl=3, ku=3)
    rhs = np.zeros(2 * n)
    # dof 2i is u_i and dof 2i+1 is p_i, so A[r, c] sits at
    # band[3 + r - c, c // 2, c % 2]; element e couples nodes e and e+1,
    # i.e. the slices [:-1] (left node) and [1:] (right node). Each entry
    # sums at most two element contributions.
    band = matrix.data.reshape(7, n, 2)
    r = rhs.reshape(n, 2)
    a_h = a_e / h
    k_h = k_e / h
    half_dt = 0.5 * inv_dt

    # momentum rows: int a u' w' - int p w'
    band[3, :-1, 0] += a_h         # (u_e, u_e)
    band[1, 1:, 0] -= a_h          # (u_e, u_e+1)
    band[3, 1:, 0] += a_h          # (u_e+1, u_e+1)
    band[5, :-1, 0] -= a_h         # (u_e+1, u_e)
    band[2, :-1, 1] += 0.5         # (u_e, p_e)
    band[0, 1:, 1] += 0.5          # (u_e, p_e+1)
    band[4, :-1, 1] -= 0.5         # (u_e+1, p_e)
    band[2, 1:, 1] -= 0.5          # (u_e+1, p_e+1)
    # growth prestress on the rhs: + int G w'
    r[:-1, 0] -= g_e
    r[1:, 0] += g_e

    # continuity rows: int K p' q' + (1/dt) int u' q
    band[3, :-1, 1] += k_h         # (p_e, p_e)
    band[1, 1:, 1] -= k_h          # (p_e, p_e+1)
    band[3, 1:, 1] += k_h          # (p_e+1, p_e+1)
    band[5, :-1, 1] -= k_h         # (p_e+1, p_e)
    band[4, :-1, 0] -= half_dt     # (p_e, u_e)
    band[2, 1:, 0] += half_dt      # (p_e, u_e+1)
    band[6, :-1, 0] -= half_dt     # (p_e+1, u_e)
    band[4, 1:, 0] += half_dt      # (p_e+1, u_e+1)
    du_prev = half_dt * np.diff(u_prev)
    r[:-1, 1] += du_prev
    r[1:, 1] += du_prev

    # natural boundary data
    rhs[2 * (n - 1)] += t_b
    if dirichlet_side == "left":
        rhs[2 * (n - 1) + 1] -= v_b
    else:
        rhs[1] -= v_b

    # optional manufactured forcings (trapezoid load)
    if forcing_u is not None:
        rhs[0::2] -= mesh.lumped_masses * np.asarray(forcing_u, dtype=float)
    if forcing_p is not None:
        rhs[1::2] += mesh.lumped_masses * np.asarray(forcing_p, dtype=float)

    # essential rows: cleared inside the band, unit diagonal, zero rhs
    for row in (0, 1 if dirichlet_side == "left" else 2 * n - 1):
        matrix.zero_row(row)
        matrix.data[matrix.ku, row] = 1.0
        rhs[row] = 0.0

    return matrix, rhs, k_e


def solve(mesh, matrix, rhs, k_e):
    """Solve an assembled system for (u, p) and the per-element Darcy
    flux V = -K p'."""
    x = solve_banded(matrix, rhs)
    u = x[0::2]
    p = x[1::2]
    v = -k_e * np.diff(p) / mesh.h
    return u, p, v
