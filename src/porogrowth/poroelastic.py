"""Linearized poroelastic solve of one fixed-point sweep.

Equal-order continuous piecewise linear u and p; element coefficients
are midpoint means of the nodal values. Weak form, with test functions
w (momentum) and q (continuity):

    int a u' w' - int p w' = T_b w(L) + int G w' - int f_u w
    int K p' q' + (1/dt) int u' q = (1/dt) int (u_prev)' q
                                    - V_b q(end) + int f_p q

where a = H_A phi_s, G = H_A g_n phi_n + H_B sum(phi_eta g_eta), and
f_u, f_p are optional manufactured-solution forcings (trapezoid loads).
u = 0 at the wall and p = 0 on the Dirichlet side are essential.

The 2N saddle-point system is condensed exactly to the N pressures.
With u_0 = 0 essential, the momentum rows of nodes 1..N-1 telescope to
a known total stress on each element e:

    a_e (u_{e+1} - u_e) / h - pbar_e - g_e = T_e = t_b + sum_{j>e} F_j,

with pbar_e = (p_e + p_{e+1}) / 2 and F_j = -m_j f_u,j (m_j the lumped
masses). So u_{e+1} - u_e = w_e (T_e + g_e + pbar_e), w_e = h / a_e,
and the strain-rate term (1/(2 dt)) (u_{e+1} - u_e) of both continuity
rows of element e becomes w_e / (4 dt) on all four (p_e, p_{e+1})
entries plus (1/(2 dt)) w_e (T_e + g_e) moved to the rhs: one
tridiagonal pressure system, then u by one cumulative sum from u_0 = 0.
"""

import numpy as np

from .constitutive import permeability
from .errors import NonphysicalStateError, SingularSystemError
from .linalg import BandedMatrix, diagonals, solve_banded
from .mesh import element_means
from .params import EPS_PHI


def assemble(mesh, phi_lagged, phi_fl, g_lagged, u_prev, dt, t_b, v_b, params,
             forcing_u=None, forcing_p=None, boundary_flux_convention="left",
             out=None):
    """Assemble one sweep's condensed pressure system.

    phi_lagged is the stacked (4, N) species array, phi_fl its fluid
    fraction, g_lagged the (4, N) growth distortions, u_prev the last
    level's displacement. dt = math.inf drops the strain-rate coupling
    (steady mode). boundary_flux_convention picks which end carries p = 0;
    the Darcy velocity datum v_b applies at the other end. out is a zeroed
    (matrix, rhs) pair to assemble into (fresh when None).
    Returns (matrix, rhs, k_e, w_e, load): the pressure BandedMatrix and
    rhs, and per element the permeability, the compliance h / a_e and
    the load T_e + g_e.
    """
    n, h = mesh.node_count, mesh.h
    if phi_fl.min() <= EPS_PHI or phi_fl.max() >= 1.0:
        raise NonphysicalStateError(
            f"lagged fluid fraction out of range: [{np.min(phi_fl)}, {np.max(phi_fl)}]")
    a_e = params.H_A * element_means(1.0 - phi_fl)
    if not a_e.all():
        raise SingularSystemError("zero skeleton stiffness H_A phi_s on an element")
    k_e = permeability(element_means(phi_fl), params)
    growth = (params.H_A * g_lagged[0] * phi_lagged[0]
              + params.H_B * (g_lagged[1:] * phi_lagged[1:]).sum(axis=0))
    load = element_means(growth) + t_b
    if forcing_u is not None:
        # suffix sums of m_j f_u,j over the nodes right of each element
        f_u = mesh.lumped_masses * np.asarray(forcing_u, dtype=float)
        load -= np.cumsum(f_u[:0:-1])[::-1]
    w_e = h / a_e
    inv_dt = 1.0 / dt

    matrix, rhs = out or (BandedMatrix(np.zeros((3, n))), np.zeros(n))
    upper, diag, lower = diagonals(matrix.data)
    # element e couples nodes e and e+1, i.e. the slices [:-1] and [1:]
    coupling = 0.25 * inv_dt * w_e
    k_h = k_e / h
    diag[:-1] = k_h + coupling
    diag[1:] += k_h + coupling
    upper[:] = lower[:] = coupling - k_h
    strain = 0.5 * inv_dt * (u_prev[1:] - u_prev[:-1] - w_e * load)
    rhs[:-1] = strain
    rhs[1:] += strain
    if forcing_p is not None:
        rhs += mesh.lumped_masses * np.asarray(forcing_p, dtype=float)

    # Darcy datum at the flux end; unit row with zero data at p = 0
    if boundary_flux_convention == "left":
        rhs[-1] -= v_b
        diag[0], upper[0], rhs[0] = 1.0, 0.0, 0.0
    else:
        rhs[0] -= v_b
        diag[-1], lower[-1], rhs[-1] = 1.0, 0.0, 0.0

    return matrix, rhs, k_e, w_e, load


def solve(mesh, matrix, rhs, k_e, w_e, load):
    """Solve an assembled system for (u, p) and the per-element Darcy
    flux V = -K p'."""
    p = solve_banded(matrix, rhs)
    u = np.zeros_like(p)
    np.cumsum(w_e * (load + 0.5 * (p[:-1] + p[1:])), out=u[1:])
    v = -k_e * (p[1:] - p[:-1]) / mesh.h
    return u, p, v
