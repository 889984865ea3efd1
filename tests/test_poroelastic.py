import dataclasses
import math

import numpy as np
import pytest

from porogrowth import poroelastic
from porogrowth.constitutive import permeability
from porogrowth.errors import NonphysicalStateError, SingularSystemError
from porogrowth.linalg import RESIDUAL_REL
from porogrowth.mesh import build_mesh, element_means
from porogrowth.params import ModelParams
from porogrowth.verify import checked_poroelastic, saddle_point_system

from conftest import lagged

PARAMS = ModelParams()


def uniform_inputs(n, phi_eta=0.025, g=0.0):
    phi = np.full((4, n), phi_eta)
    g_fields = np.full((4, n), g)
    u_prev = np.zeros(n)
    return phi, g_fields, u_prev


def assemble_uniform(mesh, t_b=0.0, v_b=0.0, dt=3600.0, phi_eta=0.025,
                     g=0.0, **kwargs):
    phi, g_fields, u_prev = uniform_inputs(mesh.node_count, phi_eta, g)
    return poroelastic.assemble(mesh, *lagged(phi, g_fields, u_prev),
                                dt, t_b, v_b, PARAMS, **kwargs)


def test_zero_data_gives_zero_solution():
    mesh = build_mesh(0.01, 41)
    system = assemble_uniform(mesh)
    u, p, v = checked_poroelastic(mesh, system)
    assert np.max(np.abs(u)) < 1e-18
    assert np.max(np.abs(p)) < 1e-14
    assert np.max(np.abs(v)) < 1e-16


def test_darcy_linear_pressure():
    # steady perfusion with a rigid skeleton limit: p = -(V_b / K) x,
    # V = V_b on every element
    n = 51
    mesh = build_mesh(0.01, n)
    phi, g, u_prev = uniform_inputs(n)
    v_b = PARAMS.V_b
    system = poroelastic.assemble(mesh, *lagged(phi, g, u_prev),
                                  math.inf, 0.0, v_b, PARAMS)
    u, p, v = checked_poroelastic(mesh, system)
    k = permeability(0.9, PARAMS)
    assert np.allclose(p, -(v_b / k) * mesh.nodes, rtol=1e-10)
    assert np.allclose(v, v_b, rtol=1e-10)
    # zero traction: the axial stress a u' - p vanishes identically
    h_a = PARAMS.H_A * 0.1
    t_xx = h_a * np.diff(u) / mesh.h - 0.5 * (p[:-1] + p[1:])
    assert np.max(np.abs(t_xx)) < 1e-10 * np.max(np.abs(p))


def test_traction_only_uniform_strain():
    # T_b with no flow: u_x = T_b / (H_A phi_s) uniformly, p = 0
    n = 31
    mesh = build_mesh(0.01, n)
    phi, g, u_prev = uniform_inputs(n)
    t_b = PARAMS.T_b
    system = poroelastic.assemble(mesh, *lagged(phi, g, u_prev),
                                  math.inf, t_b, 0.0, PARAMS)
    u, p, v = checked_poroelastic(mesh, system)
    ux = t_b / (PARAMS.H_A * 0.1)
    assert np.allclose(u, ux * mesh.nodes, rtol=1e-10)
    assert np.max(np.abs(p)) < 1e-10 * t_b
    assert np.max(np.abs(v)) < 1e-12


def test_growth_prestress_displaces_free_end():
    # uniform g_n with zero traction: u_x = g_n phi_n / phi_s
    n = 31
    mesh = build_mesh(0.01, n)
    phi, _, u_prev = uniform_inputs(n)
    g = np.zeros((4, n))
    g[0] = 1e-3
    system = poroelastic.assemble(mesh, *lagged(phi, g, u_prev),
                                  math.inf, 0.0, 0.0, PARAMS)
    u, p, v = checked_poroelastic(mesh, system)
    ux = 1e-3 * 0.025 / 0.1
    assert np.allclose(u, ux * mesh.nodes, rtol=1e-10)
    assert np.max(np.abs(p)) < 1e-12


def test_dirichlet_side_swap_mirrors_pressure():
    # swapping the p = 0 side and the flux side mirrors the pressure
    # field for uniform coefficients
    n = 41
    mesh = build_mesh(0.01, n)
    phi, g, u_prev = uniform_inputs(n)
    _, p_left, _ = checked_poroelastic(mesh, poroelastic.assemble(
        mesh, *lagged(phi, g, u_prev), math.inf, 0.0, PARAMS.V_b,
        PARAMS, dirichlet_side="left"))
    _, p_right, _ = checked_poroelastic(mesh, poroelastic.assemble(
        mesh, *lagged(phi, g, u_prev), math.inf, 0.0, PARAMS.V_b,
        PARAMS, dirichlet_side="right"))
    # v_b is the outward-normal flux at the flux-carrying end in both
    # orientations, so the pressure profile simply reflects
    assert np.allclose(p_left, p_right[::-1], atol=1e-10 * np.max(np.abs(p_left)))


def test_consolidation_step_couples_fields():
    # one transient step with traction: the strain rate sources the
    # continuity equation, so p deviates from zero away from the outlet
    n = 101
    mesh = build_mesh(0.01, n)
    phi, g, u_prev = uniform_inputs(n)
    system = poroelastic.assemble(mesh, *lagged(phi, g, u_prev),
                                  1.0, PARAMS.T_b, 0.0, PARAMS)
    u, p, v = checked_poroelastic(mesh, system)
    assert np.max(np.abs(p)) > 1e-4 * PARAMS.T_b
    # essential rows hold to solver roundoff
    assert abs(p[0]) < 1e-12 * np.max(np.abs(p))
    assert abs(u[0]) < 1e-12 * np.max(np.abs(u))
    # continuity: V + (u - u_prev)/dt is constant along the column
    rate = (u - u_prev) / 1.0
    combined = v + 0.5 * (rate[:-1] + rate[1:])
    assert np.ptp(combined) < 1e-8 * np.max(np.abs(v))


def test_mms_quadratic_exact():
    # u* = x(L - x) a, p* = b x(L - x) are quadratics; the linear-element
    # scheme with trapezoid loads is exact for them at the nodes only up
    # to O(h^2), so verify the residual drops by 4 per refinement
    errors = []
    a, b = 1e-3, 2.0
    for n in (17, 33, 65):
        mesh = build_mesh(0.01, n)
        L = mesh.length
        x = mesh.nodes
        phi, g, u_prev = uniform_inputs(n)
        k = permeability(0.9, PARAMS)
        h_a = PARAMS.H_A * 0.1
        # steady forcings: f_u = (a u*')' - p*', f_p = -(K p*')'
        f_u = h_a * (-2.0 * a) - b * (L - 2.0 * x)
        f_p = -k * (-2.0 * b)
        t_b = h_a * a * (L - 2.0 * L) + b * 0.0  # a u'(L) - p*(L)
        v_b = -k * b * (L - 2.0 * L)
        system = poroelastic.assemble(
            mesh, *lagged(phi, g, u_prev), math.inf, t_b, v_b, PARAMS,
            forcing_u=f_u, forcing_p=f_p)
        u, p, _ = checked_poroelastic(mesh, system)
        err = np.max(np.abs(u - a * x * (L - x))) + np.max(np.abs(p - b * x * (L - x)))
        errors.append(err)
    rates = [errors[i] / errors[i + 1] for i in range(2)]
    assert min(rates) > 3.5


def test_rejects_vanishing_fluid_fraction():
    # the one gate on a sweep's lagged fluid fraction, both sides of
    # (EPS_PHI, 1): no fluid (phi_fl = 0) and no solid (phi_fl = 1)
    mesh = build_mesh(0.01, 11)
    for fraction in (0.25, 0.0):
        phi = np.full((4, 11), fraction)
        with pytest.raises(NonphysicalStateError, match="out of range"):
            poroelastic.assemble(
                mesh, *lagged(phi, np.zeros((4, 11)), np.zeros(11)),
                3600.0, 0.0, 0.0, PARAMS)


def test_bandwidth_and_bc_record():
    mesh = build_mesh(0.01, 11)
    for side, p_row in (("left", 0), ("right", 10)):
        matrix, rhs, *_ = assemble_uniform(mesh, t_b=1.0, v_b=2.0,
                                           dirichlet_side=side)
        # one tridiagonal pressure band of size N
        assert matrix.n == 11 and matrix.data.shape == (3, 11)
        dense = matrix.to_dense()
        # the p = 0 end is a unit row with zero data; its column survives
        expected = np.zeros(11)
        expected[p_row] = 1.0
        assert np.array_equal(dense[p_row], expected)
        assert rhs[p_row] == 0.0
        assert np.count_nonzero(dense[:, p_row]) > 1


def test_zero_skeleton_stiffness_raises():
    # a_e = H_A phi_s underflows to 0 on the one element whose solid
    # fraction is 1e-15; the compliance h / a_e must not reach the solve
    mesh = build_mesh(0.01, 11)
    phi = np.full((4, 11), 0.025)
    phi[:, 5:7] = 0.25e-15
    params = dataclasses.replace(PARAMS, lam=0.0, mu=5e-311)
    assert np.count_nonzero(
        params.H_A * 0.5 * (phi.sum(axis=0)[:-1] + phi.sum(axis=0)[1:])) == 9
    for dt in (3600.0, math.inf):
        with pytest.raises(SingularSystemError, match="stiffness"):
            poroelastic.assemble(
                mesh, *lagged(phi, np.zeros((4, 11)), np.zeros(11)),
                dt, 0.0, 0.0, params)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dt", [3600.0, math.inf])
@pytest.mark.parametrize("side", ["left", "right"])
def test_assemble_equals_elementwise_reference(side, dt, forced):
    # the condensed pressure solve and the recovered displacement solve
    # the full saddle-point system: within the residual contract, and
    # as np.linalg.solve solves it
    n = 13
    mesh = build_mesh(0.01, n)
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.005, 0.05, size=(4, n))
    g = rng.uniform(-1e-3, 1e-3, size=(4, n))
    u_prev = rng.uniform(-1e-4, 1e-4, size=n)
    forcing_u = rng.uniform(-1.0, 1.0, size=n) if forced else None
    forcing_p = rng.uniform(-1.0, 1.0, size=n) if forced else None
    system = poroelastic.assemble(
        mesh, *lagged(phi, g, u_prev), dt, PARAMS.T_b, PARAMS.V_b,
        PARAMS,
        forcing_u=forcing_u, forcing_p=forcing_p, dirichlet_side=side)
    u, p, v = checked_poroelastic(mesh, system)
    a, rhs_ref = saddle_point_system(
        mesh, phi, g, u_prev, dt, PARAMS.T_b, PARAMS.V_b, PARAMS, side,
        forcing_u, forcing_p)
    k_ref = permeability(element_means(1.0 - phi.sum(axis=0)), PARAMS)
    x = np.empty(2 * n)
    x[0::2], x[1::2] = u, p
    residual = np.max(np.abs(a @ x - rhs_ref))
    scale = (np.max(np.abs(a).sum(axis=1)) * np.max(np.abs(x))
             + np.max(np.abs(rhs_ref)))
    assert residual <= RESIDUAL_REL * scale
    x_ref = np.linalg.solve(a, rhs_ref)
    for field, ref in ((u, x_ref[0::2]), (p, x_ref[1::2])):
        assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(system[2], k_ref)
    assert np.array_equal(v, -k_ref * np.diff(p) / mesh.h)
