"""Self-checking oracle suites exposed through the `verify` subcommand.

Each suite recomputes its expected answers from an independent route
(dense elimination, analytic solutions, manufactured solutions) and
compares the production path against them.
"""

import itertools
import math

import numpy as np

from . import adr, poroelastic
from .constitutive import permeability
from .linalg import BandedMatrix, check_residual, diagonals, solve_banded
from .mesh import build_mesh, element_means
from .params import ModelParams

MMS_NODE_COUNTS = (33, 65, 129, 257)
POSITIVITY_TRIALS = 200


class SuiteResult:
    def __init__(self, name):
        self.name = name
        self.passed = True
        self.lines = []

    def check(self, label, ok, detail=""):
        self.passed = self.passed and bool(ok)
        status = "pass" if ok else "FAIL"
        self.lines.append(f"  [{status}] {label}" + (f": {detail}" if detail else ""))


def checked_solve(matrix, rhs):
    """solve_banded, held to the residual contract as a sweep holds it."""
    x = solve_banded(matrix, rhs)
    check_residual(matrix, x, rhs)
    return x


def checked_poroelastic(mesh, system):
    """poroelastic.solve, its pressure held to the residual contract."""
    u, p, v = poroelastic.solve(mesh, *system)
    check_residual(system[0], p, system[1])
    return u, p, v


def dense_gaussian_elimination(a, b):
    """Dense partial-pivoting elimination, the banded solver's oracle."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in oracle")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            m = a[row, col] / a[col, col]
            if m != 0.0:
                a[row, col:] -= m * a[col, col:]
                b[row] -= m * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def saddle_point_system(mesh, phi, g, u_prev, dt, t_b, v_b, params,
                        boundary_flux_convention="left", forcing_u=None,
                        forcing_p=None):
    """The full 2N poroelastic system before its condensation to p,
    dense and assembled one element at a time: dof 2i is u_i, 2i+1 p_i.
    Returns (matrix, rhs)."""
    n, h = mesh.node_count, mesh.h
    phi_s = phi.sum(axis=0)
    a_e = params.H_A * element_means(phi_s)
    k_e = permeability(element_means(1.0 - phi_s), params)
    g_e = element_means(params.H_A * g[0] * phi[0]
                        + params.H_B * (g[1:] * phi[1:]).sum(axis=0))
    c = 0.5 / dt
    a = np.zeros((2 * n, 2 * n))
    rhs = np.zeros(2 * n)
    for e in range(n - 1):
        ka, kk = a_e[e] / h, k_e[e] / h
        dofs = np.arange(2 * e, 2 * e + 4)   # u_e, p_e, u_e+1, p_e+1
        a[np.ix_(dofs, dofs)] += [[ka, 0.5, -ka, 0.5],
                                  [-c, kk, c, -kk],
                                  [-ka, -0.5, ka, -0.5],
                                  [-c, -kk, c, kk]]
        du = c * (u_prev[e + 1] - u_prev[e])
        rhs[dofs] += [-g_e[e], du, g_e[e], du]
    rhs[2 * n - 2] += t_b
    left = boundary_flux_convention == "left"
    rhs[2 * n - 1 if left else 1] -= v_b
    if forcing_u is not None:
        rhs[0::2] -= mesh.lumped_masses * forcing_u
    if forcing_p is not None:
        rhs[1::2] += mesh.lumped_masses * forcing_p
    for row in (0, 1 if left else 2 * n - 1):
        a[row] = rhs[row] = 0.0
        a[row, row] = 1.0
    return a, rhs


def suite_linalg():
    rng = np.random.default_rng(20240901)
    result = SuiteResult("linalg")

    # condensed poroelastic solve against dense elimination of the full
    # saddle-point system: forced and unforced, both Dirichlet sides,
    # steady and transient, on random lagged data
    params = ModelParams()
    mesh = build_mesh(0.01, 21)
    n = mesh.node_count
    worst = 0.0
    for convention, dt, forced in itertools.product(
            ("left", "right"), (3600.0, math.inf), (False, True)):
        phi = rng.uniform(0.005, 0.05, size=(4, n))
        g = rng.uniform(-1e-3, 1e-3, size=(4, n))
        u_prev = rng.uniform(-1e-4, 1e-4, size=n)
        f_u, f_p = rng.uniform(-1.0, 1.0, size=(2, n)) if forced else (None,) * 2
        data = (mesh, phi, g, u_prev, dt, params.T_b, params.V_b, params)
        u, p, _ = checked_poroelastic(mesh, poroelastic.assemble(
            mesh, phi, 1.0 - phi.sum(axis=0), *data[2:],
            forcing_u=f_u, forcing_p=f_p,
            boundary_flux_convention=convention))
        x_ref = dense_gaussian_elimination(
            *saddle_point_system(*data, convention, f_u, f_p))
        for field, ref in ((u, x_ref[0::2]), (p, x_ref[1::2])):
            worst = max(worst, float(np.max(np.abs(field - ref))
                                     / np.max(np.abs(ref))))
    result.check("condensed poroelastic vs dense elimination of the full "
                 "saddle-point system (8 cases, 2N=42)", worst < 1e-10,
                 f"max relative mismatch {worst:.3e}")

    n = 200
    banded = BandedMatrix(rng.uniform(-1.0, 1.0, size=(3, n)))
    diagonals(banded.data)[1][:] = (np.abs(banded.to_dense()).sum(axis=1)
                                    + rng.uniform(1.0, 2.0, size=n))   # dominant
    b = rng.uniform(-1.0, 1.0, size=n)
    x = checked_solve(banded, b)
    x_ref = dense_gaussian_elimination(banded.to_dense(), b)
    err = float(np.max(np.abs(x - x_ref)))
    result.check("tridiagonal (gtsv) vs dense oracle (n=200 dominant)",
                 err < 1e-10, f"max mismatch {err:.3e}")
    return result


def _uniform_mixture(u_prev):
    """The lagged poroelastic.assemble data of a uniform mixture:
    each phi_eta = 0.025 (phi_s = 0.1), zero growth."""
    phi = np.full((4, u_prev.size), 0.025)
    return phi, 1.0 - phi.sum(axis=0), np.zeros_like(phi), u_prev


def suite_darcy():
    """Analytic check p(x) = -(V_b / K) x for the steady Darcy block."""
    result = SuiteResult("darcy")
    params = ModelParams()
    mesh = build_mesh(0.01, 101)
    v_b = 5e-3
    system = poroelastic.assemble(
        mesh, *_uniform_mixture(np.zeros(mesh.node_count)), math.inf,
        0.0, v_b, params)
    _, p, v = checked_poroelastic(mesh, system)
    k = float(system[2][0])
    p_exact = -(v_b / k) * mesh.nodes
    err = float(np.max(np.abs(p - p_exact)) / np.max(np.abs(p_exact)))
    result.check("nodal pressure vs -(V_b/K) x", err < 1e-10,
                 f"max relative error {err:.3e}")
    v_err = float(np.max(np.abs(v - v_b)) / abs(v_b))
    result.check("element Darcy flux constant = V_b", v_err < 1e-10,
                 f"max relative error {v_err:.3e}")
    return result


def _steady_unit_step(mesh, d, v):
    """Steady constant-coefficient solve with w(0) = 0 and w(L) = 1."""
    zeros = np.zeros(mesh.node_count)
    d_e, v_e = np.full(mesh.n_elements, d), np.full(mesh.n_elements, v)
    problem = adr.AdrProblem(
        mesh=mesh, weights=adr.edge_weights(mesh.h, d_e, v_e), velocity=v_e,
        reaction=zeros, source=zeros, bc_left=0.0, bc_right=1.0)
    return checked_solve(*adr.assemble_adr(problem, math.inf, zeros))


def suite_sg_exact():
    """Fitted scheme is nodally exact for constant-coefficient steady AD."""
    result = SuiteResult("sg-exact")
    mesh = build_mesh(1.0, 41)
    for peclet in (2.0, 20.0):
        d = 1.0e-3
        v = peclet * d / mesh.h
        w = _steady_unit_step(mesh, d, v)
        # (e^{vx/D} - 1)/(e^{vL/D} - 1) in overflow-safe form for v > 0
        exact = (np.exp(v * (mesh.nodes - mesh.length) / d)
                 * (-np.expm1(-v * mesh.nodes / d))
                 / (-np.expm1(-v * mesh.length / d)))
        err = float(np.max(np.abs(w - exact)))
        result.check(f"nodal exactness at cell Peclet {peclet:g}", err < 1e-10,
                     f"max nodal error {err:.3e}")
    # extreme Peclet: bounded and monotone, no oscillation
    w = _steady_unit_step(mesh, 1.0e-6, 1e3 * 1.0e-6 / mesh.h)
    inside = float(np.min(w)) >= -1e-12 and float(np.max(w)) <= 1.0 + 1e-12
    monotone = bool(np.all(np.diff(w) >= -1e-12))
    result.check("cell Peclet 1e3: values within [0,1]", inside,
                 f"range [{np.min(w):.3e}, {np.max(w):.3e}]")
    result.check("cell Peclet 1e3: monotone profile", monotone)
    return result


def _l2_norm(mesh, values):
    return float(np.sqrt(np.sum(mesh.lumped_masses * values**2)))


def _fit_order(h_list, e_list):
    return float(np.polyfit(np.log(h_list), np.log(e_list), 1)[0])


def suite_mms_adr():
    """Transient diffusion with w*(x,t) = exp(-t) cos(pi x / L)."""
    result = SuiteResult("mms-adr")
    length = 0.01
    d = 1.0e-5
    dt = 1.0e-6
    n_steps = 2000  # keeps the O(dt) error below the finest spatial error
    errors, hs = [], []
    for n in MMS_NODE_COUNTS:
        mesh = build_mesh(length, n)
        omega = np.pi / length
        w0 = np.cos(omega * mesh.nodes)
        w = w0.copy()
        v_e = np.zeros(mesh.n_elements)
        weights = adr.edge_weights(mesh.h, np.full(mesh.n_elements, d), v_e)
        for step in range(1, n_steps + 1):
            decay = np.exp(-step * dt)
            forcing = (-1.0 + d * omega**2) * decay * w0
            problem = adr.AdrProblem(
                mesh=mesh, weights=weights, velocity=v_e,
                reaction=np.zeros(mesh.node_count), source=forcing,
                bc_right=float(decay * w0[-1]))
            w = checked_solve(*adr.assemble_adr(problem, dt, w))
        exact = np.exp(-n_steps * dt) * w0
        errors.append(_l2_norm(mesh, w - exact) / _l2_norm(mesh, exact))
        hs.append(mesh.h)
    order = _fit_order(hs, errors)
    result.check("spatial L2 order >= 1.9", order >= 1.9,
                 f"fitted order {order:.3f}, errors {[f'{e:.2e}' for e in errors]}")
    return result


def suite_mms_poro():
    """Manufactured u* = sin(pi x/L), p* = x (L - x) with forcing."""
    result = SuiteResult("mms-poro")
    params = ModelParams()
    length = 0.01
    dt = 1.0e6  # weak strain-rate coupling keeps the p-error constant small
    err_u, err_p, hs = [], [], []
    for n in MMS_NODE_COUNTS:
        mesh = build_mesh(length, n)
        x = mesh.nodes
        omega = np.pi / length
        u_exact = np.sin(omega * x)
        p_exact = x * (length - x)
        a = params.H_A * 0.1          # phi_s = 0.1 uniform
        k = float(permeability(0.9, params))   # phi_fl = 0.9 uniform
        forcing_u = -a * omega**2 * np.sin(omega * x) - (length - 2.0 * x)
        forcing_p = np.full(n, 2.0 * k)
        t_b = a * omega * np.cos(omega * length)
        v_b = k * length
        system = poroelastic.assemble(
            mesh, *_uniform_mixture(u_exact), dt, t_b, v_b, params,
            forcing_u=forcing_u, forcing_p=forcing_p)
        u, p, _ = checked_poroelastic(mesh, system)
        err_u.append(_l2_norm(mesh, u - u_exact) / _l2_norm(mesh, u_exact))
        err_p.append(_l2_norm(mesh, p - p_exact) / _l2_norm(mesh, p_exact))
        hs.append(mesh.h)
    order_u = _fit_order(hs, err_u)
    order_p = _fit_order(hs, err_p)
    result.check("displacement L2 order >= 1.9", order_u >= 1.9,
                 f"fitted order {order_u:.3f}")
    result.check("pressure L2 order >= 1.9", order_p >= 1.9,
                 f"fitted order {order_p:.3f}")
    return result


def suite_positivity():
    """Randomized nonnegative-data problems stay nonnegative."""
    rng = np.random.default_rng(77)
    result = SuiteResult("positivity")
    mesh = build_mesh(1.0, 41)
    worst = 0.0
    for _ in range(POSITIVITY_TRIALS):
        d = np.full(mesh.n_elements, 10.0 ** rng.uniform(-6.0, -2.0))
        peclet = 10.0 ** rng.uniform(-2.0, 4.0) * rng.choice([-1.0, 1.0])
        v = np.full(mesh.n_elements, peclet * d[0] / mesh.h)
        sigma = rng.uniform(0.0, 1e-2, size=mesh.node_count)
        source = rng.uniform(0.0, 1e-3, size=mesh.node_count)
        prev = rng.uniform(0.0, 1.0, size=mesh.node_count)
        bcs = []
        for _end in range(2):
            if rng.uniform() < 0.5:
                bcs.append(rng.uniform(0.0, 1.0))
            else:
                bcs.append(None)  # zero diffusive flux
        problem = adr.AdrProblem(
            mesh=mesh, weights=adr.edge_weights(mesh.h, d, v), velocity=v,
            reaction=sigma, source=source, bc_left=bcs[0], bc_right=bcs[1])
        w = checked_solve(*adr.assemble_adr(
            problem, float(rng.uniform(0.1, 100.0)), prev))
        worst = min(worst, float(np.min(w)))
    result.check(f"min value over {POSITIVITY_TRIALS} random problems >= -1e-12",
                 worst >= -1e-12, f"worst {worst:.3e}")

    # steady maximum principle with f = 0, sigma = 0
    violations = 0.0
    for _ in range(50):
        d = np.full(mesh.n_elements, 10.0 ** rng.uniform(-5.0, -2.0))
        v = np.full(mesh.n_elements,
                    10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0]))
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        problem = adr.AdrProblem(
            mesh=mesh, weights=adr.edge_weights(mesh.h, d, v), velocity=v,
            reaction=np.zeros(mesh.node_count),
            source=np.zeros(mesh.node_count),
            bc_left=lo, bc_right=hi)
        w = checked_solve(*adr.assemble_adr(
            problem, math.inf, np.zeros(mesh.node_count)))
        violations = max(violations,
                         float(lo - np.min(w)), float(np.max(w) - hi))
    result.check("steady discrete maximum principle", violations <= 1e-12,
                 f"worst overshoot {violations:.3e}")
    return result


_SUITES = {
    "linalg": suite_linalg,
    "darcy": suite_darcy,
    "sg-exact": suite_sg_exact,
    "mms-adr": suite_mms_adr,
    "mms-poro": suite_mms_poro,
    "positivity": suite_positivity,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name):
    """Run the suite of one of SUITE_NAMES."""
    return _SUITES[name]()
