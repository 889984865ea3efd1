"""Self-checking oracle suites exposed through the `verify` subcommand.

Each suite recomputes its expected answers from an independent route
(dense elimination, analytic solutions, manufactured solutions) and
compares the production path against them.
"""

import numpy as np

from . import adr, poroelastic
from .linalg import BandedMatrix, solve_banded
from .mesh import build_mesh
from .params import ModelParams

SUITE_NAMES = ("linalg", "darcy", "sg-exact", "mms-adr", "mms-poro",
               "positivity")


class SuiteResult:
    def __init__(self, name):
        self.name = name
        self.passed = True
        self.lines = []

    def check(self, label, ok, detail=""):
        self.passed = self.passed and bool(ok)
        status = "pass" if ok else "FAIL"
        self.lines.append(f"  [{status}] {label}" + (f": {detail}" if detail else ""))


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


def random_banded_dominant(rng, n, kl, ku):
    """Random diagonally dominant BandedMatrix."""
    m = BandedMatrix(n=n, kl=kl, ku=ku)
    for i in range(n):
        row_sum = 0.0
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            if j != i:
                v = rng.uniform(-1.0, 1.0)
                m.data[ku + i - j, j] = v
                row_sum += abs(v)
        m.data[ku, i] = row_sum + rng.uniform(1.0, 2.0)
    return m


def suite_linalg(rng=None):
    rng = np.random.default_rng(20240901) if rng is None else rng
    result = SuiteResult("linalg")

    m = random_banded_dominant(rng, 50, 2, 2)
    b = rng.uniform(-1.0, 1.0, size=50)
    x = solve_banded(m, b)
    x_ref = dense_gaussian_elimination(m.to_dense(), b)
    err = float(np.max(np.abs(x - x_ref)))
    result.check("banded (gbsv) vs dense oracle (50x50, kl=ku=2)", err < 1e-10,
                 f"max mismatch {err:.3e}")

    n = 200
    lower = rng.uniform(-1.0, 1.0, size=n - 1)
    upper = rng.uniform(-1.0, 1.0, size=n - 1)
    diag = (np.abs(np.concatenate(([0.0], lower)))
            + np.abs(np.concatenate((upper, [0.0])))
            + rng.uniform(1.0, 2.0, size=n))
    b = rng.uniform(-1.0, 1.0, size=n)
    banded = BandedMatrix(n=n, kl=1, ku=1)
    banded.data[0, 1:] = upper
    banded.data[1, :] = diag
    banded.data[2, :-1] = lower
    x = solve_banded(banded, b)
    x_ref = dense_gaussian_elimination(banded.to_dense(), b)
    err = float(np.max(np.abs(x - x_ref)))
    result.check("tridiagonal (gtsv) vs dense oracle (n=200 dominant)",
                 err < 1e-10, f"max mismatch {err:.3e}")
    return result


def _uniform_mixture(n, phi_eta=0.025):
    """Uniform lagged fields: phi_s = 4 * phi_eta, zero growth."""
    phi = np.full((4, n), phi_eta)
    g = np.zeros((4, n))
    return phi, g


def suite_darcy():
    """Analytic check p(x) = -(V_b / K) x for the steady Darcy block."""
    result = SuiteResult("darcy")
    params = ModelParams()
    mesh = build_mesh(0.01, 101)
    phi, g = _uniform_mixture(mesh.node_count)
    v_b = 5e-3
    matrix, rhs, k_e = poroelastic.assemble(
        mesh, phi, g, np.zeros(mesh.node_count), None, 0.0, v_b, params)
    _, p, v = poroelastic.solve(mesh, matrix, rhs, k_e)
    k = float(k_e[0])
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
    problem = adr.AdrProblem(
        mesh=mesh, diffusion=np.full(mesh.n_elements, d),
        velocity=np.full(mesh.n_elements, v), reaction=zeros, source=zeros,
        bc_left=0.0, bc_right=1.0)
    return adr.solve_adr(problem, None, zeros)


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


def suite_mms_adr(node_counts=(33, 65, 129, 257)):
    """Transient diffusion with w*(x,t) = exp(-t) cos(pi x / L)."""
    result = SuiteResult("mms-adr")
    length = 0.01
    d = 1.0e-5
    dt = 1.0e-6
    n_steps = 2000  # keeps the O(dt) error below the finest spatial error
    errors, hs = [], []
    for n in node_counts:
        mesh = build_mesh(length, n)
        omega = np.pi / length
        w0 = np.cos(omega * mesh.nodes)
        w = w0.copy()
        for step in range(1, n_steps + 1):
            decay = np.exp(-step * dt)
            forcing = (-1.0 + d * omega**2) * decay * w0
            problem = adr.AdrProblem(
                mesh=mesh,
                diffusion=np.full(mesh.n_elements, d),
                velocity=np.zeros(mesh.n_elements),
                reaction=np.zeros(mesh.node_count),
                source=forcing,
                bc_right=float(decay * w0[-1]),
            )
            w = adr.solve_adr(problem, dt, w)
        exact = np.exp(-n_steps * dt) * w0
        errors.append(_l2_norm(mesh, w - exact) / _l2_norm(mesh, exact))
        hs.append(mesh.h)
    order = _fit_order(hs, errors)
    result.check("spatial L2 order >= 1.9", order >= 1.9,
                 f"fitted order {order:.3f}, errors {[f'{e:.2e}' for e in errors]}")
    return result


def suite_mms_poro(node_counts=(33, 65, 129, 257)):
    """Manufactured u* = sin(pi x/L), p* = x (L - x) with forcing."""
    result = SuiteResult("mms-poro")
    params = ModelParams()
    length = 0.01
    dt = 1.0e6  # weak strain-rate coupling keeps the p-error constant small
    err_u, err_p, hs = [], [], []
    for n in node_counts:
        mesh = build_mesh(length, n)
        x = mesh.nodes
        omega = np.pi / length
        u_exact = np.sin(omega * x)
        p_exact = x * (length - x)
        phi, g = _uniform_mixture(n)
        a = params.H_A * 0.1          # phi_s = 0.1 uniform
        _, _, k_e = poroelastic.assemble(
            mesh, phi, g, u_exact, dt, 0.0, 0.0, params)
        k = float(k_e[0])
        forcing_u = -a * omega**2 * np.sin(omega * x) - (length - 2.0 * x)
        forcing_p = np.full(n, 2.0 * k)
        t_b = a * omega * np.cos(omega * length)
        v_b = k * length
        system = poroelastic.assemble(
            mesh, phi, g, u_exact, dt, t_b, v_b, params,
            forcing_u=forcing_u, forcing_p=forcing_p)
        u, p, _ = poroelastic.solve(mesh, *system)
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


def suite_positivity(rng=None, trials=200):
    """Randomized nonnegative-data problems stay nonnegative."""
    rng = np.random.default_rng(77) if rng is None else rng
    result = SuiteResult("positivity")
    mesh = build_mesh(1.0, 41)
    worst = 0.0
    for _ in range(trials):
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
            mesh=mesh, diffusion=d, velocity=v, reaction=sigma,
            source=source, bc_left=bcs[0], bc_right=bcs[1])
        w = adr.solve_adr(problem, float(rng.uniform(0.1, 100.0)), prev)
        worst = min(worst, float(np.min(w)))
    result.check(f"min value over {trials} random problems >= -1e-12",
                 worst >= -1e-12, f"worst {worst:.3e}")

    # steady maximum principle with f = 0, sigma = 0
    violations = 0.0
    for _ in range(50):
        d = np.full(mesh.n_elements, 10.0 ** rng.uniform(-5.0, -2.0))
        v = np.full(mesh.n_elements,
                    10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0]))
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        problem = adr.AdrProblem(
            mesh=mesh, diffusion=d, velocity=v,
            reaction=np.zeros(mesh.node_count),
            source=np.zeros(mesh.node_count),
            bc_left=lo, bc_right=hi)
        w = adr.solve_adr(problem, None, np.zeros(mesh.node_count))
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


def run_suite(name):
    if name not in _SUITES:
        raise ValueError(f"unknown verify suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name]()


def run_all():
    return [run_suite(name) for name in SUITE_NAMES]
