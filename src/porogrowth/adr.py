"""1D advection-diffusion-reaction solver with exponential fitting.

A problem holds one transported field, or k fields stacked as (k, N)
rows that share the edge data and the boundary conditions and differ
only in reaction, source and previous field (the four species). Stacked
rows are assembled in one pass and solved as one block-diagonal system.
Each boundary end is None (zero diffusive flux: only the advective flux
w v n crosses it) or a float, the Dirichlet value. Each problem carries
its edge weights; sweep_edges forms those of a sweep's oxygen and
species problems with one Bernoulli call.

The edge flux between nodes i and i+1 is the Scharfetter-Gummel form

    J = (D_e / h) * (B(-t_e) w_i - B(t_e) w_{i+1}),   t_e = v_e h / D_e,

with B the Bernoulli function. For v = 0 this is the centered
three-point diffusion stencil; for constant coefficients in steady state
it is nodally exact. With lumped mass, while every zero-diffusive-flux
end is an outflow (v n >= 0), the system matrix is an M-matrix, so
nonnegative data produce nonnegative solutions at any Peclet number; an
inflow end takes |v| off its column's sum (the species' x = L end in
most default perfused sweeps) and voids that guarantee.
"""

from typing import NamedTuple

import numpy as np

from .constitutive import nutrient_diffusivity, oxygen_sink
from .linalg import BandedMatrix, solve_banded
from .mesh import element_means, nodal_means


def bernoulli(t):
    """B(t) = t / (exp(t) - 1), with B(0) = 1.

    A truncated series of (exp(t)-1)/t over the whole array avoids
    cancellation near zero; t / expm1(t) replaces it where |t| >= 1e-2.
    """
    t = np.asarray(t, dtype=float)
    # products, not t**k: powers above 2 go through the slow np.power
    t2 = t * t
    t4 = t2 * t2
    with np.errstate(all="ignore"):   # the large |t| entries are replaced
        # (exp(t)-1)/t = 1 + t/2 + t^2/6 + t^3/24 + t^4/120 + t^5/720 + O(t^6)
        out = np.divide(1.0, 1.0 + t / 2.0 + t2 / 6.0 + t2 * t / 24.0
                        + t4 / 120.0 + t4 * t / 720.0, out=np.empty_like(t))
        large = np.abs(t) >= 1e-2
        if large.any():
            tl = t[large]
            out[large] = tl / np.expm1(tl)
    return out


#: the column (1, -1) that turns t_e into the rows (t_e, -t_e), exactly
_SIGNS = np.array([[1.0], [-1.0]])


def edge_weights(h, diffusion, velocity):
    """(b_plus, b_minus) = D_e/h (B(t_e), B(-t_e)), t_e = v_e h / D_e, of
    one problem's element data, or of k problems' stacked as (k, N-1)
    rows, from one bernoulli call on the rows (t_1, -t_1, t_2, -t_2, ...)."""
    t_e = velocity * h / diffusion
    return (diffusion / h)[..., None, :] * bernoulli(t_e[..., None, :] * _SIGNS)


class AdrProblem(NamedTuple):
    """One linear transport problem on the mesh, or k stacked ones.

    weights (the edge_weights pair) and velocity live on elements,
    reaction (sigma >= 0) and source on nodes: both (N,), or both (k, N)
    for k problems sharing the element data. bc_left and bc_right are
    None (zero diffusive flux) or the Dirichlet value, shared by the rows.
    """

    mesh: object
    weights: np.ndarray
    velocity: np.ndarray
    reaction: np.ndarray
    source: np.ndarray
    bc_left: object = None
    bc_right: object = None


def edge_coefficients(nodal_diffusion, nodal_velocity):
    """Per-element (D_e, v_e) from nodal fields: harmonic mean for the
    diffusivity, arithmetic mean for the velocity."""
    d = nodal_diffusion
    return 2.0 * d[:-1] * d[1:] / (d[:-1] + d[1:]), element_means(nodal_velocity)


def sweep_edges(mesh, phi_fl, v_solid, v_darcy, params):
    """(weights, velocity) of a sweep's transports, stacked as (oxygen,
    species): edge_coefficients of the nutrient diffusivity and the fluid
    velocity V / phi_fl + v_solid, and of D_eta and v_solid (the harmonic
    mean of the constant D_eta taken once, as a scalar), weighed by one
    edge_weights call."""
    diffusion, velocity = np.empty((2, 2, mesh.n_elements))
    diffusion[0], velocity[0] = edge_coefficients(
        nutrient_diffusivity(phi_fl, params),
        nodal_means(v_darcy) / phi_fl + v_solid)
    d = params.D_eta
    diffusion[1], velocity[1] = 2.0 * d * d / (d + d), element_means(v_solid)
    return edge_weights(mesh.h, diffusion, velocity), velocity


def assemble_adr(problem, dt, previous_field, out=None):
    """Tridiagonal system of one backward-Euler step with lumped mass.

    dt = math.inf is steady mode: 1 / dt = 0 drops the mass term.
    previous_field has the shape of problem.reaction and problem.source,
    (N,) or (k, N). out is a zeroed (matrix, rhs) pair to assemble into
    (fresh when None). Returns (matrix, rhs): the diagonals are assembled
    in place in the LAPACK band storage of a tridiagonal BandedMatrix,
    block diagonal over the rows of a stacked problem with zeros at the
    block seams; rhs has the shape of previous_field.
    """
    mesh = problem.mesh
    n = mesh.node_count
    prev = np.asarray(previous_field, dtype=float)
    rows = prev.shape[:-1]

    v_e = problem.velocity
    b_plus, b_minus = problem.weights   # multiplying w_{i+1} and w_i

    matrix, rhs = out or (BandedMatrix(n=prev.size), np.zeros(prev.shape))
    # views of the (3, k, N) band; entries never written are the seams
    band = matrix.data.reshape((3,) + rows + (n,))
    upper, diag, lower = band[0, ..., 1:], band[1], band[2, ..., :-1]

    # flux divergence: row i gains J_{i,i+1} - J_{i-1,i}
    diag[..., :-1] += b_minus
    upper[:] = -b_plus
    diag[..., 1:] += b_plus
    lower[:] = -b_minus

    inv_dt = 1.0 / dt
    m = mesh.lumped_masses
    diag += m * (inv_dt + problem.reaction)
    rhs += m * (inv_dt * prev + problem.source)

    # boundary terms
    if problem.bc_left is None:
        diag[..., 0] -= v_e[0]          # advective flux w v n with n = -1
    else:
        diag[..., 0], upper[..., 0] = 1.0, 0.0
        rhs[..., 0] = problem.bc_left
    if problem.bc_right is None:
        diag[..., -1] += v_e[-1]        # advective flux w v n with n = +1
    else:
        diag[..., -1], lower[..., -1] = 1.0, 0.0
        rhs[..., -1] = problem.bc_right

    return matrix, rhs


def solve_adr(problem, dt, previous_field, out=None):
    """Assemble (into out) and solve one step; returns the nodal
    field(s). The caller checks the residual (linalg.check_residual).

    The rows of a stacked problem are solved together as one
    block-diagonal system.
    """
    return solve_banded(*assemble_adr(problem, dt, previous_field, out))


# --- problem builders used by the coupling loop ----------------------

def build_oxygen_problem(mesh, phi_lagged, c_lagged, weights, velocity,
                         scenario, params):
    """Oxygen transport problem of one fixed-point sweep.

    phi_lagged is the stacked (4, N) species array at iterate m, weights
    and velocity the oxygen row of sweep_edges. Zero diffusive flux at
    the scaffold wall, Dirichlet c_ext at the interface.
    """
    q_hat = oxygen_sink(phi_lagged[0], phi_lagged[1], phi_lagged[2],
                        c_lagged, params)
    return AdrProblem(
        mesh=mesh, weights=weights, velocity=velocity, reaction=-q_hat,
        source=np.zeros(mesh.node_count), bc_right=scenario.c_ext(params))


def build_species_problem(mesh, sigma, source, weights, velocity):
    """Stacked population-balance problem of the (n, v, q, ecm) species.

    sigma / source are the (4, N) nodal consumption diagonals and
    production rows already evaluated from lagged fractions and the
    fresh oxygen/stress fields. All species share the element data, the
    species row of sweep_edges; both ends are zero-diffusive-flux
    (phases leave only by advection).
    """
    return AdrProblem(mesh=mesh, weights=weights, velocity=velocity,
                      reaction=sigma, source=source)
