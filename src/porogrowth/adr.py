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
from .linalg import BandedMatrix, diagonals, solve_banded
from .mesh import element_means, nodal_means


def bernoulli(t):
    """B(t) = t / (exp(t) - 1), with B(0) = 1, as one t / expm1(t) on
    every entry: expm1 keeps B within 2 ulp near 0 too, and above
    t ~ 709 it overflows to inf, so B falls to 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return np.divide(t, np.expm1(t), out=np.ones_like(t), where=t != 0.0)


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
    velocity V / phi_fl + v_solid, and the constant D_eta itself with the
    element means of v_solid, weighed by one edge_weights call."""
    diffusion, velocity = np.empty((2, 2, mesh.n_elements))
    diffusion[0], velocity[0] = edge_coefficients(
        nutrient_diffusivity(phi_fl, params),
        nodal_means(v_darcy) / phi_fl + v_solid)
    diffusion[1], velocity[1] = params.D_eta, element_means(v_solid)
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

    matrix, rhs = out or (BandedMatrix(np.zeros((3, prev.size))), np.zeros(prev.shape))
    # views of the (3, k, N) band; entries never written are the seams
    upper, diag, lower = diagonals(matrix.data.reshape((3,) + rows + (n,)))

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
                         c_interface, params):
    """Oxygen transport problem of one fixed-point sweep.

    phi_lagged is the stacked (4, N) species array at iterate m, weights
    and velocity the oxygen row of sweep_edges. Zero diffusive flux at
    the scaffold wall, Dirichlet c_interface at the interface.
    """
    q_hat = oxygen_sink(phi_lagged[0], phi_lagged[1], phi_lagged[2],
                        c_lagged, params)
    return AdrProblem(
        mesh=mesh, weights=weights, velocity=velocity, reaction=-q_hat,
        source=np.zeros(mesh.node_count), bc_right=c_interface)


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
