import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from porogrowth import adr, constitutive
from porogrowth.mesh import build_mesh, element_means, nodal_means
from porogrowth.params import EPS_PHI, ModelParams
from porogrowth.scenario import ScenarioConfig
from porogrowth.verify import checked_solve

PARAMS = ModelParams()


# --- Bernoulli function -------------------------------------------------

def test_bernoulli_values():
    assert adr.bernoulli(0.0) == 1.0
    assert adr.bernoulli(1.0) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-14)
    assert adr.bernoulli(-1.0) == pytest.approx(1.0 / (1.0 - 1.0 / np.e), rel=1e-14)
    # large positive argument underflows to zero, large negative ~ -t
    assert adr.bernoulli(800.0) == pytest.approx(0.0, abs=1e-300)
    assert adr.bernoulli(-800.0) == pytest.approx(800.0)


def test_bernoulli_reflection_identity():
    # B(-t) = B(t) + t, the identity behind the M-matrix property
    for t in (3.0, 0.5, 1e-3, 1e-6, 25.0):
        assert adr.bernoulli(-t) == pytest.approx(adr.bernoulli(t) + t, rel=1e-14)


def test_bernoulli_series_matches_direct_at_crossover():
    # the series and direct branches agree where they meet
    for t in (9.999e-3, 1.0001e-2, -9.999e-3, -1.0001e-2):
        direct = t / np.expm1(t)
        assert adr.bernoulli(t) == pytest.approx(direct, rel=1e-13)


def two_branch_bernoulli(t):
    """Reference: both branches on every entry, selected with np.where."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 1e-2
    ts = np.where(small, t, 0.0)
    series = (1.0 + ts / 2.0 + ts**2 / 6.0 + ts**3 / 24.0 + ts**4 / 120.0
              + ts**5 / 720.0)
    tb = np.where(small, 1.0, t)
    with np.errstate(over="ignore"):
        direct = np.where(small, 1.0, tb / np.expm1(tb))
    return np.where(small, 1.0 / series, direct)


def test_bernoulli_bitwise_equals_two_branch_formula():
    edges = []
    for c in (1e-2, -1e-2):
        below, above = np.nextafter(c, 0.0), np.nextafter(c, 2 * c)
        edges += [below, c, above]
    t = np.concatenate([
        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300], edges,
        np.linspace(-0.05, 0.05, 1001), np.geomspace(1e-9, 700.0, 500),
        -np.geomspace(1e-9, 700.0, 500)])
    got = adr.bernoulli(t)
    assert got.view(np.uint64).tolist() == two_branch_bernoulli(t).view(np.uint64).tolist()
    # stacked rows, as assemble_adr passes (t, -t)
    assert np.array_equal(adr.bernoulli(np.stack([t, -t])),
                          np.stack([got, adr.bernoulli(-t)]))
    for scalar in (0.0, 1e-2, np.nextafter(1e-2, 0.0), -5e-3, 3.0, -800.0):
        value = adr.bernoulli(scalar)
        assert value == float(two_branch_bernoulli(scalar))
    # every |t| below the crossover: the series alone, no expm1 pass
    below = np.nextafter(1e-2, 0.0)
    small = np.concatenate([[0.0, -0.0, below, -below],
                            np.linspace(-below, below, 1001)])
    assert (adr.bernoulli(small).view(np.uint64).tolist()
            == two_branch_bernoulli(small).view(np.uint64).tolist())
    # the (t_ox, -t_ox, t_sp, -t_sp) rows of one sweep: oxygen crosses the
    # crossover, the species stay below it
    t_ox, t_sp = np.linspace(-0.05, 0.05, 401), np.linspace(-9e-3, 9e-3, 401)
    rows = np.stack([t_ox, -t_ox, t_sp, -t_sp])
    assert (adr.bernoulli(rows).view(np.uint64).tolist()
            == two_branch_bernoulli(rows).view(np.uint64).tolist())


@given(t=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_bernoulli_positive_and_decreasing(t):
    b = adr.bernoulli(t)
    assert b > 0.0
    assert adr.bernoulli(t + 0.1) <= b + 1e-15


# --- assembly properties --------------------------------------------------

def uniform_problem(n=21, d=1e-5, v=0.0, sigma=0.0, source=0.0,
                    bc_left=None, bc_right=None):
    mesh = build_mesh(0.01, n)
    velocity = np.full(mesh.n_elements, v)
    return adr.AdrProblem(
        mesh=mesh,
        weights=adr.edge_weights(mesh.h, np.full(mesh.n_elements, d), velocity),
        velocity=velocity,
        reaction=np.full(n, sigma),
        source=np.full(n, source),
        bc_left=bc_left,
        bc_right=bc_right,
    )


def test_zero_velocity_reduces_to_centered_diffusion():
    problem = uniform_problem(n=11, d=2e-5)
    matrix, rhs = adr.assemble_adr(problem, math.inf, np.zeros(11))
    upper, diag, lower = matrix.data[0, 1:], matrix.data[1], matrix.data[2, :-1]
    g = 2e-5 / problem.mesh.h
    assert np.allclose(upper, -g, rtol=1e-14)
    assert np.allclose(lower, -g, rtol=1e-14)
    assert np.allclose(diag[1:-1], 2.0 * g, rtol=1e-14)
    assert diag[0] == pytest.approx(g, rel=1e-14)
    assert diag[-1] == pytest.approx(g, rel=1e-14)


def test_constant_field_is_steady_without_reaction():
    # with zero-flux ends and no reaction/source, a constant is invariant
    n = 31
    problem = uniform_problem(n=n, d=1e-5, v=3e-3)
    w0 = np.full(n, 0.7)
    w1 = checked_solve(*adr.assemble_adr(problem, 3600.0, w0))
    assert np.allclose(w1, 0.7, rtol=1e-12)


def test_lumped_mass_conservation():
    # flux-form stencil with zero-flux ends and v = 0 conserves
    # sum(m_i w_i) across a step to roundoff
    rng = np.random.default_rng(5)
    n = 41
    mesh = build_mesh(0.01, n)
    problem = uniform_problem(n=n, d=1e-5, v=0.0)
    w0 = rng.uniform(0.0, 1.0, size=n)
    m = mesh.lumped_masses
    total0 = m @ w0
    w = w0
    for _ in range(5):
        w = checked_solve(*adr.assemble_adr(problem, 600.0, w))
        assert m @ w == pytest.approx(total0, rel=1e-12)


def test_steady_exactness_constant_coefficients():
    # steady advection-diffusion with Dirichlet ends: the fitted scheme
    # is nodally exact for constant coefficients
    n, L = 17, 0.01
    d, v = 1e-5, 5e-3  # cell Peclet vh/d = 0.3125
    mesh = build_mesh(L, n)
    velocity = np.full(n - 1, v)
    problem = adr.AdrProblem(
        mesh=mesh,
        weights=adr.edge_weights(mesh.h, np.full(n - 1, d), velocity),
        velocity=velocity,
        reaction=np.zeros(n),
        source=np.zeros(n),
        bc_left=0.0,
        bc_right=1.0,
    )
    w = checked_solve(*adr.assemble_adr(problem, math.inf, np.zeros(n)))
    x = mesh.nodes
    exact = np.expm1(v * x / d) / np.expm1(v * L / d)
    assert np.max(np.abs(w - exact)) < 1e-12


def test_positivity_high_peclet():
    # nonnegative data stay nonnegative even at cell Peclet ~ 100
    n = 51
    rng = np.random.default_rng(9)
    problem = uniform_problem(n=n, d=1e-7, v=0.05, sigma=1e-4)
    w0 = rng.uniform(0.0, 1.0, size=n)
    w = checked_solve(*adr.assemble_adr(problem, 100.0, w0))
    assert np.min(w) >= -1e-13


def test_dirichlet_rows_replaced():
    n = 11
    problem = uniform_problem(n=n, bc_left=0.25, bc_right=0.75)
    matrix, rhs = adr.assemble_adr(problem, 10.0, np.zeros(n))
    upper, diag, lower = matrix.data[0, 1:], matrix.data[1], matrix.data[2, :-1]
    assert diag[0] == 1.0 and upper[0] == 0.0 and rhs[0] == 0.25
    assert diag[-1] == 1.0 and lower[-1] == 0.0 and rhs[-1] == 0.75


def test_edge_coefficients():
    d = np.array([1.0, 3.0, 2.0])
    v = np.array([1.0, 2.0, 4.0])
    d_e, v_e = adr.edge_coefficients(d, v)
    assert np.allclose(d_e, [1.5, 2.4])  # harmonic means
    assert np.allclose(v_e, [1.5, 3.0])  # arithmetic means


def test_sweep_edges_rows_equal_separate_weights_bitwise():
    # each row of a sweep's stacked edge data is edge_weights of that
    # transport's own edge_coefficients, bit for bit: weighing both rows
    # with one bernoulli call changes no bit; the cell Peclet numbers of
    # both rows fall on both sides of the series crossover |t| = 1e-2
    rng = np.random.default_rng(8)
    n = 41
    mesh = build_mesh(0.01, n)
    phi_fl = rng.uniform(0.5, 0.99, size=n)
    v_solid = rng.uniform(-1e-7, 1e-7, size=n)
    v_darcy = rng.uniform(-2e-3, 2e-3, size=n - 1)
    weights, velocity = adr.sweep_edges(mesh, phi_fl, v_solid, v_darcy, PARAMS)
    assert weights.shape == (2, 2, n - 1) and velocity.shape == (2, n - 1)
    rows = ((constitutive.nutrient_diffusivity(phi_fl, PARAMS),
             nodal_means(v_darcy) / phi_fl + v_solid),
            (np.full(n, PARAMS.D_eta), v_solid))
    for row, nodal in enumerate(rows):
        d_e, v_e = adr.edge_coefficients(*nodal)
        t = np.abs(v_e * mesh.h / d_e)
        assert t.min() < 1e-2 <= t.max()
        assert velocity[row].tobytes() == v_e.tobytes()
        assert (weights[row].tobytes()
                == adr.edge_weights(mesh.h, d_e, v_e).tobytes())


def test_problem_validation():
    # reaction, source and previous field share one shape, (N,) or
    # (k, N), as both builders form them, so the assembly checks neither
    # them nor the element data (see test_transport_data_valid_by_construction);
    # the band and the rhs follow that shape
    mesh = build_mesh(0.01, 11)
    ne, n = mesh.n_elements, mesh.node_count

    def problem(reaction, source):
        return adr.AdrProblem(mesh=mesh, weights=weights,
                              velocity=np.zeros(ne), reaction=reaction,
                              source=source)

    weights = adr.edge_weights(mesh.h, np.ones(ne), np.zeros(ne))
    matrix, rhs = adr.assemble_adr(
        problem(np.zeros(n), np.zeros(n)), 1.0, np.ones(n))
    assert matrix.n == n and rhs.shape == (n,)
    matrix, rhs = adr.assemble_adr(
        problem(np.zeros((4, n)), np.zeros((4, n))), 1.0, np.ones((4, n)))
    assert matrix.n == 4 * n and rhs.shape == (4, n)


def test_species_budget_with_kinetics_and_advection():
    # lumped mass and telescoping edge fluxes balance each species to
    # roundoff over one step: storage + consumption + advective outflow
    # at both zero-diffusive-flux ends = production
    rng = np.random.default_rng(4)
    n, dt = 41, 3600.0
    mesh = build_mesh(0.01, n)
    previous = rng.uniform(0.001, 0.05, size=(4, n))
    c = rng.uniform(0.0, 6.4e-6, size=n)
    sigma, source = constitutive.kinetics_fields(
        previous, 1.0 - previous.sum(axis=0), c, rng.integers(0, 2, size=n),
        rng.integers(0, 2, size=n), PARAMS.k_g2, PARAMS)
    assert sigma.min() > 0.0 and source.max() > 0.0
    # solid velocity of both signs, inflow at one end, outflow at the other
    d_eta, v_eta = adr.edge_coefficients(
        np.full(n, PARAMS.D_eta),
        1e-8 * np.cos(3.0 * np.pi * mesh.nodes / mesh.length))
    assert v_eta.min() < 0.0 < v_eta.max()
    # the weights as a sweep takes them, stacked with an oxygen row
    _, weights = adr.edge_weights(
        mesh.h, np.stack([np.full(n - 1, 1e-5), d_eta]),
        np.stack([np.full(n - 1, 1e-3), v_eta]))
    species = adr.build_species_problem(mesh, sigma, source, weights, v_eta)
    phi = checked_solve(*adr.assemble_adr(species, dt, previous))
    m = mesh.lumped_masses
    for eta in range(4):
        terms = [m @ (phi[eta] - previous[eta]) / dt, m @ (sigma[eta] * phi[eta]),
                 -v_eta[0] * phi[eta, 0], v_eta[-1] * phi[eta, -1],
                 -(m @ source[eta])]
        # the defect is the sum of the solve's row residuals, which grow
        # with (D/h) / (m/dt): about 3e-13 here, 1.3e-12 at N = 101
        assert abs(math.fsum(terms)) <= 1e-12 * max(map(abs, terms)), terms


def test_oxygen_budget_with_consumption_and_advection():
    # over the nodes below the Dirichlet node the oxygen balances to
    # roundoff over one step: storage + consumption + advective outflow
    # at the zero-diffusive-flux wall + the SG flux into the Dirichlet
    # node = 0 (the oxygen problem has no source)
    rng = np.random.default_rng(5)
    n, dt = 41, 3600.0
    mesh = build_mesh(0.01, n)
    phi = rng.uniform(0.001, 0.05, size=(4, n))
    c_prev = rng.uniform(0.0, 6.4e-6, size=n)
    # solid velocity of both signs on top of a nonzero Darcy flux
    v_solid = 2e-4 * np.cos(3.0 * np.pi * mesh.nodes / mesh.length)
    assert v_solid.min() < 0.0 < v_solid.max()
    # the edge data as a sweep takes them, stacked with a species row
    weights, velocity = adr.sweep_edges(
        mesh, 1.0 - phi.sum(axis=0), v_solid, np.full(n - 1, 1e-4), PARAMS)
    oxygen = adr.build_oxygen_problem(
        mesh, phi, c_prev, weights[0], velocity[0],
        ScenarioConfig(culture_mode="perfused"), PARAMS)
    assert oxygen.reaction.min() > 0.0 and oxygen.bc_right is not None
    v_e = oxygen.velocity
    assert v_e.min() < 0.0 < v_e.max()
    c = checked_solve(*adr.assemble_adr(oxygen, dt, c_prev))
    b_plus, b_minus = oxygen.weights
    m = mesh.lumped_masses[:-1]
    terms = [m @ (c[:-1] - c_prev[:-1]) / dt, m @ (oxygen.reaction[:-1] * c[:-1]),
             -v_e[0] * c[0], b_minus[-1] * c[-2] - b_plus[-1] * c[-1]]
    assert abs(math.fsum(terms)) <= 1e-12 * max(map(abs, terms)), terms


# --- coupled-problem builders ---------------------------------------------

def test_interpolate_flux_to_nodes():
    # the oxygen edge data average the element Darcy flux onto nodes
    flux = np.array([1.0, 3.0, 5.0])
    v = nodal_means(flux)
    assert np.array_equal(v, [1.0, 2.0, 4.0, 5.0])
    assert np.array_equal(element_means(v), [1.5, 3.0, 4.5])
    mesh = build_mesh(1.0, 4)
    phi, v_darcy = np.full((4, 4), 0.01), flux * 1e-4
    phi_fl = 1.0 - phi.sum(axis=0)
    _, velocity = adr.sweep_edges(mesh, phi_fl, np.zeros(4), v_darcy, PARAMS)
    assert np.array_equal(velocity[0],
                          element_means(nodal_means(v_darcy) / phi_fl))


def test_build_oxygen_problem():
    n = 21
    mesh = build_mesh(0.01, n)
    scenario = ScenarioConfig(c_ext_mode="saturation")
    phi = np.full((4, n), 0.01)
    c = np.full(n, PARAMS.c_0)
    v_darcy = np.full(n - 1, 2e-4)
    weights, velocity = (oxygen for oxygen, _ in adr.sweep_edges(
        mesh, 1.0 - phi.sum(axis=0), np.zeros(n), v_darcy, PARAMS))
    problem = adr.build_oxygen_problem(mesh, phi, c, weights, velocity,
                                       scenario, PARAMS)
    assert problem.weights is weights and problem.velocity is velocity
    assert problem.bc_left is None
    assert problem.bc_right == PARAMS.c_sat
    # fluid velocity is V / phi_fl with no solid motion
    assert np.allclose(problem.velocity, 2e-4 / 0.96, rtol=1e-14)
    # reaction is the positive linearized Michaelis-Menten coefficient
    uptake = (PARAMS.R_n + PARAMS.R_v) * 0.01 + PARAMS.R_q * 0.01
    assert np.allclose(problem.reaction, uptake / (PARAMS.c_0 + PARAMS.K_half),
                       rtol=1e-14)
    assert np.all(problem.source == 0.0)


def test_build_species_problem():
    n = 11
    mesh = build_mesh(0.01, n)
    rng = np.random.default_rng(12)
    sigma = np.full((4, n), PARAMS.k_deg)
    source = rng.uniform(0.0, 1e-7, size=(4, n))
    # one diffusivity and one advection, the element solid velocity,
    # shared by the four stacked species rows
    diffusion, velocity = adr.edge_coefficients(
        np.full(n, PARAMS.D_eta), 1e-5 * mesh.nodes / mesh.length / 3600.0)
    assert diffusion.shape == velocity.shape == (n - 1,)
    assert np.allclose(diffusion, PARAMS.D_eta)
    weights = adr.edge_weights(mesh.h, diffusion, velocity)
    problem = adr.build_species_problem(mesh, sigma, source, weights,
                                        velocity)
    assert problem.bc_left is None and problem.bc_right is None
    assert problem.weights is weights and problem.velocity is velocity
    assert np.array_equal(problem.reaction, sigma)
    assert np.array_equal(problem.source, source)


#: diffusivity magnitudes (cm^2 s^-1) drawn by the property test below;
#: ModelParams accepts any positive finite value, the window stays clear
#: of float underflow in the harmonic edge mean d_i d_{i+1}
DIFFUSIVITY = st.floats(min_value=-30.0, max_value=0.0).map(lambda e: 10.0**e)


@st.composite
def lagged_species(draw):
    """(4, N) nonnegative fractions whose fluid fraction 1 - sum lies in
    (EPS_PHI, 1) at every node."""
    n = draw(st.integers(min_value=3, max_value=8))
    unit = st.floats(min_value=0.0, max_value=1.0)
    phi_fl = np.array(draw(st.lists(
        st.floats(min_value=EPS_PHI, max_value=1.0,
                  exclude_min=True, exclude_max=True),
        min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(
        st.tuples(unit, unit, unit, unit), min_size=n, max_size=n))).T
    total = weights.sum(axis=0)
    weights = np.where(total > 0.0, weights / np.where(total > 0.0, total, 1.0),
                       0.25)
    phi = (1.0 - phi_fl) * weights
    fluid = 1.0 - phi.sum(axis=0)
    assume(np.min(fluid) > EPS_PHI and np.max(fluid) < 1.0)
    return phi


@given(d_c_fl=DIFFUSIVITY, d_c_s=st.just(0.0) | DIFFUSIVITY,
       k_eq=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       d_eta=DIFFUSIVITY, phi=lagged_species())
@settings(max_examples=200, deadline=None)
def test_transport_data_valid_by_construction(d_c_fl, d_c_s, k_eq, d_eta, phi):
    # ModelParams checks the constants, the lagged fluid fraction lies in
    # (EPS_PHI, 1) as poroelastic.assemble demands: every element of a
    # sweep's two transports then carries finite, positive edge weights,
    # so the assembly needs no check of its own
    params = ModelParams(D_c_fl=d_c_fl, D_c_s=d_c_s, K_eq=k_eq, D_eta=d_eta)
    n = phi.shape[1]
    mesh = build_mesh(0.01, n)
    weights, _ = adr.sweep_edges(mesh, 1.0 - phi.sum(axis=0), np.zeros(n),
                                 np.zeros(n - 1), params)
    assert weights.shape == (2, 2, n - 1)
    assert np.all(np.isfinite(weights))
    assert np.all(weights > 0.0)


# --- stacked rows -----------------------------------------------------------

#: cell Peclet magnitudes |t| below, above and on both sides of the
#: Bernoulli series crossover at |t| = 1e-2
PECLET_RANGES = {"series": (1e-5, 9e-3), "direct": (1.1e-2, 40.0),
                 "mixed": (1e-4, 1.0)}

#: boundary ends: None is zero diffusive flux, a float the Dirichlet value
BC_PAIRS = {
    "flux-flux": (None, None),
    "flux-dirichlet": (None, 0.3),
    "dirichlet-dirichlet": (0.1, 0.0),
}


@pytest.mark.parametrize("peclet", sorted(PECLET_RANGES))
@pytest.mark.parametrize("bcs", sorted(BC_PAIRS))
@pytest.mark.parametrize("transient", (True, False))
def test_stacked_solve_equals_scalar_solves_bitwise(peclet, bcs, transient):
    # transient=False is the steady mode dt = math.inf (no mass term)
    rng = np.random.default_rng(sorted(PECLET_RANGES).index(peclet))
    n, k = 41, 4
    mesh = build_mesh(0.01, n)
    diffusion = 10.0 ** rng.uniform(-10.0, -8.0, size=n - 1)
    lo, hi = PECLET_RANGES[peclet]
    t = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=n - 1)
    t *= rng.choice((-1.0, 1.0), size=n - 1)
    velocity = t * diffusion / mesh.h
    reaction = rng.uniform(0.0, 1e-5, size=(k, n))
    source = rng.uniform(0.0, 1e-6, size=(k, n))
    previous = rng.uniform(0.0, 0.2, size=(k, n))
    bc_left, bc_right = BC_PAIRS[bcs]

    def problem(sigma, f):
        return adr.AdrProblem(mesh=mesh, weights=weights,
                              velocity=velocity, reaction=sigma, source=f,
                              bc_left=bc_left, bc_right=bc_right)

    dt = 600.0 if transient else math.inf
    weights = adr.edge_weights(mesh.h, diffusion, velocity)
    stacked = checked_solve(*adr.assemble_adr(
        problem(reaction, source), dt, previous))
    assert stacked.shape == (k, n)
    for eta in range(k):
        scalar = checked_solve(*adr.assemble_adr(
            problem(reaction[eta], source[eta]), dt, previous[eta]))
        assert stacked[eta].tobytes() == scalar.tobytes()


@pytest.mark.parametrize("bcs", sorted(BC_PAIRS))
@pytest.mark.parametrize("transient", (True, False))
def test_stacked_band_is_block_diagonal_of_scalar_bands(bcs, transient):
    # a stacked assembly writes each row's tridiagonal straight into its
    # block of the band; the entries coupling adjacent blocks stay zero
    rng = np.random.default_rng(3)
    n, k = 9, 4
    mesh = build_mesh(0.01, n)
    diffusion = rng.uniform(1e-6, 1e-5, size=n - 1)
    velocity = rng.uniform(-4e-3, 4e-3, size=n - 1)
    bc_left, bc_right = BC_PAIRS[bcs]

    def problem(sigma, f):
        return adr.AdrProblem(mesh=mesh, weights=weights,
                              velocity=velocity, reaction=sigma, source=f,
                              bc_left=bc_left, bc_right=bc_right)

    reaction = rng.uniform(0.0, 1e-4, size=(k, n))
    source = rng.uniform(0.0, 1e-6, size=(k, n))
    previous = rng.uniform(0.0, 0.2, size=(k, n))
    dt = 600.0 if transient else math.inf
    weights = adr.edge_weights(mesh.h, diffusion, velocity)
    matrix, rhs = adr.assemble_adr(problem(reaction, source), dt, previous)
    assert (matrix.n, matrix.data.shape) == (k * n, (3, k * n))
    assert rhs.shape == (k, n)
    blocks = []
    for eta in range(k):
        scalar, scalar_rhs = adr.assemble_adr(
            problem(reaction[eta], source[eta]), dt, previous[eta])
        blocks.append(scalar.to_dense())
        assert np.array_equal(rhs[eta], scalar_rhs)
    assert np.array_equal(matrix.to_dense(), scipy.linalg.block_diag(*blocks))
    for seam in range(n, k * n, n):  # A[seam - 1, seam] and A[seam, seam - 1]
        assert matrix.data[0, seam] == 0.0 and matrix.data[2, seam - 1] == 0.0
