import numpy as np
import pytest

from porogrowth.errors import NonphysicalStateError
from porogrowth.mesh import build_mesh
from porogrowth.params import ModelParams
from porogrowth.scenario import ScenarioConfig
from porogrowth.state import (
    ROWS,
    MixtureState,
    indicator_r,
    initial_state,
    nodal_strain,
    sample_xi_field,
    solid_and_fluid,
)


def make_state(n=11, amp=0.01, **overrides):
    z = np.zeros(n)
    fields = dict(
        u=z.copy(), p=z.copy(),
        phi_n=np.full(n, amp), phi_v=np.full(n, amp),
        phi_q=np.full(n, amp), phi_ecm=np.full(n, amp),
        c=np.full(n, 5e-6),
        g_n=z.copy(), g_v=z.copy(), g_q=z.copy(), g_ecm=z.copy(),
    )
    fields.update(overrides)
    return MixtureState(np.stack([fields[name] for name in ROWS]))


def anisotropy(state, mesh):
    """Nodal isotropy indicator r of one state."""
    phi_s, _ = solid_and_fluid(state.level[3:7])
    return indicator_r(mesh, state.u, phi_s, state.phi_n, state.g_n)


def test_phi_fl_closure():
    state = make_state(amp=0.01)
    phi_s, phi_fl = solid_and_fluid(state.level[3:7])
    assert np.allclose(phi_fl, 0.96)
    assert np.allclose(phi_s, 0.04)


def test_phi_fields_order():
    state = make_state(phi_n=np.full(11, 0.01), phi_ecm=np.full(11, 0.02))
    assert state.level.shape == (11, 11)
    # each field reads as a view of its row of the one level array
    for row, name in enumerate(ROWS):
        assert np.shares_memory(getattr(state, name), state.level)
        assert np.array_equal(getattr(state, name), state.level[row])
    assert np.all(state.level[3] == 0.01)
    assert np.all(state.level[6] == 0.02)


def test_negative_fraction_rejected():
    with pytest.raises(NonphysicalStateError):
        make_state(phi_n=np.full(11, -1e-6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_rejected(bad):
    # NaN compares False with every bound, so each field needs its own check
    for name in ("u", "p", "phi_n", "phi_v", "phi_q", "phi_ecm", "c",
                 "g_n", "g_v", "g_q", "g_ecm"):
        values = np.full(11, 0.01)
        values[4] = bad
        with pytest.raises(NonphysicalStateError, match=name):
            make_state(**{name: values})


def test_tiny_negative_roundoff_tolerated():
    state = make_state(phi_n=np.full(11, -1e-13))
    assert state.phi_n[0] == -1e-13


def test_saturated_solid_rejected():
    with pytest.raises(NonphysicalStateError):
        make_state(amp=0.25)  # phi_fl = 0


def test_arrays_read_only():
    state = make_state()
    with pytest.raises(ValueError):
        state.u[0] = 1.0
    with pytest.raises(ValueError):
        state.level[7, 0] = 1.0


def test_initial_state_profile():
    mesh = build_mesh(0.01, 101)
    params = ModelParams()
    scenario = ScenarioConfig(ic_profile="IC1")
    state = initial_state(mesh, params, scenario)
    l_d = mesh.length / 5.0
    expected = 0.005 * np.exp(-mesh.nodes / l_d)
    assert np.allclose(state.phi_n, expected, rtol=1e-14)
    assert np.allclose(state.phi_v, expected / 5.0, rtol=1e-14)
    assert np.allclose(state.c, params.c_0)
    assert np.all(state.u == 0.0)
    assert np.all(state.g_n == 0.0)
    # mid-node seeding value A_n * exp(-2.5)
    mid = mesh.mid_node
    assert state.phi_n[mid] == pytest.approx(0.005 * np.exp(-2.5))


def test_initial_state_rejects_saturating_amplitudes():
    from types import SimpleNamespace

    mesh = build_mesh(0.01, 11)
    # amplitudes that saturate the mixture (phi_fl = 0 at x = 0) never
    # survive ScenarioConfig validation, so use a bare stand-in
    big = SimpleNamespace(amplitudes=lambda: (0.75, 0.125), g_initial=0.0)
    with pytest.raises(NonphysicalStateError):
        initial_state(mesh, ModelParams(), big)


def test_nodal_strain_linear_field_exact():
    mesh = build_mesh(1.0, 21)
    u = 3.0 * mesh.nodes + 2.0
    assert np.allclose(nodal_strain(mesh, u), 3.0)


def test_nodal_strain_quadratic_interior():
    mesh = build_mesh(1.0, 41)
    u = mesh.nodes**2
    ux = nodal_strain(mesh, u)
    # centered averaging is exact for quadratics at interior nodes
    assert np.allclose(ux[1:-1], 2.0 * mesh.nodes[1:-1], atol=1e-12)


def test_anisotropy_and_xi():
    mesh = build_mesh(1.0, 11)
    params = ModelParams()
    # strain chosen so r straddles the threshold
    u = (2.0 * params.r_bar / 0.04) * mesh.nodes
    state = make_state(u=u)
    r = anisotropy(state, mesh)
    assert np.allclose(r, 2.0 * params.r_bar)
    assert np.all(sample_xi_field(state, params, mesh) == 0)
    state0 = make_state()
    assert np.all(sample_xi_field(state0, params, mesh) == 1)


def test_xi_tie_is_isotropic():
    # r = |g_n phi_n| = 2 r_bar * 0.5 hits the threshold exactly
    mesh = build_mesh(1.0, 11)
    params = ModelParams()
    z = np.zeros(11)
    state = make_state(phi_n=np.full(11, 0.5), phi_v=z.copy(), phi_q=z.copy(),
                       phi_ecm=z.copy(), g_n=np.full(11, 2.0 * params.r_bar))
    assert np.all(anisotropy(state, mesh) == params.r_bar)
    assert np.all(sample_xi_field(state, params, mesh) == 1)
