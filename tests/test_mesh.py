import numpy as np
import pytest

from porogrowth.errors import InvalidDomainError
from porogrowth.mesh import build_mesh


def test_uniform_spacing():
    mesh = build_mesh(0.01, 101)
    assert mesh.node_count == 101
    assert mesh.n_elements == 100
    assert mesh.h == pytest.approx(1e-4)
    assert np.allclose(np.diff(mesh.nodes), mesh.h)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == pytest.approx(0.01)


def test_mid_node():
    mesh = build_mesh(2.0, 5)
    assert mesh.mid_node == 2
    # even node count: a nearest node to L/2 is still within h/2 of it
    mesh = build_mesh(1.0, 4)
    assert abs(mesh.nodes[mesh.mid_node] - 0.5) <= mesh.h / 2


def test_lumped_masses_sum_to_length():
    mesh = build_mesh(0.01, 33)
    m = mesh.lumped_masses
    assert m[0] == pytest.approx(mesh.h / 2)
    assert m[-1] == pytest.approx(mesh.h / 2)
    assert np.allclose(m[1:-1], mesh.h)
    assert m.sum() == pytest.approx(mesh.length)


def test_nodes_are_read_only():
    mesh = build_mesh(1.0, 11)
    with pytest.raises(ValueError):
        mesh.nodes[0] = 5.0
    # the masses are built once per mesh and shared by every assembly
    with pytest.raises(ValueError):
        mesh.lumped_masses[0] = 5.0


@pytest.mark.parametrize("length,nodes", [(0.0, 11), (-1.0, 11), (1.0, 2), (1.0, 1)])
def test_invalid_domain_rejected(length, nodes):
    with pytest.raises(InvalidDomainError):
        build_mesh(length, nodes)
