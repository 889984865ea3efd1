"""Uniform 1D mesh of the growing-construct interval [0, L]."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [0, L] into N - 1 elements.

    Coordinates are in cm. The outward normal is -1 at x = 0 (scaffold
    wall) and +1 at x = L (interstitial-fluid interface).
    """

    length: float
    node_count: int
    nodes: np.ndarray = field(repr=False)
    #: control-volume sizes: h at interior nodes, h/2 at the ends
    lumped_masses: np.ndarray = field(repr=False)
    #: index of the node nearest x = L/2, the node of the time series
    mid_node: int

    @property
    def h(self):
        return self.length / (self.node_count - 1)

    @property
    def n_elements(self):
        return self.node_count - 1


def element_means(v):
    """Nodal values averaged onto elements (the element midpoints)."""
    return 0.5 * (v[:-1] + v[1:])


def nodal_means(e):
    """Element values averaged onto nodes: the mean of the two adjacent
    elements inside, the one-sided value at the ends."""
    return np.concatenate((e[:1], element_means(e), e[-1:]))


def build_mesh(length, node_count):
    """Build a uniform mesh with h = L/(N-1).

    Raises InvalidDomainError for L <= 0 or N < 3.
    """
    if length <= 0.0:
        raise InvalidDomainError(f"domain length must be positive, got {length}")
    if node_count < 3:
        raise InvalidDomainError(f"need at least 3 nodes, got {node_count}")
    nodes = np.linspace(0.0, length, node_count)
    h = float(length) / (node_count - 1)
    masses = np.full(node_count, h)
    masses[0] = masses[-1] = 0.5 * h
    for a in (nodes, masses):
        a.flags.writeable = False
    return Mesh1D(length=float(length), node_count=int(node_count),
                  nodes=nodes, lumped_masses=masses,
                  mid_node=int(np.argmin(np.abs(nodes - 0.5 * length))))
