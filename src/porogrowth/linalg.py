"""The tridiagonal direct solver backing both finite element modules.

Every system of a sweep is tridiagonal: the transport systems by
construction, and the poroelastic one because its momentum rows
telescope to a known stress on each element, which eliminates u and
leaves the N pressures (derivation in poroelastic). solve_banded solves
them all with LAPACK gtsv and checks the residual.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularSystemError

#: residual contract of every solve: |Ax-b|_inf <= RESIDUAL_REL * scale
RESIDUAL_REL = 1e-10

_TINY = np.finfo(float).tiny

#: the LAPACK driver behind solve_banded, fetched once
_gtsv, = scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)


@dataclass
class BandedMatrix:
    """Tridiagonal matrix of order n in LAPACK band storage (kl = ku = 1).

    data[1 + i - j, j] holds A[i, j]: data[0, 1:] is the upper, data[1]
    the main and data[2, :-1] the lower diagonal; data[0, 0] and
    data[2, -1] lie outside the matrix and are never read.
    """

    n: int
    data: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 2:   # gtsv rejects the empty off-diagonals of n = 1
            raise ValueError("matrix dimension must be at least 2")
        if self.data is None:
            self.data = np.zeros((3, self.n))
        elif self.data.shape != (3, self.n):
            raise ValueError("band storage has wrong shape")

    def to_dense(self):
        return (np.diag(self.data[0, 1:], 1) + np.diag(self.data[1])
                + np.diag(self.data[2, :-1], -1))

    def row_sums(self, values):
        """Sum a band-shaped array along the rows of A, one sum per row.

        values[1 + i - j, j] belongs to row i, as in data; row_sums of
        |data| gives the absolute row sums, of data * x the product A x.
        """
        rows = values[1].copy()
        rows[:-1] += values[0, 1:]
        rows[1:] += values[2, :-1]
        return rows


def solve_banded(matrix, b):
    """Solve the tridiagonal system A x = b by LU with partial pivoting.

    LAPACK gtsv, as scipy.linalg.solve_banded calls it but without its
    per-call wrapper; it leaves matrix.data and b intact for the
    residual contract, whose |A| and Ax take one slice per diagonal.

    An rhs of shape (k, m) with k m = n declares A block diagonal with
    k blocks of size m; one LAPACK call solves all of them and row i of
    the (k, m) result solves block i. Raises SingularSystemError on
    (numerically) singular systems, on an all-zero block, or when the
    residual contract |Ax - b|_inf <= 1e-10 (|A| |x| + |b|) fails in
    any block, each block with its own |A|, |x| and |b| (a bound never
    above the one of the whole system).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.size != matrix.n:
        raise ValueError(f"rhs has shape {b.shape}, want ({matrix.n},) "
                         "or (k, m) with k m = n")
    blocks = (-1, b.shape[-1])
    band = matrix.data
    a_norm = matrix.row_sums(np.abs(band)).reshape(blocks).max(axis=1)
    if (a_norm == 0.0).any():
        raise SingularSystemError("zero matrix block")
    *_, x, info = _gtsv(band[2, :-1], band[1], band[0, 1:], b.ravel())
    if info != 0:
        raise SingularSystemError(f"LAPACK banded solve failed, info = {info}")
    if not np.isfinite(x).all():
        raise SingularSystemError("non-finite solution from banded solve")
    residual = np.abs(matrix.row_sums(band * x) - b.ravel()).reshape(blocks).max(axis=1)
    scale = (a_norm * np.abs(x).reshape(blocks).max(axis=1)
             + np.abs(b).reshape(blocks).max(axis=1))
    if (residual > RESIDUAL_REL * np.maximum(scale, _TINY)).any():
        raise SingularSystemError(
            f"solve residual {residual} exceeds contract for scale {scale}")
    return x.reshape(b.shape)
