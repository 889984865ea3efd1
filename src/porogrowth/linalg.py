"""The banded direct solver backing both finite element modules.

solve_banded is the single solver: LAPACK gtsv for the tridiagonal
transport systems, gbsv for the interleaved poroelastic band.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularSystemError

#: residual contract of every solve: |Ax-b|_inf <= RESIDUAL_REL * scale
RESIDUAL_REL = 1e-10

_TINY = np.finfo(float).tiny

#: the LAPACK drivers behind solve_banded, fetched once
_gtsv, _gbsv = scipy.linalg.get_lapack_funcs(("gtsv", "gbsv"), dtype=np.float64)


@dataclass
class BandedMatrix:
    """Square matrix with lower/upper bandwidths (kl, ku).

    Band storage follows the LAPACK convention: data[ku + i - j, j]
    holds A[i, j] for max(0, j-ku) <= i <= min(n-1, j+kl).
    """

    n: int
    kl: int
    ku: int
    data: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not (0 <= self.kl < self.n and 0 <= self.ku < self.n):
            raise ValueError("bandwidths must satisfy 0 <= kl, ku < n")
        if self.data is None:
            self.data = np.zeros((self.kl + self.ku + 1, self.n))
        elif self.data.shape != (self.kl + self.ku + 1, self.n):
            raise ValueError("band storage has wrong shape")

    def zero_row(self, i):
        """Clear row i inside the band (essential BC row replacement)."""
        j = np.arange(max(0, i - self.kl), min(self.n, i + self.ku + 1))
        self.data[self.ku + i - j, j] = 0.0

    def to_dense(self):
        a = np.zeros((self.n, self.n))
        for s in range(-self.ku, self.kl + 1):
            j = np.arange(max(0, -s), min(self.n, self.n - s))
            a[j + s, j] = self.data[self.ku + s, j]
        return a

    def row_sums(self, values):
        """Sum a band-shaped array along the rows of A, one sum per row.

        values[ku + i - j, j] belongs to row i, as in data; row_sums of
        |data| gives the absolute row sums, of data * x the product A x.
        """
        rows = np.zeros(self.n)
        for s in range(-self.ku, self.kl + 1):
            j0, j1 = max(0, -s), min(self.n, self.n - s)
            rows[j0 + s:j1 + s] += values[self.ku + s, j0:j1]
        return rows


def solve_banded(matrix, b):
    """Solve A x = b by banded LU with partial pivoting.

    LAPACK gtsv solves the tridiagonal case (kl = ku = 1), gbsv every
    other band; these are the routines scipy.linalg.solve_banded calls,
    called here without its per-call wrapper. Neither touches
    matrix.data or b, which the residual contract reads afterwards.

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
    kl, ku, band = matrix.kl, matrix.ku, matrix.data
    a_norm = matrix.row_sums(np.abs(band)).reshape(blocks).max(axis=1)
    if (a_norm == 0.0).any():
        raise SingularSystemError("zero matrix block")
    if kl == ku == 1:
        *_, x, info = _gtsv(band[2, :-1], band[1], band[0, 1:], b.ravel())
    else:
        # gbsv needs kl extra rows above the band for the LU fill-in
        lu = np.zeros((2 * kl + ku + 1, matrix.n))
        lu[kl:] = band
        *_, x, info = _gbsv(kl, ku, lu, b.ravel(), overwrite_ab=True)
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
