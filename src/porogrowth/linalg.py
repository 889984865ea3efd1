"""Banded direct solvers backing both finite element modules."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularSystemError

#: pivot guard relative to the matrix infinity norm
PIVOT_FLOOR = 1e-30

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


def _residual_check(a_norm, residual, x, b):
    """Raise unless residual <= 1e-10 (a_norm |x| + |b|). For k blocks,
    x and b hold one row and a_norm and residual one entry per block."""
    scale = a_norm * np.abs(x).max(axis=-1) + np.abs(b).max(axis=-1)
    if (residual > RESIDUAL_REL * np.maximum(scale, _TINY)).any():
        raise SingularSystemError(
            f"solve residual {residual} exceeds contract for scale {scale}")


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
    _residual_check(a_norm, residual, x.reshape(blocks), b.reshape(blocks))
    return x.reshape(b.shape)


def solve_tridiagonal(lower, diag, upper, b):
    """Thomas algorithm for a tridiagonal system.

    lower has length n-1 (subdiagonal), diag length n, upper length n-1.
    Same residual contract and singularity guard as solve_banded.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    b = np.asarray(b, dtype=float)
    n = diag.shape[0]
    if lower.shape != (n - 1,) or upper.shape != (n - 1,) or b.shape != (n,):
        raise ValueError("inconsistent tridiagonal array lengths")
    a_norm = float(np.max(
        np.abs(diag)
        + np.abs(np.concatenate(([0.0], lower)))
        + np.abs(np.concatenate((upper, [0.0])))))
    if a_norm == 0.0:
        raise SingularSystemError("zero matrix")
    floor = PIVOT_FLOOR * a_norm

    d = diag.copy()
    rhs = b.copy()
    for k in range(1, n):
        if abs(d[k - 1]) < floor:
            raise SingularSystemError(f"pivot underflow at row {k - 1}")
        m = lower[k - 1] / d[k - 1]
        d[k] -= m * upper[k - 1]
        rhs[k] -= m * rhs[k - 1]
    if abs(d[n - 1]) < floor:
        raise SingularSystemError(f"pivot underflow at row {n - 1}")
    x = np.empty(n)
    x[n - 1] = rhs[n - 1] / d[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] = (rhs[k] - upper[k] * x[k + 1]) / d[k]

    residual = float(np.max(np.abs(
        diag * x
        + np.concatenate(([0.0], lower * x[:-1]))
        + np.concatenate((upper * x[1:], [0.0]))
        - b)))
    _residual_check(a_norm, residual, x, b)
    return x

