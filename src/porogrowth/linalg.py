"""The tridiagonal direct solver backing both finite element modules.

Every system of a sweep is tridiagonal: the transport systems by
construction, and the poroelastic one because its momentum rows
telescope to a known stress on each element, which eliminates u and
leaves the N pressures (derivation in poroelastic). solve_banded solves
them all with LAPACK gtsv; check_residual holds a solution to the
residual contract, block by block, so that one call checks a whole
sweep: the sweep assembles its three systems into one block-diagonal
band and checks it once, after its last solve.
"""

import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import SingularSystemError

#: residual contract of every solve: |Ax-b|_inf <= RESIDUAL_REL * scale
RESIDUAL_REL = 1e-10

_TINY = np.finfo(float).tiny


def _load_gtsv(linalg_dir):
    """dgtsv of the module scipy.linalg._flapack in linalg_dir, loaded alone
    (importing scipy.linalg costs 0.3 s and 25 MB; a later import of it
    reuses the module), or from get_lapack_funcs if linalg_dir lacks it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules and (spec := PathFinder.find_spec(name, [linalg_dir])):
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    if name in sys.modules:
        return sys.modules[name].dgtsv
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)[0]


#: the LAPACK driver behind solve_banded, loaded once
_gtsv = _load_gtsv(os.path.join(find_spec("scipy").submodule_search_locations[0], "linalg"))


def diagonals(values):
    """(upper, main, lower) views of a band-shaped (3, ..., n) array.

    LAPACK band storage of a tridiagonal matrix (kl = ku = 1):
    values[1 + i - j, j] holds A[i, j]; values[0, 0] and values[2, -1]
    lie outside the matrix and are never read. Viewed as (3, k, m), a
    band of order k m is k blocks, whose outside entries are its seams.
    """
    return values[0, ..., 1:], values[1], values[2, ..., :-1]


def row_sums(values):
    """Sum a band-shaped (3, n) array along the rows of A: of |data| the
    absolute row sums, of data * x the product A x."""
    upper, main, lower = diagonals(values)
    rows = main.copy()
    rows[:-1] += upper
    rows[1:] += lower
    return rows


@dataclass
class BandedMatrix:
    """Tridiagonal matrix whose (3, n) data is its band storage (see
    diagonals); n >= 2, as gtsv rejects n = 1. The order n stays only
    because perfbench/tracing.py counts the unknowns of a solve by it."""

    data: np.ndarray
    n = property(lambda self: self.data.shape[1])

    def to_dense(self):
        upper, main, lower = diagonals(self.data)
        return np.diag(upper, 1) + np.diag(main) + np.diag(lower, -1)


def solve_banded(matrix, b):
    """Solve the tridiagonal system A x = b by LU with partial pivoting.

    LAPACK gtsv, as scipy.linalg.solve_banded calls it but without its
    per-call wrapper; it leaves matrix.data and b intact for
    check_residual, which the caller runs.

    An rhs of shape (k, m) with k m = n declares A block diagonal with
    k blocks of size m; one LAPACK call solves all of them and row i of
    the (k, m) result solves block i. Raises SingularSystemError on
    (numerically) singular systems and on a non-finite solution.
    """
    b = np.asarray(b, dtype=float)
    upper, main, lower = diagonals(matrix.data)
    *_, x, info = _gtsv(lower, main, upper, b.ravel())
    if info != 0:
        raise SingularSystemError(f"LAPACK banded solve failed, info = {info}")
    if not np.isfinite(x).all():
        raise SingularSystemError("non-finite solution from banded solve")
    return x.reshape(b.shape)


def check_residual(matrix, x, b):
    """Hold the solution x of A x = b to the residual contract
    |Ax - b|_inf <= 1e-10 (|A| |x| + |b|), a normwise backward-error
    test (Rigal & Gaches 1967; Higham 2002, section 7.1).

    b and x of shape (k, m) with k m = n declare A block diagonal with
    k blocks of size m, and each block is held to the bound of its own
    |A|, |x| and |b| (a bound never above the one of the whole system).
    |A| and Ax take one slice per diagonal. Raises SingularSystemError
    unless every block's residual and scale are finite and the residual
    is within its bound (a NaN residual compares false, and an infinite
    scale makes any bound hold); an all-zero block never reaches this
    check, because solve_banded, which every caller runs first, already
    raises on it.
    """
    blocks = (-1, b.shape[-1])
    band = matrix.data
    a_norm = row_sums(np.abs(band)).reshape(blocks).max(axis=1)
    x, b = x.ravel(), b.ravel()
    residual = np.abs(row_sums(band * x) - b).reshape(blocks).max(axis=1)
    scale = (a_norm * np.abs(x).reshape(blocks).max(axis=1)
             + np.abs(b).reshape(blocks).max(axis=1))
    if not (np.isfinite(scale).all()
            and (residual <= RESIDUAL_REL * np.maximum(scale, _TINY)).all()):
        raise SingularSystemError(
            f"solve residual {residual} exceeds contract for scale {scale}")
