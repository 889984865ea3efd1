import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from porogrowth import linalg
from porogrowth.errors import SingularSystemError
from porogrowth.linalg import RESIDUAL_REL, BandedMatrix, check_residual, solve_banded
from porogrowth.verify import dense_gaussian_elimination


def random_dominant(rng, n):
    """Random diagonally dominant tridiagonal BandedMatrix."""
    m = BandedMatrix(n=n)
    m.data[0, 1:] = rng.uniform(-1.0, 1.0, size=n - 1)
    m.data[2, :-1] = rng.uniform(-1.0, 1.0, size=n - 1)
    m.data[1] = (np.abs(m.to_dense()).sum(axis=1)
                 + rng.uniform(1.0, 2.0, size=n))
    return m


def test_band_storage_round_trip():
    # LAPACK band storage: data[1 + i - j, j] holds A[i, j]
    m = BandedMatrix(n=5)
    m.data[1, 0] = 1.0   # A[0, 0]
    m.data[0, 1] = 2.0   # A[0, 1]
    m.data[2, 3] = 3.5   # A[4, 3]
    m.data[0, 0] = m.data[2, 4] = 9.0   # outside the matrix, never read
    dense = m.to_dense()
    assert dense[0, 0] == 1.0
    assert dense[0, 1] == 2.0
    assert dense[4, 3] == 3.5
    assert np.count_nonzero(dense) == 3
    assert dense[0, 3] == 0.0  # outside the band reads as zero


def test_zero_row():
    # a row cleared in band storage, as an essential boundary row is:
    # data[0, i + 1], data[1, i] and data[2, i - 1] hold row i
    m = BandedMatrix(n=4)
    for i in range(4):
        for j in range(max(0, i - 1), min(4, i + 2)):
            m.data[1 + i - j, j] = 1.0 + i + j
    m.data[0, 3] = m.data[1, 2] = m.data[2, 1] = 0.0
    dense = m.to_dense()
    assert np.all(dense[2] == 0.0)
    assert dense[1, 2] != 0.0  # the column survives
    m.data[1, 0] = m.data[0, 1] = 0.0  # a row clipped by the band's edge
    assert np.all(m.to_dense()[0] == 0.0)
    assert np.count_nonzero(m.to_dense()) == 10 - 3 - 2


def test_matvec_and_norm_match_dense():
    rng = np.random.default_rng(0)
    for n in (2, 3, 30):
        m = random_dominant(rng, n)
        m.data[0, 0] = m.data[2, -1] = 7.0  # the unused corners stay out
        dense = m.to_dense()
        x = rng.uniform(-1, 1, size=n)
        assert np.allclose(m.row_sums(m.data * x), dense @ x, rtol=1e-14)
        assert np.allclose(m.row_sums(np.abs(m.data)), np.abs(dense).sum(axis=1),
                           rtol=1e-14)


def test_solve_banded_against_dense_oracle():
    rng = np.random.default_rng(42)
    for n in (2, 5, 40):
        m = random_dominant(rng, n)
        b = rng.uniform(-1, 1, size=n)
        x = solve_banded(m, b)
        x_ref = dense_gaussian_elimination(m.to_dense(), b)
        assert np.max(np.abs(x - x_ref)) < 1e-10


def random_tridiagonal_blocks(rng, k, m):
    """Block-diagonal BandedMatrix of k random tridiagonal m x m blocks,
    written into .data viewed as (3, k, m); the seams stay zero."""
    packed = BandedMatrix(n=k * m)
    band = packed.data.reshape(3, k, m)
    band[2, :, :-1] = rng.uniform(-1, 1, size=(k, m - 1))   # lower
    band[0, :, 1:] = rng.uniform(-1, 1, size=(k, m - 1))    # upper
    band[1] = 4.0 + rng.uniform(0, 1, size=(k, m))          # diagonal
    return packed


def test_stacked_rhs_solves_each_block():
    rng = np.random.default_rng(4)
    k, m = 3, 12
    packed = random_tridiagonal_blocks(rng, k, m)
    dense = packed.to_dense()
    for i in range(k - 1):  # the blocks do not couple
        seam = (i + 1) * m
        assert dense[seam - 1, seam] == 0.0 and dense[seam, seam - 1] == 0.0
    b = rng.uniform(-1, 1, size=(k, m))
    x = solve_banded(packed, b)
    assert x.shape == (k, m)
    for i, data in enumerate(packed.data.reshape(3, k, m).transpose(1, 0, 2)):
        single = BandedMatrix(n=m, data=data.copy())
        assert np.array_equal(x[i], solve_banded(single, b[i]))


def test_residual_contract_is_checked_per_block(monkeypatch):
    # block 0 is scaled by 1e6; an error in block 1 far below the global
    # scale but far above block 1's own scale must still be caught
    rng = np.random.default_rng(6)
    k, m = 2, 20
    packed = random_tridiagonal_blocks(rng, k, m)
    b = rng.uniform(-1, 1, size=(k, m))
    packed.data.reshape(3, k, m)[:, 0] *= 1e6
    b[0] *= 1e6
    x = solve_banded(packed, b)
    check_residual(packed, x, b)   # the unperturbed solution passes
    error = 1e-6
    row_norms = packed.row_sums(np.abs(packed.data)).reshape(k, m)
    block_bound = RESIDUAL_REL * (
        np.max(row_norms[1]) * np.max(np.abs(x[1])) + np.max(np.abs(b[1])))
    global_bound = RESIDUAL_REL * (
        np.max(row_norms) * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert block_bound < error < global_bound

    real = linalg._gtsv

    def perturbed(*args, **kwargs):
        *factors, x, info = real(*args, **kwargs)
        x[m + m // 2] += error
        return (*factors, x, info)

    monkeypatch.setattr(linalg, "_gtsv", perturbed)
    x = solve_banded(packed, b)
    with pytest.raises(SingularSystemError):
        check_residual(packed, x, b)


def test_zero_block_raises():
    rng = np.random.default_rng(7)
    packed = random_tridiagonal_blocks(rng, 3, 8)
    packed.data.reshape(3, 3, 8)[:, 1] = 0.0
    with pytest.raises(SingularSystemError, match="zero matrix block"):
        check_residual(packed, np.ones((3, 8)), np.ones((3, 8)))


def tridiagonal(lower, diag, upper):
    """BandedMatrix from its three diagonals."""
    banded = BandedMatrix(n=len(diag))
    banded.data[0, 1:] = upper
    banded.data[1] = diag
    banded.data[2, :-1] = lower
    return banded


def test_thomas_matches_banded():
    # the tridiagonal (gtsv) path against the dense elimination oracle
    rng = np.random.default_rng(1)
    n = 128
    lower = rng.uniform(-1, 1, size=n - 1)
    upper = rng.uniform(-1, 1, size=n - 1)
    diag = 4.0 + rng.uniform(0, 1, size=n)
    b = rng.uniform(-1, 1, size=n)
    banded = tridiagonal(lower, diag, upper)
    x = solve_banded(banded, b)
    assert np.allclose(x, dense_gaussian_elimination(banded.to_dense(), b),
                       atol=1e-12)


def test_thomas_exact_small_system():
    # [[2, -1, 0], [-1, 2, -1], [0, -1, 2]] x = (1, 0, 1) -> x = (1, 1, 1)
    x = solve_banded(tridiagonal([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]),
                     np.array([1.0, 0.0, 1.0]))
    assert np.allclose(x, 1.0, atol=1e-14)


def test_singular_matrix_raises():
    m = BandedMatrix(n=3)
    with pytest.raises(SingularSystemError):
        solve_banded(m, np.ones(3))


@pytest.mark.parametrize("kl, ku", [(1, 1), (2, 2), (3, 3), (2, 1)])
def test_lapack_solve_leaves_inputs_and_matches_scipy(kl, ku):
    # the residual contract reads matrix.data and b after the gtsv call,
    # so both must survive it. The reference is scipy.linalg.solve_banded
    # on the same matrix stored with bandwidths (kl, ku), the outer
    # diagonals zero: gtsv itself for (1, 1), gbsv for the wider bands
    rng = np.random.default_rng(10 + kl + ku)
    m = random_dominant(rng, 40)
    b = rng.uniform(-1, 1, size=40)
    data, rhs = m.data.copy(), b.copy()
    x = solve_banded(m, b)
    assert np.array_equal(m.data, data)
    assert np.array_equal(b, rhs)
    wide = np.zeros((kl + ku + 1, 40))
    wide[ku - 1:ku + 2] = data
    reference = scipy.linalg.solve_banded((kl, ku), wide, rhs)
    if kl == ku == 1:
        assert np.array_equal(x, reference)
    else:
        assert np.allclose(x, reference, rtol=1e-13, atol=0.0)


def test_singular_nonzero_matrix_raises_on_both_lapack_paths():
    # rows 0 and 1 are equal, so elimination leaves an exact zero pivot;
    # gtsv reports it for one system and for the same system stacked
    # twice as a block-diagonal pair
    dense = np.eye(5)
    dense[0, 1] = dense[1, 0] = 1.0
    m = tridiagonal(np.diag(dense, -1), np.diag(dense), np.diag(dense, 1))
    assert np.array_equal(m.to_dense(), dense)
    with pytest.raises(SingularSystemError):
        solve_banded(m, np.ones(5))
    stacked = BandedMatrix(n=10, data=np.concatenate([m.data, m.data], axis=1))
    with pytest.raises(SingularSystemError):
        solve_banded(stacked, np.ones((2, 5)))


def test_thomas_pivot_underflow():
    # [[1, 1, 0], [1, 1, 1], [0, 1, 1]] has det -1, but elimination without
    # row exchanges meets a zero pivot at its second step; gtsv's partial
    # pivoting solves it: x = (0, 1, 0) for b = (1, 1, 1)
    x = solve_banded(tridiagonal([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0]),
                     np.ones(3))
    assert np.allclose(x, [0.0, 1.0, 0.0], atol=1e-15)


def run_fresh(code):
    """Run code in a fresh interpreter that imports porogrowth from src."""
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_linalg_unimported():
    # gtsv comes from scipy.linalg._flapack alone, not the whole package
    assert run_fresh("import sys, porogrowth.cli\n"
                     "print('scipy.linalg' in sys.modules)") == "False\n"


@pytest.mark.parametrize("first, second", [
    ("from porogrowth import linalg", "import scipy.linalg"),
    ("import scipy.linalg", "from porogrowth import linalg")])
def test_loaded_gtsv_is_scipys_in_either_import_order(first, second):
    assert run_fresh(
        f"{first}\n{second}\nimport numpy as np\n"
        "print(linalg._gtsv is scipy.linalg.get_lapack_funcs(\n"
        "    ('gtsv',), dtype=np.float64)[0])") == "True\n"


def test_gtsv_falls_back_to_get_lapack_funcs(monkeypatch, tmp_path):
    # no _flapack file where the loader looks: get_lapack_funcs finds the
    # same routine
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    gtsv = linalg._load_gtsv(str(tmp_path))
    assert "scipy.linalg._flapack" not in sys.modules
    assert gtsv is linalg._gtsv
    assert gtsv is scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)[0]
