import numpy as np
import pytest

from porogrowth import verify


def test_dense_oracle_solves_exactly():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = verify.dense_gaussian_elimination(a, np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-14)


def test_dense_oracle_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        verify.dense_gaussian_elimination(np.ones((2, 2)), np.ones(2))


def test_run_suite_names():
    assert set(verify.SUITE_NAMES) == {
        "linalg", "darcy", "sg-exact", "mms-adr", "mms-poro", "positivity"}


def test_suite_results_carry_lines():
    result = verify.run_suite("linalg")
    assert result.name == "linalg"
    assert result.passed
    assert all(line.strip().startswith("[pass]") for line in result.lines)
