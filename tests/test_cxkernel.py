import numpy as np
import pytest

from tilecast import as_cvec, cdot


def test_as_cvec_accepts_sequences():
    v = as_cvec([1, 2j])
    assert v.dtype == np.complex128
    assert v.shape == (2,)


def test_as_cvec_rejects_matrix():
    with pytest.raises(ValueError):
        as_cvec(np.ones((2, 2)))


def test_as_cvec_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cvec([1.0, np.inf])
    with pytest.raises(ValueError):
        as_cvec([1.0, complex(0.0, float("nan"))])


def test_cdot_norm_squared():
    assert cdot([1, 1j], [1, 1j]) == pytest.approx(2.0)


def test_cdot_orthogonal():
    assert cdot([1, 0], [0, 1]) == 0


def test_cdot_conjugates_first_argument():
    assert cdot([1j, 0], [1, 0]) == pytest.approx(-1j)


def test_cdot_length_mismatch():
    with pytest.raises(ValueError):
        cdot([1, 2], [1, 2, 3])

