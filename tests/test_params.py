"""Parameter vector invariants."""

import numpy as np
import pytest

from adamqlr import NonFiniteError, ParamVector


def test_rejects_non_finite():
    with pytest.raises(NonFiniteError, match="non-finite"):
        ParamVector(np.array([1.0, np.inf]))


def test_rejects_matrix():
    with pytest.raises(ValueError, match="1-D"):
        ParamVector(np.zeros((2, 2)))
