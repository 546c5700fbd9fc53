"""Parameter vector invariants."""

import numpy as np
import pytest

from adamqlr import AdamState, NonFiniteError, ParamVector, adam_direction, sgd_step


def test_rejects_non_finite():
    with pytest.raises(NonFiniteError, match="non-finite"):
        ParamVector(np.array([1.0, np.inf]))


def test_rejects_matrix():
    with pytest.raises(ValueError, match="1-D"):
        ParamVector(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_finite_check_refuses_nan_and_inf(bad):
    values = np.array([1.0, bad])
    with pytest.raises(NonFiniteError, match="non-finite"):
        ParamVector(values)
    g = ParamVector(np.ones(2))
    object.__setattr__(g, "values", values)  # past ParamVector's own check
    with pytest.raises(NonFiniteError, match="adam_direction"):
        adam_direction(AdamState.init(2), g)
    with pytest.raises(NonFiniteError, match="sgd_step"):
        sgd_step(ParamVector(np.zeros(2)), g, 0.1)
