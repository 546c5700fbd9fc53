"""Flat, finite, double-precision parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteError(ArithmeticError):
    """A parameter, gradient or direction holds inf or nan: the run diverged."""


@dataclass(frozen=True)
class ParamVector:
    """Double-precision 1-D parameter vector whose every value is finite.

    All optimizer state and autodiff results use this representation so
    that inner products, norms and updates are single vector operations.
    How a model lays its tensors out in the vector is that model's own
    business.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("parameter vector must be 1-D")
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("parameter vector contains non-finite values")

    def __len__(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values)
