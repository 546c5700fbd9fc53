"""Flat parameter vectors with a manifest mapping slices to model tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(ArithmeticError):
    """A parameter, gradient or direction holds inf or nan: the run diverged."""


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


@dataclass(frozen=True)
class ParamVector:
    """Double-precision parameter vector plus its slice-to-tensor layout.

    The manifest entries must tile the vector contiguously and without
    overlap; every value must be finite. All optimizer state and autodiff
    results use this representation so that inner products, norms and
    updates are single vector operations.
    """

    values: np.ndarray
    manifest: tuple[ManifestEntry, ...] = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("parameter vector must be 1-D")
        object.__setattr__(self, "values", values)
        manifest = tuple(self.manifest) or (ManifestEntry("theta", (values.size,), 0),)
        object.__setattr__(self, "manifest", manifest)
        expected = 0
        for entry in manifest:
            if entry.offset != expected:
                raise ValueError(
                    f"manifest entry {entry.name!r} at offset {entry.offset}, expected {expected}"
                )
            expected += entry.size
        if expected != values.size:
            raise ValueError(
                f"manifest covers {expected} values but vector has {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("parameter vector contains non-finite values")

    def __len__(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.manifest)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.values), self.manifest)

    def view(self, name: str) -> np.ndarray:
        """Slice of the flat vector for one named tensor, reshaped."""
        for entry in self.manifest:
            if entry.name == name:
                return self.values[entry.offset : entry.offset + entry.size].reshape(
                    entry.shape
                )
        raise KeyError(name)
