"""Parameter vector invariants."""

import numpy as np
import pytest

from adamqlr import ManifestEntry, NonFiniteError, ParamVector


def test_default_manifest_covers_vector():
    pv = ParamVector(np.arange(5.0))
    assert len(pv) == 5
    assert pv.manifest[0].shape == (5,)


def test_manifest_must_be_contiguous():
    with pytest.raises(ValueError, match="offset"):
        ParamVector(
            np.zeros(4),
            (ManifestEntry("a", (2,), 0), ManifestEntry("b", (2,), 3)),
        )


def test_manifest_must_cover_length():
    with pytest.raises(ValueError, match="covers"):
        ParamVector(np.zeros(5), (ManifestEntry("a", (2, 2), 0),))


def test_rejects_non_finite():
    with pytest.raises(NonFiniteError, match="non-finite"):
        ParamVector(np.array([1.0, np.inf]))


def test_rejects_matrix():
    with pytest.raises(ValueError, match="1-D"):
        ParamVector(np.zeros((2, 2)))


def test_view_reshapes_named_slice():
    manifest = (ManifestEntry("w", (2, 2), 0), ManifestEntry("b", (2,), 4))
    pv = ParamVector(np.arange(6.0), manifest)
    np.testing.assert_array_equal(pv.view("w"), [[0.0, 1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(pv.view("b"), [4.0, 5.0])
    with pytest.raises(KeyError):
        pv.view("missing")


def test_with_values_keeps_manifest():
    manifest = (ManifestEntry("w", (3,), 0),)
    pv = ParamVector(np.zeros(3), manifest)
    out = pv.with_values(np.ones(3))
    assert out.manifest == manifest
    np.testing.assert_array_equal(out.values, np.ones(3))
