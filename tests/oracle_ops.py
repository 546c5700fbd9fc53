"""The generic tape ops, each a function of the package's :class:`Tape`: ``mul(tape, a, b)``.

No objective in the package records these; the fused nodes stand for
chains of them, and tests compose them into oracles: the chain whose
bits ``Tape.mse`` keeps, the slice trace of Rosenbrock whose bits
``Tape.rosenbrock`` keeps (`helpers.rosenbrock_slice_objective`), and
`helpers.quadratic_objective`. Each op builds its node from the tape's
own ``Node``, ``_jvp``/``_bwd`` and pair helpers, so a chain has the
arithmetic the fused nodes match.

Most fall into two rule families, each stating its JVP and backward
rules once: linear maps (``scale``; ``index``, which reads a slice
``start:stop`` off a flat vector; ``sum``) and sums ``a + g(b)`` with a
linear ``g`` (``add``, ``sub``). ``square`` is elementwise, as the
tape's ``relu`` and ``tanh`` are; ``mul`` and ``matmul`` keep their own
rules.
"""

from __future__ import annotations

import operator

import numpy as np

from adamqlr.tape import (
    Array,
    LinearMap,
    Node,
    Tape,
    _mm,
    _pair,
    _tadd,
    _transpose,
    p_linear,
    p_matmul,
    p_mul,
)


def _identity(x: Array) -> Array:
    return x


def _linear(tape: Tape, a: Node, f: LinearMap, f_t: LinearMap) -> Node:
    """``f(a)`` for a linear map ``f`` whose transpose is ``f_t``."""
    out = tape._node(f(a.val), a)
    out._jvp = lambda: None if a.tan is None else f(a.tan)
    out._bwd = lambda ct, acc, use_tangents: acc(a, p_linear(ct, f_t))
    return out


def _add(
    tape: Tape, val: Array, a: Node, b: Node, g: LinearMap = _identity, g_t: LinearMap = _identity
) -> Node:
    """``a + g(b)``, computed as ``val``, for a linear ``g`` with transpose ``g_t``."""
    out = tape._node(val, a, b)
    out._jvp = lambda: _tadd(a.tan, None if b.tan is None else g(b.tan))

    def bwd(ct, acc, use_tangents):
        acc(a, ct)
        acc(b, p_linear(ct, g_t))

    out._bwd = bwd
    return out


# -- elementwise -------------------------------------------------------------


def add(tape: Tape, a: Node, b: Node) -> Node:
    return _add(tape, a.val + b.val, a, b)


def sub(tape: Tape, a: Node, b: Node) -> Node:
    return _add(tape, a.val - b.val, a, b, operator.neg, operator.neg)


def mul(tape: Tape, a: Node, b: Node) -> Node:
    if a.val.shape != b.val.shape:
        raise ValueError("mul requires equal shapes; use scale for scalars")
    out = tape._node(a.val * b.val, a, b)

    def jvp():
        tan = None if a.tan is None else a.tan * b.val
        return tan if b.tan is None else _tadd(tan, a.val * b.tan)

    def bwd(ct, acc, use_tangents):
        acc(a, p_mul(ct, _pair(b, use_tangents)))
        acc(b, p_mul(ct, _pair(a, use_tangents)))

    out._jvp, out._bwd = jvp, bwd
    return out


def scale(tape: Tape, a: Node, c: float) -> Node:
    return _linear(tape, a, lambda x: c * x, lambda ct: c * ct)


def square(tape: Tape, a: Node) -> Node:
    return tape._elementwise(a, a.val * a.val, 2.0 * a.val, lambda t: 2.0 * t)


# -- linear algebra ------------------------------------------------------------


def matmul(tape: Tape, a: Node, b: Node) -> Node:
    if a.val.ndim != 2 or (a.live and b.val.ndim != 2):
        raise ValueError("matmul takes a matrix times a matrix, or a constant one times a vector")
    out = tape._node(_mm(a.val, b.val), a, b)

    def jvp():
        tan = None if a.tan is None else _mm(a.tan, b.val)
        return tan if b.tan is None else _tadd(tan, _mm(a.val, b.tan))

    def bwd(ct, acc, use_tangents):
        if a.live:
            acc(a, p_matmul(ct, p_linear(_pair(b, use_tangents), _transpose)))
        if b.live:
            # aᵀ·ct as (ctᵀ·a)ᵀ, as in affine.
            ct_a = p_matmul(p_linear(ct, _transpose), _pair(a, use_tangents))
            acc(b, p_linear(ct_a, _transpose))

    out._jvp, out._bwd = jvp, bwd
    return out


# -- shape and reduction ---------------------------------------------------------


def index(tape: Tape, a: Node, key: slice) -> Node:
    """``a[start:stop]`` of a flat vector, a slice that lies inside ``a``."""
    if a.val.ndim != 1:
        raise ValueError("index expects a flat vector")
    n = a.val.shape[0]
    if not (key.step is None and 0 <= key.start <= key.stop <= n):
        raise ValueError(f"index {key!r} outside a vector of length {n}")

    def scatter(ct):
        z = np.zeros(n, dtype=np.float64)
        z[key] = ct
        return z

    return _linear(tape, a, lambda x: x[key], scatter)


def sum(tape: Tape, a: Node) -> Node:
    shape = a.val.shape
    return _linear(tape, a, lambda x: x.sum(), lambda ct: np.full(shape, ct, dtype=np.float64))
