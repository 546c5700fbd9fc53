"""Reverse-mode automatic differentiation over numpy arrays.

Nodes are recorded on a :class:`Tape` in execution order, so the record
itself is a topological order and the backward pass is a single reverse
sweep. Every node carries an optional forward-mode tangent next to its
value. Seeding the parameter leaf with a tangent ``v`` and letting the
backward pass propagate tangents through its cotangent arithmetic yields
the exact directional second derivative: the tangent of the accumulated
gradient is ``Hv``. This costs one extra (dual) pass per product, never a
materialized Hessian.

Supported operations cover affine layers, ReLU/tanh, elementwise
arithmetic and squaring, reductions, and a fused numerically-stabilized
softmax cross-entropy. Each evaluation owns its tape; nothing is shared
between traces, so concurrent evaluations are safe.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray
# (value, tangent); a None tangent means an exact zero that is never allocated.
Pair = tuple[Array, Optional[Array]]


def _tadd(a: Optional[Array], b: Optional[Array]) -> Optional[Array]:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def p_add(a: Pair, b: Pair) -> Pair:
    return a[0] + b[0], _tadd(a[1], b[1])


def p_neg(a: Pair) -> Pair:
    return -a[0], None if a[1] is None else -a[1]


def p_mul(a: Pair, b: Pair) -> Pair:
    tan = None
    if a[1] is not None:
        tan = a[1] * b[0]
    if b[1] is not None:
        tan = _tadd(tan, a[0] * b[1])
    return a[0] * b[0], tan


def p_matmul(a: Pair, b: Pair) -> Pair:
    tan = None
    if a[1] is not None:
        tan = a[1] @ b[0]
    if b[1] is not None:
        tan = _tadd(tan, a[0] @ b[1])
    return a[0] @ b[0], tan


def p_transpose(a: Pair) -> Pair:
    return a[0].T, None if a[1] is None else a[1].T


def p_scale(a: Pair, c: float) -> Pair:
    return c * a[0], None if a[1] is None else c * a[1]


def p_mask(a: Pair, mask: Array) -> Pair:
    return a[0] * mask, None if a[1] is None else a[1] * mask


def p_sum0(a: Pair) -> Pair:
    return a[0].sum(axis=0), None if a[1] is None else a[1].sum(axis=0)


def p_full(a: Pair, shape: tuple[int, ...]) -> Pair:
    tan = None if a[1] is None else np.full(shape, a[1], dtype=np.float64)
    return np.full(shape, a[0], dtype=np.float64), tan


def p_reshape(a: Pair, shape: tuple[int, ...]) -> Pair:
    return a[0].reshape(shape), None if a[1] is None else a[1].reshape(shape)


class Node:
    """One recorded value (with optional tangent) in a traced computation."""

    __slots__ = ("tape", "val", "tan", "_idx", "_bwd")

    def __init__(self, tape: "Tape", val: Array, tan: Optional[Array]):
        # Nothing reads this back-reference, but it puts every tape in a
        # reference cycle, so the cyclic collector frees a tape's arrays in
        # batches. Freed one by one as refcounts drop, the 8-50-1 energy job
        # ran 1.5x slower (with half the peak memory): glibc handed the large
        # blocks back to the OS and page-faulted fresh ones; raising
        # MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ removed the loss.
        self.tape = tape
        self.val = val
        self.tan = tan
        self._idx = len(tape._nodes)
        self._bwd: Optional[Callable] = None
        tape._nodes.append(self)


class _BackwardCtx:
    """Controls whether saved tangents participate in the backward sweep."""

    __slots__ = ("use_tangents",)

    def __init__(self, use_tangents: bool):
        self.use_tangents = use_tangents

    def pair(self, node: Node) -> Pair:
        return (node.val, node.tan if self.use_tangents else None)


class Tape:
    """Records a computation and replays it in reverse for gradients."""

    def __init__(self):
        self._nodes: list[Node] = []

    # -- leaves ----------------------------------------------------------

    def const(self, x) -> Node:
        return Node(self, np.asarray(x, dtype=np.float64), None)

    def input(self, values: Array, tangent: Optional[Array] = None) -> Node:
        values = np.asarray(values, dtype=np.float64)
        if tangent is not None:
            tangent = np.asarray(tangent, dtype=np.float64)
            if tangent.shape != values.shape:
                raise ValueError("tangent shape must match input shape")
        return Node(self, values, tangent)

    # -- elementwise -----------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        out = Node(self, a.val + b.val, _tadd(a.tan, b.tan))

        def bwd(ctx, ct, acc):
            acc(a, ct)
            acc(b, ct)

        out._bwd = bwd
        return out

    def sub(self, a: Node, b: Node) -> Node:
        tan = _tadd(a.tan, None if b.tan is None else -b.tan)
        out = Node(self, a.val - b.val, tan)

        def bwd(ctx, ct, acc):
            acc(a, ct)
            acc(b, p_neg(ct))

        out._bwd = bwd
        return out

    def mul(self, a: Node, b: Node) -> Node:
        if a.val.shape != b.val.shape:
            raise ValueError("mul requires equal shapes; use scale for scalars")
        val, tan = p_mul((a.val, a.tan), (b.val, b.tan))
        out = Node(self, val, tan)

        def bwd(ctx, ct, acc):
            acc(a, p_mul(ct, ctx.pair(b)))
            acc(b, p_mul(ct, ctx.pair(a)))

        out._bwd = bwd
        return out

    def scale(self, a: Node, c: float) -> Node:
        out = Node(self, c * a.val, None if a.tan is None else c * a.tan)

        def bwd(ctx, ct, acc):
            acc(a, p_scale(ct, c))

        out._bwd = bwd
        return out

    def square(self, a: Node) -> Node:
        tan = None if a.tan is None else 2.0 * a.val * a.tan
        out = Node(self, a.val * a.val, tan)

        def bwd(ctx, ct, acc):
            acc(a, p_mul(ct, p_scale(ctx.pair(a), 2.0)))

        out._bwd = bwd
        return out

    # -- linear algebra ----------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        val, tan = p_matmul((a.val, a.tan), (b.val, b.tan))
        out = Node(self, val, tan)

        def bwd(ctx, ct, acc):
            acc(a, p_matmul(ct, p_transpose(ctx.pair(b))))
            acc(b, p_matmul(p_transpose(ctx.pair(a)), ct))

        out._bwd = bwd
        return out

    def add_row(self, a: Node, b: Node) -> Node:
        """Broadcast-add a length-K row vector b onto an N-by-K matrix a."""
        if a.val.ndim != 2 or b.val.shape != (a.val.shape[1],):
            raise ValueError("add_row expects (N,K) matrix and (K,) vector")
        tan = a.tan
        if b.tan is not None:
            tan = (b.tan if tan is None else tan + b.tan)  # broadcasts over rows
        out = Node(self, a.val + b.val, tan)

        def bwd(ctx, ct, acc):
            acc(a, ct)
            acc(b, p_sum0(ct))

        out._bwd = bwd
        return out

    # -- nonlinearities ----------------------------------------------------

    def relu(self, a: Node) -> Node:
        mask = (a.val > 0.0).astype(np.float64)
        out = Node(self, a.val * mask, None if a.tan is None else a.tan * mask)

        def bwd(ctx, ct, acc):
            acc(a, p_mask(ct, mask))

        out._bwd = bwd
        return out

    def tanh(self, a: Node) -> Node:
        val = np.tanh(a.val)
        deriv = 1.0 - val * val
        tan = None if a.tan is None else deriv * a.tan
        out = Node(self, val, tan)

        def bwd(ctx, ct, acc):
            # d(1 - y^2)/deps = -2 y y_dot, with y_dot the output tangent.
            dtan = None
            if ctx.use_tangents and tan is not None:
                dtan = -2.0 * val * tan
            acc(a, p_mul(ct, (deriv, dtan)))

        out._bwd = bwd
        return out

    # -- shape and reduction -------------------------------------------------

    def reshape(self, a: Node, shape: tuple[int, ...]) -> Node:
        val, tan = p_reshape((a.val, a.tan), shape)
        out = Node(self, val, tan)
        orig = a.val.shape

        def bwd(ctx, ct, acc):
            acc(a, p_reshape(ct, orig))

        out._bwd = bwd
        return out

    def slice1d(self, a: Node, start: int, stop: int) -> Node:
        if a.val.ndim != 1:
            raise ValueError("slice1d expects a flat vector")
        tan = None if a.tan is None else a.tan[start:stop]
        out = Node(self, a.val[start:stop], tan)
        n = a.val.shape[0]

        def bwd(ctx, ct, acc):
            zv = np.zeros(n, dtype=np.float64)
            zv[start:stop] = ct[0]
            zt = None
            if ct[1] is not None:
                zt = np.zeros(n, dtype=np.float64)
                zt[start:stop] = ct[1]
            acc(a, (zv, zt))

        out._bwd = bwd
        return out

    def sum(self, a: Node) -> Node:
        tan = None if a.tan is None else a.tan.sum()
        out = Node(self, a.val.sum(), tan)
        shape = a.val.shape

        def bwd(ctx, ct, acc):
            acc(a, p_full(ct, shape))

        out._bwd = bwd
        return out

    # -- fused loss ----------------------------------------------------------

    def softmax_xent(self, logits: Node, labels: Array) -> Node:
        """Mean softmax cross-entropy against integer class labels.

        Stabilized by max-subtraction. Fused so the log-sum-exp never sees
        raw exponentials of large logits, and so the backward rule can
        propagate the softmax tangent exactly.
        """
        z = logits.val
        if z.ndim != 2:
            raise ValueError("softmax_xent expects (N, K) logits")
        n, k = z.shape
        labels = np.asarray(labels)
        if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be an (N,) integer vector")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(
                f"class label out of range [0, {k}): found {labels.min()}..{labels.max()}"
            )

        zmax = z.max(axis=1, keepdims=True)
        shifted = z - zmax
        lse = zmax[:, 0] + np.log(np.exp(shifted).sum(axis=1))
        picked = z[np.arange(n), labels]
        val = np.float64((lse - picked).mean())

        probs = np.exp(z - lse[:, None])
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n  # dL/dlogits

        zt = logits.tan
        tan = None if zt is None else np.float64((grad * zt).sum())
        out = Node(self, val, tan)

        def bwd(ctx, ct, acc):
            cv, ctn = ct
            gv = cv * grad
            gt = None
            if ctx.use_tangents:
                if ctn is not None:
                    gt = ctn * grad
                if zt is not None:
                    pz = probs * zt
                    dprobs = (pz - probs * pz.sum(axis=1, keepdims=True)) / n
                    gt = _tadd(gt, cv * dprobs)
            acc(logits, (gv, gt))

        out._bwd = bwd
        return out

    # -- reverse sweep ---------------------------------------------------------

    def backward(
        self,
        root: Node,
        seed: Pair,
        wrt: Sequence[Node],
        use_tangents: bool = True,
    ) -> list[Pair]:
        """Accumulate cotangents of ``root`` seeded with ``seed`` into ``wrt``.

        With ``use_tangents`` the sweep carries the tangent of every
        cotangent along, which is what turns a tangent-seeded trace into a
        curvature-vector product. Without it the sweep is a plain VJP at
        the primal point.
        """
        ctx = _BackwardCtx(use_tangents)
        cts: dict[int, Pair] = {root._idx: seed}

        def acc(node: Node, pair: Pair) -> None:
            prev = cts.get(node._idx)
            cts[node._idx] = pair if prev is None else p_add(prev, pair)

        for node in reversed(self._nodes[: root._idx + 1]):
            if node._bwd is None:
                continue  # leaves keep their accumulated cotangents
            ct = cts.pop(node._idx, None)
            if ct is None:
                continue
            node._bwd(ctx, ct, acc)

        out = []
        for node in wrt:
            ct = cts.get(node._idx)
            if ct is None:
                zero = np.zeros_like(node.val)
                ct = (zero, None)
            out.append(ct)
        return out
