"""Reverse-mode automatic differentiation over numpy arrays.

Nodes are recorded on a :class:`Tape` in execution order, so the record
itself is a topological order and the backward pass is a single reverse
sweep. Recording computes values only. Every node also keeps a JVP rule,
and :meth:`Tape.replay_tangent` pushes a direction ``v`` seeded at one
leaf through those rules, giving every node its forward-mode tangent
without a second primal pass. A backward pass that carries those tangents
through its cotangent arithmetic yields the exact directional second
derivative: the tangent of the accumulated gradient is ``Hv``. This costs
one tangent replay and one dual sweep per product, never a materialized
Hessian.

Leaves made by :meth:`Tape.const`, and nodes computed from them alone,
are not live: they do not depend on the input leaf, so the backward pass
neither computes nor accumulates their cotangents.

Most ops belong to one of three families, each of which states its JVP
and backward rules once: linear maps (``scale``; ``index``, which reads a
scalar node off a flat vector for an int and a vector for a slice; ``sum``),
sums ``a + g(b)`` with a linear ``g`` (``add``, ``sub``), and elementwise
functions (``square``, ``relu``, ``tanh``). ``mul`` and ``matmul`` keep
their own rules, and so do three fused ops: ``affine``, one MLP layer
reading its weight and bias off a flat parameter vector; ``mse``; and a
numerically-stabilized ``softmax_xent``. A fused op is one node, so every
replay and sweep makes one Python call for it. Each fused loss is the one
statement of its loss: checks and value (shared with ``loss_eval``),
gradient, dual sweep and GGN factor ``Node.ggn``. A tape holds the
tangent of its latest replay, so a tape serves one caller at a time;
tapes share nothing but the worker thread of :class:`HalfWorker`, which
serves concurrent callers in turn, so evaluations on separate tapes are
safe to run concurrently.
"""

from __future__ import annotations

import operator
import os
import threading
from typing import Callable, Optional

import numpy as np

Array = np.ndarray
# (value, tangent); a None tangent means an exact zero that is never allocated.
Pair = tuple[Array, Optional[Array]]
LinearMap = Callable[[Array], Array]


def _tadd(a: Optional[Array], b: Optional[Array]) -> Optional[Array]:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def p_add(a: Pair, b: Pair) -> Pair:
    return a[0] + b[0], _tadd(a[1], b[1])


def p_mul(a: Pair, b: Pair) -> Pair:
    tan = None
    if a[1] is not None:
        tan = a[1] * b[0]
    if b[1] is not None:
        tan = _tadd(tan, a[0] * b[1])
    return a[0] * b[0], tan


# Products smaller than this run whole. Their halves could fall to OpenBLAS's
# small-matrix kernels, which round differently from the blocked one.
SPLIT_MADDS = 1 << 23
# Halves meet at a multiple of 32, a whole number of OpenBLAS's dgemm
# micro-tiles, so every output element takes the same kernel path as in
# the whole product (tests/test_tape.py checks the bits at workload shapes).
_CUT = 32


def _blas_single_threaded() -> bool:
    """Whether OpenBLAS runs one thread, read as it reads it at load.

    The first of ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set to a
    positive count decides; with neither, OpenBLAS uses every core.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if n > 0:
            return n == 1
    return False


def _n_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class HalfWorker:
    """Runs one half of each large matrix product on a second core.

    Single-threaded BLAS leaves a second core idle. A product of at least
    :data:`SPLIT_MADDS` multiply-adds is cut across its larger output
    dimension at a multiple of 32; one persistent thread computes one half
    while the caller computes the other. That thread makes the BLAS call
    and nothing else. Splitting changes no bit of the result, and it is
    only a gain with BLAS pinned to one thread on at least two CPUs, so
    ``split`` (None until the first large product) is decided from those.
    """

    def __init__(self, split: Optional[bool] = None):
        self.split = split
        self._lock = threading.Lock()
        self._pool = None

    def _executor(self):
        # Imported at the first split, so a run that never splits does not
        # pay its 4 ms and 0.6 MB.
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(1, thread_name_prefix="adamqlr-matmul")
            return self._pool

    def close(self) -> None:
        """Stop the worker thread, if one was started; the next split starts another."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def forget_after_fork(self) -> None:
        # A forked child has no worker thread, whatever the parent had.
        self._lock, self._pool = threading.Lock(), None

    def matmul(self, x: Array, y: Array) -> Array:
        """``x @ y`` for two matrices, bit for bit, split when ``split`` holds."""
        if self.split is None:
            self.split = _blas_single_threaded() and _n_cpus() >= 2
        m, n = x.shape[0], y.shape[1]
        if not self.split or max(m, n) < 2 * _CUT:
            return x @ y
        out = np.empty((m, n), dtype=np.result_type(x, y))
        if m >= n:
            c = (m + _CUT) // (2 * _CUT) * _CUT
            first, second = (x[:c], y, out[:c]), (x[c:], y, out[c:])
        else:
            c = (n + _CUT) // (2 * _CUT) * _CUT
            first, second = (x, y[:, :c], out[:, :c]), (x, y[:, c:], out[:, c:])
        half = self._executor().submit(np.matmul, *first)
        try:
            np.matmul(*second)
        finally:
            half.result()
        return out


HALVES = HalfWorker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: HALVES.forget_after_fork())


def matmul(x: Array, y: Array) -> Array:
    """``x @ y``: every product on the tape and in ``predict`` runs here.

    A large one may run as two halves on two cores (:class:`HalfWorker`);
    the bits are those of ``x @ y`` either way.
    """
    if x.ndim == 2 == y.ndim and x.size * y.shape[1] >= SPLIT_MADDS:
        return HALVES.matmul(x, y)
    return x @ y


def p_matmul(a: Pair, b: Pair) -> Pair:
    """The product of two pairs: value ``a·b`` and tangent ``ȧ·b + a·ḃ``.

    Every matrix product on the tape comes through here, the one place to
    wrap in order to count them; each runs through :func:`matmul`.
    """
    tan = None
    if a[1] is not None:
        tan = matmul(a[1], b[0])
    if b[1] is not None:
        tan = _tadd(tan, matmul(a[0], b[1]))
    return matmul(a[0], b[0]), tan


def _mm(x: Array, y: Array) -> Array:
    return p_matmul((x, None), (y, None))[0]


def data_matmul(x: Array, w: Array, mm: Callable[[Array, Array], Array] = matmul) -> Array:
    """``x·w`` for a constant data matrix ``x`` and a layer weight (or its tangent) ``w``.

    ``mm`` forms the product: :func:`matmul` by default, as ``predict``
    uses; the tape passes its counted one. A layer wider in than out is
    taken as ``(wᵀ·xᵀ)ᵀ``: single-threaded OpenBLAS packs ``x`` faster as
    the right factor, with the same bits at the MLPs' shapes. The result
    is copied back to C order, because later products on an F-ordered one
    round differently. A narrow input layer (8→50) runs slower that way
    round and keeps ``x·w``.
    """
    if x.shape[-1] <= w.shape[-1]:
        return mm(x, w)
    return np.ascontiguousarray(mm(w.T, x.T).T)


def p_linear(a: Pair, f: LinearMap) -> Pair:
    """The linear map ``f`` applied to a value and its tangent alike."""
    return f(a[0]), None if a[1] is None else f(a[1])


def _identity(x: Array) -> Array:
    return x


def _transpose(x: Array) -> Array:
    return x.T


def _sum_rows(x: Array) -> Array:
    return x.sum(axis=0)


def mean_xent(z: Array, labels) -> tuple[np.float64, Array, Array, Array]:
    """Mean softmax cross-entropy of (N, K) logits ``z`` against checked
    integer labels, stabilized by max-subtraction; with the shifted
    exponentials ``e``, their row sums ``s`` and the log-sum-exp ``lse``."""
    if z.ndim != 2:
        raise ValueError("softmax cross-entropy expects (N, K) logits")
    n, k = z.shape
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be an (N,) integer vector")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"class label out of range [0, {k}): found {labels.min()}..{labels.max()}")
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    s = e.sum(axis=1)
    lse = zmax[:, 0] + np.log(s)
    return np.float64((lse - z[np.arange(n), labels]).mean()), e, s, lse


def _softmax_hvp(p: Array, t: Array, n: int) -> Array:
    """``(diag(p) - ppᵀ)t / n`` row by row: the Hessian of mean cross-entropy
    in the logits, at softmax rows ``p``, times a logit tangent ``t``."""
    pt = p * t
    return (pt - p * pt.sum(axis=1, keepdims=True)) / n


def mse_targets(outputs: Array, targets) -> Array:
    """``targets`` as float64, checked to have the shape of the (N, ...) ``outputs``."""
    targets = np.asarray(targets, dtype=np.float64)
    if outputs.ndim == 0 or targets.shape != outputs.shape:
        raise ValueError(f"mse shape mismatch: outputs {outputs.shape} vs targets {targets.shape}")
    return targets


class Node:
    """One recorded value in a traced computation, and its current tangent.

    `tan` is set by the tape's latest tangent replay (None before any).
    `live` is false when the value depends on no input leaf. `ggn`, set on
    fused loss nodes only, maps a tangent of the loss's input to its
    product with the loss's Hessian there. A node holds no reference to its
    tape and its rules none to itself, so a tape is freed by refcount as
    soon as its step lets go of it.
    """

    __slots__ = ("val", "tan", "live", "ggn", "_idx", "_bwd", "_jvp")

    def __init__(self, tape: "Tape", val: Array, live: bool = True):
        self.val = val
        self.tan: Optional[Array] = None
        self.live = live
        self.ggn: Optional[LinearMap] = None
        self._idx = len(tape._nodes)
        self._bwd: Optional[Callable] = None
        self._jvp: Optional[Callable[[], Optional[Array]]] = None
        tape._nodes.append(self)


def _pair(node: Node, use_tangents: bool) -> Pair:
    """A node's value, with its tangent only when the sweep carries tangents."""
    return node.val, node.tan if use_tangents else None


class Tape:
    """Records a computation and replays it for tangents and gradients.

    A backward rule is called as ``rule(ct, acc, use_tangents)``: ``ct``
    is the node's cotangent pair and ``acc(node, pair)`` adds a cotangent
    to an input.
    """

    def __init__(self):
        self._nodes: list[Node] = []

    def _node(self, val: Array, a: Node, b: Optional[Node] = None) -> Node:
        # Every op has at most two inputs.
        return Node(self, val, a.live or (b is not None and b.live))

    # -- leaves ----------------------------------------------------------

    def const(self, x) -> Node:
        return Node(self, np.asarray(x, dtype=np.float64), live=False)

    def input(self, values: Array) -> Node:
        return Node(self, np.asarray(values, dtype=np.float64))

    # -- rule families -----------------------------------------------------

    def _linear(self, a: Node, f: LinearMap, f_t: LinearMap) -> Node:
        """``f(a)`` for a linear map ``f`` whose transpose is ``f_t``."""
        out = self._node(f(a.val), a)
        out._jvp = lambda: None if a.tan is None else f(a.tan)
        out._bwd = lambda ct, acc, use_tangents: acc(a, p_linear(ct, f_t))
        return out

    def _add(
        self, val: Array, a: Node, b: Node, g: LinearMap = _identity, g_t: LinearMap = _identity
    ) -> Node:
        """``a + g(b)``, computed as ``val``, for a linear ``g`` with transpose ``g_t``."""
        out = self._node(val, a, b)
        out._jvp = lambda: _tadd(a.tan, None if b.tan is None else g(b.tan))

        def bwd(ct, acc, use_tangents):
            acc(a, ct)
            acc(b, p_linear(ct, g_t))

        out._bwd = bwd
        return out

    def _elementwise(
        self, a: Node, val: Array, deriv: Array, deriv_tan: Optional[LinearMap] = None
    ) -> Node:
        """``h(a)`` elementwise, with value ``val`` and derivative ``deriv``.

        ``deriv_tan(a.tan)`` is the tangent of ``deriv``; None means ``deriv``
        is locally constant. It reads arrays, never the output node.
        """
        out = self._node(val, a)
        out._jvp = lambda: None if a.tan is None else deriv * a.tan

        def bwd(ct, acc, use_tangents):
            dtan = None
            if use_tangents and deriv_tan is not None and a.tan is not None:
                dtan = deriv_tan(a.tan)
            acc(a, p_mul(ct, (deriv, dtan)))

        out._bwd = bwd
        return out

    # -- elementwise -----------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        return self._add(a.val + b.val, a, b)

    def sub(self, a: Node, b: Node) -> Node:
        return self._add(a.val - b.val, a, b, operator.neg, operator.neg)

    def mul(self, a: Node, b: Node) -> Node:
        if a.val.shape != b.val.shape:
            raise ValueError("mul requires equal shapes; use scale for scalars")
        out = self._node(a.val * b.val, a, b)

        def jvp():
            tan = None if a.tan is None else a.tan * b.val
            return tan if b.tan is None else _tadd(tan, a.val * b.tan)

        def bwd(ct, acc, use_tangents):
            acc(a, p_mul(ct, _pair(b, use_tangents)))
            acc(b, p_mul(ct, _pair(a, use_tangents)))

        out._jvp, out._bwd = jvp, bwd
        return out

    def scale(self, a: Node, c: float) -> Node:
        return self._linear(a, lambda x: c * x, lambda ct: c * ct)

    def square(self, a: Node) -> Node:
        return self._elementwise(a, a.val * a.val, 2.0 * a.val, lambda t: 2.0 * t)

    # -- linear algebra ----------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.val.ndim != 2 or (a.live and b.val.ndim != 2):
            raise ValueError("matmul takes a matrix times a matrix, or a constant one times a vector")
        out = self._node(_mm(a.val, b.val), a, b)

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

    def affine(self, h: Node, theta: Node, w0: int, b0: int, din: int, dout: int) -> Node:
        """One layer ``h·W + b`` reading ``W = theta[w0:b0]`` as a (din, dout)
        matrix and ``b = theta[b0:b0+dout]`` off a flat parameter vector.

        A left factor that is not live is the data matrix of an input layer
        and takes :func:`data_matmul`. The backward rule writes the weight
        and bias cotangents into one vector of theta's length.
        """
        n = theta.val.size
        if theta.val.ndim != 1 or b0 - w0 != din * dout or w0 < 0 or b0 + dout > n:
            raise ValueError("affine expects W and b inside a flat parameter vector")
        if h.val.ndim != 2 or h.val.shape[1] != din:
            raise ValueError(f"affine expects an (N, {din}) left factor")
        w = theta.val[w0:b0].reshape(din, dout)
        left_mm = _mm if h.live else lambda x, y: data_matmul(x, y, _mm)
        out = self._node(left_mm(h.val, w) + theta.val[b0 : b0 + dout], h, theta)

        def w_tan() -> Optional[Array]:
            return None if theta.tan is None else theta.tan[w0:b0].reshape(din, dout)

        def jvp():
            tan = None if h.tan is None else _mm(h.tan, w)
            wt = w_tan()
            if wt is not None:
                tan = _tadd(tan, left_mm(h.val, wt))
            return _tadd(tan, None if theta.tan is None else theta.tan[b0 : b0 + dout])

        def scatter(ct_w: Optional[Array], ct_b: Optional[Array]) -> Optional[Array]:
            # ct_w is the weight cotangent transposed, (dout, din).
            if ct_w is None and ct_b is None:
                return None
            z = np.zeros(n, dtype=np.float64)
            if ct_w is not None:
                z[w0:b0].reshape(din, dout)[...] = ct_w.T
            if ct_b is not None:
                z[b0 : b0 + dout] = ct_b
            return z

        def bwd(ct, acc, use_tangents):
            if h.live:
                acc(h, p_matmul(ct, p_linear((w, w_tan() if use_tangents else None), _transpose)))
            if theta.live:
                # hᵀ·ct as (ctᵀ·h)ᵀ: ~1.5x faster in OpenBLAS, same bits at the MLPs' shapes
                # (tests/test_tape.py).
                ct_w = p_matmul(p_linear(ct, _transpose), _pair(h, use_tangents))
                ct_b = p_linear(ct, _sum_rows)
                acc(theta, (scatter(ct_w[0], ct_b[0]), scatter(ct_w[1], ct_b[1])))

        out._jvp, out._bwd = jvp, bwd
        return out

    # -- nonlinearities ----------------------------------------------------

    def relu(self, a: Node) -> Node:
        mask = (a.val > 0.0).astype(np.float64)
        return self._elementwise(a, a.val * mask, mask)

    def tanh(self, a: Node) -> Node:
        val = np.tanh(a.val)
        deriv = 1.0 - val * val
        # d(1 - y^2)/deps = -2 y y_dot, with y_dot = deriv * t the output tangent.
        return self._elementwise(a, val, deriv, lambda t: -2.0 * val * (deriv * t))

    # -- shape and reduction -------------------------------------------------

    def index(self, a: Node, key: int | slice) -> Node:
        """``a[key]`` of a flat vector: a scalar node for an int ``key``, a
        vector for a slice ``start:stop``. Either must lie inside ``a``."""
        if a.val.ndim != 1:
            raise ValueError("index expects a flat vector")
        n = a.val.shape[0]
        if isinstance(key, slice):
            inside = key.step is None and 0 <= key.start <= key.stop <= n
        else:
            inside = 0 <= key < n
        if not inside:
            raise ValueError(f"index {key!r} outside a vector of length {n}")

        def scatter(ct):
            z = np.zeros(n, dtype=np.float64)
            z[key] = ct
            return z

        return self._linear(a, lambda x: x[key], scatter)

    def sum(self, a: Node) -> Node:
        shape = a.val.shape
        return self._linear(a, lambda x: x.sum(), lambda ct: np.full(shape, ct, dtype=np.float64))

    # -- fused loss ----------------------------------------------------------

    def softmax_xent(self, logits: Node, labels: Array) -> Node:
        """Mean softmax cross-entropy against integer class labels (:func:`mean_xent`).

        Fused so the backward rule can propagate the softmax tangent
        exactly. The gradient takes the softmax as ``exp(z - lse)``, the GGN
        factor as ``e / s``: the two round differently, and records hold both.
        """
        z = logits.val
        val, e, s, lse = mean_xent(z, labels)
        n = z.shape[0]
        probs = np.exp(z - lse[:, None])
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n  # dL/dlogits

        out = self._node(val, logits)
        out._jvp = lambda: None if logits.tan is None else np.float64((grad * logits.tan).sum())

        def bwd(ct, acc, use_tangents):
            cv, ctn = ct
            gv = cv * grad
            gt = None
            if use_tangents:
                zt = logits.tan
                if ctn is not None:
                    gt = ctn * grad
                if zt is not None:
                    gt = _tadd(gt, cv * _softmax_hvp(probs, zt, n))
            acc(logits, (gv, gt))

        out._bwd = bwd
        out.ggn = lambda t: _softmax_hvp(e / s[:, None], t, n)
        return out

    def mse(self, outputs: Node, targets: Array) -> Node:
        """Mean squared error ``sum((outputs - targets)²) / N`` over N rows.

        Fused, with the same arithmetic as the chain of ``sub``, ``square``,
        ``sum`` and ``scale`` it stands for, so its bits match that chain's.
        """
        targets = mse_targets(outputs.val, targets)
        n = targets.shape[0]
        c = 1.0 / n
        diff = outputs.val - targets
        deriv = 2.0 * diff
        out = self._node(c * (diff * diff).sum(), outputs)
        out._jvp = lambda: None if outputs.tan is None else c * (deriv * outputs.tan).sum()

        def bwd(ct, acc, use_tangents):
            cv, ctn = ct
            gt = None if ctn is None else (c * ctn) * deriv
            if use_tangents and outputs.tan is not None:
                gt = _tadd(gt, (c * cv) * (2.0 * outputs.tan))
            acc(outputs, ((c * cv) * deriv, gt))

        out._bwd = bwd
        out.ggn = lambda t: (2.0 / n) * t
        return out

    # -- tangent replay --------------------------------------------------------

    def replay_tangent(self, leaf: Node, tangent: Array) -> None:
        """Set every node's tangent to its derivative along ``tangent`` at ``leaf``.

        Every other leaf has a zero tangent. Each replay overwrites every
        tangent the previous one set, so one recorded tape serves any
        number of directions in turn.
        """
        tangent = np.asarray(tangent, dtype=np.float64)
        if tangent.shape != leaf.val.shape:
            raise ValueError("tangent shape must match input shape")
        for node in self._nodes:
            if node is leaf:
                node.tan = tangent
            else:
                node.tan = None if node._jvp is None else node._jvp()

    # -- reverse sweep ---------------------------------------------------------

    def backward(self, root: Node, seed: Pair, wrt: Node, use_tangents: bool) -> Pair:
        """The cotangent pair at ``wrt`` of ``root`` seeded with ``seed``.

        With ``use_tangents`` the sweep carries the tangent of every
        cotangent along, using the node tangents of the latest
        :meth:`replay_tangent`; that turns the sweep into a
        curvature-vector product. Without it the sweep is a plain VJP at
        the primal point. Cotangents of nodes that are not live are
        dropped, and a ``wrt`` that receives none gets zeros.
        """
        cts: dict[int, Pair] = {root._idx: seed}

        def acc(node: Node, pair: Pair) -> None:
            if not node.live:
                return
            prev = cts.get(node._idx)
            cts[node._idx] = pair if prev is None else p_add(prev, pair)

        for node in reversed(self._nodes[: root._idx + 1]):
            if node._bwd is None:
                continue  # leaves keep their accumulated cotangents
            ct = cts.pop(node._idx, None)
            if ct is None:
                continue
            node._bwd(ct, acc, use_tangents)

        ct = cts.get(wrt._idx)
        return (np.zeros_like(wrt.val), None) if ct is None else ct
