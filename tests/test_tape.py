"""Each tape op's JVP and backward rules against central differences, and the
bits of the matrix products the tape forms, whole or split in halves."""

import sys
import threading

import numpy as np
import pytest

from adamqlr import tape
from adamqlr.tape import Tape

from helpers import softmax_rows

N = 12
H = 1e-5
SEED = (np.float64(1.0), None)
LABELS = np.array([2, 0, 1, 1])


# Constant left factors: (4, 3) for an input layer wider in than out, (4, 2)
# and (3, 2) for narrower ones, and MSE targets for the whole leaf.
X43, X42, X32 = (np.random.default_rng(1).normal(size=s) for s in ((4, 3), (4, 2), (3, 2)))
TARGETS = np.linspace(-1.0, 1.0, N)


# Each case maps (tape, input leaf of length N) to one op's output. Two-operand
# ops read disjoint parts of the leaf, so both operands are live. An affine
# node reads its weight and bias off the leaf; it is also how a case gets a
# live matrix.
OPS = {
    "add": lambda t, x: t.add(t.index(x, slice(0, 6)), t.index(x, slice(6, 12))),
    "sub": lambda t, x: t.sub(t.index(x, slice(0, 6)), t.index(x, slice(6, 12))),
    "mul": lambda t, x: t.mul(t.index(x, slice(0, 6)), t.index(x, slice(6, 12))),
    "scale": lambda t, x: t.scale(x, -1.7),
    "square": lambda t, x: t.square(x),
    "matmul": lambda t, x: t.matmul(
        t.affine(t.const(X32), x, 0, 6, 2, 3), t.affine(t.const(X32), x, 9, 11, 2, 1)
    ),
    "affine_input": lambda t, x: t.affine(t.const(X43), x, 0, 6, 3, 2),
    "affine_hidden": lambda t, x: t.affine(t.affine(t.const(X32), x, 0, 4, 2, 2), x, 6, 10, 2, 2),
    "relu": lambda t, x: t.relu(x),
    "tanh": lambda t, x: t.tanh(x),
    "index_range": lambda t, x: t.index(x, slice(2, 9)),
    "index_scalar": lambda t, x: t.index(x, 4),
    "sum": lambda t, x: t.sum(x),
    "softmax_xent": lambda t, x: t.softmax_xent(t.affine(t.const(X42), x, 0, 6, 2, 3), LABELS),
    "mse": lambda t, x: t.mse(x, TARGETS),
}


def _record(op, x, w, c):
    """Tape, leaf and scalar loss ``sum(w * out * (out + c))`` of one case at ``x``.

    The loss is quadratic in the output, so the cotangent that reaches the
    op carries a tangent and the tangent-carrying sweep checks how every
    op, linear ones included, transposes it. Its linear part keeps the
    op's output tangent from being multiplied away where the output is 0.
    """
    t = Tape()
    leaf = t.input(x)
    out = OPS[op](t, leaf)
    return t, leaf, t.sum(t.mul(t.mul(out, t.const(w)), t.add(out, t.const(c))))


def _central(fn, x, d):
    return (fn(x + H * d) - fn(x - H * d)) / (2.0 * H)


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_rules_match_central_differences(op):
    rng = np.random.default_rng(0)
    x = rng.choice([-1.0, 1.0], N) * rng.uniform(0.3, 1.5, N)  # relu inputs stay away from 0
    v = rng.normal(size=N)
    t = Tape()
    w, c = rng.normal(size=(2, *np.shape(OPS[op](t, t.input(x)).val)))

    def value(p):
        return float(_record(op, p, w, c)[2].val)

    def grad(p):
        tape, leaf, loss = _record(op, p, w, c)
        return tape.backward(loss, SEED, leaf, use_tangents=False)[0]

    tape, leaf, loss = _record(op, x, w, c)
    g = grad(x)
    fd = np.array([_central(value, x, e) for e in np.eye(N)])
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    tape.replay_tangent(leaf, v)
    np.testing.assert_allclose(loss.tan, _central(value, x, v), rtol=1e-6, atol=1e-8)

    gv, hv = tape.backward(loss, SEED, leaf, use_tangents=True)
    np.testing.assert_array_equal(gv, g)
    np.testing.assert_allclose(hv, _central(grad, x, v), rtol=1e-6, atol=1e-8)


def test_mse_has_the_bits_of_the_chain_it_fuses():
    # Training records are pinned bit for bit, so the fused node keeps the
    # arithmetic of sub, square, sum and scale exactly. Squaring the loss
    # sends it a cotangent with a tangent.
    rng = np.random.default_rng(2)
    x, v, targets = rng.normal(size=(3, N))
    got = []
    for fused in (True, False):
        t = Tape()
        leaf = t.input(x)
        if fused:
            loss = t.mse(leaf, targets)
        else:
            loss = t.scale(t.sum(t.square(t.sub(leaf, t.const(targets)))), 1.0 / N)
        root = t.mul(loss, loss)
        g = t.backward(root, SEED, leaf, use_tangents=False)[0]
        t.replay_tangent(leaf, v)
        got.append([loss.val, loss.tan, g, *t.backward(root, SEED, leaf, use_tangents=True)])
    for fused, chain in zip(*got):
        np.testing.assert_array_equal(fused, chain)


def test_ggn_factors_have_the_bits_of_the_closed_forms():
    # Records were made with the cross-entropy factor's softmax taken as the
    # max-shifted exponentials over their row sums; the node's exp(z - lse)
    # rounds differently at these logits.
    rng = np.random.default_rng(4)
    n, k = 64, 10
    z, t_z = rng.normal(scale=3.0, size=(2, n, k))
    y, targets, t_y = rng.normal(size=(3, n, 2))
    t = Tape()
    p = softmax_rows(z)
    pz = p * t_z
    want = (pz - p * pz.sum(1, keepdims=True)) / n
    np.testing.assert_array_equal(t.softmax_xent(t.input(z), rng.integers(0, k, n)).ggn(t_z), want)
    np.testing.assert_array_equal(t.mse(t.input(y), targets).ggn(t_y), (2.0 / n) * t_y)


def test_an_int_index_gives_a_scalar_node_and_a_range_a_vector():
    t = Tape()
    x = t.input(np.arange(N, dtype=np.float64))
    scalar, vector = t.index(x, 4), t.index(x, slice(4, 5))
    assert np.ndim(scalar.val) == 0 and scalar.val == 4.0
    assert vector.val.shape == (1,) and vector.val[0] == 4.0


@pytest.mark.parametrize(
    "op",
    [
        lambda t, x: t.affine(t.const(X43), x, 0, 5, 3, 2),  # W is not (din, dout)
        lambda t, x: t.affine(t.const(X42), x, 6, 12, 2, 3),  # b runs past the leaf
        lambda t, x: t.affine(t.const(X43), x, 0, 6, 2, 3),  # the data matrix is 3 wide
        lambda t, x: t.mse(x, TARGETS[:6]),
        # A live matrix times a vector: its cotangent rule needs a matrix.
        lambda t, x: t.matmul(t.affine(t.const(X32), x, 0, 6, 2, 3), t.index(x, slice(9, 12))),
        lambda t, x: t.index(x, N),
        lambda t, x: t.index(x, -1),
        lambda t, x: t.index(x, slice(6, N + 1)),
        lambda t, x: t.index(x, slice(0, N, 2)),
        lambda t, x: t.index(t.index(x, 0), 0),  # a scalar is not a vector
        lambda t, x: t.index(t.affine(t.const(X32), x, 0, 6, 2, 3), 0),
    ],
)
def test_misshaped_operands_are_refused(op):
    t = Tape()
    with pytest.raises(ValueError):
        op(t, t.input(np.zeros(N)))


# MLP layers at the benchmark workloads' shapes: (rows, fan-in, fan-out,
# whether the left factor is live). An input layer's data matrix is a constant.
WORKLOAD_LAYERS = [
    (3200, 784, 50, False), (554, 8, 50, False), (3200, 50, 10, True), (554, 50, 1, True),
]


def _weight_cotangents(n, d, k, live_left):
    """Weight cotangents of ``sum((A W)^2)`` from both sweeps, and ``Aᵀ·ct`` oracles.

    The layer's bias is zero with a zero tangent, so it adds no rounding. A
    live left factor ``A`` is an input layer of its own, over a random (n, d)
    data matrix.
    """
    rng = np.random.default_rng(n + d + k)
    w, wt = rng.normal(size=(2, d, k))
    layer, layer_tan = [w.ravel(), np.zeros(k)], [wt.ravel(), np.zeros(k)]
    t = Tape()
    if live_left:
        x, (w0, w0t) = rng.normal(size=(n, d)), rng.normal(size=(2, d, d))
        leaf = t.input(np.concatenate([w0.ravel(), np.zeros(d), *layer]))
        left = t.affine(t.const(x), leaf, 0, d * d, d, d)
        v = np.concatenate([w0t.ravel(), np.zeros(d), *layer_tan])
    else:
        leaf = t.input(np.concatenate(layer))
        left = t.const(rng.normal(size=(n, d)))
        v = np.concatenate(layer_tan)
    w_at = leaf.val.size - d * k - k
    loss = t.sum(t.square(t.affine(left, leaf, w_at, w_at + d * k, d, k)))
    g = t.backward(loss, SEED, leaf, use_tangents=False)[0]
    t.replay_tangent(leaf, v)
    gv, hv = t.backward(loss, SEED, leaf, use_tangents=True)
    got = [x[w_at : w_at + d * k].reshape(d, k) for x in (g, gv, hv)]

    a = left.val
    ct = 2.0 * (a @ w)
    if live_left:
        at = left.tan
        ct_tan = 2.0 * (at @ w + a @ wt)
        want_tan = a.T @ ct_tan + at.T @ ct
    else:
        ct_tan = 2.0 * (a @ wt)
        want_tan = a.T @ ct_tan
    return got, [a.T @ ct, a.T @ ct, want_tan]


@pytest.mark.parametrize("n, d, k, live_left", WORKLOAD_LAYERS)
def test_weight_cotangent_is_bitwise_at_workload_shapes(n, d, k, live_left):
    # The rule forms Aᵀ·ct as (ctᵀ·A)ᵀ; at these shapes that changes no bit.
    for got, want in zip(*_weight_cotangents(n, d, k, live_left)):
        np.testing.assert_array_equal(got, want)


def test_weight_cotangent_differs_at_most_by_rounding_elsewhere():
    # Single-threaded OpenBLAS rounds this shape differently in either orientation.
    for got, want in zip(*_weight_cotangents(1000, 300, 17, True)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


# Input layers at the workloads' batch and split sizes: fmnist's 3200- and
# 1600-row batches and 4800- and 600-row splits, energy's 554-row batch and
# 69-row splits.
INPUT_LAYERS = [
    (3200, 784, 50), (1600, 784, 50), (4800, 784, 50), (600, 784, 50), (554, 8, 50), (69, 8, 50),
]


@pytest.mark.parametrize("n, d, k", INPUT_LAYERS)
def test_data_product_is_bitwise_and_c_ordered_at_workload_shapes(n, d, k):
    _check_data_product(n, d, k)


def _check_data_product(n, d, k):
    # The rule takes X·W as (Wᵀ·Xᵀ)ᵀ when d > k. It must come back in C order:
    # left F-ordered, the products and sums downstream round differently, and
    # training records move (fmnist rho by up to 2e-13 relative, energy's
    # losses by up to 3% by step 400).
    rng = np.random.default_rng(n + d + k)
    x = rng.normal(size=(n, d))
    w, wt = rng.normal(size=(2, d, k))
    t = Tape()
    leaf = t.input(np.concatenate([w.ravel(), np.zeros(k)]))
    node = t.affine(t.const(x), leaf, 0, d * k, d, k)
    t.replay_tangent(leaf, np.concatenate([wt.ravel(), np.zeros(k)]))
    for got, want in ((node.val, x @ w), (node.tan, x @ wt)):
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous


def _matmul_workers():
    return {t for t in threading.enumerate() if t.name.startswith("adamqlr-matmul")}


# fmnist's batch and split row counts: at each, the 784-50 input layer's
# data product, its tangent and its weight cotangent reach SPLIT_MADDS.
SPLIT_ROWS = (3200, 1600, 4800, 600)


@pytest.mark.parametrize("n", SPLIT_ROWS)
def test_split_products_are_bitwise_at_workload_shapes(halves, n):
    before = _matmul_workers()
    rng = np.random.default_rng(n)
    x, ct = rng.normal(size=(n, 784)), rng.normal(size=(n, 50))
    w, wt = rng.normal(size=(2, 784, 50))
    # The data product and its tangent as (Wᵀ·Xᵀ), the weight cotangent as
    # ctᵀ·X (both cut across columns), and X·W cut across rows.
    for a, b in ((w.T, x.T), (wt.T, x.T), (ct.T, x), (x, w)):
        assert a.size * b.shape[1] >= tape.SPLIT_MADDS
        got = tape.matmul(a, b)
        np.testing.assert_array_equal(got, a @ b)
        assert got.flags.c_contiguous
    # The same products as the tape forms them, C order included.
    for got, want in zip(*_weight_cotangents(n, 784, 50, False)):
        np.testing.assert_array_equal(got, want)
    _check_data_product(n, 784, 50)
    assert len(_matmul_workers() - before) == 1


def test_products_below_the_threshold_run_whole(halves):
    # energy's input layer and fmnist's output layer stay on `x @ y`.
    before = _matmul_workers()
    rng = np.random.default_rng(0)
    for a, b in ((rng.normal(size=(554, 8)), rng.normal(size=(8, 50))),
                 (rng.normal(size=(3200, 50)), rng.normal(size=(50, 10)))):
        assert a.size * b.shape[1] < tape.SPLIT_MADDS
        np.testing.assert_array_equal(tape.matmul(a, b), a @ b)
    assert _matmul_workers() == before


@pytest.mark.parametrize(
    "env, single",
    [({}, False), ({"OPENBLAS_NUM_THREADS": "1"}, True), ({"OMP_NUM_THREADS": "1"}, True),
     ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
     ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
     ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"}, False)],
)
def test_blas_threads_read_as_openblas_reads_them(monkeypatch, env, single):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert tape._blas_single_threaded() is single


def test_split_is_decided_on_the_first_large_product(monkeypatch):
    monkeypatch.setattr(tape, "_blas_single_threaded", lambda: True)
    monkeypatch.setattr(tape, "_n_cpus", lambda: 1)
    before, worker = _matmul_workers(), tape.HalfWorker()
    monkeypatch.setattr(tape, "HALVES", worker)
    tape.matmul(np.ones((554, 8)), np.ones((8, 50)))
    assert worker.split is None
    tape.matmul(np.ones((300, 784)), np.ones((784, 50)))
    # One CPU: a split would only add a thread switch.
    assert worker.split is False and _matmul_workers() == before


def test_worker_error_reaches_the_caller(halves, monkeypatch):
    before, matmul = _matmul_workers(), np.matmul

    def fails_on_the_worker(*args, **kwargs):
        if threading.current_thread().name.startswith("adamqlr-matmul"):
            raise MemoryError("worker half")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", fails_on_the_worker)
    x = np.ones((600, 784))
    with pytest.raises(MemoryError, match="worker half"):
        tape.matmul(x, np.ones((784, 50)))
    # The worker survives its error and serves the next product.
    monkeypatch.setattr(np, "matmul", matmul)
    np.testing.assert_array_equal(tape.matmul(x, np.ones((784, 50))), np.full((600, 50), 784.0))
    assert len(_matmul_workers() - before) == 1


def test_concurrent_callers_share_one_worker(halves):
    # More calling threads than cores, switching as often as the interpreter
    # allows: every product keeps its bits, and the worker is started once.
    before, results, errors = _matmul_workers(), [], []
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(600, 784)), rng.normal(size=(784, 50))
    want = x @ w

    def call():
        try:
            results.extend(np.array_equal(tape.matmul(x, w), want) for _ in range(3))
        except Exception as e:  # reported below, not lost with the thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and results == [True] * 12
    assert len(_matmul_workers() - before) == 1
