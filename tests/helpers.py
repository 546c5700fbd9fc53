"""Independent oracles used across the suite.

Everything here recomputes expected values through a different code path
than the functions under test: golden-section line search, dense
Kronecker-assembled curvature matrices, `explicit_matrix` (any
objective's curvature densified one product per unit vector), closed-form
least squares, and a hand-rolled bootstrap enumeration.
`quadratic_objective` is the one objective whose curvature and quadratic
model are exact by construction; `rosenbrock_slice_objective` traces
Rosenbrock on vector slices. Both record the generic ops of `oracle_ops`.
`run_with_records` keeps every record of a training run, which the run's
result does not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from adamqlr.autodiff import CurvatureKind, Objective, linearize
from adamqlr.bench.training import start_training
from adamqlr.models import RosenbrockSpec
from adamqlr.params import ParamVector
from adamqlr.tape import Node, Tape

import oracle_ops as ops

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo: float, hi: float, tol: float = 1e-12, max_iter: int
= 300) -> float:
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def quadratic_objective(a_matrix: np.ndarray, b: Optional[np.ndarray] = None) -> Objective:
    """f(theta) = 1/2 theta^T A theta + b^T theta; verification workhorse.

    With symmetric A the Hessian is exactly A, the quadratic model is
    exact, and line-search / damping behavior has closed forms.
    """
    a_matrix = np.asarray(a_matrix, dtype=np.float64)
    n = a_matrix.shape[0]
    if a_matrix.shape != (n, n):
        raise ValueError("A must be square")

    def trace(tape: Tape, theta: Node, batch):
        q = ops.matmul(tape, tape.const(a_matrix), theta)
        f = ops.scale(tape, ops.sum(tape, ops.mul(tape, theta, q)), 0.5)
        if b is not None:
            f = ops.add(tape, f, ops.sum(tape, ops.mul(tape, theta, tape.const(b))))
        return None, f, None

    def value(values: np.ndarray, batch) -> float:
        out = 0.5 * values @ a_matrix @ values
        if b is not None:
            out += b @ values
        return float(out)

    return Objective(name="quadratic", n_params=n, trace=trace, value=value)


def rosenbrock_slice_objective(spec: RosenbrockSpec = RosenbrockSpec()) -> Objective:
    """f(x, y) = (a - x)^2 + b (y - x^2)^2 traced on 1-element slices of theta.

    The oracle for the scalar-node trace of `models.rosenbrock_objective`:
    every node here holds a 1-element vector, summed to the scalar loss at
    the end, so the two traces must give the same bits.
    """
    a, b = spec.a, spec.b

    def trace(tape: Tape, theta: Node, batch):
        x = ops.index(tape, theta, slice(0, 1))
        y = ops.index(tape, theta, slice(1, 2))
        f = ops.add(
            tape,
            ops.square(tape, ops.sub(tape, tape.const(a), x)),
            ops.scale(tape, ops.square(tape, ops.sub(tape, y, ops.square(tape, x))), float(b)),
        )
        return None, ops.sum(tape, f), None

    def value(values: np.ndarray, batch) -> float:
        x, y = values
        return float((a - x) ** 2 + b * (y - x * x) ** 2)

    return Objective(name="rosenbrock-slices", n_params=2, trace=trace, value=value)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def linear_model_jacobian(x_row: np.ndarray, n_out: int) -> np.ndarray:
    """Per-example Jacobian of z = x W + b w.r.t. flat (W row-major, b)."""
    jw = np.kron(x_row[None, :], np.eye(n_out))  # (n_out, d*n_out)
    return np.hstack([jw, np.eye(n_out)])


def dense_linear_softmax_fisher(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/N) sum_i J_i^T (diag(p_i) - p_i p_i^T) J_i for a linear-softmax model."""
    n, _ = x.shape
    k = w.shape[1]
    probs = softmax_rows(x @ w + b)
    dim = w.size + k
    out = np.zeros((dim, dim))
    for i in range(n):
        j = linear_model_jacobian(x[i], k)
        h = np.diag(probs[i]) - np.outer(probs[i], probs[i])
        out += j.T @ h @ j
    return out / n


def dense_linear_mse_ggn(x: np.ndarray, n_out: int) -> np.ndarray:
    """(2/N) sum_i J_i^T J_i for a linear model under mean-reduced MSE."""
    n = x.shape[0]
    dim = x.shape[1] * n_out + n_out
    out = np.zeros((dim, dim))
    for i in range(n):
        j = linear_model_jacobian(x[i], n_out)
        out += j.T @ j
    return 2.0 * out / n


def explicit_matrix(obj: Objective, params: ParamVector, batch, kind: CurvatureKind) -> np.ndarray:
    """Dense curvature matrix, one product with each unit vector on one
    linearization, symmetrized by averaging with its transpose."""
    lin = linearize(obj, params, batch)
    n = len(params)
    cols = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols[:, i] = lin.curvature_vp(params.with_values(e), kind).values
    return 0.5 * (cols + cols.T)


def least_squares_mse(x: np.ndarray, y: np.ndarray) -> float:
    """Optimal mean-reduced MSE of an affine model, by closed form."""
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(xa, y, rcond=None)
    resid = xa @ coef - y
    return float((resid * resid).sum() / x.shape[0])


def brute_force_bootstrap(runs, n_boot: int, seed: int):
    """Re-enumerate the documented resampling stream with plain Python.

    Mirrors the stream contract (one default_rng(seed); per bootstrap,
    len(runs) indices via integers(0, n_runs, size=n_runs)) but computes
    medians, mean and std by hand.
    """
    rng = np.random.default_rng(seed)
    n_runs = len(runs)
    length = min(len(r) for r in runs)
    medians = []
    for _ in range(n_boot):
        idx = [int(i) for i in rng.integers(0, n_runs, size=n_runs)]
        med = []
        for t in range(length):
            col = sorted(float(runs[i][t]) for i in idx)
            mid = len(col) // 2
            med.append(col[mid] if len(col) % 2 == 1 else 0.5 * (col[mid - 1] + col[mid]))
        medians.append(med)
    mean = [sum(m[t] for m in medians) / n_boot for t in range(length)]
    var = [sum((m[t] - mean[t]) ** 2 for m in medians) / n_boot for t in range(length)]
    return np.array(mean), np.sqrt(np.array(var))


def run_with_records(cfg):
    """A finished run's result and every record it yielded, drawn from `start_training`."""
    result, records = start_training(cfg)
    return result, list(records)
