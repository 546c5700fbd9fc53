"""Model specs, initialization, losses and the benchmark function."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamqlr import (
    Activation,
    Batch,
    LossKind,
    MlpSpec,
    ParamVector,
    RosenbrockSpec,
    eval_grad,
    eval_loss,
    mlp_init,
    mlp_objective,
    rosenbrock_objective,
)
from adamqlr.autodiff import loss_eval
from adamqlr.models import accuracy
from adamqlr.tape import Tape


class TestMlpSpec:
    def test_needs_two_widths(self):
        with pytest.raises(ValueError):
            MlpSpec((5,), LossKind.MSE)

    def test_positive_widths(self):
        with pytest.raises(ValueError):
            MlpSpec((5, 0, 2), LossKind.MSE)

    def test_default_activation_by_loss(self):
        assert MlpSpec((2, 3, 1), LossKind.MSE).hidden_activation is Activation.TANH
        assert (
            MlpSpec((2, 3, 2), LossKind.SOFTMAX_CROSS_ENTROPY).hidden_activation
            is Activation.RELU
        )
        assert (
            MlpSpec((2, 3, 1), LossKind.MSE, Activation.RELU).hidden_activation
            is Activation.RELU
        )


class TestMlpInit:
    def test_parameter_count(self):
        assert len(mlp_init(MlpSpec((8, 50, 1), LossKind.MSE), 0)) == 501

    def test_deterministic_in_seed(self):
        spec = MlpSpec((4, 7, 3), LossKind.SOFTMAX_CROSS_ENTROPY)
        a = mlp_init(spec, 123)
        b = mlp_init(spec, 123)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.all(np.isfinite(a.values))
        assert not np.array_equal(a.values, mlp_init(spec, 124).values)

    def test_biases_zero(self):
        spec = MlpSpec((4, 7, 3), LossKind.MSE)
        pv = mlp_init(spec, 5)
        # layout: 4x7 weights, 7 biases, 7x3 weights, 3 biases
        np.testing.assert_array_equal(pv.values[28:35], np.zeros(7))
        np.testing.assert_array_equal(pv.values[56:], np.zeros(3))

    def test_weight_distribution_bounds(self):
        # aggregate 1e4 draws per layer: max |w| <= s, mean within 3 sigma of 0
        spec = MlpSpec((10, 20, 4), LossKind.MSE)
        draws = 25  # 25 seeds x (200, 80) weights >= 1e4 samples overall
        per_layer = {0: [], 1: []}
        for seed in range(draws):
            pv = mlp_init(spec, seed)
            per_layer[0].append(pv.values[:200])  # 10x20 weights, then 20 biases
            per_layer[1].append(pv.values[220:300])  # 20x4 weights, then 4 biases
        for i, (din, dout) in enumerate([(10, 20), (20, 4)]):
            w = np.concatenate(per_layer[i])
            s = np.sqrt(6.0 / (din + dout))
            assert np.max(np.abs(w)) <= s
            sigma_mean = (s / np.sqrt(3.0)) / np.sqrt(w.size)
            assert abs(w.mean()) <= 3.0 * sigma_mean

    def test_parameter_layout(self):
        # row-major 2x3 weight, 3 biases, then the 3x1 weight and its bias
        spec = MlpSpec((2, 3, 1), LossKind.MSE, Activation.RELU)
        w0 = np.array([[1.0, -2.0, 0.5], [3.0, 1.0, -1.0]])
        b0 = np.array([0.1, 0.2, -0.3])
        w1 = np.array([[2.0], [-1.0], [4.0]])
        b1 = np.array([0.7])
        values = np.concatenate([w0.ravel(), b0, w1.ravel(), b1])
        x = np.array([[1.0, 2.0], [-0.5, 0.25]])
        want = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        obj = mlp_objective(spec)
        np.testing.assert_array_equal(obj.predict(values, x), want)
        assert obj.n_params == len(mlp_init(spec, 0)) == 13


class TestRosenbrock:
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (1.0, -1.0, "b must be finite and positive"),
            (1.0, 0.0, "b must be finite and positive"),
            (1.0, float("nan"), "b must be finite and positive"),
            (1.0, float("inf"), "b must be finite and positive"),
            (float("nan"), 100.0, "a must be finite"),
            (float("inf"), 100.0, "a must be finite"),
            (float("-inf"), 100.0, "a must be finite"),
        ],
    )
    def test_spec_validation(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            RosenbrockSpec(a, b)

    def test_values(self):
        obj = rosenbrock_objective()
        assert obj.value(np.array([1.0, 1.0]), None) == 0.0
        assert obj.value(np.array([0.0, 0.0]), None) == 1.0

    @pytest.mark.parametrize("a", [1.0, 0.0])
    def test_value_has_the_bits_of_the_traced_node(self, a):
        # A qlr step's rho takes f before the step off the node and f after
        # it off the value, so the two must round alike. At this x, x ** 2
        # and x * x differ by one ulp; with a = 0 it is also -d1.
        tie = 1.7995453029870987
        obj = rosenbrock_objective(RosenbrockSpec(a=a))
        rng = np.random.default_rng(7)
        for values in [*rng.uniform(-3.0, 3.0, size=(2000, 2)), np.array([tie, 0.5])]:
            t = Tape()
            node = obj.trace(t, t.input(values), None)[1]
            assert np.float64(obj.value(values, None)).tobytes() == node.val.tobytes()

    def test_gradient_at_1_minus1(self):
        obj = rosenbrock_objective()
        _, g = eval_grad(obj, ParamVector(np.array([1.0, -1.0])), None)
        np.testing.assert_allclose(g.values, [800.0, -400.0], rtol=1e-13)

    def test_unique_stationary_point_in_box(self):
        obj = rosenbrock_objective()
        spec = RosenbrockSpec()
        xs = np.linspace(-2, 2, 41)
        for x in xs:
            for y in xs:
                p = ParamVector(np.array([x, y]))
                _, g = eval_grad(obj, p, None)
                norm = np.linalg.norm(g.values)
                if np.hypot(x - spec.a, y - spec.a**2) > 0.05:
                    assert norm > 1e-6, (x, y)
        _, g = eval_grad(obj, ParamVector(np.array([spec.a, spec.a**2])), None)
        assert np.linalg.norm(g.values) == 0.0


class TestLossEval:
    def test_mse_zero_at_match(self):
        out = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert loss_eval(LossKind.MSE, out, out) == 0.0

    def test_cross_entropy_uniform(self):
        got = loss_eval(LossKind.SOFTMAX_CROSS_ENTROPY, np.zeros((1, 2)), np.array([0]))
        assert got == pytest.approx(np.log(2.0), rel=1e-12)

    def test_mse_arithmetic(self):
        got = loss_eval(LossKind.MSE, np.array([[3.0], [-1.0]]), np.array([[0.0], [1.0]]))
        assert got == 6.5

    @pytest.mark.parametrize(
        "kind, outputs, targets, match",
        [
            (LossKind.SOFTMAX_CROSS_ENTROPY, np.zeros((2, 3)), np.array([0, 3]), "out of range"),
            (LossKind.SOFTMAX_CROSS_ENTROPY, np.zeros((2, 3)), np.array([0.0, 1.0]), "integer"),
            (LossKind.MSE, np.zeros((2, 1)), np.zeros(2), "shape mismatch"),
        ],
        ids=["label-out-of-range", "non-integer-labels", "1d-mse-targets"],
    )
    def test_bad_targets_raise_as_the_loss_node_does(self, kind, outputs, targets, match):
        with pytest.raises(ValueError, match=match) as from_eval:
            loss_eval(kind, outputs, targets)
        t = Tape()
        loss_node = t.softmax_xent if kind is LossKind.SOFTMAX_CROSS_ENTROPY else t.mse
        with pytest.raises(ValueError) as from_node:
            loss_node(t.input(outputs), targets)
        assert str(from_node.value) == str(from_eval.value)

    def test_cross_entropy_large_logits_stable(self):
        got = loss_eval(
            LossKind.SOFTMAX_CROSS_ENTROPY,
            np.array([[1e4, 0.0, -1e4]]),
            np.array([0]),
        )
        assert np.isfinite(got) and got >= 0.0

    @given(st.floats(-1e3, 1e3))
    def test_cross_entropy_shift_invariance(self, shift):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        base = loss_eval(LossKind.SOFTMAX_CROSS_ENTROPY, logits, labels)
        shifted = loss_eval(LossKind.SOFTMAX_CROSS_ENTROPY, logits + shift, labels)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 1000))
    def test_losses_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        out = rng.normal(size=(4, 3))
        assert loss_eval(LossKind.MSE, out, rng.normal(size=(4, 3))) >= 0.0
        assert loss_eval(LossKind.SOFTMAX_CROSS_ENTROPY, out, rng.integers(0, 3, size=4)) >= 0.0


class TestObjectivePaths:
    """The tape-free loss path and the taped path must agree."""

    @pytest.mark.parametrize(
        "widths,loss",
        [
            ((3, 5, 2), LossKind.MSE),
            ((3, 5, 5, 2), LossKind.SOFTMAX_CROSS_ENTROPY),
            ((4, 2), LossKind.MSE),
        ],
    )
    def test_value_equals_traced_loss(self, widths, loss):
        spec = MlpSpec(widths, loss)
        obj = mlp_objective(spec)
        params = mlp_init(spec, 0)
        rng = np.random.default_rng(3)
        if loss is LossKind.MSE:
            batch = Batch(rng.normal(size=(6, widths[0])), rng.normal(size=(6, widths[-1])))
        else:
            batch = Batch(rng.normal(size=(6, widths[0])), rng.integers(0, widths[-1], size=6))
        loss_a = eval_loss(obj, params, batch)
        loss_b, _ = eval_grad(obj, params, batch)
        assert loss_a == pytest.approx(loss_b, rel=1e-14)

    @pytest.mark.parametrize(
        "n, d", [(3200, 784), (1600, 784), (4800, 784), (600, 784), (554, 8), (69, 8)]
    )
    def test_input_layer_is_bitwise_and_c_ordered_at_workload_shapes(self, n, d):
        # One linear layer, so the outputs are the input layer's pre-activation.
        # It must be X·W + b to the bit and in C order: left F-ordered, the
        # layers above round differently and training records move.
        spec = MlpSpec((d, 50), LossKind.MSE)
        rng = np.random.default_rng(n + d)
        x, values = rng.normal(size=(n, d)), rng.normal(size=d * 50 + 50)
        got = mlp_objective(spec).predict(values, x)
        np.testing.assert_array_equal(got, x @ values[: d * 50].reshape(d, 50) + values[d * 50 :])
        assert got.flags.c_contiguous

    def test_predict_splits_a_large_hidden_product(self, halves, monkeypatch):
        # 1100 x 64 x 128 multiply-adds in the hidden layer pass tape.SPLIT_MADDS;
        # the input layer's 1100 x 4 x 64 do not.
        spec = MlpSpec((4, 64, 128), LossKind.MSE)
        rng = np.random.default_rng(5)
        batch = Batch(rng.normal(size=(1100, 4)), rng.normal(size=(1100, 128)))
        obj, params = mlp_objective(spec), mlp_init(spec, 0)
        split, whole = [], halves.matmul

        def counted(x, y):
            split.append(x.shape)
            return whole(x, y)

        monkeypatch.setattr(halves, "matmul", counted)
        got = obj.predict(params.values, batch.inputs)
        assert split == [(1100, 64)]
        t = Tape()
        outputs, _, _ = obj.trace(t, t.input(params.values), batch)
        np.testing.assert_array_equal(got, outputs.val)

    def test_accuracy(self):
        outputs = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1, 1])
        assert accuracy(outputs, labels) == 0.75
