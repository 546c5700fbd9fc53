"""Adam, SGD and the damped quadratic-model learning-rate wrapper."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamqlr import (
    Activation,
    AdamHyper,
    AdamState,
    Batch,
    CurvatureKind,
    Direction,
    GuardEvent,
    LossKind,
    MlpSpec,
    NonFiniteError,
    ParamVector,
    QLRConfig,
    QLRState,
    adam_direction,
    mlp_init,
    mlp_objective,
    qlr_step,
    rosenbrock_objective,
    sgd_step,
)
from adamqlr import autodiff, tape
from adamqlr.optim import (
    LAMBDA_MAX,
    LAMBDA_MIN,
    DegenerateModelChange,
    NonConvexDirection,
    NonDescentDirection,
    apply_lr_policy,
    bias_corrected_v,
    compute_rho,
    empirical_fisher_diag,
    fisher_adam_alignment,
    quadratic_model_change,
    select_learning_rate,
    update_damping,
)

from helpers import golden_section, quadratic_objective

A_DIAG = np.diag([2.0, 8.0])
# A learning-rate cap no step here comes near; alpha_max must be finite.
NO_CAP = 1e300


def counting_trace(obj):
    """`obj` with a `trace` that appends to the returned list on every call."""
    calls = []

    def trace(*args):
        calls.append(args)
        return obj.trace(*args)

    return dataclasses.replace(obj, trace=trace), calls


def quad_at(x, y):
    obj = quadratic_objective(A_DIAG)
    return obj, ParamVector(np.array([float(x), float(y)]))


class TestAdamDirection:
    def test_first_step_is_sign_with_zero_epsilon(self):
        state = AdamState.init(2)
        g = ParamVector(np.array([3.0, -4.0]))
        new, d = adam_direction(state, g, AdamHyper(epsilon=0.0))
        np.testing.assert_allclose(d.values, [1.0, -1.0], rtol=1e-15)
        assert new.t == 1

    def test_first_step_epsilon_perturbation(self):
        _, d = adam_direction(AdamState.init(2), ParamVector(np.array([3.0, -4.0])), AdamHyper())
        np.testing.assert_allclose(d.values, [1.0, -1.0], atol=1e-7)

    def test_constant_gradient_keeps_sign_direction(self):
        state = AdamState.init(2)
        g = ParamVector(np.array([0.5, -2.0]))
        h = AdamHyper(epsilon=0.0)
        for _ in range(10):
            state, d = adam_direction(state, g, h)
            np.testing.assert_allclose(d.values, [1.0, -1.0], rtol=1e-12)
        assert state.t == 10

    def test_nonfinite_gradient_rejected_state_unchanged(self):
        state = AdamState.init(2)
        bad = ParamVector(np.array([1.0, 2.0]))
        object.__setattr__(bad, "values", np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            adam_direction(state, bad, AdamHyper())
        assert state.t == 0
        np.testing.assert_array_equal(state.m, np.zeros(2))

    @given(st.floats(1e-6, 1e6))
    def test_scale_invariance_with_zero_epsilon(self, c):
        h = AdamHyper(epsilon=0.0)
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=3) for _ in range(8)]
        s1, s2 = AdamState.init(3), AdamState.init(3)
        for g in grads:
            s1, d1 = adam_direction(s1, ParamVector(g), h)
            s2, d2 = adam_direction(s2, ParamVector(c * g), h)
            np.testing.assert_allclose(d1.values, d2.values, rtol=1e-10, atol=1e-12)


class TestSelectLearningRate:
    def test_unit_case(self):
        assert select_learning_rate(1.0, 1.0, 1.0, 0.0) == 1.0

    def test_quadratic_exact(self):
        # g = d = (2,8): g.d = 68, d^T A d = 520
        alpha = select_learning_rate(68.0, 520.0, 68.0, 0.0)
        assert alpha == pytest.approx(68.0 / 520.0, abs=1e-15)
        obj, theta = quad_at(1, 1)
        d = np.array([2.0, 8.0])
        oracle = golden_section(
            lambda a: obj.value(theta.values - a * d, None), 0.0, 1.0
        )
        assert alpha == pytest.approx(oracle, abs=1e-6)

    def test_quadratic_damped(self):
        alpha = select_learning_rate(68.0, 520.0, 68.0, 1.0)
        assert alpha == pytest.approx(68.0 / 588.0, abs=1e-15)
        obj, theta = quad_at(1, 1)
        d = np.array([2.0, 8.0])

        def damped_model(a):
            step = a * d
            return obj.value(theta.values - step, None) + 0.5 * (step @ step)

        assert alpha == pytest.approx(golden_section(damped_model, 0.0, 1.0), abs=1e-6)

    def test_non_descent_signal(self):
        with pytest.raises(NonDescentDirection):
            select_learning_rate(-0.5, 1.0, 1.0, 0.0)
        with pytest.raises(NonDescentDirection):
            select_learning_rate(0.0, 1.0, 1.0, 0.0)

    def test_non_convex_signal(self):
        with pytest.raises(NonConvexDirection):
            select_learning_rate(1.0, -2.0, 1.0, 1.0)


class TestLrPolicy:
    def test_below_threshold_untouched(self):
        assert apply_lr_policy(0.05, QLRConfig()) == 0.05

    def test_clipped_to_max(self):
        assert apply_lr_policy(0.5, QLRConfig()) == pytest.approx(0.1)

    def test_rescale_after_clipping(self):
        assert apply_lr_policy(0.5, QLRConfig(rescale_k=2.0)) == pytest.approx(0.2)


class TestQuadraticModelChange:
    def test_zero_step(self):
        assert quadratic_model_change(0.0, 68.0, 520.0) == 0.0

    def test_vertex_value(self):
        alpha = 68.0 / 520.0
        assert quadratic_model_change(alpha, 68.0, 520.0) == pytest.approx(
            -0.5 * 68.0**2 / 520.0, rel=1e-15
        )

    def test_unit_step_arithmetic(self):
        assert quadratic_model_change(1.0, 68.0, 520.0) == 192.0


class TestComputeRho:
    def test_perfect_model(self):
        assert compute_rho(-1.0, -1.0) == 1.0

    def test_half(self):
        assert compute_rho(-0.5, -1.0) == 0.5

    def test_guard(self):
        with pytest.raises(DegenerateModelChange):
            compute_rho(-1e-15, 1e-13, f_before=5.0)

    def test_exact_quadratic_rho_one_at_zero_damping(self):
        # With lambda = 0 the quadratic model is exact: rho == 1 to rounding.
        obj, theta = quad_at(1, 1)
        g = np.array([2.0, 8.0])
        alpha = select_learning_rate(g @ g, g @ (A_DIAG @ g), g @ g, 0.0)
        f_change = obj.value(theta.values - alpha * g, None) - obj.value(theta.values, None)
        m_change = quadratic_model_change(alpha, g @ g, g @ (A_DIAG @ g))
        assert compute_rho(f_change, m_change, 5.0) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_rho_at_damping_floor(self):
        # Through a full step lambda sits at its 1e-8 floor, which shifts rho
        # by exactly lam*|d|^2 / (d^T A d + lam*|d|^2) above one.
        obj, theta = quad_at(1, 1)
        cfg = QLRConfig(
            curvature=CurvatureKind.HESSIAN,
            lambda0=LAMBDA_MIN,
            alpha_max=NO_CAP,
            direction=Direction.SGD,
        )
        _, state, diag = qlr_step(obj, theta, None, QLRState.init(cfg, 2), cfg)
        offset = LAMBDA_MIN * 68.0 / (520.0 + LAMBDA_MIN * 68.0)
        assert diag.rho == pytest.approx(1.0 + offset, abs=1e-12)
        assert state.lam == LAMBDA_MIN


class TestUpdateDamping:
    def test_decrease_on_trusted_model(self):
        assert update_damping(0.9, 0.01, QLRConfig()) == pytest.approx(0.005)

    def test_unchanged_in_middle_band(self):
        assert update_damping(0.5, 0.01, QLRConfig()) == 0.01

    def test_floor(self):
        assert update_damping(0.9, 1.5e-8, QLRConfig()) == LAMBDA_MIN

    def test_ceiling(self):
        assert update_damping(-1.0, 0.9e10, QLRConfig()) == LAMBDA_MAX


class TestQlrStep:
    def test_quadratic_single_step_line_minimum(self):
        obj, theta = quad_at(1, 1)
        cfg = QLRConfig(
            curvature=CurvatureKind.HESSIAN,
            lambda0=LAMBDA_MIN,
            alpha_max=NO_CAP,
            direction=Direction.SGD,
        )
        params, state, diag = qlr_step(obj, theta, None, QLRState.init(cfg, 2), cfg)
        g = np.array([2.0, 8.0])
        line_min = min(
            obj.value(theta.values - a * g, None) for a in np.linspace(0, 1, 100001)
        )
        assert diag.f_after == pytest.approx(line_min, abs=1e-8)
        assert diag.rho == pytest.approx(1.0, abs=1e-8)
        assert state.lam == LAMBDA_MIN  # decay clamps straight back to the floor

    def test_lambda_floor_reached_in_17_steps(self):
        # omega_dec = 1/2 from 1e-3: ceil(log2(1e5)) = 17 halvings to the floor.
        # Start at (4,1), where steepest descent sustains its worst-case rate,
        # so the model change stays well above the degeneracy guard throughout.
        obj, theta = quad_at(4, 1)
        cfg = QLRConfig(
            curvature=CurvatureKind.HESSIAN,
            lambda0=1e-3,
            alpha_max=NO_CAP,
            direction=Direction.SGD,
        )
        state = QLRState.init(cfg, 2)
        params = theta
        lams = []
        for _ in range(18):
            params, state, diag = qlr_step(obj, params, None, state, cfg)
            lams.append(state.lam)
            assert diag.guard is None
        assert lams[15] > LAMBDA_MIN
        assert lams[16] == LAMBDA_MIN
        assert lams[17] == LAMBDA_MIN

    def test_non_descent_guard_is_noop(self):
        obj, theta = quad_at(1, 1)
        # Adam buffers loaded against the gradient force g.d < 0
        state = QLRState(
            lam=1e-3,
            adam=AdamState(m=np.array([-100.0, -100.0]), v=np.array([1.0, 1.0]), t=5),
        )
        cfg = QLRConfig(curvature=CurvatureKind.HESSIAN)
        params, new_state, diag = qlr_step(obj, theta, None, state, cfg)
        np.testing.assert_array_equal(params.values, theta.values)
        assert diag.alpha == 0.0
        assert diag.guard is GuardEvent.NON_DESCENT
        assert new_state.lam == state.lam
        assert new_state.events[GuardEvent.NON_DESCENT] == 1

    def test_non_convex_guard_uses_clipping_scale(self):
        obj = quadratic_objective(np.diag([-2.0, -8.0]))  # concave everywhere
        theta = ParamVector(np.array([1.0, 1.0]))
        cfg = QLRConfig(
            curvature=CurvatureKind.HESSIAN,
            lambda0=LAMBDA_MIN,
            alpha_max=0.1,
            rescale_k=2.0,
            direction=Direction.SGD,
        )
        params, state, diag = qlr_step(obj, theta, None, QLRState.init(cfg, 2), cfg)
        assert diag.guard is GuardEvent.NON_CONVEX
        assert diag.alpha == pytest.approx(0.2)  # k * alpha_max
        assert state.events[GuardEvent.NON_CONVEX] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejected_step_grows_damping_keeps_params(self):
        # A colossal rescale factor makes the proposed point overflow the
        # quartic objective: the step must be rejected and damping grown.
        obj = rosenbrock_objective()
        params = ParamVector(np.array([1.0, -1.0]))
        cfg = QLRConfig(
            curvature=CurvatureKind.HESSIAN,
            lambda0=1e-3,
            alpha_max=1.0,
            rescale_k=1e150,
            direction=Direction.SGD,
        )
        state = QLRState.init(cfg, 2)
        new_params, new_state, diag = qlr_step(obj, params, None, state, cfg)
        assert diag.guard is GuardEvent.STEP_REJECTED
        np.testing.assert_array_equal(new_params.values, params.values)
        assert new_state.lam == pytest.approx(cfg.omega_inc * 1e-3)
        assert new_state.events[GuardEvent.STEP_REJECTED] == 1
        assert math.isinf(diag.f_after)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mlp_rejected_step_grows_damping_keeps_params(self):
        # Relu passes the colossal trial pre-activation on to the output
        # layer, whose squared error then overflows.
        spec = MlpSpec((3, 4, 2), LossKind.MSE, Activation.RELU)
        obj, params = mlp_objective(spec), mlp_init(spec, 0)
        rng = np.random.default_rng(0)
        batch = Batch(rng.normal(size=(6, 3)), rng.normal(size=(6, 2)))
        cfg = QLRConfig(alpha_max=1.0, rescale_k=1e150)
        new_params, new_state, diag = qlr_step(
            obj, params, batch, QLRState.init(cfg, len(params)), cfg
        )
        assert diag.guard is GuardEvent.STEP_REJECTED
        np.testing.assert_array_equal(new_params.values, params.values)
        assert new_state.lam == cfg.omega_inc * cfg.lambda0
        assert new_state.events == {GuardEvent.STEP_REJECTED: 1}
        assert diag.f_after == math.inf

    @pytest.mark.parametrize(
        "knobs, events, guard",
        [
            # a damped update that leaves lambda at the ceiling counts it
            (dict(omega_dec=1.0), {GuardEvent.LAMBDA_CEILING: 1}, None),
            # lambda stays at the ceiling, but no damping rule set it
            (dict(omega_dec=1.0, damped=False), {}, None),
            # the rejected step grows lambda into the ceiling
            (
                dict(alpha_max=1.0, rescale_k=1e150),
                {GuardEvent.STEP_REJECTED: 1, GuardEvent.LAMBDA_CEILING: 1},
                GuardEvent.STEP_REJECTED,
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lambda_ceiling_counted_when_damping_sets_it(self, knobs, events, guard):
        obj = rosenbrock_objective()
        params = ParamVector(np.array([1.0, -1.0]))
        cfg = QLRConfig(
            curvature=CurvatureKind.HESSIAN, lambda0=LAMBDA_MAX, direction=Direction.SGD, **knobs
        )
        _, state, diag = qlr_step(obj, params, None, QLRState.init(cfg, 2), cfg)
        assert diag.guard is guard
        assert state.lam == LAMBDA_MAX
        assert state.events == events

    def test_rosenbrock_untuned_reference(self):
        obj = rosenbrock_objective()
        cfg = QLRConfig(curvature=CurvatureKind.HESSIAN)
        state = QLRState.init(cfg, 2)
        params = ParamVector(np.array([1.0, -1.0]))
        f0 = obj.value(params.values, None)
        for _ in range(200):
            params, state, diag = qlr_step(obj, params, None, state, cfg)
        assert f0 == 400.0
        assert diag.f_after < 4.0
        assert diag.f_after < f0

    def test_undamped_config_freezes_lambda(self):
        obj = rosenbrock_objective()
        cfg = QLRConfig(curvature=CurvatureKind.HESSIAN, damped=False, lambda0=1e-2)
        state = QLRState.init(cfg, 2)
        params = ParamVector(np.array([1.0, -1.0]))
        for _ in range(50):
            params, state, _ = qlr_step(obj, params, None, state, cfg)
            assert state.lam == 1e-2

    def test_bounds_hold_every_step(self):
        obj = rosenbrock_objective()
        cfg = QLRConfig(curvature=CurvatureKind.HESSIAN, rescale_k=1.5)
        state = QLRState.init(cfg, 2)
        params = ParamVector(np.array([-1.5, 2.0]))
        for _ in range(100):
            params, state, diag = qlr_step(obj, params, None, state, cfg)
            assert LAMBDA_MIN <= state.lam <= LAMBDA_MAX
            assert 0.0 <= diag.alpha <= cfg.rescale_k * cfg.alpha_max

    def test_update_invariant_under_direction_rescaling(self):
        # With lambda = 0 in the formula and no clipping, alpha*d is
        # homogeneous of degree 0 in the direction scale.
        rng = np.random.default_rng(3)
        g = rng.normal(size=4)
        d = rng.normal(size=4)
        if g @ d < 0:
            d = -d
        c_mat = np.diag(rng.uniform(0.5, 2.0, size=4))
        cd = c_mat @ d
        for c in (1e-6, 0.37, 1.0, 42.0, 1e5):
            a1 = select_learning_rate(g @ d, d @ cd, d @ d, 0.0)
            dc = c * d
            a2 = select_learning_rate(g @ dc, dc @ (c_mat @ dc), dc @ dc, 0.0)
            np.testing.assert_allclose(a1 * d, a2 * dc, rtol=1e-12)

    def test_line_search_optimality_against_random_alphas(self):
        rng = np.random.default_rng(11)
        g_dot_d, d_cd, d_dot_d = 68.0, 520.0, 68.0
        lam = 0.25
        alpha = select_learning_rate(g_dot_d, d_cd, d_dot_d, lam)
        d_cld = d_cd + lam * d_dot_d
        best = quadratic_model_change(alpha, g_dot_d, d_cld)
        for a in rng.uniform(0.0, 1.0, size=100):
            assert best <= quadratic_model_change(float(a), g_dot_d, d_cld) + 1e-12

    def test_exactly_one_curvature_product_and_one_extra_eval(self, monkeypatch):
        obj, theta = quad_at(1, 1)
        obj, traces = counting_trace(obj)
        linearize, lins = autodiff.linearize, []

        def recorded(*args):
            lins.append(linearize(*args))
            return lins[-1]

        monkeypatch.setattr(autodiff, "linearize", recorded)
        cfg = QLRConfig(curvature=CurvatureKind.HESSIAN, direction=Direction.SGD)
        state = QLRState.init(cfg, 2)
        autodiff.counters.reset()
        qlr_step(obj, theta, None, state, cfg)
        # One recorded forward pass serves the gradient and the curvature product.
        assert len(lins) == 1 and len(traces) == 1
        assert autodiff.counters.curvature_vp == 1
        assert autodiff.counters.eval_grad == 1
        assert autodiff.counters.eval_loss == 1  # the extra forward pass
        autodiff.counters.reset()

    def test_state_carries_exactly_two_persistent_vectors(self):
        cfg = QLRConfig()
        state = QLRState.init(cfg, 10)
        arrays = [
            name
            for name, value in vars(state.adam).items()
            if isinstance(value, np.ndarray)
        ]
        assert sorted(arrays) == ["m", "v"]
        assert not any(
            isinstance(v, np.ndarray) for k, v in vars(state).items() if k != "adam"
        )

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            QLRState(lam=1e-12, adam=None)
        with pytest.raises(ValueError):
            QLRConfig(omega_dec=1.5)
        with pytest.raises(ValueError):
            QLRConfig(lambda0=0.0)


class TestSgdStep:
    def test_reduces_to_plain_sgd(self):
        p = ParamVector(np.array([1.0, 2.0]))
        g = ParamVector(np.array([0.5, -0.5]))
        out, _ = sgd_step(p, g, lr=0.1)
        np.testing.assert_allclose(out.values, [0.95, 2.05])

    def test_decay_only(self):
        p = ParamVector(np.array([2.0, -4.0]))
        g = ParamVector(np.zeros(2))
        out, _ = sgd_step(p, g, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(out.values, p.values * (1 - 0.1 * 0.5))

    def test_momentum_accumulation(self):
        p = ParamVector(np.zeros(2))
        g = ParamVector(np.array([1.0, -2.0]))
        p, buf = sgd_step(p, g, lr=0.1, momentum=0.9)
        p, buf = sgd_step(p, g, lr=0.1, momentum_buf=buf, momentum=0.9)
        np.testing.assert_allclose(buf, 1.9 * g.values)


class TestStepWork:
    """Deterministic work of one GGN step: matrix multiply-adds on the tape."""

    def test_one_forward_and_pruned_sweeps(self, monkeypatch):
        n, widths = 8, (6, 5, 3)
        spec = MlpSpec(widths, LossKind.SOFTMAX_CROSS_ENTROPY)
        obj, traces = counting_trace(mlp_objective(spec))
        rng = np.random.default_rng(0)
        batch = Batch(rng.normal(size=(n, widths[0])), rng.integers(0, widths[-1], size=n))
        p_matmul, madds = tape.p_matmul, []

        def counted(a, b):
            # Products of tangents count as one product each, like the primal one.
            madds.append(math.prod(a[0].shape) * b[0].shape[-1]
                         * (1 + (a[1] is not None) + (b[1] is not None)))
            return p_matmul(a, b)

        monkeypatch.setattr(tape, "p_matmul", counted)
        cfg = QLRConfig(curvature=CurvatureKind.GGN_FISHER)
        params = mlp_init(spec, 0)
        qlr_step(obj, params, batch, QLRState.init(cfg, len(params)), cfg)

        d0, d1, d2 = widths
        # X W1 is taken as (W1ᵀ Xᵀ)ᵀ, as every input layer wider in than out
        # is, with the same multiply-adds.
        forward = n * d0 * d1 + n * d1 * d2  # X W1, H W2
        replay = n * d0 * d1 + 2 * n * d1 * d2  # X dW1, then dH W2 + H dW2
        # Each reverse sweep (one for g, one for J^T u) forms both cotangents
        # of H W2 but only the weight cotangent of X W1: X is a constant. A
        # weight cotangent Aᵀct is formed as (ctᵀA)ᵀ, with the same multiply-adds.
        sweep = 2 * n * d2 * d1 + d0 * n * d1
        # The post-step loss runs off the tape and forms no N x d0 x d1
        # product X (W1 - alpha dW1): it takes X W1 - alpha X dW1 from the
        # forward pass and the replay, and runs only the layers above it.
        assert sum(madds) == forward + replay + 2 * sweep == 1800
        assert len(traces) == 1

    def test_post_step_loss_skips_the_full_value_path(self):
        spec = MlpSpec((6, 5, 3), LossKind.SOFTMAX_CROSS_ENTROPY)
        obj = mlp_objective(spec)
        mlp_predict, calls = obj.predict, []

        def predict(values, inputs, pre=None):
            calls.append("full" if pre is None else "above input layer")
            return mlp_predict(values, inputs, pre)

        obj = dataclasses.replace(obj, predict=predict)
        rng = np.random.default_rng(0)
        batch = Batch(rng.normal(size=(8, 6)), rng.integers(0, 3, size=8))
        cfg = QLRConfig()
        params = mlp_init(spec, 0)
        autodiff.counters.reset()
        qlr_step(obj, params, batch, QLRState.init(cfg, len(params)), cfg)
        assert calls == ["above input layer"]
        assert autodiff.counters.eval_loss == 1
        autodiff.counters.reset()


class TestEmpiricalFisherDiag:
    def _linear(self):
        spec = MlpSpec((3, 2), LossKind.SOFTMAX_CROSS_ENTROPY)
        return mlp_objective(spec), mlp_init(spec, 0)

    def test_single_example_is_squared_gradient(self):
        obj, params = self._linear()
        batch = Batch(np.array([[1.0, -2.0, 0.5]]), np.array([1]))
        _, g = autodiff.eval_grad(obj, params, batch)
        got = empirical_fisher_diag(obj, params, batch)
        np.testing.assert_allclose(got.values, g.values**2, rtol=1e-12)

    def test_duplicate_example_invariance(self):
        obj, params = self._linear()
        x = np.array([[1.0, -2.0, 0.5]])
        single = empirical_fisher_diag(obj, params, Batch(x, np.array([1])))
        double = empirical_fisher_diag(
            obj, params, Batch(np.vstack([x, x]), np.array([1, 1]))
        )
        np.testing.assert_allclose(double.values, single.values, rtol=1e-14)

    def test_matches_dense_outer_product_diagonal(self):
        spec = MlpSpec((4, 1), LossKind.MSE)
        obj = mlp_objective(spec)
        params = mlp_init(spec, 3)
        rng = np.random.default_rng(8)
        batch = Batch(rng.normal(size=(6, 4)), rng.normal(size=(6, 1)))
        got = empirical_fisher_diag(obj, params, batch)
        dense = np.zeros((len(params), len(params)))
        for i in range(6):
            _, g = autodiff.eval_grad(obj, params, batch.take([i]))
            dense += np.outer(g.values, g.values)
        np.testing.assert_allclose(got.values, np.diag(dense) / 6, atol=1e-10)

    def test_alignment_report(self):
        fdiag = ParamVector(np.array([1.0, 2.0, 3.0]))
        cos, spread = fisher_adam_alignment(fdiag, np.array([2.0, 4.0, 6.0]))
        assert cos == pytest.approx(1.0)
        assert spread == pytest.approx(0.0, abs=1e-12)

    def test_bias_corrected_v_requires_steps(self):
        with pytest.raises(ValueError):
            bias_corrected_v(AdamState.init(2))
