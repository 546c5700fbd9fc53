"""Gradient, Hessian-vector and curvature-vector product contracts."""

import gc

import numpy as np
import pytest

from adamqlr import (
    Batch,
    CurvatureKind,
    LossKind,
    MlpSpec,
    ParamVector,
    QLRConfig,
    RosenbrockSpec,
    curvature_vp,
    eval_grad,
    eval_loss,
    explicit_matrix,
    fd_grad,
    mlp_init,
    mlp_objective,
    rosenbrock_objective,
)
from adamqlr.autodiff import (
    EvalOverflowError,
    Objective,
    MatrixCapExceededError,
    UnsupportedCurvatureError,
    counters,
    eval_outputs,
    linearize,
)

from helpers import dense_linear_mse_ggn, dense_linear_softmax_fisher, quadratic_objective

ROSEN = rosenbrock_objective(RosenbrockSpec())
HESSIAN = CurvatureKind.HESSIAN


def rosen_point(x, y):
    return ParamVector(np.array([float(x), float(y)]))


def random_mlp(widths, loss, seed):
    spec = MlpSpec(widths, loss)
    obj = mlp_objective(spec)
    params = mlp_init(spec, seed)
    rng = np.random.default_rng(seed + 1000)
    if loss is LossKind.MSE:
        batch = Batch(rng.normal(size=(4, widths[0])), rng.normal(size=(4, widths[-1])))
    else:
        batch = Batch(rng.normal(size=(4, widths[0])), rng.integers(0, widths[-1], size=4))
    return obj, params, batch


def max_rel_err(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-12)
    return float(np.max(np.abs(got - want))) / scale


class TestEvalLoss:
    def test_rosenbrock_minimum(self):
        assert eval_loss(ROSEN, rosen_point(1, 1), None) == 0.0

    def test_rosenbrock_away_from_minimum(self):
        # (a-x)^2 + b(y-x^2)^2 at (1,-1) with a=1, b=100
        assert eval_loss(ROSEN, rosen_point(1, -1), None) == 400.0

    def test_linear_model_mse(self):
        obj = mlp_objective(MlpSpec((2, 1), LossKind.MSE))
        params = ParamVector(np.array([1.0, 2.0, 0.0]))
        batch = Batch(np.array([[1.0, 1.0]]), np.array([[0.0]]))
        assert eval_loss(obj, params, batch) == 9.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_with_context(self):
        obj = mlp_objective(MlpSpec((2, 1), LossKind.MSE))
        params = ParamVector(np.array([1e300, 1e300, 0.0]))
        batch = Batch(np.array([[1e10, 1e10]]), np.array([[0.0]]))
        with pytest.raises(EvalOverflowError, match="eval_loss"):
            eval_loss(obj, params, batch)


class TestObjectiveContract:
    def test_plain_function_needs_only_name_size_trace_and_value(self):
        obj = Objective("const", 1, ROSEN.trace, lambda values, batch: 2.0)
        assert obj.loss_kind is None and obj.predict is None
        assert eval_loss(obj, ParamVector(np.zeros(1)), None) == 2.0

    def test_model_objective_requires_a_batch(self):
        obj, params, _ = random_mlp((3, 2), LossKind.MSE, 0)
        for call in (eval_loss, linearize):
            with pytest.raises(ValueError, match="requires a batch"):
                call(obj, params, None)


class TestEvalOutputs:
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_matches_eval_loss_and_predict(self, loss):
        obj, params, batch = random_mlp((3, 5, 4), loss, 2)
        got, outputs = eval_outputs(obj, params, batch)
        assert got == eval_loss(obj, params, batch)
        np.testing.assert_array_equal(outputs, obj.predict(params.values, batch.inputs))

    def test_counts_as_one_loss_evaluation(self):
        obj, params, batch = random_mlp((3, 2), LossKind.MSE, 0)
        before = counters.eval_loss
        eval_outputs(obj, params, batch)
        assert counters.eval_loss == before + 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_with_context(self):
        obj = mlp_objective(MlpSpec((2, 1), LossKind.MSE))
        params = ParamVector(np.array([1e300, 1e300, 0.0]))
        batch = Batch(np.array([[1e10, 1e10]]), np.array([[0.0]]))
        with pytest.raises(EvalOverflowError, match="eval_outputs"):
            eval_outputs(obj, params, batch)

    def test_checks_params_batch_and_objective(self):
        obj, params, batch = random_mlp((3, 2), LossKind.MSE, 0)
        with pytest.raises(ValueError, match="expects 8 parameters"):
            eval_outputs(obj, params.with_values(np.zeros(7)), batch)
        with pytest.raises(ValueError, match="empty batch"):
            eval_outputs(obj, params, Batch(batch.inputs[:0], batch.targets[:0]))
        with pytest.raises(ValueError, match="no model outputs"):
            eval_outputs(ROSEN, rosen_point(1, 1), batch)


class TestEvalGrad:
    def test_rosenbrock_stationary(self):
        _, g = eval_grad(ROSEN, rosen_point(1, 1), None)
        np.testing.assert_array_equal(g.values, [0.0, 0.0])

    def test_rosenbrock_origin(self):
        _, g = eval_grad(ROSEN, rosen_point(0, 0), None)
        np.testing.assert_allclose(g.values, [-2.0, 0.0], atol=1e-14)

    def test_mlp_matches_central_differences(self):
        obj, params, batch = random_mlp((2, 3, 1), LossKind.MSE, 0)
        _, g = eval_grad(obj, params, batch)
        fd = fd_grad(obj, params, batch, 1e-5)
        assert max_rel_err(g.values, fd.values) <= 1e-6

    def test_loss_value_matches_eval_loss(self):
        obj, params, batch = random_mlp((3, 4, 2), LossKind.MSE, 1)
        loss, _ = eval_grad(obj, params, batch)
        assert loss == pytest.approx(eval_loss(obj, params, batch), rel=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize(
        "widths,loss",
        [((5, 7, 2), LossKind.MSE), ((6, 5, 3), LossKind.SOFTMAX_CROSS_ENTROPY)],
    )
    def test_gradient_correctness_property(self, widths, loss, seed):
        obj, params, batch = random_mlp(widths, loss, seed)
        _, g = eval_grad(obj, params, batch)
        fd = fd_grad(obj, params, batch, 1e-5)
        assert max_rel_err(g.values, fd.values) <= 1e-5


class TestHvp:
    def test_identity_hessian(self):
        obj = quadratic_objective(np.eye(3))
        params = ParamVector(np.array([0.3, -1.0, 2.0]))
        v = params.with_values(np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(
            curvature_vp(obj, params, None, v, HESSIAN).values, v.values, rtol=1e-15
        )

    def test_rosenbrock_analytic_hessian_column(self):
        v = rosen_point(1, 0)
        got = curvature_vp(ROSEN, rosen_point(1, 1), None, v, HESSIAN).values
        np.testing.assert_allclose(got, [802.0, -400.0], rtol=1e-12)

    def test_mlp_against_fd_hessian_column(self):
        obj, params, batch = random_mlp((2, 3, 1), LossKind.MSE, 2)
        h = 1e-5
        for i in (0, len(params) // 2, len(params) - 1):
            e = np.zeros(len(params))
            e[i] = 1.0
            _, gp = eval_grad(obj, params.with_values(params.values + h * e), batch)
            _, gm = eval_grad(obj, params.with_values(params.values - h * e), batch)
            fd_col = (gp.values - gm.values) / (2 * h)
            got = curvature_vp(obj, params, batch, params.with_values(e), HESSIAN).values
            assert max_rel_err(got, fd_col) <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, seed):
        obj, params, batch = random_mlp((4, 5, 3), LossKind.SOFTMAX_CROSS_ENTROPY, seed)
        rng = np.random.default_rng(seed)
        v1 = rng.normal(size=len(params))
        v2 = rng.normal(size=len(params))
        c = 1.7
        lhs = curvature_vp(obj, params, batch, params.with_values(v1 + c * v2), HESSIAN).values
        rhs = (
            curvature_vp(obj, params, batch, params.with_values(v1), HESSIAN).values
            + c * curvature_vp(obj, params, batch, params.with_values(v2), HESSIAN).values
        )
        assert max_rel_err(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry(self, seed):
        obj, params, batch = random_mlp((3, 6, 2), LossKind.MSE, seed + 50)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=len(params))
        v = rng.normal(size=len(params))
        uhv = u @ curvature_vp(obj, params, batch, params.with_values(v), HESSIAN).values
        vhu = v @ curvature_vp(obj, params, batch, params.with_values(u), HESSIAN).values
        assert abs(uhv - vhu) <= 1e-8 * max(abs(uhv), 1.0)


class TestCurvatureVp:
    def test_zero_vector(self):
        obj, params, batch = random_mlp((3, 2), LossKind.MSE, 0)
        z = params.with_values(np.zeros(len(params)))
        for kind in CurvatureKind:
            np.testing.assert_array_equal(
                curvature_vp(obj, params, batch, z, kind).values, np.zeros(len(params))
            )

    def test_single_example_linear_fisher(self):
        # z = w.x, loss (z-y)^2, one example: Fv = 2 x (x.v) on the weight block
        obj = mlp_objective(MlpSpec((3, 1), LossKind.MSE))
        x = np.array([0.5, -1.0, 2.0])
        batch = Batch(x[None, :], np.array([[0.7]]))
        params = ParamVector(np.array([0.1, 0.2, -0.3, 0.0]))
        v = params.with_values(np.array([1.0, -1.0, 0.5, 0.0]))
        got = curvature_vp(obj, params, batch, v, CurvatureKind.GGN_FISHER).values
        np.testing.assert_allclose(got[:3], 2.0 * x * (x @ v.values[:3]), rtol=1e-12)

    @pytest.mark.parametrize("kind", list(CurvatureKind))
    def test_each_kind_counts_one_product(self, kind):
        obj, params, batch = random_mlp((4, 3, 2), LossKind.MSE, 3)
        v = params.with_values(np.random.default_rng(0).normal(size=len(params)))
        before = counters.curvature_vp
        curvature_vp(obj, params, batch, v, kind)
        assert counters.curvature_vp == before + 1

    def test_linear_softmax_matches_dense_fisher(self):
        rng = np.random.default_rng(4)
        obj = mlp_objective(MlpSpec((4, 3), LossKind.SOFTMAX_CROSS_ENTROPY))
        params = mlp_init(MlpSpec((4, 3), LossKind.SOFTMAX_CROSS_ENTROPY), 4)
        x = rng.normal(size=(2, 4))
        batch = Batch(x, rng.integers(0, 3, size=2))
        got = explicit_matrix(obj, params, batch, CurvatureKind.GGN_FISHER)
        want = dense_linear_softmax_fisher(x, params.values[:12].reshape(4, 3), params.values[12:])
        assert max_rel_err(got, want) <= 1e-8

    def test_linear_mse_matches_dense_ggn(self):
        rng = np.random.default_rng(5)
        obj = mlp_objective(MlpSpec((3, 2), LossKind.MSE))
        params = mlp_init(MlpSpec((3, 2), LossKind.MSE), 5)
        x = rng.normal(size=(6, 3))
        batch = Batch(x, rng.normal(size=(6, 2)))
        got = explicit_matrix(obj, params, batch, CurvatureKind.GGN_FISHER)
        np.testing.assert_allclose(got, dense_linear_mse_ggn(x, 2), rtol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_ggn_positive_semidefinite_quadratic_form(self, seed):
        obj, params, batch = random_mlp((4, 6, 3), LossKind.SOFTMAX_CROSS_ENTROPY, seed + 10)
        v = np.random.default_rng(seed).normal(size=len(params))
        quad = v @ curvature_vp(obj, params, batch, params.with_values(v), CurvatureKind.GGN_FISHER).values
        assert quad >= -1e-10 * (v @ v)

    def test_hessian_equals_ggn_on_quadratic_objective(self):
        # linear model + MSE is quadratic in the parameters
        obj, params, batch = random_mlp((5, 3), LossKind.MSE, 7)
        v = params.with_values(np.random.default_rng(1).normal(size=len(params)))
        hess = curvature_vp(obj, params, batch, v, CurvatureKind.HESSIAN).values
        ggn = curvature_vp(obj, params, batch, v, CurvatureKind.GGN_FISHER).values
        assert max_rel_err(hess, ggn) <= 1e-10

    def test_ggn_unsupported_without_model_split(self):
        v = rosen_point(1, 0)
        with pytest.raises(UnsupportedCurvatureError):
            curvature_vp(ROSEN, rosen_point(0, 0), None, v, CurvatureKind.GGN_FISHER)


def linearization_case(case):
    if case == "rosenbrock":
        return ROSEN, rosen_point(-0.7, 1.3), None
    # Regression nets default to tanh hidden units, classifiers to relu.
    loss = LossKind.MSE if case == "tanh" else LossKind.SOFTMAX_CROSS_ENTROPY
    return random_mlp((5, 6, 3), loss, 21)


class TestLinearization:
    """One recorded forward pass serves any sequence of derivative calls."""

    @pytest.mark.parametrize("case", ["tanh", "relu", "rosenbrock"])
    def test_reuse_is_bit_identical_to_fresh_calls(self, case):
        obj, params, batch = linearization_case(case)
        if case == "rosenbrock":
            kinds = [HESSIAN, CurvatureKind.GGN_FISHER, HESSIAN]
        else:
            kinds = [CurvatureKind.GGN_FISHER, HESSIAN, CurvatureKind.GGN_FISHER]
        rng = np.random.default_rng(5)
        v1, v2 = (params.with_values(rng.normal(size=len(params))) for _ in range(2))
        lin = linearize(obj, params, batch)
        loss_fresh, g_fresh = eval_grad(obj, params, batch)
        assert lin.value == loss_fresh
        np.testing.assert_array_equal(lin.grad().values, g_fresh.values)
        for kind, v in zip(kinds, (v1, v1, v2)):
            if kind is not HESSIAN and obj.loss_kind is None:
                with pytest.raises(UnsupportedCurvatureError):
                    lin.curvature_vp(v, kind)
                continue
            np.testing.assert_array_equal(
                lin.curvature_vp(v, kind).values, curvature_vp(obj, params, batch, v, kind).values
            )
        # A gradient after the products ignores the tangents they left behind.
        np.testing.assert_array_equal(lin.grad().values, g_fresh.values)
        short = ParamVector(np.ones(len(params) - 1))
        with pytest.raises(ValueError, match="direction length"):
            lin.curvature_vp(short, HESSIAN)

    @pytest.mark.parametrize("case", ["tanh", "relu", "rosenbrock"])
    def test_freed_by_refcount_alone(self, case):
        # A tape in a reference cycle lives until the cyclic collector runs.
        obj, params, batch = linearization_case(case)
        v = params.with_values(np.random.default_rng(5).normal(size=len(params)))
        # Rosenbrock has no model/loss split, so GGN products do not apply.
        kinds = [HESSIAN] if obj.loss_kind is None else [CurvatureKind.GGN_FISHER, HESSIAN]
        gc.collect()
        gc.disable()
        try:
            lin = linearize(obj, params, batch)
            lin.grad()
            for kind in kinds:
                lin.curvature_vp(v, kind)
            del lin
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "case, kind",
        [
            ("tanh", CurvatureKind.GGN_FISHER),
            ("tanh", HESSIAN),
            ("relu", CurvatureKind.GGN_FISHER),
            ("relu", HESSIAN),
            ("rosenbrock", HESSIAN),
        ],
    )
    def test_trial_loss_matches_value_path_at_the_new_point(self, case, kind):
        obj, params, batch = linearization_case(case)
        lin = linearize(obj, params, batch)
        d = lin.grad()
        lin.curvature_vp(d, kind)
        for alpha in (0.0, 1e-3, QLRConfig().alpha_max):
            counters.reset()
            point, loss = lin.trial(alpha)
            assert counters.eval_loss == 1
            np.testing.assert_array_equal(point.values, params.values - alpha * d.values)
            want = eval_loss(obj, point, batch)
            if obj.loss_kind is None:  # no affine data layer: the value path itself
                assert loss == want
            else:
                assert abs(loss - want) <= 1e-12 * abs(want)
        counters.reset()

    def test_trial_needs_a_direction_and_a_finite_loss(self):
        obj, params, batch = linearization_case("tanh")
        lin = linearize(obj, params, batch)
        with pytest.raises(ValueError, match="curvature product"):
            lin.trial(1e-3)
        lin.curvature_vp(lin.grad(), CurvatureKind.GGN_FISHER)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvalOverflowError, match="trial"):
                lin.trial(1e300)

    def test_plain_function_trial_overflow_names_trial(self):
        obj, params, batch = linearization_case("rosenbrock")
        lin = linearize(obj, params, batch)
        lin.curvature_vp(lin.grad(), HESSIAN)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvalOverflowError, match=r"trial\(rosenbrock\)"):
                lin.trial(1e150)

    def test_each_call_counts_once(self):
        obj, params, batch = random_mlp((4, 3, 2), LossKind.MSE, 3)
        lin = linearize(obj, params, batch)
        counters.reset()
        lin.grad()
        lin.curvature_vp(params, HESSIAN)
        lin.curvature_vp(params, CurvatureKind.GGN_FISHER)
        assert (counters.eval_grad, counters.curvature_vp, counters.eval_loss) == (1, 2, 0)
        counters.reset()


class TestExplicitMatrix:
    def test_diagonal_quadratic(self):
        obj = quadratic_objective(np.diag([2.0, 8.0]))
        params = ParamVector(np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            explicit_matrix(obj, params, None, CurvatureKind.HESSIAN),
            np.diag([2.0, 8.0]),
            atol=1e-14,
        )

    def test_rosenbrock_hessian(self):
        got = explicit_matrix(ROSEN, rosen_point(1, 1), None, CurvatureKind.HESSIAN)
        np.testing.assert_allclose(got, [[802.0, -400.0], [-400.0, 200.0]], rtol=1e-12)

    def test_ggn_eigenvalues_nonnegative(self):
        obj, params, batch = random_mlp((4, 5, 3), LossKind.SOFTMAX_CROSS_ENTROPY, 11)
        mat = explicit_matrix(obj, params, batch, CurvatureKind.GGN_FISHER)
        assert np.linalg.eigvalsh(mat).min() >= -1e-8

    def test_cap_refusal(self):
        obj, params, batch = random_mlp((8, 50, 1), LossKind.MSE, 0)
        with pytest.raises(MatrixCapExceededError):
            explicit_matrix(obj, params, batch, CurvatureKind.HESSIAN, cap=200)


class TestFdGrad:
    def test_exact_on_quadratic(self):
        obj = quadratic_objective(np.eye(2))
        params = ParamVector(np.array([1.0, 2.0]))
        for h in (1e-3, 1e-5, 1e-7):
            np.testing.assert_allclose(
                fd_grad(obj, params, None, h).values, [1.0, 2.0], atol=1e-8
            )

    def test_rosenbrock_at_origin(self):
        got = fd_grad(ROSEN, rosen_point(0, 0), None, 1e-6).values
        np.testing.assert_allclose(got, [-2.0, 0.0], atol=1e-6)

    def test_requires_positive_step(self):
        with pytest.raises(ValueError):
            fd_grad(ROSEN, rosen_point(0, 0), None, 0.0)


class TestDeterminism:
    def test_bitwise_identical_repeats(self):
        obj, params, batch = random_mlp((4, 6, 3), LossKind.SOFTMAX_CROSS_ENTROPY, 42)
        v = params.with_values(np.random.default_rng(9).normal(size=len(params)))
        l1, g1 = eval_grad(obj, params, batch)
        l2, g2 = eval_grad(obj, params, batch)
        assert l1 == l2
        np.testing.assert_array_equal(g1.values, g2.values)
        np.testing.assert_array_equal(
            curvature_vp(obj, params, batch, v, HESSIAN).values,
            curvature_vp(obj, params, batch, v, HESSIAN).values,
        )
        np.testing.assert_array_equal(
            curvature_vp(obj, params, batch, v, CurvatureKind.GGN_FISHER).values,
            curvature_vp(obj, params, batch, v, CurvatureKind.GGN_FISHER).values,
        )
