"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE nn [PASS|FAIL]` line with the measured
quantities before asserting, so a red criterion still reports its
numbers. Tolerances are pinned here and nowhere else.

Criterion 8 runs against Fashion-MNIST IDX files when
ADAMQLR_FASHION_MNIST_DIR points at them, and against the synthetic-blob
stand-in otherwise.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from adamqlr import (
    AdamHyper,
    AdamState,
    Batch,
    CurvatureKind,
    Direction,
    GuardEvent,
    LossKind,
    MlpSpec,
    ParamVector,
    QLRConfig,
    QLRState,
    adam_direction,
    curvature_vp,
    eval_grad,
    eval_loss,
    fd_grad,
    mlp_init,
    mlp_objective,
    qlr_step,
    rosenbrock_objective,
)
from adamqlr.bench import config as config_mod
from adamqlr.bench.cli import EXIT_OK, main as cli_main
from adamqlr.bench.rosenbrock import preset_optimizer, run_rosenbrock
from adamqlr.bench.stats import bootstrap_trend
from adamqlr.bench.training import RunStatus, run_training
from adamqlr.optim import (
    LAMBDA_MIN,
    compute_rho,
    empirical_fisher_diag,
    quadratic_model_change,
    select_learning_rate,
)

from helpers import (
    brute_force_bootstrap,
    dense_linear_mse_ggn,
    dense_linear_softmax_fisher,
    explicit_matrix,
    golden_section,
    quadratic_objective,
    run_with_records,
)

A_DIAG = np.diag([2.0, 8.0])
HESSIAN = CurvatureKind.HESSIAN

REGRESSION_MODEL = MlpSpec((8, 50, 1), LossKind.MSE)  # tanh by default
CLASSIFICATION_MODEL = MlpSpec((16, 50, 10), LossKind.SOFTMAX_CROSS_ENTROPY)  # relu


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def model_instances(seed: int):
    rng = np.random.default_rng(seed + 10_000)
    for spec in (REGRESSION_MODEL, CLASSIFICATION_MODEL):
        obj = mlp_objective(spec)
        params = mlp_init(spec, seed)
        if spec.loss is LossKind.MSE:
            batch = Batch(rng.normal(size=(4, spec.layer_widths[0])), rng.normal(size=(4, 1)))
        else:
            batch = Batch(
                rng.normal(size=(4, spec.layer_widths[0])),
                rng.integers(0, spec.layer_widths[-1], size=4),
            )
        yield obj, params, batch


def max_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


def test_01_gradient_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):  # 10 (seed, batch) pairs per model = 20 pairs
        for obj, params, batch in model_instances(seed):
            _, g = eval_grad(obj, params, batch)
            fd = fd_grad(obj, params, batch, 1e-5)
            worst = max(worst, max_rel(g.values, fd.values))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    report(1, ok, f"max grad rel err {worst:.3e} (<=1e-5) over 20 pairs in {elapsed:.2f}s (<5s)")
    assert worst <= 1e-5
    assert elapsed < 5.0


def test_02_hvp_oracle():
    t0 = time.perf_counter()
    worst_fd = worst_lin = worst_sym = 0.0
    h = 1e-5
    for seed in range(3):
        for obj, params, batch in model_instances(seed + 100):
            rng = np.random.default_rng(seed)
            n = len(params)
            v1, v2 = rng.normal(size=n), rng.normal(size=n)

            _, gp = eval_grad(obj, params.with_values(params.values + h * v1), batch)
            _, gm = eval_grad(obj, params.with_values(params.values - h * v1), batch)
            fd_hv = (gp.values - gm.values) / (2 * h)
            hv1 = curvature_vp(obj, params, batch, params.with_values(v1), HESSIAN).values
            worst_fd = max(worst_fd, max_rel(hv1, fd_hv))

            hv2 = curvature_vp(obj, params, batch, params.with_values(v2), HESSIAN).values
            lhs = curvature_vp(obj, params, batch, params.with_values(v1 + 2.5 * v2), HESSIAN).values
            worst_lin = max(worst_lin, max_rel(lhs, hv1 + 2.5 * hv2))

            sym_gap = abs(v2 @ hv1 - v1 @ hv2) / max(abs(v2 @ hv1), 1e-300)
            worst_sym = max(worst_sym, sym_gap)
    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1e-4 and worst_lin <= 1e-8 and worst_sym <= 1e-8 and elapsed < 10.0
    report(
        2,
        ok,
        f"hvp vs fd {worst_fd:.3e} (<=1e-4), linearity {worst_lin:.3e}, "
        f"symmetry {worst_sym:.3e} (<=1e-8) in {elapsed:.2f}s (<10s)",
    )
    assert worst_fd <= 1e-4
    assert worst_lin <= 1e-8
    assert worst_sym <= 1e-8
    assert elapsed < 10.0


def test_03_curvature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # linear-softmax, 20*8+8 = 168 <= 200 parameters, exact dense assembly
    spec = MlpSpec((20, 8), LossKind.SOFTMAX_CROSS_ENTROPY)
    obj = mlp_objective(spec)
    params = mlp_init(spec, 0)
    x = rng.normal(size=(5, 20))
    batch = Batch(x, rng.integers(0, 8, size=5))
    got = explicit_matrix(obj, params, batch, CurvatureKind.GGN_FISHER)
    want = dense_linear_softmax_fisher(x, params.values[:160].reshape(20, 8), params.values[160:])
    err_softmax = max_rel(got, want)

    # linear-MSE
    spec = MlpSpec((9, 4), LossKind.MSE)
    obj = mlp_objective(spec)
    params = mlp_init(spec, 1)
    x = rng.normal(size=(7, 9))
    batch = Batch(x, rng.normal(size=(7, 4)))
    got = explicit_matrix(obj, params, batch, CurvatureKind.GGN_FISHER)
    err_mse = max_rel(got, dense_linear_mse_ggn(x, 4))

    # MLP with 103 parameters: PSD check of the assembled matrix
    spec = MlpSpec((6, 10, 3), LossKind.SOFTMAX_CROSS_ENTROPY)
    obj = mlp_objective(spec)
    params = mlp_init(spec, 2)
    batch = Batch(rng.normal(size=(6, 6)), rng.integers(0, 3, size=6))
    mat = explicit_matrix(obj, params, batch, CurvatureKind.GGN_FISHER)
    min_eig = float(np.linalg.eigvalsh(mat).min())

    elapsed = time.perf_counter() - t0
    ok = err_softmax <= 1e-8 and err_mse <= 1e-8 and min_eig >= -1e-8 and elapsed < 10.0
    report(
        3,
        ok,
        f"dense assembly rel err: softmax {err_softmax:.3e}, mse {err_mse:.3e} (<=1e-8); "
        f"min eig {min_eig:.3e} (>=-1e-8) in {elapsed:.2f}s (<10s)",
    )
    assert err_softmax <= 1e-8
    assert err_mse <= 1e-8
    assert min_eig >= -1e-8
    assert elapsed < 10.0


def test_04_learning_rate_formula_exactness():
    t0 = time.perf_counter()
    obj = quadratic_objective(A_DIAG)
    theta = np.array([1.0, 1.0])
    g = A_DIAG @ theta  # (2, 8)
    alpha, _ = select_learning_rate(g @ g, g @ (A_DIAG @ g), g @ g, 0.0)
    alpha_err = abs(alpha - 68.0 / 520.0)

    oracle = golden_section(lambda a: obj.value(theta - a * g, None), 0.0, 1.0)
    oracle_err = abs(alpha - oracle)

    # with a linear term the same formula still minimizes the model
    obj_b = quadratic_objective(A_DIAG, np.array([-1.0, 2.0]))
    g_b = A_DIAG @ theta + np.array([-1.0, 2.0])
    alpha_b, _ = select_learning_rate(g_b @ g_b, g_b @ (A_DIAG @ g_b), g_b @ g_b, 0.0)
    oracle_b = golden_section(lambda a: obj_b.value(theta - a * g_b, None), 0.0, 1.0)
    oracle_err = max(oracle_err, abs(alpha_b - oracle_b))

    f_change = obj.value(theta - alpha * g, None) - obj.value(theta, None)
    rho, _ = compute_rho(f_change, quadratic_model_change(alpha, g @ g, g @ (A_DIAG @ g)), 5.0)
    rho_err = abs(rho - 1.0)

    # damping decay: ceil(log2(1e5)) = 17 halvings from 1e-3 to the 1e-8 floor
    cfg = QLRConfig(
        curvature=CurvatureKind.HESSIAN,
        lambda0=1e-3,
        alpha_max=1e300,  # a cap no step comes near; it must be finite
        direction=Direction.SGD,
    )
    state = QLRState.init(cfg, 2)
    params = ParamVector(np.array([4.0, 1.0]))
    floor_at = None
    for step in range(1, 19):
        params, state, _ = qlr_step(obj, params, None, state, cfg)
        if floor_at is None and state.lam == LAMBDA_MIN:
            floor_at = step
    elapsed = time.perf_counter() - t0
    ok = (
        alpha_err <= 1e-12
        and oracle_err <= 1e-6
        and rho_err <= 1e-9
        and floor_at == 17
        and elapsed < 1.0
    )
    report(
        4,
        ok,
        f"alpha err {alpha_err:.1e} (<=1e-12), golden-section gap {oracle_err:.1e} (<=1e-6), "
        f"|rho-1| {rho_err:.1e} (<=1e-9), floor at step {floor_at} (==17) in {elapsed:.2f}s (<1s)",
    )
    assert alpha_err <= 1e-12
    assert oracle_err <= 1e-6
    assert rho_err <= 1e-9
    assert floor_at == 17
    assert elapsed < 1.0


def test_05_invariance_suite():
    t0 = time.perf_counter()
    # Adam scale invariance at epsilon = 0
    h = AdamHyper(epsilon=0.0)
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=5) for _ in range(12)]
    worst_scale = 0.0
    for c in (1e-4, 0.5, 3.0, 1e4):
        s1, s2 = AdamState.init(5), AdamState.init(5)
        for g in grads:
            s1, d1 = adam_direction(s1, ParamVector(g), h)
            s2, d2 = adam_direction(s2, ParamVector(c * g), h)
            worst_scale = max(worst_scale, max_rel(d2.values, d1.values))

    # applied update alpha*d invariant under d -> c*d at lambda = 0, no clip
    g = rng.normal(size=6)
    d = rng.normal(size=6)
    if g @ d < 0:
        d = -d
    curv = np.diag(rng.uniform(0.5, 4.0, size=6))
    worst_rescale = 0.0
    for c in (1e-6, 0.1, 7.0, 1e6):
        a1, _ = select_learning_rate(g @ d, d @ (curv @ d), d @ d, 0.0)
        dc = c * d
        a2, _ = select_learning_rate(g @ dc, dc @ (curv @ dc), dc @ dc, 0.0)
        worst_rescale = max(worst_rescale, max_rel(a2 * dc, a1 * d))

    # per-step bounds on representative runs
    bounds_ok = True
    for cfg, start in (
        (QLRConfig(curvature=CurvatureKind.HESSIAN), (1.0, -1.0)),
        (QLRConfig(curvature=CurvatureKind.HESSIAN, rescale_k=2.0), (-1.2, 1.5)),
    ):
        obj = rosenbrock_objective()
        state = QLRState.init(cfg, 2)
        params = ParamVector(np.array(start))
        for _ in range(150):
            params, state, diag = qlr_step(obj, params, None, state, cfg)
            bounds_ok &= LAMBDA_MIN <= state.lam <= 1e10
            bounds_ok &= 0.0 <= diag.alpha <= cfg.rescale_k * cfg.alpha_max
    elapsed = time.perf_counter() - t0
    ok = worst_scale <= 1e-10 and worst_rescale <= 1e-12 and bounds_ok and elapsed < 5.0
    report(
        5,
        ok,
        f"adam scale inv {worst_scale:.1e} (<=1e-10), update rescale inv {worst_rescale:.1e} "
        f"(<=1e-12), bounds {'held' if bounds_ok else 'VIOLATED'} in {elapsed:.2f}s (<5s)",
    )
    assert worst_scale <= 1e-10
    assert worst_rescale <= 1e-12
    assert bounds_ok
    assert elapsed < 5.0


def test_06_rosenbrock_reproduction():
    t0 = time.perf_counter()
    qlr = run_rosenbrock(preset_optimizer("adamqlr-untuned"), steps=200, start=(1.0, -1.0))
    gd = run_rosenbrock(preset_optimizer("gd", lr=1e-3), steps=200, start=(1.0, -1.0))
    elapsed = time.perf_counter() - t0
    f0 = qlr.points[0][3]
    final = qlr.final_f
    ok_threshold = final < 4.0
    ok_ratio = final < 0.1 * f0
    ok_gd = gd.final_f >= final
    ok = ok_threshold and ok_ratio and ok_gd and elapsed < 1.0
    report(
        6,
        ok,
        f"untuned final f {final:.4f} (<4, <0.1*{f0:.0f}); gd(1e-3) final f {gd.final_f:.4f} "
        f"({'does not beat' if ok_gd else 'BEATS'} it) in {elapsed:.2f}s (<1s)",
    )
    assert ok_threshold
    assert ok_ratio
    assert elapsed < 1.0
    # Reference observation at build time: plain GD with lr=1e-3 is at the
    # stability edge for this start and edges out the clipped untuned run
    # (0.4609 vs 0.4965 after 200 steps), so this stated clause fails.
    assert ok_gd, (
        f"plain GD (lr=1e-3) final f {gd.final_f:.4f} < untuned final f {final:.4f}"
    )


def test_07_energy_scale_training():
    t0 = time.perf_counter()
    cfg = config_mod.from_dict(
        {
            "model": {"kind": "mlp", "layer_widths": [8, 50, 1], "loss": "mse"},
            "dataset": {
                "loader": {"kind": "synthetic", "task": "regression", "n": 692, "d": 8,
                           "seed": 42, "noise": 0.1},
                "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1,
                          "seed": 0},
                "batch": {"batch_size": 3200, "shuffle_seed": 0},
                "standardize": True,
            },
            "optimizer": {"kind": "qlr"},
            "epochs": 400,
            "seed": 0,
        }
    )
    result, records = run_with_records(cfg)
    elapsed = time.perf_counter() - t0
    init, final = records[0].train_loss, records[-1].train_loss
    reduction = 1.0 - final / init
    rejected = sum(
        1 for r in records if r.guard_event is GuardEvent.STEP_REJECTED
    )
    lams = np.array([r.lam for r in records])
    lam_ok = bool(np.all(np.isfinite(lams)) and np.all(lams >= LAMBDA_MIN))
    ok = (
        result.status is RunStatus.COMPLETED
        and reduction >= 0.95
        and rejected == 0
        and lam_ok
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"status {result.status.value}, MSE reduction {reduction*100:.2f}% (>=95%), "
        f"rejected steps {rejected} (==0), lambda bounded {lam_ok} in {elapsed:.1f}s (<60s)",
    )
    assert result.status is RunStatus.COMPLETED
    assert reduction >= 0.95
    assert rejected == 0
    assert lam_ok
    assert elapsed < 60.0


def _classification_dataset_block():
    """Fashion-MNIST when the files are available, blob stand-in otherwise."""
    root = os.environ.get("ADAMQLR_FASHION_MNIST_DIR")
    if root:
        for img, lbl in (
            ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
        ):
            ip, lp = Path(root) / img, Path(root) / lbl
            if ip.exists() and lp.exists():
                return {"kind": "idx", "images_path": str(ip), "labels_path": str(lp)}, True
    return (
        {"kind": "synthetic", "task": "classification", "n": 6000, "d": 784,
         "seed": 10, "n_classes": 10},
        False,
    )


def test_08_classification_desk_run():
    t0 = time.perf_counter()
    loader, real_data = _classification_dataset_block()

    def cfg_for(optimizer):
        return config_mod.from_dict(
            {
                "model": {"kind": "mlp", "layer_widths": [784, 50, 10],
                          "loss": "softmax_cross_entropy"},
                "dataset": {
                    "loader": loader,
                    "split": {"train_fraction": 0.8, "val_fraction": 0.1,
                              "test_fraction": 0.1, "seed": 0},
                    "batch": {"batch_size": 3200, "shuffle_seed": 0},
                },
                "optimizer": optimizer,
                "epochs": 10,
                "seed": 0,
            }
        )

    def final_train_metrics(result, cfg):
        from adamqlr.bench.training import prepare_data

        train, _, _, _ = prepare_data(cfg.dataset)
        if real_data:
            train = train.take(np.arange(min(6000, len(train))))
        obj = mlp_objective(cfg.model)
        batch = train
        loss = eval_loss(obj, result.final_params, batch)
        outputs = obj.predict(result.final_params.values, batch.inputs)
        acc = float((outputs.argmax(axis=1) == batch.targets).mean())
        return loss, acc

    qlr_cfg = cfg_for({"kind": "qlr"})
    qlr_res = run_training(qlr_cfg)
    qlr_loss, qlr_acc = final_train_metrics(qlr_res, qlr_cfg)

    best_adam_loss, best_adam_acc = math.inf, 0.0
    for lr in (1e-4, 1e-3, 1e-2):
        cfg = cfg_for({"kind": "adam", "lr": lr})
        res = run_training(cfg)
        loss, acc = final_train_metrics(res, cfg)
        if loss < best_adam_loss:
            best_adam_loss, best_adam_acc = loss, acc

    elapsed = time.perf_counter() - t0
    ratio = qlr_loss / best_adam_loss
    ok = ratio <= 1.5 and qlr_acc >= 0.80 and best_adam_acc >= 0.80 and elapsed < 300.0
    source = "fashion-mnist" if real_data else "synthetic blobs"
    report(
        8,
        ok,
        f"[{source}] untuned loss {qlr_loss:.4f} vs best-Adam {best_adam_loss:.4f} "
        f"(ratio {ratio:.3f} <= 1.5); train acc {qlr_acc:.3f}/{best_adam_acc:.3f} (>=0.80) "
        f"in {elapsed:.0f}s (<300s)",
    )
    assert ratio <= 1.5
    assert qlr_acc >= 0.80
    assert best_adam_acc >= 0.80
    assert elapsed < 300.0


def test_09_bootstrap_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    runs = [rng.normal(size=4) for _ in range(5)]
    mean, std = bootstrap_trend(runs, n_boot=3, seed=7)
    o_mean, o_std = brute_force_bootstrap(runs, n_boot=3, seed=7)
    mean_exact = bool(np.array_equal(mean, o_mean))
    std_gap = float(np.max(np.abs(std - o_std)))
    elapsed = time.perf_counter() - t0
    ok = mean_exact and std_gap <= 1e-15 and elapsed < 1.0
    report(
        9,
        ok,
        f"mean exact={mean_exact}, std gap {std_gap:.1e} vs brute-force oracle "
        f"in {elapsed:.3f}s (<1s)",
    )
    assert mean_exact
    assert std_gap <= 1e-15
    assert elapsed < 1.0


def test_10_fisher_diagnostic(tmp_path):
    # dense oracle for the empirical Fisher diagonal on a linear-softmax model
    spec = MlpSpec((6, 3), LossKind.SOFTMAX_CROSS_ENTROPY)
    obj = mlp_objective(spec)
    params = mlp_init(spec, 4)
    rng = np.random.default_rng(9)
    batch = Batch(rng.normal(size=(8, 6)), rng.integers(0, 3, size=8))
    got = empirical_fisher_diag(obj, params, batch)
    dense = np.zeros(len(params))
    for i in range(len(batch)):
        _, g = eval_grad(obj, params, batch.take([i]))
        dense += g.values**2
    diag_err = float(np.max(np.abs(got.values - dense / len(batch))))

    # the command-level alignment on the frozen blob reference configuration
    cfg = {
        "model": {"kind": "mlp", "layer_widths": [20, 5], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "classification", "n": 500, "d": 20,
                       "seed": 3, "n_classes": 5, "separation": 2.0},
            "batch": {"batch_size": 4, "shuffle_seed": 0},
        },
        "optimizer": {"kind": "adam", "lr": 1e-3},
        "epochs": 1,
        "seed": 0,
    }
    cfg_path = tmp_path / "diag.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    rc = cli_main(["diag-fisher", "--config", str(cfg_path), "--steps", "100",
                   "--out", str(out_path)])
    rep = json.loads(out_path.read_text())
    cosine = rep["cosine_similarity"]
    ok = diag_err <= 1e-10 and rc == EXIT_OK and cosine > 0.9
    report(
        10,
        ok,
        f"diag vs dense oracle {diag_err:.1e} (<=1e-10); diag-fisher cosine {cosine:.4f} "
        f"(>0.9 after 100 Adam steps on blobs)",
    )
    assert diag_err <= 1e-10
    assert rc == EXIT_OK
    assert cosine > 0.9
