"""Diagnostics relating Adam's internal buffers to empirical curvature."""

from __future__ import annotations

import itertools

from .. import data, models, optim
from .config import AdamOpt, ConfigError, RunConfig
from .training import check_model_fits, make_stepper, prepare_data

REFERENCE_BATCH_ROWS = 256


def fisher_alignment(cfg: RunConfig, steps: int = 100) -> dict:
    """Train Adam for `steps` mini-batch steps, then compare its
    bias-corrected second-moment buffer against the empirical Fisher
    diagonal (mean squared per-example gradient) on a reference batch.

    Returns cosine similarity and the spread (std) of elementwise log
    ratios, plus run bookkeeping.
    """
    if not isinstance(cfg.optimizer, AdamOpt):
        raise ConfigError("fisher alignment diagnostic requires the adam optimizer")
    if not isinstance(cfg.model, models.MlpSpec):
        raise ConfigError("fisher alignment diagnostic requires an MLP model")
    if steps < 1:
        raise ConfigError("steps must be >= 1")

    train, _, _, _ = prepare_data(cfg.dataset)
    check_model_fits(cfg.model, train)
    obj = models.mlp_objective(cfg.model)
    params = models.mlp_init(cfg.model, cfg.seed)
    stepper = make_stepper(cfg.optimizer, len(params))

    stream = itertools.chain.from_iterable(
        data.batch_iter(train, cfg.dataset.batch, epoch) for epoch in itertools.count()
    )
    for batch in itertools.islice(stream, steps):
        params, _ = stepper.step(obj, params, batch)

    n_ref = min(REFERENCE_BATCH_ROWS, len(train))
    ref = train.take(slice(n_ref))
    fisher_diag = optim.empirical_fisher_diag(obj, params, ref)
    v_hat = optim.bias_corrected_v(stepper.state, cfg.optimizer.hyper)
    cosine, spread = optim.fisher_adam_alignment(fisher_diag, v_hat)
    return {
        "cosine_similarity": cosine,
        "log_ratio_spread": spread,
        "steps": steps,
        "n_params": len(params),
        "reference_rows": n_ref,
    }
