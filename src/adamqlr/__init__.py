"""Adam update directions with quadratic-model learning-rate selection
and Levenberg-Marquardt damping, plus the autodiff, model, data and
benchmarking machinery to run desk-scale experiments."""

from .autodiff import (
    CurvatureKind,
    EvalOverflowError,
    LossKind,
    Objective,
    curvature_vp,
    eval_grad,
    eval_loss,
    fd_grad,
)
from .data import Batch, BatchPlan, SplitSpec, Task
from .models import (
    Activation,
    MlpSpec,
    RosenbrockSpec,
    mlp_init,
    mlp_objective,
    rosenbrock_objective,
)
from .optim import (
    AdamHyper,
    AdamState,
    Direction,
    GuardEvent,
    QLRConfig,
    QLRState,
    StepDiagnostics,
    adam_direction,
    qlr_step,
    sgd_step,
)
from .params import NonFiniteError, ParamVector

__version__ = "0.1.0"
