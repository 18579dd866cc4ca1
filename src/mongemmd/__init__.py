"""Neural transport maps for the Monge problem with a kernel matching penalty.

The package trains a small fully connected network to push a source sample
onto a target sample by minimizing transport cost plus a squared maximum
mean discrepancy penalty, and ships an entropic-regularization Sinkhorn
baseline for comparison. See the README for the CLI and file formats.
"""

from .checkpoint import load_train_state, save_train_state
from .compare import CompareConfig, ComparisonRow, compare_runs, comparison_to_csv
from .config import EvalConfig, RunConfig, load_config
from .data import (
    DatasetFamily,
    DatasetSpec,
    generate,
    points_to_csv,
    read_points_csv,
    write_points_csv,
)
from .errors import InputError, NumericError
from .evaluation import (
    EvalReport,
    TranslationMap,
    evaluate,
    gaussian_optimal_map,
    map_deviation,
    w2_squared_gaussian,
)
from .kernel import (
    KernelFamily,
    KernelSpec,
    MaternOrder,
    kernel_eval,
    kernel_grad_x,
    kernel_gram,
)
from .loss import (
    LossValues,
    monge_mmd_loss,
    monge_mmd_loss_with_grad,
)
from .mmd import (
    mmd2_biased,
    mmd2_population_gaussian,
    mmd2_unbiased,
)
from .nn import (
    Activation,
    MlpParams,
    init_params,
    mlp_backward,
    mlp_forward_batch,
)
from .optim import AdamHyper, AdamState, adam_init, adam_step
from .sinkhorn import (
    Coupling,
    barycentric_map,
    default_epsilon,
    sinkhorn_solve,
    squared_distance_matrix,
)
from .train import LossHistory, TrainConfig, TrainState, epoch_rng, init_state, train

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AdamHyper",
    "AdamState",
    "CompareConfig",
    "ComparisonRow",
    "Coupling",
    "DatasetFamily",
    "DatasetSpec",
    "EvalConfig",
    "EvalReport",
    "InputError",
    "KernelFamily",
    "KernelSpec",
    "LossHistory",
    "LossValues",
    "MaternOrder",
    "MlpParams",
    "NumericError",
    "RunConfig",
    "TrainConfig",
    "TrainState",
    "TranslationMap",
    "adam_init",
    "adam_step",
    "barycentric_map",
    "compare_runs",
    "comparison_to_csv",
    "default_epsilon",
    "epoch_rng",
    "evaluate",
    "gaussian_optimal_map",
    "generate",
    "init_params",
    "init_state",
    "kernel_eval",
    "kernel_grad_x",
    "kernel_gram",
    "load_config",
    "load_train_state",
    "map_deviation",
    "mlp_backward",
    "mlp_forward_batch",
    "mmd2_biased",
    "mmd2_population_gaussian",
    "mmd2_unbiased",
    "monge_mmd_loss",
    "monge_mmd_loss_with_grad",
    "points_to_csv",
    "read_points_csv",
    "save_train_state",
    "sinkhorn_solve",
    "squared_distance_matrix",
    "train",
    "w2_squared_gaussian",
    "write_points_csv",
]
