"""Open intent classification with soft labeling and noisy manifold mixup.

The package trains an (M+1)-way classifier over a compact from-scratch
text encoder in two stages: known-class pretraining, then joint training
that relocates target probability onto the open class while pushing
noisy mixed hidden-state pairs toward it. See the README for the CLI
workflow (split / pretrain / train / eval / report).
"""

__version__ = "0.1.0"

from .augment import inject_noise, mixup, sample_lambda
from .corpus import (
    Batch,
    Dataset,
    LabeledExample,
    PairedBatch,
    SplitSpec,
    Vocab,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_batches,
    make_split,
    pair_batches,
    subsample_labeled,
    tokenize,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .errors import CheckpointError, ConfigError, DataError, PairingError, SnoicError, TrainingError
from .losses import kl_loss, mixup_loss, pretrain_loss, softmax, total_loss
from .metrics import MetricsReport, confusion, evaluate
from .trainer import (
    Model,
    OptimizerState,
    TrainConfig,
    TrainLog,
    load_model,
    optimizer_step,
    predict,
    pretrain,
    save_model,
    threshold_baseline_predict,
    train_open,
    train_two_stage,
)

__all__ = [
    "__version__",
    "inject_noise",
    "mixup",
    "sample_lambda",
    "Batch",
    "Dataset",
    "LabeledExample",
    "PairedBatch",
    "SplitSpec",
    "Vocab",
    "apply_split",
    "build_vocab",
    "encode_dataset",
    "load_dataset",
    "make_batches",
    "make_split",
    "pair_batches",
    "subsample_labeled",
    "tokenize",
    "EncoderConfig",
    "EncoderParams",
    "forward",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "PairingError",
    "SnoicError",
    "TrainingError",
    "kl_loss",
    "mixup_loss",
    "pretrain_loss",
    "softmax",
    "total_loss",
    "MetricsReport",
    "confusion",
    "evaluate",
    "Model",
    "OptimizerState",
    "TrainConfig",
    "TrainLog",
    "load_model",
    "optimizer_step",
    "predict",
    "pretrain",
    "save_model",
    "threshold_baseline_predict",
    "train_open",
    "train_two_stage",
]
