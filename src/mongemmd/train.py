"""Mini-batch training of the transport map.

Each epoch draws fresh permutations of source and target, walks them in
aligned batches of ``batch_size`` (dropping the remainder), and applies one
Adam update per batch. The permutation for epoch e comes from its own child
generator, ``default_rng(SeedSequence(seed, spawn_key=(SHUFFLE_STREAM, e)))``,
so shuffling is a pure function of (seed, epoch). That is what makes resuming
from a checkpoint after epoch k bit-identical to the uninterrupted run: no
generator state needs to survive the restart.

Recorded history is one row per epoch with batch-averaged objective, full
unbiased squared MMD, and mean transport cost.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, NumericError
from .kernel import KernelSpec
from .loss import LossValues, _evaluate
from .nn import Activation, MlpParams, init_params
from .optim import AdamHyper, AdamState, adam_init, adam_step
from .util import as_point_pair, check_settings, setting

SHUFFLE_STREAM = 1


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run; ``kernel`` and ``optimizer`` come from
    the config's ``kernel`` section and the ``train`` section's Adam keys."""

    epochs: int = setting(3000, "full passes over the data", at_least=0)
    batch_size: int = setting(500, "points per update; the data size gives one batch per epoch",
                              at_least=2)
    inv_lambda: float = setting(1e-6, "cost weight 1/lambda; 0 trains pure matching", at_least=0)
    kernel: KernelSpec = KernelSpec()
    hidden_widths: tuple[int, ...] = setting((64,), "hidden layer sizes", at_least=1)
    hidden_activation: Activation = setting(Activation.RELU, "hidden layer activation")
    optimizer: AdamHyper = AdamHyper()
    seed: int = setting(0, "network init and shuffling seed", at_least=0)
    shuffle: bool = setting(True, "reshuffle source and target every epoch")

    __post_init__ = check_settings


@dataclass
class TrainState:
    """Everything needed to continue training exactly where it stopped."""

    params: MlpParams
    optimizer: AdamState
    epoch: int = 0


@dataclass
class LossHistory:
    """Per-epoch averages; ``epochs[i]`` is the 1-based absolute epoch index."""

    epochs: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    mmd2: list[float] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)

    def append(self, epoch: int, values: LossValues) -> None:
        self.epochs.append(epoch)
        self.objective.append(values.objective)
        self.mmd2.append(values.mmd2)
        self.cost.append(values.mean_cost)

    def extend(self, other: "LossHistory") -> None:
        self.epochs.extend(other.epochs)
        self.objective.extend(other.objective)
        self.mmd2.extend(other.mmd2)
        self.cost.extend(other.cost)

    def __len__(self) -> int:
        return len(self.epochs)

    def through(self, epoch: int) -> "LossHistory":
        """The rows of epochs 1..``epoch``; InputError unless they are exactly those, in order."""
        rows = [r for r in zip(self.epochs, self.objective, self.mmd2, self.cost) if r[0] <= epoch]
        if [r[0] for r in rows] != list(range(1, epoch + 1)):
            missing = sorted(set(range(1, epoch + 1)).difference(r[0] for r in rows))
            shown = ", ".join(map(str, missing[:8])) + (", ..." if len(missing) > 8 else "")
            raise InputError(f"loss history does not hold epochs 1..{epoch} once each, in order;"
                             f" missing: {shown or 'none'}")
        return LossHistory(*map(list, zip(*rows)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,objective,mmd2,cost\n")
        for e, o, m, c in zip(self.epochs, self.objective, self.mmd2, self.cost):
            buf.write(f"{e},{o:.17g},{m:.17g},{c:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "LossHistory":
        lines = text.strip().splitlines()
        if not lines or lines[0] != "epoch,objective,mmd2,cost":
            raise InputError("loss history must start with the epoch,objective,mmd2,cost header")
        hist = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                e, o, m, c = line.split(",")
                hist.append(int(e), LossValues(float(o), float(m), float(c)))
            except ValueError as exc:
                raise InputError(
                    f"loss history line {lineno}: expected 4 numbers, got {line!r}"
                ) from exc
        return hist


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Child generator for one epoch's shuffling, independent of all others."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(SHUFFLE_STREAM, epoch)))


def init_state(config: TrainConfig, dim: int) -> TrainState:
    """Fresh network and optimizer for d-dimensional data, seeded from config."""
    widths = (dim,) + config.hidden_widths + (dim,)
    params = init_params(widths, config.hidden_activation, seed=config.seed)
    return TrainState(params=params, optimizer=adam_init(params, config.optimizer), epoch=0)


def train(
    config: TrainConfig,
    source,
    target,
    state: TrainState | None = None,
    progress: Callable[[int, LossValues], None] | None = None,
) -> tuple[TrainState, LossHistory]:
    """Run epochs ``state.epoch + 1 .. config.epochs`` and return the final state.

    Pass ``state`` from a loaded checkpoint to resume; the default starts
    from freshly initialized parameters. ``progress``, if given, is called
    after every epoch with its index and averaged loss values. The inputs
    are validated here, once; every batch then goes to the unchecked loss.
    """
    source, target = as_point_pair(source, target, ("source", "target"))
    n_pairs = min(source.shape[0], target.shape[0])
    if config.batch_size > n_pairs:
        raise InputError(
            f"batch_size {config.batch_size} exceeds the smaller sample size {n_pairs}"
        )
    if state is None:
        state = init_state(config, source.shape[1])
    if state.params.input_dim != source.shape[1]:
        raise InputError(
            f"state expects dimension {state.params.input_dim}, data has {source.shape[1]}"
        )
    if state.epoch > config.epochs:
        raise InputError(f"state is already past epoch {config.epochs} (at {state.epoch})")

    params = state.params
    opt = state.optimizer
    history = LossHistory()
    n_batches = n_pairs // config.batch_size
    for epoch in range(state.epoch + 1, config.epochs + 1):
        if config.shuffle:
            rng = epoch_rng(config.seed, epoch)
            order_x = rng.permutation(source.shape[0])
            order_y = rng.permutation(target.shape[0])
        else:
            order_x = np.arange(source.shape[0])
            order_y = np.arange(target.shape[0])
        tot = np.zeros(3)
        for b in range(n_batches):
            sl = slice(b * config.batch_size, (b + 1) * config.batch_size)
            try:
                values, grads = _evaluate(params, source[order_x[sl]], target[order_y[sl]],
                                          config.kernel, config.inv_lambda, want_grad=True)
                opt, params = adam_step(opt, params, grads)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {b}: {exc}") from exc
            tot += np.array(values)
        mean = LossValues(*(tot / n_batches))
        history.append(epoch, mean)
        if progress is not None:
            progress(epoch, mean)
    return TrainState(params=params, optimizer=opt, epoch=config.epochs), history
