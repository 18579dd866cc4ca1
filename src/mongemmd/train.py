"""Mini-batch training of the transport map.

Each epoch draws fresh permutations of source and target, walks them in
aligned batches of ``batch_size`` (dropping the remainder), and applies one
Adam update per batch. The permutation for epoch e comes from its own child
generator, ``default_rng(SeedSequence(seed, spawn_key=(SHUFFLE_STREAM, e)))``,
so shuffling is a pure function of (seed, epoch). That is what makes resuming
from a checkpoint after epoch k bit-identical to the uninterrupted run: no
generator state needs to survive the restart.

A run is one ``TrainState``, from ``init_state`` through ``train`` to the checkpoint
and back. Its history holds one row for each of epochs 1..epoch: the batch-averaged
objective, squared MMD and mean transport cost. A batch's ``mmd2`` is its unbiased
statistic with the target-only term taken from the same batch index of epoch 1's
order: those terms are computed once per ``train`` call, so a step makes one kernel
walk (images against images ‖ targets), and any U-statistic over target points
estimates E K(Y, Y') without bias. Epoch 1's row, and every row without shuffling,
equals the batch statistic itself.

Every step of a ``train`` call has the same shapes, so the call sets them up once:
one step plan (``loss._step_plan``: the network passes' arrays, the gradient vector
and the kernel walk's workspace) and its own copies of the parameters and Adam
moments, which the in-place Adam core updates. Each epoch gathers its batches with
one fancy index per set. The bits are those of the public loss and ``adam_step``,
and a step that fails leaves the caller's state as it was.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .kernel import KernelSpec
from .loss import LossValues, _evaluate, _step_plan
from .mmd import _target_term
from .nn import Activation, MlpParams, init_params
from .optim import AdamHyper, AdamState, _adam_update, _moment_copies, adam_init
from .util import _typed, as_point_pair, check_settings, setting

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

    def __len__(self) -> int:
        return len(self.epochs)

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
                epoch, values = int(e), LossValues(float(o), float(m), float(c))
            except ValueError as exc:
                raise InputError(
                    f"loss history line {lineno}: expected 4 numbers, got {line!r}"
                ) from exc
            if not np.isfinite(values).all():
                raise InputError(f"loss history line {lineno}: non-finite value in {line!r}")
            hist.append(epoch, values)
        return hist


class TrainState(NamedTuple):
    """One run: everything needed to continue training exactly where it stopped."""

    params: MlpParams
    optimizer: AdamState
    epoch: int
    history: LossHistory


def _checked_epoch(state: TrainState, owner: str) -> int:
    """``state.epoch`` as an int; InputError naming ``owner`` for a non-integer or negative
    epoch, or a history that is not exactly epochs 1..epoch, one value per column each."""
    epoch = _typed(int, state.epoch, f"{owner}: epoch")
    if epoch < 0:
        raise InputError(f"{owner}: epoch must be >= 0, got {epoch}")
    h = state.history
    # Shapes first: list() of a 1-d array of the right length compares entry by entry.
    if any(np.shape(c) != (epoch,) for c in (h.epochs, h.objective, h.mmd2, h.cost)) or (
            list(h.epochs) != list(range(1, epoch + 1))):
        raise InputError(f"{owner}: the loss history must hold exactly epochs 1..{epoch}")
    return epoch


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Child generator for one epoch's shuffling, independent of all others."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(SHUFFLE_STREAM, epoch)))


def _epoch_order(config: TrainConfig, n_source: int, n_target: int, epoch: int):
    """The source and target row orders of ``epoch``; the data order without shuffling."""
    if not config.shuffle:
        return np.arange(n_source), np.arange(n_target)
    rng = epoch_rng(config.seed, epoch)
    return rng.permutation(n_source), rng.permutation(n_target)


def init_state(config: TrainConfig, dim: int) -> TrainState:
    """Fresh network and optimizer for d-dimensional data, seeded from config."""
    widths = (dim,) + config.hidden_widths + (dim,)
    params = init_params(widths, config.hidden_activation, seed=config.seed)
    return TrainState(params, adam_init(params, config.optimizer), 0, LossHistory())


def _contradictions(config: TrainConfig, state: TrainState) -> list[str]:
    """The settings the state was built under that ``config`` changes, one
    ``key: checkpoint ..., config ...`` entry each; empty when it may continue."""
    acts = sorted({a.value for a in state.params.activations[:-1]})
    want = config.hidden_activation.value
    held = {"hidden_widths": (list(state.params.widths[1:-1]), list(config.hidden_widths)),
            "hidden_activation": ("/".join(acts) or want, want)}
    for f in fields(config.optimizer):
        held[f.metadata["key"] or f.name] = (getattr(state.optimizer.hyper, f.name),
                                             getattr(config.optimizer, f.name))
    return [f"train.{key}: checkpoint {ours}, config {theirs}"
            for key, (ours, theirs) in held.items() if ours != theirs]


def train(
    config: TrainConfig,
    source,
    target,
    state: TrainState | None = None,
    progress: Callable[[int, LossValues], None] | None = None,
) -> TrainState:
    """Run epochs ``state.epoch + 1 .. config.epochs`` and return the final state.

    Pass ``state`` from a loaded checkpoint to resume; it is left unchanged, and the
    result's history copies its rows, then adds this call's. The default starts fresh.
    A state whose history is not epochs 1..epoch, or whose network or Adam settings
    ``config`` changes (each key named), is refused with InputError before any step.
    ``progress``, if given, is called after every epoch with its index and
    averaged loss values. The inputs are validated here, once; every batch
    then goes to the unchecked loss.
    """
    source, target = as_point_pair(source, target, ("source", "target"))
    n_pairs = min(source.shape[0], target.shape[0])
    if config.batch_size > n_pairs:
        raise InputError(
            f"batch_size {config.batch_size} exceeds the smaller sample size {n_pairs}"
        )
    if state is None:
        state = init_state(config, source.shape[1])
    start = _checked_epoch(state, "state")
    if state.params.input_dim != source.shape[1]:
        raise InputError(
            f"state expects dimension {state.params.input_dim}, data has {source.shape[1]}"
        )
    if start > config.epochs:
        raise InputError(f"state is already past epoch {config.epochs} (at {start})")
    changed = _contradictions(config, state)
    if changed:
        raise InputError("cannot resume: the config changes settings the checkpoint was"
                         " trained with (" + "; ".join(changed) + ")")

    h, hyper, batch = state.history, state.optimizer.hyper, config.batch_size
    history = LossHistory(list(h.epochs), list(h.objective), list(h.mmd2), list(h.cost))
    # This call's own parameters and moments, updated in place step by step; a
    # failed step leaves ``state`` as it was.
    params = state.params.copy()
    m, v = _moment_copies(state.optimizer, params.flat.size)
    t = state.optimizer.step_count
    n_batches = n_pairs // batch
    k = n_batches * batch
    sizes = source.shape[0], target.shape[0]
    yy = []  # the target term of batch b of epoch 1's order, reported for batch b of every epoch
    if start < config.epochs:
        order_y = _epoch_order(config, *sizes, 1)[1]
        yy = [_target_term(config.kernel, target[order_y[i:i + batch]])
              for i in range(0, k, batch)]
        plan = _step_plan(params, batch, batch, True)
    for epoch in range(start + 1, config.epochs + 1):
        order_x, order_y = _epoch_order(config, *sizes, epoch)
        xs, ys = source[order_x[:k]], target[order_y[:k]]
        objective = mmd2 = cost = 0.0
        for b in range(n_batches):
            i = b * batch
            try:
                values, grads = _evaluate(params, xs[i:i + batch], ys[i:i + batch],
                                          config.kernel, config.inv_lambda, True, yy[b], plan)
                t += 1
                _adam_update(hyper, t, params.flat, m, v, grads)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {b}: {exc}") from exc
            objective += values.objective
            mmd2 += values.mmd2
            cost += values.mean_cost
        mean = LossValues(objective / n_batches, mmd2 / n_batches, cost / n_batches)
        history.append(epoch, mean)
        if progress is not None:
            progress(epoch, mean)
    return TrainState(params, AdamState(hyper, m, v, t), config.epochs, history)
