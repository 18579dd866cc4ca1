"""A minimal multilayer perceptron: parameters, forward pass, exact gradients.

The network is the transport map: layer l applies an affine map followed by
its activation, and the output layer is affine (identity activation) so the
map can reach arbitrary targets. Input and output dimension are equal by
construction. Reverse-mode gradients are computed by the standard chain rule
with batch contributions accumulated in fixed index order.

``MlpParams`` is the only type that knows the layer layout. Parameters live
in one float64 vector ``flat``; gradients and Adam moments are plain vectors
of the same shape, and ``MlpParams.split`` gives any of them per-layer views.
Layer widths alone fix the layout, so ``n_params`` and ``from_flat`` take only widths.
Public constructors and functions validate; the private ``_with_flat``,
``_forward_checked`` and ``_backward`` do not.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .util import _typed, as_points


class Activation(str, Enum):
    RELU = "relu"
    TANH = "tanh"
    IDENTITY = "identity"


def _activation(name) -> Activation:
    try:
        return Activation(name)
    except ValueError as exc:
        raise InputError(f"unknown activation {name!r}; expected relu, tanh or identity") from exc


def _apply(act: Activation, a: np.ndarray) -> None:
    """Apply the activation to ``a`` in place."""
    if act is Activation.RELU:
        np.maximum(a, 0.0, out=a)
    elif act is Activation.TANH:
        np.tanh(a, out=a)


def _derivative(act: Activation, post: np.ndarray, out: np.ndarray) -> np.ndarray | None:
    """Activation derivative from the layer's output, written into ``out``, or None for
    identity (multiplying by ones is wasted work). ReLU's ``post > 0`` is ``pre > 0``,
    as max(a, 0) > 0 iff a > 0."""
    if act is Activation.RELU:
        return np.greater(post, 0.0, out=out)
    if act is Activation.TANH:
        return np.subtract(1.0, np.multiply(post, post, out=out), out=out)
    return None


class MlpParams:
    """Transport-map network parameters, and the one owner of the layer layout.

    ``flat`` is one contiguous float64 vector holding w0, b0, w1, b1, ... in
    C order; ``widths`` runs input, hidden..., output, and fixes every shape.
    ``weights[l]`` has shape (m_l, m_{l-1}) and ``biases[l]`` shape (m_l,),
    both views of ``flat``; ``activations[l]`` is applied after layer l's
    affine map (identity on the output layer when built by ``init_params``).
    Gradients and Adam moments are plain vectors shaped like ``flat``, and
    ``split`` unpacks any of them per layer. The constructor validates and
    copies the arrays into ``flat``.
    """

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations) >= 1):
            raise InputError("weights, biases and activations must align, one entry per layer")
        self.activations = [_activation(a) for a in activations]
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise InputError(f"layer {i}: weight {w.shape} and bias {b.shape} do not align")
            if min(w.shape) < 1:
                raise InputError(f"layer {i}: weight {w.shape} has a dimension < 1")
            if i and w.shape[1] != weights[i - 1].shape[0]:
                raise InputError(f"layer {i}: expected {weights[i - 1].shape[0]} input columns, "
                                 f"got {w.shape[1]}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InputError(f"layer {i}: non-finite parameter entries")
        self.widths = (weights[0].shape[1],) + tuple(w.shape[0] for w in weights)
        self.flat = np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb])
        if self.output_dim != self.input_dim:
            raise InputError(
                f"transport map must preserve dimension, got {self.input_dim} -> {self.output_dim}"
            )

    @classmethod
    def from_flat(cls, widths: Sequence[int], activations, flat) -> "MlpParams":
        """The network of layer ``widths`` over a copy of ``flat``, checked by the constructor."""
        views = _tile(widths, np.asarray(flat, dtype=np.float64), n_params(widths))
        return cls([w for w, _ in views], [b for _, b in views], activations)

    def _with_flat(self, flat: np.ndarray) -> "MlpParams":
        """This network's widths and activations over another flat vector, without any check."""
        obj = MlpParams.__new__(MlpParams)
        obj.__dict__.update(flat=flat, widths=self.widths, activations=list(self.activations))
        return obj

    def split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weights, biases) views of ``vec``, a vector laid out like ``flat``."""
        return _tile(self.widths, vec, self.flat.size)

    @functools.cached_property
    def _views(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        return tuple(zip(*self.split(self.flat)))

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._views[0]

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._views[1]

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    def copy(self) -> "MlpParams":
        return self._with_flat(self.flat.copy())


def n_params(widths: Sequence[int]) -> int:
    """The length of ``flat`` for layer widths input, hidden..., output (exact for any ints)."""
    return sum(m * (k + 1) for k, m in zip(widths[:-1], widths[1:]))


def _tile(widths: Sequence[int], vec: np.ndarray, size: int) -> list[tuple[np.ndarray, ...]]:
    """Per-layer (weights, biases) views of ``vec``, laid out w0, b0, w1, b1, ... in C order;
    ``size`` is ``n_params(widths)``, the only length ``vec`` may have."""
    if np.shape(vec) != (size,):
        raise InputError(f"expected a vector of {size} parameters, got shape {np.shape(vec)}")
    views, end = [], 0
    for k, m in zip(widths[:-1], widths[1:]):
        start, mid, end = end, end + m * k, end + m * (k + 1)
        views.append((vec[start:mid].reshape(m, k), vec[mid:end]))
    return views


def init_params(
    widths: Sequence[int],
    hidden_activation: Activation = Activation.RELU,
    seed: int = 0,
) -> MlpParams:
    """Build a network with the given layer widths, deterministically from seed.

    ``widths`` runs input through hidden layers to output and must begin and
    end with the data dimension d. Weights are uniform on
    [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero. Hidden layers use
    ``hidden_activation``; the output layer is always identity.
    """
    widths = _typed(tuple[int, ...], widths, "widths")
    if len(widths) < 2:
        raise InputError(f"need at least input and output widths, got {widths}")
    if any(v < 1 for v in widths):
        raise InputError(f"all widths must be >= 1, got {widths}")
    if widths[0] != widths[-1]:
        raise InputError(f"input and output dimension must match, got {widths}")
    hidden_activation = _activation(hidden_activation)
    rng = np.random.default_rng(seed)
    weights, biases, acts = [], [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
        acts.append(hidden_activation)
    acts[-1] = Activation.IDENTITY
    return MlpParams(weights, biases, acts)


class _PassPlan:
    """The arrays that passes of ``batch`` points through a network of ``widths`` write:
    every layer's output and, with ``want_grad``, every layer's backward delta and
    activation derivative, and the gradient vector with its per-layer views, split
    once. Built once, it serves every pass of that shape; each pass overwrites it."""

    def __init__(self, widths: Sequence[int], batch: int, want_grad: bool = False):
        self.outs = [None] + [np.empty((batch, w)) for w in widths[1:]]
        if want_grad:
            self.deltas = [np.empty((batch, w)) for w in widths[1:]]
            self.dacts = [np.empty((batch, w)) for w in widths[1:]]
            self.grads = np.empty(n_params(widths))
            self.layers = _tile(widths, self.grads, self.grads.size)


def _forward_checked(params: MlpParams, X: np.ndarray,
                     plan: _PassPlan | None = None) -> list[np.ndarray]:
    """Forward pass on validated points: every layer's output, ``[X, h_1, ..., T(X)]``,
    written into ``plan`` (a one-use plan without one); refuses a non-finite output
    with NumericError."""
    if plan is None:
        plan = _PassPlan(params.widths, X.shape[0])
    outs = plan.outs
    outs[0] = X
    for l, (w, b, act) in enumerate(zip(params.weights, params.biases, params.activations)):
        h = np.matmul(outs[l], w.T, out=outs[l + 1])
        h += b
        _apply(act, h)
    if not np.isfinite(outs[-1]).all():
        raise NumericError("forward pass produced non-finite values")
    return outs


def mlp_forward_batch(params: MlpParams, X) -> np.ndarray:
    """Apply the map to every row of X; returns an array of the same shape."""
    X = as_points(X, "X")
    if X.shape[1] != params.input_dim:
        raise InputError(f"expected dimension {params.input_dim}, got {X.shape[1]}")
    return _forward_checked(params, X)[-1]


def mlp_backward(params: MlpParams, X, upstream) -> np.ndarray:
    """Parameter gradients of sum_i <upstream_i, T(X_i)>, as a vector shaped like ``params.flat``.

    ``upstream`` holds one d-vector per input point (the loss gradient with
    respect to that point's image); the result accumulates over the batch,
    and ``params.split`` unpacks it per layer. A forward pass with a
    non-finite output raises NumericError.
    """
    X = as_points(X, "X")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], params.output_dim):
        raise InputError(
            f"upstream shape {upstream.shape} does not match "
            f"({X.shape[0]}, {params.output_dim})"
        )
    if X.shape[1] != params.input_dim:
        raise InputError(f"expected dimension {params.input_dim}, got {X.shape[1]}")
    plan = _PassPlan(params.widths, X.shape[0], want_grad=True)
    return _backward(params, _forward_checked(params, X, plan), upstream, plan)


def _backward(params: MlpParams, outs: list[np.ndarray], upstream: np.ndarray,
              plan: _PassPlan) -> np.ndarray:
    """``mlp_backward`` from the ``_forward_checked`` result of the same points, into
    ``plan``'s gradient vector, which it returns; ``upstream`` is left unchanged."""
    delta = upstream
    for l in range(params.n_layers - 1, -1, -1):
        dact = _derivative(params.activations[l], outs[l + 1], plan.dacts[l])
        if dact is not None:
            delta = np.multiply(delta, dact, out=plan.deltas[l])
        np.matmul(delta.T, outs[l], out=plan.layers[l][0])
        np.add.reduce(delta, axis=0, out=plan.layers[l][1])
        if l > 0:
            delta = np.matmul(delta, params.weights[l], out=plan.deltas[l - 1])
    return plan.grads
