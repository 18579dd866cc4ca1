"""A minimal multilayer perceptron: parameters, forward pass, exact gradients.

The network is the transport map: layer l applies an affine map followed by
its activation, and the output layer is affine (identity activation) so the
map can reach arbitrary targets. Input and output dimension are equal by
construction. Reverse-mode gradients are computed by the standard chain rule
with batch contributions accumulated in fixed index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .util import as_points


class Activation(str, Enum):
    RELU = "relu"
    TANH = "tanh"
    IDENTITY = "identity"


def _apply(act: Activation, a: np.ndarray) -> np.ndarray:
    if act is Activation.RELU:
        return np.maximum(a, 0.0)
    if act is Activation.TANH:
        return np.tanh(a)
    return a


def _derivative(act: Activation, pre: np.ndarray, post: np.ndarray) -> np.ndarray | None:
    """Activation derivative, or None for identity (multiplying by ones is wasted work)."""
    if act is Activation.RELU:
        return (pre > 0.0).astype(np.float64)
    if act is Activation.TANH:
        return 1.0 - post * post
    return None


@dataclass
class MlpParams:
    """Transport-map network parameters.

    ``weights[l]`` has shape (m_l, m_{l-1}) and ``biases[l]`` shape (m_l,);
    ``activations[l]`` is applied after layer l's affine map. The final
    activation is identity when built through ``init_params``.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[Activation]

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations) >= 1):
            raise InputError("weights, biases and activations must align, one entry per layer")
        self.activations = [Activation(a) for a in self.activations]
        prev = None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise InputError(f"layer {i}: weight {w.shape} and bias {b.shape} do not align")
            if prev is not None and w.shape[1] != prev:
                raise InputError(f"layer {i}: expected {prev} input columns, got {w.shape[1]}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InputError(f"layer {i}: non-finite parameter entries")
            prev = w.shape[0]
        if self.output_dim != self.input_dim:
            raise InputError(
                f"transport map must preserve dimension, got {self.input_dim} -> {self.output_dim}"
            )

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(w.shape[0] for w in self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.activations),
        )


@dataclass
class ParamGrads:
    """Per-parameter gradients (or any parameter-shaped accumulator)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "ParamGrads":
        return cls(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )

    def arrays(self):
        """All arrays in a fixed order (weights then bias, layer by layer)."""
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


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
    widths = tuple(int(v) for v in widths)
    if len(widths) < 2:
        raise InputError(f"need at least input and output widths, got {widths}")
    if any(v < 1 for v in widths):
        raise InputError(f"all widths must be >= 1, got {widths}")
    if widths[0] != widths[-1]:
        raise InputError(f"input and output dimension must match, got {widths}")
    hidden_activation = Activation(hidden_activation)
    rng = np.random.default_rng(seed)
    weights, biases, acts = [], [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
        acts.append(hidden_activation)
    acts[-1] = Activation.IDENTITY
    return MlpParams(weights, biases, acts)


def _forward_cached(params: MlpParams, X: np.ndarray):
    """Forward pass keeping per-layer inputs and pre/post activations."""
    h = X
    inputs, pres, posts = [], [], []
    for w, b, act in zip(params.weights, params.biases, params.activations):
        inputs.append(h)
        a = h @ w.T + b
        h = _apply(act, a)
        pres.append(a)
        posts.append(h)
    return h, inputs, pres, posts


def _forward_checked(params: MlpParams, X: np.ndarray):
    """``_forward_cached`` on validated points, refusing a non-finite output."""
    cache = _forward_cached(params, X)
    if not np.all(np.isfinite(cache[0])):
        raise NumericError("forward pass produced non-finite values")
    return cache


def mlp_forward_batch(params: MlpParams, X) -> np.ndarray:
    """Apply the map to every row of X; returns an array of the same shape."""
    X = as_points(X, "X")
    if X.shape[1] != params.input_dim:
        raise InputError(f"expected dimension {params.input_dim}, got {X.shape[1]}")
    return _forward_checked(params, X)[0]


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Apply the map to a single d-dimensional point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a 1-d point, got shape {x.shape}")
    return mlp_forward_batch(params, x[None, :])[0]


def mlp_backward(params: MlpParams, X, upstream) -> ParamGrads:
    """Parameter gradients of sum_i <upstream_i, T(X_i)>.

    ``upstream`` holds one d-vector per input point (the loss gradient with
    respect to that point's image); the result accumulates over the batch.
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
    return _backward(params, _forward_cached(params, X), upstream)


def _backward(params: MlpParams, cache, upstream: np.ndarray) -> ParamGrads:
    """``mlp_backward`` from the ``_forward_cached`` result of the same points."""
    _, inputs, pres, posts = cache
    grads = ParamGrads.zeros_like(params)
    delta = upstream
    for l in range(params.n_layers - 1, -1, -1):
        dact = _derivative(params.activations[l], pres[l], posts[l])
        if dact is not None:
            delta = delta * dact
        grads.weights[l] = delta.T @ inputs[l]
        grads.biases[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ params.weights[l]
    return grads
