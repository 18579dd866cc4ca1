"""A minimal multilayer perceptron: parameters, forward pass, exact gradients.

The network is the transport map: layer l applies an affine map followed by
its activation, and the output layer is affine (identity activation) so the
map can reach arbitrary targets. Input and output dimension are equal by
construction. Reverse-mode gradients are computed by the standard chain rule
with batch contributions accumulated in fixed index order.

Parameters, gradients and Adam moments share one layout: one float64 vector
``flat`` with per-layer views. Public constructors and functions validate;
the private ``_wrap``, ``_forward_checked`` and ``_backward`` do not.
"""

from __future__ import annotations

import functools
import math
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


def _derivative(act: Activation, post: np.ndarray) -> np.ndarray | None:
    """Activation derivative from the layer's output, or None for identity (multiplying by
    ones is wasted work). ReLU's ``post > 0`` is ``pre > 0``, as max(a, 0) > 0 iff a > 0."""
    if act is Activation.RELU:
        return (post > 0.0).astype(np.float64)
    if act is Activation.TANH:
        return 1.0 - post * post
    return None


class _FlatLayers:
    """Per-layer arrays copied into one contiguous float64 vector ``flat`` (w0, b0, w1, ...).

    ``layout`` holds each layer's (weight shape, bias shape); ``weights`` and
    ``biases`` are views of ``flat``, built on first read.
    """

    def __init__(self, weights, biases):
        pairs = zip(weights, biases, strict=True)
        self.layout = tuple((np.shape(w), np.shape(b)) for w, b in pairs)
        self.flat = np.empty(sum(math.prod(ws) + math.prod(bs) for ws, bs in self.layout))
        for view, a in zip(self.weights + self.biases, list(weights) + list(biases)):
            view[...] = a

    @classmethod
    def _wrap(cls, flat: np.ndarray, layout, **fields):
        """An instance over an existing flat vector, without any check."""
        obj = cls.__new__(cls)
        obj.__dict__.update(fields, flat=flat, layout=layout)
        return obj

    @functools.cached_property
    def _views(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        weights, biases, end = [], [], 0
        for w_shape, b_shape in self.layout:
            start, mid = end, end + math.prod(w_shape)
            end = mid + math.prod(b_shape)
            weights.append(self.flat[start:mid].reshape(w_shape))
            biases.append(self.flat[mid:end].reshape(b_shape))
        return tuple(weights), tuple(biases)

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._views[0]

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._views[1]

    def arrays(self):
        """All arrays in a fixed order (weights then bias, layer by layer)."""
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


class MlpParams(_FlatLayers):
    """Transport-map network parameters.

    ``weights[l]`` has shape (m_l, m_{l-1}) and ``biases[l]`` shape (m_l,);
    ``activations[l]`` is applied after layer l's affine map. The final
    activation is identity when built through ``init_params``. The
    constructor validates and copies the arrays into ``flat``.
    """

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations) >= 1):
            raise InputError("weights, biases and activations must align, one entry per layer")
        self.activations = [Activation(a) for a in activations]
        prev = None
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise InputError(f"layer {i}: weight {w.shape} and bias {b.shape} do not align")
            if prev is not None and w.shape[1] != prev:
                raise InputError(f"layer {i}: expected {prev} input columns, got {w.shape[1]}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InputError(f"layer {i}: non-finite parameter entries")
            prev = w.shape[0]
        super().__init__(weights, biases)
        if self.output_dim != self.input_dim:
            raise InputError(
                f"transport map must preserve dimension, got {self.input_dim} -> {self.output_dim}"
            )

    @property
    def input_dim(self) -> int:
        return self.layout[0][0][1]

    @property
    def output_dim(self) -> int:
        return self.layout[-1][0][0]

    @property
    def n_layers(self) -> int:
        return len(self.layout)

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(ws[0] for ws, _ in self.layout)

    def copy(self) -> "MlpParams":
        return MlpParams._wrap(self.flat.copy(), self.layout, activations=list(self.activations))


class ParamGrads(_FlatLayers):
    """Per-parameter gradients (or any parameter-shaped accumulator), laid out as ``MlpParams``."""

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "ParamGrads":
        return cls._wrap(np.zeros_like(params.flat), params.layout)


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


def _forward_checked(params: MlpParams, X: np.ndarray) -> list[np.ndarray]:
    """Forward pass on validated points: every layer's output, ``[X, h_1, ..., T(X)]``;
    refuses a non-finite output with NumericError."""
    outs = [X]
    for w, b, act in zip(params.weights, params.biases, params.activations):
        outs.append(_apply(act, outs[-1] @ w.T + b))
    if not np.isfinite(outs[-1]).all():
        raise NumericError("forward pass produced non-finite values")
    return outs


def mlp_forward_batch(params: MlpParams, X) -> np.ndarray:
    """Apply the map to every row of X; returns an array of the same shape."""
    X = as_points(X, "X")
    if X.shape[1] != params.input_dim:
        raise InputError(f"expected dimension {params.input_dim}, got {X.shape[1]}")
    return _forward_checked(params, X)[-1]


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
    A forward pass with a non-finite output raises NumericError.
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
    return _backward(params, _forward_checked(params, X), upstream)


def _backward(params: MlpParams, outs: list[np.ndarray], upstream: np.ndarray) -> ParamGrads:
    """``mlp_backward`` from the ``_forward_checked`` result of the same points."""
    grads = ParamGrads._wrap(np.empty_like(params.flat), params.layout)
    delta = upstream
    for l in range(params.n_layers - 1, -1, -1):
        dact = _derivative(params.activations[l], outs[l + 1])
        if dact is not None:
            delta = delta * dact
        np.matmul(delta.T, outs[l], out=grads.weights[l])
        np.sum(delta, axis=0, out=grads.biases[l])
        if l > 0:
            delta = delta @ params.weights[l]
    return grads
