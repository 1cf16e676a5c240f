"""Shallow prediction network and its optimizer.

Architecture: 81 inputs -> dense(64, relu) -> dense(729) -> reshape to a
9x9x9 tensor with a per-cell softmax over the digit axis.  Cell (r, c) owns
the contiguous logit block ``9*(9r+c) .. 9*(9r+c)+8``, which is exactly the
row-major reshape, so ``logits.reshape(9, 9, 9)[r, c]`` are that cell's
digit scores.  All arithmetic is double precision.

Gradients are exact reverse-mode: the loss modules provide dLoss/dTensor
and ``backward`` chains it through softmax, the dense layers, and relu,
into a fresh buffer or into one the caller reuses.

Adam updates the parameters and its moments in place, with the bias
correction folded into two scalars (Kingma & Ba 2015, section 2): at step t
the parameters move by ``lr_t * m / (sqrt(v) + eps_t)`` with
``lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t)`` and
``eps_t = eps * sqrt(1 - beta2^t)``, which equals the textbook
``lr * m_hat / (sqrt(v_hat) + eps)`` up to rounding.  ``AdamState(lr)``
owns the moments and one scratch buffer, flat arrays laid out like
``ModelParams.data``; a step allocates no parameter-sized array, as every
intermediate goes through the scratch buffer.

Per-call work is done once where it can be: a ``ModelParams`` builds the
views of its four fields when it is made, the softmax takes every cell's
maximum in one ``np.maximum.reduceat``, and ``backward`` writes both weight
gradients with ``np.einsum``, which differs from ``np.outer`` only in the
sign of zero entries, a sign that cannot reach the parameters.  The forward
cache holds what ``backward`` reads; the relu mask is ``hidden > 0``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GRID_SIZE, N_CELLS, as_grid, check_seed

HIDDEN_UNITS = 64
N_LOGITS = N_CELLS * GRID_SIZE  # 729

CHECKPOINT_FORMAT = "neurosudoku-checkpoint"
CHECKPOINT_VERSION = 1

PARAM_SHAPES = {
    "W1": (HIDDEN_UNITS, N_CELLS),
    "b1": (HIDDEN_UNITS,),
    "W2": (N_LOGITS, HIDDEN_UNITS),
    "b2": (N_LOGITS,),
}
PARAM_FIELDS = tuple(PARAM_SHAPES)
_OFFSETS = np.cumsum([0] + [math.prod(s) for s in PARAM_SHAPES.values()]).tolist()
N_PARAMS = _OFFSETS[-1]  # 52,633

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class NumericOverflowError(ArithmeticError):
    """A forward pass or update produced a non-finite value."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or has the wrong format or version."""


def _param_view(name: str) -> property:
    """A field of ModelParams: its view into the buffer; assignment copies in."""
    k = PARAM_FIELDS.index(name)

    def get(self) -> np.ndarray:
        return self._views[k]

    def set(self, value) -> None:
        self._views[k][...] = value

    return property(get, set)


class ModelParams:
    """Weights and biases of the two dense layers in one contiguous float64
    buffer ``data`` of N_PARAMS entries.

    ``W1`` (64, 81), ``b1`` (64,), ``W2`` (729, 64) and ``b2`` (729,) are
    views into the buffer, in that order, made once per object; assigning
    one of them writes into the buffer.  A pickled or deep-copied object is
    rebuilt from its buffer, so its views are views of its own copy.  The
    same container holds the parameters' gradients.
    """

    W1 = _param_view("W1")
    b1 = _param_view("b1")
    W2 = _param_view("W2")
    b2 = _param_view("b2")

    def __init__(self, data: np.ndarray):
        if data.shape != (N_PARAMS,) or data.dtype != np.float64:
            raise ValueError(f"parameter buffer must be float64 of shape ({N_PARAMS},)")
        self.data = data
        self._views = tuple(data[start:stop].reshape(shape) for start, stop, shape
                            in zip(_OFFSETS, _OFFSETS[1:], PARAM_SHAPES.values()))

    def __reduce__(self):
        return ModelParams, (self.data,)

    def all_finite(self) -> bool:
        # min and max propagate NaN; two reductions allocate nothing
        return math.isfinite(self.data.min()) and math.isfinite(self.data.max())


def zeros_params() -> ModelParams:
    return ModelParams(np.zeros(N_PARAMS))


def init_params(seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    lim1 = math.sqrt(6.0 / (N_CELLS + HIDDEN_UNITS))
    lim2 = math.sqrt(6.0 / (HIDDEN_UNITS + N_LOGITS))
    params = zeros_params()
    params.W1 = rng.uniform(-lim1, lim1, size=PARAM_SHAPES["W1"])
    params.W2 = rng.uniform(-lim2, lim2, size=PARAM_SHAPES["W2"])
    return params


def encode_input(grid) -> np.ndarray:
    """Flatten a grid to 81 reals in [0, 1]: digit/9, empty cells 0."""
    return as_grid(grid).reshape(-1).astype(np.float64) / 9.0


@dataclass
class ForwardCache:
    """What ``backward`` reads: the input, the relu output and the per-cell softmax."""

    x: np.ndarray
    hidden: np.ndarray
    probs: np.ndarray  # (81, 9)


_CELL_STARTS = np.arange(0, N_LOGITS, GRID_SIZE)  # each cell's first logit


def _softmax_cells(logits: np.ndarray) -> np.ndarray:
    """Per-cell softmax over the 9 digit logits, max-subtracted for stability."""
    z = logits.reshape(N_CELLS, GRID_SIZE) - np.maximum.reduceat(logits, _CELL_STARTS)[:, None]
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, x: np.ndarray):
    """Run the network.  Returns (prediction tensor (9,9,9), cache)."""
    with np.errstate(over="ignore", invalid="ignore"):
        pre_hidden = params.W1 @ x + params.b1
        if not np.isfinite(pre_hidden).all():
            raise NumericOverflowError("numeric overflow in the hidden layer")
        hidden = np.maximum(pre_hidden, 0.0)
        logits = params.W2 @ hidden + params.b2
        if not np.isfinite(logits).all():
            raise NumericOverflowError("numeric overflow in the output layer")
    probs = _softmax_cells(logits)
    cache = ForwardCache(x=x.copy(), hidden=hidden, probs=probs)
    return probs.reshape(GRID_SIZE, GRID_SIZE, GRID_SIZE), cache


def backward(params: ModelParams, cache: ForwardCache, d_tensor: np.ndarray,
             out: ModelParams | None = None) -> ModelParams:
    """Chain dLoss/dTensor back to parameter gradients.

    Writes them into ``out`` and returns it; without ``out``, into a fresh
    ModelParams.
    """
    probs = cache.probs
    dp = d_tensor.reshape(N_CELLS, GRID_SIZE)
    # softmax Jacobian per cell: dz = p * (dp - <dp, p>)
    dz = (probs * (dp - (dp * probs).sum(axis=1, keepdims=True))).reshape(-1)
    grads = ModelParams(np.empty(N_PARAMS)) if out is None else out
    # einsum writes the products of np.outer, twice as fast, but +0 where
    # np.outer may write -0.  That sign cannot reach the parameters: Adam's
    # moments start at +0 and never become -0, so adding a zero gradient
    # entry of either sign leaves them as they were.
    np.einsum("i,j->ij", dz, cache.hidden, out=grads.W2)
    grads.b2 = dz
    dpre = (params.W2.T @ dz) * (cache.hidden > 0.0)
    np.einsum("i,j->ij", dpre, cache.x, out=grads.W1)
    grads.b1 = dpre
    return grads


def decode_prediction(tensor: np.ndarray) -> np.ndarray:
    """Most probable digit per cell; ties resolve to the smallest digit."""
    return np.argmax(tensor, axis=2).astype(np.int64) + 1


@dataclass
class AdamState:
    """Learning rate and step count, the moment accumulators ``m`` and
    ``v`` as flat buffers laid out like ``ModelParams.data`` (zero at
    ``AdamState(lr)``), and the scratch buffer every update works in."""

    lr: float
    timestep: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS), repr=False)
    v: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS), repr=False)
    scratch: np.ndarray = field(default_factory=lambda: np.empty(N_PARAMS), repr=False)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    Writes ``params.data``, ``state.m``, ``state.v`` (and
    ``state.scratch``) and increments ``state.timestep``; ``grads`` is only
    read.  Raises NumericOverflowError, before writing anything, if the
    gradient holds a NaN or an infinity.

    The moments are computed as ``beta1*m + (1-beta1)*g`` and
    ``beta2*v + (1-beta2)*g*g`` in that operation order; the step uses the
    folded bias correction of the module docstring.
    """
    if not grads.all_finite():
        raise NumericOverflowError("numeric overflow: non-finite gradient")
    t = state.timestep + 1
    root = math.sqrt(1.0 - ADAM_BETA2 ** t)
    step = state.lr * root / (1.0 - ADAM_BETA1 ** t)
    eps_hat = ADAM_EPSILON * root
    g, m, v, s = grads.data, state.m, state.v, state.scratch
    # m = beta1*m + (1-beta1)*g
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    m += s
    # v = beta2*v + (1-beta2)*g*g
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    s *= g
    v += s
    # params -= step * m / (sqrt(v) + eps_hat)
    np.sqrt(v, out=s)
    s += eps_hat
    np.divide(m, s, out=s)
    s *= step
    params.data -= s
    state.timestep = t


def save_params(params: ModelParams, path, seed: int = 0) -> None:
    """Write a versioned JSON checkpoint (weights as nested lists)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": int(seed),
    }
    for f in PARAM_FIELDS:
        payload[f] = getattr(params, f).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_params(path):
    """Read a checkpoint.  Returns (params, seed).

    Raises CheckpointError for anything but a checkpoint object of version
    1 (a JSON integer) holding every field as an array of its shape of
    finite JSON numbers, and a seed that ``grids.check_seed`` accepts.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSON syntax or text encoding
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path} holds a JSON {type(payload).__name__}, expected an object"
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {payload.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # not true, not 1.0
        raise CheckpointError(
            f"checkpoint {path} has version {json.dumps(version)}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    params = zeros_params()
    for f, shape in PARAM_SHAPES.items():
        if f not in payload:
            raise CheckpointError(f"checkpoint {path} has no field {f}")
        try:
            arr = np.asarray(payload[f], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(
                f"checkpoint {path}: field {f} is not a numeric array: {exc}"
            ) from exc
        if arr.shape != shape:
            raise CheckpointError(
                f"checkpoint {path}: field {f} has shape {arr.shape}, expected {shape}"
            )
        # numpy reads strings and booleans as numbers too; JSON entries must be numbers
        entries = payload[f] if arr.ndim == 1 else list(itertools.chain.from_iterable(payload[f]))
        if not set(map(type, entries)) <= {int, float}:
            bad = next(v for v in entries if type(v) not in (int, float))
            raise CheckpointError(f"checkpoint {path}: field {f} holds non-number {json.dumps(bad)}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint {path}: field {f} has non-finite values")
        setattr(params, f, arr)
    try:
        return params, check_seed(payload.get("seed", 0))
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
