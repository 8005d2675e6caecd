"""Temporal feature machinery: attention-based frame scoring with top-k
selection, a FIFO motion queue with a pluggable forecaster, and sigmoid-gated
feature fusion.

Feature matrices are plain row-major numpy arrays (rows = frames or tokens,
columns = feature dimension). Projection and gate weights derive from a
seeded generator or are given as arrays; nothing here is trained.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import check_range

ForecasterContract = Callable[[np.ndarray], np.ndarray]
"""A forecaster maps the queued states, shape (n, state_dim), to the
predicted next state, shape (state_dim,). It must be deterministic for
fixed inputs."""


def _as_feature_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D feature matrix, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class ProjectionPair:
    """Square query/key projection matrices of a shared feature dimension."""

    w_q: np.ndarray
    w_k: np.ndarray

    def __post_init__(self) -> None:
        for name, m in (("w_q", self.w_q), ("w_k", self.w_k)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.w_q.shape != self.w_k.shape:
            raise ValueError(
                f"projection shapes differ: {self.w_q.shape} vs {self.w_k.shape}"
            )

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "ProjectionPair":
        return cls(np.eye(dim), np.eye(dim))

    @classmethod
    def from_seed(cls, dim: int, seed: int) -> "ProjectionPair":
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        return cls(
            rng.normal(0.0, scale, size=(dim, dim)),
            rng.normal(0.0, scale, size=(dim, dim)),
        )


def attention_scores(f_q, f_k, proj: ProjectionPair) -> np.ndarray:
    """Scaled-dot-product attention weights between two feature matrices.

    Projects queries and keys, scales the dot products by 1/sqrt(d), and
    softmaxes over the key axis.

    Returns:
        Row-stochastic matrix of shape (rows(f_q), rows(f_k)); each row sums
        to 1 and all entries lie in (0, 1).
    """
    q = _as_feature_matrix(f_q, "f_q")
    k = _as_feature_matrix(f_k, "f_k")
    d = proj.dim
    if q.shape[1] != d or k.shape[1] != d:
        raise ValueError(
            f"feature dim mismatch: f_q {q.shape[1]}, f_k {k.shape[1]}, proj {d}"
        )
    logits = (q @ proj.w_q) @ (k @ proj.w_k).T / np.sqrt(d)
    return _softmax_rows(logits)


def spatial_pool(tokens) -> np.ndarray:
    """Arithmetic mean over token rows, returned as a 1 x d matrix."""
    t = _as_feature_matrix(tokens, "tokens")
    return t.mean(axis=0, keepdims=True)


def memory_cache_select(
    current,
    memory,
    proj: ProjectionPair,
    k: int,
) -> list[tuple[int, float]]:
    """Rank memory frames by dual-branch importance and keep the top k.

    Per-frame importance combines two branches: the cross-attention row of
    the current frame over the memory frames (relevance to "now") and the
    column mean of the memory self-attention matrix, the attention each
    frame receives from all memory frames (internal consistency).

    Returns:
        The k highest-scoring frame indices with their scores, descending by
        score, ties broken by lower index.
    """
    cur = _as_feature_matrix(current, "current")
    mem = _as_feature_matrix(memory, "memory")
    if cur.shape[0] != 1:
        raise ValueError(f"current must be a single pooled row, got {cur.shape[0]} rows")
    n_frames = mem.shape[0]
    if not 1 <= k <= n_frames:
        raise ValueError(f"k must be in [1, {n_frames}], got {k}")

    cross = attention_scores(cur, mem, proj)[0]
    scores = cross + attention_scores(mem, mem, proj).mean(axis=0)
    # argsort on (-score, index) gives descending score with lower-index ties first
    order = np.lexsort((np.arange(n_frames), -scores))
    return [(int(i), float(scores[i])) for i in order[:k]]


class MotionQueue:
    """Bounded FIFO of motion-state vectors; the oldest entry is evicted first."""

    def __init__(self, capacity: int, dim: int):
        check_range(capacity, "capacity", ">= 1")
        check_range(dim, "dim", ">= 1")
        self.capacity = capacity
        self.dim = dim
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def push(self, s) -> None:
        vec = np.asarray(s, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"state must have shape ({self.dim},), got {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("state contains non-finite entries")
        self._entries.append(vec.copy())

    def states(self) -> np.ndarray:
        """Queued states oldest-first, shape (len, dim)."""
        if not self._entries:
            return np.empty((0, self.dim))
        return np.stack(list(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


def constant_velocity_forecast(states: np.ndarray) -> np.ndarray:
    """Baseline forecaster: last state plus the mean first difference.

    Exact on any state sequence that is affine in time; a single queued
    state forecasts itself.
    """
    if states.shape[0] == 0:
        raise ValueError("cannot forecast from an empty state sequence")
    if states.shape[0] == 1:
        return states[-1].copy()
    return states[-1] + np.diff(states, axis=0).mean(axis=0)


@dataclass(frozen=True)
class LatentMap:
    """Fixed linear embedding of a motion state into the fusion feature space."""

    matrix: np.ndarray  # (latent_dim, state_dim)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"latent map must be 2-D, got shape {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("latent map contains non-finite entries")

    @classmethod
    def from_seed(cls, latent_dim: int, state_dim: int, seed: int) -> "LatentMap":
        rng = np.random.default_rng(seed)
        return cls(rng.normal(0.0, 1.0 / np.sqrt(state_dim), size=(latent_dim, state_dim)))

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.matrix @ state


def forecast(
    q: MotionQueue,
    forecaster: ForecasterContract = constant_velocity_forecast,
    latent_map: LatentMap | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict the next motion state from the queue and embed it as a latent prior.

    Any callable satisfying ``ForecasterContract`` may replace the baseline.
    Without a latent map the prior is the predicted state itself.

    Returns:
        (latent_prior, predicted_state)
    """
    if len(q) == 0:
        raise ValueError("cannot forecast from an empty queue")
    predicted = np.asarray(forecaster(q.states()), dtype=float)
    if predicted.shape != (q.dim,):
        raise ValueError(
            f"forecaster must return shape ({q.dim},), got {predicted.shape}"
        )
    latent = latent_map(predicted) if latent_map is not None else predicted.copy()
    return latent, predicted


@dataclass(frozen=True)
class GateNetwork:
    """Single affine map 2d -> d followed by the logistic function.

    Output lies in (0, 1)^d for finite inputs, so the fused feature is a
    proper element-wise interpolation.
    """

    weights: np.ndarray  # (d, 2d)
    bias: np.ndarray     # (d,)

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.weights.shape[1] != 2 * self.weights.shape[0]:
            raise ValueError(
                f"gate weights must have shape (d, 2d), got {self.weights.shape}"
            )
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"gate bias must have shape ({self.weights.shape[0]},), got {self.bias.shape}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("gate parameters contain non-finite entries")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_seed(cls, dim: int, seed: int) -> "GateNetwork":
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(2 * dim)
        return cls(rng.normal(0.0, scale, size=(dim, 2 * dim)), np.zeros(dim))

    @classmethod
    def constant(cls, dim: int, bias: float) -> "GateNetwork":
        """Gate with zero weights and a constant bias; bias = +-40 saturates
        the logistic to 1/0 within double precision, pinning the fusion to
        one input."""
        return cls(np.zeros((dim, 2 * dim)), np.full(dim, float(bias)))

    def gate_values(self, z_h: np.ndarray, z_hat: np.ndarray) -> np.ndarray:
        stacked = np.concatenate([z_h, z_hat])
        logits = self.weights @ stacked + self.bias
        return 1.0 / (1.0 + np.exp(-logits))


def gated_fuse(z_h, z_hat, gate: GateNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate a reconstruction feature and a predicted prior element-wise.

    The gate value g weights the prior: fused = (1 - g) * z_h + g * z_hat;
    every fused component lies between the corresponding inputs.

    Returns:
        (fused, g)
    """
    a = np.asarray(z_h, dtype=float)
    b = np.asarray(z_hat, dtype=float)
    if a.shape != (gate.dim,) or b.shape != (gate.dim,):
        raise ValueError(
            f"inputs must have shape ({gate.dim},), got {a.shape} and {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("fusion inputs contain non-finite entries")
    g = gate.gate_values(a, b)
    fused = (1.0 - g) * a + g * b
    return fused, g
