"""Per-frame identity association and track lifecycle.

Each frame the tracker predicts every live track forward, scores every
(track, candidate) pair by a convex combination of appearance affinity and
motion consistency (IoU against the Kalman prediction), resolves an
exclusive assignment, applies the confidence-gated Kalman update and the
adaptive-EMA appearance buffer to matched tracks, and runs births, coasting,
and retirement for the rest. A frame's candidates (``Frame``) and the live
tracks (``TrackRows``) are both held as columns, so scoring, predict, the
gated correction and the appearance EMA each run once per frame over all
candidates and tracks, with the per-track filter's formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Mapping, NamedTuple, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

# `iou` is not called here since every frame goes through `iou_matrix`, but it
# stays a module name: the benchmark's layer probes rebind `association.iou`.
from .geometry import BoundingBox, check_fields, check_range, invalid_boxes, iou, iou_matrix  # noqa: F401
# `kf_predict` and `kf_gated_update` (the per-track filter) likewise stay for those probes.
from .kinematics import (OBS_DIM, KalmanTrackState, KinematicsConfig, _correct_axis,  # noqa: F401
                         _predict_axis, _predicted_box, kf_gated_update, kf_init, kf_predict)

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
LOST = "lost"
_STATUSES = (TENTATIVE, CONFIRMED, LOST)  # a row's status code indexes this
_TENTATIVE, _LOST = 0, 2  # and confirmed is 1, so "is confirmed" flags store as codes

MODES = ("hungarian", "greedy")

AffinityValue = Union[float, Mapping[int, float], None]


def _check_score(value: float, name: str) -> float:
    return check_range(float(value), name, "[0, 1]")


@dataclass(frozen=True)
class DetectionCandidate:
    """One detection proposal for a frame.

    s_mask carries the appearance affinity: a single scalar when it is
    track-agnostic, a mapping keyed by track id when the producer scores
    each track separately, or None when no affinity is available (the
    tracker then falls back to cosine similarity against each track's
    appearance buffer, when embeddings are present). The scores are stored
    as the checked floats, a mapping as a new dict of them.
    """

    box: BoundingBox
    s_obj: float
    s_mask: AffinityValue = None
    embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_obj", _check_score(self.s_obj, "s_obj"))
        if isinstance(self.s_mask, Mapping):
            s_mask = {tid: _check_score(v, f"s_mask[{tid}]") for tid, v in self.s_mask.items()}
            object.__setattr__(self, "s_mask", s_mask)
        elif self.s_mask is not None:
            object.__setattr__(self, "s_mask", _check_score(self.s_mask, "s_mask"))
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=float)
            if emb.ndim != 1 or emb.size == 0:
                raise ValueError(f"embedding must be a non-empty vector, got shape {emb.shape}")
            if not np.all(np.isfinite(emb)):
                raise ValueError("embedding contains non-finite entries")
            object.__setattr__(self, "embedding", emb)


def _one_dim(shapes) -> tuple[int, ...]:
    """The one memory shape among ``shapes``, (0,) for none; two are an error."""
    shapes = sorted(set(shapes))
    if len(shapes) > 1:
        raise ValueError(f"buffer/key dimension mismatch: {' vs '.join(map(str, shapes))}")
    return shapes[0] if shapes else (0,)


def _column(values, dtype, shape: tuple[int, ...], name: str) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    if column.size == 0:
        column = column.reshape(shape)
    if column.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {column.shape}")
    return column


class Frame(Sequence):
    """One frame's detection candidates as read-only columns.

    ``boxes`` (n, 4) holds (x, y, w, h) rows and ``s_obj`` (n,) the
    objectness. ``s_mask`` (n,) is each candidate's scalar appearance
    affinity, NaN where it has none; ``mapped`` {candidate index: {track id:
    affinity}} holds the candidates scored per track (NaN in ``s_mask``).
    ``embeddings`` (n, d) holds the embeddings of the rows ``has_embedding``
    marks, all of one dimension d. The constructor copies the columns and
    checks them once, with the messages ``BoundingBox`` and
    ``DetectionCandidate`` give. A Frame is also a sequence of
    ``DetectionCandidate`` views, built on each read.
    """

    __slots__ = ("boxes", "s_obj", "s_mask", "embeddings", "has_embedding", "mapped")

    def __init__(self, boxes, s_obj, s_mask=None, embeddings=None, has_embedding=None,
                 mapped: Mapping[int, Mapping[int, float]] | None = None) -> None:
        s_obj = np.array(s_obj, dtype=float)
        if s_obj.ndim != 1:
            raise ValueError(f"s_obj must have shape (n,), got {s_obj.shape}")
        n = len(s_obj)
        boxes = _column(boxes, float, (n, 4), "boxes")
        s_mask = np.full(n, math.nan) if s_mask is None else _column(s_mask, float, (n,), "s_mask")
        embeddings = np.array(np.zeros((n, 0)) if embeddings is None else embeddings, dtype=float)
        if embeddings.ndim != 2 or len(embeddings) != n:
            raise ValueError(f"embeddings must have shape ({n}, d), got {embeddings.shape}")
        has_embedding = _column(np.full(n, embeddings.size > 0) if has_embedding is None else has_embedding,
                                bool, (n,), "has_embedding")
        mapped = {int(j): {tid: _check_score(v, f"s_mask[{tid}]") for tid, v in m.items()}
                  for j, m in sorted((mapped or {}).items())}
        self._store(boxes, s_obj, s_mask, embeddings, has_embedding, mapped)
        self._check()

    def _check(self) -> None:
        """Check the columns' values once, with the messages ``BoundingBox`` and ``DetectionCandidate`` give."""
        bad = invalid_boxes(self.boxes)
        if np.count_nonzero(bad):
            BoundingBox(*self.boxes[np.argmax(bad)].tolist())
        for name, column, bad in (("s_obj", self.s_obj, ~((self.s_obj >= 0.0) & (self.s_obj <= 1.0))),
                                  ("s_mask", self.s_mask, (self.s_mask < 0.0) | (self.s_mask > 1.0))):
            if np.count_nonzero(bad):
                _check_score(column[np.argmax(bad)], name)
        for j in self.mapped:
            if not 0 <= j < len(self) or not math.isnan(self.s_mask[j]):
                raise ValueError(f"mapped candidate {j} is not a candidate without a scalar s_mask")
        if np.count_nonzero(self.has_embedding):
            if not self.embeddings.shape[1]:
                raise ValueError("embedding must be a non-empty vector, got shape (0,)")
            if not np.isfinite(self.embeddings[self.has_embedding]).all():
                raise ValueError("embedding contains non-finite entries")

    @classmethod
    def _checked(cls, boxes, s_obj, s_mask, embeddings, has_embedding) -> "Frame":
        """A Frame over columns of the right shapes, which become read-only and
        are not copied; their values are checked already, or by ``_check``."""
        frame = object.__new__(cls)
        frame._store(boxes, s_obj, s_mask, embeddings, has_embedding, {})
        return frame

    def _split(self, counts: Sequence[int]) -> list["Frame"]:
        """A sequence's frames: this Frame's rows, which hold no per-track
        mapping, cut into consecutive read-only views of ``counts[k]`` rows."""
        columns = (self.boxes, self.s_obj, self.s_mask, self.embeddings, self.has_embedding)
        ends = np.cumsum(counts).tolist()
        return [Frame._checked(*(c[a:b] for c in columns)) for a, b in zip([0, *ends], ends)]

    def _store(self, boxes, s_obj, s_mask, embeddings, has_embedding, mapped) -> None:
        for name, column in (("boxes", boxes), ("s_obj", s_obj), ("s_mask", s_mask),
                             ("embeddings", embeddings), ("has_embedding", has_embedding)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "mapped", mapped)

    @classmethod
    def of(cls, candidates: "Frame | Sequence[DetectionCandidate]") -> "Frame":
        """The Frame of a list of candidates; a Frame is returned as it is.
        Embeddings of two dimensions are an error."""
        if isinstance(candidates, Frame):
            return candidates
        candidates = list(candidates)
        keys = [c.embedding for c in candidates if c.embedding is not None]
        has_embedding = np.array([c.embedding is not None for c in candidates], dtype=bool)
        embeddings = np.zeros((len(candidates), *_one_dim(np.shape(k) for k in keys)))
        if keys:
            embeddings[has_embedding] = keys
        return cls(
            [c.box.as_tuple() for c in candidates],
            [c.s_obj for c in candidates],
            [math.nan if c.s_mask is None or isinstance(c.s_mask, Mapping) else c.s_mask
             for c in candidates],
            embeddings, has_embedding,
            {j: c.s_mask for j, c in enumerate(candidates) if isinstance(c.s_mask, Mapping)},
        )

    def __len__(self) -> int:
        return len(self.s_obj)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(*j.indices(len(self)))]
        j = range(len(self))[j]
        s_mask = self.mapped.get(j)
        if s_mask is None and not math.isnan(self.s_mask[j]):
            s_mask = self.s_mask[j]
        return DetectionCandidate(BoundingBox._checked(*self.boxes[j].tolist()), self.s_obj[j], s_mask,
                                  self.embeddings[j] if self.has_embedding[j] else None)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Frame columns are read-only: cannot set {name!r}")

    def __repr__(self) -> str:
        return f"Frame({len(self)} candidates)"


@dataclass
class Track:
    """One identity as a plain value: motion state, appearance memory,
    lifecycle counters. ``TrackerState.tracks`` returns these as snapshots of
    the tracker's rows; ``associate_frame`` also accepts a list of them."""

    id: int
    kalman: KalmanTrackState
    status: str = TENTATIVE
    misses: int = 0
    hits: int = 1
    memory: np.ndarray | None = None
    predicted_box: BoundingBox | None = None
    last_box: BoundingBox | None = None
    last_score: float | None = None


def temporal_buffer_update(
    memory: np.ndarray,
    key: np.ndarray,
    s_kf_star: float,
    tau_gamma: float,
) -> tuple[np.ndarray, float]:
    """Adaptive-EMA update of the appearance buffer.

    The decay is gamma = 1 - min(s_kf_star, tau_gamma): confident motion
    admits more of the current key, uncertain motion preserves history.
    gamma therefore lies in [1 - tau_gamma, 1].

    Returns:
        (updated buffer, gamma)
    """
    memory = np.asarray(memory, dtype=float)
    key = np.asarray(key, dtype=float)
    if memory.shape != key.shape:
        raise ValueError(f"buffer/key dimension mismatch: {memory.shape} vs {key.shape}")
    s_kf_star = _check_score(s_kf_star, "s_kf_star")
    tau_gamma = _check_score(tau_gamma, "tau_gamma")
    updated, gamma = _ema(memory, key, s_kf_star, tau_gamma)
    return updated, float(gamma)


def _ema(memory, key, s_kf, tau_gamma):
    """(gamma * memory + (1 - gamma) * key, gamma) with gamma = 1 - min(s_kf, tau_gamma),
    for one buffer and score or for (k, d) buffers with (k, 1) scores."""
    gamma = 1.0 - np.minimum(s_kf, tau_gamma)
    return gamma * memory + (1.0 - gamma) * key, gamma


class Match(NamedTuple):
    track_id: int
    candidate_index: int
    score: float       # fused score of the pair
    motion_score: float  # IoU against the prediction (s_kf of the pair)


@dataclass(frozen=True, eq=False)
class AssociationResult:
    """One frame's assignment as aligned arrays: the matched track rows in
    increasing order, their candidate indices and boxes (k, 4), and each
    pair's fused and motion scores. ``ids`` holds the track id of every row.
    The per-pair views below are derived on read; two results are equal, and
    hash alike, when their views are."""

    ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    motion_scores: np.ndarray
    n_candidates: int

    @property
    def matches(self) -> tuple[Match, ...]:
        return tuple(map(Match, self.ids[self.rows].tolist(), self.cols.tolist(),
                         self.scores.tolist(), self.motion_scores.tolist()))

    @property
    def unmatched_tracks(self) -> tuple[int, ...]:
        """Track ids, in row order."""
        return tuple(np.delete(self.ids, self.rows).tolist())

    @property
    def unmatched_candidates(self) -> tuple[int, ...]:
        """Candidate indices, increasing."""
        taken = set(self.cols.tolist())
        return tuple(j for j in range(self.n_candidates) if j not in taken)

    def _views(self) -> tuple:
        return self.matches, self.unmatched_tracks, self.unmatched_candidates

    def __eq__(self, other) -> bool:
        return self._views() == other._views() if isinstance(other, AssociationResult) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._views())


@dataclass(frozen=True)
class TrackerConfig:
    """Association, buffer, and lifecycle tuning; kinematics nested. Each
    field's metadata holds its config-file key, doc string and valid range."""

    alpha: float = field(default=0.5, metadata={
        "key": "assoc.alpha", "range": "[0, 1]", "doc": "weight of appearance affinity in the fused score"})
    mode: str = field(default="hungarian", metadata={
        "key": "assoc.mode", "choices": MODES, "doc": "assignment mode"})
    tau_match: float = field(default=0.1, metadata={
        "key": "assoc.tau_match", "range": "[0, 1]", "doc": "minimum fused score for an admissible match"})
    tau_gamma: float = field(default=0.9, metadata={
        "key": "buffer.tau_gamma", "range": "[0, 1]",
        "doc": "cap on motion confidence in the appearance-buffer decay"})
    tau_birth: float = field(default=0.6, metadata={
        "key": "lifecycle.tau_birth", "range": "[0, 1]",
        "doc": "objectness needed for an unmatched candidate to spawn a track"})
    n_init: int = field(default=3, metadata={
        "key": "lifecycle.n_init", "range": "integer >= 1",
        "doc": "consecutive hits before a tentative track confirms"})
    max_age: int = field(default=30, metadata={
        "key": "lifecycle.max_age", "range": "integer >= 0", "doc": "coasting frames before a track retires"})
    kinematics: KinematicsConfig = field(default_factory=KinematicsConfig)

    def __post_init__(self) -> None:
        check_fields(self)


def _box_column(boxes: Sequence[BoundingBox | None]) -> np.ndarray:
    """The boxes as (n, 4) rows, NaN for None."""
    nan_box = (math.nan,) * OBS_DIM
    return np.array([nan_box if b is None else b.as_tuple() for b in boxes], dtype=float).reshape(-1, OBS_DIM)


def _kalman_columns(states: Sequence[KalmanTrackState]) -> dict[str, np.ndarray]:
    """The gate counter and Kalman blocks of ``TrackRows`` holding these
    states, in their order; the blocks are views into one array of all fields."""
    fields = np.array([(*s.state.tolist(), *s.pos_var, *s.vel_var, *s.cross, *s.q, *s.r) for s in states],
                      dtype=float).reshape(len(states), 8 * OBS_DIM)
    columns, at = {"counter": np.array([s.counter for s in states], dtype=np.int64)}, 0
    for name, width in (("x", 8), ("pos_var", 4), ("vel_var", 4), ("cross", 4), ("q", 8), ("r", 4)):
        columns[name], at = fields[:, at:at + width], at + width
    return columns


class TrackRows:
    """Tracks as columns, one row per track in creation (and id) order.

    ``id``, ``status`` (an index into the status names), ``hits``,
    ``misses`` and ``counter`` (the Kalman gate counter) are (n,) integers.
    The Kalman blocks are laid out as in ``KalmanTrackState``: ``x`` and
    ``q`` (n, 8), ``pos_var``, ``vel_var``, ``cross`` and ``r`` (n, 4).
    ``memory`` (n, d) holds the appearance buffers of the rows
    ``has_memory`` marks, all of one dimension d. ``predicted`` (n, 4) is
    each row's latest predicted box (NaN before its first predict).
    ``last_box`` (n, 4) is each row's output box, its predicted box while it
    coasts, and ``last_score`` (n,) its fused score, NaN while it coasts.
    """

    ARRAYS = ("id", "status", "hits", "misses", "counter", "x", "pos_var", "vel_var",
              "cross", "q", "r", "memory", "has_memory", "predicted", "last_box", "last_score")

    @classmethod
    def of(cls, tracks: Sequence[Track]) -> "TrackRows":
        """Rows holding copies of the given tracks, in their order."""
        memories = [t.memory for t in tracks if t.memory is not None]
        has_memory = np.array([t.memory is not None for t in tracks], dtype=bool)
        memory = np.zeros((len(tracks), *_one_dim(np.shape(m) for m in memories)))
        if memories:
            memory[has_memory] = memories
        rows = cls()
        rows.__dict__.update(
            _kalman_columns([t.kalman for t in tracks]),
            id=np.array([t.id for t in tracks], dtype=np.int64),
            status=np.array([_STATUSES.index(t.status) for t in tracks], dtype=np.int8),
            hits=np.array([t.hits for t in tracks], dtype=np.int64),
            misses=np.array([t.misses for t in tracks], dtype=np.int64),
            memory=memory, has_memory=has_memory,
            predicted=_box_column([t.predicted_box for t in tracks]),
            last_box=_box_column([t.last_box for t in tracks]),
            last_score=np.array([math.nan if t.last_score is None else t.last_score for t in tracks],
                                dtype=float),
        )
        return rows

    def __len__(self) -> int:
        return len(self.id)

    def snapshot(self) -> list[Track]:
        """Every row as a new ``Track``; changing one leaves the rows alone."""
        columns = zip(self.id.tolist(), self.status.tolist(), self.misses.tolist(), self.hits.tolist(),
                      self.x, self.pos_var.tolist(), self.vel_var.tolist(), self.cross.tolist(),
                      self.counter.tolist(), self.q.tolist(), self.r.tolist(), self.memory,
                      self.has_memory.tolist(), self.predicted.tolist(), self.last_box.tolist(),
                      self.last_score.tolist())
        return [
            Track(i, KalmanTrackState(x.copy(), tuple(pv), tuple(vv), tuple(c), k, tuple(q), tuple(r)),
                  _STATUSES[s], misses, hits, memory.copy() if has else None,
                  None if math.isnan(p[0]) else BoundingBox._checked(*p),
                  None if math.isnan(box[0]) else BoundingBox._checked(*box),
                  None if math.isnan(score) else score)
            for i, s, misses, hits, x, pv, vv, c, k, q, r, memory, has, p, box, score in columns
        ]

    def rebuild(self, keep: np.ndarray | None, new: dict[str, np.ndarray]) -> None:
        """Drop the rows ``keep`` marks False (all kept when None) and append
        the rows ``new`` holds, a column per name in ARRAYS (none when empty),
        in one pass per column. Memories of two dimensions are an error; a
        part that holds no memory takes the other's memory dimension."""
        kept = {name: getattr(self, name) if keep is None else getattr(self, name)[keep] for name in self.ARRAYS}
        if new:
            dim = _one_dim(p["memory"].shape[1:] for p in (kept, new) if np.count_nonzero(p["has_memory"]))
            for part in (kept, new):
                if part["memory"].shape[1:] != dim:
                    part["memory"] = np.zeros((len(part["has_memory"]), *dim))
            kept = {name: np.concatenate([column, new[name]]) for name, column in kept.items()}
        self.__dict__.update(kept)


def _as_rows(tracks: TrackRows | Sequence[Track]) -> TrackRows:
    if isinstance(tracks, TrackRows):
        return tracks
    for track in tracks:
        if track.predicted_box is None:
            raise ValueError(f"track {track.id} has no prediction for this frame")
    return TrackRows.of(tracks)


def _appearance_matrix(rows: TrackRows, frame: Frame) -> np.ndarray:
    """Appearance affinity of every (track, candidate) pair, as one matrix.

    Scalar s_mask values fill their candidate's column. Cosine affinities,
    mapped to [0, 1] (0 where a vector is zero or missing), come from one
    matmul of the track memories against the embeddings of the candidates
    without a scalar s_mask, which must share the memories' dimension;
    mapping entries then fill the rows of the tracks they name.
    """
    appearance = np.empty((len(rows), len(frame)))
    no_scalar = np.isnan(frame.s_mask)
    appearance[:] = np.where(no_scalar, 0.0, frame.s_mask)
    cols = (no_scalar & frame.has_embedding).nonzero()[0]  # candidates compared by cosine
    held = rows.has_memory.nonzero()[0]
    if cols.size and held.size:
        if rows.memory.shape[1:] != frame.embeddings.shape[1:]:
            shapes = sorted({rows.memory.shape[1:], frame.embeddings.shape[1:]})
            raise ValueError(f"buffer/embedding dimension mismatch: {' vs '.join(map(str, shapes))}")
        # ndarray.take gathers rows of a small 2-d array at about a third of
        # the cost of fancy indexing; the step gathers rows with it throughout.
        mem, emb = rows.memory.take(held, axis=0), frame.embeddings.take(cols, axis=0)
        # np.linalg.norm(., axis=1)'s own arithmetic, without its argument handling.
        na, nb = np.sqrt(np.add.reduce(mem * mem, axis=1)), np.sqrt(np.add.reduce(emb * emb, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = (mem @ emb.T) / (na[:, np.newaxis] * nb)
        cosine = np.minimum(np.maximum(0.5 * (1.0 + cos), 0.0), 1.0)
        cosine[(na == 0.0)[:, np.newaxis] | (nb == 0.0)[np.newaxis, :]] = 0.0
        appearance[held[:, np.newaxis], cols] = cosine
    if frame.mapped:
        ids = rows.id.tolist()
        for j, s_mask in frame.mapped.items():
            for i, track_id in enumerate(ids):
                if track_id in s_mask:
                    appearance[i, j] = s_mask[track_id]
    return appearance


def _score_matrices(rows: TrackRows, frame: Frame, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(fused, motion) score matrices of every (track, candidate) pair.

    motion is the IoU of each track's prediction against each candidate
    box; fused is alpha * appearance + (1 - alpha) * motion.
    """
    motion = iou_matrix(rows.predicted, frame.boxes)
    fused = alpha * _appearance_matrix(rows, frame) + (1.0 - alpha) * motion
    if np.count_nonzero(np.isfinite(fused)) < fused.size:
        raise ValueError("association scores contain non-finite entries")
    return fused, motion


def associate_frame(
    tracks: TrackRows | Sequence[Track],
    candidates: Frame | Sequence[DetectionCandidate],
    config: TrackerConfig,
) -> AssociationResult:
    """Resolve this frame's exclusive track-candidate assignment.

    ``tracks`` are the tracker's rows or a list of predicted ``Track``s,
    converted to rows once, and ``candidates`` a Frame or a list of
    candidates, converted once. hungarian mode returns the one-to-one
    assignment maximising the total fused score over pairs at or above
    tau_match. greedy mode lets every track pick its own best candidate
    (ties to the lower candidate index); when several tracks claim one
    candidate the highest fused score wins and the losers stay unmatched.
    """
    rows, frame = _as_rows(tracks), Frame.of(candidates)
    fused, motion = _score_matrices(rows, frame, config.alpha)
    n_tracks, n_cands = fused.shape
    matched = cols = np.zeros(0, dtype=np.intp)

    if n_tracks and n_cands:
        admissible = fused >= config.tau_match
        if config.mode == "hungarian":
            # The row indices come back sorted.
            matched, cols = linear_sum_assignment(np.where(admissible, fused, 0.0), maximize=True)
            keep = admissible[matched, cols]
            matched, cols = matched[keep], cols[keep]
        else:
            claims: dict[int, int] = {}  # candidate index -> track index
            for i, j in enumerate(np.argmax(fused, axis=1).tolist()):
                if not admissible[i, j]:
                    continue
                holder = claims.get(j)
                if holder is None or fused[i, j] > fused[holder, j]:
                    claims[j] = i
            pairs = sorted((i, j) for j, i in claims.items())
            matched = np.array([i for i, _ in pairs], dtype=np.intp)
            cols = np.array([j for _, j in pairs], dtype=np.intp)

    return AssociationResult(rows.id, matched, cols, frame.boxes.take(cols, axis=0), fused[matched, cols],
                             motion[matched, cols], n_cands)


class TrackOutput(NamedTuple):
    """One per-frame record: matched tracks report the selected candidate box,
    coasting tracks their predicted box."""

    track_id: int
    box: BoundingBox
    status: str
    score: float | None  # fused score of this frame's match; None while coasting


class FrameOutputs(Sequence):
    """One frame's output records as read-only columns, copied from the
    tracker's rows in increasing id order: ``ids`` (n,), ``status`` (n,)
    codes indexing the status names, ``boxes`` (n, 4) and ``scores`` (n,),
    NaN while a track coasts. It is also a sequence of ``TrackOutput``
    views, built on each read, and equals the list of those records.
    """

    __slots__ = ("ids", "status", "boxes", "scores")

    def __init__(self, ids: np.ndarray, status: np.ndarray, boxes: np.ndarray, scores: np.ndarray) -> None:
        for name, column in zip(self.__slots__, (ids, status, boxes, scores)):
            column = np.array(column)
            # Not ``column.flags.writeable = False``: under numpy 2.4 that
            # setter keeps a few kilobytes of small allocations alive, which
            # the soak test's bound on what a long run leaves allocated sees.
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, j):
        return list(self)[j]

    def __iter__(self):
        columns = zip(self.ids.tolist(), self.status.tolist(), self.boxes.tolist(), self.scores.tolist())
        return (TrackOutput(i, BoundingBox._checked(*box), _STATUSES[s], None if math.isnan(score) else score)
                for i, s, box, score in columns)

    def __eq__(self, other) -> bool:
        if isinstance(other, (FrameOutputs, list)):
            return list(self) == list(other)
        return NotImplemented

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"FrameOutputs columns are read-only: cannot set {name!r}")


@dataclass
class TrackerState:
    """Single-writer state for one tracked sequence. The live tracks are the
    columns in ``rows``; ``tracks`` reads them as a list of ``Track``
    snapshots, built on each read, that the tracker never sees again."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    next_id: int = 1
    frame_index: int = 0
    rows: TrackRows = field(default_factory=lambda: TrackRows.of([]), repr=False)

    @property
    def tracks(self) -> list[Track]:
        return self.rows.snapshot()


def _predict(rows: TrackRows) -> None:
    """Advance every row one frame and store its predicted box, extents
    floored at MIN_EXTENT; a non-finite box fails as BoundingBox does."""
    x = rows.x
    x[:, :OBS_DIM], rows.pos_var, rows.vel_var, rows.cross = _predict_axis(
        x[:, :OBS_DIM], x[:, OBS_DIM:], rows.pos_var, rows.vel_var, rows.cross,
        rows.q[:, :OBS_DIM], rows.q[:, OBS_DIM:])
    predicted = _predicted_box(x[:, :OBS_DIM])
    finite = np.isfinite(predicted)
    if np.count_nonzero(finite) < finite.size:
        BoundingBox(*predicted[np.argmin(finite.all(axis=1))].tolist())
    rows.predicted = predicted


def _update_matched(
    rows: TrackRows,
    frame: Frame,
    result: AssociationResult,
    cfg: TrackerConfig,
) -> None:
    """Gated Kalman update, appearance buffer and counters of the matched rows."""
    kin = cfg.kinematics
    matched, cols = result.rows, result.cols

    # One more reliable association, or back to zero.
    counter = (rows.counter[matched] + 1) * (frame.s_obj[cols] >= kin.tau_obj)
    rows.counter[matched] = counter
    fire = (counter >= kin.tau_kf).nonzero()[0]
    if fire.size:
        # Each column of the firing rows is gathered once and scattered once.
        f = matched[fire]
        x, pos_var, vel_var, cross, r = (c.take(f, axis=0) for c in (rows.x, rows.pos_var, rows.vel_var,
                                                                       rows.cross, rows.r))
        x[:, :OBS_DIM], x[:, OBS_DIM:], pos_var, vel_var, cross = _correct_axis(
            x[:, :OBS_DIM], x[:, OBS_DIM:], pos_var, vel_var, cross, r, result.boxes.take(fire, axis=0))
        rows.x[f], rows.pos_var[f], rows.vel_var[f], rows.cross[f] = x, pos_var, vel_var, cross

    keyed = frame.has_embedding[cols].nonzero()[0]
    if keyed.size:
        keys = frame.embeddings.take(cols[keyed], axis=0)
        if keys.shape[1:] != rows.memory.shape[1:]:
            held = [rows.memory.shape[1:]] if np.count_nonzero(rows.has_memory) else []
            rows.memory = np.zeros((len(rows), *_one_dim(held + [keys.shape[1:]])))
        k, s_kf = matched[keyed], result.motion_scores[keyed][:, np.newaxis]
        blended, _ = _ema(rows.memory.take(k, axis=0), keys, s_kf, cfg.tau_gamma)
        # A row without memory takes the key as it is.
        rows.memory[k] = np.where(rows.has_memory[k][:, np.newaxis], blended, keys)
        rows.has_memory[k] = True

    hits = rows.hits[matched] + 1
    rows.hits[matched], rows.misses[matched] = hits, 0
    # A match confirms a row unless it is tentative with fewer than n_init hits.
    rows.status[matched] = (rows.status[matched] != _TENTATIVE) | (hits >= cfg.n_init)
    rows.last_box[matched] = result.boxes
    rows.last_score[matched] = result.scores


def _coast_unmatched(rows: TrackRows, matched: np.ndarray, cfg: TrackerConfig) -> np.ndarray | None:
    """Count a miss for every unmatched row. Tentative rows and rows past
    max_age retire; the rest coast as lost on their predicted box. Returns
    the mask of rows to keep, or None when none retires."""
    unmatched = np.ones(len(rows), dtype=bool)
    unmatched[matched] = False
    rows.misses += unmatched
    retire = unmatched & ((rows.status == _TENTATIVE) | (rows.misses > cfg.max_age))
    coast = unmatched ^ retire
    rows.status[coast] = _LOST
    np.copyto(rows.last_box, rows.predicted, where=coast[:, np.newaxis])
    rows.last_score[coast] = math.nan
    return ~retire if np.count_nonzero(retire) else None


def _newborn_rows(frame: Frame, born: np.ndarray, first_id: int, cfg: TrackerConfig,
                  frame_index: int) -> dict[str, np.ndarray]:
    """The columns of the tentative (confirmed when n_init <= 1) tracks that
    the candidates ``born`` start, with ids from ``first_id``: one ``kf_init``
    per candidate, its fields written straight into the rows."""
    states = []
    boxes = frame.boxes.take(born, axis=0)
    for j, box in zip(born.tolist(), boxes.tolist()):
        try:
            states.append(kf_init(BoundingBox._checked(*box), cfg.kinematics))
        except ValueError as exc:  # the noise scales with the box: name the box
            raise ValueError(f"{exc} (frame {frame_index}, candidate {j})") from None
    n, has_memory = len(born), frame.has_embedding[born]
    return dict(
        _kalman_columns(states),
        id=np.arange(first_id, first_id + n, dtype=np.int64),
        status=np.full(n, _STATUSES.index(CONFIRMED if cfg.n_init <= 1 else TENTATIVE), dtype=np.int8),
        hits=np.ones(n, dtype=np.int64), misses=np.zeros(n, dtype=np.int64),
        memory=np.where(has_memory[:, np.newaxis], frame.embeddings.take(born, axis=0), 0.0),
        has_memory=has_memory, predicted=np.full((n, OBS_DIM), math.nan), last_box=boxes,
        last_score=np.full(n, math.nan),
    )


def step_tracker(
    state: TrackerState,
    frame: Frame | Sequence[DetectionCandidate],
    frame_index: int | None = None,
) -> tuple[TrackerState, FrameOutputs]:
    """Advance the tracker by one frame of candidates, a Frame or a list of
    candidates (converted once).

    Runs predict -> associate -> gated update (+ appearance buffer) for
    matches, then lifecycle: unmatched candidates above tau_birth spawn
    tentative tracks, tentative tracks confirm after n_init consecutive
    hits, tracks whose misses exceed max_age retire, and the rest coast as
    lost on their predictions. Each stage runs once over all rows, and a
    newborn's row is written from its ``kf_init`` state without a ``Track``.

    frame_index defaults to the next frame; passing an explicit index that
    does not advance time raises ValueError. The state is mutated in place
    and returned alongside this frame's output records: a ``FrameOutputs``
    holding copies of the rows' id, status, box and score columns, in
    increasing track id order, which later steps leave unchanged. The
    appearance buffers hold one dimension: a frame whose embeddings would
    add a second one raises ValueError.
    """
    cfg = state.config
    if frame_index is None:
        frame_index = state.frame_index + 1
    elif frame_index <= state.frame_index:
        raise ValueError(
            f"frame index {frame_index} is not after {state.frame_index}"
        )
    state.frame_index = frame_index

    frame, rows = Frame.of(frame), state.rows
    if len(rows):
        _predict(rows)
    result = associate_frame(rows, frame, cfg)
    if len(result.rows):
        _update_matched(rows, frame, result, cfg)
    keep = _coast_unmatched(rows, result.rows, cfg) if len(result.rows) < len(rows) else None
    birth = frame.s_obj >= cfg.tau_birth
    birth[result.cols] = False  # a matched candidate spawns nothing
    born = birth.nonzero()[0]
    if keep is not None or born.size:
        rows.rebuild(keep, _newborn_rows(frame, born, state.next_id, cfg, frame_index) if born.size else {})
        state.next_id += born.size
    return state, FrameOutputs(rows.id, rows.status, rows.last_box, rows.last_score)
