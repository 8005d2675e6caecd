"""Per-frame identity association and track lifecycle.

Each frame the tracker predicts every live track forward, scores every
(track, candidate) pair by a convex combination of appearance affinity and
motion consistency (IoU against the Kalman prediction), resolves an
exclusive assignment, applies the confidence-gated Kalman update and the
adaptive-EMA appearance buffer to matched tracks, and runs births, coasting,
and retirement for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

# `iou` is not called here since every frame goes through `iou_matrix`, but it
# stays a module name: the benchmark's layer probes rebind `association.iou`.
from .geometry import BoundingBox, boxes_array, iou, iou_matrix  # noqa: F401
from .kinematics import KalmanTrackState, KinematicsConfig, kf_gated_update, kf_init, kf_predict

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
LOST = "lost"

MODES = ("hungarian", "greedy")

AffinityValue = Union[float, Mapping[int, float], None]


def _check_score(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


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


@dataclass
class Track:
    """A persistent identity: motion state, appearance memory, lifecycle counters."""

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
    gamma = 1.0 - min(s_kf_star, tau_gamma)
    return gamma * memory + (1.0 - gamma) * key, gamma


@dataclass(frozen=True)
class Match:
    track_id: int
    candidate_index: int
    score: float       # fused score of the pair
    motion_score: float  # IoU against the prediction (s_kf of the pair)


@dataclass(frozen=True)
class AssociationResult:
    matches: tuple[Match, ...]
    unmatched_tracks: tuple[int, ...]      # track ids
    unmatched_candidates: tuple[int, ...]  # candidate indices

    def pairs(self) -> list[tuple[int, int]]:
        return [(m.track_id, m.candidate_index) for m in self.matches]


@dataclass(frozen=True)
class TrackerConfig:
    """Association, buffer, and lifecycle tuning; kinematics nested. Each
    field's metadata holds its config-file key and doc string."""

    alpha: float = field(default=0.5, metadata={
        "key": "assoc.alpha", "doc": "weight of appearance affinity in the fused score"})
    mode: str = field(default="hungarian", metadata={
        "key": "assoc.mode", "choices": MODES, "doc": "assignment mode"})
    tau_match: float = field(default=0.1, metadata={
        "key": "assoc.tau_match", "doc": "minimum fused score for an admissible match"})
    tau_gamma: float = field(default=0.9, metadata={
        "key": "buffer.tau_gamma",
        "doc": "cap on motion confidence in the appearance-buffer decay"})
    tau_birth: float = field(default=0.6, metadata={
        "key": "lifecycle.tau_birth",
        "doc": "objectness needed for an unmatched candidate to spawn a track"})
    n_init: int = field(default=3, metadata={
        "key": "lifecycle.n_init", "doc": "consecutive hits before a tentative track confirms"})
    max_age: int = field(default=30, metadata={
        "key": "lifecycle.max_age", "doc": "coasting frames before a track retires"})
    kinematics: KinematicsConfig = field(default_factory=KinematicsConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("alpha", "tau_match", "tau_gamma", "tau_birth"):
            _check_score(getattr(self, name), name)
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {self.max_age}")


def _appearance_matrix(
    tracks: list[Track],
    candidates: list[DetectionCandidate],
) -> np.ndarray:
    """Appearance affinity of every (track, candidate) pair, as one matrix.

    Cosine affinities, mapped to [0, 1] (0 where a vector is zero or
    missing), come from one matmul of the stacked track memories against
    the stacked embeddings of the candidates without a scalar s_mask, which
    must all share one dimension; scalar s_mask values then fill their
    column and mapping entries the rows of the tracks they name.
    """
    appearance = np.zeros((len(tracks), len(candidates)))
    cols, mapped = [], []  # candidates compared by cosine / with a mapping s_mask
    for j, cand in enumerate(candidates):
        if cand.s_mask is None or isinstance(cand.s_mask, Mapping):
            if cand.embedding is not None:
                cols.append(j)
            if cand.s_mask is not None:
                mapped.append(j)
        else:
            appearance[:, j] = cand.s_mask
    rows = [i for i, t in enumerate(tracks) if t.memory is not None]
    if rows and cols:
        memories = [tracks[i].memory for i in rows]
        embeddings = [candidates[j].embedding for j in cols]
        shapes = sorted({v.shape for v in memories + embeddings})
        if len(shapes) > 1:
            raise ValueError(f"buffer/embedding dimension mismatch: {' vs '.join(map(str, shapes))}")
        mem, emb = np.array(memories), np.array(embeddings)
        na = np.linalg.norm(mem, axis=1)
        nb = np.linalg.norm(emb, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = (mem @ emb.T) / np.outer(na, nb)
        cosine = np.minimum(np.maximum(0.5 * (1.0 + cos), 0.0), 1.0)
        cosine[(na == 0.0)[:, np.newaxis] | (nb == 0.0)[np.newaxis, :]] = 0.0
        appearance[np.array(rows)[:, np.newaxis], cols] = cosine
    for j in mapped:
        s_mask = candidates[j].s_mask
        for i, track in enumerate(tracks):
            if track.id in s_mask:
                appearance[i, j] = s_mask[track.id]
    return appearance


def _score_matrices(
    tracks: list[Track],
    candidates: list[DetectionCandidate],
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(fused, motion) score matrices of every (track, candidate) pair.

    motion is the IoU of each track's prediction against each candidate
    box; fused is alpha * appearance + (1 - alpha) * motion.
    """
    for track in tracks:
        if track.predicted_box is None:
            raise ValueError(f"track {track.id} has no prediction for this frame")
    motion = iou_matrix(
        boxes_array(t.predicted_box for t in tracks),
        boxes_array(c.box for c in candidates),
    )
    fused = alpha * _appearance_matrix(tracks, candidates) + (1.0 - alpha) * motion
    if not np.all(np.isfinite(fused)):
        raise ValueError("association scores contain non-finite entries")
    return fused, motion


def associate_frame(
    tracks: list[Track],
    candidates: list[DetectionCandidate],
    config: TrackerConfig,
) -> AssociationResult:
    """Resolve this frame's exclusive track-candidate assignment.

    hungarian mode returns the one-to-one assignment maximising the total
    fused score over pairs at or above tau_match. greedy mode lets every
    track pick its own best candidate (ties to the lower candidate index);
    when several tracks claim one candidate the highest fused score wins
    and the losers stay unmatched.
    """
    fused, motion = _score_matrices(tracks, candidates, config.alpha)
    n_tracks, n_cands = fused.shape
    assigned: dict[int, int] = {}  # track index -> candidate index

    if n_tracks and n_cands:
        admissible = fused >= config.tau_match
        if config.mode == "hungarian":
            rows, cols = linear_sum_assignment(
                np.where(admissible, fused, 0.0), maximize=True
            )
            for r, c in zip(rows, cols):
                if admissible[r, c]:
                    assigned[int(r)] = int(c)
        else:
            claims: dict[int, int] = {}  # candidate index -> track index
            for i in range(n_tracks):
                j = int(np.argmax(fused[i]))
                if not admissible[i, j]:
                    continue
                holder = claims.get(j)
                if holder is None or fused[i, j] > fused[holder, j]:
                    claims[j] = i
            assigned = {i: j for j, i in claims.items()}

    matches = tuple(
        Match(
            track_id=tracks[i].id,
            candidate_index=j,
            score=float(fused[i, j]),
            motion_score=float(motion[i, j]),
        )
        for i, j in sorted(assigned.items())
    )
    unmatched_tracks = tuple(
        tracks[i].id for i in range(n_tracks) if i not in assigned
    )
    matched_cands = set(assigned.values())
    unmatched_candidates = tuple(
        j for j in range(n_cands) if j not in matched_cands
    )
    return AssociationResult(matches, unmatched_tracks, unmatched_candidates)


@dataclass(frozen=True)
class TrackOutput:
    """One per-frame record: matched tracks report the selected candidate box,
    coasting tracks their predicted box."""

    track_id: int
    box: BoundingBox
    status: str
    score: float | None  # fused score of this frame's match; None while coasting


@dataclass
class TrackerState:
    """Single-writer state for one tracked sequence."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    tracks: list[Track] = field(default_factory=list)
    next_id: int = 1
    frame_index: int = 0


def _spawn_track(state: TrackerState, candidate: DetectionCandidate) -> Track:
    cfg = state.config
    track = Track(
        id=state.next_id,
        kalman=kf_init(candidate.box, cfg.kinematics),
        status=CONFIRMED if cfg.n_init <= 1 else TENTATIVE,
        hits=1,
        last_box=candidate.box,
        last_score=None,
    )
    if candidate.embedding is not None:
        track.memory = candidate.embedding.copy()
    state.next_id += 1
    return track


def step_tracker(
    state: TrackerState,
    frame: list[DetectionCandidate],
    frame_index: int | None = None,
) -> tuple[TrackerState, list[TrackOutput]]:
    """Advance the tracker by one frame of candidates.

    Runs predict -> associate -> gated update (+ appearance buffer) for
    matches, then lifecycle: unmatched candidates above tau_birth spawn
    tentative tracks, tentative tracks confirm after n_init consecutive
    hits, tracks whose misses exceed max_age retire, and the rest coast as
    lost on their predictions.

    frame_index defaults to the next frame; passing an explicit index that
    does not advance time raises ValueError. The state is mutated in place
    and returned alongside this frame's output records.
    """
    cfg = state.config
    if frame_index is None:
        frame_index = state.frame_index + 1
    elif frame_index <= state.frame_index:
        raise ValueError(
            f"frame index {frame_index} is not after {state.frame_index}"
        )
    state.frame_index = frame_index

    for track in state.tracks:
        track.kalman, track.predicted_box = kf_predict(track.kalman)

    result = associate_frame(state.tracks, frame, cfg)
    by_id = {track.id: track for track in state.tracks}

    for m in result.matches:
        track = by_id[m.track_id]
        cand = frame[m.candidate_index]
        reliable = cand.s_obj >= cfg.kinematics.tau_obj
        track.kalman = kf_gated_update(track.kalman, cand.box, reliable, cfg.kinematics)
        if cand.embedding is not None:
            if track.memory is None:
                track.memory = cand.embedding.copy()
            else:
                track.memory, _ = temporal_buffer_update(
                    track.memory, cand.embedding, m.motion_score, cfg.tau_gamma
                )
        track.misses = 0
        track.hits += 1
        if track.status == TENTATIVE:
            if track.hits >= cfg.n_init:
                track.status = CONFIRMED
        else:
            track.status = CONFIRMED
        track.last_box = cand.box
        track.last_score = m.score

    retired: set[int] = set()
    for track_id in result.unmatched_tracks:
        track = by_id[track_id]
        track.misses += 1
        if track.status == TENTATIVE or track.misses > cfg.max_age:
            retired.add(track_id)
            continue
        track.status = LOST
        track.last_box = track.predicted_box
        track.last_score = None
    if retired:
        state.tracks = [t for t in state.tracks if t.id not in retired]

    for j in result.unmatched_candidates:
        cand = frame[j]
        if cand.s_obj >= cfg.tau_birth:
            state.tracks.append(_spawn_track(state, cand))

    outputs = [
        TrackOutput(track.id, track.last_box, track.status, track.last_score)
        for track in state.tracks
        if track.last_box is not None
    ]
    return state, outputs
