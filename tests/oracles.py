"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written on a different route from the
production code: explicit dense matrices and matrix inverses for the Kalman
filter, pure-Python loops and an unshifted softmax for the attention
scorer, pixel counting for IoU, per-pair scalar scorers for association,
permutation search for assignment, and a dictionary-based HOTA. None of it
imports from motrack's internals beyond plain data values, except the
per-pair scorers, the per-metric evaluation loops and the MOT loaders: they
are the references for the tracker's per-frame score matrices, the shared
per-frame evaluation and the column parser, and call the scalar ``iou``, the
score range check, the public IoU kernels and BoundingBox/DetectionCandidate
validation on purpose, so that the comparison can be exact.

The per-pair scorers (``motion_consistency_score``, ``fused_score``,
``cosine_affinity``, ``candidate_affinity``) were the library's own scalar
path before the tracker scored each frame as whole matrices; they live here
unchanged as that path's reference. Likewise ``step_tracker_oracle`` is the
tracker's per-track step from before it kept its tracks as columns, and
``associate_frame_oracle`` with ``score_matrices_oracle`` the association it
called then, on a list of tracks: a dict of assigned pairs and a sorted tuple
of ``Match`` values. The step calls the public per-track filter and buffer
functions, themselves checked against the dense filter and the closed-form EMA.

``load_sidecar_oracle`` and ``generate_oracle`` are the sidecar parser and the
scenario generator from before detections became one ``Frame`` of columns per
frame: a dict of per-entry tuples, and one ``DetectionCandidate`` per
detection. ``generate_oracle`` calls the scalar spawns, occlusion chain and
union box that the generator used before it worked on per-frame arrays, and
the all-pairs merge test and ``np.linalg.norm`` unit vectors it used before
it swept the merge test in x order, copied here unchanged, so it shares none
of those paths with the library.
``boxes_array`` stacks ``BoundingBox``es, as the tracker did before it read a
Frame's box column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

from motrack.association import (
    CONFIRMED,
    LOST,
    TENTATIVE,
    DetectionCandidate,
    Match,
    Track,
    TrackerConfig,
    TrackOutput,
    _check_score,
    kf_gated_update,
    kf_init,
    kf_predict,
    temporal_buffer_update,
)
from motrack.geometry import BoundingBox, iou, iou_matrix
from motrack.metrics import TrajectorySet
from motrack.mot_io import MotParseError, sidecar_path
from motrack.simulator import CLUTTER_SOBJ, EMBED_NOISE, MEAN_OCCLUSION_LEN, MERGED_SOBJ, ScenarioConfig, _signatures


# ---------------------------------------------------------------------------
# geometry


def boxes_array(boxes) -> np.ndarray:
    """Stack BoundingBoxes into an (n, 4) array of (x, y, w, h) rows."""
    return np.array([box.as_tuple() for box in boxes], dtype=float).reshape(-1, 4)


def pixel_count_iou(a, b) -> float:
    """IoU by enumerating unit pixels; exact for integer-aligned boxes."""

    def cells(box):
        x0, y0 = round(box.x), round(box.y)
        return {
            (i, j)
            for i in range(x0, x0 + round(box.w))
            for j in range(y0, y0 + round(box.h))
        }

    ca, cb = cells(a), cells(b)
    union = len(ca | cb)
    return len(ca & cb) / union if union else 0.0


# ---------------------------------------------------------------------------
# kinematics


class DenseKalmanOracle:
    """Textbook constant-velocity Kalman filter over [x,y,w,h,vx,vy,vw,vh].

    Uses full dense H/F matrix products and an explicit matrix inverse for
    the gain; the gated update increments/resets the reliability counter
    before checking the gate.
    """

    def __init__(self, box_xywh, pos_noise=0.05, vel_noise=0.05, obs_noise=0.1):
        x, y, w, h = box_xywh
        size = np.array([w, h, w, h], dtype=float)
        self.x = np.array([x, y, w, h, 0.0, 0.0, 0.0, 0.0])
        self.P = np.diag(
            np.concatenate([(2.0 * pos_noise * size) ** 2, (10.0 * vel_noise * size) ** 2])
        )
        self.Q = np.diag(
            np.concatenate([(pos_noise * size) ** 2, (vel_noise * size) ** 2])
        )
        self.R = np.diag((obs_noise * size) ** 2)
        self.F = np.eye(8)
        self.F[:4, 4:] = np.eye(4)
        self.H = np.hstack([np.eye(4), np.zeros((4, 4))])
        self.counter = 0

    def predict(self):
        self.x = self.F.dot(self.x)
        self.P = self.F.dot(self.P).dot(self.F.T) + self.Q
        self.P = 0.5 * (self.P + self.P.T)

    def gated_update(self, z_xywh, reliable, tau_kf) -> bool:
        self.counter = self.counter + 1 if reliable else 0
        if self.counter < tau_kf:
            return False
        z = np.asarray(z_xywh, dtype=float)
        s = self.H.dot(self.P).dot(self.H.T) + self.R
        k = self.P.dot(self.H.T).dot(np.linalg.inv(s))
        self.x = self.x + k.dot(z - self.H.dot(self.x))
        ikh = np.eye(8) - k.dot(self.H)
        self.P = ikh.dot(self.P).dot(ikh.T) + k.dot(self.R).dot(k.T)
        self.P = 0.5 * (self.P + self.P.T)
        return True


# ---------------------------------------------------------------------------
# attention / memory cache


def softmax_oracle(row) -> list[float]:
    exps = [math.exp(float(v)) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def _project(rows, weight):
    d = len(weight)
    return [
        [sum(row[a] * weight[a][b] for a in range(d)) for b in range(d)]
        for row in rows
    ]


def attention_oracle(f_q, f_k, w_q, w_k) -> list[list[float]]:
    """Scaled-dot-product attention with pure-Python arithmetic."""
    f_q = [list(map(float, r)) for r in np.atleast_2d(f_q)]
    f_k = [list(map(float, r)) for r in np.atleast_2d(f_k)]
    w_q = [list(map(float, r)) for r in np.asarray(w_q)]
    w_k = [list(map(float, r)) for r in np.asarray(w_k)]
    d = len(w_q)
    queries = _project(f_q, w_q)
    keys = _project(f_k, w_k)
    scale = math.sqrt(d)
    out = []
    for q in queries:
        logits = [sum(qa * ka for qa, ka in zip(q, key)) / scale for key in keys]
        out.append(softmax_oracle(logits))
    return out


def memory_select_oracle(current, memory, w_q, w_k, k):
    """Brute-force dual-branch importance scoring and top-k selection."""
    cross = attention_oracle(current, memory, w_q, w_k)[0]
    self_att = attention_oracle(memory, memory, w_q, w_k)
    n = len(self_att)
    consistency = [sum(self_att[i][j] for i in range(n)) / n for j in range(n)]
    scores = [cross[j] + consistency[j] for j in range(n)]
    order = sorted(range(n), key=lambda j: (-scores[j], j))
    return [(j, scores[j]) for j in order[:k]]


# ---------------------------------------------------------------------------
# association: per-pair scores


def motion_consistency_score(predicted: BoundingBox, candidate: BoundingBox) -> float:
    """IoU between the motion-predicted box and a candidate box."""
    return iou(predicted, candidate)


def fused_score(s_mask: float, s_kf: float, alpha: float) -> float:
    """Convex combination alpha * s_mask + (1 - alpha) * s_kf."""
    s_mask = _check_score(s_mask, "s_mask")
    s_kf = _check_score(s_kf, "s_kf")
    alpha = _check_score(alpha, "alpha")
    return alpha * s_mask + (1.0 - alpha) * s_kf


def cosine_affinity(memory: np.ndarray | None, embedding: np.ndarray | None) -> float:
    """Cosine similarity of buffer and embedding mapped to [0, 1]; 0 when unavailable."""
    if memory is None or embedding is None:
        return 0.0
    if memory.shape != embedding.shape:
        raise ValueError(
            f"buffer/embedding dimension mismatch: {memory.shape} vs {embedding.shape}"
        )
    na = float(np.linalg.norm(memory))
    nb = float(np.linalg.norm(embedding))
    if na == 0.0 or nb == 0.0:
        return 0.0
    cos = float(np.dot(memory, embedding) / (na * nb))
    return min(max(0.5 * (1.0 + cos), 0.0), 1.0)


def candidate_affinity(track: Track, candidate: DetectionCandidate) -> float:
    """Resolve a candidate's appearance affinity for one track."""
    s_mask = candidate.s_mask
    if isinstance(s_mask, Mapping):
        if track.id in s_mask:
            return float(s_mask[track.id])
        return cosine_affinity(track.memory, candidate.embedding)
    if s_mask is not None:
        return float(s_mask)
    return cosine_affinity(track.memory, candidate.embedding)


# ---------------------------------------------------------------------------
# assignment


def best_matching_score(score_matrix, tau) -> float:
    """Exhaustive search over one-to-one assignments; pairs below tau count
    as unmatched (contribute nothing)."""
    score = np.asarray(score_matrix, dtype=float)
    n, m = score.shape
    if n == 0 or m == 0:
        return 0.0
    best = 0.0
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            total = sum(
                score[i, perm[i]] for i in range(n) if score[i, perm[i]] >= tau
            )
            best = max(best, total)
    else:
        for perm in itertools.permutations(range(n), m):
            total = sum(
                score[perm[j], j] for j in range(m) if score[perm[j], j] >= tau
            )
            best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# EMA buffer


def ema_closed_form(b0, keys, gammas) -> np.ndarray:
    """Closed-form EMA: suffix-product weighting of the initial buffer and
    every key, summed with numpy's pairwise summation."""
    b0 = np.asarray(b0, dtype=float)
    keys = np.asarray(keys, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    n = len(gammas)
    suffix = np.ones(n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] * gammas[j]
    terms = (1.0 - gammas)[:, None] * suffix[1:, None] * keys
    return suffix[0] * b0 + terms.sum(axis=0)


# ---------------------------------------------------------------------------
# tracker


def _appearance_matrix_oracle(tracks: list[Track], candidates: list[DetectionCandidate]) -> np.ndarray:
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


def score_matrices_oracle(tracks: list[Track], candidates: list[DetectionCandidate], alpha: float):
    """(fused, motion) score matrices of a list of predicted tracks, as the
    tracker built them before it kept its tracks as columns."""
    for track in tracks:
        if track.predicted_box is None:
            raise ValueError(f"track {track.id} has no prediction for this frame")
    motion = iou_matrix(
        boxes_array(t.predicted_box for t in tracks),
        boxes_array(c.box for c in candidates),
    )
    fused = alpha * _appearance_matrix_oracle(tracks, candidates) + (1.0 - alpha) * motion
    if not np.all(np.isfinite(fused)):
        raise ValueError("association scores contain non-finite entries")
    return fused, motion


@dataclass(frozen=True)
class OracleAssociation:
    matches: tuple[Match, ...]
    unmatched_tracks: tuple[int, ...]      # track ids
    unmatched_candidates: tuple[int, ...]  # candidate indices


def associate_frame_oracle(
    tracks: list[Track],
    candidates: list[DetectionCandidate],
    config: TrackerConfig,
) -> OracleAssociation:
    """``associate_frame`` on a list of tracks, before its result became arrays."""
    fused, motion = score_matrices_oracle(tracks, candidates, config.alpha)
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
    return OracleAssociation(matches, unmatched_tracks, unmatched_candidates)


@dataclass
class OracleTrackerState:
    """The tracker state before it moved to columns: a list of ``Track``s."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    tracks: list[Track] = field(default_factory=list)
    next_id: int = 1
    frame_index: int = 0


def _spawn_track_oracle(state: OracleTrackerState, candidate: DetectionCandidate) -> Track:
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


def step_tracker_oracle(
    state: OracleTrackerState,
    frame: list[DetectionCandidate],
    frame_index: int | None = None,
) -> tuple[OracleTrackerState, list[TrackOutput]]:
    """The per-track ``step_tracker``: one ``kf_predict``, ``kf_gated_update``
    and ``temporal_buffer_update`` call per track, unchanged from before the
    tracker ran each stage once over all rows."""
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

    result = associate_frame_oracle(state.tracks, frame, cfg)
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
            state.tracks.append(_spawn_track_oracle(state, cand))

    outputs = [
        TrackOutput(track.id, track.last_box, track.status, track.last_score)
        for track in state.tracks
        if track.last_box is not None
    ]
    return state, outputs


# ---------------------------------------------------------------------------
# HOTA


def _iou_xywh(a, b) -> float:
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def hota_oracle(gt_records, hyp_records, alphas) -> tuple[float, float, float]:
    """Dictionary-based HOTA: per-pair soft alignment, one matching per
    frame maximised over alignment-weighted IoU (by permutation search),
    then the per-alpha TP/FN/FP and association Jaccard.

    Records are (frame, identity, (x, y, w, h)) triples. Frame matchings
    use exhaustive permutations, so keep fixtures small.
    """
    frames = sorted({r[0] for r in gt_records} | {r[0] for r in hyp_records})
    gt_by_frame = {f: {} for f in frames}
    hyp_by_frame = {f: {} for f in frames}
    for f, i, box in gt_records:
        gt_by_frame[f][i] = box
    for f, i, box in hyp_records:
        hyp_by_frame[f][i] = box

    gt_count: dict[int, int] = {}
    hyp_count: dict[int, int] = {}
    potential: dict[tuple[int, int], float] = {}
    for f in frames:
        gids = sorted(gt_by_frame[f])
        hids = sorted(hyp_by_frame[f])
        for g in gids:
            gt_count[g] = gt_count.get(g, 0) + 1
        for h in hids:
            hyp_count[h] = hyp_count.get(h, 0) + 1
        sims = {
            (g, h): _iou_xywh(gt_by_frame[f][g], hyp_by_frame[f][h])
            for g in gids
            for h in hids
        }
        for g in gids:
            for h in hids:
                denom = (
                    sum(sims[(g2, h)] for g2 in gids)
                    + sum(sims[(g, h2)] for h2 in hids)
                    - sims[(g, h)]
                )
                if denom > 1e-12:
                    potential[(g, h)] = potential.get((g, h), 0.0) + sims[(g, h)] / denom

    def alignment(g, h):
        p = potential.get((g, h), 0.0)
        return p / max(gt_count[g] + hyp_count[h] - p, 1e-12)

    per_alpha = {a: {"tp": 0, "fn": 0, "fp": 0, "matches": {}} for a in alphas}
    for f in frames:
        gids = sorted(gt_by_frame[f])
        hids = sorted(hyp_by_frame[f])
        if not gids or not hids:
            for a in alphas:
                per_alpha[a]["fn"] += len(gids)
                per_alpha[a]["fp"] += len(hids)
            continue
        sims = {
            (g, h): _iou_xywh(gt_by_frame[f][g], hyp_by_frame[f][h])
            for g in gids
            for h in hids
        }
        best_pairs, best_total = [], -1.0
        short, long_, flip = (
            (gids, hids, False) if len(gids) <= len(hids) else (hids, gids, True)
        )
        for perm in itertools.permutations(long_, len(short)):
            pairs = [
                (b, a) if flip else (a, b) for a, b in zip(short, perm)
            ]
            total = sum(alignment(g, h) * sims[(g, h)] for g, h in pairs)
            if total > best_total:
                best_total, best_pairs = total, pairs
        for a in alphas:
            kept = [(g, h) for g, h in best_pairs if sims[(g, h)] >= a - 1e-12]
            per_alpha[a]["tp"] += len(kept)
            per_alpha[a]["fn"] += len(gids) - len(kept)
            per_alpha[a]["fp"] += len(hids) - len(kept)
            for pair in kept:
                per_alpha[a]["matches"][pair] = per_alpha[a]["matches"].get(pair, 0) + 1

    hotas, detas, assas = [], [], []
    for a in alphas:
        stats = per_alpha[a]
        tp, fn, fp = stats["tp"], stats["fn"], stats["fp"]
        deta = tp / max(tp + fn + fp, 1)
        ass_sum = 0.0
        for (g, h), count in stats["matches"].items():
            ass_sum += count * (count / max(gt_count[g] + hyp_count[h] - count, 1))
        assa = ass_sum / max(tp, 1)
        detas.append(deta)
        assas.append(assa)
        hotas.append(math.sqrt(deta * assa))
    n = len(alphas)
    return sum(hotas) / n, sum(detas) / n, sum(assas) / n


# ---------------------------------------------------------------------------
# Per-metric evaluation loops
#
# CLEAR, identity and HOTA as each built its own per-frame IoU: CLEAR checks
# persistence with scalar IoU and completes on a sub-matrix, and HOTA counts
# every alpha in a per-frame loop. `evaluate` must equal these exactly.

_EPS = 1e-12


def _sub_iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    return iou_matrix(boxes_array(boxes_a), boxes_array(boxes_b))


def clear_loop_oracle(gt, hyp, iou_threshold) -> tuple[float | None, int, int, int, int]:
    """(mota, fp, fn, ids, total_gt) by persist-then-complete frame matching."""
    gt, hyp = DictTrajectorySet.of(gt), DictTrajectorySet.of(hyp)
    last: dict[int, int] = {}
    fp = fn = ids = 0
    for frame in sorted(set(gt.frames) | set(hyp.frames)):
        gmap = gt.at(frame)
        hmap = hyp.at(frame)
        gids = sorted(gmap)
        hids = sorted(hmap)

        matched_g: set[int] = set()
        matched_h: set[int] = set()
        for g in gids:
            h = last.get(g)
            if h is not None and h in hmap and h not in matched_h:
                if iou(gmap[g], hmap[h]) >= iou_threshold:
                    matched_g.add(g)
                    matched_h.add(h)

        rem_g = [g for g in gids if g not in matched_g]
        rem_h = [h for h in hids if h not in matched_h]
        if rem_g and rem_h:
            sim = _sub_iou_matrix([gmap[g] for g in rem_g], [hmap[h] for h in rem_h])
            admissible = sim >= iou_threshold
            rows, cols = linear_sum_assignment(np.where(admissible, sim, 0.0), maximize=True)
            for r, c in zip(rows, cols):
                if not admissible[r, c]:
                    continue
                g, h = rem_g[r], rem_h[c]
                if g in last and last[g] != h:
                    ids += 1
                last[g] = h
                matched_g.add(g)
                matched_h.add(h)

        fn += len(gids) - len(matched_g)
        fp += len(hids) - len(matched_h)

    total_gt = gt.total_boxes()
    mota = None if total_gt == 0 else 1.0 - (fp + fn + ids) / total_gt
    return mota, fp, fn, ids, total_gt


def identity_loop_oracle(gt, hyp, iou_threshold) -> tuple[float | None, float | None, float | None, int]:
    """(idf1, idp, idr, idtp) from per-frame overlap counts and one assignment."""
    gt, hyp = DictTrajectorySet.of(gt), DictTrajectorySet.of(hyp)
    total_gt = gt.total_boxes()
    total_hyp = hyp.total_boxes()
    if total_gt == 0:
        return None, None, None, 0
    gt_ids = gt.identities()
    hyp_ids = hyp.identities()
    if not hyp_ids:
        return 0.0, 0.0, 0.0, 0

    g_index = {g: i for i, g in enumerate(gt_ids)}
    h_index = {h: j for j, h in enumerate(hyp_ids)}
    overlap = np.zeros((len(gt_ids), len(hyp_ids)))
    for frame in gt.frames:
        gmap = gt.at(frame)
        hmap = hyp.at(frame)
        if not hmap:
            continue
        gids = [g_index[g] for g in gmap]
        hids = [h_index[h] for h in hmap]
        sim = _sub_iou_matrix(list(gmap.values()), list(hmap.values()))
        overlap[np.ix_(gids, hids)] += sim >= iou_threshold

    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    idp = idtp / total_hyp if total_hyp else 0.0
    idr = idtp / total_gt
    idf1 = 2.0 * idtp / (total_gt + total_hyp)
    return idf1, idp, idr, idtp


def hota_loop_oracle(gt, hyp, alphas) -> tuple[float | None, float | None, float | None]:
    """(hota, deta, assa) with one matching per frame and a per-alpha count loop."""
    gt, hyp = DictTrajectorySet.of(gt), DictTrajectorySet.of(hyp)
    if gt.total_boxes() == 0:
        return None, None, None
    if hyp.total_boxes() == 0:
        return 0.0, 0.0, 0.0

    gt_ids = gt.identities()
    hyp_ids = hyp.identities()
    g_index = {g: i for i, g in enumerate(gt_ids)}
    h_index = {h: j for j, h in enumerate(hyp_ids)}
    n_g, n_h = len(gt_ids), len(hyp_ids)

    per_frame = []
    gt_counts = np.zeros(n_g)
    hyp_counts = np.zeros(n_h)
    potential = np.zeros((n_g, n_h))
    for frame in sorted(set(gt.frames) | set(hyp.frames)):
        gmap = gt.at(frame)
        hmap = hyp.at(frame)
        gids = np.array([g_index[g] for g in sorted(gmap)], dtype=int)
        hids = np.array([h_index[h] for h in sorted(hmap)], dtype=int)
        sim = _sub_iou_matrix([gmap[g] for g in sorted(gmap)], [hmap[h] for h in sorted(hmap)])
        per_frame.append((gids, hids, sim))
        gt_counts[gids] += 1
        hyp_counts[hids] += 1
        if sim.size:
            denom = sim.sum(axis=0, keepdims=True) + sim.sum(axis=1, keepdims=True) - sim
            soft = np.where(denom > _EPS, sim / np.maximum(denom, _EPS), 0.0)
            potential[np.ix_(gids, hids)] += soft

    alignment = potential / np.maximum(
        gt_counts[:, np.newaxis] + hyp_counts[np.newaxis, :] - potential, _EPS
    )

    n_alpha = len(alphas)
    tp = np.zeros(n_alpha)
    fp = np.zeros(n_alpha)
    fn = np.zeros(n_alpha)
    matches = np.zeros((n_alpha, n_g, n_h))
    for gids, hids, sim in per_frame:
        if sim.size == 0:
            fn += len(gids)
            fp += len(hids)
            continue
        score = alignment[np.ix_(gids, hids)] * sim
        rows, cols = linear_sum_assignment(score, maximize=True)
        pair_sims = sim[rows, cols]
        for a, alpha in enumerate(alphas):
            keep = pair_sims >= alpha - _EPS
            n_match = int(keep.sum())
            tp[a] += n_match
            fn[a] += len(gids) - n_match
            fp[a] += len(hids) - n_match
            matches[a][gids[rows[keep]], hids[cols[keep]]] += 1

    deta = tp / np.maximum(tp + fn + fp, 1.0)
    assa = np.zeros(n_alpha)
    for a in range(n_alpha):
        pair_jaccard = matches[a] / np.maximum(
            gt_counts[:, np.newaxis] + hyp_counts[np.newaxis, :] - matches[a], 1.0
        )
        assa[a] = (matches[a] * pair_jaccard).sum() / max(tp[a], 1.0)
    hota_curve = np.sqrt(deta * assa)
    return float(hota_curve.mean()), float(deta.mean()), float(assa.mean())


def hota_potential_loop_oracle(gt, hyp) -> np.ndarray:
    """HOTA's potential as the per-frame loop summed it: each frame's soft
    Jaccard from its IoU matrix's row and column sums, added per frame."""
    potential = np.zeros((len(gt.identities()), len(hyp.identities())))
    for gids, hids, sim in frame_table_loop_oracle(gt, hyp):
        if sim.size:
            denom = sim.sum(axis=0, keepdims=True) + sim.sum(axis=1, keepdims=True) - sim
            soft = np.where(denom > _EPS, sim / np.maximum(denom, _EPS), 0.0)
            potential[np.ix_(gids, hids)] += soft
    return potential


def frame_table_loop_oracle(gt, hyp) -> list[tuple[list[int], list[int], np.ndarray]]:
    """Per frame of the union: GT and hypothesis identity indices and one
    ``iou_matrix`` of that frame's boxes in identity order."""
    gt, hyp = DictTrajectorySet.of(gt), DictTrajectorySet.of(hyp)
    g_index = {g: i for i, g in enumerate(gt.identities())}
    h_index = {h: j for j, h in enumerate(hyp.identities())}
    rows = []
    for frame in sorted(set(gt.frames) | set(hyp.frames)):
        gmap = gt.at(frame)
        hmap = hyp.at(frame)
        rows.append((
            [g_index[g] for g in sorted(gmap)],
            [h_index[h] for h in sorted(hmap)],
            _sub_iou_matrix([gmap[g] for g in sorted(gmap)], [hmap[h] for h in sorted(hmap)]),
        ))
    return rows


# ---------------------------------------------------------------------------
# MOT file loading
#
# The dict-backed trajectory set and the per-line loaders that built one
# validated BoundingBox per line. The columnar TrajectorySet and the column
# parser must give the same sets, candidates and first-bad-line errors.


class DictTrajectorySet:
    """Per-frame mapping of identity to box."""

    def __init__(self) -> None:
        self._frames: dict[int, dict[int, BoundingBox]] = {}

    @classmethod
    def of(cls, ts) -> "DictTrajectorySet":
        """The boxes of any trajectory set, read through its records."""
        out = cls()
        for frame, identity, box in ts.records():
            out.add(frame, identity, box)
        return out

    def add(self, frame: int, identity: int, box: BoundingBox) -> None:
        per_frame = self._frames.setdefault(int(frame), {})
        if identity in per_frame:
            raise ValueError(f"identity {identity} appears twice in frame {frame}")
        per_frame[int(identity)] = box

    @property
    def frames(self) -> list[int]:
        return sorted(self._frames)

    def at(self, frame: int) -> dict[int, BoundingBox]:
        return self._frames.get(frame, {})

    def identities(self) -> list[int]:
        seen: set[int] = set()
        for per_frame in self._frames.values():
            seen.update(per_frame)
        return sorted(seen)

    def total_boxes(self) -> int:
        return sum(len(per_frame) for per_frame in self._frames.values())

    def records(self):
        for frame in self.frames:
            per_frame = self._frames[frame]
            for identity in sorted(per_frame):
                yield frame, identity, per_frame[identity]


def parse_rows_oracle(path) -> list[tuple[int, int, BoundingBox, float]]:
    rows = []
    for lineno, raw in enumerate(open(path).read().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise MotParseError(f"{path}:{lineno}: expected at least 7 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            ident = int(float(parts[1]))
            x, y, w, h = (float(p) for p in parts[2:6])
            conf = float(parts[6])
        except ValueError as exc:
            raise MotParseError(f"{path}:{lineno}: malformed line {raw!r}") from exc
        if not math.isfinite(conf):
            raise MotParseError(f"{path}:{lineno}: conf must be finite, got {parts[6].strip()!r}")
        try:
            box = BoundingBox(x, y, w, h)
        except ValueError as exc:
            raise MotParseError(f"{path}:{lineno}: {exc}") from exc
        rows.append((frame, ident, box, conf))
    return rows


def load_trajectories_oracle(path) -> DictTrajectorySet:
    ts = DictTrajectorySet()
    for frame, ident, box, _conf in parse_rows_oracle(path):
        if ident < 0:
            raise MotParseError(f"{path}: id {ident} marks a detection line; use load_detections")
        ts.add(frame, ident, box)
    return ts


def load_detections_oracle(path, sidecar=None) -> dict[int, list[DetectionCandidate]]:
    side = {}
    sidecar = sidecar if sidecar is not None else sidecar_path(path)
    if sidecar.exists():
        side = load_sidecar_oracle(sidecar)
    frames: dict[int, list[DetectionCandidate]] = {}
    for frame, _ident, box, conf in parse_rows_oracle(path):
        bucket = frames.setdefault(frame, [])
        s_mask, embedding = side.pop((frame, len(bucket)), (None, None))
        bucket.append(DetectionCandidate(
            box=box, s_obj=min(max(conf, 0.0), 1.0), s_mask=s_mask, embedding=embedding,
        ))
    if side:
        frame, cand = next(iter(side))
        raise MotParseError(
            f"{sidecar}: entry for frame {frame}, candidate {cand} matches no detection in {path}"
        )
    return frames


def load_sidecar_oracle(path: str | Path) -> dict[tuple[int, int], tuple[float | None, np.ndarray | None]]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise MotParseError(f"{path}: empty sidecar")
    header = text[0].split()
    if len(header) != 3 or header[0] != "aff" or header[1] != "1":
        raise MotParseError(f"{path}: bad sidecar header {text[0]!r} (expected 'aff 1 <dim>')")
    try:
        dim = int(header[2])
    except ValueError as exc:
        raise MotParseError(f"{path}: bad sidecar dim {header[2]!r}") from exc
    if dim < 0:
        raise MotParseError(f"{path}:1: sidecar dim must be >= 0, got {dim}")

    entries: dict[tuple[int, int], tuple[float | None, np.ndarray | None]] = {}
    embedded: list[tuple[int, np.ndarray]] = []  # (line, embedding), checked finite in one pass
    try:
        for lineno, raw in enumerate(text[1:], start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) not in (3, 3 + dim):
                raise MotParseError(
                    f"{path}:{lineno}: expected 3 or {3 + dim} fields, got {len(parts)}"
                )
            try:
                frame = int(parts[0])
                cand = int(parts[1])
                s_mask = None if parts[2] == "-" else float(parts[2])
                embedding = np.array(parts[3:], dtype=float) if len(parts) > 3 else None
            except ValueError as exc:
                raise MotParseError(f"{path}:{lineno}: malformed line {raw!r}") from exc
            key = (frame, cand)
            if key in entries:
                raise MotParseError(f"{path}:{lineno}: a second entry for frame {frame}, candidate {cand}")
            if s_mask is not None and not 0.0 <= s_mask <= 1.0:
                raise MotParseError(f"{path}:{lineno}: s_mask must be in [0, 1], got {parts[2]!r}")
            entries[key] = (s_mask, embedding)
            if embedding is not None:
                embedded.append((lineno, embedding))
    except MotParseError:
        _check_finite_oracle(path, embedded)  # a bad embedding on an earlier line comes first
        raise
    _check_finite_oracle(path, embedded)
    return entries


def _check_finite_oracle(path: str | Path, embedded: list[tuple[int, np.ndarray]]) -> None:
    if embedded:
        finite = np.isfinite(np.array([embedding for _, embedding in embedded])).all(axis=1)
        if not finite.all():
            lineno = embedded[int(np.argmin(finite))][0]
            raise MotParseError(f"{path}:{lineno}: embedding contains non-finite entries")


# ---------------------------------------------------------------------------
# simulator


def _spawn_free(rng, config: ScenarioConfig, sizes: np.ndarray):
    """Random spawn positions and headings for free-roaming agents."""
    w_arena, h_arena = config.arena
    centers = np.empty((config.n_agents, 2))
    velocities = np.empty((config.n_agents, 2))
    for i in range(config.n_agents):
        half = sizes[i] / 2.0
        centers[i, 0] = rng.uniform(half[0], w_arena - half[0])
        centers[i, 1] = rng.uniform(half[1], h_arena - half[1])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(*config.speed_range)
        velocities[i] = speed * np.array([math.cos(angle), math.sin(angle)])
    return centers, velocities


def _spawn_crossing(rng, config: ScenarioConfig, sizes: np.ndarray):
    """Agents on linear paths through a shared waypoint with synchronised arrival."""
    w_arena, h_arena = config.arena
    waypoint = np.array([
        w_arena / 2.0 + rng.uniform(-0.05, 0.05) * w_arena,
        h_arena / 2.0 + rng.uniform(-0.05, 0.05) * h_arena,
    ])
    base = rng.uniform(0.0, 2.0 * math.pi)
    headings = []
    speeds = []
    for i in range(config.n_agents):
        angle = base + i * 2.0 * math.pi / config.n_agents + rng.uniform(-0.2, 0.2)
        headings.append(np.array([math.cos(angle), math.sin(angle)]))
        speeds.append(rng.uniform(*config.speed_range))

    # Largest shared back-off time that keeps every spawn inside the arena.
    t_meet = config.n_frames / 2.0
    for i in range(config.n_agents):
        half = sizes[i] / 2.0
        for axis, extent in ((0, w_arena), (1, h_arena)):
            step = speeds[i] * abs(headings[i][axis])
            if step > 1e-9:
                room = min(waypoint[axis] - half[axis], extent - half[axis] - waypoint[axis])
                t_meet = min(t_meet, room / step)
    t_meet = max(t_meet, 1.0)

    centers = np.empty((config.n_agents, 2))
    velocities = np.empty((config.n_agents, 2))
    for i in range(config.n_agents):
        velocities[i] = speeds[i] * headings[i]
        centers[i] = waypoint - velocities[i] * t_meet
    return centers, velocities


def _occlusion_mask(rng, config: ScenarioConfig) -> np.ndarray:
    """Boolean (n_agents, n_frames) mask of suppressed detections."""
    occluded = np.zeros((config.n_agents, config.n_frames), dtype=bool)
    for agent, first, last in config.occlusion_windows:
        occluded[agent - 1, max(first - 1, 0) : last] = True
    if config.occlusion_rate > 0:
        # Two-state Markov chain whose stationary occupancy matches the rate.
        p_stay = 1.0 - 1.0 / MEAN_OCCLUSION_LEN
        rate = min(config.occlusion_rate, 0.95)
        p_on = rate / (MEAN_OCCLUSION_LEN * (1.0 - rate))
        for i in range(config.n_agents):
            state = False
            for t in range(config.n_frames):
                u = rng.uniform()
                state = (u < p_stay) if state else (u < p_on)
                occluded[i, t] = occluded[i, t] or state
    return occluded


def _merge_clusters(boxes: list[BoundingBox], threshold: float) -> list[list[int]]:
    """Connected components of the overlap graph over the given boxes."""
    n = len(boxes)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if iou(boxes[i], boxes[j]) > threshold:
                parent[find(j)] = find(i)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return sorted(clusters.values(), key=lambda c: c[0])


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _union_box(boxes: list[BoundingBox]) -> BoundingBox:
    x0 = min(b.x for b in boxes)
    y0 = min(b.y for b in boxes)
    x1 = max(b.right for b in boxes)
    y1 = max(b.bottom for b in boxes)
    return BoundingBox(x0, y0, x1 - x0, y1 - y0)


def generate_oracle(config: ScenarioConfig) -> tuple[TrajectorySet, list[list[DetectionCandidate]]]:
    """Produce ground truth and per-frame detection candidates for a scenario.

    Returns:
        (gt, frames) where gt maps every frame and agent (ids 1..n_agents)
        to its true box, and frames[t] holds the candidates of frame t+1.
    """
    rng = np.random.default_rng(config.seed)
    w_arena, h_arena = config.arena

    sizes = np.column_stack([
        rng.uniform(config.box_size_range[0], config.box_size_range[1], config.n_agents),
        rng.uniform(config.box_size_range[0], config.box_size_range[1], config.n_agents),
    ])
    signatures = _signatures(rng, config.n_agents, config.embed_dim)
    if config.crossing:
        centers, velocities = _spawn_crossing(rng, config, sizes)
    else:
        centers, velocities = _spawn_free(rng, config, sizes)
    occluded = _occlusion_mask(rng, config)

    gt_boxes: list[tuple[float, float, float, float]] = []  # frame-major, agents in id order
    frames: list[list[DetectionCandidate]] = []

    for t in range(config.n_frames):
        # Advance motion (frame 1 uses the spawn state as-is).
        if t > 0:
            for i in range(config.n_agents):
                if config.turn_rate > 0 and rng.uniform() < config.turn_rate:
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    speed = rng.uniform(*config.speed_range)
                    velocities[i] = speed * np.array([math.cos(angle), math.sin(angle)])
                centers[i] += velocities[i]
                for axis, extent in ((0, w_arena), (1, h_arena)):
                    half = sizes[i, axis] / 2.0
                    if centers[i, axis] < half:
                        centers[i, axis] = 2.0 * half - centers[i, axis]
                        velocities[i, axis] = -velocities[i, axis]
                    elif centers[i, axis] > extent - half:
                        centers[i, axis] = 2.0 * (extent - half) - centers[i, axis]
                        velocities[i, axis] = -velocities[i, axis]

        true_boxes: list[BoundingBox] = []
        for i in range(config.n_agents):
            box = BoundingBox(
                centers[i, 0] - sizes[i, 0] / 2.0,
                centers[i, 1] - sizes[i, 1] / 2.0,
                sizes[i, 0],
                sizes[i, 1],
            )
            true_boxes.append(box)
            gt_boxes.append(box.as_tuple())

        visible = [i for i in range(config.n_agents) if not occluded[i, t]]

        if config.proximity_merge and len(visible) > 1:
            clusters = _merge_clusters([true_boxes[i] for i in visible], config.merge_iou)
            clusters = [[visible[j] for j in c] for c in clusters]
        else:
            clusters = [[i] for i in visible]

        candidates: list[DetectionCandidate] = []
        for cluster in clusters:
            if len(cluster) == 1:
                i = cluster[0]
                if config.miss_rate > 0 and rng.uniform() < config.miss_rate:
                    continue
                box = true_boxes[i]
                if config.detection_noise > 0:
                    s = config.detection_noise
                    dx, dy, dw, dh = rng.normal(size=4)
                    box = BoundingBox(
                        box.x + dx * s * box.w,
                        box.y + dy * s * box.h,
                        max(box.w + dw * s * box.w, 2.0),
                        max(box.h + dh * s * box.h, 2.0),
                    )
                if config.n_agents > 1 and rng.uniform() >= config.affinity_fidelity:
                    other = int(rng.integers(config.n_agents - 1))
                    sig = signatures[other if other < i else other + 1]
                else:
                    sig = signatures[i]
                emb = _unit(sig + EMBED_NOISE * rng.normal(size=config.embed_dim))
                candidates.append(DetectionCandidate(
                    box=box,
                    s_obj=float(rng.uniform(0.75, 1.0)),
                    embedding=emb,
                ))
            else:
                box = _union_box([true_boxes[i] for i in cluster])
                sig = _unit(signatures[cluster].mean(axis=0))
                emb = _unit(sig + EMBED_NOISE * rng.normal(size=config.embed_dim))
                candidates.append(DetectionCandidate(
                    box=box,
                    s_obj=float(rng.uniform(*MERGED_SOBJ)),
                    embedding=emb,
                ))

        if config.fp_rate > 0:
            for _ in range(int(rng.poisson(config.fp_rate))):
                fw = rng.uniform(*config.box_size_range)
                fh = rng.uniform(*config.box_size_range)
                fx = rng.uniform(0.0, w_arena - fw)
                fy = rng.uniform(0.0, h_arena - fh)
                emb = _unit(rng.normal(size=config.embed_dim))
                candidates.append(DetectionCandidate(
                    box=BoundingBox(fx, fy, fw, fh),
                    s_obj=float(rng.uniform(*CLUTTER_SOBJ)),
                    embedding=emb,
                ))

        frames.append(candidates)

    frame = np.repeat(np.arange(1, config.n_frames + 1), config.n_agents)
    ident = np.tile(np.arange(1, config.n_agents + 1), config.n_frames)
    return TrajectorySet.from_columns(frame, ident, gt_boxes), frames
