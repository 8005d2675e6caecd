"""Tracking-quality evaluation over ground-truth and hypothesis trajectory sets.

Implements the CLEAR events (MOTA, FP, FN, ID switches) with
persist-then-complete frame matching, the global identity metrics
(IDF1/IDP/IDR) via a maximum-overlap identity assignment, and HOTA with its
alpha sweep. All matching uses IoU as the localisation similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import BoundingBox, boxes_array, iou, iou_matrix

DEFAULT_IOU_THRESHOLD = 0.5
HOTA_ALPHAS = tuple(k / 20.0 for k in range(1, 20))
_EPS = 1e-12


class TrajectorySet:
    """Per-frame mapping of identity to box, for one ground-truth or hypothesis run.

    Within one frame each identity appears at most once; frames are exposed
    in increasing order regardless of insertion order.
    """

    def __init__(self) -> None:
        self._frames: dict[int, dict[int, BoundingBox]] = {}

    @classmethod
    def from_records(cls, records) -> "TrajectorySet":
        """Build from an iterable of (frame, identity, box) triples."""
        ts = cls()
        for frame, identity, box in records:
            ts.add(frame, identity, box)
        return ts

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
        """Iterate (frame, identity, box) in frame order, identity order."""
        for frame in self.frames:
            per_frame = self._frames[frame]
            for identity in sorted(per_frame):
                yield frame, identity, per_frame[identity]

    def __len__(self) -> int:
        return len(self._frames)


def _iou_matrix(boxes_a: list[BoundingBox], boxes_b: list[BoundingBox]) -> np.ndarray:
    return iou_matrix(boxes_array(boxes_a), boxes_array(boxes_b))


@dataclass(frozen=True)
class ClearResult:
    """CLEAR event counts; mota is None when there is no ground truth."""

    mota: float | None
    fp: int
    fn: int
    ids: int
    total_gt: int


def clear_metrics(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> ClearResult:
    """CLEAR accumulation over all frames.

    Per frame, correspondences from earlier frames persist while still
    above the IoU threshold; the remainder is completed by a maximum-IoU
    one-to-one matching. A completed match whose ground-truth identity had
    a different last-known correspondence counts as an ID switch. Unmatched
    hypotheses are false positives, unmatched ground truths false negatives.
    """
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")

    last: dict[int, int] = {}
    fp = fn = ids = 0
    frames = sorted(set(gt.frames) | set(hyp.frames))
    for frame in frames:
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
            sim = _iou_matrix([gmap[g] for g in rem_g], [hmap[h] for h in rem_h])
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
    return ClearResult(mota=mota, fp=fp, fn=fn, ids=ids, total_gt=total_gt)


@dataclass(frozen=True)
class IdentityResult:
    """Global identity scores; all None when there is no ground truth."""

    idf1: float | None
    idp: float | None
    idr: float | None
    idtp: int


def identity_metrics(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> IdentityResult:
    """IDF1/IDP/IDR from the optimal global identity assignment.

    Counts, for every (gt identity, hyp identity) pair, the frames in which
    both are present and overlap above the threshold; the one-to-one
    identity assignment maximising the total count defines IDTP.
    """
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")

    total_gt = gt.total_boxes()
    total_hyp = hyp.total_boxes()
    if total_gt == 0:
        return IdentityResult(idf1=None, idp=None, idr=None, idtp=0)

    gt_ids = gt.identities()
    hyp_ids = hyp.identities()
    if not hyp_ids:
        return IdentityResult(idf1=0.0, idp=0.0, idr=0.0, idtp=0)

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
        sim = _iou_matrix(list(gmap.values()), list(hmap.values()))
        # Identities are unique within a frame, so no index repeats.
        overlap[np.ix_(gids, hids)] += sim >= iou_threshold

    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    idp = idtp / total_hyp if total_hyp else 0.0
    idr = idtp / total_gt
    idf1 = 2.0 * idtp / (total_gt + total_hyp)
    return IdentityResult(idf1=idf1, idp=idp, idr=idr, idtp=idtp)


@dataclass(frozen=True)
class HotaResult:
    """Alpha-averaged HOTA decomposition; all None when there is no ground truth."""

    hota: float | None
    deta: float | None
    assa: float | None


def hota(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    alphas: tuple[float, ...] = HOTA_ALPHAS,
) -> HotaResult:
    """HOTA averaged over the localisation-threshold sweep.

    A first pass accumulates a global alignment score per identity pair (a
    soft Jaccard of their per-frame overlaps). Each frame is then matched
    once by maximising alignment-weighted IoU; per alpha, matched pairs
    whose IoU clears alpha count as TP and feed the association accuracy
    AssA, while DetA is the detection Jaccard. HOTA_alpha is the geometric
    mean of the two, and the reported values average over alphas.
    """
    total_gt = gt.total_boxes()
    if total_gt == 0:
        return HotaResult(hota=None, deta=None, assa=None)
    if hyp.total_boxes() == 0:
        return HotaResult(hota=0.0, deta=0.0, assa=0.0)

    gt_ids = gt.identities()
    hyp_ids = hyp.identities()
    g_index = {g: i for i, g in enumerate(gt_ids)}
    h_index = {h: j for j, h in enumerate(hyp_ids)}
    n_g, n_h = len(gt_ids), len(hyp_ids)

    frames = sorted(set(gt.frames) | set(hyp.frames))
    per_frame: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    gt_counts = np.zeros(n_g)
    hyp_counts = np.zeros(n_h)
    potential = np.zeros((n_g, n_h))
    for frame in frames:
        gmap = gt.at(frame)
        hmap = hyp.at(frame)
        gids = np.array([g_index[g] for g in sorted(gmap)], dtype=int)
        hids = np.array([h_index[h] for h in sorted(hmap)], dtype=int)
        sim = _iou_matrix(
            [gmap[g] for g in sorted(gmap)], [hmap[h] for h in sorted(hmap)]
        )
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

    return HotaResult(
        hota=float(hota_curve.mean()),
        deta=float(deta.mean()),
        assa=float(assa.mean()),
    )


@dataclass(frozen=True)
class EvalReport:
    """Full tracking report; score fields are None when there is no ground truth."""

    mota: float | None
    idf1: float | None
    idp: float | None
    idr: float | None
    ids: int
    fp: int
    fn: int
    hota: float | None
    deta: float | None
    assa: float | None
    total_gt: int
    total_hyp: int

    _FIELDS = ("mota", "idf1", "idp", "idr", "ids", "fp", "fn", "hota", "deta", "assa")

    def as_kv_lines(self) -> list[str]:
        """Machine-readable form, one ``name=value`` metric per line."""
        lines = []
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is None:
                lines.append(f"{name}=na")
            elif isinstance(value, int):
                lines.append(f"{name}={value}")
            else:
                lines.append(f"{name}={value:.6f}")
        return lines

    def as_table(self) -> str:
        header = "  ".join(f"{name.upper():>6s}" for name in self._FIELDS)
        cells = []
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is None:
                cells.append(f"{'n/a':>6s}")
            elif isinstance(value, int):
                cells.append(f"{value:>6d}")
            else:
                cells.append(f"{value:>6.3f}")
        return header + "\n" + "  ".join(cells)


def evaluate(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    with_hota: bool = True,
) -> EvalReport:
    """Run all metric families and collect one report.

    ``with_hota=False`` skips the alpha sweep, which dominates runtime on
    large seed sweeps that only consume CLEAR and identity scores.
    """
    clear = clear_metrics(gt, hyp, iou_threshold)
    ident = identity_metrics(gt, hyp, iou_threshold)
    h = hota(gt, hyp) if with_hota else HotaResult(None, None, None)
    return EvalReport(
        mota=clear.mota,
        idf1=ident.idf1,
        idp=ident.idp,
        idr=ident.idr,
        ids=clear.ids,
        fp=clear.fp,
        fn=clear.fn,
        hota=h.hota,
        deta=h.deta,
        assa=h.assa,
        total_gt=clear.total_gt,
        total_hyp=hyp.total_boxes(),
    )
