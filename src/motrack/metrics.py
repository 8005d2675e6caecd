"""Tracking-quality evaluation over ground-truth and hypothesis trajectory sets.

Implements the CLEAR events (MOTA, FP, FN, ID switches) with
persist-then-complete frame matching, the global identity metrics
(IDF1/IDP/IDR) via a maximum-overlap identity assignment, and HOTA with its
alpha sweep. All matching uses IoU as the localisation similarity; each
frame's IoU matrix is built once and shared by the three families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

# `iou` is not called here since every frame goes through `iou_pairs`, but it
# stays a module name: the benchmark's layer probes count calls to
# `metrics.iou` (and `metrics.linear_sum_assignment`) by rebinding them.
from .geometry import BoundingBox, iou, iou_pairs  # noqa: F401

DEFAULT_IOU_THRESHOLD = 0.5
HOTA_ALPHAS = tuple(k / 20.0 for k in range(1, 20))
_EPS = 1e-12


class TrajectorySet:
    """Boxes of one ground-truth or hypothesis run, keyed by (frame, identity).

    Stored as three columns sorted by (frame, identity): ``frame`` (n,) and
    ``ident`` (n,) int64, ``boxes`` (n, 4) float64 (x, y, w, h) rows. Within
    one frame each identity appears at most once; frames are exposed in
    increasing order regardless of insertion order. ``add`` appends to flat
    per-column lists, which are merged into the sorted columns on the next
    read.
    """

    def __init__(self) -> None:
        self._store(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
        self._added: tuple[list, ...] = ([], [], [], [], [], [])  # frame, ident, x, y, w, h
        # Per-frame ids for add's duplicate check; None until an add needs them.
        self._ids_at: dict[int, set[int]] | None = None

    def _store(self, frame: np.ndarray, ident: np.ndarray, boxes: np.ndarray) -> None:
        for column in (frame, ident, boxes):
            column.flags.writeable = False
        self._frame, self._ident, self._boxes = frame, ident, boxes

    @classmethod
    def from_records(cls, records) -> "TrajectorySet":
        """Build from an iterable of (frame, identity, box) triples."""
        ts = cls()
        for frame, identity, box in records:
            ts.add(frame, identity, box)
        return ts

    @classmethod
    def from_columns(cls, frame, ident, boxes) -> "TrajectorySet":
        """Build from copies of columns sorted by (frame, identity), as
        ``columns`` returns them; a repeated or out-of-order (frame, identity)
        is an error."""
        frame = np.array(frame, dtype=np.int64).reshape(-1)
        ident = np.array(ident, dtype=np.int64).reshape(-1)
        boxes = np.array(boxes, dtype=float).reshape(-1, 4)
        if not len(frame) == len(ident) == len(boxes):
            raise ValueError(
                f"column lengths differ: {len(frame)} frames, {len(ident)} ids, {len(boxes)} boxes"
            )
        step = np.diff(frame)
        if np.any((step < 0) | ((step == 0) & (np.diff(ident) <= 0))):
            raise ValueError("columns must be sorted by (frame, identity) without repeats")
        ts = cls()
        ts._store(frame, ident, boxes)
        return ts

    def add(self, frame: int, identity: int, box: BoundingBox) -> None:
        frame, identity = int(frame), int(identity)
        if self._ids_at is None:
            self._ids_at = {}
            for f, i in zip(self._frame.tolist(), self._ident.tolist()):
                self._ids_at.setdefault(f, set()).add(i)
        ids = self._ids_at.setdefault(frame, set())
        if identity in ids:
            raise ValueError(f"identity {identity} appears twice in frame {frame}")
        ids.add(identity)
        frames, idents, xs, ys, ws, hs = self._added
        frames.append(frame)
        idents.append(identity)
        xs.append(box.x)
        ys.append(box.y)
        ws.append(box.w)
        hs.append(box.h)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(frame, ident, boxes)`` sorted by (frame, identity)."""
        frames, idents, xs, ys, ws, hs = self._added
        if frames:
            frame = np.concatenate([self._frame, np.array(frames, dtype=np.int64)])
            ident = np.concatenate([self._ident, np.array(idents, dtype=np.int64)])
            boxes = np.concatenate([self._boxes, np.column_stack([xs, ys, ws, hs])])
            order = np.lexsort((ident, frame))
            self._store(frame[order], ident[order], boxes[order])
            for column in self._added:
                column.clear()
            self._ids_at = None  # rebuilt from the columns by the next add
        return self._frame, self._ident, self._boxes

    @property
    def frames(self) -> list[int]:
        return np.unique(self.columns()[0]).tolist()

    def at(self, frame: int) -> dict[int, BoundingBox]:
        frames, idents, boxes = self.columns()
        lo, hi = np.searchsorted(frames, frame), np.searchsorted(frames, frame, side="right")
        return {i: BoundingBox(*b) for i, b in zip(idents[lo:hi].tolist(), boxes[lo:hi].tolist())}

    def identities(self) -> list[int]:
        return np.unique(self.columns()[1]).tolist()

    def total_boxes(self) -> int:
        return len(self._frame) + len(self._added[0])

    def records(self):
        """Iterate (frame, identity, box) in frame order, identity order."""
        frames, idents, boxes = self.columns()
        for frame, identity, box in zip(frames.tolist(), idents.tolist(), boxes.tolist()):
            yield frame, identity, BoundingBox(*box)

    def __len__(self) -> int:
        return len(self.frames)


class _FrameTable(NamedTuple):
    """Every frame of two trajectory sets, scored once for all metric families.

    ``g_index``/``h_index`` map each identity to its position among the
    sorted identities of its set. ``rows`` holds, per frame of the union in
    increasing order, the GT and hypothesis indices of that frame (sorted)
    and their IoU matrix.
    """

    g_index: dict[int, int]
    h_index: dict[int, int]
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


# Pairs scored per `iou_pairs` call: bounds the table's scratch memory on
# long sequences while keeping the number of calls small.
_PAIR_BLOCK = 16384


def _frame_table(gt: TrajectorySet, hyp: TrajectorySet) -> _FrameTable:
    g_frame, g_ident, g_boxes = gt.columns()
    h_frame, h_ident, h_boxes = hyp.columns()
    g_ids, g_idx = np.unique(g_ident, return_inverse=True)
    h_ids, h_idx = np.unique(h_ident, return_inverse=True)
    frames = np.union1d(g_frame, h_frame)
    # Rows of frames[k] are [g_lo[k], g_lo[k + 1]) (and likewise for hyp).
    g_lo = np.append(np.searchsorted(g_frame, frames), len(g_frame))
    h_lo = np.append(np.searchsorted(h_frame, frames), len(h_frame))
    n_h = np.diff(h_lo)
    n_pairs = np.diff(g_lo) * n_h
    pair_end = np.cumsum(n_pairs)
    pair_start = pair_end - n_pairs
    g_bounds, h_bounds = g_lo.tolist(), h_lo.tolist()

    rows = []
    k0 = 0
    while k0 < len(frames):
        # One iou_pairs call scores every pair of frames k0..k1-1, which hold
        # at most _PAIR_BLOCK pairs unless frame k0 alone has more.
        k1 = max(int(np.searchsorted(pair_end, pair_start[k0] + _PAIR_BLOCK, side="right")), k0 + 1)
        owner = np.repeat(np.arange(k0, k1), n_pairs[k0:k1])
        local = np.arange(pair_start[k0], pair_end[k1 - 1]) - pair_start[owner]
        sim = iou_pairs(g_boxes[g_lo[owner] + local // n_h[owner]],
                        h_boxes[h_lo[owner] + local % n_h[owner]])
        offset = 0
        for g0, g1, h0, h1 in zip(g_bounds[k0:k1], g_bounds[k0 + 1:k1 + 1],
                                  h_bounds[k0:k1], h_bounds[k0 + 1:k1 + 1]):
            size = (g1 - g0) * (h1 - h0)
            rows.append((g_idx[g0:g1], h_idx[h0:h1],
                         sim[offset:offset + size].reshape(g1 - g0, h1 - h0)))
            offset += size
        k0 = k1
    g_index = {g: i for i, g in enumerate(g_ids.tolist())}
    h_index = {h: j for j, h in enumerate(h_ids.tolist())}
    return _FrameTable(g_index, h_index, rows)


@dataclass(frozen=True)
class ClearResult:
    """CLEAR event counts; mota is None when there is no ground truth."""

    mota: float | None
    fp: int
    fn: int
    ids: int
    total_gt: int


def check_iou_threshold(iou_threshold: float) -> None:
    """The range rule of every CLEAR and identity IoU threshold: (0, 1)."""
    if not 0 < iou_threshold < 1:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def clear_metrics(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    *,
    frames: _FrameTable | None = None,
) -> ClearResult:
    """CLEAR accumulation over all frames.

    Per frame, correspondences from earlier frames persist while still
    above the IoU threshold; the remainder is completed by a maximum-IoU
    one-to-one matching. A completed match whose ground-truth identity had
    a different last-known correspondence counts as an ID switch. Unmatched
    hypotheses are false positives, unmatched ground truths false negatives.
    ``frames`` is the two sets' frame table when the caller already has it.
    """
    check_iou_threshold(iou_threshold)
    if frames is None:
        frames = _frame_table(gt, hyp)

    last: dict[int, int] = {}  # GT index -> hypothesis index last matched
    fp = fn = ids = 0
    for gids, hids, sim in frames.rows:
        n_g, n_h = len(gids), len(hids)
        if not (n_g and n_h):
            fn += n_g
            fp += n_h
            continue
        g_list = gids.tolist()
        h_list = hids.tolist()
        col_of = {h: c for c, h in enumerate(h_list)}

        matched_rows: set[int] = set()
        matched_cols: set[int] = set()
        for r, g in enumerate(g_list):
            c = col_of.get(last.get(g))
            if c is not None and c not in matched_cols and sim[r, c] >= iou_threshold:
                matched_rows.add(r)
                matched_cols.add(c)

        rem_rows = [r for r in range(n_g) if r not in matched_rows]
        rem_cols = [c for c in range(n_h) if c not in matched_cols]
        n_matched = len(matched_rows)
        if rem_rows and rem_cols:
            rem_sim = sim[np.ix_(rem_rows, rem_cols)]
            admissible = rem_sim >= iou_threshold
            rows, cols = linear_sum_assignment(
                np.where(admissible, rem_sim, 0.0), maximize=True
            )
            for r, c in zip(rows, cols):
                if not admissible[r, c]:
                    continue
                g, h = g_list[rem_rows[r]], h_list[rem_cols[c]]
                if g in last and last[g] != h:
                    ids += 1
                last[g] = h
                n_matched += 1

        fn += n_g - n_matched
        fp += n_h - n_matched

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
    *,
    frames: _FrameTable | None = None,
) -> IdentityResult:
    """IDF1/IDP/IDR from the optimal global identity assignment.

    Counts, for every (gt identity, hyp identity) pair, the frames in which
    both are present and overlap above the threshold; the one-to-one
    identity assignment maximising the total count defines IDTP.
    ``frames`` is the two sets' frame table when the caller already has it.
    """
    check_iou_threshold(iou_threshold)

    total_gt = gt.total_boxes()
    total_hyp = hyp.total_boxes()
    if total_gt == 0:
        return IdentityResult(idf1=None, idp=None, idr=None, idtp=0)
    if total_hyp == 0:
        return IdentityResult(idf1=0.0, idp=0.0, idr=0.0, idtp=0)
    if frames is None:
        frames = _frame_table(gt, hyp)

    overlap = np.zeros((len(frames.g_index), len(frames.h_index)))
    for gids, hids, sim in frames.rows:
        if sim.size:
            # Identities are unique within a frame, so no index repeats.
            overlap[gids[:, np.newaxis], hids] += sim >= iou_threshold

    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    idp = idtp / total_hyp
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
    *,
    frames: _FrameTable | None = None,
) -> HotaResult:
    """HOTA averaged over the localisation-threshold sweep.

    A first pass accumulates a global alignment score per identity pair (a
    soft Jaccard of their per-frame overlaps). Each frame is then matched
    once by maximising alignment-weighted IoU; per alpha, matched pairs
    whose IoU clears alpha count as TP and feed the association accuracy
    AssA, while DetA is the detection Jaccard. HOTA_alpha is the geometric
    mean of the two, and the reported values average over alphas.
    ``frames`` is the two sets' frame table when the caller already has it.
    """
    total_gt = gt.total_boxes()
    total_hyp = hyp.total_boxes()
    if total_gt == 0:
        return HotaResult(hota=None, deta=None, assa=None)
    if total_hyp == 0:
        return HotaResult(hota=0.0, deta=0.0, assa=0.0)
    if frames is None:
        frames = _frame_table(gt, hyp)

    n_g, n_h = len(frames.g_index), len(frames.h_index)
    gt_counts = np.zeros(n_g)
    hyp_counts = np.zeros(n_h)
    potential = np.zeros((n_g, n_h))
    for gids, hids, sim in frames.rows:
        gt_counts[gids] += 1
        hyp_counts[hids] += 1
        if sim.size:
            denom = sim.sum(axis=0, keepdims=True) + sim.sum(axis=1, keepdims=True) - sim
            soft = np.where(denom > _EPS, sim / np.maximum(denom, _EPS), 0.0)
            potential[gids[:, np.newaxis], hids] += soft

    alignment = potential / np.maximum(
        gt_counts[:, np.newaxis] + hyp_counts[np.newaxis, :] - potential, _EPS
    )

    # One matching per frame; each matched pair's IoU then decides, for
    # every alpha at once, whether the pair is a TP at that alpha.
    pair_cells = [np.zeros(0, dtype=int)]  # g * n_h + h of each matched pair
    pair_sims = [np.zeros(0)]
    for gids, hids, sim in frames.rows:
        if sim.size:
            score = alignment[gids[:, np.newaxis], hids] * sim
            rows, cols = linear_sum_assignment(score, maximize=True)
            pair_cells.append(gids[rows] * n_h + hids[cols])
            pair_sims.append(sim[rows, cols])
    pair_cells = np.concatenate(pair_cells)
    keep = np.concatenate(pair_sims) >= np.asarray(alphas, dtype=float)[:, np.newaxis] - _EPS

    n_alpha = len(alphas)
    tp = keep.sum(axis=1).astype(float)
    fn = total_gt - tp
    fp = total_hyp - tp
    deta = tp / np.maximum(tp + fn + fp, 1.0)
    union = gt_counts[:, np.newaxis] + hyp_counts[np.newaxis, :]
    assa = np.zeros(n_alpha)
    for a in range(n_alpha):
        matches = np.bincount(pair_cells[keep[a]], minlength=n_g * n_h).reshape(n_g, n_h)
        pair_jaccard = matches / np.maximum(union - matches, 1.0)
        assa[a] = (matches * pair_jaccard).sum() / max(tp[a], 1.0)
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

    Each frame's GT x hypothesis IoU is built once and shared by CLEAR,
    identity and HOTA. ``with_hota=False`` skips HOTA, whose per-frame
    matching is the costliest family on large seed sweeps that only consume
    CLEAR and identity scores.
    """
    frames = _frame_table(gt, hyp)
    clear = clear_metrics(gt, hyp, iou_threshold, frames=frames)
    ident = identity_metrics(gt, hyp, iou_threshold, frames=frames)
    h = hota(gt, hyp, frames=frames) if with_hota else HotaResult(None, None, None)
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
