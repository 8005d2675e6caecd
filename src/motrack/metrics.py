"""Tracking-quality evaluation over ground-truth and hypothesis trajectory sets.

Implements the CLEAR events (MOTA, FP, FN, ID switches) with
persist-then-complete frame matching, the global identity metrics
(IDF1/IDP/IDR) via a maximum-overlap identity assignment, and HOTA with its
alpha sweep. All matching uses IoU as the localisation similarity. Every
(frame, GT, hypothesis) pair is scored once, into flat pair columns shared
by the three families. Identity's overlap counts and HOTA's counts and
potential are one reduction each over those columns. CLEAR and HOTA call
their assignment only where a GT or hypothesis box holds two candidate
pairs (IoU at or above CLEAR's threshold, or positive for HOTA); elsewhere
the candidates are disjoint, each optimal matching takes them all, and
those frames are matched in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

# `iou` is not called here since every frame goes through `iou_pairs`, but it
# stays a module name: the benchmark's layer probes count calls to
# `metrics.iou` (and `metrics.linear_sum_assignment`) by rebinding them.
from .geometry import BoundingBox, check_range, invalid_boxes, iou, iou_pairs  # noqa: F401

DEFAULT_IOU_THRESHOLD = 0.5
HOTA_ALPHAS = tuple(k / 20.0 for k in range(1, 20))
_EPS = 1e-12


def key_order(frame: np.ndarray, ident: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable (frame, identity) sort order of trajectory rows, and a mask,
    in input order, of the rows whose key repeats an earlier row's."""
    order = np.lexsort((ident, frame))
    frame, ident = frame[order], ident[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:][(frame[1:] == frame[:-1]) & (ident[1:] == ident[:-1])]] = True
    return order, repeat


class TrajectorySet:
    """Boxes of one ground-truth or hypothesis run, keyed by (frame, identity).

    Stored as three read-only columns sorted by (frame, identity): ``frame``
    (n,) and ``ident`` (n,) int64, ``boxes`` (n, 4) float64 (x, y, w, h)
    rows. Within one frame each identity appears at most once. Every set's
    columns are checked once, by ``from_columns``.
    """

    def __init__(self) -> None:
        self._store(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 4)))

    def _store(self, frame: np.ndarray, ident: np.ndarray, boxes: np.ndarray) -> None:
        for column in (frame, ident, boxes):
            column.flags.writeable = False
        self._frame, self._ident, self._boxes = frame, ident, boxes

    @classmethod
    def from_records(cls, records) -> "TrajectorySet":
        """Build from (frame, identity, box) triples in any order; the first
        repeated (frame, identity), in input order, is a ValueError."""
        keys, boxes = [], []
        for frame, identity, box in records:
            keys.append((int(frame), int(identity)))
            boxes.append(box.as_tuple())
        frame, ident = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        order, repeat = key_order(frame, ident)
        if repeat.any():
            r = int(np.argmax(repeat))
            raise ValueError(f"identity {ident[r]} appears twice in frame {frame[r]}")
        return cls.from_columns(frame[order], ident[order], np.array(boxes, dtype=float).reshape(-1, 4)[order])

    @classmethod
    def from_columns(cls, frame, ident, boxes) -> "TrajectorySet":
        """Build from copies of columns sorted by (frame, identity), as
        ``columns`` returns them; a repeated or out-of-order (frame, identity)
        is an error, and so is a box ``BoundingBox`` rejects, named by the
        first such (frame, identity)."""
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
        bad = invalid_boxes(boxes)
        if np.count_nonzero(bad):
            r = int(np.argmax(bad))
            try:
                BoundingBox(*boxes[r].tolist())
            except ValueError as exc:
                raise ValueError(f"frame {frame[r]}, id {ident[r]}: {exc}") from None
        ts = cls()
        ts._store(frame, ident, boxes)
        return ts

    def add(self, frame: int, identity: int, box: BoundingBox) -> None:
        """Insert one box by rebuilding the set with ``from_records``, a box
        object per row per call; a (frame, identity) already in the set is a
        ValueError and leaves the set unchanged. Build whole sets with
        ``from_records``/``from_columns``: this plants one box in a built
        set, as the benchmark's tests do."""
        self._store(*TrajectorySet.from_records([*self.records(), (frame, identity, box)]).columns())

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(frame, ident, boxes)`` sorted by (frame, identity)."""
        return self._frame, self._ident, self._boxes

    @property
    def frames(self) -> list[int]:
        return np.unique(self.columns()[0]).tolist()

    def identities(self) -> list[int]:
        return np.unique(self.columns()[1]).tolist()

    def total_boxes(self) -> int:
        return len(self._frame)

    def records(self):
        """Iterate (frame, identity, box) in frame order, identity order."""
        frames, idents, boxes = self.columns()
        for frame, identity, box in zip(frames.tolist(), idents.tolist(), boxes.tolist()):
            yield frame, identity, BoundingBox(*box)


class _FrameTable(NamedTuple):
    """Every frame of two trajectory sets, scored once for all metric families.

    ``g_ids``/``h_ids`` are the sorted identities of each set, and
    ``g_rows``/``h_rows`` the position there of each set row's identity.
    Frame k of the union, in increasing order, holds the set rows
    ``g_lo[k]:g_lo[k + 1]`` and ``h_lo[k]:h_lo[k + 1]`` and the pairs
    ``pair_lo[k]:pair_lo[k + 1]``. Its pairs are row-major (GT row, then
    hypothesis row) in four flat columns: the IoU ``sim``, the identity
    cell ``g * n_h + h`` of the pair's two positions, and ``grow`` and
    ``hrow``, its GT and hypothesis set rows. A sum over all pairs of all
    frames is then one reduction, not a loop over frames.
    """

    g_ids: np.ndarray
    h_ids: np.ndarray
    g_rows: np.ndarray
    h_rows: np.ndarray
    g_lo: np.ndarray
    h_lo: np.ndarray
    pair_lo: np.ndarray
    sim: np.ndarray
    cell: np.ndarray
    grow: np.ndarray
    hrow: np.ndarray


# Pairs per numpy call where scratch arrays grow with the pairs (the frame
# table's `iou_pairs` calls, HOTA's column sums): bounds that memory on long
# sequences while keeping the number of calls small.
_PAIR_BLOCK = 8192


def _frame_table(gt: TrajectorySet, hyp: TrajectorySet) -> _FrameTable:
    g_frame, g_ident, g_boxes = gt.columns()
    h_frame, h_ident, h_boxes = hyp.columns()
    g_ids, g_rows = np.unique(g_ident, return_inverse=True)
    h_ids, h_rows = np.unique(h_ident, return_inverse=True)
    frames = np.union1d(g_frame, h_frame)
    # Rows of frames[k] are [g_lo[k], g_lo[k + 1]) (and likewise for hyp).
    g_lo = np.append(np.searchsorted(g_frame, frames), len(g_frame))
    h_lo = np.append(np.searchsorted(h_frame, frames), len(h_frame))
    n_h = np.diff(h_lo)
    n_pairs = np.diff(g_lo) * n_h
    pair_lo = np.concatenate(([0], np.cumsum(n_pairs)))

    sim = np.empty(pair_lo[-1])
    cell = np.empty(pair_lo[-1], dtype=np.int64)
    grow = np.empty(pair_lo[-1], dtype=np.int32)
    hrow = np.empty(pair_lo[-1], dtype=np.int32)
    k0 = 0
    while k0 < len(frames):
        # One iou_pairs call scores every pair of frames k0..k1-1, which hold
        # at most _PAIR_BLOCK pairs unless frame k0 alone has more.
        k1 = max(int(np.searchsorted(pair_lo, pair_lo[k0] + _PAIR_BLOCK, side="right")) - 1, k0 + 1)
        p0, p1 = pair_lo[k0], pair_lo[k1]
        owner = np.repeat(np.arange(k0, k1), n_pairs[k0:k1])
        local = np.arange(p0, p1) - pair_lo[owner]
        g = g_lo[owner] + local // n_h[owner]
        h = h_lo[owner] + local % n_h[owner]
        sim[p0:p1] = iou_pairs(g_boxes[g], h_boxes[h])
        cell[p0:p1] = g_rows[g] * len(h_ids) + h_rows[h]
        grow[p0:p1] = g
        hrow[p0:p1] = h
        k0 = k1
    return _FrameTable(g_ids, h_ids, g_rows, h_rows, g_lo, h_lo, pair_lo, sim, cell, grow, hrow)


def _split_frames(frames: _FrameTable, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frames, by increasing index, where two pairs of ``mask`` share a
    GT or hypothesis set row, and the pairs of ``mask`` in every other
    frame, by increasing index. A frame not returned holds disjoint masked
    pairs, so its matching among them is fixed without an assignment."""
    pairs = np.flatnonzero(mask)
    g, h = frames.grow[pairs], frames.hrow[pairs]
    busy_g = np.flatnonzero(np.bincount(g, minlength=len(frames.g_rows)) > 1)
    busy_h = np.flatnonzero(np.bincount(h, minlength=len(frames.h_rows)) > 1)
    contested = np.union1d(np.searchsorted(frames.g_lo, busy_g, side="right") - 1,
                           np.searchsorted(frames.h_lo, busy_h, side="right") - 1)
    in_contested = np.zeros(len(frames.pair_lo) - 1, dtype=bool)
    in_contested[contested] = True
    return contested, pairs[~np.repeat(in_contested, np.diff(frames.g_lo))[g]]


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
    *,
    frames: _FrameTable | None = None,
) -> ClearResult:
    """CLEAR accumulation over all frames.

    Per frame, correspondences from earlier frames persist while still
    above the IoU threshold; the remainder is completed by a maximum-IoU
    one-to-one matching. A completed match whose ground-truth identity had
    a different last-known correspondence counts as an ID switch. Unmatched
    hypotheses are false positives, unmatched ground truths false negatives.
    In a frame where no GT or hypothesis row holds two pairs at or above
    the threshold, persistence and completion both take every such pair, so
    those frames are matched in bulk; only the others run the per-frame
    persist-then-complete step and its assignment, in frame order. A
    persisted match repeats the last correspondence, so the switches are one
    count over all matches in (GT identity, frame) order.
    ``frames`` is the two sets' frame table when the caller already has it.
    """
    check_range(iou_threshold, "iou_threshold", "(0, 1)")
    if frames is None:
        frames = _frame_table(gt, hyp)

    contested, pairs = _split_frames(frames, frames.sim >= iou_threshold)
    g_rows, h_rows, g_lo = frames.g_rows, frames.h_rows, frames.g_lo
    match = np.full(len(g_rows), -1)  # per GT set row, the hypothesis position matched
    match[frames.grow[pairs]] = h_rows[frames.hrow[pairs]]
    last = np.full(len(frames.g_ids), -1)  # per GT position, the hypothesis last matched
    done = 0  # GT set rows before this one are in `last`
    for g0, g1, h0, h1, p0 in zip(g_lo[contested].tolist(), g_lo[contested + 1].tolist(),
                                  frames.h_lo[contested].tolist(), frames.h_lo[contested + 1].tolist(),
                                  frames.pair_lo[contested].tolist()):
        # Each GT identity's last match in the uncontested frames since `done`.
        rows = done + np.flatnonzero(match[done:g0] >= 0)[::-1]
        ids_now, first = np.unique(g_rows[rows], return_index=True)
        last[ids_now] = match[rows[first]]
        done = g1

        n_g, n_h = g1 - g0, h1 - h0
        sim = frames.sim[p0:p0 + n_g * n_h].reshape(n_g, n_h)
        g_list = g_rows[g0:g1].tolist()
        h_list = h_rows[h0:h1].tolist()
        last_h = last[g_list].tolist()
        col_of = {h: c for c, h in enumerate(h_list)}

        matched_cols: set[int] = set()
        rem_rows = []
        for r, h in enumerate(last_h):
            c = col_of.get(h)
            if c is not None and c not in matched_cols and sim[r, c] >= iou_threshold:
                matched_cols.add(c)
                match[g0 + r] = h
            else:
                rem_rows.append(r)

        rem_cols = [c for c in range(n_h) if c not in matched_cols]
        if rem_rows and rem_cols:
            rem_sim = sim[np.ix_(rem_rows, rem_cols)]
            admissible = rem_sim >= iou_threshold
            rows, cols = linear_sum_assignment(
                np.where(admissible, rem_sim, 0.0), maximize=True
            )
            for r, c in zip(rows, cols):
                if admissible[r, c]:
                    h = h_list[rem_cols[c]]
                    match[g0 + rem_rows[r]] = last[g_list[rem_rows[r]]] = h

    # Matched GT rows by identity, then frame: a switch is a match whose
    # identity's previous match had another hypothesis.
    rows = np.flatnonzero(match >= 0)
    rows = rows[np.argsort(g_rows[rows], kind="stable")]
    who, what = g_rows[rows], match[rows]
    ids = int(np.count_nonzero((who[1:] == who[:-1]) & (what[1:] != what[:-1])))
    fn = len(g_rows) - len(rows)
    fp = len(h_rows) - len(rows)

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
    both are present and overlap above the threshold, in one count over all
    pairs of the frame table; the one-to-one identity assignment maximising
    the total count defines IDTP.
    ``frames`` is the two sets' frame table when the caller already has it.
    """
    check_range(iou_threshold, "iou_threshold", "(0, 1)")

    total_gt = gt.total_boxes()
    total_hyp = hyp.total_boxes()
    if total_gt == 0:
        return IdentityResult(idf1=None, idp=None, idr=None, idtp=0)
    if total_hyp == 0:
        return IdentityResult(idf1=0.0, idp=0.0, idr=0.0, idtp=0)
    if frames is None:
        frames = _frame_table(gt, hyp)

    # Identities are unique within a frame, so each cell counts its frames.
    n_g, n_h = len(frames.g_ids), len(frames.h_ids)
    overlap = np.bincount(frames.cell[frames.sim >= iou_threshold], minlength=n_g * n_h)
    overlap = overlap.reshape(n_g, n_h).astype(float)

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


def _segment_sums(values: np.ndarray, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The sum of each run ``values[start[i]:start[i] + width[i]]``, bit-equal
    to numpy's ``sum`` of it alone (pairwise from 8 entries on). Runs of one
    width are summed as the rows of one matrix; ``np.add.reduceat`` would add
    a run as ``run[0] + sum(run[1:])``, which rounds differently."""
    out = np.empty(len(start))
    for w in np.unique(width).tolist():
        at = np.flatnonzero(width == w)
        out[at] = values[start[at, np.newaxis] + np.arange(w)].sum(axis=1)
    return out


def _potential(frames: _FrameTable) -> np.ndarray:
    """HOTA's potential: per identity pair, the sum over frames of the pair's
    soft Jaccard, its IoU over the IoU sums of its GT row and hypothesis
    column, minus itself. Each sum over all pairs is one reduction, and
    each equals the frame's ``sum(axis=1)`` and ``sum(axis=0)`` bit for bit.
    A GT row's pairs are one run of pairs. A column's pairs accumulate row
    by row in pair order; in a frame of one hypothesis, though, ``sum(axis=0)``
    sums the column as one run, as it is."""
    sim = frames.sim
    n_g, n_h = len(frames.g_ids), len(frames.h_ids)
    if not len(sim):  # `bincount` of no weights counts in int64
        return np.zeros((n_g, n_h))
    frame_g, frame_h = np.diff(frames.g_lo), np.diff(frames.h_lo)  # set rows per frame
    row_width = np.repeat(frame_h, frame_g)
    row_sum = _segment_sums(sim, np.cumsum(row_width) - row_width, row_width)
    col_sum = np.bincount(frames.hrow, weights=sim, minlength=len(frames.h_rows))
    one = np.flatnonzero(frame_h == 1)
    col_sum[frames.h_lo[one]] = _segment_sums(sim, frames.pair_lo[one], frame_g[one])
    # In place, and the column sums gathered a block at a time: arrays the
    # length of the pair columns are the largest the metrics build.
    soft = np.repeat(row_sum, row_width)
    for p0 in range(0, len(sim), _PAIR_BLOCK):
        soft[p0:p0 + _PAIR_BLOCK] += col_sum[frames.hrow[p0:p0 + _PAIR_BLOCK]]
    soft -= sim
    empty = ~(soft > _EPS)
    np.maximum(soft, _EPS, out=soft)
    np.divide(sim, soft, out=soft)
    soft[empty] = 0.0
    return np.bincount(frames.cell, weights=soft, minlength=n_g * n_h).reshape(n_g, n_h)


def hota(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    *,
    frames: _FrameTable | None = None,
) -> HotaResult:
    """HOTA averaged over the localisation-threshold sweep, ``HOTA_ALPHAS``.

    The global alignment score of each identity pair is a soft Jaccard of
    their per-frame overlaps; its counts and potential are reductions over
    all pairs of the frame table at once. Each frame is then matched once by
    maximising alignment-weighted IoU: a frame whose positive-IoU pairs are
    disjoint takes them all, since every optimal matching holds each
    positive-score pair, and only the other frames call the assignment. Per
    alpha, matched pairs whose IoU clears alpha count as TP and feed the
    association accuracy AssA, while DetA is the detection Jaccard.
    HOTA_alpha is the geometric mean of the two, and the reported values
    average over alphas. ``frames`` is the two sets' frame table when the
    caller already has it.
    """
    total_gt = gt.total_boxes()
    total_hyp = hyp.total_boxes()
    if total_gt == 0:
        return HotaResult(hota=None, deta=None, assa=None)
    if total_hyp == 0:
        return HotaResult(hota=0.0, deta=0.0, assa=0.0)
    if frames is None:
        frames = _frame_table(gt, hyp)

    n_g, n_h = len(frames.g_ids), len(frames.h_ids)
    gt_counts = np.bincount(frames.g_rows, minlength=n_g).astype(float)
    hyp_counts = np.bincount(frames.h_rows, minlength=n_h).astype(float)
    potential = _potential(frames)
    alignment = potential / np.maximum(
        gt_counts[:, np.newaxis] + hyp_counts[np.newaxis, :] - potential, _EPS
    )

    # One matching per frame that has pairs; each matched pair's IoU then
    # decides, for every alpha at once, whether the pair is a TP at that alpha.
    sim, cell = frames.sim, frames.cell
    contested, pairs = _split_frames(frames, sim > 0)
    matched = [pairs]  # pair index of each matched pair
    weight = alignment.ravel()
    for p0, p1, width in zip(frames.pair_lo[contested].tolist(), frames.pair_lo[contested + 1].tolist(),
                             np.diff(frames.h_lo)[contested].tolist()):
        score = weight[cell[p0:p1]] * sim[p0:p1]
        rows, cols = linear_sum_assignment(score.reshape(-1, width), maximize=True)
        matched.append(rows * width + cols + p0)
    matched = np.concatenate(matched)
    pair_cells = cell[matched]
    keep = sim[matched] >= np.array(HOTA_ALPHAS)[:, np.newaxis] - _EPS

    n_alpha = len(HOTA_ALPHAS)
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
        return [f"{name}={format_metric(getattr(self, name), '.6f', 'na')}" for name in self._FIELDS]

    def as_table(self) -> str:
        """Human-readable form: the metric names over their values."""
        return "\n".join("  ".join(cell.rjust(6) for cell in row) for row in (
            [name.upper() for name in self._FIELDS],
            [format_metric(getattr(self, name), ".3f", "n/a") for name in self._FIELDS]))


def format_metric(value: float | int | None, float_spec: str, na: str) -> str:
    """A metric value as every report prints it: ``na`` for None, an int as
    it is and a float by ``float_spec``."""
    return na if value is None else str(value) if isinstance(value, int) else format(value, float_spec)


def evaluate(
    gt: TrajectorySet,
    hyp: TrajectorySet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    with_hota: bool = True,
) -> EvalReport:
    """Run all metric families and collect one report.

    Each frame's GT x hypothesis IoU is built once, in the frame table's
    pair columns, and shared by CLEAR, identity and HOTA. ``with_hota=False``
    skips HOTA, whose per-frame matching is the costliest family on large
    seed sweeps that only consume CLEAR and identity scores.
    """
    frames = _frame_table(gt, hyp)
    clear = clear_metrics(gt, hyp, iou_threshold, frames=frames)
    ident = identity_metrics(gt, hyp, iou_threshold, frames=frames)
    h = hota(gt, hyp, frames=frames) if with_hota else HotaResult(None, None, None)
    return EvalReport(**vars(clear), **vars(h), idf1=ident.idf1, idp=ident.idp, idr=ident.idr,
                      total_hyp=hyp.total_boxes())
