"""MOTChallenge text-file I/O plus the affinity sidecar extension.

Data lines are ``frame,id,left,top,width,height,conf,a,b,c``; lines with
id = -1 are detections, non-negative ids trajectory boxes. Frames need not
be sorted in the file; they are grouped on load. A file is parsed in one
pass into frame, id, box and conf columns, and the first bad line in file
order is a MotParseError naming ``file:line``: a malformed or non-finite
field, a box with a non-positive extent, a negative id or a repeated
(frame, id) in a trajectory file, or a frame before 1 in a detection file.
Floats are written with their shortest round-trip representation so
write -> read -> write is byte-identical.

The sidecar ``<name>.aff`` (version header ``aff 1 <dim>``) attaches an
optional scalar appearance affinity and an optional embedding to detections
by (frame, candidate index): ``frame,cand,s_mask_or_dash[,e0,...,e_{dim-1}]``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .association import DetectionCandidate
from .geometry import BoundingBox
from .metrics import TrajectorySet


class MotParseError(ValueError):
    pass


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory plus rename; a failed
    run never leaves a partial output file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return repr(float(value))


class _Columns(NamedTuple):
    """The data lines of a MOT file as columns, in file order."""

    frame: np.ndarray  # (n,) int64
    ident: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float64 (left, top, width, height)
    conf: np.ndarray  # (n,) float64
    line: np.ndarray  # (n,) 1-based line number in the file


def _parse_columns(path: str | Path) -> _Columns:
    """Parse every data line into columns; blank lines are skipped.

    The first bad line, in file order, is a MotParseError naming
    ``path:line``: too few fields or an unparsable number, a non-finite
    conf, a frame or id outside int64, or a box ``BoundingBox`` rejects.
    """
    raw_lines = Path(path).read_text().splitlines()
    frame, ident, xs, ys, ws, hs, confs, linenos = columns = ([], [], [], [], [], [], [], [])
    error = cause = None
    for lineno, raw in enumerate(raw_lines, start=1):
        parts = raw.split(",")
        if len(parts) < 7:
            if not raw.strip():
                continue
            error = f"{path}:{lineno}: expected at least 7 fields, got {len(parts)}"
            break
        try:
            f = int(parts[0])
            i = int(float(parts[1]))
            x = float(parts[2])
            y = float(parts[3])
            w = float(parts[4])
            h = float(parts[5])
            c = float(parts[6])
        except (ValueError, OverflowError) as exc:
            error, cause = f"{path}:{lineno}: malformed line {raw!r}", exc
            break
        frame.append(f)
        ident.append(i)
        xs.append(x)
        ys.append(y)
        ws.append(w)
        hs.append(h)
        confs.append(c)
        linenos.append(lineno)

    try:
        frame_col, ident_col = np.array(frame, dtype=np.int64), np.array(ident, dtype=np.int64)
    except OverflowError:  # the rows from the first too-wide one on are dropped
        r = next(r for r, pair in enumerate(zip(frame, ident))
                 if not all(-2**63 <= v < 2**63 for v in pair))
        error, cause = f"{path}:{linenos[r]}: frame or id outside int64", None
        for column in columns:
            del column[r:]
        frame_col, ident_col = np.array(frame, dtype=np.int64), np.array(ident, dtype=np.int64)
    # The loop stopped at the first line it could not parse; the rows before
    # it are checked here, so a bad value on an earlier line is still first.
    boxes = np.column_stack([xs, ys, ws, hs]) if xs else np.zeros((0, 4))
    conf = np.array(confs, dtype=float)
    bad = ~np.isfinite(conf) | ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] <= 0) | (boxes[:, 3] <= 0)
    if bad.any():
        r = int(np.argmax(bad))
        where = f"{path}:{linenos[r]}"
        if not np.isfinite(conf[r]):
            field = raw_lines[linenos[r] - 1].strip().split(",")[6].strip()
            raise MotParseError(f"{where}: conf must be finite, got {field!r}")
        try:
            BoundingBox(*boxes[r].tolist())
        except ValueError as exc:
            raise MotParseError(f"{where}: {exc}") from exc
    if error is not None:
        raise MotParseError(error) from cause
    return _Columns(frame_col, ident_col, boxes, conf, np.array(linenos, dtype=np.int64))


def load_trajectories(path: str | Path) -> TrajectorySet:
    """Read a ground-truth or hypothesis file keyed by identity; the first
    line (in file order) with a negative id or a (frame, id) already seen is
    a MotParseError."""
    rows = _parse_columns(path)
    order = np.lexsort((rows.ident, rows.frame))  # stable: file order among equals
    frame, ident = rows.frame[order], rows.ident[order]
    bad = rows.ident < 0
    bad[order[1:][(frame[1:] == frame[:-1]) & (ident[1:] == ident[:-1])]] = True
    if bad.any():
        r = int(np.argmax(bad))
        f, i = int(rows.frame[r]), int(rows.ident[r])
        if i < 0:
            problem = f"id {i} marks a detection line; use load_detections"
        else:
            problem = f"identity {i} appears twice in frame {f}"
        raise MotParseError(f"{path}:{rows.line[r]}: {problem}")
    return TrajectorySet.from_columns(frame, ident, rows.boxes[order])


def load_detections(
    path: str | Path,
    sidecar: str | Path | None = None,
) -> dict[int, list[DetectionCandidate]]:
    """Read a detection file into per-frame candidate lists.

    The id column is ignored, conf becomes the objectness score (clamped to
    [0, 1]), and frames are numbered from 1. When a sidecar exists
    (explicit path, or the detection path with an .aff suffix), its
    affinities and embeddings attach by (frame, candidate index); an entry
    that matches no detection is an error.
    """
    side: dict[tuple[int, int], tuple[float | None, np.ndarray | None]] = {}
    sidecar = Path(sidecar) if sidecar is not None else sidecar_path(path)
    if sidecar.exists():
        side = load_sidecar(sidecar)

    rows = _parse_columns(path)
    early = np.flatnonzero(rows.frame < 1)
    if early.size:
        r = early[0]
        raise MotParseError(f"{path}:{rows.line[r]}: frame {rows.frame[r]} is before frame 1")
    frames: dict[int, list[DetectionCandidate]] = {}
    for frame, (x, y, w, h), conf in zip(rows.frame.tolist(), rows.boxes.tolist(), rows.conf.tolist()):
        bucket = frames.setdefault(frame, [])
        s_mask, embedding = side.pop((frame, len(bucket)), (None, None))
        bucket.append(DetectionCandidate(
            box=BoundingBox(x, y, w, h),
            s_obj=min(max(conf, 0.0), 1.0),
            s_mask=s_mask,
            embedding=embedding,
        ))
    if side:
        frame, cand = next(iter(side))
        raise MotParseError(
            f"{sidecar}: entry for frame {frame}, candidate {cand} matches no detection in {path}"
        )
    return frames


def _trajectory_text(rows: Iterable[tuple], conf: float) -> str:
    """MOT lines of (frame, id, x, y, w, h) rows; the one formatter behind
    every trajectory file."""
    c = _fmt(conf)
    lines = [
        f"{f},{i},{float(x)!r},{float(y)!r},{float(w)!r},{float(h)!r},{c},-1,-1,-1"
        for f, i, x, y, w, h in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trajectory_lines(records: Iterable[tuple[int, int, BoundingBox]], conf: float = 1.0) -> str:
    return _trajectory_text(((f, i, box.x, box.y, box.w, box.h) for f, i, box in records), conf)


def write_trajectories(path: str | Path, ts: TrajectorySet) -> None:
    frame, ident, boxes = ts.columns()
    rows = zip(frame.tolist(), ident.tolist(), *boxes.T.tolist())
    atomic_write_text(path, _trajectory_text(rows, 1.0))


def write_detections(path: str | Path, frames, write_aff: bool = True) -> None:
    """Write per-frame candidates; companions with appearance data get a sidecar.

    ``frames`` is a mapping frame -> candidates or a list whose position i
    holds frame i+1. A per-track s_mask mapping has no sidecar form: it is a
    ValueError naming its frame and candidate index, before any file is written.
    """
    items = _frame_items(frames)
    lines = []
    aff_entries: list[tuple[int, int, float | None, np.ndarray | None]] = []
    dim = 0
    for frame, candidates in items:
        for j, cand in enumerate(candidates):
            if isinstance(cand.s_mask, Mapping):
                raise ValueError(f"frame {frame}, candidate {j}: a per-track s_mask has no sidecar form")
            box = cand.box
            lines.append(
                f"{frame},-1,{_fmt(box.x)},{_fmt(box.y)},{_fmt(box.w)},{_fmt(box.h)},{_fmt(cand.s_obj)},-1,-1,-1"
            )
            if cand.s_mask is not None or cand.embedding is not None:
                if cand.embedding is not None:
                    dim = max(dim, cand.embedding.size)
                aff_entries.append((frame, j, cand.s_mask, cand.embedding))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    if write_aff and aff_entries:
        write_sidecar(sidecar_path(path), aff_entries, dim)


def _frame_items(frames) -> list[tuple[int, list[DetectionCandidate]]]:
    if isinstance(frames, Mapping):
        return [(frame, frames[frame]) for frame in sorted(frames)]
    return [(i + 1, candidates) for i, candidates in enumerate(frames)]


def sidecar_path(det_path: str | Path) -> Path:
    return Path(det_path).with_suffix(".aff")


def write_sidecar(
    path: str | Path,
    entries: Iterable[tuple[int, int, float | None, np.ndarray | None]],
    dim: int,
) -> None:
    lines = [f"aff 1 {dim}"]
    for frame, cand, s_mask, embedding in entries:
        fields = [str(frame), str(cand), "-" if s_mask is None else _fmt(s_mask)]
        if embedding is not None:
            if embedding.size != dim:
                raise ValueError(
                    f"embedding dim {embedding.size} does not match sidecar dim {dim}"
                )
            fields.extend(_fmt(v) for v in embedding)
        lines.append(",".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_sidecar(path: str | Path) -> dict[tuple[int, int], tuple[float | None, np.ndarray | None]]:
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

    entries: dict[tuple[int, int], tuple[float | None, np.ndarray | None]] = {}
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
        entries[(frame, cand)] = (s_mask, embedding)
    return entries
