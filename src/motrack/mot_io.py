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
A negative dim, an s_mask outside [0, 1], a non-finite embedding value or a
second entry for one (frame, cand) is a MotParseError naming ``file:line``.
Detections load as one ``Frame`` of candidate columns per frame, and write
from those columns.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .association import DetectionCandidate, Frame
from .geometry import BoundingBox, invalid_boxes
from .metrics import TrajectorySet, key_order


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
    bad = ~np.isfinite(conf) | invalid_boxes(boxes)
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
    order, repeat = key_order(rows.frame, rows.ident)
    bad = (rows.ident < 0) | repeat
    if bad.any():
        r = int(np.argmax(bad))
        f, i = int(rows.frame[r]), int(rows.ident[r])
        if i < 0:
            problem = f"id {i} marks a detection line; use load_detections"
        else:
            problem = f"identity {i} appears twice in frame {f}"
        raise MotParseError(f"{path}:{rows.line[r]}: {problem}")
    return TrajectorySet.from_columns(rows.frame[order], rows.ident[order], rows.boxes[order])


def load_detections(
    path: str | Path,
    sidecar: str | Path | None = None,
) -> dict[int, Frame]:
    """Read a detection file into one ``Frame`` per frame, keyed by frame
    number in order of first appearance; candidates keep their file order.

    The id column is ignored, conf becomes the objectness score (clamped to
    [0, 1]), and frames are numbered from 1. When a sidecar exists
    (explicit path, or the detection path with an .aff suffix), its
    affinities and embeddings attach by (frame, candidate index); an entry
    that matches no detection is an error.
    """
    sidecar = Path(sidecar) if sidecar is not None else sidecar_path(path)
    side = load_sidecar(sidecar) if sidecar.exists() else None

    rows = _parse_columns(path)
    early = np.flatnonzero(rows.frame < 1)
    if early.size:
        r = early[0]
        raise MotParseError(f"{path}:{rows.line[r]}: frame {rows.frame[r]} is before frame 1")
    # Rows grouped by frame, file order kept within each: frame k's candidates
    # are rows first[k] to first[k] + count[k] of the sorted columns.
    order = np.argsort(rows.frame, kind="stable")
    numbers, first, count = np.unique(rows.frame[order], return_index=True, return_counts=True)
    conf = rows.conf[order]
    # min(max(conf, 0.0), 1.0), keeping its -0.0.
    s_obj = np.where(conf < 0.0, 0.0, np.where(conf > 1.0, 1.0, conf))
    n, dim = len(order), 0 if side is None else side.embeddings.shape[1]
    s_mask, embeddings, has_embedding = np.full(n, math.nan), np.zeros((n, dim)), np.zeros(n, dtype=bool)
    if side is not None and len(side):
        group = np.minimum(np.searchsorted(numbers, side.frame), max(len(numbers) - 1, 0))
        found = np.zeros(len(side), dtype=bool)
        if len(numbers):
            found = (numbers[group] == side.frame) & (side.cand >= 0) & (side.cand < count[group])
        if not found.all():
            r = int(np.argmin(found))
            raise MotParseError(f"{sidecar}: entry for frame {side.frame[r]}, candidate {side.cand[r]} "
                                f"matches no detection in {path}")
        at = first[group] + side.cand
        s_mask[at], embeddings[at], has_embedding[at] = side.s_mask, side.embeddings, side.has_embedding
    boxes = rows.boxes[order]
    frames: dict[int, Frame] = {}
    numbers, first, count = numbers.tolist(), first.tolist(), count.tolist()
    for k in np.argsort(order[first], kind="stable").tolist():
        span = slice(first[k], first[k] + count[k])
        frames[numbers[k]] = Frame._checked(boxes[span], s_obj[span], s_mask[span],
                                            embeddings[span], has_embedding[span])
    return frames


def _trajectory_text(rows: Iterable[tuple], conf: float) -> str:
    """MOT lines of (frame, id, x, y, w, h) rows; the one formatter behind
    every trajectory file."""
    c = repr(float(conf))
    lines = [
        f"{f},{i},{float(x)!r},{float(y)!r},{float(w)!r},{float(h)!r},{c},-1,-1,-1"
        for f, i, x, y, w, h in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trajectory_lines(records: Iterable[tuple[int, int, BoundingBox]], conf: float = 1.0) -> str:
    return _trajectory_text(((f, i, box.x, box.y, box.w, box.h) for f, i, box in records), conf)


def write_trajectories(path: str | Path, ts: TrajectorySet) -> None:
    """Write a trajectory set. A negative id, which ``load_trajectories``
    rejects as a detection line, is a ValueError naming its frame and id,
    raised before the file is written."""
    frame, ident, boxes = ts.columns()
    if (ident < 0).any():
        r = int(np.argmax(ident < 0))
        raise ValueError(f"frame {frame[r]}, id {ident[r]}: a negative id marks a detection line")
    rows = zip(frame.tolist(), ident.tolist(), *boxes.T.tolist())
    atomic_write_text(path, _trajectory_text(rows, 1.0))


def write_detections(path: str | Path, frames) -> None:
    """Write per-frame candidates; companions with appearance data get a sidecar.

    ``frames`` is a mapping frame -> candidates or a list whose position i
    holds frame i+1, each a ``Frame`` or a list of candidates. Both files'
    text is built and checked before either is written: a per-track s_mask
    mapping, which has no sidecar form, is a ValueError naming its frame and
    candidate index, and so are embeddings of two dimensions and a frame
    before 1, which ``load_detections`` rejects. When no candidate has
    appearance data, a sidecar left by an earlier write is removed, so it
    cannot attach to these detections. A detection path ending in ``.aff``
    is its own sidecar path: a ValueError.
    """
    aff_path = sidecar_path(path)
    if aff_path == Path(path):
        raise ValueError(f"detection path {str(path)!r} ends in .aff, the sidecar suffix")
    items = _frame_items(frames)
    dims = []  # per frame, {embedding dim: first candidate index with it}
    for number, candidates in items:
        if number < 1:
            raise ValueError(f"frame {number} is before frame 1, where detection files start")
        mapped = _mapped_candidates(candidates)
        if mapped:
            raise ValueError(f"frame {number}, candidate {mapped[0]}: a per-track s_mask has no sidecar form")
        dims.append(_embedding_dims(candidates))
    dim = max((d for per_frame in dims for d in per_frame), default=0)
    for (number, _), per_frame in zip(items, dims):
        mismatched = sorted((j, d) for d, j in per_frame.items() if d != dim)
        if mismatched:
            j, d = mismatched[0]
            raise ValueError(f"frame {number}, candidate {j}: embedding dim {d} does not match sidecar dim {dim}")

    lines, aff_lines = [], [f"aff 1 {dim}"]
    for number, candidates in items:
        frame = Frame.of(candidates)
        lines += [f"{number},-1,{x!r},{y!r},{w!r},{h!r},{s_obj!r},-1,-1,-1"
                  for (x, y, w, h), s_obj in zip(frame.boxes.tolist(), frame.s_obj.tolist())]
        entry = frame.has_embedding | ~np.isnan(frame.s_mask)
        for j, s_mask, keyed, embedding in zip(np.flatnonzero(entry).tolist(), frame.s_mask[entry].tolist(),
                                               frame.has_embedding[entry].tolist(),
                                               frame.embeddings[entry].tolist()):
            fields = f"{number},{j},{'-' if math.isnan(s_mask) else repr(s_mask)}"
            aff_lines.append(",".join([fields, *map(repr, embedding)]) if keyed else fields)
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    if len(aff_lines) > 1:
        atomic_write_text(aff_path, "\n".join(aff_lines) + "\n")
    else:
        aff_path.unlink(missing_ok=True)


def _frame_items(frames) -> list[tuple[int, Frame | list[DetectionCandidate]]]:
    if isinstance(frames, Mapping):
        return [(frame, frames[frame]) for frame in sorted(frames)]
    return [(i + 1, candidates) for i, candidates in enumerate(frames)]


def _mapped_candidates(candidates) -> list[int]:
    """Indices of the candidates with a per-track s_mask mapping, increasing."""
    if isinstance(candidates, Frame):
        return list(candidates.mapped)
    return [j for j, c in enumerate(candidates) if isinstance(c.s_mask, Mapping)]


def _embedding_dims(candidates) -> dict[int, int]:
    """{embedding dim: index of the first candidate with it}; a list of
    candidates may hold embeddings of two dimensions, a Frame not."""
    if isinstance(candidates, Frame):
        keyed = np.flatnonzero(candidates.has_embedding)
        return {candidates.embeddings.shape[1]: int(keyed[0])} if keyed.size else {}
    dims: dict[int, int] = {}
    for j, c in enumerate(candidates):
        if c.embedding is not None:
            dims.setdefault(c.embedding.size, j)
    return dims


def sidecar_path(det_path: str | Path) -> Path:
    return Path(det_path).with_suffix(".aff")


@dataclass(frozen=True, eq=False)
class Sidecar:
    """An affinity sidecar's entries as columns, in file order: ``frame`` and
    ``cand`` (k,) int64, ``s_mask`` (k,) (NaN for '-'), and ``embeddings``
    (k, dim) holding the embeddings of the entries ``has_embedding`` marks.
    Its length is the number of entries."""

    frame: np.ndarray
    cand: np.ndarray
    s_mask: np.ndarray
    embeddings: np.ndarray
    has_embedding: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)


def load_sidecar(path: str | Path) -> Sidecar:
    """Parse a sidecar into columns. The first bad line, in file order, is a
    MotParseError naming ``path:line``: a wrong field count, an unparsable
    number, a frame or candidate outside int64, a second entry for one
    (frame, candidate), an s_mask outside [0, 1] or a non-finite embedding."""
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

    frames, cands, s_masks, keyed, lines = [], [], [], [], []  # one entry per data line
    embeddings = np.zeros((len(text), dim))  # entry k's embedding, if any, in row k
    seen: set[tuple[int, int]] = set()
    error = None  # "line: problem" of the first bad line; the loop stops there
    for lineno, raw in enumerate(text[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (3, 3 + dim):
            error = f"{lineno}: expected 3 or {3 + dim} fields, got {len(parts)}"
            break
        try:
            frame = int(parts[0])
            cand = int(parts[1])
            s_mask = math.nan if parts[2] == "-" else float(parts[2])
            if len(parts) > 3:
                embeddings[len(frames)] = parts[3:]
        except ValueError:
            error = f"{lineno}: malformed line {raw!r}"
            break
        if not (-2**63 <= frame < 2**63 and -2**63 <= cand < 2**63):
            error = f"{lineno}: frame or candidate outside int64"
            break
        if (frame, cand) in seen:
            error = f"{lineno}: a second entry for frame {frame}, candidate {cand}"
            break
        if not 0.0 <= s_mask <= 1.0 and parts[2] != "-":
            error = f"{lineno}: s_mask must be in [0, 1], got {parts[2]!r}"
            break
        seen.add((frame, cand))
        frames.append(frame)
        cands.append(cand)
        s_masks.append(s_mask)
        keyed.append(len(parts) > 3)
        lines.append(lineno)

    # The embeddings of the lines before the stop are checked finite in one
    # pass, and a bad one comes first.
    embeddings = embeddings[:len(frames)]
    bad = ~np.isfinite(embeddings).all(axis=1)
    if bad.any():
        raise MotParseError(f"{path}:{lines[int(np.argmax(bad))]}: embedding contains non-finite entries")
    if error is not None:
        raise MotParseError(f"{path}:{error}")
    return Sidecar(np.array(frames, dtype=np.int64), np.array(cands, dtype=np.int64),
                   np.array(s_masks, dtype=float), embeddings, np.array(keyed, dtype=bool))
