"""MOTChallenge text-file I/O plus the affinity sidecar extension.

Data lines are ``frame,id,left,top,width,height,conf,a,b,c``; lines with
id = -1 are detections, non-negative ids trajectory boxes. Frames need not
be sorted in the file; they are grouped on load. One bulk read parses a
file into frame, id, box and conf columns; a file it refuses is parsed line
by line, each line checked as it is read, and the first bad line in file
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
It is read in bulk the same way when its entries all have 3 fields, or all 3 + dim.
A detection sequence is one column set, checked once: a file loads as per-frame
``Frame`` views of it, ``write_detections`` gathers and checks its input in one
pass, and one formatter writes every detection and trajectory line.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .association import Frame
from .geometry import BoundingBox, invalid_boxes
from .metrics import TrajectorySet, key_order


class MotParseError(ValueError):
    pass


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory plus rename; a failed
    run never leaves a partial output file."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    except OSError as exc:
        exc.filename = str(path)  # the output the caller named, not a random temp name
        raise
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


def _loadtxt(lines: list[str], dtype, usecols=None) -> np.ndarray | None:
    """One pass of numpy's C reader over comma-separated lines, which skips
    empty lines; None where it raises or warns, so the caller falls back.
    It swaps the process-wide warning filters, so it is not thread-safe."""
    with warnings.catch_warnings():
        # Any warning refuses: numpy 1.24-1.26 parse "1.0" into an int column
        # with only a DeprecationWarning.
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)
        except (ValueError, Warning):
            return None


def _parse_columns(path: str | Path) -> _Columns:
    """Parse every data line into columns, skipping blank lines, in one bulk
    read; a file it refuses, or with a row that fails a check, goes to
    ``_parse_lines``, which names the first bad line."""
    raw_lines = Path(path).read_text().splitlines()
    table = _loadtxt(raw_lines, [("frame", "i8"), ("ident", "f8"), ("boxes", "f8", (4,)), ("conf", "f8")], range(7))
    if table is not None:
        ident, boxes, conf = table["ident"], table["boxes"], table["conf"]
        line = np.arange(1, len(table) + 1)
        if len(table) < len(raw_lines):
            line = np.array([k for k, raw in enumerate(raw_lines, start=1) if raw], dtype=np.int64)
        # int(float(id)) needs a finite id in int64's range; NaN fails both bounds.
        if (len(line) == len(table) and ((ident >= -2.0**63) & (ident < 2.0**63)).all()
                and np.isfinite(conf).all() and not invalid_boxes(boxes).any()):
            return _Columns(table["frame"], ident.astype(np.int64), boxes, conf, line)
    return _parse_lines(path, raw_lines)


def _parse_lines(path: str | Path, raw_lines: list[str]) -> _Columns:
    """Parse the lines one at a time, up to the first bad one: a MotParseError
    naming ``path:line`` for too few fields or an unparsable number, a frame
    or id outside int64, a non-finite conf, or a box ``BoundingBox`` rejects,
    checked in that order."""
    keys, values = [], []  # per row (frame, id, line) and (left, top, width, height, conf)
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) < 7:
            raise MotParseError(f"{path}:{lineno}: expected at least 7 fields, got {len(parts)}")
        try:
            key = (int(parts[0]), int(float(parts[1])), lineno)
            row = tuple(map(float, parts[2:7]))
        except (ValueError, OverflowError) as exc:
            raise MotParseError(f"{path}:{lineno}: malformed line {raw!r}") from exc
        if not (-2**63 <= key[0] < 2**63 and -2**63 <= key[1] < 2**63):
            raise MotParseError(f"{path}:{lineno}: frame or id outside int64")
        if not math.isfinite(row[4]):
            raise MotParseError(f"{path}:{lineno}: conf must be finite, got {parts[6].strip()!r}")
        try:
            BoundingBox(*row[:4])
        except ValueError as exc:
            raise MotParseError(f"{path}:{lineno}: {exc}") from exc
        keys.append(key)
        values.append(row)
    frame, ident, line = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    values = np.array(values, dtype=float).reshape(-1, 5)
    return _Columns(frame, ident, values[:, :4], values[:, 4], line)


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
    The file's rows are checked once, as one column set, and each Frame is a
    read-only view of that frame's rows.

    The id column is ignored, conf becomes the objectness score (clamped to
    [0, 1]), and frames are numbered from 1. The sidecar, an explicit path
    that must exist or else the detection path with an .aff suffix if that
    exists, attaches affinities and embeddings by (frame, candidate index);
    an entry that matches no detection is an error.
    """
    explicit = sidecar is not None
    sidecar = Path(sidecar) if explicit else sidecar_path(path)
    side = load_sidecar(sidecar) if explicit or sidecar.exists() else None

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
        s_mask[at], has_embedding[at] = side.s_mask, side.has_embedding
        embeddings[at[side.has_embedding]] = side.embeddings
    views = Frame._checked(rows.boxes[order], s_obj, s_mask, embeddings, has_embedding)._split(count)
    return {numbers[k]: views[k] for k in np.argsort(order[first], kind="stable").tolist()}


def _mot_text(rows: Iterable[tuple]) -> str:
    """MOT lines of (frame, id, x, y, w, h, conf text) rows; the one formatter
    behind every detection and trajectory file."""
    lines = [
        f"{f},{i},{float(x)!r},{float(y)!r},{float(w)!r},{float(h)!r},{c},-1,-1,-1"
        for f, i, x, y, w, h, c in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trajectory_lines(records: Iterable[tuple[int, int, BoundingBox]], conf: float = 1.0) -> str:
    c = repr(float(conf))
    return _mot_text((f, i, box.x, box.y, box.w, box.h, c) for f, i, box in records)


def write_trajectories(path: str | Path, ts: TrajectorySet) -> None:
    """Write a trajectory set. A negative id, which ``load_trajectories``
    rejects as a detection line, is a ValueError naming its frame and id,
    raised before the file is written."""
    frame, ident, boxes = ts.columns()
    if (ident < 0).any():
        r = int(np.argmax(ident < 0))
        raise ValueError(f"frame {frame[r]}, id {ident[r]}: a negative id marks a detection line")
    rows = zip(frame.tolist(), ident.tolist(), *boxes.T.tolist(), ["1.0"] * len(frame))
    atomic_write_text(path, _mot_text(rows))


def write_detections(path: str | Path, frames) -> None:
    """Write per-frame candidates; companions with appearance data get a sidecar.

    ``frames`` is a mapping frame -> candidates or a list whose position i
    holds frame i+1, each a ``Frame`` or a list of candidates, gathered into
    one column set and checked in one pass; both files' text is built from
    it before either is written. A per-track s_mask mapping, which has no
    sidecar form, is a ValueError naming its frame and candidate index, and
    so are embeddings of two dimensions, a frame before 1 and a frame key
    that is not an integer below 2**63, which ``load_detections`` rejects.
    When no candidate has appearance data, a sidecar left by an earlier
    write is removed, so it cannot attach to these detections. A detection
    path ending in ``.aff`` is its own sidecar path: a ValueError.
    """
    aff_path = sidecar_path(path)
    if aff_path == Path(path):
        raise ValueError(f"detection path {str(path)!r} ends in .aff, the sidecar suffix")
    numbers = sorted(frames) if isinstance(frames, Mapping) else range(1, len(frames) + 1)
    frames = [frames[number] for number in numbers] if isinstance(frames, Mapping) else list(frames)
    bad = [n for n in numbers if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n >= 2**63]
    if bad:
        raise ValueError(f"frame key {bad[0]!r} is not an integer below 2**63")
    if numbers and numbers[0] < 1:
        raise ValueError(f"frame {numbers[0]} is before frame 1, where detection files start")
    dims = []  # per frame, each candidate's embedding dim (0 for none); a list may mix dims
    for number, candidates in zip(numbers, frames):
        if isinstance(candidates, Frame):
            mapped = list(candidates.mapped)
            dims.append(candidates.has_embedding * candidates.embeddings.shape[1])
        else:
            mapped = [j for j, c in enumerate(candidates) if isinstance(c.s_mask, Mapping)]
            dims.append([0 if c.embedding is None else c.embedding.size for c in candidates])
        if mapped:
            raise ValueError(f"frame {number}, candidate {mapped[0]}: a per-track s_mask has no sidecar form")
    counts = [len(d) for d in dims]
    number = np.repeat(numbers, counts)
    index = np.arange(len(number)) - np.repeat(np.cumsum(counts, dtype=np.int64) - counts, counts)
    dims = np.concatenate([np.zeros(0, dtype=np.int64), *dims])
    dim = int(dims.max(initial=0))
    if ((dims > 0) & (dims != dim)).any():
        r = int(np.argmax((dims > 0) & (dims != dim)))
        raise ValueError(f"frame {number[r]}, candidate {index[r]}: embedding dim {dims[r]} "
                         f"does not match sidecar dim {dim}")

    frames = [Frame.of(candidates) for candidates in frames]  # a Frame as it is, a list converted
    boxes = np.concatenate([np.zeros((0, 4)), *(f.boxes for f in frames)])
    s_obj = np.concatenate([np.zeros(0), *(f.s_obj for f in frames)])
    s_mask = np.concatenate([np.zeros(0), *(f.s_mask for f in frames)])
    embeddings = np.concatenate([np.zeros((0, dim)), *(f.embeddings if f.embeddings.shape[1] == dim
                                                       else np.zeros((len(f), dim)) for f in frames)])
    text = _mot_text(zip(number.tolist(), [-1] * len(number), *boxes.T.tolist(), map(repr, s_obj.tolist())))
    entry = (dims > 0) | ~np.isnan(s_mask)
    aff_lines = [f"aff 1 {dim}"]
    for f, j, m, keyed, embedding in zip(number[entry].tolist(), index[entry].tolist(), s_mask[entry].tolist(),
                                         (dims[entry] > 0).tolist(), embeddings[entry]):
        fields = f"{f},{j},{'-' if math.isnan(m) else repr(m)}"
        aff_lines.append(",".join([fields, *map(repr, embedding.tolist())]) if keyed else fields)
    atomic_write_text(path, text)
    if len(aff_lines) > 1:
        atomic_write_text(aff_path, "\n".join(aff_lines) + "\n")
    else:
        aff_path.unlink(missing_ok=True)


def sidecar_path(det_path: str | Path) -> Path:
    return Path(det_path).with_suffix(".aff")


@dataclass(frozen=True, eq=False)
class Sidecar:
    """An affinity sidecar's entries as columns, in file order: ``frame`` and
    ``cand`` (k,) int64, ``s_mask`` (k,) (NaN for '-'), ``has_embedding``
    (k,) bool, and ``embeddings`` (e, dim), the embeddings of the e entries
    ``has_embedding`` marks, in entry order (width 0 when there are none).
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

    side = _load_sidecar_bulk(text[1:], dim)
    return _load_sidecar_lines(path, text, dim) if side is None else side


def _load_sidecar_bulk(lines: list[str], dim: int) -> Sidecar | None:
    """One bulk read of a sidecar's data lines, or None where it refuses or
    any check fails, as for a file whose entries differ in field count."""
    widths = {raw.count(",") - 2 for raw in lines if raw}  # embedding fields per entry
    if len(widths) != 1 or not widths & {0, dim}:
        return None
    width = widths.pop()
    table = _loadtxt(lines, [("frame", "i8"), ("cand", "i8"), ("s_mask", "O"), ("embedding", "f8", (width,))])
    if table is None:
        return None
    try:
        s_mask = np.array([math.nan if s == "-" else float(s) for s in table["s_mask"].tolist()])
    except ValueError:
        return None
    if (not ((table["s_mask"] == "-") | ((s_mask >= 0.0) & (s_mask <= 1.0))).all()
            or key_order(table["frame"], table["cand"])[1].any()
            or not np.isfinite(table["embedding"]).all()):
        return None
    has_embedding = np.full(len(table), width > 0)
    return Sidecar(table["frame"], table["cand"], s_mask, table["embedding"][has_embedding], has_embedding)


def _load_sidecar_lines(path: str | Path, text: list[str], dim: int) -> Sidecar:
    """Parse a sidecar's data lines one at a time, up to the first bad one."""
    entries: dict[tuple[int, int], tuple[float, bool]] = {}  # (frame, cand) -> (s_mask, keyed), in file order
    rows = []  # the keyed lines' embeddings, end to end
    for lineno, raw in enumerate(text[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (3, 3 + dim):
            raise MotParseError(f"{path}:{lineno}: expected 3 or {3 + dim} fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            cand = int(parts[1])
            s_mask = math.nan if parts[2] == "-" else float(parts[2])
            embedding = list(map(float, parts[3:]))
        except ValueError as exc:
            raise MotParseError(f"{path}:{lineno}: malformed line {raw!r}") from exc
        if not (-2**63 <= frame < 2**63 and -2**63 <= cand < 2**63):
            raise MotParseError(f"{path}:{lineno}: frame or candidate outside int64")
        if (frame, cand) in entries:
            raise MotParseError(f"{path}:{lineno}: a second entry for frame {frame}, candidate {cand}")
        if not 0.0 <= s_mask <= 1.0 and parts[2] != "-":
            raise MotParseError(f"{path}:{lineno}: s_mask must be in [0, 1], got {parts[2]!r}")
        if not all(map(math.isfinite, embedding)):
            raise MotParseError(f"{path}:{lineno}: embedding contains non-finite entries")
        entries[frame, cand] = s_mask, len(parts) > 3
        if len(parts) > 3:
            rows.extend(embedding)
    frame, cand = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
    s_mask, keyed = np.array(list(entries.values()), dtype=float).reshape(-1, 2).T
    return Sidecar(frame, cand, s_mask, np.array(rows).reshape(-1, dim) if rows else np.zeros((0, 0)), keyed == 1.0)
