"""MOTChallenge text-file I/O plus the affinity sidecar extension.

Data lines are ``frame,id,left,top,width,height,conf,a,b,c``; lines with
id = -1 are detections, non-negative ids trajectory boxes. Frames need not
be sorted in the file; they are grouped on load. Floats are written with
their shortest round-trip representation so write -> read -> write is
byte-identical.

The sidecar ``<name>.aff`` (version header ``aff 1 <dim>``) attaches an
optional scalar appearance affinity and an optional embedding to detections
by (frame, candidate index): ``frame,cand,s_mask_or_dash[,e0,...,e_{dim-1}]``.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping

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


def _parse_rows(path: str | Path) -> list[tuple[int, int, BoundingBox, float]]:
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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


def load_trajectories(path: str | Path) -> TrajectorySet:
    """Read a ground-truth or hypothesis file keyed by identity."""
    ts = TrajectorySet()
    for frame, ident, box, _conf in _parse_rows(path):
        if ident < 0:
            raise MotParseError(
                f"{path}: id {ident} marks a detection line; use load_detections"
            )
        ts.add(frame, ident, box)
    return ts


def load_detections(
    path: str | Path,
    sidecar: str | Path | None = None,
) -> dict[int, list[DetectionCandidate]]:
    """Read a detection file into per-frame candidate lists.

    The id column is ignored, conf becomes the objectness score (clamped to
    [0, 1]). When a sidecar exists (explicit path, or the detection path
    with an .aff suffix), its affinities and embeddings attach by
    (frame, candidate index); an entry that matches no detection is an
    error.
    """
    side: dict[tuple[int, int], tuple[float | None, np.ndarray | None]] = {}
    sidecar = Path(sidecar) if sidecar is not None else sidecar_path(path)
    if sidecar.exists():
        side = load_sidecar(sidecar)

    frames: dict[int, list[DetectionCandidate]] = {}
    for frame, _ident, box, conf in _parse_rows(path):
        bucket = frames.setdefault(frame, [])
        s_mask, embedding = side.pop((frame, len(bucket)), (None, None))
        bucket.append(DetectionCandidate(
            box=box,
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


def parse_mot(path: str | Path):
    """Dispatch on the id column: detections (ids all -1) or trajectories."""
    rows = _parse_rows(path)
    if rows and all(ident < 0 for _f, ident, _b, _c in rows):
        return load_detections(path)
    return load_trajectories(path)


def trajectory_lines(records: Iterable[tuple[int, int, BoundingBox]], conf: float = 1.0) -> str:
    lines = []
    for frame, ident, box in records:
        lines.append(
            f"{frame},{ident},{_fmt(box.x)},{_fmt(box.y)},{_fmt(box.w)},{_fmt(box.h)},{_fmt(conf)},-1,-1,-1"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_trajectories(path: str | Path, ts: TrajectorySet) -> None:
    atomic_write_text(path, trajectory_lines(ts.records()))


def write_detections(path: str | Path, frames, write_aff: bool = True) -> None:
    """Write per-frame candidates; companions with appearance data get a sidecar.

    ``frames`` is a mapping frame -> candidates or a list whose position i
    holds frame i+1.
    """
    items = _frame_items(frames)
    lines = []
    aff_entries: list[tuple[int, int, float | None, np.ndarray | None]] = []
    dim = 0
    for frame, candidates in items:
        for j, cand in enumerate(candidates):
            box = cand.box
            lines.append(
                f"{frame},-1,{_fmt(box.x)},{_fmt(box.y)},{_fmt(box.w)},{_fmt(box.h)},{_fmt(cand.s_obj)},-1,-1,-1"
            )
            scalar_mask = float(cand.s_mask) if isinstance(cand.s_mask, (int, float)) else None
            if scalar_mask is not None or cand.embedding is not None:
                if cand.embedding is not None:
                    dim = max(dim, cand.embedding.size)
                aff_entries.append((frame, j, scalar_mask, cand.embedding))
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
