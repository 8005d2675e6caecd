"""Axis-aligned bounding-box arithmetic shared by association, metrics, and the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel units, stored as (left, top, width, height).

    Extents must be strictly positive and all coordinates finite; invalid
    boxes are rejected at construction time so downstream scoring never
    sees degenerate geometry.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"box field {name!r} must be finite, got {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extents must be positive, got w={self.w}, h={self.h}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Symmetric; 0 for disjoint boxes, including boxes that only share an
    edge (zero-area intersection). Identical boxes score exactly 1: the
    (x + w) - x edge arithmetic is not exact in floating point, so the
    identity case is resolved before it and the ratio is clamped at 1.
    """
    if a == b:
        return 1.0
    ix = min(a.right, b.right) - max(a.x, b.x)
    iy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return min(inter / (a.area + b.area - inter), 1.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) arrays of (x, y, w, h) rows, shape (n, m).

    Every entry equals ``iou`` of the two boxes bit for bit: the same
    (x + w) edge arithmetic, exactly 1 for equal rows, 0 for disjoint or
    edge-sharing boxes, and the ratio clamped at 1.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    ax, ay, aw, ah = (col[:, np.newaxis] for col in a.T)
    bx, by, bw, bh = b.T
    # Clipping the overlap at +0 zeroes disjoint and edge-sharing pairs.
    ix = np.maximum(np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx), 0.0)
    iy = np.maximum(np.minimum(ay + ah, by + bh) - np.maximum(ay, by), 0.0)
    inter = ix * iy
    out = np.minimum(inter / (aw * ah + bw * bh - inter), 1.0)
    out[(ax == bx) & (ay == by) & (aw == bw) & (ah == bh)] = 1.0
    return out


def boxes_array(boxes) -> np.ndarray:
    """Stack BoundingBoxes into an (n, 4) array of (x, y, w, h) rows."""
    return np.array([box.as_tuple() for box in boxes], dtype=float).reshape(-1, 4)


def center(a: BoundingBox) -> tuple[float, float]:
    """Center point of a box, (x + w/2, y + h/2)."""
    return (a.x + a.w / 2.0, a.y + a.h / 2.0)
