"""Axis-aligned bounding-box arithmetic shared by association, metrics, and the
simulator, and the range checker of every config dataclass."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np


def _is_count(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# The ranges a field's "range" metadata names: each one's test, written in
# positive form so that NaN fails every range, and the words of its error.
# An integer range takes only integer types, and not bool: neither 3.0 nor
# True is a count.
RANGES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "[0, 1]": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "(0, 1)": (lambda v: 0 < v < 1, "in (0, 1)"),
    "[0, inf)": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "(0, inf)": (lambda v: 0 < v < math.inf, "finite and > 0"),
    ">= 0": (lambda v: v >= 0, ">= 0"),
    "integer >= 0": (lambda v: _is_count(v) and v >= 0, "an integer >= 0"),
    "integer >= 1": (lambda v: _is_count(v) and v >= 1, "an integer >= 1"),
}


def check_range(value: Any, name: str, range_: str) -> Any:
    """value, if it lies in the named range of ``RANGES``; else a ValueError
    naming the value's name and the range."""
    test, words = RANGES[range_]
    if not test(value):
        raise ValueError(f"{name} must be {words}, got {value}")
    return value


def check_fields(config: Any) -> None:
    """Check a config dataclass's fields in field order against their
    metadata's "range" and "choices"; an error names the field, or the
    metadata's "name" when it has one."""
    for f in fields(config):
        value, name = getattr(config, f.name), f.metadata.get("name", f.name)
        if "range" in f.metadata:
            check_range(value, name, f.metadata["range"])
        if "choices" in f.metadata and value not in f.metadata["choices"]:
            raise ValueError(f"{name} must be one of {f.metadata['choices']}, got {value!r}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel units, stored as (left, top, width, height).

    Extents must be strictly positive, all coordinates, the right and
    bottom edges finite, and the area finite and not underflowing to 0;
    invalid boxes are rejected at construction time so downstream scoring
    never sees degenerate geometry or overflows.
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
        for name, value in (("x + w", self.x + self.w), ("y + h", self.y + self.h),
                            ("w * h", self.w * self.h)):
            if not math.isfinite(value):
                raise ValueError(f"box {name} must be finite, got {value!r}")
        if self.w * self.h == 0.0:
            raise ValueError(f"box w * h must be positive, got {self.w * self.h!r}")

    @classmethod
    def _checked(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        """A box over values already checked as ``__post_init__`` checks them,
        such as a row of checked box columns."""
        box = object.__new__(cls)
        attrs = box.__dict__
        attrs["x"], attrs["y"], attrs["w"], attrs["h"] = x, y, w, h
        return box

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
    identity case is resolved before it. The overlap is divided by the
    larger of union and overlap, so a union that rounds below the overlap
    (near 2**53, even to 0 or below) scores 1, not above 1 or an error.
    """
    if a == b:
        return 1.0
    ix = min(a.right, b.right) - max(a.x, b.x)
    iy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / max(a.area + b.area - inter, inter)


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise IoU of two broadcastable (..., 4) arrays of (x, y, w, h) rows.

    Every entry equals ``iou`` of its two boxes bit for bit: the same
    (x + w) edge arithmetic, exactly 1 for equal rows, 0 for disjoint or
    edge-sharing boxes, and the overlap divided by max(union, overlap).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ax, ay, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx, by, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    # Clipping the overlap at +0 zeroes disjoint and edge-sharing pairs. Two
    # far-apart boxes overflow the edge difference to -inf, and two huge ones
    # the summed area to inf; both give 0, as in ``iou``, so only overflow is
    # silenced.
    with np.errstate(over="ignore"):
        ix = np.maximum(np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx), 0.0)
        iy = np.maximum(np.minimum(ay + ah, by + bh) - np.maximum(ay, by), 0.0)
        inter = ix * iy
        out = np.asarray(inter / np.maximum(aw * ah + bw * bh - inter, inter))
    out[(ax == bx) & (ay == by) & (aw == bw) & (ah == bh)] = 1.0
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) arrays of (x, y, w, h) rows, shape (n, m),
    each entry bit-equal to ``iou`` (see ``iou_pairs``)."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    return iou_pairs(a[:, np.newaxis], b[np.newaxis])


def invalid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (n, 4) (x, y, w, h) array that ``BoundingBox``
    rejects: a non-positive extent, a non-finite value, edge (x + w, y + h)
    or area, or an area of 0. An edge is finite only when both its terms are."""
    x, y, w, h = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        area = w * h
        finite = np.isfinite(x + w) & np.isfinite(y + h) & np.isfinite(area)
    return ~(finite & (w > 0) & (h > 0) & (area != 0.0))
