import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import BoundingBox, center, iou, iou_matrix
from motrack.geometry import boxes_array

from oracles import pixel_count_iou


def test_identical_boxes():
    a = BoundingBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0


def test_disjoint_boxes():
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0


def test_half_shift_overlap():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 0, 10, 10)
    expected = pixel_count_iou(a, b)
    assert expected == pytest.approx(1.0 / 3.0)
    assert iou(a, b) == pytest.approx(expected, abs=1e-12)


def test_touching_edges_are_disjoint():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(10, 0, 10, 10)
    assert iou(a, b) == 0.0


def test_matches_pixel_count_oracle_on_integer_boxes():
    rng = np.random.default_rng(7)
    for _ in range(300):
        ax, ay, bx, by = rng.integers(-15, 15, size=4)
        aw, ah, bw, bh = rng.integers(1, 20, size=4)
        a = BoundingBox(float(ax), float(ay), float(aw), float(ah))
        b = BoundingBox(float(bx), float(by), float(bw), float(bh))
        assert iou(a, b) == pytest.approx(pixel_count_iou(a, b), abs=1e-9)


def test_symmetry_and_bounds():
    rng = np.random.default_rng(11)
    for _ in range(300):
        ax, ay, bx, by = rng.uniform(-50, 50, size=4)
        aw, ah, bw, bh = rng.uniform(0.1, 40, size=4)
        a = BoundingBox(ax, ay, aw, ah)
        b = BoundingBox(bx, by, bw, bh)
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0
        assert iou(a, a) == 1.0


@pytest.mark.parametrize(
    "box, expected",
    [
        (BoundingBox(0, 0, 10, 10), (5, 5)),
        (BoundingBox(3, 4, 0.5, 0.5), (3.25, 4.25)),
        (BoundingBox(-10, -10, 20, 20), (0, 0)),
    ],
)
def test_center(box, expected):
    assert center(box) == pytest.approx(expected)


@pytest.mark.parametrize("w, h", [(0, 10), (10, 0), (-1, 10), (10, -3)])
def test_rejects_degenerate_extents(w, h):
    with pytest.raises(ValueError):
        BoundingBox(0, 0, w, h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError):
        BoundingBox(bad, 0, 10, 10)


# --- iou_matrix: differential against the scalar iou -------------------------

_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


@st.composite
def box_sets(draw, max_size=6):
    """Random boxes at one scale, plus copies, one-ulp shifts, edge neighbours
    and nested boxes."""
    scale = draw(st.sampled_from(_SCALES))
    coord = st.floats(-100.0, 100.0)
    extent = st.floats(0.01, 100.0)
    boxes = [
        BoundingBox(draw(coord) * scale, draw(coord) * scale,
                    draw(extent) * scale, draw(extent) * scale)
        for _ in range(draw(st.integers(0, max_size)))
    ]
    derived = []
    for box in boxes:
        kind = draw(st.sampled_from(("none", "equal", "ulp", "right", "below", "nested")))
        if kind == "equal":
            derived.append(BoundingBox(*box.as_tuple()))
        elif kind == "ulp":
            derived.append(BoundingBox(float(np.nextafter(box.x, math.inf)), box.y, box.w, box.h))
        elif kind == "right":
            derived.append(BoundingBox(box.right, box.y, box.w, box.h))
        elif kind == "below":
            derived.append(BoundingBox(box.x, box.bottom, box.w, box.h))
        elif kind == "nested":
            derived.append(BoundingBox(box.x + box.w / 4, box.y + box.h / 4, box.w / 2, box.h / 2))
    boxes += derived
    return draw(st.permutations(boxes)) if boxes else boxes


def _scalar_matrix(boxes_a, boxes_b):
    return np.array([[iou(a, b) for b in boxes_b] for a in boxes_a]).reshape(
        len(boxes_a), len(boxes_b)
    )


@settings(max_examples=300, deadline=None)
@given(box_sets(), box_sets())
def test_iou_matrix_equals_scalar_iou_bit_for_bit(boxes_a, boxes_b):
    # boxes_a against itself too, so every box meets its own copy.
    boxes_b = boxes_a + boxes_b
    got = iou_matrix(boxes_array(boxes_a), boxes_array(boxes_b))
    want = _scalar_matrix(boxes_a, boxes_b)
    assert got.shape == (len(boxes_a), len(boxes_b))
    assert got.tobytes() == want.tobytes()
    assert np.all(np.diag(got) == 1.0)


@settings(max_examples=200, deadline=None)
@given(box_sets(), box_sets())
def test_iou_matrix_symmetric_and_bounded(boxes_a, boxes_b):
    a, b = boxes_array(boxes_a), boxes_array(boxes_b)
    ab = iou_matrix(a, b)
    assert np.array_equal(ab, iou_matrix(b, a).T)
    assert np.all((ab >= 0.0) & (ab <= 1.0))


def test_iou_matrix_edges_and_empty_shapes():
    a = boxes_array([BoundingBox(0, 0, 10, 10)])
    b = boxes_array([BoundingBox(10, 0, 10, 10), BoundingBox(0, 0, 10, 10), BoundingBox(2, 2, 5, 5)])
    assert iou_matrix(a, b).tolist() == [[0.0, 1.0, 0.25]]
    # One ulp apart: the edge arithmetic overshoots and the ratio is clamped.
    near = [BoundingBox(76.2280082457942, 44.538719405480144, 0.2050920622204236, 36.10484761380505),
            BoundingBox(76.2280082457942, 44.53871940548015, 0.2050920622204236, 36.10484761380505)]
    assert iou_matrix(boxes_array(near[:1]), boxes_array(near[1:])).tolist() == [[1.0]]
    assert iou(*near) == 1.0
    assert iou_matrix(a, boxes_array([])).shape == (1, 0)
    assert iou_matrix(boxes_array([]), b).shape == (0, 3)
