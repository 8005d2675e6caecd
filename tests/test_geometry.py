import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import BoundingBox, iou, iou_matrix
from motrack.geometry import invalid_boxes, iou_pairs

from oracles import boxes_array, pixel_count_iou


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


@settings(max_examples=300, deadline=None)
@given(box_sets(), box_sets())
def test_iou_pairs_equals_scalar_iou_bit_for_bit(boxes_a, boxes_b):
    # Flat pair arrays, as the metrics' frame table scores them.
    boxes_b = boxes_a + boxes_b
    pairs = [(a, b) for a in boxes_a for b in boxes_b]
    got = iou_pairs(boxes_array(a for a, _ in pairs), boxes_array(b for _, b in pairs))
    want = np.array([iou(a, b) for a, b in pairs], dtype=float)
    assert got.shape == (len(pairs),)
    assert got.tobytes() == want.tobytes()
    for a, b in pairs[:3]:
        one = iou_pairs(np.array(a.as_tuple()), np.array(b.as_tuple()))
        assert one.shape == () and float(one) == iou(a, b)


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


def test_overflowing_intermediates_score_as_scalar_iou_without_warning():
    # Edges about 3.4e308 apart overflow the overlap's difference, and two
    # areas near 1e308 overflow their sum; every such pair scores as ``iou``.
    boxes = [BoundingBox(-1.7e308, 0.0, 10.0, 10.0), BoundingBox(1.7e308, 0.0, 10.0, 10.0),
             BoundingBox(0.0, 0.0, 1e154, 1e154), BoundingBox(1.0, 1.0, 1e154, 1e154)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = iou_matrix(boxes_array(boxes), boxes_array(boxes))
    assert got.tobytes() == _scalar_matrix(boxes, boxes).tobytes()
    assert got[0, 1] == got[2, 3] == 0.0


@pytest.mark.parametrize("box, message", [
    ((1e308, 0.0, 1e308, 1.0), "box x + w must be finite, got inf"),
    ((-1e308, 0.0, 1.0, 1.0), None),
    ((0.0, 1.7e308, 1.0, 1e308), "box y + h must be finite, got inf"),
    ((0.0, 0.0, 1e200, 1e200), "box w * h must be finite, got inf"),
    ((0.0, 0.0, 1e308, 1e-308), None),
    ((0.0, 0.0, 5e-324, 0.5), "box w * h must be positive, got 0.0"),
])
def test_boxes_whose_edges_or_area_overflow_are_rejected(box, message):
    if message is None:
        assert BoundingBox(*box).as_tuple() == box
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            BoundingBox(*box)
    assert invalid_boxes(np.array([box])).tolist() == [message is not None]


_EDGE_VALUES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e154, 1e155, 1e200, 1e308, -1e308, 1.7e308,
                                1e-308, 5e-324, math.inf, -math.inf, math.nan))
_VALUES = st.one_of(_EDGE_VALUES, st.floats())


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_VALUES, _VALUES, _VALUES, _VALUES), max_size=6))
def test_invalid_boxes_is_exactly_where_bounding_box_raises(rows):
    want = []
    for row in rows:
        try:
            BoundingBox(*row)
        except ValueError:
            want.append(True)
        else:
            want.append(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = invalid_boxes(np.array(rows, dtype=float).reshape(-1, 4))
    assert got.tolist() == want
