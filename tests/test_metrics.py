from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motrack import BoundingBox, TrajectorySet, clear_metrics, evaluate, hota, identity_metrics
from motrack import metrics
from motrack.metrics import HOTA_ALPHAS, EvalReport, _frame_table

from fixtures import as_records, empty_hyp, gt_box, half_hyp, perfect_gt, perfect_hyp, swap_hyp
from oracles import (
    clear_loop_oracle,
    frame_table_loop_oracle,
    hota_loop_oracle,
    hota_oracle,
    hota_potential_loop_oracle,
    identity_loop_oracle,
)


class TestTrajectorySet:
    def test_duplicate_identity_in_frame_rejected(self):
        ts = TrajectorySet()
        ts.add(1, 5, BoundingBox(0, 0, 1, 1))
        with pytest.raises(ValueError):
            ts.add(1, 5, BoundingBox(2, 2, 1, 1))

    def test_frames_sorted_regardless_of_insertion(self):
        ts = TrajectorySet()
        ts.add(7, 1, BoundingBox(0, 0, 1, 1))
        ts.add(2, 1, BoundingBox(0, 0, 1, 1))
        ts.add(5, 1, BoundingBox(0, 0, 1, 1))
        assert ts.frames == [2, 5, 7]

    def test_counts(self):
        gt = perfect_gt()
        assert gt.total_boxes() == 20
        assert gt.identities() == [1, 2]

    @pytest.mark.parametrize("box, message", [
        ((0.0, 0.0, 0.0, 1.0), "box extents must be positive, got w=0.0, h=1.0"),
        ((0.0, 0.0, 1.0, -2.0), "box extents must be positive, got w=1.0, h=-2.0"),
        ((float("nan"), 0.0, 1.0, 1.0), "box field 'x' must be finite, got nan"),
        ((0.0, float("inf"), 1.0, 1.0), "box field 'y' must be finite, got inf"),
    ])
    def test_from_columns_rejects_a_box_bounding_box_rejects(self, box, message):
        good = (0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=rf"^frame 2, id 7: {message}$"):
            TrajectorySet.from_columns([1, 2, 2, 3], [5, 4, 7, 1], [good, good, box, box])


class TestClearMetrics:
    def test_perfect_tracking(self):
        res = clear_metrics(perfect_gt(), perfect_hyp())
        assert res.mota == 1.0
        assert (res.fp, res.fn, res.ids) == (0, 0, 0)

    def test_label_swap_counts_two_switches(self):
        res = clear_metrics(perfect_gt(), swap_hyp())
        assert res.ids == 2
        assert (res.fp, res.fn) == (0, 0)
        assert res.mota == pytest.approx(0.9)

    def test_empty_hypothesis(self):
        res = clear_metrics(perfect_gt(), empty_hyp())
        assert res.fn == 20
        assert (res.fp, res.ids) == (0, 0)
        assert res.mota == 0.0

    def test_empty_ground_truth_is_explicit_outcome(self):
        res = clear_metrics(empty_hyp(), perfect_hyp())
        assert res.mota is None
        assert res.fp == 20

    def test_persistence_keeps_old_correspondence(self):
        # hyp 102 leaves at frame 3; 101 stays matched to gt 1 throughout,
        # so the re-match at frame 4 is not a switch for gt 1
        gt = perfect_gt()
        hyp = TrajectorySet()
        for f in range(1, 11):
            hyp.add(f, 101, gt_box(1, f))
            if f != 3:
                hyp.add(f, 102, gt_box(2, f))
        res = clear_metrics(gt, hyp)
        assert res.ids == 0
        assert res.fn == 1

    def test_gap_then_different_id_is_a_switch(self):
        gt = perfect_gt()
        hyp = TrajectorySet()
        for f in range(1, 11):
            hyp.add(f, 102, gt_box(2, f))
            hyp.add(f, 101 if f <= 4 else 103, gt_box(1, f))
        res = clear_metrics(gt, hyp)
        assert res.ids == 1

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            clear_metrics(perfect_gt(), perfect_hyp(), iou_threshold=0.0)


class TestIdentityMetrics:
    def test_perfect(self):
        res = identity_metrics(perfect_gt(), perfect_hyp())
        assert (res.idf1, res.idp, res.idr) == (1.0, 1.0, 1.0)

    def test_swap_halves_identity_scores(self):
        res = identity_metrics(perfect_gt(), swap_hyp())
        assert res.idtp == 10
        assert res.idf1 == pytest.approx(0.5)
        assert res.idp == pytest.approx(0.5)
        assert res.idr == pytest.approx(0.5)

    def test_half_coverage(self):
        res = identity_metrics(perfect_gt(), half_hyp())
        assert res.idp == pytest.approx(1.0)
        assert res.idr == pytest.approx(0.5)
        assert res.idf1 == pytest.approx(2.0 / 3.0)

    def test_idf1_is_harmonic_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gt = TrajectorySet()
            hyp = TrajectorySet()
            for f in range(1, 8):
                relabel = rng.permutation(4)  # per-frame label shuffle, no collisions
                for i in range(1, 4):
                    x = float(rng.uniform(0, 200))
                    gt.add(f, i, BoundingBox(x, 50.0 * i, 20, 20))
                    if rng.uniform() < 0.8:
                        jitter = float(rng.uniform(-3, 3))
                        hyp.add(f, 100 + int(relabel[i]), BoundingBox(x + jitter, 50.0 * i, 20, 20))
            res = identity_metrics(gt, hyp)
            if res.idp and res.idr:
                harmonic = 2 * res.idp * res.idr / (res.idp + res.idr)
                assert res.idf1 == pytest.approx(harmonic, abs=1e-12)

    def test_empty_hypothesis(self):
        res = identity_metrics(perfect_gt(), empty_hyp())
        assert (res.idf1, res.idp, res.idr) == (0.0, 0.0, 0.0)


class TestHota:
    def test_perfect(self):
        res = hota(perfect_gt(), perfect_hyp())
        assert res.hota == pytest.approx(1.0)
        assert res.deta == pytest.approx(1.0)
        assert res.assa == pytest.approx(1.0)

    def test_empty_hypothesis(self):
        res = hota(perfect_gt(), empty_hyp())
        assert (res.hota, res.deta, res.assa) == (0.0, 0.0, 0.0)

    def test_empty_ground_truth_is_explicit_outcome(self):
        res = hota(empty_hyp(), perfect_hyp())
        assert res.hota is None

    def test_swap_fixture_matches_independent_oracle(self):
        gt, hyp = perfect_gt(), swap_hyp()
        ours = hota(gt, hyp)
        ref_hota, ref_deta, ref_assa = hota_oracle(
            as_records(gt), as_records(hyp), HOTA_ALPHAS
        )
        assert ours.hota == pytest.approx(ref_hota, abs=1e-9)
        assert ours.deta == pytest.approx(ref_deta, abs=1e-9)
        assert ours.assa == pytest.approx(ref_assa, abs=1e-9)

    def test_half_fixture_matches_independent_oracle(self):
        gt, hyp = perfect_gt(), half_hyp()
        ours = hota(gt, hyp)
        ref = hota_oracle(as_records(gt), as_records(hyp), HOTA_ALPHAS)
        assert ours.hota == pytest.approx(ref[0], abs=1e-9)


def _relabel(ts: TrajectorySet, mapping) -> TrajectorySet:
    out = TrajectorySet()
    for frame, ident, box in ts.records():
        out.add(frame, mapping[ident], box)
    return out


class TestPermutationInvariance:
    @pytest.mark.parametrize("make_hyp", [perfect_hyp, swap_hyp, half_hyp])
    def test_relabeling_hypothesis_changes_nothing(self, make_hyp):
        gt = perfect_gt()
        hyp = make_hyp()
        relabeled = _relabel(hyp, {101: 7007, 102: 3})
        for a, b in [
            (clear_metrics(gt, hyp), clear_metrics(gt, relabeled)),
            (identity_metrics(gt, hyp), identity_metrics(gt, relabeled)),
            (hota(gt, hyp), hota(gt, relabeled)),
        ]:
            assert a == b


class TestMonotonicitySmoke:
    @pytest.mark.parametrize("make_hyp", [perfect_hyp, half_hyp])
    def test_deleting_a_correct_box_never_raises_idf1(self, make_hyp):
        # the swap fixture is excluded: its two optimal identity mappings tie,
        # so a single deletion can leave IDTP intact while shrinking the
        # denominator, which raises IDF1
        gt = perfect_gt()
        hyp = make_hyp()
        base = identity_metrics(gt, hyp).idf1
        records = list(hyp.records())
        for skip in range(len(records)):
            reduced = TrajectorySet.from_records(
                r for i, r in enumerate(records) if i != skip
            )
            assert identity_metrics(gt, reduced).idf1 <= base + 1e-12


class TestEvalReport:
    def test_report_fields_and_formats(self):
        report = evaluate(perfect_gt(), swap_hyp())
        assert report.mota == pytest.approx(0.9)
        assert report.ids == 2
        assert report.total_gt == 20
        kv = dict(line.split("=") for line in report.as_kv_lines())
        assert set(kv) == {"mota", "idf1", "idp", "idr", "ids", "fp", "fn", "hota", "deta", "assa"}
        assert float(kv["idf1"]) == pytest.approx(0.5)
        table = report.as_table()
        assert "MOTA" in table and "HOTA" in table

    def test_no_ground_truth_prints_na(self):
        report = evaluate(empty_hyp(), perfect_hyp())
        assert "mota=na" in report.as_kv_lines()

    def test_skip_hota(self):
        report = evaluate(perfect_gt(), perfect_hyp(), with_hota=False)
        assert report.hota is None
        assert report.mota == 1.0


# ---------------------------------------------------------------------------
# Shared per-frame evaluation against the per-metric loops

_FRAME = st.integers(1, 12)
_ID = st.integers(1, 5)
# Small integer boxes overlap often, with exact rational IoUs.
_GRID_BOX = st.builds(
    BoundingBox,
    st.integers(0, 8).map(float),
    st.integers(0, 4).map(float),
    st.integers(1, 6).map(float),
    st.integers(1, 4).map(float),
)


def _put(ts: TrajectorySet, frame: int, identity: int, box: BoundingBox) -> None:
    if identity not in ts.at(frame):
        ts.add(frame, identity, box)


@st.composite
def _trajectory_pairs(draw):
    """Random GT/hypothesis sets: frames and ids in either set alone, ids
    that start late, hypothesis copies of GT boxes (IoU exactly 1) and
    pairs whose IoU is exactly k/20 (0.5 and every HOTA alpha)."""
    gt, hyp = TrajectorySet(), TrajectorySet()
    for frame, g, box in draw(st.lists(st.tuples(_FRAME, _ID, _GRID_BOX), max_size=30)):
        _put(gt, frame, g, box)
    for frame, h, box in draw(st.lists(st.tuples(_FRAME, _ID, _GRID_BOX), max_size=30)):
        _put(hyp, frame, 100 + h, box)
    for frame, _g, box in list(gt.records()):
        if draw(st.booleans()):
            _put(hyp, frame, 100 + draw(_ID), box)
    ratio_pairs = st.tuples(_FRAME, _ID, _ID, st.integers(1, 20))
    for frame, g, h, k in draw(st.lists(ratio_pairs, max_size=8)):
        # (x, 50, 20, 1) against (x, 50, k, 1): intersection k, union 20.
        x = 100.0 + 40.0 * g
        _put(gt, frame, g, BoundingBox(x, 50.0, 20.0, 1.0))
        _put(hyp, frame, 100 + h, BoundingBox(x, 50.0, float(k), 1.0))
    return gt, hyp


def _dense_pair(rng):
    """GT and hypothesis sets of 3-5 frames of 9-40 boxes each, all piled on
    one small area: IoU rows long enough for numpy's pairwise summation, and
    mostly non-zero. Frame 1 has one hypothesis, whose column is as long."""
    gt, hyp = [], []
    for frame in range(1, int(rng.integers(3, 6)) + 1):
        for records, base in ((gt, 0), (hyp, 100)):
            n = 1 if (frame, base) == (1, 100) else int(rng.integers(9, 41))
            for ident in rng.permutation(48)[:n]:
                x, y = rng.uniform(0.0, 30.0, 2)
                w, h = rng.uniform(20.0, 60.0, 2)
                records.append((frame, base + int(ident), BoundingBox(x, y, w, h)))
    return TrajectorySet.from_records(gt), TrajectorySet.from_records(hyp)


def _loop_report(gt, hyp, iou_threshold) -> EvalReport:
    mota, fp, fn, ids, total_gt = clear_loop_oracle(gt, hyp, iou_threshold)
    idf1, idp, idr, _idtp = identity_loop_oracle(gt, hyp, iou_threshold)
    h, deta, assa = hota_loop_oracle(gt, hyp, HOTA_ALPHAS)
    return EvalReport(
        mota=mota, idf1=idf1, idp=idp, idr=idr, ids=ids, fp=fp, fn=fn,
        hota=h, deta=deta, assa=assa, total_gt=total_gt, total_hyp=hyp.total_boxes(),
    )


def _assert_equals_loops(gt, hyp, iou_threshold):
    assert evaluate(gt, hyp, iou_threshold) == _loop_report(gt, hyp, iou_threshold)
    # Called alone, each family builds its own frame table.
    assert astuple(clear_metrics(gt, hyp, iou_threshold)) == clear_loop_oracle(
        gt, hyp, iou_threshold
    )
    assert astuple(identity_metrics(gt, hyp, iou_threshold)) == identity_loop_oracle(
        gt, hyp, iou_threshold
    )
    assert astuple(hota(gt, hyp)) == hota_loop_oracle(gt, hyp, HOTA_ALPHAS)


class TestSharedFrameTableDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_trajectory_pairs(), st.sampled_from((0.5, 0.05, 0.25, 0.75, 0.95)))
    def test_evaluate_equals_per_metric_loops(self, pair, iou_threshold):
        gt, hyp = pair
        _assert_equals_loops(gt, hyp, iou_threshold)

    @pytest.mark.parametrize("make_hyp", [perfect_hyp, swap_hyp, half_hyp, empty_hyp])
    def test_fixtures_equal_per_metric_loops(self, make_hyp):
        _assert_equals_loops(perfect_gt(), make_hyp(), 0.5)

    @pytest.mark.parametrize("seed", range(24))
    def test_dense_frames_equal_per_metric_loops(self, seed):
        gt, hyp = _dense_pair(np.random.default_rng(seed))
        _assert_equals_loops(gt, hyp, (0.05, 0.25, 0.5, 0.75)[seed % 4])

    @pytest.mark.parametrize("seed", range(24))
    def test_dense_frames_potential_equals_per_frame_loop(self, seed):
        # HOTA's outputs see the potential only through each frame's
        # matching, so an ulp of difference in it rarely shows there.
        gt, hyp = _dense_pair(np.random.default_rng(seed))
        got = metrics._potential(_frame_table(gt, hyp))
        assert got.tobytes() == hota_potential_loop_oracle(gt, hyp).tobytes()

    def test_dense_frames_have_sums_that_depend_on_order(self):
        # The inputs above check the order of the potential's row and column
        # sums only if summing some row, and some one-hypothesis column, left
        # to right rounds differently from numpy.
        sims = [sim for seed in range(24)
                for _g, _h, sim in _frame_table(*_dense_pair(np.random.default_rng(seed))).per_frame()]
        rows = [row for sim in sims if sim.shape[1] > 1 for row in sim]
        columns = [sim[:, 0] for sim in sims if sim.shape[1] == 1]
        assert min(map(len, rows + columns)) >= 9
        for runs in (rows, columns):
            assert sum(sum(run.tolist()) != run.sum() for run in runs) > len(runs) // 4

    def test_frames_in_one_set_only_and_late_ids(self):
        gt = TrajectorySet.from_records(
            [(f, 1, gt_box(1, f)) for f in range(1, 7)]
            + [(f, 2, gt_box(2, f)) for f in range(5, 11)]
        )
        hyp = TrajectorySet.from_records(
            [(f, 101, gt_box(1, f)) for f in range(3, 9)]
            + [(f, 109, gt_box(2, f)) for f in range(8, 14)]
        )
        _assert_equals_loops(gt, hyp, 0.5)
        _assert_equals_loops(hyp, gt, 0.5)

    def test_iou_exactly_on_threshold_and_alphas(self):
        gt, hyp = TrajectorySet(), TrajectorySet()
        for k in range(1, 21):
            gt.add(k, 1, BoundingBox(0.0, 0.0, 20.0, 1.0))
            hyp.add(k, 101, BoundingBox(0.0, 0.0, float(k), 1.0))
        assert clear_metrics(gt, hyp).fp == 9  # IoU k/20 >= 0.5 from k = 10 on
        _assert_equals_loops(gt, hyp, 0.5)

    def test_persistence_at_exactly_the_threshold(self):
        # gt 1 keeps hyp 101 at IoU exactly 0.5 although 102 overlaps fully.
        box = BoundingBox(0.0, 0.0, 20.0, 1.0)
        gt = TrajectorySet.from_records([(1, 1, box), (2, 1, box)])
        hyp = TrajectorySet.from_records([
            (1, 101, box),
            (2, 101, BoundingBox(0.0, 0.0, 10.0, 1.0)),
            (2, 102, box),
        ])
        res = clear_metrics(gt, hyp)
        assert (res.ids, res.fp, res.fn) == (0, 1, 0)
        _assert_equals_loops(gt, hyp, 0.5)

    def test_contested_persistence_goes_to_the_lower_gt_id(self):
        # gts 1 and 2 both last matched hyp 101; in frame 3 (gt 2 inserted
        # first) gt 1 keeps it, and gt 2 cannot take 102 (IoU 0.43).
        g1, g2 = BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(2.0, 0.0, 10.0, 10.0)
        h1, h2 = BoundingBox(1.0, 0.0, 10.0, 10.0), BoundingBox(-2.0, 0.0, 10.0, 10.0)
        gt = TrajectorySet.from_records([(1, 1, g1), (2, 2, g2), (3, 2, g2), (3, 1, g1)])
        hyp = TrajectorySet.from_records([(1, 101, h1), (2, 101, h1), (3, 101, h1), (3, 102, h2)])
        res = clear_metrics(gt, hyp)
        assert (res.ids, res.fp, res.fn) == (0, 1, 1)
        _assert_equals_loops(gt, hyp, 0.5)


# ---------------------------------------------------------------------------
# Metric invariants on random trajectories


@st.composite
def _disjoint_trajectories(draw):
    """Non-empty GT where every identity keeps its own 100 px column, so no
    two boxes of one frame overlap; each track spans a contiguous range."""
    gt = TrajectorySet()
    n_ids = draw(st.integers(1, 5))
    for identity in range(1, n_ids + 1):
        first = draw(st.integers(1, 15))
        last = draw(st.integers(first, 20))
        for frame in range(first, last + 1):
            box = BoundingBox(
                100.0 * identity + draw(st.floats(0.0, 40.0)),
                draw(st.floats(0.0, 40.0)),
                draw(st.floats(1.0, 50.0)),
                draw(st.floats(1.0, 50.0)),
            )
            gt.add(frame, identity, box)
    return gt


class TestMetricInvariants:
    @settings(max_examples=100, deadline=None)
    @given(_disjoint_trajectories())
    def test_perfect_hypothesis_scores_one(self, gt):
        hyp = _relabel(gt, {g: 500 + g for g in gt.identities()})
        report = evaluate(gt, hyp)
        assert (report.mota, report.idf1, report.hota) == (1.0, 1.0, 1.0)
        assert (report.ids, report.fp, report.fn) == (0, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(_disjoint_trajectories(), st.data())
    def test_relabelling_a_track_from_frame_k_adds_one_switch(self, gt, data):
        spans = {g: [f for f, i, _ in gt.records() if i == g] for g in gt.identities()}
        movable = sorted(g for g, frames in spans.items() if len(frames) > 1)
        assume(movable)
        target = data.draw(st.sampled_from(movable))
        k = data.draw(st.sampled_from(spans[target][1:]))
        hyp = TrajectorySet.from_records(
            (f, 999 if (i == target and f >= k) else i, box) for f, i, box in gt.records()
        )
        res = clear_metrics(gt, hyp)
        assert (res.ids, res.fp, res.fn) == (1, 0, 0)


# ---------------------------------------------------------------------------
# The frame table against a per-frame iou_matrix loop


def _assert_table_equals_loop(gt, hyp):
    table = _frame_table(gt, hyp)
    assert table.g_ids.tolist() == gt.identities()
    assert table.h_ids.tolist() == hyp.identities()
    want = frame_table_loop_oracle(gt, hyp)
    # Read through the per-frame view that CLEAR iterates.
    got = list(table.per_frame())
    assert len(got) == len(want)
    for (gids, hids, sim), (want_g, want_h, want_sim) in zip(got, want):
        assert gids.tolist() == want_g
        assert hids.tolist() == want_h
        assert sim.shape == want_sim.shape
        assert sim.tobytes() == want_sim.tobytes()
    # The flat pair columns behind the view, frame by frame.
    n_h = len(table.h_ids)
    assert table.pair_lo[-1] == len(table.sim) == len(table.cell) == len(table.hrow)
    for k, (want_g, want_h, _sim) in enumerate(want):
        p0, p1 = table.pair_lo[k], table.pair_lo[k + 1]
        assert table.cell[p0:p1].tolist() == [g * n_h + h for g in want_g for h in want_h]
        assert table.hrow[p0:p1].tolist() == [table.h_lo[k] + j for _g in want_g for j in range(len(want_h))]


def _random_set(rng, sizes, id_base=0) -> TrajectorySet:
    ts = TrajectorySet()
    for frame, n in sizes:
        for ident in rng.permutation(3 * n)[:n]:
            x, y = rng.uniform(0.0, 100.0, 2)
            w, h = rng.uniform(5.0, 50.0, 2)
            ts.add(frame, id_base + int(ident), BoundingBox(x, y, w, h))
    return ts


class TestFrameTable:
    @settings(max_examples=200, deadline=None)
    @given(_trajectory_pairs(), st.sampled_from((1, 2, 7, metrics._PAIR_BLOCK)))
    def test_rows_equal_per_frame_iou_matrix(self, pair, block):
        # Small blocks put block boundaries inside these small inputs.
        with mock.patch.object(metrics, "_PAIR_BLOCK", block):
            _assert_table_equals_loop(*pair)

    def test_empty_sets_and_frames_in_one_set_only(self):
        assert list(_frame_table(TrajectorySet(), TrajectorySet()).per_frame()) == []
        rng = np.random.default_rng(3)
        gt = _random_set(rng, [(1, 3), (2, 2), (3, 4)])
        hyp = _random_set(rng, [(3, 2), (4, 3), (6, 1)], id_base=100)
        for a, b in [(gt, TrajectorySet()), (TrajectorySet(), hyp), (gt, hyp), (hyp, gt)]:
            _assert_table_equals_loop(a, b)
        rows = _frame_table(gt, hyp).per_frame()
        assert [sim.shape for _g, _h, sim in rows] == [(3, 0), (2, 0), (4, 2), (0, 3), (0, 1)]

    def test_inputs_crossing_block_boundaries(self):
        rng = np.random.default_rng(11)
        # 34 frames of 25 x 25 pairs, and one frame whose 130 x 130 pairs
        # alone exceed a block.
        sizes = [25] * 20 + [130] + [25] * 14
        gt = _random_set(rng, list(enumerate(sizes, start=1)))
        hyp = _random_set(rng, list(enumerate(sizes, start=1)), id_base=1000)
        assert 130 * 130 > metrics._PAIR_BLOCK
        assert sum(n * n for n in sizes) > 2 * metrics._PAIR_BLOCK
        _assert_table_equals_loop(gt, hyp)
