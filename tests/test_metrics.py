from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack.errors import InvalidInputError, UndefinedMetricError
from fpntrack.metrics import (
    GroundtruthColumns,
    GroundtruthFrame,
    GroundtruthSequence,
    TrackColumns,
    align,
    align_masks,
    average_overlap,
    box_iou,
    davis_j,
    f_measure,
    geometric_mean,
    longterm_prf,
    mask_iou,
    oxuva_rates,
    roc_auc,
    roc_curve,
    trapezoid_auc,
)
from fpntrack.pyramid import BoundingBox, Mask, box_iou_rows
from fpntrack.synth import philox


def track_of(rows):
    """rows: list of (frame, box, confidence, present, mask or None)."""
    return TrackColumns(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1].as_list() for r in rows], dtype=np.float64).reshape(-1, 4),
        np.array([r[2] for r in rows], dtype=np.float64),
        np.array([r[3] for r in rows], dtype=bool),
        tuple(r[4] for r in rows),
    )


def make_track(records):
    """records: list of (box, confidence, present), one per frame from 0."""
    return track_of([(i, box, conf, present, None)
                     for i, (box, conf, present) in enumerate(records)])


Entry = namedtuple("Entry", "frame box confidence")


def entries(track):
    """A track's rows, one at a time, for the loop oracles."""
    return [
        Entry(f, BoundingBox(*b), c)
        for f, b, c in zip(track.frame.tolist(), track.box.tolist(), track.confidence.tolist())
    ]


def make_gt(boxes):
    """boxes: list of BoundingBox or None (absent)."""
    return GroundtruthSequence(
        [GroundtruthFrame(i, b is not None, b) for i, b in enumerate(boxes)]
    )


def columns(track, gt):
    """A track and a groundtruth sequence as the columns the metrics take."""
    return track, GroundtruthColumns.from_groundtruth(gt)


boxes_strategy = st.builds(
    BoundingBox,
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.5, 60),
    st.floats(0.5, 60),
)
# integer corners make touching edges and exact overlaps common
grid_boxes = st.one_of(
    boxes_strategy,
    st.builds(BoundingBox, st.integers(0, 8), st.integers(0, 8), st.integers(1, 8),
              st.integers(1, 8)),
)


class TestTrackColumns:
    @pytest.mark.parametrize("frames", [[0, 0, 1], [0, 2, 1]], ids=["repeated", "decreasing"])
    def test_frames_strictly_increasing(self, frames):
        box = BoundingBox(0, 0, 5, 5)
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            track_of([(f, box, 0.5, True, None) for f in frames])


class TestBoxIou:
    def test_identical(self):
        b = BoundingBox(3, 4, 10, 12)
        assert box_iou(b, b) == 1.0

    def test_disjoint(self):
        assert box_iou(BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)) == 0.0

    def test_half_shift(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 10, 10)
        assert box_iou(a, b) == pytest.approx(1 / 3)

    @given(boxes_strategy, boxes_strategy)
    def test_symmetric_and_bounded(self, a, b):
        ab = box_iou(a, b)
        assert ab == pytest.approx(box_iou(b, a))
        assert 0.0 <= ab <= 1.0

    @given(boxes_strategy)
    def test_self_iou_is_one(self, b):
        assert box_iou(b, b) == pytest.approx(1.0)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(grid_boxes, grid_boxes), min_size=1, max_size=6))
    def test_rows_equal_box_iou_bit_for_bit(self, pairs):
        a = np.array([p.as_list() for p, _ in pairs])
        b = np.array([q.as_list() for _, q in pairs])
        expected = np.array([box_iou(p, q) for p, q in pairs])
        assert box_iou_rows(a, b).tobytes() == expected.tobytes()
        # one box against every row broadcasts
        one = np.array([box_iou(p, pairs[0][1]) for p, _ in pairs])
        assert box_iou_rows(a, b[:1]).tobytes() == one.tobytes()


class TestMaskIou:
    def test_identical(self):
        arr = np.zeros((4, 4), dtype=bool)
        arr[1:3, 1:3] = True
        m = Mask.from_array(arr)
        assert mask_iou(m, m) == 1.0

    def test_complementary(self):
        arr = np.zeros((4, 4), dtype=bool)
        arr[:2] = True
        assert mask_iou(Mask.from_array(arr), Mask.from_array(~arr)) == 0.0

    def test_both_empty_is_one(self):
        empty = Mask.from_array(np.zeros((3, 3), dtype=bool))
        assert mask_iou(empty, empty) == 1.0

    def test_one_empty_is_zero(self):
        empty = Mask.from_array(np.zeros((3, 3), dtype=bool))
        full = Mask.from_array(np.ones((3, 3), dtype=bool))
        assert mask_iou(empty, full) == 0.0

    def test_canvas_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            mask_iou(
                Mask.from_array(np.zeros((2, 2), dtype=bool)),
                Mask.from_array(np.zeros((3, 3), dtype=bool)),
            )

    @given(
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    def test_rasterized_boxes_match_box_iou(self, x1, y1, w1, h1, x2, y2, w2, h2):
        # cross-oracle: on integer boxes the two IoU paths agree exactly
        a = BoundingBox(x1, y1, w1, h1)
        b = BoundingBox(x2, y2, w2, h2)
        ma = Mask.from_box(a, 40, 40)
        mb = Mask.from_box(b, 40, 40)
        assert mask_iou(ma, mb) == pytest.approx(box_iou(a, b), abs=1e-12)


class TestAverageOverlap:
    def test_hand_case(self):
        gt = make_gt([BoundingBox(0, 0, 10, 10)] * 3)
        track = make_track(
            [
                (BoundingBox(0, 0, 10, 10), 0.9, True),  # IoU 1.0
                (BoundingBox(0, 0, 10, 5), 0.9, True),  # IoU 0.5
                (BoundingBox(50, 50, 10, 10), 0.9, True),  # IoU 0.0
            ]
        )
        ao, sr = average_overlap(*columns(track, gt))
        assert ao == pytest.approx(0.5)
        assert sr == pytest.approx(1 / 3)

    def test_perfect_track(self):
        gt = make_gt([BoundingBox(i, 0, 8, 8) for i in range(5)])
        track = make_track([(BoundingBox(i, 0, 8, 8), 1.0, True) for i in range(5)])
        assert average_overlap(*columns(track, gt)) == (1.0, 1.0)

    def test_no_present_frames_undefined(self):
        gt = make_gt([None, None])
        track = make_track([(BoundingBox(0, 0, 1, 1), 0.0, False)] * 2)
        with pytest.raises(UndefinedMetricError):
            average_overlap(*columns(track, gt))

    def test_random_case_matches_bruteforce(self):
        rng = philox(99)
        gt_boxes = [
            BoundingBox(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(5, 20), rng.uniform(5, 20))
            for _ in range(50)
        ]
        pred_boxes = [
            BoundingBox(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(5, 20), rng.uniform(5, 20))
            for _ in range(50)
        ]
        track = make_track([(b, 0.5, True) for b in pred_boxes])
        gt = make_gt(gt_boxes)
        ao, sr = average_overlap(*columns(track, gt))

        # independent straightforward recomputation
        ious = []
        for p, g in zip(pred_boxes, gt_boxes):
            ix = max(0.0, min(p.x + p.w, g.x + g.w) - max(p.x, g.x))
            iy = max(0.0, min(p.y + p.h, g.y + g.h) - max(p.y, g.y))
            inter = ix * iy
            ious.append(inter / (p.w * p.h + g.w * g.h - inter))
        assert ao == pytest.approx(sum(ious) / len(ious))
        assert sr == pytest.approx(sum(1 for i in ious if i > 0.5) / len(ious))

    def test_permutation_invariant(self):
        rng = philox(4)
        boxes = [BoundingBox(rng.uniform(0, 20), 0, 5, 5) for _ in range(10)]
        preds = [BoundingBox(rng.uniform(0, 20), 0, 5, 5) for _ in range(10)]
        ao1, _ = average_overlap(
            *columns(make_track([(b, 0.5, True) for b in preds]), make_gt(boxes))
        )
        perm = list(range(10))[::-1]
        ao2, _ = average_overlap(*columns(
            make_track([(preds[i], 0.5, True) for i in perm]),
            make_gt([boxes[i] for i in perm]),
        ))
        assert ao1 == pytest.approx(ao2)


class TestOxuva:
    def test_theta_zero_perfect_track(self):
        gt = make_gt([BoundingBox(0, 0, 5, 5)] * 4 + [None])
        track = make_track(
            [(BoundingBox(0, 0, 5, 5), 0.9, True)] * 4
            + [(BoundingBox(0, 0, 5, 5), 0.0, False)]
        )
        tpr, tnr = oxuva_rates(*columns(track, gt), theta=0.0)
        assert tpr == 1.0

    def test_theta_above_max_predicts_all_absent(self):
        gt = make_gt([BoundingBox(0, 0, 5, 5), None])
        track = make_track(
            [(BoundingBox(0, 0, 5, 5), 0.9, True), (BoundingBox(0, 0, 5, 5), 0.4, True)]
        )
        tpr, tnr = oxuva_rates(*columns(track, gt), theta=1.0 + 1e-9)
        assert (tpr, tnr) == (0.0, 1.0)

    def test_localization_required_for_tpr(self):
        gt = make_gt([BoundingBox(0, 0, 10, 10)])
        track = make_track([(BoundingBox(50, 50, 10, 10), 0.9, True)])
        with pytest.raises(UndefinedMetricError):
            oxuva_rates(*columns(track, gt), theta=0.0)  # TNR undefined: no absent frames
        gt2 = make_gt([BoundingBox(0, 0, 10, 10), None])
        track2 = make_track(
            [(BoundingBox(50, 50, 10, 10), 0.9, True), (BoundingBox(0, 0, 1, 1), 0.0, False)]
        )
        tpr, _ = oxuva_rates(*columns(track2, gt2), theta=0.0)
        assert tpr == 0.0

    def test_reference_geometric_means(self):
        assert 100 * geometric_mean(0.655, 0.782) == pytest.approx(71.6, abs=0.05)
        assert 100 * geometric_mean(0.636, 0.799) == pytest.approx(71.3, abs=0.05)

    def test_gm_equal_rates(self):
        assert geometric_mean(0.42, 0.42) == pytest.approx(0.42)

    def test_gm_bounded_by_max(self):
        assert geometric_mean(0.3, 0.8) <= 0.8


class TestRocAuc:
    def _separable_track(self):
        gt = make_gt([BoundingBox(0, 0, 5, 5)] * 5 + [None] * 5)
        records = [(BoundingBox(0, 0, 5, 5), 0.9, True)] * 5 + [
            (BoundingBox(0, 0, 5, 5), 0.1, False)
        ] * 5
        return make_track(records), gt

    def test_perfect_separator_scores_one(self):
        track, gt = self._separable_track()
        assert roc_auc(*columns(track, gt)) == pytest.approx(1.0)

    def test_invariant_to_monotone_confidence_transform(self):
        rng = philox(21)
        gt = make_gt(
            [BoundingBox(0, 0, 5, 5) if i % 2 else None for i in range(20)]
        )
        confs = rng.uniform(0.05, 0.95, size=20)
        base = make_track(
            [
                (BoundingBox(0, 0, 5, 5), float(c), True)
                for c in confs
            ]
        )
        squashed = make_track(
            [
                (BoundingBox(0, 0, 5, 5), float(c) ** 3, True)
                for c in confs
            ]
        )
        assert roc_auc(*columns(base, gt)) == pytest.approx(roc_auc(*columns(squashed, gt)))

    def test_hand_computed_area(self):
        # present frames at 0.9 and 0.3, absent frames at 0.5 and 0.1: three
        # of the four (present, absent) pairs are ranked correctly, so the
        # Mann-Whitney reading of ROC-AUC gives 3/4
        box = BoundingBox(0, 0, 5, 5)
        gt = make_gt([box, None, box, None])
        track = make_track(
            [(box, 0.9, True), (box, 0.5, True), (box, 0.3, True), (box, 0.1, True)]
        )
        assert roc_auc(*columns(track, gt)) == pytest.approx(0.75)


class TestLongtermPrf:
    def test_reference_f_measures(self):
        # the reference P and R are rounded to one decimal; propagating that
        # rounding through the harmonic mean moves F by up to ~0.05, so the
        # first check gets a correspondingly wider band
        assert 100 * f_measure(0.645, 0.468) == pytest.approx(54.3, abs=0.1)
        assert 100 * f_measure(0.612, 0.612) == pytest.approx(61.2, abs=0.05)

    def test_equal_p_r_gives_f_equal(self):
        assert f_measure(0.4, 0.4) == pytest.approx(0.4)

    def test_perfect_track_scores_one(self):
        gt = make_gt([BoundingBox(0, 0, 5, 5)] * 4)
        track = make_track([(BoundingBox(0, 0, 5, 5), 0.9, True)] * 4)
        p, r, f, _ = longterm_prf(*columns(track, gt))
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_reported_threshold_maximizes_f(self):
        rng = philox(8)
        gt = make_gt(
            [BoundingBox(0, 0, 10, 10) if rng.uniform() > 0.3 else None for _ in range(30)]
        )
        track = make_track(
            [
                (
                    BoundingBox(float(rng.uniform(0, 6)), 0, 10, 10),
                    float(rng.uniform()),
                    True,
                )
                for _ in range(30)
            ]
        )
        p, r, f, theta = longterm_prf(*columns(track, gt))
        pairs = list(zip(entries(track), gt))
        for other_theta in {e.confidence for e, _ in pairs}:
            preds = [
                box_iou(e.box, g.box) if g.present else 0.0
                for e, g in pairs
                if e.confidence >= other_theta
            ]
            if not preds:
                continue
            op = float(np.mean(preds))
            orr = sum(
                box_iou(e.box, g.box)
                for e, g in pairs
                if g.present and e.confidence >= other_theta
            ) / sum(1 for _, g in pairs if g.present)
            assert f >= f_measure(op, orr) - 1e-12


def _aligned(track, gt):
    """Reference alignment: (entry, groundtruth frame) pairs."""
    pred = {e.frame: e for e in entries(track)}
    pairs = []
    for g in gt:
        if g.frame not in pred:
            raise InvalidInputError(f"track is missing frame {g.frame}")
        pairs.append((pred[g.frame], g))
    return pairs


def _frame_overlap(entry, g):
    if g.box is None:
        return 0.0
    return box_iou(entry.box, g.box)


def loop_aligned_arrays(track, gt):
    """Reference aligned table: (confidence, overlap, gt-present), one pair at a time."""
    pairs = _aligned(track, gt)
    confidence = np.array([e.confidence for e, _ in pairs], dtype=float)
    overlap = np.array([_frame_overlap(e, g) for e, g in pairs], dtype=float)
    present = np.array([g.present for _, g in pairs], dtype=bool)
    return confidence, overlap, present


def loop_average_overlap(track, gt, sr_threshold=0.5):
    overlaps = [_frame_overlap(e, g) for e, g in _aligned(track, gt) if g.present]
    if not overlaps:
        raise UndefinedMetricError("no groundtruth-present frames")
    ao = float(np.mean(overlaps))
    sr = float(np.mean([o > sr_threshold for o in overlaps]))
    return ao, sr


def loop_oxuva_rates(track, gt, theta, iou_threshold=0.5):
    tp = pos = tn = neg = 0
    for e, g in _aligned(track, gt):
        predicted_present = e.confidence >= theta
        if g.present:
            pos += 1
            if predicted_present and _frame_overlap(e, g) > iou_threshold:
                tp += 1
        else:
            neg += 1
            if not predicted_present:
                tn += 1
    if pos == 0:
        raise UndefinedMetricError("TPR undefined: no groundtruth-present frames")
    if neg == 0:
        raise UndefinedMetricError("TNR undefined: no groundtruth-absent frames")
    return tp / pos, tn / neg


def loop_roc_curve(track, gt, iou_threshold=0.5):
    """Reference ROC: `oxuva_rates` evaluated at every threshold, O(N^2)."""
    confidences = sorted({e.confidence for e in entries(track)})
    thetas = [0.0] + confidences + [np.nextafter(max(confidences, default=0.0) + 1, np.inf)]
    points = []
    cols = columns(track, gt)
    for theta in thetas:
        tpr, tnr = oxuva_rates(*cols, theta, iou_threshold)
        points.append((1.0 - tnr, tpr))
    points.sort()
    fpr, tpr = zip(*points)
    return np.asarray(fpr), np.asarray(tpr)


def loop_longterm_prf(track, gt):
    """Reference LTB35: one scan of the frames per threshold, O(N^2).

    Returns the best (P, R, F, theta), kept with a strict `>` over ascending
    thresholds, and the F value at every threshold.
    """
    pairs = _aligned(track, gt)
    n_present = sum(1 for _, g in pairs if g.present)
    if n_present == 0:
        raise UndefinedMetricError("no groundtruth-present frames")
    thetas = sorted({e.confidence for e, _ in pairs})
    best = (0.0, 0.0, -1.0, 0.0)
    fs = []
    for theta in thetas:
        overlaps_pred = [
            _frame_overlap(e, g) for e, g in pairs if e.confidence >= theta
        ]
        p = float(np.mean(overlaps_pred))
        r = (
            sum(
                _frame_overlap(e, g)
                for e, g in pairs
                if g.present and e.confidence >= theta
            )
            / n_present
        )
        f = f_measure(p, r)
        fs.append(f)
        if f > best[2]:
            best = (p, r, f, theta)
    return best, fs


# a few confidence levels (0 among them) make ties; free floats make none
confidences_strategy = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
)
small_boxes = st.builds(
    BoundingBox,
    st.floats(0, 8),
    st.floats(0, 8),
    st.floats(4, 12),
    st.floats(4, 12),
)
frame_strategy = st.fixed_dictionaries(
    {
        "confidence": confidences_strategy,
        "pred_box": small_boxes,
        "gt_box": small_boxes,
        # 0: present; 1: absent without a box; 2: absent with a box;
        # 3: the groundtruth lacks this frame
        "kind": st.sampled_from([0, 1, 2, 3]),
    }
)


def build_sequence(frames):
    track = make_track([(f["pred_box"], f["confidence"], True) for f in frames])
    gt = GroundtruthSequence(
        [
            GroundtruthFrame(i, f["kind"] == 0, None if f["kind"] == 1 else f["gt_box"])
            for i, f in enumerate(frames)
            if f["kind"] != 3
        ]
    )
    return track, gt


def raised(fn, *args):
    try:
        return fn(*args), None
    except UndefinedMetricError as exc:
        return None, type(exc)


class TestAgainstLoopOracles:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(frame_strategy, min_size=1, max_size=60), st.sampled_from([0.0, 0.5, 0.9]))
    def test_roc_curve_matches_loop(self, frames, iou_threshold):
        track, gt = build_sequence(frames)
        got, got_exc = raised(roc_curve, *columns(track, gt), iou_threshold)
        want, want_exc = raised(loop_roc_curve, track, gt, iou_threshold)
        assert got_exc is want_exc
        if want is None:
            return
        # both count frames and divide the same integers, so the points agree
        # exactly, duplicates included
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert trapezoid_auc(*got) == pytest.approx(trapezoid_auc(*want), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(frame_strategy, min_size=1, max_size=60))
    def test_longterm_prf_matches_loop(self, frames):
        track, gt = build_sequence(frames)
        got, got_exc = raised(longterm_prf, *columns(track, gt))
        want, want_exc = raised(loop_longterm_prf, track, gt)
        assert got_exc is want_exc
        if want is None:
            return
        (p, r, f, theta), fs = want
        assert got[:3] == pytest.approx((p, r, f), abs=1e-12)
        # the two sides sum overlaps in different orders, so two thresholds
        # whose F differs by rounding alone may be ranked either way
        top = sorted(fs, reverse=True)
        if len(top) < 2 or top[0] - top[1] > 1e-12:
            assert got[3] == theta

    def test_all_present_and_all_absent(self):
        box = BoundingBox(0, 0, 5, 5)
        present = make_track([(box, 0.5, True), (box, 0.0, True)])
        gt_present = make_gt([box, box])
        gt_absent = make_gt([None, None])
        for track, gt in [(present, gt_present), (present, gt_absent)]:
            with pytest.raises(UndefinedMetricError):
                roc_curve(*columns(track, gt))
            with pytest.raises(UndefinedMetricError):
                loop_roc_curve(track, gt)
        want = loop_longterm_prf(present, gt_present)[0]
        assert longterm_prf(*columns(present, gt_present)) == want
        with pytest.raises(UndefinedMetricError):
            longterm_prf(*columns(present, gt_absent))

    def test_zero_confidence_gives_duplicate_points(self):
        # thresholds 0, 0, 0.5 and above max: the two zeros give one point twice
        box = BoundingBox(0, 0, 5, 5)
        track = make_track([(box, 0.5, True), (box, 0.0, True)])
        fpr, tpr = roc_curve(*columns(track, make_gt([box, None])))
        assert list(zip(fpr, tpr)) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)]

    def test_missing_frame_rejected(self):
        box = BoundingBox(0, 0, 5, 5)
        track = make_track([(box, 0.5, True)])
        gt = make_gt([box, None])
        for fn in (roc_curve, longterm_prf):
            with pytest.raises(InvalidInputError):
                fn(*columns(track, gt))

    def test_f_tie_reports_smallest_theta(self):
        # theta 0.9 predicts only frame 0: P = 1, R = 1/2, F = 2/3.
        # theta 0.2 predicts all four: P = 2/4, R = 2/2, F = 2/3 again.
        box = BoundingBox(0, 0, 5, 5)
        gt = make_gt([box, box, None, None])
        track = make_track([(box, 0.9, True), (box, 0.2, True), (box, 0.2, True), (box, 0.2, True)])
        assert longterm_prf(*columns(track, gt)) == (0.5, 1.0, 2 / 3, 0.2)


wide_boxes = st.one_of(
    boxes_strategy,
    # integer corners make edges touch, so iw or ih is exactly 0
    st.builds(BoundingBox, *[st.integers(-4, 4)] * 2, *[st.integers(1, 6)] * 2),
)
pair_strategy = st.fixed_dictionaries(
    {
        "confidence": confidences_strategy,
        "pred_box": wide_boxes,
        "gt_box": wide_boxes,
        "kind": st.sampled_from([0, 1, 2, 3]),
    }
)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAgainstPairLoops:
    """The aligned table and the metrics on it are bitwise equal to the per-pair loops."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(pair_strategy, min_size=0, max_size=40))
    def test_aligned_table(self, frames):
        track, gt = build_sequence(frames)
        table = align(*columns(track, gt))
        want = loop_aligned_arrays(track, gt)
        for got, w in zip((table.confidence, table.overlap, table.present), want):
            assert same_bits(got, w)
        assert same_bits(table.track_confidence, [e.confidence for e in entries(track)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(pair_strategy, min_size=1, max_size=40),
           st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), confidences_strategy)
    def test_average_overlap_and_oxuva_rates(self, frames, threshold, theta):
        track, gt = build_sequence(frames)
        for fn, loop, args in [
            (average_overlap, loop_average_overlap, (threshold,)),
            (oxuva_rates, loop_oxuva_rates, (theta, threshold)),
        ]:
            got, got_exc = raised(fn, *columns(track, gt), *args)
            want, want_exc = raised(loop, track, gt, *args)
            assert got_exc is want_exc
            assert got == want and all(same_bits(g, w) for g, w in zip(got or (), want or ()))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), confidences_strategy, small_boxes), max_size=12),
           st.lists(st.one_of(st.none(), small_boxes), min_size=1, max_size=6))
    def test_unsorted_and_repeated_frames(self, rows, boxes):
        # a track refuses frames out of order or repeated; in order, once each,
        # its frames may still leave groundtruth frames out
        rows = [(f, b, c, True, None) for f, c, b in rows]
        frames = [r[0] for r in rows]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            with pytest.raises(InvalidInputError, match="strictly increasing"):
                track_of(rows)
            rows = sorted({r[0]: r for r in rows}.values(), key=lambda r: r[0])
        track = track_of(rows)
        gt = make_gt(boxes)
        try:
            want = loop_aligned_arrays(track, gt)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=str(exc)):
                align(*columns(track, gt))
            return
        table = align(*columns(track, gt))
        for got, w in zip((table.confidence, table.overlap, table.present), want):
            assert same_bits(got, w)


class TestAlignMasks:
    def _mask(self, filled):
        arr = np.zeros((4, 4), dtype=bool)
        arr.ravel()[:filled] = True
        return Mask.from_array(arr)

    def test_masks_pair_on_frame(self):
        box = BoundingBox(0, 0, 1, 1)
        track = track_of([(f, box, 0.5, True, self._mask(m)) for f, m in [(0, 1), (2, 3), (3, 4)]])
        gt = GroundtruthSequence(
            [GroundtruthFrame(f, True, box, self._mask(10 + f)) for f in (2, 3)]
        )
        pred_masks, gt_masks = align_masks(*columns(track, gt))
        assert pred_masks == [self._mask(3), self._mask(4)]
        assert gt_masks == [self._mask(12), self._mask(13)]

    def test_missing_frame_rejected_as_by_align(self):
        box = BoundingBox(0, 0, 1, 1)
        track = track_of([(f, box, 0.5, True, self._mask(1)) for f in (1, 2)])
        gt = GroundtruthSequence([GroundtruthFrame(f, True, box, self._mask(1)) for f in (0, 1)])
        for fn in (align, align_masks):
            with pytest.raises(InvalidInputError, match="track is missing frame 0"):
                fn(*columns(track, gt))


class TestDavisJ:
    def _mask(self, filled):
        arr = np.zeros((4, 4), dtype=bool)
        arr.ravel()[:filled] = True
        return Mask.from_array(arr)

    def test_constant_overlap(self):
        # prediction covers 6 of 10 cells of gt -> J = 6/10
        gt_arr = np.zeros((4, 4), dtype=bool)
        gt_arr.ravel()[:10] = True
        pred_arr = np.zeros((4, 4), dtype=bool)
        pred_arr.ravel()[:6] = True
        gt = Mask.from_array(gt_arr)
        pred = Mask.from_array(pred_arr)
        j_mean, j_recall, j_decay = davis_j([pred] * 8, [gt] * 8)
        assert j_mean == pytest.approx(0.6)
        assert j_recall == 1.0
        assert j_decay == pytest.approx(0.0)

    def test_decaying_track_has_positive_decay(self):
        gt_full = self._mask(16)
        preds = [self._mask(16 - 2 * i) for i in range(8)]
        _, _, decay = davis_j(preds, [gt_full] * 8)
        assert decay > 0

    def test_too_few_frames_undefined(self):
        m = self._mask(4)
        with pytest.raises(UndefinedMetricError):
            davis_j([m] * 3, [m] * 3)

    def test_random_case_matches_bruteforce(self):
        rng = philox(17)
        preds, gts = [], []
        for _ in range(12):
            preds.append(Mask.from_array(rng.uniform(size=(5, 5)) > 0.5))
            gts.append(Mask.from_array(rng.uniform(size=(5, 5)) > 0.5))
        j_mean, j_recall, j_decay = davis_j(preds, gts)

        js = []
        for p, g in zip(preds, gts):
            pa, ga = p.to_array(), g.to_array()
            union = (pa | ga).sum()
            js.append((pa & ga).sum() / union if union else 1.0)
        assert j_mean == pytest.approx(np.mean(js))
        assert j_recall == pytest.approx(np.mean([j > 0.5 for j in js]))
        assert j_decay == pytest.approx(np.mean(js[:3]) - np.mean(js[-3:]))

    def test_order_sensitivity(self):
        gt_full = self._mask(16)
        preds = [self._mask(16 - 2 * i) for i in range(8)]
        _, _, decay_fwd = davis_j(preds, [gt_full] * 8)
        _, _, decay_rev = davis_j(preds[::-1], [gt_full] * 8)
        assert decay_fwd == pytest.approx(-decay_rev)
        assert decay_fwd != decay_rev
