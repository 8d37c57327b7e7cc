"""Benchmark metrics: AO/SR, TPR/TNR/GM with ROC-AUC, long-term P/R/F, J stats.

All functions take a predicted track (entries with frame, detection,
present flag) and a groundtruth sequence aligned by frame index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .pyramid import BoundingBox, Mask, box_iou, mask_iou

__all__ = [
    "GroundtruthFrame",
    "GroundtruthSequence",
    "box_iou",
    "mask_iou",
    "average_overlap",
    "oxuva_rates",
    "geometric_mean",
    "roc_auc",
    "roc_curve",
    "trapezoid_auc",
    "longterm_prf",
    "f_measure",
    "davis_j",
]


@dataclass(frozen=True)
class GroundtruthFrame:
    frame: int
    present: bool
    box: Optional[BoundingBox] = None
    mask: Optional[Mask] = None

    def __post_init__(self):
        if self.present and self.box is None:
            raise InvalidInputError(f"frame {self.frame}: present groundtruth needs a box")


@dataclass
class GroundtruthSequence:
    frames: list[GroundtruthFrame] = field(default_factory=list)

    def __post_init__(self):
        idx = [f.frame for f in self.frames]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidInputError("groundtruth frames must be strictly increasing")

    def __iter__(self):
        return iter(self.frames)

    def __len__(self):
        return len(self.frames)


def _aligned(track, gt: GroundtruthSequence):
    pred = {e.frame: e for e in track}
    pairs = []
    for g in gt:
        if g.frame not in pred:
            raise InvalidInputError(f"track is missing frame {g.frame}")
        pairs.append((pred[g.frame], g))
    return pairs


def _frame_overlap(entry, g: GroundtruthFrame) -> float:
    if g.box is None:
        return 0.0
    return box_iou(entry.detection.box, g.box)


def _aligned_arrays(track, gt: GroundtruthSequence):
    """(confidence, overlap, gt-present) arrays with one element per groundtruth frame."""
    pairs = _aligned(track, gt)
    confidence = np.array([e.detection.confidence for e, _ in pairs], dtype=float)
    overlap = np.array([_frame_overlap(e, g) for e, g in pairs], dtype=float)
    present = np.array([g.present for _, g in pairs], dtype=bool)
    return confidence, overlap, present


def _distinct_sorted(values) -> np.ndarray:
    """Distinct values in ascending order.

    Not `np.unique`: on numpy 2.x that lazily imports `numpy.ma`, which costs
    about 2 MB of resident memory for nothing here.
    """
    v = np.sort(np.asarray(values, dtype=float))
    first = np.ones(v.size, dtype=bool)
    first[1:] = v[1:] != v[:-1]
    return v[first]


def _check_rates_defined(pos: int, neg: int) -> None:
    if pos == 0:
        raise UndefinedMetricError("TPR undefined: no groundtruth-present frames")
    if neg == 0:
        raise UndefinedMetricError("TNR undefined: no groundtruth-absent frames")


def average_overlap(track, gt: GroundtruthSequence, sr_threshold: float = 0.5) -> tuple[float, float]:
    """GOT-style (AO, SR): mean overlap and success rate over gt-present frames."""
    overlaps = [
        _frame_overlap(e, g) for e, g in _aligned(track, gt) if g.present
    ]
    if not overlaps:
        raise UndefinedMetricError("no groundtruth-present frames")
    ao = float(np.mean(overlaps))
    sr = float(np.mean([o > sr_threshold for o in overlaps]))
    return ao, sr


def oxuva_rates(
    track, gt: GroundtruthSequence, theta: float, iou_threshold: float = 0.5
) -> tuple[float, float]:
    """(TPR, TNR) at confidence threshold theta.

    A frame is predicted present when confidence >= theta. TPR additionally
    requires localization (overlap above iou_threshold).
    """
    tp = pos = tn = neg = 0
    for e, g in _aligned(track, gt):
        predicted_present = e.detection.confidence >= theta
        if g.present:
            pos += 1
            if predicted_present and _frame_overlap(e, g) > iou_threshold:
                tp += 1
        else:
            neg += 1
            if not predicted_present:
                tn += 1
    _check_rates_defined(pos, neg)
    return tp / pos, tn / neg


def geometric_mean(tpr: float, tnr: float) -> float:
    if not (0 <= tpr <= 1 and 0 <= tnr <= 1):
        raise InvalidInputError("rates must lie in [0, 1]")
    return math.sqrt(tpr * tnr)


def roc_curve(
    track, gt: GroundtruthSequence, iou_threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """(FPR, TPR) points, one per confidence threshold, sorted as (FPR, TPR) pairs.

    The thresholds are 0, every distinct confidence in `track` (frames the
    groundtruth lacks included) and one just above max(confidence) + 1. At
    each threshold theta the rates are `oxuva_rates(track, gt, theta,
    iou_threshold)`: a frame is predicted present when confidence >= theta.
    Equal points are kept, so a confidence of exactly 0 gives two of them.

    Costs O(N log N) in the track length: the track is aligned and sorted
    once, and the counts at every threshold come from binary searches.
    """
    confidence, overlap, present = _aligned_arrays(track, gt)
    pos = int(present.sum())
    neg = present.size - pos
    _check_rates_defined(pos, neg)
    distinct = _distinct_sorted([e.detection.confidence for e in track])
    top = distinct[-1] if distinct.size else 0.0
    thetas = np.concatenate(([0.0], distinct, [np.nextafter(top + 1, np.inf)]))
    # confidences of the frames that count as true positives when predicted
    # present, and of the absent frames; both ascending
    hits = np.sort(confidence[present & (overlap > iou_threshold)])
    absent = np.sort(confidence[~present])
    tp = hits.size - np.searchsorted(hits, thetas, side="left")
    tn = np.searchsorted(absent, thetas, side="left")
    tpr = tp / pos
    fpr = 1.0 - tn / neg
    order = np.lexsort((tpr, fpr))
    return fpr[order], tpr[order]


def trapezoid_auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under a TPR-vs-FPR curve whose points are in FPR order (trapezoid rule).

    The rule is computed inline because numpy's trapezoid helper has no single
    name across the declared `numpy>=1.24` range; inline, the result is the
    same on every supported numpy.
    """
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))


def roc_auc(track, gt: GroundtruthSequence, iou_threshold: float = 0.5) -> float:
    """Area under `roc_curve`'s points, by `trapezoid_auc`."""
    return trapezoid_auc(*roc_curve(track, gt, iou_threshold))


def f_measure(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def longterm_prf(track, gt: GroundtruthSequence) -> tuple[float, float, float, float]:
    """Long-term (P, R, F, theta) at the confidence threshold maximizing F.

    The thresholds are the distinct confidences of the frames aligned to the
    groundtruth, and a frame is predicted present when confidence >= theta.
    P(theta) averages overlap over every frame predicted present, absent
    frames included (they score their groundtruth box's overlap if they carry
    one, else zero). R(theta) averages overlap over gt-present frames, scoring
    zero where the tracker reports absence. Of the thresholds that attain the
    maximal F, the smallest is returned.

    Costs O(N log N) in the track length: the frames are sorted by confidence
    once, and P and R at every threshold come from cumulative sums.
    """
    confidence, overlap, present = _aligned_arrays(track, gt)
    n_present = int(present.sum())
    if n_present == 0:
        raise UndefinedMetricError("no groundtruth-present frames")
    order = np.argsort(-confidence)
    c = confidence[order]
    sum_pred = np.cumsum(overlap[order])
    sum_present = np.cumsum(np.where(present, overlap, 0.0)[order])
    # the last index of each run of equal confidences: predicting present at
    # that confidence predicts the whole prefix up to there
    ends = np.flatnonzero(np.append(c[1:] != c[:-1], True))[::-1]
    p = sum_pred[ends] / (ends + 1)
    r = sum_present[ends] / n_present
    # p + r == 0 only where p == r == 0, so F is 0 there as in `f_measure`
    f = 2 * p * r / np.where(p + r == 0, 1.0, p + r)
    best = int(np.argmax(f))
    return float(p[best]), float(r[best]), float(f[best]), float(c[ends[best]])


def davis_j(
    track_masks: Sequence[Mask], gt_masks: Sequence[Mask]
) -> tuple[float, float, float]:
    """DAVIS region statistics: (J-mean, J-recall, J-decay).

    Decay is the mean J over the first temporal quartile minus the mean
    over the last quartile.
    """
    if len(track_masks) != len(gt_masks):
        raise InvalidInputError("predicted and groundtruth mask counts differ")
    if len(track_masks) < 4:
        raise UndefinedMetricError("decay needs at least 4 frames")
    js = np.array([mask_iou(p, g) for p, g in zip(track_masks, gt_masks)])
    quartiles = np.array_split(js, 4)
    j_mean = float(js.mean())
    j_recall = float(np.mean(js > 0.5))
    j_decay = float(quartiles[0].mean() - quartiles[3].mean())
    return j_mean, j_recall, j_decay
