"""Benchmark metrics: AO/SR, TPR/TNR/GM with ROC-AUC, long-term P/R/F, J stats.

Tracks and groundtruth are scored as columns: `TrackColumns`, which
`tracker.run_track` returns and `container` reads and writes, and
`GroundtruthColumns`, which `container` reads and `from_groundtruth` makes
from objects. The box protocols (GOT, OxUvA, LTB35) read one `AlignedTable`,
which `align` builds: the track joined to its groundtruth by frame, with one
row of confidence, overlap and presence per groundtruth frame. `align_masks`
joins the masks the same way for `davis_j`, which takes per-frame masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .pyramid import BoundingBox, Mask, box_iou, box_iou_rows, mask_iou

__all__ = [
    "GroundtruthFrame",
    "GroundtruthSequence",
    "TrackColumns",
    "GroundtruthColumns",
    "AlignedTable",
    "align",
    "align_masks",
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


@dataclass(frozen=True)
class TrackColumns:
    """A track as columns, one row per frame, frames strictly increasing."""

    frame: np.ndarray  # (N,) int64
    box: np.ndarray  # (N, 4) float64, [x, y, w, h]
    confidence: np.ndarray  # (N,) float64
    present: np.ndarray  # (N,) bool
    mask: tuple  # (N,) Mask, or None where an entry has none

    def __post_init__(self):
        if np.any(self.frame[1:] <= self.frame[:-1]):
            raise InvalidInputError("track frame indices must be strictly increasing")


@dataclass(frozen=True)
class GroundtruthColumns:
    """A groundtruth sequence as columns; `box` rows are zero where `has_box` is False."""

    frame: np.ndarray  # (M,) int64
    present: np.ndarray  # (M,) bool
    has_box: np.ndarray  # (M,) bool
    box: np.ndarray  # (M, 4) float64
    mask: tuple  # (M,) Mask, or None where a frame has none

    @classmethod
    def from_groundtruth(cls, gt) -> "GroundtruthColumns":
        frames = list(gt)
        return cls(
            np.array([g.frame for g in frames], dtype=np.int64),
            np.array([g.present for g in frames], dtype=bool),
            np.array([g.box is not None for g in frames], dtype=bool),
            np.array(
                [g.box.as_list() if g.box is not None else [0.0] * 4 for g in frames],
                dtype=np.float64,
            ).reshape(-1, 4),
            tuple(g.mask for g in frames),
        )


@dataclass(frozen=True)
class AlignedTable:
    """A track joined to its groundtruth, one row per groundtruth frame.

    `confidence` and `overlap` are the track's confidence and box IoU on each
    groundtruth frame (overlap 0 where the groundtruth has no box), `present`
    the groundtruth's presence. `track_confidence` holds every confidence in
    the track, frames the groundtruth lacks included: the ROC thresholds.
    """

    confidence: np.ndarray
    overlap: np.ndarray
    present: np.ndarray
    track_confidence: np.ndarray

    def average_overlap(self, sr_threshold: float = 0.5) -> tuple[float, float]:
        """GOT-style (AO, SR): mean overlap and success rate over gt-present frames."""
        overlaps = self.overlap[self.present]
        if not overlaps.size:
            raise UndefinedMetricError("no groundtruth-present frames")
        return float(np.mean(overlaps)), float(np.mean(overlaps > sr_threshold))

    def oxuva_rates(self, theta: float, iou_threshold: float = 0.5) -> tuple[float, float]:
        """(TPR, TNR) at confidence threshold theta.

        A frame is predicted present when confidence >= theta. TPR additionally
        requires localization (overlap above iou_threshold).
        """
        pos = int(np.count_nonzero(self.present))
        neg = self.present.size - pos
        _check_rates_defined(pos, neg)
        predicted = self.confidence >= theta
        tp = np.count_nonzero(predicted & self.present & (self.overlap > iou_threshold))
        tn = np.count_nonzero(~predicted & ~self.present)
        return int(tp) / pos, int(tn) / neg

    def roc_curve(self, iou_threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """(FPR, TPR) points, one per confidence threshold, sorted as (FPR, TPR) pairs.

        The thresholds are 0, every distinct value of `track_confidence` and
        one just above its maximum + 1. At each threshold theta the rates are
        `oxuva_rates(theta, iou_threshold)`. Equal points are kept, so a
        confidence of exactly 0 gives two of them.

        Costs O(N log N): the table is sorted once, and the counts at every
        threshold come from binary searches.
        """
        present = self.present
        pos = int(np.count_nonzero(present))
        neg = present.size - pos
        _check_rates_defined(pos, neg)
        distinct = _distinct_sorted(self.track_confidence)
        top = distinct[-1] if distinct.size else 0.0
        thetas = np.concatenate(([0.0], distinct, [np.nextafter(top + 1, np.inf)]))
        # confidences of the frames that count as true positives when predicted
        # present, and of the absent frames; both ascending
        hits = np.sort(self.confidence[present & (self.overlap > iou_threshold)])
        absent = np.sort(self.confidence[~present])
        tp = hits.size - np.searchsorted(hits, thetas, side="left")
        tn = np.searchsorted(absent, thetas, side="left")
        tpr = tp / pos
        fpr = 1.0 - tn / neg
        order = np.lexsort((tpr, fpr))
        return fpr[order], tpr[order]

    def longterm_prf(self) -> tuple[float, float, float, float]:
        """Long-term (P, R, F, theta) at the confidence threshold maximizing F.

        The thresholds are the distinct confidences of the rows, and a frame
        is predicted present when confidence >= theta. P(theta) averages
        overlap over every frame predicted present, absent frames included
        (they score their groundtruth box's overlap if they carry one, else
        zero). R(theta) averages overlap over gt-present frames, scoring zero
        where the tracker reports absence. Of the thresholds that attain the
        maximal F, the smallest is returned.

        Costs O(N log N): the rows are sorted by confidence once, and P and R
        at every threshold come from cumulative sums.
        """
        confidence, overlap, present = self.confidence, self.overlap, self.present
        n_present = int(np.count_nonzero(present))
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


def _track_rows(track: TrackColumns, gt: GroundtruthColumns) -> np.ndarray:
    """The track row of each groundtruth frame, found with one binary search.

    Raises InvalidInputError naming the first groundtruth frame the track lacks.
    """
    frame = track.frame
    row = np.searchsorted(frame, gt.frame)
    found = row < frame.size
    found[found] = frame[row[found]] == gt.frame[found]
    if not found.all():
        raise InvalidInputError(f"track is missing frame {int(gt.frame[np.argmin(found)])}")
    return row


def align(track: TrackColumns, gt: GroundtruthColumns) -> AlignedTable:
    """Join a track's boxes and confidences to its groundtruth on frame (`_track_rows`)."""
    row = _track_rows(track, gt)
    overlap = np.where(gt.has_box, box_iou_rows(track.box[row], gt.box), 0.0)
    return AlignedTable(track.confidence[row], overlap, gt.present, track.confidence)


def align_masks(track: TrackColumns, gt: GroundtruthColumns) -> tuple[list, list]:
    """(track masks, groundtruth masks), one pair per groundtruth frame, joined as `align`."""
    return [track.mask[i] for i in _track_rows(track, gt).tolist()], list(gt.mask)


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


def average_overlap(
    track: TrackColumns, gt: GroundtruthColumns, sr_threshold: float = 0.5
) -> tuple[float, float]:
    """`AlignedTable.average_overlap` of the track aligned to `gt`."""
    return align(track, gt).average_overlap(sr_threshold)


def oxuva_rates(
    track: TrackColumns, gt: GroundtruthColumns, theta: float, iou_threshold: float = 0.5
) -> tuple[float, float]:
    """`AlignedTable.oxuva_rates` of the track aligned to `gt`."""
    return align(track, gt).oxuva_rates(theta, iou_threshold)


def geometric_mean(tpr: float, tnr: float) -> float:
    if not (0 <= tpr <= 1 and 0 <= tnr <= 1):
        raise InvalidInputError("rates must lie in [0, 1]")
    return math.sqrt(tpr * tnr)


def roc_curve(
    track: TrackColumns, gt: GroundtruthColumns, iou_threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """`AlignedTable.roc_curve` of the track aligned to `gt`."""
    return align(track, gt).roc_curve(iou_threshold)


def trapezoid_auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under a TPR-vs-FPR curve whose points are in FPR order (trapezoid rule).

    The rule is computed inline because numpy's trapezoid helper has no single
    name across the declared `numpy>=1.24` range; inline, the result is the
    same on every supported numpy.
    """
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))


def roc_auc(track: TrackColumns, gt: GroundtruthColumns, iou_threshold: float = 0.5) -> float:
    """Area under `roc_curve`'s points, by `trapezoid_auc`."""
    return trapezoid_auc(*roc_curve(track, gt, iou_threshold))


def f_measure(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def longterm_prf(track: TrackColumns, gt: GroundtruthColumns) -> tuple[float, float, float, float]:
    """`AlignedTable.longterm_prf` of the track aligned to `gt`."""
    return align(track, gt).longterm_prf()


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
