"""Per-frame candidate selection with temporal smoothness re-ranking.

A frame's candidates are `Candidates`: box and confidence columns. Smoothing
blends each confidence with the box IoU against the previous selection:
c <- alpha * c + (1 - alpha) * iou. A break/recover state machine disables
smoothing when consecutive selections jump (IoU below alpha_low) and
re-enables it after recover_frames consecutive selections with IoU above
alpha_recover. Both read one IoU row per frame (`pyramid.box_iou_rows`).

The machine does not keep the tracker off a distractor in every case. While
the target is absent the selection jumps to the distractor, which breaks
smoothing; after recover_frames frames on the distractor smoothing is back
on, and when the target returns the distractor's overlap term outweighs the
target's higher confidence, so the selection stays on the distractor. On the
1000-frame `longterm` benchmark scene (target absent on two 100-frame
stretches) AO is about 0.35 with smoothing and 0.90 without.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .metrics import TrackColumns
from .pyramid import BoundingBox, FeaturePyramid, box_iou_rows, first_bad_box_row
from .templates import TemplateVector, build_template


@dataclass(frozen=True)
class Candidates:
    """One frame's candidates: (K, 4) float64 boxes [x, y, w, h], (K,) float64 confidences.

    Every box row passes `BoundingBox`'s checks (`pyramid.first_bad_box_row`),
    and every confidence is in [0, 1].
    """

    box: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        self._check_confidence()
        refused = first_bad_box_row(self.box)
        if refused is not None:
            raise InvalidInputError(f"candidate {refused[0]}: {refused[1]}")

    def _check_confidence(self) -> None:
        box, confidence = self.box, self.confidence
        if box.ndim != 2 or box.shape[1] != 4 or confidence.shape != box.shape[:1]:
            raise InvalidInputError(f"shapes {box.shape}, {confidence.shape} are not (K, 4), (K,)")
        bad = ~((confidence >= 0.0) & (confidence <= 1.0))
        if bad.any():
            raise InvalidInputError(f"confidence {float(confidence[bad.argmax()])} outside [0, 1]")

    def with_confidence(self, confidence) -> "Candidates":
        """These box rows, checked when they were made, with other confidences, checked now."""
        scored = object.__new__(Candidates)  # no __post_init__: the rows are not checked again
        scored.__dict__.update(box=self.box, confidence=np.asarray(confidence, dtype=np.float64))
        scored._check_confidence()
        return scored

    def __len__(self) -> int:
        return self.confidence.size


@dataclass(frozen=True)
class TrackerConfig:
    alpha: float = 0.6
    alpha_low: float = 0.1
    alpha_recover: float = 0.3
    recover_frames: int = 30
    presence_threshold: float = 0.3
    smoothing_enabled: bool = True

    def __post_init__(self):
        for name in ("alpha", "alpha_low", "alpha_recover", "presence_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"{name}={v} outside [0, 1]")
        if self.recover_frames < 1:
            raise InvalidInputError("recover_frames must be >= 1")


@dataclass(frozen=True)
class TrackerState:
    previous: Optional[tuple] = None  # the previous selection's (x, y, w, h)
    smoothing_active: bool = True
    consecutive_smooth: int = 0


def rerank(candidates: Candidates, iou: np.ndarray, alpha: float) -> np.ndarray:
    """Blend confidences with `iou`, each candidate's box IoU against the previous selection."""
    if not len(candidates):
        raise InvalidInputError("candidates must be non-empty")
    return alpha * candidates.confidence + (1.0 - alpha) * iou


def step(
    state: TrackerState, candidates: Candidates, config: TrackerConfig
) -> tuple[TrackerState, float, bool]:
    """One frame of tracking: select a candidate and advance the state machine.

    Returns the new state, whose ``previous`` is the selected box, the
    selected confidence and whether it counts as present. A frame without
    candidates is reported absent at confidence 0: the previous box, or the
    placeholder (0, 0, 1, 1) on the first frame, is carried and the smoothing state kept.
    """
    if not len(candidates):
        return replace(state, previous=state.previous or (0.0, 0.0, 1.0, 1.0)), 0.0, False

    confidence = candidates.confidence
    track_overlap = config.smoothing_enabled and state.previous is not None
    if track_overlap:
        iou = box_iou_rows(candidates.box, np.array([state.previous], dtype=np.float64))
    if track_overlap and state.smoothing_active:
        i = int(np.argmax(rerank(candidates, iou, config.alpha)))
    else:
        i = int(np.argmax(confidence))
    selected = float(confidence[i])

    smoothing_active, counter = state.smoothing_active, state.consecutive_smooth
    if track_overlap and smoothing_active and iou[i] < config.alpha_low:  # break
        smoothing_active, counter = False, 0
    elif track_overlap and not smoothing_active:  # count towards recovery
        counter = counter + 1 if iou[i] > config.alpha_recover else 0
        if counter >= config.recover_frames:
            smoothing_active, counter = True, 0
    new_state = TrackerState(tuple(candidates.box[i].tolist()), smoothing_active, counter)
    return new_state, selected, selected >= config.presence_threshold


def run_track(
    frames: Sequence[Callable[[TemplateVector], Candidates]],
    init_box: BoundingBox,
    init_pyramid: FeaturePyramid,
    config: TrackerConfig,
    template_kind: str = "ridge",
    **template_kwargs,
) -> TrackColumns:
    """Track through a sequence of frames with a first-frame template.

    Each frame is a callable taking the built template and returning scored
    `Candidates` (the pluggable candidate-detector interface). The template is
    built once from frame 0 and never updated. Row i of the track is what
    `step` selected from the i-th entry of `frames`.
    """
    if not frames:
        raise InvalidInputError("sequence must be non-empty")
    template = build_template(init_pyramid, init_box, template_kind, **template_kwargs)
    state = TrackerState()
    rows = []
    for frame in frames:
        state, confidence, present = step(state, frame(template), config)
        rows.append((state.previous, confidence, present))
    boxes, confidence, present = zip(*rows)
    return TrackColumns(
        np.arange(len(rows), dtype=np.int64),
        np.array(boxes, dtype=np.float64),
        np.array(confidence, dtype=np.float64),
        np.array(present, dtype=bool),
        (None,) * len(rows),
    )
