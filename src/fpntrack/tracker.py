"""Per-frame candidate selection with temporal smoothness re-ranking.

Smoothing blends detector confidence with overlap against the previous
selection: c <- alpha * c + (1 - alpha) * overlap. A break/recover state
machine disables smoothing when consecutive selections jump (IoU below
alpha_low) and re-enables it after recover_frames consecutive selections
with IoU above alpha_recover, so the tracker cannot latch onto a
distractor through the smoothness term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError
from .pyramid import BoundingBox, FeaturePyramid, Mask, box_iou, mask_iou
from .templates import TemplateVector, build_template


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    confidence: float
    mask: Optional[Mask] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidInputError(f"confidence {self.confidence} outside [0, 1]")


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
    previous: Optional[Detection] = None
    smoothing_active: bool = True
    consecutive_smooth: int = 0


@dataclass(frozen=True)
class TrackEntry:
    frame: int
    detection: Detection
    present: bool


@dataclass
class Track:
    entries: list[TrackEntry] = field(default_factory=list)

    def __post_init__(self):
        frames = [e.frame for e in self.entries]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise InvalidInputError("track frame indices must be strictly increasing")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def overlap(a: Detection, b: Detection) -> float:
    """Mask IoU when both detections carry masks, box IoU otherwise."""
    if a.mask is not None and b.mask is not None:
        return mask_iou(a.mask, b.mask)
    return box_iou(a.box, b.box)


def rerank(candidates: Sequence[Detection], previous: Detection, alpha: float) -> list[float]:
    """Blend confidences with overlap against the previous selection."""
    if not candidates:
        raise InvalidInputError("candidates must be non-empty")
    return [
        alpha * c.confidence + (1.0 - alpha) * overlap(c, previous) for c in candidates
    ]


def step(
    state: TrackerState, candidates: Sequence[Detection], config: TrackerConfig
) -> tuple[TrackerState, Detection, bool]:
    """One frame of tracking: select a candidate and advance the state machine.

    A frame without candidates selects nothing and is reported absent: the
    previous selection is carried over with confidence 0 and the smoothing
    state is kept. On the first frame there is no previous selection, so the
    placeholder ``Detection(BoundingBox(0, 0, 1, 1), 0.0)`` is returned and
    becomes the previous selection for the next frame.
    """
    if not candidates:
        if state.previous is not None:
            carried = replace(state.previous, confidence=0.0)
        else:
            carried = Detection(BoundingBox(0, 0, 1, 1), 0.0)
        return replace(state, previous=carried), carried, False

    use_smoothing = (
        config.smoothing_enabled and state.smoothing_active and state.previous is not None
    )
    if use_smoothing:
        scores = rerank(candidates, state.previous, config.alpha)
    else:
        scores = [c.confidence for c in candidates]
    selected = candidates[int(np.argmax(scores))]
    present = selected.confidence >= config.presence_threshold

    smoothing_active = state.smoothing_active
    counter = state.consecutive_smooth
    if config.smoothing_enabled and state.previous is not None:
        iou = overlap(selected, state.previous)
        if smoothing_active:
            if iou < config.alpha_low:
                smoothing_active = False
                counter = 0
        else:
            if iou > config.alpha_recover:
                counter += 1
                if counter >= config.recover_frames:
                    smoothing_active = True
                    counter = 0
            else:
                counter = 0
    new_state = TrackerState(
        previous=selected, smoothing_active=smoothing_active, consecutive_smooth=counter
    )
    return new_state, selected, present


FrameCandidates = Union[Sequence[Detection], Callable[[TemplateVector], Sequence[Detection]]]


def run_track(
    frames: Sequence[FrameCandidates],
    init_box: BoundingBox,
    init_pyramid: FeaturePyramid,
    config: TrackerConfig,
    template_kind: str = "ridge",
    **template_kwargs,
) -> Track:
    """Track through a sequence of candidate lists with a first-frame template.

    Each frame entry is either a pre-scored list of detections or a callable
    taking the built template and returning scored detections (the pluggable
    candidate-detector interface). The template is built once from frame 0
    and never updated.
    """
    if not frames:
        raise InvalidInputError("sequence must be non-empty")
    template = build_template(init_pyramid, init_box, template_kind, **template_kwargs)
    state = TrackerState()
    entries = []
    for i, frame in enumerate(frames):
        candidates = frame(template) if callable(frame) else frame
        state, selected, present = step(state, candidates, config)
        entries.append(TrackEntry(i, selected, present))
    return Track(entries)
