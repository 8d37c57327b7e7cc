"""Deterministic synthetic scenes standing in for a CNN backbone.

Objects are identity embeddings painted onto pyramid cells whose
receptive-field centers fall inside the object box, scaled by a separable
cosine window (1 at the box center, 0 at the edges). A frame's levels are
row-major float32 views into one array of cells, finest level first, so each
object costs one ``pyramid.in_box`` test of the cached
``pyramid.cell_centres`` of every level and one window per axis on the cells
it paints. Noise is drawn in blocks of whole cells (``BLOCK_ELEMENTS``) into
one reused float64 buffer; each block gets its painted cells (window times
identity, formed block by block) added and is cast into the float32 cells
once, so no float64 array outgrows the block.
Noise and jitter use the counter-based Philox generator keyed on
(seed, frame) so frames can be rendered in any order, or in parallel, with
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    Mask,
    cell_centres,
    centre_feature,
    finite_features,
    in_box,
)
from .rng import philox
from .tracker import Candidates

Trajectory = Callable[[int], Optional[BoundingBox]]

# float64 elements per block of cells in `render_frame`'s noise draw: 256 KB,
# 128 cells of depth 256; a cell deeper than this is a block of its own. Each
# thread of `fpntrack synth` holds a few such blocks beside its frame's cells.
BLOCK_ELEMENTS = 1 << 15


@dataclass
class SceneObject:
    identity: np.ndarray
    trajectory: Trajectory
    is_target: bool = False

    def __post_init__(self):
        self.identity = np.asarray(self.identity, dtype=np.float64)
        norm = np.linalg.norm(self.identity)
        if not math.isclose(norm, 1.0, rel_tol=1e-6):
            raise InvalidInputError(f"identity must be unit norm, got {norm}")


@dataclass
class SceneSpec:
    image_height: int
    image_width: int
    num_frames: int
    objects: list[SceneObject] = field(default_factory=list)
    noise_sigma: float = 0.0
    seed: int = 0
    levels: tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self):
        if self.num_frames < 1:
            raise InvalidInputError("num_frames must be >= 1")
        if self.noise_sigma < 0:
            raise InvalidInputError("noise_sigma must be >= 0")
        targets = [i for i, o in enumerate(self.objects) if o.is_target]
        if len(targets) > 1:
            raise InvalidInputError("at most one target object allowed")
        if self.objects and not targets:
            raise InvalidInputError("exactly one object must be the target")

    @property
    def depth(self) -> int:
        if not self.objects:
            return 8
        return int(self.objects[0].identity.size)

    @property
    def target_index(self) -> int:
        for i, o in enumerate(self.objects):
            if o.is_target:
                return i
        raise InvalidInputError("scene has no target")


def _cosine_window(coords: np.ndarray, center: float, half: float) -> np.ndarray:
    # np.clip's values, without its Python wrapper's cost on a few dozen cells
    u = np.minimum(np.maximum((coords - center) / half, -1.0), 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * u))


def render_frame(
    spec: SceneSpec, frame: int
) -> tuple[FeaturePyramid, list[Optional[BoundingBox]], list[Optional[Mask]]]:
    """Render one frame: pyramid plus per-object groundtruth boxes and masks.

    Objects later in the list occlude earlier ones. A ``None`` box means the
    object is absent in this frame.
    """
    if not 0 <= frame < spec.num_frames:
        raise InvalidInputError(f"frame {frame} outside [0, {spec.num_frames})")
    boxes = [obj.trajectory(frame) for obj in spec.objects]
    strides = tuple(2 ** lvl for lvl in spec.levels)
    shapes = tuple(
        (math.ceil(spec.image_height / s), math.ceil(spec.image_width / s)) for s in strides
    )
    cy, cx = cell_centres(shapes, strides)
    painted = _painted_cells(spec.objects, boxes, cy, cx)
    cells = np.empty((cy.size, spec.depth), dtype=np.float32)
    rng = philox(spec.seed, frame) if spec.noise_sigma > 0 else None
    _fill_cells(rng, spec.noise_sigma, painted, cells)
    maps = []
    start = 0
    for lvl, (h, w) in zip(spec.levels, shapes):
        maps.append(FeatureMap(lvl, cells[start : start + h * w].reshape(h, w, spec.depth)))
        start += h * w
    pyramid = FeaturePyramid(
        maps, image_height=spec.image_height, image_width=spec.image_width
    )
    masks = [
        Mask.from_box(b, spec.image_height, spec.image_width) if b is not None else None
        for b in boxes
    ]
    return pyramid, boxes, masks


def _painted_cells(objects, boxes, cy, cx) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The cells each visible object paints: ascending indices, their (n,)
    cosine window and the object's (D,) identity.

    An object paints the cells whose centres its box holds, less those of the
    objects after it, which occlude it, with its identity times its cosine
    window. No cell is painted twice.
    """
    painted = []
    covered = np.zeros(cy.size, dtype=bool)
    for obj, box in zip(reversed(objects), reversed(boxes)):
        if box is None:
            continue
        inside = in_box(cy, cx, box)
        rows = np.flatnonzero(inside & ~covered)
        covered |= inside
        if rows.size:
            fy = _cosine_window(cy[rows], box.cy, box.h / 2)
            fx = _cosine_window(cx[rows], box.cx, box.w / 2)
            painted.append((rows, fy * fx, obj.identity))
    return painted


def _fill_cells(rng, sigma: float, painted, cells: np.ndarray) -> None:
    """Fill the float32 ``cells`` with N(0, sigma) noise plus the painted cells.

    The cells are filled in blocks of whole cells through one reused float64
    buffer, in cell order. With sigma > 0 the normals are drawn into it, so
    the Philox stream is the one a single ``rng.normal(0.0, sigma,
    size=cells.shape)`` draws; scaling by sigma and adding 0.0 is what
    ``normal`` computes per draw, and the block's painted cells are added.
    With sigma = 0 they are assigned, not added to 0.0, so a -0.0 window
    product keeps its sign. Each painted cell's features (window times
    identity) are formed within its block, and the block is cast to float32
    once, so no float64 array outgrows the buffer.
    """
    n, depth = cells.shape
    step = max(1, BLOCK_ELEMENTS // depth)
    buf = np.empty((min(step, n), depth))
    starts = range(0, n, step)
    bounds = np.array([*starts, n])
    cuts = [np.searchsorted(rows, bounds) for rows, _, _ in painted]
    for k, a in enumerate(starts):
        block = buf[: min(step, n - a)]
        if sigma > 0:
            rng.standard_normal(out=block)
            block *= sigma
            block += 0.0
        else:
            block.fill(0.0)
        for (rows, window, identity), cut in zip(painted, cuts):
            lo, hi = cut[k], cut[k + 1]
            paint = window[lo:hi, None] * identity
            if sigma > 0:
                block[rows[lo:hi] - a] += paint
            else:
                block[rows[lo:hi] - a] = paint
        cells[a : a + len(block)] = block


def jittered_boxes(
    boxes: Sequence[Optional[BoundingBox]],
    jitter: float,
    k: int,
    seed: int,
) -> list[BoundingBox]:
    """k candidate boxes per visible object: the true box plus jittered copies."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    rng = philox(seed)
    out: list[BoundingBox] = []
    for box in boxes:
        if box is None:
            continue
        out.append(box)
        for _ in range(k - 1):
            dx = rng.normal(0.0, jitter * box.w)
            dy = rng.normal(0.0, jitter * box.h)
            sw = math.exp(rng.normal(0.0, jitter))
            sh = math.exp(rng.normal(0.0, jitter))
            out.append(BoundingBox(box.x + dx, box.y + dy, box.w * sw, box.h * sh))
    return out


def _confidence(dot, feature_norm, template_norm) -> float:
    """Cosine similarity mapped to [0, 1] from a dot product and the two norms."""
    if feature_norm == 0 or template_norm == 0:
        return 0.0
    cos = float(dot / (feature_norm * template_norm))
    return min(max((cos + 1.0) / 2.0, 0.0), 1.0)


def cosine_confidence(feature: np.ndarray, template: np.ndarray) -> float:
    """Cosine similarity mapped to [0, 1]; zero vectors score 0."""
    f = np.asarray(feature, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64)
    return _confidence(np.dot(f, t), np.linalg.norm(f), np.linalg.norm(t))


def candidate_features(
    pyramid: FeaturePyramid, boxes: Sequence[BoundingBox]
) -> tuple[np.ndarray, list]:
    """The boxes' centre features as float64 rows, and each row's norm.

    Nothing here depends on a template, so one read serves every template
    the candidates are scored against. The rows are checked finite once, as
    one block.
    """
    features = np.empty((len(boxes), pyramid.depth))
    maps = []
    for i, box in enumerate(boxes):
        fm, features[i] = centre_feature(pyramid, box)
        maps.append(fm)
    finite_features(features, maps)
    return features, [np.linalg.norm(f) for f in features]


def score_candidates(
    boxes: Sequence[BoundingBox], features: np.ndarray, norms: Sequence, template
) -> Candidates:
    """Score candidates by the cosine of their centre features with the template.

    Each confidence equals ``cosine_confidence`` of the box's centre feature:
    the same per-row dot product and norms, so the same bits.
    """
    values = np.asarray(getattr(template, "values", template), dtype=np.float64)
    template_norm = np.linalg.norm(values)
    confidence = [_confidence(np.dot(f, values), n, template_norm) for f, n in zip(features, norms)]
    return Candidates.from_boxes(boxes, confidence)


def synth_candidates(
    pyramid: FeaturePyramid,
    gt_boxes: Sequence[Optional[BoundingBox]],
    template,
    jitter: float,
    k: int,
    seed: int,
) -> Candidates:
    """One frame's candidates, scored against the active template."""
    boxes = jittered_boxes(gt_boxes, jitter, k, seed)
    return score_candidates(boxes, *candidate_features(pyramid, boxes), template)
