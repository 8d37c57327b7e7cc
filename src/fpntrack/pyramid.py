"""Feature pyramid data model: boxes, masks, cell geometry, level assignment and template reads.

Boxes are (x, y, w, h) with the origin at the top-left, in image pixels.
Rasterization uses half-open intervals: pixel (r, c) is covered by a box
iff x <= c < x + w and y <= r < y + h; a pyramid cell is in a box iff its
centre is (``in_box``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# The FPN box-to-level rule; see assign_level.
BASE_LEVEL = 4
CANONICAL_SIZE = 224.0
MIN_LEVEL = 2
MAX_LEVEL = 5


@dataclass(frozen=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.x, self.y, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError(f"non-finite box {vals}")
        # w * h can underflow to 0, or overflow to inf, for finite positive w and h
        if self.w <= 0 or self.h <= 0 or self.w * self.h == 0:
            raise InvalidInputError(f"degenerate box: w={self.w}, h={self.h}")
        if self.w * self.h == math.inf:
            raise InvalidInputError(f"box area overflows: w={self.w}, h={self.h}")
        if math.isinf(self.x + self.w) or math.isinf(self.y + self.h):
            raise InvalidInputError(f"box edge overflows: x + w or y + h of {vals}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2

    @property
    def cy(self) -> float:
        return self.y + self.h / 2

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True)
class Mask:
    """Binary mask stored as row-major run-length encoding.

    ``runs`` alternates counts of zeros and ones, starting with zeros, and
    must sum to height * width.
    """

    height: int
    width: int
    runs: tuple[int, ...]

    def __post_init__(self):
        if self.height < 0 or self.width < 0:
            raise InvalidInputError("negative mask dimensions")
        if any(r < 0 for r in self.runs):
            raise InvalidInputError("negative run length")
        if sum(self.runs) != self.height * self.width:
            raise InvalidInputError(
                f"run lengths sum to {sum(self.runs)}, expected {self.height * self.width}"
            )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Mask":
        arr = np.asarray(arr, dtype=bool)
        if arr.ndim != 2:
            raise InvalidInputError("mask array must be 2-D")
        flat = arr.ravel()
        runs: list[int] = []
        if flat.size:
            change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
            bounds = np.concatenate(([0], change, [flat.size]))
            lengths = np.diff(bounds)
            if flat[0]:
                runs.append(0)
            runs.extend(int(n) for n in lengths)
        return cls(arr.shape[0], arr.shape[1], tuple(runs))

    @classmethod
    def from_box(cls, box: BoundingBox, height: int, width: int) -> "Mask":
        """The box rasterized, with the runs ``from_array`` would give."""
        c0 = max(0, math.ceil(box.x))
        c1 = min(width, math.ceil(box.x2))
        r0 = max(0, math.ceil(box.y))
        r1 = min(height, math.ceil(box.y2))
        total = height * width
        if total == 0:
            return cls(height, width, ())
        if r1 <= r0 or c1 <= c0:
            return cls(height, width, (total,))
        ones = c1 - c0
        if ones == width:  # full rows merge into one run
            rows = [(r1 - r0) * width]
        else:
            rows = [ones, width - ones] * (r1 - r0 - 1) + [ones]
        tail = total - (r1 - 1) * width - c1
        runs = [r0 * width + c0, *rows] + ([tail] if tail else [])
        return cls(height, width, tuple(runs))

    def to_array(self) -> np.ndarray:
        out = np.zeros(self.height * self.width, dtype=bool)
        pos = 0
        value = False
        for run in self.runs:
            if value:
                out[pos : pos + run] = True
            pos += run
            value = not value
        return out.reshape(self.height, self.width)


@dataclass
class FeatureMap:
    """One pyramid level: a (height, width, depth) grid of float32 features."""

    level: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise InvalidInputError(f"feature data must be 3-D, got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1 or self.data.shape[2] < 1:
            raise InvalidInputError(f"empty feature map: shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise InvalidInputError("feature map contains NaN or Inf")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def depth(self) -> int:
        return self.data.shape[2]


def _halving_ok(coarse: int, fine: int) -> bool:
    # ratio 2 with rounding slack in either direction
    return coarse in (2 * fine - 1, 2 * fine, 2 * fine + 1)


@dataclass
class FeaturePyramid:
    """Ordered stack of feature maps, finest first, with per-level strides.

    The default stride of a level labelled ``l`` is ``2 ** l``, matching the
    usual pyramid convention where level 2 has stride 4.
    """

    levels: list[FeatureMap]
    strides: tuple[int, ...] | None = None
    image_height: int | None = None
    image_width: int | None = None

    def __post_init__(self):
        if not self.levels:
            raise InvalidInputError("pyramid has no levels")
        labels = [fm.level for fm in self.levels]
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise InvalidInputError(f"level labels not strictly increasing: {labels}")
        depths = {fm.depth for fm in self.levels}
        if len(depths) != 1:
            raise InvalidInputError(f"levels disagree on depth: {sorted(depths)}")
        for fine, coarse in zip(self.levels, self.levels[1:]):
            if not (_halving_ok(fine.height, coarse.height) and _halving_ok(fine.width, coarse.width)):
                raise InvalidInputError(
                    f"level {coarse.level} ({coarse.height}x{coarse.width}) is not half of "
                    f"level {fine.level} ({fine.height}x{fine.width})"
                )
        if self.strides is None:
            self.strides = tuple(2 ** fm.level for fm in self.levels)
        else:
            self.strides = tuple(int(s) for s in self.strides)
            if len(self.strides) != len(self.levels):
                raise InvalidInputError("one stride per level required")
            if any(s < 1 for s in self.strides):
                raise InvalidInputError("strides must be positive")
        if self.image_height is None:
            self.image_height = self.levels[0].height * self.strides[0]
        if self.image_width is None:
            self.image_width = self.levels[0].width * self.strides[0]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def depth(self) -> int:
        return self.levels[0].depth

    @property
    def level_labels(self) -> list[int]:
        return [fm.level for fm in self.levels]

    def _index(self, level: int) -> int:
        for i, fm in enumerate(self.levels):
            if fm.level == level:
                return i
        raise InvalidInputError(f"no level {level} in pyramid (have {self.level_labels})")

    def level_map(self, level: int) -> FeatureMap:
        return self.levels[self._index(level)]

    def stride(self, level: int) -> int:
        return self.strides[self._index(level)]

    def cell_centres(self) -> tuple[np.ndarray, np.ndarray]:
        """The centres (cy, cx) of every cell of every level; see ``cell_centres``."""
        shapes = tuple((fm.height, fm.width) for fm in self.levels)
        return cell_centres(shapes, self.strides)


@functools.lru_cache(maxsize=8)  # distinct (shapes, strides)
def cell_centres(shapes: tuple, strides: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The centre (cy, cx) of every cell of levels with these (h, w) shapes and strides.

    Cells are numbered level by level, finest first, row-major within a level.
    The arrays are shared by every caller, so they are read-only.
    """
    cys, cxs = [], []
    for (h, w), stride in zip(shapes, strides):
        cys.append(np.repeat((np.arange(h) + 0.5) * stride, w))
        cxs.append(np.tile((np.arange(w) + 0.5) * stride, h))
    cy, cx = np.concatenate(cys), np.concatenate(cxs)
    cy.flags.writeable = False
    cx.flags.writeable = False
    return cy, cx


def in_box(cy, cx, box: BoundingBox):
    """Whether the points (cy, cx) lie in the box, half-open; elementwise on arrays."""
    return (cy >= box.y) & (cy < box.y2) & (cx >= box.x) & (cx < box.x2)


def assign_level(box: BoundingBox, num_levels: int) -> int:
    """Pick the pyramid level label a box belongs to, by the FPN rule
    k = floor(BASE_LEVEL + log2(sqrt(wh) / CANONICAL_SIZE)) clamped to [MIN_LEVEL, MAX_LEVEL].

    Returns a label in [MIN_LEVEL, MIN_LEVEL + num_levels), so a 4-level
    pyramid labelled 2..5 gets the classic [2, 5] range.
    """
    if num_levels < 1:
        raise InvalidInputError("num_levels must be >= 1")
    k = math.floor(BASE_LEVEL + math.log2(math.sqrt(box.area) / CANONICAL_SIZE))
    return min(max(k, MIN_LEVEL), MAX_LEVEL, MIN_LEVEL + num_levels - 1)


def template_level(pyramid: FeaturePyramid, box: BoundingBox) -> int:
    """The box's assigned level, clamped to the labels the pyramid has."""
    labels = pyramid.level_labels
    return min(max(assign_level(box, pyramid.num_levels), labels[0]), labels[-1])


def center_cell(box: BoundingBox, pyramid: FeaturePyramid, level: int) -> tuple[int, int]:
    """Grid cell under the box center at the given level, clamped to the grid."""
    fm = pyramid.level_map(level)
    stride = pyramid.stride(level)
    row = math.floor(box.cy / stride)
    col = math.floor(box.cx / stride)
    row = min(max(row, 0), fm.height - 1)
    col = min(max(col, 0), fm.width - 1)
    return row, col


def extract_template(pyramid: FeaturePyramid, box: BoundingBox) -> np.ndarray:
    """Read the D-vector at the box center in its assigned level."""
    level = template_level(pyramid, box)
    row, col = center_cell(box, pyramid, level)
    return pyramid.level_map(level).data[row, col].copy()


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes (continuous areas, half-open)."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    # rounding can push inter a hair past union for near-identical boxes
    return float(min(inter / union, 1.0))


def mask_iou(a: Mask, b: Mask) -> float:
    """Intersection over union of two masks on the same canvas.

    Both empty -> 1.0; exactly one empty -> 0.0.
    """
    if (a.height, a.width) != (b.height, b.width):
        raise InvalidInputError(
            f"mask canvas mismatch: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    aa = a.to_array()
    bb = b.to_array()
    union = int(np.count_nonzero(aa | bb))
    if union == 0:
        return 1.0
    inter = int(np.count_nonzero(aa & bb))
    return inter / union
