"""Similarity maps and attention reweighting of pyramid features.

Similarity is a 1x1 cross-correlation: each cell's score is the inner
product of its feature with the template. Reweighting multiplies each
cell's feature vector by its score. Scores are raw inner products, passed
through unclipped and unnormalized.

Scores are float64 inner products. They are computed in blocks of whole
image rows of about 1 MB (``BLOCK_ELEMENTS`` float64 values), each converted
into one reused buffer, so no level-sized float64 temporary is made. Each row
goes through the same matrix-vector product as in the whole-level
``data.astype(np.float64) @ values``, so the scores are bitwise equal to it
for row-major levels (every level this package decodes or builds). Each
block is checked finite (``pyramid.finite_features``) while it is in cache,
before its product, so a level mapped from a file is read from memory once
and a non-finite feature is refused whatever the template holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .pyramid import FeatureMap, FeaturePyramid, finite_features

MODES = ("tracking", "detection")

# float64 elements per block of rows in `similarity`: 1 MB, about 4 rows of
# a 128x128x256 level; a row larger than this is a block of its own
BLOCK_ELEMENTS = 1 << 17


@dataclass
class SimilarityMap:
    level: int
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise InvalidInputError("similarity scores must be 2-D")
        if not np.isfinite(self.scores).all():
            raise InvalidInputError("similarity scores contain NaN or Inf")


def _template_values(template) -> np.ndarray:
    values = np.asarray(getattr(template, "values", template), dtype=np.float64)
    if values.ndim != 1:
        raise InvalidInputError("template must be a 1-D vector")
    return values


def similarity(level_map: FeatureMap, template) -> SimilarityMap:
    """Per-cell inner product of features with the template."""
    values = _template_values(template)
    if values.size != level_map.depth:
        raise InvalidInputError(
            f"template depth {values.size} != feature depth {level_map.depth}"
        )
    data = level_map.data
    height, width, depth = data.shape
    rows = min(height, max(1, BLOCK_ELEMENTS // (width * depth)))
    # a 3-D block keeps one matrix-vector product per image row, as the
    # whole-level product has; flattening the block changes the bits
    buf = np.empty((rows, width, depth), dtype=np.float64)
    scores = np.empty((height, width), dtype=np.float64)
    for r in range(0, height, rows):
        block = buf[: min(rows, height - r)]
        block[...] = data[r : r + len(block)]
        finite_features(block, level_map)
        np.matmul(block, values, out=scores[r : r + len(block)])
    return SimilarityMap(level_map.level, scores)


def reweight(level_map: FeatureMap, sim: SimilarityMap) -> FeatureMap:
    """Scale each cell's feature vector by that cell's similarity score.

    The output is the only level-sized array made; the float32 cast acts on
    the (height, width) scores before they broadcast over the depth.
    """
    if sim.scores.shape != (level_map.height, level_map.width):
        raise InvalidInputError(
            f"similarity shape {sim.scores.shape} != spatial shape "
            f"{(level_map.height, level_map.width)}"
        )
    return FeatureMap(level_map.level, level_map.data * sim.scores[:, :, None].astype(np.float32))


def similarity_pyramid(
    pyramid: FeaturePyramid, template, mode: str = "tracking"
) -> list[SimilarityMap]:
    """Similarity maps for every level, finest first.

    This is where the mode is decided: in detection mode every level's map
    is ones, and no feature or template value is read.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "detection":
        return [SimilarityMap(fm.level, np.ones((fm.height, fm.width))) for fm in pyramid.levels]
    return [similarity(fm, template) for fm in pyramid.levels]


def attend_pyramid(
    pyramid: FeaturePyramid,
    template,
    mode: str = "tracking",
) -> FeaturePyramid:
    """Reweight every level by its `similarity_pyramid` map.

    Reweighting by detection mode's ones leaves every value as it is, so the
    pyramid itself is returned.
    """
    sims = similarity_pyramid(pyramid, template, mode)
    if mode == "detection":
        return pyramid
    return FeaturePyramid(
        [reweight(fm, sim) for fm, sim in zip(pyramid.levels, sims)],
        strides=pyramid.strides,
        image_height=pyramid.image_height,
        image_width=pyramid.image_width,
    )
