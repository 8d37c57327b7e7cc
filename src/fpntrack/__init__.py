"""Feature-pyramid tracking head with discriminative templates."""

from .pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    Mask,
    assign_level,
    box_iou,
    cell_centres,
    center_cell,
    extract_template,
    in_box,
    mask_iou,
    template_level,
)
from .templates import (
    RegressionProblem,
    TemplateVector,
    build_template,
    ridge_backward,
    sample_negatives,
    sample_positives,
    solve_ridge,
    template_mean_diff,
    template_mean_pos,
)
from .attention import SimilarityMap, attend_pyramid, reweight, similarity
from .tracker import Detection, TrackerConfig, TrackerState, rerank, run_track, step
from .synth import SceneObject, SceneSpec, render_frame, synth_candidates

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
