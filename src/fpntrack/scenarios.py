"""Seeded scene suites for ablation-style experiments.

The distractor suite builds scenes with a target and a look-alike object
whose identity embedding has a configurable cosine overlap with the
target's, the regime where a purely appearance-based template starts
confusing the two and a discriminative template should not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .metrics import GroundtruthColumns, average_overlap
from .pyramid import BoundingBox, FeaturePyramid
from .synth import (
    SceneObject,
    SceneSpec,
    box_rows,
    candidate_features,
    jittered_boxes,
    philox,
    render_frame,
    score_candidates,
)
from .tracker import Candidates, TrackerConfig, run_track


def correlated_identities(depth: int, overlap: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A unit target identity and a distractor identity at the given cosine."""
    rng = philox(seed, stream=1)
    t = rng.normal(size=depth)
    t /= np.linalg.norm(t)
    u = rng.normal(size=depth)
    u -= (u @ t) * t
    u /= np.linalg.norm(u) or np.nan  # depth 1 has no other direction: NaN, as SceneObject refuses
    d = overlap * t + np.sqrt(max(0.0, 1.0 - overlap ** 2)) * u
    return t, d / np.linalg.norm(d)


def linear_trajectory(start: BoundingBox, vx: float, vy: float, absent=()):
    absent = set(absent)

    def traj(frame: int):
        if frame in absent:
            return None
        return BoundingBox(start.x + vx * frame, start.y + vy * frame, start.w, start.h)

    return traj


@dataclass
class SuiteParams:
    num_frames: int = 20
    depth: int = 16
    image_size: int = 96
    overlap: float = 0.95
    noise_sigma: float = 0.05
    jitter: float = 0.05
    candidates_per_object: int = 3


def distractor_scene(seed: int, params: SuiteParams | None = None) -> SceneSpec:
    params = params or SuiteParams()
    t_id, d_id = correlated_identities(params.depth, params.overlap, seed)
    target = SceneObject(
        identity=t_id,
        trajectory=linear_trajectory(BoundingBox(8, 36, 24, 24), 2.0, 0.0),
        is_target=True,
    )
    distractor = SceneObject(
        identity=d_id,
        trajectory=linear_trajectory(BoundingBox(64, 4, 24, 24), 0.0, 2.0),
    )
    return SceneSpec(
        image_height=params.image_size,
        image_width=params.image_size,
        num_frames=params.num_frames,
        objects=[target, distractor],
        noise_sigma=params.noise_sigma,
        seed=seed,
    )


@dataclass(frozen=True)
class RenderedScene:
    """What tracking a suite scene needs that no template kind changes.

    ``candidates`` holds, per frame, the jittered candidates (their box rows
    checked once, at confidence 0), their centre features and those
    features' norms; ``groundtruth`` holds the target's boxes as columns.
    """

    init_pyramid: FeaturePyramid
    init_box: BoundingBox
    candidates: list[tuple[Candidates, np.ndarray, list]]
    groundtruth: GroundtruthColumns


def render_scene(spec: SceneSpec, params: SuiteParams | None = None) -> RenderedScene:
    """Render every frame once, draw its candidates and read their features."""
    params = params or SuiteParams()
    ti = spec.target_index
    candidates = []
    target = []
    for f in range(spec.num_frames):
        pyramid, boxes, _ = render_frame(spec, f)
        if f == 0:
            init_pyramid, init_box = pyramid, boxes[ti]
        box = box_rows(jittered_boxes(
            boxes, params.jitter, params.candidates_per_object, spec.seed * 100003 + f
        ))
        candidates.append((Candidates(box, np.zeros(len(box))), *candidate_features(pyramid, box)))
        target.append(boxes[ti])
    present = np.array([b is not None for b in target])
    gt_box = np.array([b.as_list() if b else [0.0] * 4 for b in target], dtype=np.float64)
    groundtruth = GroundtruthColumns(np.arange(spec.num_frames, dtype=np.int64), present,
                                     present, gt_box, (None,) * spec.num_frames)
    return RenderedScene(init_pyramid, init_box, candidates, groundtruth)


def _scored(candidates: Candidates, features: np.ndarray, norms: list, template) -> Candidates:
    """A frame's candidates from `render_scene`, scored against the template."""
    return candidates.with_confidence(score_candidates(features, norms, template))


def scene_ao(scene: RenderedScene, template_kind: str, config: TrackerConfig) -> float:
    """Track a rendered scene with the given template kind, return AO."""
    frames = [functools.partial(_scored, *cand) for cand in scene.candidates]
    track = run_track(frames, scene.init_box, scene.init_pyramid, config, template_kind)
    ao, _ = average_overlap(track, scene.groundtruth)
    return ao


def sequence_ao(
    spec: SceneSpec,
    template_kind: str,
    config: TrackerConfig,
    params: SuiteParams | None = None,
) -> float:
    """Render a scene, track it with the given template kind, return AO."""
    return scene_ao(render_scene(spec, params), template_kind, config)


def distractor_suite_ao(
    kinds: list[str],
    num_sequences: int,
    base_seed: int = 0,
    params: SuiteParams | None = None,
) -> dict[str, np.ndarray]:
    """Mean-AO suite, tracked without smoothing: one scene per seed, rendered
    once, tracked once per kind."""
    params = params or SuiteParams()
    config = TrackerConfig(smoothing_enabled=False)
    results: dict[str, list[float]] = {k: [] for k in kinds}
    for i in range(num_sequences):
        scene = render_scene(distractor_scene(base_seed + i, params), params)
        for kind in kinds:
            results[kind].append(scene_ao(scene, kind, config))
    return {k: np.asarray(v) for k, v in results.items()}


def smoothing_suite_ao(
    num_sequences: int,
    base_seed: int = 1000,
    params: SuiteParams | None = None,
    template_kind: str = "center",
) -> tuple[np.ndarray, np.ndarray]:
    """(AO with smoothing, AO without) per sequence on jittery candidates."""
    params = params or SuiteParams()
    with_smooth = []
    without = []
    for i in range(num_sequences):
        scene = render_scene(distractor_scene(base_seed + i, params), params)
        with_smooth.append(scene_ao(scene, template_kind, TrackerConfig(smoothing_enabled=True)))
        without.append(scene_ao(scene, template_kind, TrackerConfig(smoothing_enabled=False)))
    return np.asarray(with_smooth), np.asarray(without)


def bootstrap_lower_bound(
    diffs: np.ndarray, num_resamples: int = 2000, seed: int = 0, quantile: float = 0.025
) -> float:
    """Lower bootstrap confidence bound for the mean of per-sequence diffs."""
    rng = philox(seed, stream=7)
    n = len(diffs)
    means = [
        float(np.mean(diffs[rng.integers(0, n, size=n)])) for _ in range(num_resamples)
    ]
    return float(np.quantile(means, quantile))
