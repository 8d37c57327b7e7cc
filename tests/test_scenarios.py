import functools

import numpy as np
import pytest

from fpntrack.metrics import (
    GroundtruthColumns,
    GroundtruthFrame,
    GroundtruthSequence,
    average_overlap,
)
from fpntrack.pyramid import extract_template
from fpntrack.scenarios import (
    SuiteParams,
    distractor_scene,
    distractor_suite_ao,
    smoothing_suite_ao,
)
from fpntrack.synth import cosine_confidence, jittered_boxes, render_frame
from fpntrack.tracker import Detection, TrackerConfig, run_track

KINDS = ["center", "mean_pos", "mean_diff", "ridge"]


def oracle_sequence_ao(spec, template_kind, config, params, **template_kwargs):
    """The reference suite step: render every frame for this one kind, score box by box."""
    rendered = [render_frame(spec, f) for f in range(spec.num_frames)]
    ti = spec.target_index

    def candidates(f, template):
        pyramid, boxes, _ = rendered[f]
        cand = jittered_boxes(
            boxes, params.jitter, params.candidates_per_object, spec.seed * 100003 + f
        )
        return [
            Detection(b, cosine_confidence(extract_template(pyramid, b), template.values))
            for b in cand
        ]

    frames = [functools.partial(candidates, f) for f in range(spec.num_frames)]
    init_pyramid, init_boxes, _ = rendered[0]
    track = run_track(frames, init_boxes[ti], init_pyramid, config, template_kind,
                      **template_kwargs)
    gt = GroundtruthSequence(
        [GroundtruthFrame(f, boxes[ti] is not None, boxes[ti])
         for f, (_, boxes, _) in enumerate(rendered)]
    )
    ao, _ = average_overlap(track, GroundtruthColumns.from_groundtruth(gt))
    return ao


def assert_bitwise_equal(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "params, template_kwargs",
    [
        (SuiteParams(), {}),
        (SuiteParams(jitter=0.0, candidates_per_object=1, noise_sigma=0.0),
         {"num_negatives": 64}),
    ],
)
def test_distractor_suite_equals_per_kind_oracle(params, template_kwargs):
    base_seed, n = 40, 4
    config = TrackerConfig(smoothing_enabled=False)
    results = distractor_suite_ao(KINDS, n, base_seed, params, **template_kwargs)
    for kind in KINDS:
        expected = [
            oracle_sequence_ao(distractor_scene(base_seed + i, params), kind, config, params,
                               **template_kwargs)
            for i in range(n)
        ]
        assert_bitwise_equal(results[kind], expected)


def test_smoothing_suite_equals_per_config_oracle():
    base_seed, n = 1000, 4
    params = SuiteParams()
    with_smooth, without = smoothing_suite_ao(n, base_seed)
    for actual, smoothing in ((with_smooth, True), (without, False)):
        expected = [
            oracle_sequence_ao(distractor_scene(base_seed + i, params), "center",
                               TrackerConfig(smoothing_enabled=smoothing), params)
            for i in range(n)
        ]
        assert_bitwise_equal(actual, expected)
