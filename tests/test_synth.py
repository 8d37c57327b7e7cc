import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack import synth
from fpntrack.errors import ContainerError, InvalidInputError
from fpntrack.pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    Mask,
    center_cell,
    extract_template,
    template_level,
)
from fpntrack.scenarios import correlated_identities, distractor_scene, linear_trajectory
from fpntrack.synth import (
    SceneObject,
    SceneSpec,
    candidate_features,
    cosine_confidence,
    jittered_boxes,
    philox,
    render_frame,
    score_candidates,
    synth_candidates,
)
from tests.test_pyramid import as_mapped, make_pyramid


def unit(depth, axis=0):
    v = np.zeros(depth)
    v[axis] = 1.0
    return v


def single_object_spec(noise=0.0, depth=8):
    # a 24x24 box lands on pyramid level 2 (stride 4); center (30, 30)
    # coincides with a cell center there, so the peak is sampled exactly
    traj = linear_trajectory(BoundingBox(30 - 12, 30 - 12, 24, 24), 0, 0)
    obj = SceneObject(identity=unit(depth), trajectory=traj, is_target=True)
    return SceneSpec(64, 64, 4, [obj], noise_sigma=noise)


class TestRenderFrame:
    def test_zero_noise_center_cell_equals_identity(self):
        spec = single_object_spec()
        pyr, boxes, _ = render_frame(spec, 0)
        feat = extract_template(pyr, boxes[0])
        assert np.allclose(feat, unit(8).astype(np.float32))
        assert abs(float(feat[0]) - 1.0) < 1e-7

    def test_empty_scene_is_pure_noise(self):
        spec = SceneSpec(64, 64, 2, [], noise_sigma=0.5, seed=3)
        pyr, boxes, masks = render_frame(spec, 0)
        assert boxes == [] and masks == []
        assert np.abs(pyr.levels[0].data).sum() > 0

    def test_deterministic_under_seed(self):
        spec = distractor_scene(11)
        a, _, _ = render_frame(spec, 2)
        b, _, _ = render_frame(spec, 2)
        for fa, fb in zip(a.levels, b.levels):
            assert np.array_equal(fa.data, fb.data)

    def test_frames_differ_with_noise(self):
        spec = single_object_spec(noise=0.1)
        a, _, _ = render_frame(spec, 0)
        b, _, _ = render_frame(spec, 1)
        assert not np.array_equal(a.levels[0].data, b.levels[0].data)

    def test_occlusion_by_list_order(self):
        depth = 4
        box = BoundingBox(20, 20, 24, 24)
        behind = SceneObject(unit(depth, 0), linear_trajectory(box, 0, 0), is_target=True)
        front = SceneObject(unit(depth, 1), linear_trajectory(box, 0, 0))
        spec = SceneSpec(64, 64, 1, [behind, front])
        pyr, boxes, _ = render_frame(spec, 0)
        feat = extract_template(pyr, box)
        assert feat[1] > 0 and feat[0] == 0

    def test_frame_out_of_range(self):
        with pytest.raises(InvalidInputError):
            render_frame(single_object_spec(), 99)

    def test_masks_are_rasterized_boxes(self):
        spec = single_object_spec()
        _, boxes, masks = render_frame(spec, 0)
        arr = masks[0].to_array()
        assert arr.shape == (64, 64)
        assert arr[32, 32] and not arr[0, 0]


def render_frame_per_level(spec, frame):
    """The reference renderer: each level painted on its own, each object
    through one run of rows and one of columns and an outer product of its
    cosine windows."""

    def window(coords, center, half):
        u = np.clip((coords - center) / half, -1.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * u))

    boxes = [obj.trajectory(frame) for obj in spec.objects]
    rng = philox(spec.seed, frame)
    maps = []
    for lvl in spec.levels:
        stride = 2 ** lvl
        h = math.ceil(spec.image_height / stride)
        w = math.ceil(spec.image_width / stride)
        cys = (np.arange(h) + 0.5) * stride
        cxs = (np.arange(w) + 0.5) * stride
        data = np.zeros((h, w, spec.depth), dtype=np.float64)
        for obj, box in zip(spec.objects, boxes):
            if box is None:
                continue
            ys = slice(*np.searchsorted(cys, (box.y, box.y2)))
            xs = slice(*np.searchsorted(cxs, (box.x, box.x2)))
            if ys.start == ys.stop or xs.start == xs.stop:
                continue
            fy = window(cys[ys], box.cy, box.h / 2)
            fx = window(cxs[xs], box.cx, box.w / 2)
            data[ys, xs] = np.outer(fy, fx)[:, :, None] * obj.identity
        if spec.noise_sigma > 0:
            data += rng.normal(0.0, spec.noise_sigma, size=data.shape)
        maps.append(FeatureMap(lvl, data))
    pyramid = FeaturePyramid(maps, image_height=spec.image_height, image_width=spec.image_width)
    masks = [
        Mask.from_box(b, spec.image_height, spec.image_width) if b is not None else None
        for b in boxes
    ]
    return pyramid, boxes, masks


@st.composite
def render_cases(draw):
    """A scene and a frame: odd image sizes, 0-3 objects that may overlap,
    leave the image or miss every coarse cell centre, and absent frames."""
    height, width = draw(st.integers(1, 100)), draw(st.integers(1, 100))
    depth = draw(st.integers(1, 24))
    levels = draw(st.sampled_from([(2, 3, 4, 5), (1, 2, 3), (3,), (0, 1, 2, 3, 4, 5, 6)]))
    rng = philox(draw(st.integers(0, 2 ** 32 - 1)))
    objects, previous = [], None
    for i in range(draw(st.integers(0, 3))):
        if previous is not None and draw(st.booleans()):
            box = previous  # wholly overlapping: list order decides
        else:
            x, y = rng.uniform(-width, 2 * width), rng.uniform(-height, 2 * height)
            # log-uniform sizes: many boxes miss every coarse cell centre
            size = np.exp2(rng.uniform(-2, math.log2(1.5 * max(height, width) + 1), size=2))
            grid = draw(st.sampled_from([None, 0.5, 2.0, 4.0]))
            if grid:  # edges on the grid of some level's cell centres
                x, y = grid * round(x / grid), grid * round(y / grid)
                size = grid * np.maximum(np.round(size / grid), 1)
            box = BoundingBox(x, y, *size)
        previous = box
        absent = draw(st.booleans())
        identity = rng.normal(size=depth)
        objects.append(
            SceneObject(
                identity / np.linalg.norm(identity),
                lambda f, box=box, absent=absent: None if absent else box,
                is_target=i == 0,
            )
        )
    # at the smallest subnormal sigma most draws underflow to +-0.0
    noise = draw(st.sampled_from([0.0, 0.05, 1.0, 5e-324]))
    spec = SceneSpec(height, width, 2, objects, noise, seed=draw(st.integers(0, 2 ** 16)),
                     levels=levels)
    return spec, draw(st.integers(0, 1))


class TestFlatRenderer:
    @settings(max_examples=300, deadline=None)
    @given(render_cases(), st.one_of(st.none(), st.integers(1, 64)))
    def test_bitwise_equal_to_per_level_renderer(self, case, budget):
        # small budgets give noise blocks of one cell up to a few, so blocks
        # end inside a level, inside a painted box, and across level bounds
        spec, frame = case
        with mock.patch.object(synth, "BLOCK_ELEMENTS", budget or synth.BLOCK_ELEMENTS):
            pyr, boxes, masks = render_frame(spec, frame)
        ref_pyr, ref_boxes, ref_masks = render_frame_per_level(spec, frame)
        assert boxes == ref_boxes and masks == ref_masks
        assert [fm.level for fm in pyr.levels] == [fm.level for fm in ref_pyr.levels]
        for fm, ref in zip(pyr.levels, ref_pyr.levels):
            assert fm.data.shape == ref.data.shape
            assert fm.data.tobytes() == ref.data.tobytes()

    def test_levels_are_float32_views_of_one_array(self):
        pyr, _, _ = render_frame(distractor_scene(2), 0)
        base = pyr.levels[0].data.base
        assert base is not None and base.dtype == np.float32 and base.flags.c_contiguous
        assert all(fm.data.base is base for fm in pyr.levels)

    def test_cached_centres_read_only_and_unchanged(self):
        spec = distractor_scene(1)
        pyr, _, _ = render_frame(spec, 0)
        cy, cx = pyr.cell_centres()
        before = cy.copy(), cx.copy()
        render_frame(spec, 1)
        assert pyr.cell_centres()[0] is cy
        assert not cy.flags.writeable and not cx.flags.writeable
        with pytest.raises(ValueError):
            cy[0] = -1.0
        assert np.array_equal(cy, before[0]) and np.array_equal(cx, before[1])
        assert cy.size == sum(fm.height * fm.width for fm in pyr.levels)


class TestSceneSpecValidation:
    def test_two_targets_rejected(self):
        t = linear_trajectory(BoundingBox(0, 0, 8, 8), 0, 0)
        objs = [SceneObject(unit(4), t, True), SceneObject(unit(4, 1), t, True)]
        with pytest.raises(InvalidInputError):
            SceneSpec(32, 32, 1, objs)

    def test_nonunit_identity_rejected(self):
        with pytest.raises(InvalidInputError):
            SceneObject(np.ones(4), linear_trajectory(BoundingBox(0, 0, 8, 8), 0, 0))


class TestCandidates:
    def test_no_jitter_single_candidate_equals_groundtruth(self):
        spec = single_object_spec()
        pyr, boxes, _ = render_frame(spec, 0)
        cands = synth_candidates(pyr, boxes, unit(8), jitter=0.0, k=1, seed=0)
        assert len(cands) == 1
        assert cands.box.tolist() == [boxes[0].as_list()]
        assert cands.confidence[0] == pytest.approx(1.0)

    def test_deterministic_under_seed(self):
        spec = distractor_scene(5)
        pyr, boxes, _ = render_frame(spec, 0)
        a = synth_candidates(pyr, boxes, spec.objects[0].identity, 0.1, 4, seed=9)
        b = synth_candidates(pyr, boxes, spec.objects[0].identity, 0.1, 4, seed=9)
        assert a.box.tobytes() == b.box.tobytes()
        assert a.confidence.tobytes() == b.confidence.tobytes()

    def test_absent_target_leaves_only_distractor_candidates(self):
        spec = distractor_scene(3)
        spec.objects[0].trajectory = linear_trajectory(
            BoundingBox(8, 36, 24, 24), 2, 0, absent=range(spec.num_frames)
        )
        pyr, boxes, _ = render_frame(spec, 1)
        assert boxes[0] is None
        cands = synth_candidates(pyr, boxes, spec.objects[0].identity, 0.05, 3, seed=1)
        # every candidate derives from the distractor; none can outscore their max
        assert len(cands) == 3
        assert cands.box[0].tolist() == boxes[1].as_list()

    def test_candidate_count(self):
        spec = distractor_scene(0)
        pyr, boxes, _ = render_frame(spec, 0)
        cands = synth_candidates(pyr, boxes, unit(16), 0.05, 3, seed=0)
        assert len(cands) == 6  # two visible objects, three candidates each
        assert cands.box.shape == (6, 4) and cands.confidence.shape == (6,)


class TestScoreCandidates:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 8), st.booleans())
    def test_equals_per_box_cosine_confidence(self, seed, depth, n, zero_template):
        rng = philox(seed)
        pyr = make_pyramid(depth, base=8)  # 8x8 down to 1x1 cells over 32 px
        for fm in pyr.levels:
            fm.data[:] = rng.normal(size=fm.data.shape)
            fm.data[rng.random(fm.data.shape[:2]) < 0.3] = 0.0  # zero-norm features
        boxes = [
            BoundingBox(*rng.uniform(-8, 40, size=2), *rng.uniform(0.5, 40, size=2))
            for _ in range(n)
        ]
        template = np.zeros(depth) if zero_template else rng.normal(size=depth)
        cands = score_candidates(boxes, *candidate_features(pyr, boxes), template)
        expected = [cosine_confidence(extract_template(pyr, b), template) for b in boxes]
        assert cands.box.tolist() == [b.as_list() for b in boxes]
        assert cands.confidence.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_features_are_checked_once_naming_the_first_bad_row(self):
        rng = philox(5)
        pyr = as_mapped(make_pyramid(depth=2))
        for fm in pyr.levels:
            fm.data[:] = rng.normal(size=fm.data.shape)
        # centre cells at levels 2, 3 and 4
        boxes = [BoundingBox(0, 0, 4, 4), BoundingBox(0, 0, 120, 120), BoundingBox(0, 0, 300, 300)]
        assert [template_level(pyr, b) for b in boxes] == [2, 3, 4]
        features, _ = candidate_features(pyr, boxes)
        for fm in pyr.levels:  # every cell but the boxes' centres
            fm.data[~np.isin(fm.data, features.astype(np.float32)).all(axis=2)] = np.nan
        assert candidate_features(pyr, boxes)[0].tobytes() == features.tobytes()
        for b, level in zip(boxes[1:], (3, 4)):
            pyr.level_map(level).data[center_cell(b, pyr, level)] = np.inf
        with pytest.raises(ContainerError, match="^f.fpyr: level 3: "):
            candidate_features(pyr, boxes)

    def test_features_of_no_boxes(self):
        features, norms = candidate_features(make_pyramid(depth=5), [])
        assert features.shape == (0, 5) and norms == []


class TestIdentities:
    def test_zero_overlap_identities_are_orthogonal(self):
        t, d = correlated_identities(16, 0.0, seed=2)
        assert abs(float(t @ d)) < 1e-9

    def test_requested_overlap_is_hit(self):
        t, d = correlated_identities(16, 0.8, seed=2)
        assert float(t @ d) == pytest.approx(0.8, abs=1e-9)

    def test_clean_scene_template_matches_identity(self):
        # no noise, orthogonal distractor: extracted target template has
        # cosine 1 with the target identity and 0 with the distractor
        t, d = correlated_identities(8, 0.0, seed=4)
        target = SceneObject(t, linear_trajectory(BoundingBox(8, 8, 16, 16), 0, 0), True)
        other = SceneObject(d, linear_trajectory(BoundingBox(40, 40, 16, 16), 0, 0))
        spec = SceneSpec(64, 64, 1, [target, other], noise_sigma=0.0)
        pyr, boxes, _ = render_frame(spec, 0)
        feat = extract_template(pyr, boxes[0]).astype(np.float64)
        feat /= np.linalg.norm(feat)
        assert float(feat @ t) == pytest.approx(1.0, abs=1e-6)
        assert float(feat @ d) == pytest.approx(0.0, abs=1e-6)


class TestCosineConfidence:
    def test_aligned_scores_one(self):
        assert cosine_confidence(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_opposed_scores_zero(self):
        assert cosine_confidence(np.array([-1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_zero_vector_scores_zero(self):
        assert cosine_confidence(np.zeros(3), np.ones(3)) == 0.0


def test_jittered_boxes_skips_absent():
    out = jittered_boxes([None, BoundingBox(0, 0, 4, 4)], 0.0, 2, seed=0)
    assert len(out) == 2
