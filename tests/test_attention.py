from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fpntrack import attention
from fpntrack.attention import attend_pyramid, reweight, similarity, similarity_pyramid
from fpntrack.errors import ContainerError, InvalidInputError
from fpntrack.pyramid import FeatureMap, MappedFeatureMap, assign_level, center_cell, in_box
from fpntrack.scenarios import distractor_scene
from fpntrack.synth import philox, render_frame
from fpntrack.templates import build_template
from tests.test_pyramid import as_mapped, make_pyramid

finite_features = arrays(
    np.float32,
    (3, 4, 2),
    elements=st.floats(-10, 10, width=32),
)


class TestSimilarity:
    def test_inner_product_per_cell(self):
        fm = FeatureMap(2, np.zeros((2, 2, 2), dtype=np.float32))
        fm.data[0, 1] = [2.0, 0.0]
        sim = similarity(fm, np.array([1.0, 0.0]))
        assert sim.scores[0, 1] == 2.0
        assert sim.scores[0, 0] == 0.0

    def test_zero_template_gives_zero_map(self):
        fm = FeatureMap(2, np.ones((3, 3, 4), dtype=np.float32))
        sim = similarity(fm, np.zeros(4))
        assert np.all(sim.scores == 0)

    def test_orthogonal_scores_zero(self):
        fm = FeatureMap(2, np.zeros((1, 1, 2), dtype=np.float32))
        fm.data[0, 0] = [0.0, 3.0]
        assert similarity(fm, np.array([1.0, 0.0])).scores[0, 0] == 0.0

    def test_depth_mismatch_rejected(self):
        fm = FeatureMap(2, np.ones((2, 2, 3), dtype=np.float32))
        with pytest.raises(InvalidInputError):
            similarity(fm, np.ones(4))

    @given(finite_features, st.floats(-5, 5), st.floats(-5, 5))
    def test_linear_in_template(self, data, a, b):
        fm = FeatureMap(2, data)
        t1 = np.array([1.0, -0.5])
        t2 = np.array([0.25, 2.0])
        lhs = similarity(fm, a * t1 + b * t2).scores
        rhs = a * similarity(fm, t1).scores + b * similarity(fm, t2).scores
        assert np.allclose(lhs, rhs, atol=1e-4)


def whole_level_scores(data, values):
    """The whole-level float64 product that the blocked `similarity` must match."""
    return data.astype(np.float64) @ values


def seeded_level(seed, height, width, depth):
    rng = philox(seed)
    return rng.normal(size=(height, width, depth)).astype(np.float32), rng.normal(size=depth)


class TestBlockedSimilarity:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 19),
        st.integers(1, 9),
        st.integers(1, 40),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_whole_level_product(self, height, width, depth, budget, seed):
        # small budgets give blocks of 1..height rows, with a short last block
        # when the height is not a multiple, and one-row blocks when a row is
        # over the budget
        data, values = seeded_level(seed, height, width, depth)
        with mock.patch.object(attention, "BLOCK_ELEMENTS", budget):
            scores = similarity(FeatureMap(2, data), values).scores
        assert np.array_equal(scores, whole_level_scores(data, values))

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 1, 1),  # 1x1 level, D=1
            (1, 1, 256),
            (7, 5, 1),  # D=1
            (11, 128, 256),  # 4-row blocks, 11 not a multiple of 4
            (3, 2, 70_000),  # one row is over the budget: one-row blocks
            (16, 16, 256),  # smaller than the budget: one block
            (64, 64, 1024),  # the wide pyramid's finest level
        ],
    )
    def test_bitwise_equal_at_default_budget(self, shape):
        data, values = seeded_level(sum(shape), *shape)
        scores = similarity(FeatureMap(2, data), values).scores
        assert np.array_equal(scores, whole_level_scores(data, values))

    def test_backbone_level_bitwise_equal_and_left_unchanged(self):
        data, values = seeded_level(41, 128, 128, 256)
        fm = FeatureMap(2, data.copy())
        scores = similarity(fm, values).scores
        assert np.array_equal(scores, whole_level_scores(data, values))
        assert fm.data.dtype == np.float32
        assert np.array_equal(fm.data, data)

    def test_overflowing_scores_rejected(self):
        fm = FeatureMap(2, np.full((3, 2, 2), 1e30, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="NaN or Inf"):
            similarity(fm, np.array([1e300, 1e300]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_where_the_template_is_zero(self, bad):
        # the refusal does not rest on how the product treats 0 * inf
        data = np.ones((attention.BLOCK_ELEMENTS // 2 + 3, 1, 2), dtype=np.float32)
        data[-1, 0, 0] = bad  # in the second block
        with pytest.raises(ContainerError) as info:
            similarity(MappedFeatureMap(3, data, "f.fpyr"), np.array([0.0, 1.0]))
        assert str(info.value) == "f.fpyr: level 3: feature map contains NaN or Inf"
        fm = FeatureMap(3, np.ones_like(data))
        fm.data[-1, 0, 0] = bad  # changed after it was built
        with pytest.raises(InvalidInputError, match="^level 3: feature map contains NaN or Inf"):
            similarity(fm, np.array([0.0, 1.0]))

    def test_nan_template_rejected(self):
        fm = FeatureMap(2, np.ones((3, 2, 2), dtype=np.float32))
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            similarity(fm, np.array([np.nan, 1.0]))


class TestReweight:
    def test_scales_cell_by_score(self):
        fm = FeatureMap(2, np.zeros((1, 2, 2), dtype=np.float32))
        fm.data[0, 0] = [2.0, 0.0]
        sim = similarity(fm, np.array([1.0, 0.0]))  # score 2 at (0, 0)
        out = reweight(fm, sim)
        assert out.data[0, 0].tolist() == [4.0, 0.0]

    def test_uniform_ones_is_identity(self):
        rng = philox(0)
        fm = FeatureMap(3, rng.normal(size=(4, 4, 3)).astype(np.float32))
        from fpntrack.attention import SimilarityMap

        out = reweight(fm, SimilarityMap(3, np.ones((4, 4))))
        assert np.array_equal(out.data, fm.data)

    def test_zero_score_zeroes_cell(self):
        fm = FeatureMap(2, np.ones((2, 2, 2), dtype=np.float32))
        sim = similarity(fm, np.zeros(2))
        out = reweight(fm, sim)
        assert np.all(out.data == 0)

    def test_shape_mismatch_rejected(self):
        from fpntrack.attention import SimilarityMap

        fm = FeatureMap(2, np.ones((2, 2, 2), dtype=np.float32))
        with pytest.raises(InvalidInputError):
            reweight(fm, SimilarityMap(2, np.ones((3, 3))))


class TestSimilarityPyramid:
    def test_detection_maps_are_ones_and_read_no_value(self):
        # a mapped level's values are checked where they are read: detection reads none
        pyr = as_mapped(make_pyramid())
        for fm in pyr.levels:
            fm.data[:] = np.nan
        sims = similarity_pyramid(pyr, np.ones(7), "detection")  # a template of another depth
        assert [s.level for s in sims] == pyr.level_labels
        for fm, s in zip(pyr.levels, sims):
            assert s.scores.shape == (fm.height, fm.width) and np.all(s.scores == 1.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidInputError, match="mode must be one of"):
            similarity_pyramid(make_pyramid(), np.ones(3), "both")


class TestAttendPyramid:
    def test_detection_mode_is_bitwise_identity(self):
        pyr = make_pyramid(fill=lambda lvl: lvl * 0.25)
        out = attend_pyramid(pyr, np.ones(3), mode="detection")
        for a, b in zip(pyr.levels, out.levels):
            assert np.array_equal(a.data, b.data)

    def test_orthogonal_template_zeroes_everything(self):
        pyr = make_pyramid()
        for fm in pyr.levels:
            fm.data[..., 0] = 1.0
        out = attend_pyramid(pyr, np.array([0.0, 1.0, 0.0]), mode="tracking")
        for fm in out.levels:
            assert np.all(fm.data == 0)

    def test_bad_mode_rejected(self):
        pyr = make_pyramid()
        with pytest.raises(InvalidInputError):
            attend_pyramid(pyr, np.ones(3), mode="both")

    def test_homogeneous_in_template_scale(self):
        rng = philox(5)
        pyr = make_pyramid(fill=None)
        for fm in pyr.levels:
            fm.data[:] = rng.normal(size=fm.data.shape).astype(np.float32)
        t = rng.normal(size=3)
        base = similarity_pyramid(pyr, t)
        scaled = similarity_pyramid(pyr, 3.0 * t)
        for s_base, s_scaled in zip(base, scaled):
            assert np.allclose(s_scaled.scores, 3.0 * s_base.scores, rtol=1e-5)
            assert np.argmax(s_base.scores) == np.argmax(s_scaled.scores)

    def test_ridge_attention_peaks_inside_target_box(self):
        # the discriminative template focuses the assigned-level similarity
        # map on the target despite a strong distractor
        for seed in range(8):
            spec = distractor_scene(seed)
            pyr, boxes, _ = render_frame(spec, 0)
            box = boxes[0]
            template = build_template(pyr, box, "ridge")
            level = assign_level(box, pyr.num_levels)
            sim = similarity(pyr.level_map(level), template)
            row, col = np.unravel_index(np.argmax(sim.scores), sim.scores.shape)
            stride = pyr.stride(level)
            cy, cx = (row + 0.5) * stride, (col + 0.5) * stride
            assert in_box(cy, cx, box)
