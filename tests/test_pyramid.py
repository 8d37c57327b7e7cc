import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack.errors import InvalidInputError
from fpntrack.pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    Mask,
    assign_level,
    center_cell,
    extract_template,
)


def make_pyramid(depth=3, base=32, fill=None):
    """4-level pyramid labelled 2..5 over a (base*4)px image."""
    maps = []
    for lvl in range(2, 6):
        size = base >> (lvl - 2)
        data = np.zeros((size, size, depth), dtype=np.float32)
        if fill is not None:
            data[:] = fill(lvl)
        maps.append(FeatureMap(lvl, data))
    return FeaturePyramid(maps)


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(InvalidInputError):
            BoundingBox(0, 0, 10, -1)
        with pytest.raises(InvalidInputError):  # w * h underflows to 0
            BoundingBox(0, 0, 1e-200, 1e-200)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            BoundingBox(float("nan"), 0, 1, 1)
        with pytest.raises(InvalidInputError, match="box area overflows"):  # w * h is inf
            BoundingBox(0, 0, 1e200, 1e200)

    @pytest.mark.parametrize("box", [(1e308, 0, 1e308, 1), (0, 1e308, 1, 1e308)])
    def test_rejects_edge_that_overflows(self, box):
        # w * h is finite, but x + w (or y + h) is inf, so no overlap could be scored
        with pytest.raises(InvalidInputError, match="box edge overflows"):
            BoundingBox(*box)


class TestAssignLevel:
    def test_canonical_box_maps_to_base_level(self):
        assert assign_level(BoundingBox(0, 0, 224, 224), 4) == 4

    def test_double_size_goes_one_level_up(self):
        assert assign_level(BoundingBox(0, 0, 448, 448), 4) == 5

    def test_tiny_box_clamps_to_lowest(self):
        # floor(4 + log2(10/224)) = floor(-0.48) = -1, clamped
        assert assign_level(BoundingBox(0, 0, 10, 10), 4) == 2

    def test_fewer_levels_clamps_range(self):
        assert assign_level(BoundingBox(0, 0, 448, 448), 2) == 3

    @given(
        st.floats(min_value=1, max_value=1e4),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_monotone_in_area(self, side, factor):
        small = BoundingBox(0, 0, side, side)
        big = BoundingBox(0, 0, side * factor, side * factor)
        assert assign_level(small, 4) <= assign_level(big, 4)


class TestCenterCell:
    def test_center_lands_on_expected_cell(self):
        pyr = make_pyramid()
        # box center (8, 8), level 3 has stride 8
        assert center_cell(BoundingBox(0, 0, 16, 16), pyr, 3) == (1, 1)

    def test_small_box_at_origin(self):
        pyr = make_pyramid()
        assert center_cell(BoundingBox(0, 0, 8, 8), pyr, 3) == (0, 0)

    def test_clamps_to_grid(self):
        pyr = make_pyramid()
        fm = pyr.level_map(3)
        row, col = center_cell(BoundingBox(10_000, 0, 16, 16), pyr, 3)
        assert col == fm.width - 1

    @given(
        st.floats(min_value=-500, max_value=500),
        st.floats(min_value=-500, max_value=500),
        st.floats(min_value=0.5, max_value=600),
        st.floats(min_value=0.5, max_value=600),
    )
    def test_always_inside_grid(self, x, y, w, h):
        pyr = make_pyramid()
        for lvl in pyr.level_labels:
            fm = pyr.level_map(lvl)
            row, col = center_cell(BoundingBox(x, y, w, h), pyr, lvl)
            assert 0 <= row < fm.height
            assert 0 <= col < fm.width


class TestExtractTemplate:
    def test_reads_center_feature(self):
        pyr = make_pyramid()
        box = BoundingBox(0, 0, 16, 16)  # assigned level 2, stride 4, center cell (2, 2)
        pyr.level_map(2).data[2, 2] = [1, 2, 3]
        assert extract_template(pyr, box).tolist() == [1, 2, 3]

    def test_deterministic(self):
        pyr = make_pyramid(fill=lambda lvl: lvl * 0.5)
        box = BoundingBox(3, 5, 20, 18)
        a = extract_template(pyr, box)
        b = extract_template(pyr, box)
        assert np.array_equal(a, b)

    def test_equal_center_and_area_give_equal_templates(self):
        pyr = make_pyramid(fill=lambda lvl: lvl * 0.5)
        a = extract_template(pyr, BoundingBox(10, 10, 20, 20))
        b = extract_template(pyr, BoundingBox(5, 5, 30, 30))
        # different areas may differ; same box shape around same center must not
        c = extract_template(pyr, BoundingBox(10, 10, 20, 20))
        assert np.array_equal(a, c)
        assert b is not None

    def test_quadrupled_area_reads_one_level_up(self):
        pyr = make_pyramid(fill=lambda lvl: float(lvl))
        small = BoundingBox(64 - 100, 64 - 100, 200, 200)  # sqrt area 200 -> level 3
        big = BoundingBox(64 - 200, 64 - 200, 400, 400)  # sqrt area 400 -> level 4
        assert assign_level(small, 4) == 3
        assert assign_level(big, 4) == 4
        assert extract_template(pyr, small)[0] == 3.0
        assert extract_template(pyr, big)[0] == 4.0


class TestFeatureMapValidation:
    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            FeatureMap(2, data)

    def test_pyramid_rejects_depth_mismatch(self):
        with pytest.raises(InvalidInputError):
            FeaturePyramid(
                [FeatureMap(2, np.zeros((4, 4, 2))), FeatureMap(3, np.zeros((2, 2, 3)))]
            )

    def test_pyramid_rejects_bad_halving(self):
        with pytest.raises(InvalidInputError):
            FeaturePyramid(
                [FeatureMap(2, np.zeros((8, 8, 2))), FeatureMap(3, np.zeros((2, 2, 2)))]
            )


class TestMaskRle:
    def test_roundtrip(self):
        arr = np.zeros((5, 7), dtype=bool)
        arr[1:3, 2:5] = True
        mask = Mask.from_array(arr)
        assert np.array_equal(mask.to_array(), arr)

    def test_run_sum_invariant(self):
        with pytest.raises(InvalidInputError):
            Mask(2, 2, (1, 1))

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2 ** 25 - 1))
    def test_roundtrip_random(self, h, w, bits):
        arr = np.array(
            [(bits >> i) & 1 for i in range(h * w)], dtype=bool
        ).reshape(h, w) if h * w else np.zeros((h, w), dtype=bool)
        mask = Mask.from_array(arr)
        assert np.array_equal(mask.to_array(), arr)

    def test_from_box_integer_coords(self):
        mask = Mask.from_box(BoundingBox(1, 2, 3, 2), 6, 6)
        arr = np.zeros((6, 6), dtype=bool)
        arr[2:4, 1:4] = True
        assert np.array_equal(mask.to_array(), arr)

    @settings(max_examples=500)
    @given(
        st.integers(0, 9),
        st.integers(0, 9),
        st.floats(-12, 12),
        st.floats(-12, 12),
        st.floats(0.01, 24),
        st.floats(0.01, 24),
    )
    def test_from_box_runs_equal_dense_rasterization(self, h, w, x, y, bw, bh):
        # boxes reach past every side of canvases that include 0xW and Hx0
        box = BoundingBox(x, y, bw, bh)
        rows, cols = np.arange(h), np.arange(w)
        dense = np.outer((rows >= box.y) & (rows < box.y2), (cols >= box.x) & (cols < box.x2))
        assert Mask.from_box(box, h, w).runs == Mask.from_array(dense).runs

    @pytest.mark.parametrize(
        "box, h, w, runs",
        [
            (BoundingBox(0, 0, 2, 1), 2, 3, (0, 2, 4)),  # starts at (0, 0)
            (BoundingBox(0, 1, 3, 1), 2, 3, (3, 3)),  # full-width row, no trailing zeros
            (BoundingBox(5, 5, 2, 2), 2, 3, (6,)),  # no intersection
            (BoundingBox(0, 0, 2, 2), 0, 3, ()),  # 0-size canvas
        ],
    )
    def test_from_box_edge_runs(self, box, h, w, runs):
        assert Mask.from_box(box, h, w).runs == runs
