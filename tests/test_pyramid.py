import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack import pyramid
from fpntrack.errors import ContainerError, InvalidInputError
from fpntrack.pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    MappedFeatureMap,
    Mask,
    assign_level,
    center_cell,
    extract_template,
    finite_features,
    first_bad_box_row,
)


def as_mapped(pyr: FeaturePyramid, source: str = "f.fpyr") -> FeaturePyramid:
    """The pyramid with its levels as `MappedFeatureMap`s of `source`, sharing their data."""
    return FeaturePyramid([MappedFeatureMap(fm.level, fm.data, source) for fm in pyr.levels],
                          strides=pyr.strides)


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


_BOX_VALUES = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([0.0, -0.0, 1.0, 1e-200, 1e200, 1e308, -1e308, 5e-324]),
)


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

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(*[_BOX_VALUES] * 4), max_size=5), st.sampled_from([0, 5]))
    def test_first_bad_row_is_the_first_bounding_box_refuses(self, rows, few):
        # FEW_BOXES 0 sends every row through the vectorized pass, 5 none
        expected = None
        for i, row in enumerate(rows):
            try:
                BoundingBox(*row)
            except InvalidInputError as exc:
                expected = (i, str(exc))
                break
        with mock.patch.object(pyramid, "FEW_BOXES", few):
            assert first_bad_box_row(np.array(rows, dtype=np.float64).reshape(-1, 4)) == expected

    @pytest.mark.parametrize("few", [0, 5])
    @pytest.mark.parametrize("bad", [
        (math.nan, 0, 1, 1), (0, -math.inf, 1, 1), (0, 0, 0, 1), (0, 0, 1, -1),
        (0, 0, math.nan, 1), (0, 0, 1, math.inf), (0, 0, 1e-200, 1e-200),
        (0, 0, 1e200, 1e200), (1e308, 0, 1e308, 1), (0, 1e308, 1, 1e308),
    ])
    def test_each_refusal_found_after_valid_rows(self, bad, few):
        # every check of either pass, on a row behind valid ones and before another bad one
        with pytest.raises(InvalidInputError) as refused:
            BoundingBox(*map(float, bad))
        rows = np.array([(0, 0, 1, 1), (5, 5, 2, 3), bad, (math.nan,) * 4])
        with mock.patch.object(pyramid, "FEW_BOXES", few):
            assert first_bad_box_row(rows) == (2, str(refused.value))


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

    @pytest.mark.parametrize("budget", [1, 5, 6, 7, 1 << 20])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_value_refused_in_any_block_of_rows(self, budget, bad):
        # rows of 6 values: blocks of one row, of one row again, of two rows
        # that do not cut the level evenly, and of the whole level
        with mock.patch.object(pyramid, "FINITE_CHECK_ELEMENTS", budget):
            for row, col, k in [(0, 0, 0), (2, 1, 2), (4, 1, 1)]:
                data = np.zeros((5, 2, 3), dtype=np.float32)
                data[row, col, k] = bad
                with pytest.raises(InvalidInputError, match="NaN or Inf"):
                    FeatureMap(2, data)
                FeatureMap(2, np.zeros((5, 2, 3), dtype=np.float32))

    def test_mapped_level_checks_its_shape_but_not_its_values(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        assert MappedFeatureMap(2, data, "f.fpyr").data is data
        with pytest.raises(InvalidInputError, match="3-D"):
            MappedFeatureMap(2, np.zeros((2, 2)), "f.fpyr")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_features_names_level_and_file(self, bad):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[1, 0, 1] = bad
        with pytest.raises(ContainerError) as info:
            finite_features(data[1], MappedFeatureMap(3, data, "f.fpyr"))
        assert str(info.value) == "f.fpyr: level 3: feature map contains NaN or Inf"
        fm = FeatureMap(4, np.ones((2, 2, 2)))
        fm.data[:] = data  # changed after it was built
        with pytest.raises(InvalidInputError) as info:
            finite_features(fm.data[1], fm)
        assert str(info.value) == "level 4: feature map contains NaN or Inf"
        ok = data[0]
        assert finite_features(ok, fm) is ok

    def test_finite_features_names_the_level_of_the_first_bad_row(self):
        maps = [MappedFeatureMap(lvl, np.ones((1, 1, 2), np.float32), "f.fpyr") for lvl in (2, 3, 4)]
        rows = np.ones((3, 2))
        rows[1, 0] = rows[2, 1] = np.nan
        with pytest.raises(ContainerError, match="^f.fpyr: level 3: "):
            finite_features(rows, maps)

    def test_extract_template_checks_the_cell_it_reads(self):
        pyr = as_mapped(make_pyramid())
        box = BoundingBox(20, 20, 8, 8)
        row, col = center_cell(box, pyr, 2)
        pyr.level_map(2).data[row, col + 1, 0] = np.nan  # a cell it does not read
        extract_template(pyr, box)
        pyr.level_map(2).data[row, col, 2] = np.inf
        with pytest.raises(ContainerError, match="^f.fpyr: level 2: "):
            extract_template(pyr, box)

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
