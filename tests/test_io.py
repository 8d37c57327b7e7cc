import gc
import json
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack import container
from fpntrack.container import (
    ManifestFrame,
    SequenceManifest,
    load_candidates,
    load_manifest,
    map_container,
    read_json,
    pyramid_from_bytes,
    pyramid_to_bytes,
    read_container,
    read_groundtruth,
    read_tracks,
    save_candidates,
    save_manifest,
    stable_json,
    write_container,
    write_groundtruth,
    write_tracks,
)
from fpntrack.errors import ContainerError
from fpntrack.metrics import GroundtruthFrame, GroundtruthSequence, TrackColumns
from fpntrack.pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    MappedFeatureMap,
    Mask,
    finite_features,
)


def small_pyramid(seed=0, depth=3, base=8):
    rng = np.random.default_rng(seed)
    maps = []
    for i, lvl in enumerate(range(2, 5)):
        size = base >> i
        maps.append(FeatureMap(lvl, rng.normal(size=(size, size, depth)).astype(np.float32)))
    return FeaturePyramid(maps)


class TestContainerRoundtrip:
    def test_bitwise_roundtrip(self):
        pyr = small_pyramid()
        out = pyramid_from_bytes(pyramid_to_bytes(pyr))
        assert out.level_labels == pyr.level_labels
        assert out.strides == pyr.strides
        assert (out.image_height, out.image_width) == (pyr.image_height, pyr.image_width)
        for a, b in zip(pyr.levels, out.levels):
            assert a.data.tobytes() == b.data.tobytes()

    def test_file_roundtrip(self, tmp_path):
        pyr = small_pyramid(5)
        path = tmp_path / "p.fpyr"
        write_container(pyr, path)
        out = read_container(path)
        for a, b in zip(pyr.levels, out.levels):
            assert np.array_equal(a.data, b.data)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(4, 16))
    def test_roundtrip_random(self, seed, depth, base):
        pyr = small_pyramid(seed, depth, base)
        out = pyramid_from_bytes(pyramid_to_bytes(pyr))
        for a, b in zip(pyr.levels, out.levels):
            assert a.data.tobytes() == b.data.tobytes()

    def test_truncated_payload_names_lengths(self):
        buf = pyramid_to_bytes(small_pyramid())
        with pytest.raises(ContainerError, match="truncated"):
            pyramid_from_bytes(buf[:-10])

    def test_bad_json_header(self):
        with pytest.raises(ContainerError, match="header"):
            pyramid_from_bytes(b"{not json\npayload")

    def test_missing_newline(self):
        with pytest.raises(ContainerError):
            pyramid_from_bytes(b"\x00\x01\x02")

    def test_overlapping_offsets_rejected(self):
        buf = pyramid_to_bytes(small_pyramid())
        newline = buf.index(b"\n")
        header = json.loads(buf[:newline])
        header["levels"][1]["byte_offset"] = header["levels"][0]["byte_offset"]
        bad = json.dumps(header).encode() + buf[newline:]
        with pytest.raises(ContainerError, match="overlap"):
            pyramid_from_bytes(bad)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_non_finite_payload_is_a_container_error(self, tmp_path, from_file):
        buf = pyramid_to_bytes(small_pyramid())[:-4] + np.array([np.inf], "<f4").tobytes()
        path = tmp_path / "p.fpyr"
        path.write_bytes(buf)
        with pytest.raises(ContainerError, match="invalid pyramid: feature map contains NaN or Inf"):
            read_container(path) if from_file else pyramid_from_bytes(buf)

    def test_wrong_declared_length_rejected(self):
        buf = pyramid_to_bytes(small_pyramid())
        newline = buf.index(b"\n")
        header = json.loads(buf[:newline])
        header["levels"][0]["byte_length"] += 4
        bad = json.dumps(header).encode() + buf[newline:]
        with pytest.raises(ContainerError, match="byte_length"):
            pyramid_from_bytes(bad)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_decoded_levels_are_writable_and_independent(self, tmp_path, from_file):
        buf = pyramid_to_bytes(small_pyramid())
        source = bytes(buf)
        path = tmp_path / "p.fpyr"
        path.write_bytes(buf)
        out = read_container(path) if from_file else pyramid_from_bytes(buf)
        before = [fm.data.copy() for fm in out.levels]
        for fm in out.levels:
            assert fm.data.flags.writeable and fm.data.dtype == np.float32
        out.levels[0].data[:] = 7.0
        assert np.all(out.levels[0].data == 7.0)
        for fm, old in zip(out.levels[1:], before[1:]):
            assert fm.data.tobytes() == old.tobytes()
        assert buf == source
        assert path.read_bytes() == source

    def test_file_without_header_terminator_rejected(self, tmp_path):
        path = tmp_path / "p.fpyr"
        path.write_bytes(b'{"levels": []}')
        with pytest.raises(ContainerError, match="terminator"):
            read_container(path)

    def test_truncated_file_names_lengths(self, tmp_path):
        path = tmp_path / "p.fpyr"
        path.write_bytes(pyramid_to_bytes(small_pyramid())[:-10])
        with pytest.raises(ContainerError, match="truncated"):
            read_container(path)

    def test_levels_not_a_list_rejected(self):
        buf = pyramid_to_bytes(small_pyramid())
        newline = buf.index(b"\n")
        header = json.loads(buf[:newline])
        header["levels"] = 3
        with pytest.raises(ContainerError, match="levels"):
            pyramid_from_bytes(json.dumps(header).encode() + buf[newline:])

    @pytest.mark.parametrize("dims", [(-8, -8, 3), (8, -8, -3), (0, 8, 3)])
    def test_nonpositive_shape_rejected_naming_level(self, dims):
        buf = pyramid_to_bytes(small_pyramid())
        newline = buf.index(b"\n")
        header = json.loads(buf[:newline])
        header["levels"][0].update(height=dims[0], width=dims[1], depth=dims[2])
        header["levels"][0]["byte_length"] = dims[0] * dims[1] * dims[2] * 4
        with pytest.raises(ContainerError, match="level 2"):
            pyramid_from_bytes(json.dumps(header).encode() + buf[newline:])

    def test_unknown_header_keys_ignored(self):
        buf = pyramid_to_bytes(small_pyramid())
        newline = buf.index(b"\n")
        header = json.loads(buf[:newline])
        header["future_field"] = {"nested": True}
        for rec in header["levels"]:
            rec["extra"] = 1
        modified = json.dumps(header).encode() + buf[newline:]
        out = pyramid_from_bytes(modified)
        assert out.level_labels == small_pyramid().level_labels


def _header_and_payload(buf: bytes):
    newline = buf.index(b"\n")
    return json.loads(buf[:newline]), buf[newline + 1:]


_FIELD_VALUES = st.one_of(
    st.integers(-8, 4096), st.none(), st.text(max_size=2), st.floats(allow_nan=True),
    st.lists(st.integers(-2, 64), max_size=3),
)


@st.composite
def mutated_containers(draw) -> bytes:
    """A container's bytes after up to three mutations of its header or payload."""
    buf = pyramid_to_bytes(
        small_pyramid(draw(st.integers(0, 100)), draw(st.integers(1, 3)),
                      draw(st.sampled_from([4, 8])))
    )
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["level field", "image size", "byte", "cut", "extend"]))
        try:
            header, payload = _header_and_payload(buf)
        except ValueError:  # an earlier mutation broke the header line; flip a byte instead
            header = None
        levels = header.get("levels") if isinstance(header, dict) else None
        records = [rec for rec in levels if isinstance(rec, dict)] if isinstance(levels, list) else []
        if kind == "level field" and records:
            rec = draw(st.sampled_from(records))
            key = draw(st.sampled_from(
                ["level", "height", "width", "depth", "dtype", "stride", "byte_offset",
                 "byte_length"]))
            rec[key] = draw(_FIELD_VALUES)
            buf = json.dumps(header).encode() + b"\n" + payload
        elif kind == "image size" and isinstance(header, dict):
            header["image_size"] = draw(_FIELD_VALUES)
            buf = json.dumps(header).encode() + b"\n" + payload
        elif kind == "cut":
            buf = buf[:max(0, len(buf) - draw(st.integers(1, 96)))]
        elif kind == "extend":
            buf += draw(st.binary(min_size=1, max_size=16))
        elif buf:
            at = draw(st.integers(0, len(buf) - 1))
            buf = buf[:at] + bytes([draw(st.integers(0, 255))]) + buf[at + 1:]
    return buf


def _decoded(read):
    """The pyramid's labels, strides, image size and level bytes, or the ContainerError."""
    try:
        pyr = read()
    except ContainerError as exc:
        return f"ContainerError: {exc}"
    assert all(type(v) is int and v >= 1 for v in (pyr.image_height, pyr.image_width))
    return (pyr.level_labels, pyr.strides, pyr.image_height, pyr.image_width,
            [(fm.data.dtype.str, fm.data.shape, fm.data.tobytes()) for fm in pyr.levels])


class TestMappedRead:
    @settings(max_examples=300, deadline=None)
    @given(buf=mutated_containers())
    def test_file_and_bytes_decode_alike(self, tmp_path_factory, buf):
        path = tmp_path_factory.mktemp("fuzz") / "p.fpyr"
        path.write_bytes(buf)
        assert _decoded(lambda: read_container(path)) == _decoded(lambda: pyramid_from_bytes(buf))

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "p.fpyr"
        path.write_bytes(b"")
        with pytest.raises(ContainerError, match="no header terminator"):
            read_container(path)

    def test_header_only_file_has_no_levels(self, tmp_path):
        path = tmp_path / "p.fpyr"
        path.write_bytes(b'{"version":1,"levels":[]}\n')
        with pytest.raises(ContainerError, match="pyramid has no levels"):
            read_container(path)

    def test_level_beyond_empty_payload_is_truncated(self, tmp_path):
        header, _ = _header_and_payload(pyramid_to_bytes(small_pyramid()))
        path = tmp_path / "p.fpyr"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(ContainerError,
                           match=r"payload truncated, need bytes \[0, 768\) but payload has 0 bytes"):
            read_container(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_pyramids_release_their_file_descriptors(self, tmp_path):
        path = tmp_path / "p.fpyr"
        write_container(small_pyramid(), path)
        gc.collect()
        baseline = len(os.listdir("/proc/self/fd"))
        held = [read_container(path) for _ in range(50)]
        assert len(os.listdir("/proc/self/fd")) == baseline + 50  # one per live map
        del held
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == baseline


class TestMapContainer:
    """`map_container` checks the header as `read_container` does and no value."""

    @settings(max_examples=300, deadline=None)
    @given(buf=mutated_containers())
    def test_decodes_as_read_container_with_values_left_to_the_reader(self, tmp_path_factory, buf):
        path = tmp_path_factory.mktemp("fuzz") / "p.fpyr"
        path.write_bytes(buf)
        full = _decoded(lambda: read_container(path))
        mapped = _decoded(lambda: map_container(path))
        non_finite = "ContainerError: container holds an invalid pyramid: feature map contains NaN or Inf"
        if isinstance(mapped, str):  # refused: the same header fault, after the path
            assert mapped.startswith(f"ContainerError: {path}: ")
            assert full in (non_finite, mapped.replace(f"{path}: ", "", 1))
            return
        assert full in (non_finite, mapped)
        # checking every level finds what read_container refused, naming the file
        levels = map_container(path).levels
        try:
            for fm in levels:
                finite_features(fm.data, fm)
        except ContainerError as exc:
            assert full == non_finite
            assert str(exc) == f"{path}: level {fm.level}: feature map contains NaN or Inf"
        else:
            assert full == mapped

    def test_levels_are_mapped_and_name_their_file(self, tmp_path):
        path = tmp_path / "p.fpyr"
        write_container(small_pyramid(), path)
        for fm in map_container(path).levels:
            assert isinstance(fm, MappedFeatureMap) and fm.source == str(path)

    def test_non_finite_value_is_left_to_the_reader(self, tmp_path):
        buf = pyramid_to_bytes(small_pyramid())[:-4] + np.array([np.nan], "<f4").tobytes()
        path = tmp_path / "p.fpyr"
        path.write_bytes(buf)
        pyr = map_container(path)
        fm = pyr.levels[-1]
        assert np.isnan(fm.data[-1, -1, -1])
        with pytest.raises(ContainerError) as info:
            finite_features(fm.data[-1], fm)
        assert str(info.value) == f"{path}: level {fm.level}: feature map contains NaN or Inf"
        finite_features(pyr.levels[0].data, pyr.levels[0])  # the other levels pass

    @pytest.mark.parametrize("buf, message", [
        (b"", "no header terminator"),
        (b"{}\n", "container header missing 'levels'"),
        (b'{"version":1,"levels":[]}\n', "container holds an invalid pyramid: pyramid has no levels"),
    ])
    def test_errors_start_with_the_path(self, tmp_path, buf, message):
        path = tmp_path / "p.fpyr"
        path.write_bytes(buf)
        with pytest.raises(ContainerError) as info:
            map_container(path)
        assert str(info.value).startswith(f"{path}: {message}")


@st.composite
def laid_out_pyramids(draw) -> FeaturePyramid:
    """A pyramid whose levels come in the layouts `write_container` meets:
    C-contiguous float32, strided and transposed float32 views, and data that
    is not native float32 (float64, float16, big-endian) set after construction."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    depth, base = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    maps = []
    for i in range(draw(st.integers(1, 3))):
        size = max(1, base >> i)
        data = rng.normal(size=(size, size, depth))
        layout = draw(st.sampled_from(
            ["contiguous", "strided", "transposed", "float64", "float16", ">f4"]))
        if layout == "strided":
            wide = rng.normal(size=(2 * size, size, 2 * depth)).astype(np.float32)
            fm = FeatureMap(i, wide[::2, :, ::2])
        elif layout == "transposed":
            fm = FeatureMap(i, data.astype(np.float32).transpose(1, 0, 2))
        else:
            fm = FeatureMap(i, data)
            if layout != "contiguous":
                fm.data = data.astype(layout)
        maps.append(fm)
    return FeaturePyramid(maps)


class TestStreamedWrite:
    @settings(max_examples=150, deadline=None)
    @given(pyr=laid_out_pyramids())
    def test_file_bytes_equal_pyramid_to_bytes(self, tmp_path_factory, pyr):
        path = tmp_path_factory.mktemp("write") / "p.fpyr"
        write_container(pyr, path)
        assert path.read_bytes() == pyramid_to_bytes(pyr)
        for fm, out in zip(pyr.levels, read_container(path).levels):
            assert out.data.tobytes() == fm.data.astype("<f4").tobytes()

    def test_pyramid_written_over_the_file_it_maps(self, tmp_path):
        # the levels map the old file while the new one is written
        path = tmp_path / "p.fpyr"
        write_container(small_pyramid(3), path)
        pyr = read_container(path)
        pyr.levels[1].data[0, 0, 0] = 5.0
        expected = pyramid_to_bytes(pyr)
        write_container(pyr, path)
        assert path.read_bytes() == expected
        assert os.listdir(tmp_path) == ["p.fpyr"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_write_leaves_the_old_file(self, tmp_path, existing):
        # the header and the first level are written when the second fails
        path = tmp_path / "p.fpyr"
        if existing:
            write_container(small_pyramid(3), path)
        before = path.read_bytes() if existing else None
        pyr = small_pyramid(4)
        payload = container._payload

        def failing_payload(fm):
            if fm is pyr.levels[1]:
                raise OSError(28, "No space left on device")
            return payload(fm)

        with mock.patch.object(container, "_payload", failing_payload):
            with pytest.raises(OSError, match="No space left"):
                write_container(pyr, path)
        if existing:
            assert path.read_bytes() == before
        assert os.listdir(tmp_path) == (["p.fpyr"] if existing else [])


class TestManifest:
    def test_roundtrip(self, tmp_path):
        pyr_path = tmp_path / "f0.fpyr"
        write_container(small_pyramid(), pyr_path)
        cand_path = tmp_path / "c0.json"
        save_candidates([BoundingBox(1, 2, 3, 4)], cand_path, confidences=[0.5])
        manifest = SequenceManifest(
            BoundingBox(0, 0, 10, 10), [ManifestFrame(0, pyr_path, cand_path)]
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        assert json.loads(path.read_text()) == {
            "init_box": [0, 0, 10, 10],
            "frames": [{"frame": 0, "pyramid": "f0.fpyr", "candidates": "c0.json"}],
        }
        loaded = load_manifest(path)
        assert loaded == manifest
        assert load_candidates(loaded.frames[0].candidates) == [
            (BoundingBox(1, 2, 3, 4), 0.5)
        ]

    def test_groundtruth_block_of_older_manifests_ignored(self, tmp_path):
        # manifests once carried a per-frame groundtruth copy; gt.jsonl is the one read
        pyr_path = tmp_path / "f0.fpyr"
        write_container(small_pyramid(), pyr_path)
        gt = {"present": True, "box": [0, 0, 10, 10], "mask": {"size": [2, 2], "runs": [4]}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "init_box": [0, 0, 10, 10],
            "frames": [{"frame": 0, "pyramid": "f0.fpyr", "groundtruth": gt}],
        }))
        assert load_manifest(path) == SequenceManifest(
            BoundingBox(0, 0, 10, 10), [ManifestFrame(0, pyr_path)]
        )

    def test_missing_pyramid_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {"init_box": [0, 0, 1, 1], "frames": [{"frame": 0, "pyramid": "gone.fpyr"}]}
            )
        )
        with pytest.raises(ContainerError, match="missing pyramid"):
            load_manifest(path)

    def test_nonincreasing_frames_rejected(self, tmp_path):
        pyr_path = tmp_path / "f.fpyr"
        write_container(small_pyramid(), pyr_path)
        with pytest.raises(ContainerError):
            SequenceManifest(
                BoundingBox(0, 0, 1, 1),
                [ManifestFrame(1, pyr_path), ManifestFrame(1, pyr_path)],
            )


class TestReadJson:
    @pytest.mark.parametrize("text, reason", [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        pytest.param("1" * 5000, "Exceeds the limit", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")),
        ("\ufeff{}", "Unexpected UTF-8 BOM"),
        ("{} {}", "Extra data"),
    ])
    def test_what_json_refuses_is_a_container_error_naming_the_file(self, tmp_path, text,
                                                                    reason):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ContainerError) as err:
            read_json(path, "scene")
        assert str(err.value).startswith(f"{path}: malformed scene file: ")
        assert reason in str(err.value)


class TestTrackJsonl:
    def test_roundtrip_with_mask(self, tmp_path):
        mask = Mask.from_box(BoundingBox(0, 0, 2, 2), 4, 4)
        track = TrackColumns(
            np.array([0, 3]),
            np.array([[1, 2, 3, 4], [0, 0, 1, 1]], dtype=np.float64),
            np.array([0.25, 0.0]),
            np.array([True, False]),
            (mask, None),
        )
        path = tmp_path / "tracks.jsonl"
        write_tracks(track, path)
        loaded = read_tracks(path)
        assert loaded.frame.tolist() == [0, 3]
        assert loaded.box.tolist() == [[1, 2, 3, 4], [0, 0, 1, 1]]
        assert loaded.confidence.tolist() == [0.25, 0.0]
        assert loaded.mask == (mask, None)
        assert loaded.present.tolist() == [True, False]

    def test_groundtruth_roundtrip(self, tmp_path):
        gt = GroundtruthSequence(
            [
                GroundtruthFrame(0, True, BoundingBox(0, 0, 5, 5)),
                GroundtruthFrame(1, False),
            ]
        )
        path = tmp_path / "gt.jsonl"
        write_groundtruth(gt, path)
        loaded = read_groundtruth(path)
        assert loaded.box.tolist() == [[0, 0, 5, 5], [0, 0, 0, 0]]
        assert loaded.has_box.tolist() == [True, False]
        assert loaded.present.tolist() == [True, False]
        assert loaded.mask == (None, None)

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text('{"frame": 0, "box": [0,0,1,1], "confidence": 0.5, "present": true}\nnot json\n')
        with pytest.raises(ContainerError, match=":2"):
            read_tracks(path)


class TestStableJson:
    def test_sorted_keys_and_six_sig_digits(self):
        text = stable_json({"b": 0.123456789, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.123457" in text

    def test_byte_stable(self):
        doc = {"x": [0.1 + 0.2, 1 / 3], "y": {"z": 2.0}}
        assert stable_json(doc) == stable_json(json.loads(stable_json(doc)))
