import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack.container import (
    ManifestFrame,
    SequenceManifest,
    load_candidates,
    load_manifest,
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
from fpntrack.metrics import GroundtruthFrame, GroundtruthSequence
from fpntrack.pyramid import BoundingBox, FeatureMap, FeaturePyramid, Mask
from fpntrack.tracker import Detection, Track, TrackEntry


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


class TestManifest:
    def test_roundtrip(self, tmp_path):
        pyr_path = tmp_path / "f0.fpyr"
        write_container(small_pyramid(), pyr_path)
        cand_path = tmp_path / "c0.json"
        save_candidates([BoundingBox(1, 2, 3, 4)], cand_path, confidences=[0.5])
        manifest = SequenceManifest(
            BoundingBox(0, 0, 10, 10),
            [
                ManifestFrame(
                    0,
                    pyr_path,
                    cand_path,
                    GroundtruthFrame(0, True, BoundingBox(0, 0, 10, 10)),
                )
            ],
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.init_box == manifest.init_box
        assert loaded.frames[0].groundtruth.box == BoundingBox(0, 0, 10, 10)
        assert load_candidates(loaded.frames[0].candidates) == [
            (BoundingBox(1, 2, 3, 4), 0.5)
        ]

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


class TestTrackJsonl:
    def test_roundtrip_with_mask(self, tmp_path):
        mask = Mask.from_box(BoundingBox(0, 0, 2, 2), 4, 4)
        track = Track(
            [
                TrackEntry(0, Detection(BoundingBox(1, 2, 3, 4), 0.25, mask), True),
                TrackEntry(3, Detection(BoundingBox(0, 0, 1, 1), 0.0), False),
            ]
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
