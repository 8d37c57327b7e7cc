"""The columnar track/groundtruth JSONL readers against per-record oracles.

The oracles are per-line readers: the track oracle checks one record at a
time and builds `TrackColumns` from the checked values, the groundtruth
oracle builds a `GroundtruthSequence` whose columns (`from_groundtruth`) are
compared. The readers' columns must equal the oracles', masks included. The
oracles are the older per-line readers with two deliberate changes, both to
name the line where the old code did not: the strictly-increasing frame check
runs per record (the old readers left it to the track and
`GroundtruthSequence` constructors, whose error named no line), and an
OverflowError (an `Infinity` frame, say) is a bad record instead of escaping
as a traceback.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fpntrack.container import _mask_from_json, read_groundtruth, read_tracks
from fpntrack.errors import ContainerError, InvalidInputError
from fpntrack.metrics import (
    GroundtruthColumns,
    GroundtruthFrame,
    GroundtruthSequence,
    TrackColumns,
)
from fpntrack.pyramid import BoundingBox
from fpntrack.tracker import Candidates

# ---------------------------------------------------------------- oracles


def oracle_jsonl_records(path, what: str):
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ContainerError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
        if not isinstance(rec, dict):
            raise ContainerError(f"{path}:{lineno}: {what} is not a JSON object: {line.strip()}")
        yield lineno, rec


def oracle_box(vals) -> BoundingBox:
    if not isinstance(vals, (list, tuple)) or len(vals) != 4:
        raise ContainerError(f"box must be [x, y, w, h], got {vals!r}")
    return BoundingBox(*[float(v) for v in vals])


def oracle_read_tracks(path) -> TrackColumns:
    frames, rows, masks, presents = [], [], [], []
    for lineno, rec in oracle_jsonl_records(path, "track record"):
        try:
            box, confidence, frame, present = rec["box"], rec["confidence"], rec["frame"], rec["present"]
        except KeyError as exc:
            raise ContainerError(f"{path}:{lineno}: track record missing field {exc}") from exc
        try:
            mask = _mask_from_json(rec["mask"]) if rec.get("mask") else None
            row = Candidates.from_boxes([oracle_box(box)], [float(confidence)])
            frame = int(frame)
        except (TypeError, ValueError, OverflowError, ContainerError, InvalidInputError) as exc:
            raise ContainerError(f"{path}:{lineno}: bad track record: {exc}") from exc
        if frames and frame <= frames[-1]:
            raise ContainerError(f"{path}:{lineno}: frames must be strictly increasing")
        frames.append(frame)
        rows.append(row)
        masks.append(mask)
        presents.append(bool(present))
    return TrackColumns(
        np.array(frames, dtype=np.int64),
        np.concatenate([r.box for r in rows]) if rows else np.empty((0, 4)),
        np.concatenate([r.confidence for r in rows]) if rows else np.empty(0),
        np.array(presents, dtype=bool),
        tuple(masks),
    )


def oracle_read_groundtruth(path) -> GroundtruthSequence:
    frames = []
    for lineno, rec in oracle_jsonl_records(path, "groundtruth"):
        try:
            frame, present = rec["frame"], rec["present"]
        except KeyError as exc:
            raise ContainerError(f"{path}:{lineno}: groundtruth record missing field {exc}") from exc
        try:
            gt = GroundtruthFrame(
                frame=int(frame),
                present=bool(present),
                box=oracle_box(rec["box"]) if rec.get("box") else None,
                mask=_mask_from_json(rec["mask"]) if rec.get("mask") else None,
            )
        except (TypeError, ValueError, OverflowError, ContainerError, InvalidInputError) as exc:
            raise ContainerError(f"{path}:{lineno}: bad groundtruth: {exc}") from exc
        if frames and gt.frame <= frames[-1].frame:
            raise ContainerError(f"{path}:{lineno}: frames must be strictly increasing")
        frames.append(gt)
    return GroundtruthSequence(frames)


# ---------------------------------------------------------------- files

VALID_MASK = {"size": [2, 2], "runs": [1, 2, 1]}
ODD_NUMBERS = [
    "0.5", "1", " 2 ", "1e400", "-0", "nan", "inf", "abc", "", "1_0", None, True, False,
    [], [0.5], {}, float("nan"), float("inf"), -1.0, 1.5, 10**20, 2**63, -0.0,
]
ODD_BOXES = [
    ["1.5", "2", "3", "4"], [1, 2, 3], "1,2,3,4", None, {}, [], 0, 1, "",
    [0, 0, 0, 5], [0, 0, 5, -1], [float("nan"), 0, 1, 1], [0, float("inf"), 1, 1],
    [True, 0, 1, 1], [10**20, 0, 1, 1], [2**63, 1, 2, 2], [[1], [2], [3], [4]],
    [0, 0, "abc", 1], [0, 0, None, 1], [1e308, 0, 1e308, 1], [0, 0, 1e200, 1e200],
]
ODD_FRAMES = ["3", "x", "1e3", 2.5, -1.5, True, False, None, [1], {}, float("inf"), float("nan")]
ODD_MASKS = [None, {}, [], 0, "", "x", 1, {"size": [2, 2], "runs": [5]},
             {"size": [2, 2], "runs": [float("inf")]}, {"size": "ab", "runs": []}]
# a key the readers ignore; braces in a string send the reader down the per-line path
EXTRA = ["{}", "a, b", "}{", "]"]

finite = st.floats(-50, 50, allow_nan=False)
sizes = st.floats(0.5, 60)
valid_box = st.tuples(finite, finite, sizes, sizes).map(list)
integral_box = st.tuples(*[st.integers(-5, 5)] * 2, *[st.integers(1, 5)] * 2).map(list)


@st.composite
def record(draw, kind: str, frame: int, odd: bool) -> dict:
    """A record; where `odd`, any field may be odd or missing."""

    def sometimes(valid, odd_values):
        return draw(st.one_of(valid, valid, valid, st.sampled_from(odd_values)) if odd else valid)

    rec = {"frame": sometimes(st.just(frame), ODD_FRAMES)}
    present = draw(st.booleans())
    rec["present"] = sometimes(st.just(present), [0, 1, "false", "", None, [], [0]])
    box = st.one_of(valid_box, integral_box)
    if kind == "track":
        rec["box"] = sometimes(box, ODD_BOXES)
        confidence = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0, 0.5]))
        rec["confidence"] = sometimes(confidence, ODD_NUMBERS)
    else:
        no_box = st.sampled_from([None, [], 0, "", False])
        rec["box"] = sometimes(box if present else st.one_of(no_box, box), ODD_BOXES)
        if draw(st.booleans()) and not present:
            del rec["box"]
    if draw(st.integers(0, 5)) == 0:
        rec["mask"] = draw(st.sampled_from([VALID_MASK, *(ODD_MASKS if odd else [None, {}])]))
    if draw(st.integers(0, 7)) == 0:
        rec["note"] = draw(st.sampled_from(EXTRA))
    if odd and draw(st.integers(0, 9)) == 0:
        del rec[draw(st.sampled_from(sorted(rec)))]
    return rec


@st.composite
def jsonl_text(draw, kind: str) -> str:
    """A JSONL file: half of them well-formed, the others with odd values and lines."""
    odd = draw(st.booleans())
    lines = []
    frame = draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 8))):
        frame += draw(st.sampled_from([1, 1, 1, 2, 5] + ([0, -1] if odd else [])))
        text = json.dumps(draw(record(kind, frame, odd)))
        shape = draw(st.sampled_from(
            ["record"] * 8 + ["blank", "padded"]
            + (["not_object", "malformed", "split", "two"] if odd else [])
        ))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t", "　"])))
        elif shape == "not_object":
            lines.append(draw(st.sampled_from(["[1, 2]", "3", '"s"', "null", "[{}]"])))
        elif shape == "malformed":
            lines.append(draw(st.sampled_from(["not json", "{", "}", "{}}", "{,}"])))
        elif shape == "split":  # one record over two lines
            cut = draw(st.integers(1, len(text) - 1))
            lines += [text[:cut], text[cut:]]
        elif shape == "two":  # two records on one line
            frame += 1
            lines.append(text + ", " + json.dumps(draw(record(kind, frame, odd))))
        elif shape == "padded":
            lines.append(f"  {text} \t")
        else:
            lines.append(text)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def outcome(read, path):
    """(value, None) or (None, the '<path>:<line>:' prefix of the ContainerError)."""
    try:
        return read(path), None
    except ContainerError as exc:
        m = re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
        assert m, f"error does not name a line: {exc}"
        return None, m.group(0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_columns(got, want) -> None:
    """Equal columns: the same bits in every array, equal masks."""
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert (a == b) if name == "mask" else same_bits(a, b), name


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestAgainstOracles:
    @SETTINGS
    @given(jsonl_text("track"))
    def test_tracks(self, tmp_path, text):
        path = tmp_path / "tracks.jsonl"
        path.write_text(text)
        want, want_error = outcome(oracle_read_tracks, path)
        got, got_error = outcome(read_tracks, path)
        assert got_error == want_error
        if want is not None:
            check_columns(got, want)

    @SETTINGS
    @given(jsonl_text("groundtruth"))
    def test_groundtruth(self, tmp_path, text):
        path = tmp_path / "gt.jsonl"
        path.write_text(text)
        want, want_error = outcome(oracle_read_groundtruth, path)
        got, got_error = outcome(read_groundtruth, path)
        assert got_error == want_error
        if want is not None:
            check_columns(got, GroundtruthColumns.from_groundtruth(want))


TRACK = {"box": [0, 0, 1, 1], "confidence": 0.5, "present": True}


class TestCases:
    def test_records_regrouped_across_lines_are_refused(self, tmp_path):
        # joined with commas these lines parse as three valid records, but
        # lines 1 and 2 are halves of one and line 3 holds two
        rec = [json.dumps(dict(TRACK, frame=f)) for f in range(1, 3)]
        path = tmp_path / "tracks.jsonl"
        path.write_text(
            '{"box": [0, 0, 1, 1]\n"confidence": 0.5, "frame": 0, "present": true}\n'
            f"{rec[0]}, {rec[1]}\n"
        )
        joined = ",".join(path.read_text().splitlines())
        assert len(json.loads(f"[{joined}]")) == 3
        for read in (read_tracks, oracle_read_tracks):
            with pytest.raises(ContainerError, match=rf"{re.escape(str(path))}:1: malformed"):
                read(path)

    def test_brace_in_a_string_reads_line_by_line(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text("".join(
            json.dumps(dict(TRACK, frame=f, note="}{")) + "\n" for f in range(3)
        ))
        check_columns(read_tracks(path), oracle_read_tracks(path))
        assert read_tracks(path).frame.tolist() == [0, 1, 2]

    def test_frame_beyond_int64_is_refused(self, tmp_path):
        # the oracle keeps Python ints; the columns hold int64
        path = tmp_path / "tracks.jsonl"
        path.write_text(json.dumps(dict(TRACK, frame=2**63)) + "\n")
        with pytest.raises(ContainerError, match=r":1: bad track record: frame .* int64"):
            read_tracks(path)

    def test_infinite_frame_names_its_line(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"frame": 0, "present": false}\n{"frame": Infinity, "present": false}\n')
        with pytest.raises(ContainerError, match=r"gt\.jsonl:2: bad groundtruth"):
            read_groundtruth(path)

    def test_first_bad_record_wins_over_a_later_unparsable_line(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text(json.dumps(dict(TRACK, frame=0, confidence=2.0)) + "\nnot json\n")
        with pytest.raises(ContainerError, match=r"tracks\.jsonl:1: bad track record: confidence"):
            read_tracks(path)

    def test_empty_file_gives_empty_columns(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text("\n  \n")
        cols = read_tracks(path)
        assert cols.frame.shape == (0,) and cols.box.shape == (0, 4) and cols.mask == ()
        assert cols.frame.dtype == np.int64 and cols.box.dtype == np.float64

    def test_file_that_is_not_utf8_is_a_container_error(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_bytes(b'{"frame": 0, "present": false}\n\xff\n')
        with pytest.raises(ContainerError, match="not UTF-8"):
            read_groundtruth(path)
