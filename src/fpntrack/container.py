"""On-disk formats: pyramid containers, sequence manifests, candidate and template
JSON, track/gt JSONL.

A pyramid container is a single-line JSON header terminated by a newline,
followed by a raw little-endian float32 payload. Byte offsets in the
header are relative to the start of the payload. Unknown header keys are
ignored for forward compatibility.

`write_container` writes the header line and then each level's float32 buffer
straight from its array, so the payload is never copied into one `bytes`;
`pyramid_to_bytes` returns the same bytes in memory. It writes a new file
beside the path and renames that onto it, so a reader never sees a partly
written container, a failed write leaves nothing behind, and a pyramid can
be written over the file it was read from.

`read_container` maps the file copy-on-write rather than reading the payload
into fresh memory. Its levels are writable views of the map, and writes never
reach the file; it checks every value finite. Each live pyramid mapped from a
file holds one open file descriptor until its last level is dropped, so
holding more than `ulimit -n` at once fails. A file truncated by another
process while it is mapped raises SIGBUS, not ContainerError, when a lost page
is read.

`map_container`, which the CLI uses, makes the same header checks and no pass
over the values, and each of its errors starts with the path. Its levels are
`pyramid.MappedFeatureMap`s, whose values are checked finite by the code that
reads them (`pyramid.finite_features`), naming the file and the level. So
`attend` checks every value as it computes the scores, `solve-template` and
`track` check the cells they gather, and `attend --mode detection` reads the
header only. A non-finite value in a cell a command never reads no longer
fails it.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
import operator
import os
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ContainerError, InvalidInputError
from .pyramid import (
    BoundingBox,
    FeatureMap,
    FeaturePyramid,
    MappedFeatureMap,
    Mask,
    first_bad_box_row,
)
from .metrics import GroundtruthColumns, GroundtruthSequence, TrackColumns

CONTAINER_VERSION = 1


def _header_line(pyramid: FeaturePyramid) -> bytes:
    """A container's header line, newline included, for the pyramid's levels
    laid out back to back as float32."""
    records = []
    offset = 0
    for fm, stride in zip(pyramid.levels, pyramid.strides):
        length = 4 * fm.data.size
        records.append(
            {
                "level": fm.level,
                "height": fm.height,
                "width": fm.width,
                "depth": fm.depth,
                "dtype": "f32",
                "stride": stride,
                "byte_offset": offset,
                "byte_length": length,
            }
        )
        offset += length
    header = {
        "version": CONTAINER_VERSION,
        "image_size": [pyramid.image_height, pyramid.image_width],
        "levels": records,
    }
    return json.dumps(header, separators=(",", ":")).encode() + b"\n"


def _payload(fm: FeatureMap) -> np.ndarray:
    """A level's payload: its data as a C-contiguous little-endian float32 array,
    the data itself when it already is one."""
    return np.ascontiguousarray(fm.data, dtype="<f4")


def pyramid_to_bytes(pyramid: FeaturePyramid) -> bytes:
    return _header_line(pyramid) + b"".join(_payload(fm).tobytes() for fm in pyramid.levels)


def _split(buf) -> tuple[bytes, np.ndarray]:
    """A container's header line and a uint8 view of the payload after it."""
    newline = buf.find(b"\n")
    if newline < 0:
        raise ContainerError("no header terminator found in first bytes of container")
    return buf[:newline], np.frombuffer(buf, np.uint8)[newline + 1:]


def pyramid_from_bytes(buf: bytes) -> FeaturePyramid:
    """Decode a container; the levels share one writable copy of the payload."""
    header_line, payload = _split(buf)
    return _decode(header_line, payload.copy(), FeatureMap)


def _decode(header_line: bytes, payload: np.ndarray, level_type) -> FeaturePyramid:
    """Validate the header against the payload; each level is a view into the
    payload, built by level_type(level, data)."""
    try:
        header = json.loads(header_line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"malformed container header: {exc}") from exc
    if not isinstance(header, dict) or "levels" not in header:
        raise ContainerError("container header missing 'levels'")
    records, image = _record("", header, "container header", _HEADER)
    parsed = []
    for level, h, w, d, off, length, stride, _ in zip(
            *(column.tolist() for column in _records("", records, "level record", _LEVEL))):
        stride = 2**level if stride is None else stride
        if min(h, w, d) < 1:
            raise ContainerError(f"level {level}: shape {h}x{w}x{d} must be positive")
        if length != h * w * d * 4:
            raise ContainerError(
                f"level {level}: declared byte_length {length} != {h}x{w}x{d}x4"
            )
        if off < 0 or off + length > len(payload):
            raise ContainerError(
                f"level {level}: payload truncated, need bytes [{off}, {off + length}) "
                f"but payload has {len(payload)} bytes"
            )
        parsed.append((level, (h, w, d), off, stride))
    spans = sorted((off, off + 4 * h * w * d, level) for level, (h, w, d), off, _ in parsed)
    for (s0, e0, l0), (s1, e1, l1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ContainerError(
                f"levels {l0} and {l1} declare overlapping byte ranges "
                f"[{s0}, {e0}) and [{s1}, {e1})"
            )
    strides = [stride for *_, stride in parsed]
    ih, iw = image or (None, None)
    try:
        maps = [
            level_type(level, np.frombuffer(payload, "<f4", h * w * d, off).reshape(h, w, d))
            for level, (h, w, d), off, _ in parsed
        ]
        return FeaturePyramid(maps, strides=tuple(strides), image_height=ih, image_width=iw)
    except InvalidInputError as exc:
        raise ContainerError(f"container holds an invalid pyramid: {exc}") from exc


def write_container(pyramid: FeaturePyramid, path) -> None:
    """Write the bytes of `pyramid_to_bytes`: the header line, then each level
    straight from its array (a level that is not C-contiguous `<f4` is
    converted on its own).

    The bytes go to a new file beside the path, which then replaces it. So a
    pyramid read from the path, whose levels map the old file, stays readable
    while it is written.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(_header_line(pyramid))
            for fm in pyramid.levels:
                fh.write(_payload(fm))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _mapped(path) -> mmap.mmap:
    """The file mapped copy-on-write."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap refuses an empty file
            raise ContainerError("no header terminator found in first bytes of container")
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)


def read_container(path) -> FeaturePyramid:
    """Decode a container file mapped copy-on-write, checking every value;
    the levels are views of the map.

    Its errors are worded as `pyramid_from_bytes`'s, without the path. See the
    module docstring for the file descriptor each live pyramid holds and for
    SIGBUS on a file truncated while mapped.
    """
    return _decode(*_split(_mapped(path)), FeatureMap)


def map_container(path) -> FeaturePyramid:
    """Decode a container file's header as `read_container` does, with no pass
    over its values; each ContainerError starts with the path.

    The levels are `MappedFeatureMap`s: the code that reads their values
    checks what it reads, naming the file and level of a non-finite one.
    """
    level_type = functools.partial(MappedFeatureMap, source=str(path))
    try:
        return _decode(*_split(_mapped(path)), level_type)
    except ContainerError as exc:
        raise ContainerError(f"{path}: {exc}") from exc


def _mask_to_json(mask: Mask) -> dict:
    return {"size": [mask.height, mask.width], "runs": list(mask.runs)}


def _mask_from_json(obj) -> Optional[Mask]:
    if not obj:  # no mask
        return None
    try:
        h, w = obj["size"]
        return Mask(int(h), int(w), tuple(int(r) for r in obj["runs"]))
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        raise ValueError(f"bad mask record: {exc}") from exc


@dataclass
class ManifestFrame:
    frame: int
    pyramid: Path
    candidates: Optional[Path] = None


@dataclass
class SequenceManifest:
    init_box: BoundingBox
    frames: list[ManifestFrame] = field(default_factory=list)

    def __post_init__(self):
        idx = [f.frame for f in self.frames]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ContainerError("manifest frame indices must be strictly increasing")


def save_manifest(manifest: SequenceManifest, path) -> None:
    base = Path(path).parent
    frames = []
    for f in manifest.frames:
        rec = {"frame": f.frame, "pyramid": os.path.relpath(f.pyramid, base)}
        if f.candidates is not None:
            rec["candidates"] = os.path.relpath(f.candidates, base)
        frames.append(rec)
    doc = {"init_box": manifest.init_box.as_list(), "frames": frames}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> SequenceManifest:
    """A sequence manifest whose files exist; each ContainerError starts with the path."""
    path = Path(path)
    init_box, records = _record(f"{path}: ", read_json(path, "manifest"), "manifest", _MANIFEST)
    frames = []
    for frame, pyr, cand in zip(*(column.tolist() for column in _records(
            f"{path}: ", records, "manifest frame", _MANIFEST_FRAME))):
        pyr, cand = path.parent / pyr, path.parent / cand if cand else None
        for kind, file in (("pyramid", pyr), ("candidates", cand)):
            if file is not None and not file.is_file():
                raise ContainerError(f"{path}: manifest references missing {kind} {file}")
        frames.append(ManifestFrame(frame, pyr, cand))
    return SequenceManifest(BoundingBox(*init_box), frames)


def save_candidates(boxes, path) -> None:
    """Write the boxes as a candidates file of unscored candidates."""
    records = [{"box": box.as_list()} for box in boxes]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def load_candidates(path) -> tuple[np.ndarray, np.ndarray]:
    """A candidates file's `_CANDIDATE` columns, box (K, 4) and confidence (K,),
    NaN where a candidate has none; each ContainerError starts with the path."""
    return tuple(_records(f"{path}: ", read_json(path, "candidates"), "candidate", _CANDIDATE))


def load_template(path) -> np.ndarray:
    """The `values` vector of a template JSON file written by solve-template."""
    (values,) = _record(f"{path}: ", read_json(path, "template"), "template", _TEMPLATE)
    return np.array(values, dtype=np.float64)


def scene_fields(doc) -> list:
    """A scene description's `_SCENE` values, `objects` as `_SCENE_OBJECT` columns."""
    *values, objects = _record("", doc, "scene description", _SCENE)
    return [*values, _records("", objects, "scene object", _SCENE_OBJECT)]


def write_tracks(track: TrackColumns, path) -> None:
    rows = zip(track.frame.tolist(), track.box.tolist(), track.confidence.tolist(),
               track.present.tolist(), track.mask)
    with open(path, "w") as fh:
        for frame, box, confidence, present, mask in rows:
            rec = {"frame": frame, "box": box, "confidence": confidence, "present": present}
            if mask is not None:
                rec["mask"] = _mask_to_json(mask)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _utf8_text(path) -> str:
    """A file's text; a ContainerError naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path, what: str):
    """The one JSON document in a UTF-8 file, parsed.

    A file that is not UTF-8 text, or not one JSON document, is a
    ContainerError starting with the path: `<path>: malformed <what> file: ...`.
    """
    try:
        return json.loads(_utf8_text(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ContainerError(f"{path}: malformed {what} file: {exc}") from exc


def _jsonl_objects(path, what: str):
    """A JSONL file's lines, the JSON objects on them, and the first bad line's error.

    Returns (lines, records, error): the records of the non-blank lines
    before the first one that is not one JSON object, and a ContainerError
    naming that line, or None.

    When every line holds exactly one '{' and one '}', the lines are parsed
    as one JSON list. If that list holds one object per line, each object is
    its own line: n objects need all n '{' and all n '}', so no brace sits in
    a string and no object nests another; the braces then alternate, and the
    i-th pair is the one on line i. Otherwise the lines are parsed one at a
    time, which also finds the first bad line.
    """
    lines = _utf8_text(path).splitlines()
    body = list(filter(str.strip, lines))
    joined = ",\n".join(body)
    # as many braces of each kind as lines, and each line holds both
    if (joined.count("{") == len(body) == joined.count("}")
            and all(map(operator.contains, body, repeat("{")))
            and all(map(operator.contains, body, repeat("}")))):
        try:
            records = json.loads(f"[{joined}]")
        except (ValueError, RecursionError):
            records = None
        if (records is not None and len(records) == len(body)
                and all(map(isinstance, records, repeat(dict)))):
            return lines, records, None
    records = []
    for line in body:
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            error = f"malformed {what}: {exc}"
        else:
            if isinstance(rec, dict):
                records.append(rec)
                continue
            error = f"{what} is not a JSON object: {line.strip()}"
        return lines, records, _line_error(lines, path, len(records), error)
    return lines, records, None


def _line_error(lines: list[str], path, index: int, message: str) -> ContainerError:
    """A ContainerError naming the index-th non-blank line as <path>:<line>."""
    lineno = [i for i, line in enumerate(lines, start=1) if line.strip()][index]
    return ContainerError(f"{path}:{lineno}: {message}")


class _FirstBad:
    """The first bad record of a file: the lowest index, then the first reported."""

    def __init__(self):
        self.index: Optional[int] = None
        self.message = ""

    def report(self, index: int, message: str) -> None:
        if self.index is None or index < self.index:
            self.index, self.message = index, message

    def report_rows(self, bad: np.ndarray, message) -> None:
        """Report the first True row of `bad`, with message(row)."""
        if bad.any():
            row = int(np.argmax(bad))
            self.report(row, message(row))


_MISSING = object()
_NO_BOX = [0.0, 0.0, 1.0, 1.0]
_FLOAT_MAX = float(np.finfo(np.float64).max)  # an int above it has no float


def _columns(records: list[dict], spec, bad: _FirstBad) -> list:
    """The spec's columns over the records (a JSONL file's lines, a JSON list's
    items or one JSON object); the first bad row of each goes to `bad`.

    A field is (key, default, kind, check): each record's value of the key,
    or `default` where it lacks the key (`_MISSING`: the record is bad), is
    read into one column by kind(values, key, bad); `check` is None or
    `_check`'s (accept, wording).
    """
    columns = []
    for key, default, kind, check in spec:
        try:
            values = [rec[key] for rec in records]
        except KeyError:
            values = [rec.get(key, default) for rec in records]
            if default is _MISSING:
                bad.report(values.index(_MISSING), f"missing field {key!r}")
        columns.append(kind(values, key, bad))
        if check is not None:
            _check(columns[-1], key, bad, *check)
    return columns


def _check(column: np.ndarray, key: str, bad: _FirstBad, accept, wording: str) -> None:
    """Report the first row accept(column) leaves False: wording.format(key, value, previous)."""
    bad.report_rows(~accept(column), lambda i: wording.format(
        key=key, value=column[i].tolist(), previous=column[i - 1].tolist()))


def _table(records: list[dict], spec, name) -> list:
    """The spec's columns; a ContainerError `<name(index)>: ...` for the first bad record."""
    bad = _FirstBad()
    columns = _columns(records, spec, bad)
    if bad.index is not None:
        raise ContainerError(f"{name(bad.index)}: {bad.message}")
    return columns


def _records(source: str, items, what: str, spec) -> list:
    """The spec's columns over a JSON list of objects; each ContainerError
    starts with `source` and names the item: `bad <what> <index>: ...`."""
    if not isinstance(items, list):
        raise ContainerError(f"{source}{what} records must be a JSON list, got {items!r}")
    for i, rec in enumerate(items):
        if not isinstance(rec, dict):
            raise ContainerError(f"{source}{what} {i} is not a JSON object: {rec!r}")
    return _table(items, spec, lambda i: f"{source}bad {what} {i}")


def _record(source: str, doc, what: str, spec) -> list:
    """The spec's values of one JSON object as Python values; each
    ContainerError starts with `source`: `bad <what>: ...`."""
    if not isinstance(doc, dict):
        raise ContainerError(f"{source}{what} file is not a JSON object: {doc!r}")
    return [column.tolist()[0] for column in _table([doc], spec, lambda i: f"{source}bad {what}")]


def _column(values: list, convert, dtype, kinds: str, shape: tuple, bad: _FirstBad) -> np.ndarray:
    """`convert` of each value, as one array; the first value it refuses is reported.

    Values that numpy reads into an array of one of the dtype `kinds` and of
    the right shape take one vectorized cast. Anything else (strings, nulls,
    integers beyond int64, wrong shapes) is converted value by value, as far
    as the first failure; the rows from there on stay 0.
    """
    try:
        arr = np.array(values)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is not None and arr.dtype.kind in kinds and arr.shape == (len(values), *shape):
        return arr.astype(dtype)
    out = np.zeros((len(values), *shape), dtype=dtype)
    for i, value in enumerate(values):
        try:
            out[i] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            bad.report(i, str(exc))
            break
    return out


# The kinds: each reads every record's value of a key into one column.

def _ints(values: list, key: str, bad: _FirstBad) -> np.ndarray:
    """(N,) int64: int() of each value."""
    def int64(value) -> int:
        number = int(value)
        if not -(2**63) <= number < 2**63:
            raise ValueError(f"{key} {number} outside the int64 range")
        return number

    return _column(values, int64, np.int64, "ib", (), bad)


def _floats(values: list, key: str, bad: _FirstBad) -> np.ndarray:
    """(N,) float64: float() of each value."""
    return _column(values, float, np.float64, "fiub", (), bad)


def _box_values(vals) -> list[float]:
    if not isinstance(vals, (list, tuple)) or len(vals) != 4:
        raise ValueError(f"box must be [x, y, w, h], got {vals!r}")
    return [float(v) for v in vals]


def _boxes(values: list, key: str, bad: _FirstBad, strict: bool = False) -> np.ndarray:
    """(N, 4) float64 boxes [x, y, w, h] that pass `BoundingBox`'s checks:
    float() of 4 values each, or if `strict`, 4 finite JSON numbers each,
    and a box refused quoted."""
    if strict:
        box = _valid(_finite_numbers(4), "4 finite numbers", np.float64, (4,))(values, key, bad)
    else:
        box = _column(values, _box_values, np.float64, "fiub", (4,), bad)
    refused = first_bad_box_row(box)
    if refused is not None:
        i, message = refused
        bad.report(i, f"{key} {values[i]!r}: {message}" if strict else message)
    return box


def _some_boxes(values: list, key: str, bad: _FirstBad) -> np.ndarray:
    """(N, 4) boxes as `_boxes`; a row of zeros where a value is falsy (no box)."""
    box = _boxes([v or _NO_BOX for v in values], key, bad)
    box[~_flags(values, key, bad)] = 0.0
    return box


def _scores(values: list, key: str, bad: _FirstBad) -> np.ndarray:
    """(N,) float64 as `_floats`, in [0, 1]; NaN where a value is null (no score)."""
    score = _floats([0.0 if v is None else v for v in values], key, bad)
    _check(score, key, bad, *_UNIT)
    score[[v is None for v in values]] = np.nan
    return score


def _flags(values: list, key: str, bad: _FirstBad) -> np.ndarray:
    """(N,) bool: the truth value of each JSON value."""
    return np.fromiter(map(bool, values), dtype=bool, count=len(values))


def _masks(values: list, key: str, bad: _FirstBad) -> tuple[Optional[Mask], ...]:
    """Each value as a `Mask`; None where a value is falsy (no mask)."""
    return tuple(_column(values, _mask_from_json, object, "", (), bad))


def _valid(test, words: str, dtype=object, shape: tuple = ()):
    """A kind: the values as they are, each passing test(value); one that
    does not is reported as `<key> must be <words>, got <value>`."""
    def kind(values: list, key: str, bad: _FirstBad) -> np.ndarray:
        def convert(value):
            if not test(value):
                raise ValueError(f"{key} must be {words}, got {value!r}")
            return value

        return _column(values, convert, dtype, "", shape, bad)

    return kind


def _size(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(
        type(n) is int and n >= 1 for n in value)


def _finite_numbers(count: Optional[int]):
    """A test: a list of finite JSON numbers, not booleans; `count` of them unless None."""
    return lambda value: isinstance(value, list) and count in (None, len(value)) and all(
        type(v) in (int, float) and abs(v) <= _FLOAT_MAX for v in value)


# The checks: (accept, wording) for `_check`.
_UNIT = (lambda c: (c >= 0.0) & (c <= 1.0), "{key} {value} outside [0, 1]")
_AT_LEAST_1 = (lambda n: n >= 1, "{key} must be at least 1, got {value}")
_INCREASING = (lambda f: np.concatenate(([True], f[1:] > f[:-1])),
               "frame {value} does not follow frame {previous}; frames must be strictly increasing")
_LIST = _valid(lambda v: isinstance(v, list), "a list")
_SIZE = "[height, width] of positive integers"

# The specs, one per JSON input, as README's "JSON inputs" lists them.
_HEADER = (("levels", _MISSING, _LIST, None),
           ("image_size", None, _valid(lambda v: v is None or _size(v), _SIZE), None))
_LEVEL = (*((key, _MISSING, _ints, None) for key in (
              "level", "height", "width", "depth", "byte_offset", "byte_length")),
          ("stride", None, _valid(lambda v: v is None or type(v) is int, "an integer"), None),
          ("dtype", "f32", _valid(lambda v: v == "f32", '"f32"'), None))
_TRACK = (("frame", _MISSING, _ints, _INCREASING), ("box", _MISSING, _boxes, None),
          ("confidence", _MISSING, _floats, _UNIT), ("present", _MISSING, _flags, None),
          ("mask", None, _masks, None))
_GROUNDTRUTH = (("frame", _MISSING, _ints, _INCREASING), ("present", _MISSING, _flags, None),
                ("box", None, _some_boxes, None), ("mask", None, _masks, None))
_CANDIDATE = (("box", _MISSING, _boxes, None), ("confidence", None, _scores, None))
_MANIFEST = (("init_box", _MISSING, _boxes, None), ("frames", _MISSING, _LIST, None))
_MANIFEST_FRAME = (
    ("frame", _MISSING, _ints, _INCREASING),
    ("pyramid", _MISSING, _valid(lambda v: isinstance(v, str), "a string"), None),
    ("candidates", None, _valid(lambda v: not v or isinstance(v, str), "a string or null"), None))
_TEMPLATE = (("values", _MISSING, _valid(_finite_numbers(None), "a list of finite numbers"),
              None),)
_SCENE = (
    ("image_size", _MISSING, _valid(_size, _SIZE), None),
    ("num_frames", _MISSING, _ints, _AT_LEAST_1), ("depth", 16, _ints, _AT_LEAST_1),
    ("seed", 0, _ints, None),
    ("noise_sigma", 0.0, _floats, (lambda s: (s >= 0.0) & (s < np.inf),
                                   "{key} must be finite and at least 0, got {value}")),
    ("distractor_overlap", 0.0, _floats, (lambda o: np.abs(o) <= 1.0,
                                          "{key} must be a cosine in [-1, 1], got {value}")),
    ("objects", _MISSING, _LIST, None))
_SCENE_OBJECT = (
    ("start", _MISSING, functools.partial(_boxes, strict=True), None),
    ("velocity", [0, 0], _valid(_finite_numbers(2), "2 finite numbers", np.float64, (2,)), None),
    ("is_target", False, _flags, None),
    ("absent_frames", [], _valid(lambda v: isinstance(v, list) and all(
        type(f) is int for f in v), "a list of ints"), None))


def _raise_first_bad(lines, path, what: str, bad: _FirstBad, parse_error) -> None:
    """Raise for the first bad record; a bad record precedes the unparsed line."""
    if bad.index is not None:
        raise _line_error(lines, path, bad.index, f"bad {what}: {bad.message}")
    if parse_error is not None:
        raise parse_error


def read_tracks(path) -> TrackColumns:
    """A tracks JSONL file as validated columns (`_TRACK`); the first bad
    record is named as <path>:<line> in a ContainerError."""
    lines, records, parse_error = _jsonl_objects(path, "track record")
    bad = _FirstBad()
    columns = _columns(records, _TRACK, bad)
    _raise_first_bad(lines, path, "track record", bad, parse_error)
    return TrackColumns(*columns)


def write_groundtruth(gt: GroundtruthSequence, path) -> None:
    with open(path, "w") as fh:
        for g in gt:
            rec = {
                "frame": g.frame,
                "present": g.present,
                "box": g.box.as_list() if g.box else None,
            }
            if g.mask is not None:
                rec["mask"] = _mask_to_json(g.mask)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_groundtruth(path) -> GroundtruthColumns:
    """A groundtruth JSONL file as validated columns (`_GROUNDTRUTH`), a box
    on every present frame; the first bad record is named as <path>:<line>
    in a ContainerError."""
    lines, records, parse_error = _jsonl_objects(path, "groundtruth")
    bad = _FirstBad()
    frame, present, box, mask = _columns(records, _GROUNDTRUTH, bad)
    has_box = box[:, 2] > 0.0  # every box has w > 0; a frame without one has zeros
    bad.report_rows(present & ~has_box,
                    lambda i: f"frame {frame[i]}: present groundtruth needs a box")
    _raise_first_bad(lines, path, "groundtruth", bad, parse_error)
    return GroundtruthColumns(frame, present, has_box, box, mask)


def _round_floats(obj, sig: int = 6):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.{sig}g}")
        return obj
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    return obj


def stable_json(obj) -> str:
    """Byte-stable JSON: sorted keys, floats at 6 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"
