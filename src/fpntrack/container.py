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
from itertools import compress, repeat
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
    records = header["levels"]
    if not isinstance(records, list):
        raise ContainerError(f"container header 'levels' must be a list, got {records!r}")
    parsed = []
    for rec in records:
        try:
            h, w, d = int(rec["height"]), int(rec["width"]), int(rec["depth"])
            off, length = int(rec["byte_offset"]), int(rec["byte_length"])
            level = int(rec["level"])
            stride = int(rec["stride"]) if "stride" in rec else 2**level
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ContainerError(f"bad level record {rec!r}: {exc}") from exc
        if rec.get("dtype", "f32") != "f32":
            raise ContainerError(f"unsupported dtype {rec.get('dtype')!r}")
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
    image = header.get("image_size")
    if image is None:
        image = [None, None]
    elif not (isinstance(image, list) and len(image) == 2
              and all(type(v) is int and v >= 1 for v in image)):
        raise ContainerError(f"container header 'image_size' must be [height, width] "
                             f"of positive integers, got {image!r}")
    ih, iw = image
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


def _box_values(vals) -> list[float]:
    if not isinstance(vals, (list, tuple)) or len(vals) != 4:
        raise ContainerError(f"box must be [x, y, w, h], got {vals!r}")
    return [float(v) for v in vals]


def _box_from_list(vals) -> BoundingBox:
    return BoundingBox(*_box_values(vals))


def _mask_to_json(mask: Mask) -> dict:
    return {"size": [mask.height, mask.width], "runs": list(mask.runs)}


def _mask_from_json(obj) -> Mask:
    try:
        h, w = obj["size"]
        return Mask(int(h), int(w), tuple(int(r) for r in obj["runs"]))
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        raise ContainerError(f"bad mask record: {exc}") from exc


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
    path = Path(path)
    base = path.parent
    doc = read_json(path, "manifest")
    try:
        init_box = _box_from_list(doc["init_box"])
        raw_frames = doc["frames"]
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        raise ContainerError(f"{path}: bad manifest: {_reason(exc)}") from exc
    frames = []
    for i, rec in _json_list_records(path, raw_frames, "manifest frame"):
        try:
            frame = int(rec["frame"])
            pyr = base / rec["pyramid"]
            cand = base / rec["candidates"] if rec.get("candidates") else None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ContainerError(f"{path}: bad manifest frame {i}: {_reason(exc)}") from exc
        if not pyr.is_file():
            raise ContainerError(f"manifest references missing pyramid {pyr}")
        if cand is not None and not cand.is_file():
            raise ContainerError(f"manifest references missing candidates {cand}")
        frames.append(ManifestFrame(frame, pyr, cand))
    return SequenceManifest(init_box, frames)


def save_candidates(boxes, path, confidences=None) -> None:
    records = []
    for i, box in enumerate(boxes):
        rec = {"box": box.as_list()}
        if confidences is not None:
            rec["confidence"] = float(confidences[i])
        records.append(rec)
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def load_candidates(path) -> list[tuple[BoundingBox, Optional[float]]]:
    records = read_json(path, "candidates")
    out = []
    for i, rec in _json_list_records(path, records, "candidate"):
        try:
            conf = rec.get("confidence")
            if conf is not None:
                conf = float(conf)
                if not 0.0 <= conf <= 1.0:
                    raise ContainerError(f"confidence {conf} outside [0, 1]")
            out.append((_box_from_list(rec["box"]), conf))
        except (KeyError, TypeError, ValueError, ContainerError, InvalidInputError) as exc:
            raise ContainerError(f"{path}: bad candidate {i}: {_reason(exc)}") from exc
    return out


def load_template(path) -> np.ndarray:
    """The `values` vector of a template JSON file written by solve-template."""
    doc = read_json(path, "template")
    if not isinstance(doc, dict):
        raise ContainerError(f"{path}: template file is not a JSON object: {doc!r}")
    try:
        values = np.asarray(doc["values"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: bad template: {_reason(exc)}") from exc
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ContainerError(f"{path}: bad template: values must be a list of finite numbers")
    return values


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


def _reason(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def _json_list_records(path, records, what: str):
    """Yield (index, record) for a JSON list whose entries must be JSON objects."""
    if not isinstance(records, list):
        raise ContainerError(f"{path}: {what} records must be a JSON list, got {records!r}")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ContainerError(f"{path}: {what} {i} is not a JSON object: {rec!r}")
        yield i, rec


_MISSING = object()
_NO_BOX = [0.0, 0.0, 1.0, 1.0]


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


def _field(records: list[dict], key: str, what: str, bad: _FirstBad) -> list:
    """Every record's `key`; _MISSING, reported, where a record lacks it."""
    try:
        return [rec[key] for rec in records]
    except KeyError:
        values = [rec.get(key, _MISSING) for rec in records]
        bad.report(values.index(_MISSING), f"{what} missing field {key!r}")
        return values


def _column(values: list, convert, dtype, kinds: str, shape: tuple, bad: _FirstBad,
            what: str) -> np.ndarray:
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
        except (TypeError, ValueError, OverflowError, ContainerError) as exc:
            bad.report(i, f"bad {what}: {exc}")
            break
    return out


def _frame_value(value) -> int:
    frame = int(value)
    if not -(2**63) <= frame < 2**63:
        raise ContainerError(f"frame {frame} outside the int64 range")
    return frame


def _boxes(values: list, bad: _FirstBad, what: str) -> np.ndarray:
    """(N, 4) float64 boxes [x, y, w, h], each passing `BoundingBox`'s checks."""
    box = _column(values, _box_values, np.float64, "fiub", (4,), bad, what)
    refused = first_bad_box_row(box)
    if refused is not None:
        bad.report(refused[0], f"bad {what}: {refused[1]}")
    return box


def _frames(values: list, bad: _FirstBad, what: str) -> np.ndarray:
    """(N,) int64 frames."""
    return _column(values, _frame_value, np.int64, "ib", (), bad, what)


def _check_increasing(frame: np.ndarray, bad: _FirstBad, what: str) -> None:
    bad.report_rows(
        np.concatenate(([False], frame[1:] <= frame[:-1])),
        lambda i: f"bad {what}: frame {frame[i]} does not follow frame {frame[i - 1]}; "
                  "frames must be strictly increasing",
    )


def _flags(values: list) -> np.ndarray:
    """(N,) bool: the truth value of each JSON value."""
    return np.fromiter(map(bool, values), dtype=bool, count=len(values))


def _masks(records: list[dict], bad: _FirstBad, what: str) -> tuple[Optional[Mask], ...]:
    """Each record's mask, None where it has none."""
    objs = list(map(operator.methodcaller("get", "mask"), records))
    masks: list[Optional[Mask]] = [None] * len(records)
    for i in compress(range(len(objs)), objs):
        try:
            masks[i] = _mask_from_json(objs[i])
        except (ContainerError, OverflowError) as exc:
            bad.report(i, f"bad {what}: {exc}")
            break
    return tuple(masks)


def _raise_first_bad(lines, path, bad: _FirstBad, parse_error) -> None:
    """Raise for the first bad record; a bad record precedes the unparsed line."""
    if bad.index is not None:
        raise _line_error(lines, path, bad.index, bad.message)
    if parse_error is not None:
        raise parse_error


def read_tracks(path) -> TrackColumns:
    """A tracks JSONL file as validated columns.

    Each non-blank line is one JSON object with `frame`, `box`, `confidence`
    and `present`, and an optional `mask`. Boxes must be finite with w, h > 0,
    a finite area and finite far edges, confidences in [0, 1] and frames
    strictly increasing.
    The first bad record is named as <path>:<line> in a ContainerError.
    """
    lines, records, parse_error = _jsonl_objects(path, "track record")
    bad = _FirstBad()
    boxes, confidences, frames, present = (
        _field(records, key, "track record", bad)
        for key in ("box", "confidence", "frame", "present")
    )
    masks = _masks(records, bad, "track record")
    box = _boxes(boxes, bad, "track record")
    confidence = _column(confidences, float, np.float64, "fiub", (), bad, "track record")
    bad.report_rows(
        ~((confidence >= 0.0) & (confidence <= 1.0)),
        lambda i: f"bad track record: confidence {confidence[i]!r} outside [0, 1]",
    )
    frame = _frames(frames, bad, "track record")
    _check_increasing(frame, bad, "track record")
    _raise_first_bad(lines, path, bad, parse_error)
    return TrackColumns(frame, box, confidence, _flags(present), masks)


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
    """A groundtruth JSONL file as validated columns.

    Each non-blank line is one JSON object with `frame` and `present`, a
    `box` where the target is present, and an optional `mask`. Boxes must be
    finite with w, h > 0, a finite area and finite far edges, and frames
    strictly increasing.
    The first bad record is named as <path>:<line> in a ContainerError.
    """
    lines, records, parse_error = _jsonl_objects(path, "groundtruth")
    bad = _FirstBad()
    frames, present = (_field(records, key, "groundtruth record", bad)
                       for key in ("frame", "present"))
    frame = _frames(frames, bad, "groundtruth")
    present = _flags(present)
    boxes = list(map(operator.methodcaller("get", "box"), records))
    has_box = _flags(boxes)
    box = _boxes([b or _NO_BOX for b in boxes], bad, "groundtruth")
    box[~has_box] = 0.0
    masks = _masks(records, bad, "groundtruth")
    bad.report_rows(
        present & ~has_box,
        lambda i: f"bad groundtruth: frame {frame[i]}: present groundtruth needs a box",
    )
    _check_increasing(frame, bad, "groundtruth")
    _raise_first_bad(lines, path, bad, parse_error)
    return GroundtruthColumns(frame, present, has_box, box, masks)


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
