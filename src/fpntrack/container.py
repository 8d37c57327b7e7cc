"""On-disk formats: pyramid containers, sequence manifests, candidate and template
JSON, track/gt JSONL.

A pyramid container is a single-line JSON header terminated by a newline,
followed by a raw little-endian float32 payload. Byte offsets in the
header are relative to the start of the payload. Unknown header keys are
ignored for forward compatibility.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ContainerError, InvalidInputError
from .pyramid import BoundingBox, FeatureMap, FeaturePyramid, Mask
from .tracker import Detection, Track, TrackEntry
from .metrics import GroundtruthFrame, GroundtruthSequence

CONTAINER_VERSION = 1


def pyramid_to_bytes(pyramid: FeaturePyramid) -> bytes:
    records = []
    chunks = []
    offset = 0
    for fm, stride in zip(pyramid.levels, pyramid.strides):
        raw = np.ascontiguousarray(fm.data, dtype="<f4").tobytes()
        records.append(
            {
                "level": fm.level,
                "height": fm.height,
                "width": fm.width,
                "depth": fm.depth,
                "dtype": "f32",
                "stride": stride,
                "byte_offset": offset,
                "byte_length": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    header = {
        "version": CONTAINER_VERSION,
        "image_size": [pyramid.image_height, pyramid.image_width],
        "levels": records,
    }
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + b"".join(chunks)


def pyramid_from_bytes(buf: bytes) -> FeaturePyramid:
    """Decode a container; the levels share one writable copy of the payload."""
    newline = buf.find(b"\n")
    if newline < 0:
        raise ContainerError("no header terminator found in first bytes of container")
    return _decode(buf[:newline], np.frombuffer(buf, np.uint8, offset=newline + 1).copy())


def _decode(header_line: bytes, payload: np.ndarray) -> FeaturePyramid:
    """Validate the header against the payload; each level is a view into the payload."""
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
        except (KeyError, TypeError, ValueError) as exc:
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
    maps = [
        FeatureMap(level, np.frombuffer(payload, "<f4", h * w * d, off).reshape(h, w, d))
        for level, (h, w, d), off, _ in parsed
    ]
    strides = [stride for *_, stride in parsed]
    image = header.get("image_size")
    ih, iw = (image if isinstance(image, list) and len(image) == 2 else (None, None))
    try:
        return FeaturePyramid(maps, strides=tuple(strides), image_height=ih, image_width=iw)
    except InvalidInputError as exc:
        raise ContainerError(f"container holds an invalid pyramid: {exc}") from exc


def write_container(pyramid: FeaturePyramid, path) -> None:
    Path(path).write_bytes(pyramid_to_bytes(pyramid))


def read_container(path) -> FeaturePyramid:
    """Decode a container file, reading its payload straight into the levels' buffer."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line.endswith(b"\n"):
            raise ContainerError("no header terminator found in first bytes of container")
        payload = np.fromfile(fh, np.uint8)
    return _decode(header_line[:-1], payload)


def _box_from_list(vals) -> BoundingBox:
    if not isinstance(vals, (list, tuple)) or len(vals) != 4:
        raise ContainerError(f"box must be [x, y, w, h], got {vals!r}")
    return BoundingBox(*[float(v) for v in vals])


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
    groundtruth: Optional[GroundtruthFrame] = None


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
        if f.groundtruth is not None:
            g = f.groundtruth
            rec["groundtruth"] = {
                "present": g.present,
                "box": g.box.as_list() if g.box else None,
                "mask": _mask_to_json(g.mask) if g.mask else None,
            }
        frames.append(rec)
    doc = {"init_box": manifest.init_box.as_list(), "frames": frames}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> SequenceManifest:
    path = Path(path)
    base = path.parent
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ContainerError(f"malformed manifest: {exc}") from exc
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
            gt = None
            if rec.get("groundtruth") is not None:
                g = rec["groundtruth"]
                gt = GroundtruthFrame(
                    frame=frame,
                    present=bool(g.get("present", False)),
                    box=_box_from_list(g["box"]) if g.get("box") else None,
                    mask=_mask_from_json(g["mask"]) if g.get("mask") else None,
                )
        except (KeyError, AttributeError, TypeError, ValueError, ContainerError,
                InvalidInputError) as exc:
            raise ContainerError(f"{path}: bad manifest frame {i}: {_reason(exc)}") from exc
        if not pyr.is_file():
            raise ContainerError(f"manifest references missing pyramid {pyr}")
        if cand is not None and not cand.is_file():
            raise ContainerError(f"manifest references missing candidates {cand}")
        frames.append(ManifestFrame(frame, pyr, cand, gt))
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
    try:
        records = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ContainerError(f"malformed candidates file: {exc}") from exc
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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ContainerError(f"{path}: malformed template file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContainerError(f"{path}: template file is not a JSON object: {doc!r}")
    try:
        values = np.asarray(doc["values"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: bad template: {_reason(exc)}") from exc
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ContainerError(f"{path}: bad template: values must be a list of finite numbers")
    return values


def write_tracks(track: Track, path) -> None:
    with open(path, "w") as fh:
        for entry in track:
            rec = {
                "frame": entry.frame,
                "box": entry.detection.box.as_list(),
                "confidence": entry.detection.confidence,
                "present": entry.present,
            }
            if entry.detection.mask is not None:
                rec["mask"] = _mask_to_json(entry.detection.mask)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


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


def _jsonl_records(path, what: str):
    """Yield (line number, record) for each non-blank line; records must be JSON objects."""
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


def read_tracks(path) -> Track:
    entries = []
    for lineno, rec in _jsonl_records(path, "track record"):
        try:
            box, confidence, frame, present = rec["box"], rec["confidence"], rec["frame"], rec["present"]
        except KeyError as exc:
            raise ContainerError(f"{path}:{lineno}: track record missing field {exc}") from exc
        try:
            mask = _mask_from_json(rec["mask"]) if rec.get("mask") else None
            det = Detection(box=_box_from_list(box), confidence=float(confidence), mask=mask)
            frame = int(frame)
        except (TypeError, ValueError, ContainerError, InvalidInputError) as exc:
            raise ContainerError(f"{path}:{lineno}: bad track record: {exc}") from exc
        entries.append(TrackEntry(frame, det, bool(present)))
    return Track(entries)


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


def read_groundtruth(path) -> GroundtruthSequence:
    frames = []
    for lineno, rec in _jsonl_records(path, "groundtruth"):
        try:
            frame, present = rec["frame"], rec["present"]
        except KeyError as exc:
            raise ContainerError(f"{path}:{lineno}: groundtruth record missing field {exc}") from exc
        try:
            gt = GroundtruthFrame(
                frame=int(frame),
                present=bool(present),
                box=_box_from_list(rec["box"]) if rec.get("box") else None,
                mask=_mask_from_json(rec["mask"]) if rec.get("mask") else None,
            )
        except (TypeError, ValueError, ContainerError, InvalidInputError) as exc:
            raise ContainerError(f"{path}:{lineno}: bad groundtruth: {exc}") from exc
        frames.append(gt)
    return GroundtruthSequence(frames)


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
