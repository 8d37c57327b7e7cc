"""Command-line interface: synth, solve-template, attend, track, eval, gradcheck.

Exit codes: 0 success, 1 user error or a failed check (a gradcheck FAIL),
2 internal error. Diagnostics go to stderr; machine-readable output goes to
files or stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import container, metrics, synth, templates
from .attention import similarity_pyramid
from .errors import ContainerError, FpnTrackError, InvalidInputError, UsageError
from .pyramid import BoundingBox, FeatureMap, FeaturePyramid
from .synth import SceneObject, SceneSpec, philox
from .scenarios import correlated_identities, linear_trajectory
from .tracker import Detection, TrackerConfig, run_track


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _parse_box(text: str) -> BoundingBox:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"box must be 'x,y,w,h', got {text!r}")
    try:
        return BoundingBox(*[float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"bad box {text!r}: {exc}") from exc


def _box_in_image(flag: str, text: str, pyramid: FeaturePyramid) -> BoundingBox:
    """The box a flag gives, which must meet the image [0, W) x [0, H)."""
    box = _parse_box(text)
    w, h = pyramid.image_width, pyramid.image_height
    if not (box.x < w and box.x2 > 0 and box.y < h and box.y2 > 0):
        raise UsageError(f"{flag} {text} lies outside the {w}x{h} image [0, {w}) x [0, {h})")
    return box


def _int_at_least(text: str, least: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type for a count of at least 1, so the error names the flag.

    The experiment scripts use it for their counts too.
    """
    return _int_at_least(text, 1, "a positive integer")


def _nonnegative_int(text: str) -> int:
    """argparse type for a count of at least 0."""
    return _int_at_least(text, 0, "a non-negative integer")


def _float_where(text: str, accept, kind: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
    return value


def _unit_fraction(text: str) -> float:
    """argparse type for a threshold: a finite number in [0, 1]."""
    return _float_where(text, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _positive_float(text: str) -> float:
    """argparse type for a step or tolerance: a finite number above 0."""
    return _float_where(text, lambda v: 0.0 < v < math.inf, "a positive finite number")


def _nonnegative_float(text: str) -> float:
    """argparse type for lambda or jitter: a finite number of at least 0."""
    return _float_where(text, lambda v: 0.0 <= v < math.inf, "a non-negative finite number")


def _finite_numbers(value, count: int, key: str) -> list[float]:
    """A list of `count` finite numbers as floats; ValueError naming `key` otherwise."""
    if not (isinstance(value, list) and len(value) == count
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in value)):
        raise ValueError(f"{key} must be {count} finite numbers, got {value!r}")
    return [float(v) for v in value]


def _scene_object_fields(obj) -> tuple[BoundingBox, float, float, list[int]]:
    """One scene object's start box, velocity and absent frames; ValueError if bad."""
    if not isinstance(obj, dict):
        raise ValueError(f"not a JSON object: {obj!r}")
    if "start" not in obj:
        raise ValueError("missing field 'start'")
    try:
        start = BoundingBox(*_finite_numbers(obj["start"], 4, "start"))
    except InvalidInputError as exc:
        raise ValueError(f"start {obj['start']!r}: {exc}") from exc
    vx, vy = _finite_numbers(obj.get("velocity", [0, 0]), 2, "velocity")
    absent = obj.get("absent_frames", [])
    if not (isinstance(absent, list)
            and all(isinstance(f, int) and not isinstance(f, bool) for f in absent)):
        raise ValueError(f"absent_frames must be a list of ints, got {absent!r}")
    return start, vx, vy, absent


def scene_from_json(doc: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON description.

    Schema:
      {"image_size": [H, W], "num_frames": N, "depth": D, "seed": S,
       "noise_sigma": s, "distractor_overlap": o,
       "objects": [{"start": [x, y, w, h], "velocity": [vx, vy],
                    "is_target": bool, "absent_frames": [f, ...]}, ...]}

    D is at least 1. Each object needs `start`, 4 finite numbers with w, h > 0;
    `velocity` is 2 finite numbers and `absent_frames` a list of ints. A bad
    object is a UsageError naming its index.
    """
    try:
        height, width = doc["image_size"]
        num_frames = int(doc["num_frames"])
        obj_docs = doc["objects"]
        depth = int(doc.get("depth", 16))
        seed = int(doc.get("seed", 0))
        overlap = float(doc.get("distractor_overlap", 0.0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad scene description: {exc}") from exc
    if depth < 1:
        raise UsageError(f"bad scene description: depth must be at least 1, got {depth}")
    if not isinstance(obj_docs, list):
        raise UsageError(f"bad scene description: objects must be a list, got {obj_docs!r}")
    target_id, distractor_id = correlated_identities(depth, overlap, seed)
    rng = philox(seed, stream=2)
    objects = []
    for i, obj in enumerate(obj_docs):
        try:
            start, vx, vy, absent = _scene_object_fields(obj)
        except ValueError as exc:
            raise UsageError(f"bad scene object {i}: {exc}") from exc
        is_target = bool(obj.get("is_target", False))
        if is_target:
            identity = target_id
        elif overlap > 0:
            identity = distractor_id
        else:
            identity = rng.normal(size=depth)
            identity /= np.linalg.norm(identity)
        objects.append(
            SceneObject(
                identity=identity,
                trajectory=linear_trajectory(start, vx, vy, absent=absent),
                is_target=is_target,
            )
        )
    return SceneSpec(
        image_height=int(height),
        image_width=int(width),
        num_frames=num_frames,
        objects=objects,
        noise_sigma=float(doc.get("noise_sigma", 0.0)),
        seed=seed,
    )


def cmd_synth(args) -> int:
    doc = json.loads(Path(args.scene).read_text())
    spec = scene_from_json(doc)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = []
    gt_frames = []
    init_box = None
    for f in range(spec.num_frames):
        pyramid, boxes, masks = synth.render_frame(spec, f)
        pyr_path = out / f"frame_{f:04d}.fpyr"
        container.write_container(pyramid, pyr_path)
        cand_path = out / f"candidates_{f:04d}.json"
        cand_boxes = synth.jittered_boxes(
            boxes, args.jitter, args.candidates_per_object, spec.seed * 100003 + f
        )
        container.save_candidates(cand_boxes, cand_path)
        ti = spec.target_index
        gt = metrics.GroundtruthFrame(
            frame=f, present=boxes[ti] is not None, box=boxes[ti], mask=masks[ti]
        )
        gt_frames.append(gt)
        if init_box is None and boxes[ti] is not None:
            init_box = boxes[ti]
        frames.append(container.ManifestFrame(f, pyr_path, cand_path))
    if init_box is None:
        raise UsageError("target is never visible; cannot set an init box")
    container.save_manifest(container.SequenceManifest(init_box, frames), out / "manifest.json")
    container.write_groundtruth(metrics.GroundtruthSequence(gt_frames), out / "gt.jsonl")
    print(out / "manifest.json")
    return 0


def _template_flags(parser):
    parser.add_argument(
        "--template-mode",
        choices=["center", "mean-pos", "mean-diff", "ridge"],
        default="ridge",
    )
    parser.add_argument("--lambda", dest="lam", type=_nonnegative_float, default=0.1)
    parser.add_argument("--negatives", type=positive_int, default=256)
    parser.add_argument("--positives", type=positive_int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--normalize-features", action="store_true")
    parser.add_argument("--balance-levels", action="store_true")


def _template_kwargs(args) -> dict:
    """build_template's keyword arguments from the _template_flags options."""
    return dict(
        lam=args.lam,
        num_negatives=args.negatives,
        num_positives=args.positives,
        seed=args.seed,
        normalize=args.normalize_features,
        balance_levels=args.balance_levels,
    )


def cmd_solve_template(args) -> int:
    pyramid = container.read_container(args.pyramid)
    box = _box_in_image("--box", args.box, pyramid)
    template = templates.build_template(
        pyramid, box, args.template_mode.replace("-", "_"), **_template_kwargs(args)
    )
    doc = {
        "kind": template.kind,
        "lambda": args.lam,
        "values": [float(v) for v in template.values],
    }
    text = container.stable_json(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_attend(args) -> int:
    pyramid = container.read_container(args.pyramid)
    template = container.load_template(args.template)
    if args.mode == "detection":
        sims = [np.ones((fm.height, fm.width)) for fm in pyramid.levels]
    else:
        try:
            sims = [s.scores for s in similarity_pyramid(pyramid, template)]
        except InvalidInputError as exc:  # a depth mismatch or a float64 overflow
            raise ContainerError(f"{args.template}: {exc}") from exc
        peak = max(float(np.abs(s).max()) for s in sims)
        if peak > float(np.finfo(np.float32).max):
            raise ContainerError(
                f"{args.template}: similarity scores overflow float32 "
                f"(largest magnitude {peak:.3g})"
            )
    maps = [
        FeatureMap(fm.level, s[:, :, None]) for fm, s in zip(pyramid.levels, sims)
    ]
    sim_pyramid = FeaturePyramid(
        maps,
        strides=pyramid.strides,
        image_height=pyramid.image_height,
        image_width=pyramid.image_width,
    )
    container.write_container(sim_pyramid, args.out)
    return 0


def _frame_detections(mf, pyramid, template) -> list[Detection]:
    """One manifest frame's candidates, unscored ones scored against the template.

    Reads the frame's container unless its pyramid is passed in.
    """
    if pyramid is None:
        pyramid = container.read_container(mf.pyramid)
    candidates = [] if mf.candidates is None else container.load_candidates(mf.candidates)
    unscored = [box for box, conf in candidates if conf is None]
    scored = iter(
        synth.score_candidates(unscored, *synth.candidate_features(pyramid, unscored), template)
    )
    return [next(scored) if conf is None else Detection(box=box, confidence=conf)
            for box, conf in candidates]


def cmd_track(args) -> int:
    manifest = container.load_manifest(args.sequence)
    if not manifest.frames:
        raise UsageError("manifest has no frames")
    init_pyramid = container.read_container(manifest.frames[0].pyramid)
    init_box = _box_in_image("--init", args.init, init_pyramid) if args.init else manifest.init_box

    # frame 0 scores its candidates on the pyramid the template is built from
    frames = [
        functools.partial(_frame_detections, mf, init_pyramid if i == 0 else None)
        for i, mf in enumerate(manifest.frames)
    ]
    config = TrackerConfig(
        alpha=args.alpha,
        alpha_low=args.alpha_low,
        alpha_recover=args.alpha_recover,
        recover_frames=args.recover_frames,
        presence_threshold=args.presence_threshold,
        smoothing_enabled=args.smooth,
    )
    track = run_track(
        frames,
        init_box,
        init_pyramid,
        config,
        args.template_mode.replace("-", "_"),
        **_template_kwargs(args),
    )
    container.write_tracks(track, args.out)
    return 0


def cmd_eval(args) -> int:
    track = container.read_tracks(args.pred)
    gt = container.read_groundtruth(args.gt)

    def joined(metric, *options):
        """metric(track, gt, *options), naming both files if the track lacks a gt frame."""
        try:
            return metric(track, gt, *options)
        except InvalidInputError as exc:
            raise ContainerError(f"{args.pred}: {exc} of {args.gt}") from exc

    if args.protocol == "got":
        ao, sr = joined(metrics.average_overlap, args.sr_threshold)
        report = {
            "protocol": "got",
            "ao": ao,
            "sr": sr,
            "sr_threshold": args.sr_threshold,
        }
    elif args.protocol == "oxuva":
        tpr, tnr = joined(metrics.oxuva_rates, args.theta, args.iou_threshold)
        fpr, tpr_curve = joined(metrics.roc_curve, args.iou_threshold)
        report = {
            "protocol": "oxuva",
            "tpr": tpr,
            "tnr": tnr,
            "gm": metrics.geometric_mean(tpr, tnr),
            "auc": metrics.trapezoid_auc(fpr, tpr_curve),
            "theta": args.theta,
            "iou_threshold": args.iou_threshold,
            "curve": {"fpr": list(fpr), "tpr": list(tpr_curve)},
        }
    elif args.protocol == "ltb35":
        p, r, f, theta = joined(metrics.longterm_prf)
        report = {
            "protocol": "ltb35",
            "precision": p,
            "recall": r,
            "f": f,
            "theta": theta,
        }
    else:  # davis
        pred_masks, gt_masks = joined(metrics.align_masks)
        if any(m is None for m in pred_masks) or any(m is None for m in gt_masks):
            raise UsageError("davis protocol requires masks on every frame")
        j_mean, j_recall, j_decay = metrics.davis_j(pred_masks, gt_masks)
        report = {
            "protocol": "davis",
            "j_mean": j_mean,
            "j_recall": j_recall,
            "j_decay": j_decay,
            "contour_f": "unavailable",
        }
    text = container.stable_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    rng = philox(args.seed, stream=3)
    a = rng.normal(size=(1 + args.negatives, args.dim))
    problem = templates.RegressionProblem.from_samples(a[0], list(a[1:]), args.lam)
    g = rng.normal(size=args.dim)
    analytic = templates.ridge_backward(problem, g)
    numeric = np.zeros_like(a)
    step = args.step
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            plus = a.copy()
            plus[i, j] += step
            minus = a.copy()
            minus[i, j] -= step
            t_plus = templates.solve_ridge(
                templates.RegressionProblem(plus, problem.labels, args.lam)
            ).values
            t_minus = templates.solve_ridge(
                templates.RegressionProblem(minus, problem.labels, args.lam)
            ).values
            numeric[i, j] = float(g @ (t_plus - t_minus)) / (2 * step)
    rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
    ok = rel < args.tolerance
    print(f"max relative error: {rel:.3e}")
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {args.tolerance:g})")
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The parser, built on the first call; each parse_args call starts afresh."""
    parser = _Parser(prog="fpntrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="render a synthetic scene to containers + manifest")
    p.add_argument("--scene", required=True, help="scene description JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jitter", type=_nonnegative_float, default=0.05)
    p.add_argument("--candidates-per-object", type=positive_int, default=4)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("solve-template", help="compute a template from a pyramid + box")
    p.add_argument("--pyramid", required=True)
    p.add_argument("--box", required=True,
                   help="x,y,w,h; a box starting with '-' is written --box=-4,-4,8,8")
    p.add_argument("--out", default=None)
    _template_flags(p)
    p.set_defaults(func=cmd_solve_template)

    p = sub.add_parser("attend", help="dump similarity maps for a pyramid + template")
    p.add_argument("--pyramid", required=True)
    p.add_argument("--template", required=True, help="template JSON from solve-template")
    p.add_argument("--mode", choices=["tracking", "detection"], default="tracking")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attend)

    p = sub.add_parser("track", help="run the tracker over a sequence manifest")
    p.add_argument("--sequence", required=True, help="manifest JSON")
    p.add_argument("--init", default=None,
                   help="x,y,w,h (defaults to manifest init box); a box starting with '-' "
                        "is written --init=-4,-4,8,8")
    p.add_argument("--out", required=True, help="output tracks JSONL")
    _template_flags(p)
    smooth = p.add_mutually_exclusive_group()
    smooth.add_argument("--smooth", dest="smooth", action="store_true", default=True)
    smooth.add_argument("--no-smooth", dest="smooth", action="store_false")
    p.add_argument("--alpha", type=_unit_fraction, default=0.6)
    p.add_argument("--alpha-low", type=_unit_fraction, default=0.1)
    p.add_argument("--alpha-recover", type=_unit_fraction, default=0.3)
    p.add_argument("--recover-frames", type=positive_int, default=30)
    p.add_argument("--presence-threshold", type=_unit_fraction, default=0.3)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="evaluate a track against groundtruth")
    p.add_argument("--pred", required=True, help="tracks JSONL")
    p.add_argument("--gt", required=True, help="groundtruth JSONL")
    p.add_argument("--protocol", choices=["got", "oxuva", "ltb35", "davis"], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--theta", type=_unit_fraction, default=0.3)
    p.add_argument("--sr-threshold", type=_unit_fraction, default=0.5)
    p.add_argument("--iou-threshold", type=_unit_fraction, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="check the ridge backward pass vs finite differences")
    p.add_argument("--dim", type=positive_int, default=16)
    p.add_argument("--negatives", type=_nonnegative_int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=_nonnegative_float, default=0.1)
    p.add_argument("--step", type=_positive_float, default=1e-4)
    p.add_argument("--tolerance", type=_positive_float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        if not argv:
            raise UsageError(parser.format_usage())
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError(parser.format_usage())
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (FpnTrackError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
