"""Reference computations the benchmark checks fpntrack's outputs against.

Nothing here imports fpntrack: each check reads the program's files (track
and groundtruth JSONL, `.fpyr` containers, template and report JSON) with
its own parser and recomputes the expected values with numpy. The metric
references use one sort plus cumulative sums, so they are also cheap next to
the per-threshold loops they check.

Reports written by `fpntrack eval` and `solve-template` round floats to 6
significant digits (`container.stable_json`), so scalar comparisons use
`REL_TOL`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-5
ABS_TOL = 1e-12
# Relative error of a float32 rounding, with one ulp of slack.
F32_RTOL = 2.0 ** -22


class CheckError(AssertionError):
    """An output of the program disagrees with the reference computation."""


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def expect_close(what: str, got: float, want: float) -> None:
    if not close(got, want):
        raise CheckError(f"{what}: program reports {got!r}, reference gives {want!r}")


# ---------------------------------------------------------------- boxes, JSONL


def iou(a, b) -> float:
    """IoU of two [x, y, w, h] boxes under half-open continuous areas."""
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return min(inter / (a[2] * a[3] + b[2] * b[3] - inter), 1.0)


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


class Aligned:
    """A track aligned to its groundtruth: confidence, overlap and presence per frame."""

    def __init__(self, track: list[dict], gt: list[dict]):
        by_frame = {rec["frame"]: rec for rec in track}
        conf, ovl, present = [], [], []
        for g in gt:
            e = by_frame[g["frame"]]
            conf.append(float(e["confidence"]))
            ovl.append(iou(e["box"], g["box"]) if g.get("box") else 0.0)
            present.append(bool(g["present"]))
        self.conf = np.asarray(conf)
        self.overlap = np.asarray(ovl)
        self.present = np.asarray(present, dtype=bool)

    @classmethod
    def from_files(cls, track_path, gt_path) -> "Aligned":
        return cls(read_jsonl(track_path), read_jsonl(gt_path))


# ---------------------------------------------------------------- metrics


def ao_sr(al: Aligned, sr_threshold: float = 0.5) -> tuple[float, float]:
    """GOT average overlap and success rate over groundtruth-present frames."""
    o = al.overlap[al.present]
    return float(np.mean(o)), float(np.mean(o > sr_threshold))


def _counts_below(sorted_conf: np.ndarray, flags_sorted: np.ndarray, thetas) -> np.ndarray:
    """For each theta, how many flagged frames have confidence < theta."""
    cum = np.concatenate(([0], np.cumsum(flags_sorted)))
    return cum[np.searchsorted(sorted_conf, thetas, side="left")]


def oxuva_curve(al: Aligned, thetas, iou_threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """(TPR, TNR) at each theta, a frame being predicted present when confidence >= theta."""
    order = np.argsort(al.conf, kind="stable")
    conf = al.conf[order]
    good = (al.present & (al.overlap > iou_threshold))[order]
    absent = ~al.present[order]
    pos = int(al.present.sum())
    neg = int(absent.sum())
    if pos == 0 or neg == 0:
        raise CheckError("OxUvA rates need present and absent frames")
    thetas = np.asarray(thetas, dtype=np.float64)
    tp = int(good.sum()) - _counts_below(conf, good, thetas)
    tn = _counts_below(conf, absent, thetas)
    return tp / pos, tn / neg


def roc_thresholds(conf: np.ndarray) -> list[float]:
    """0, every distinct confidence, and one threshold above the maximum."""
    distinct = sorted(set(conf.tolist()))
    top = np.nextafter(max(distinct, default=0.0) + 1, np.inf)
    return [0.0] + distinct + [float(top)]


def roc(al: Aligned, iou_threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray, float]:
    """ROC points (FPR, TPR) sorted by FPR then TPR, and the trapezoid AUC."""
    tpr, tnr = oxuva_curve(al, roc_thresholds(al.conf), iou_threshold)
    fpr = 1.0 - tnr
    order = np.lexsort((tpr, fpr))
    fpr, tpr = fpr[order], tpr[order]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
    return fpr, tpr, auc


def longterm_prf_table(al: Aligned) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(theta, P, R, F) at every distinct confidence, ascending in theta."""
    n_present = int(al.present.sum())
    if n_present == 0:
        raise CheckError("long-term P/R/F needs present frames")
    order = np.argsort(al.conf, kind="stable")
    conf = al.conf[order]
    ovl = al.overlap[order]
    ovl_present = np.where(al.present[order], ovl, 0.0)
    # suffix sums: totals over frames at sorted index >= k
    suffix_ovl = np.concatenate((np.cumsum(ovl[::-1])[::-1], [0.0]))
    suffix_ovl_present = np.concatenate((np.cumsum(ovl_present[::-1])[::-1], [0.0]))
    thetas = np.unique(conf)
    k = np.searchsorted(conf, thetas, side="left")
    n_pred = len(conf) - k
    p = suffix_ovl[k] / n_pred
    r = suffix_ovl_present[k] / n_present
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return thetas, p, r, f


# ---------------------------------------------------------------- report checks


def check_got(report: dict, al: Aligned) -> None:
    ao, sr = ao_sr(al, report["sr_threshold"])
    expect_close("got ao", report["ao"], ao)
    expect_close("got sr", report["sr"], sr)


def check_oxuva(report: dict, al: Aligned) -> None:
    thr = report["iou_threshold"]
    tpr, tnr = oxuva_curve(al, [report["theta"]], thr)
    expect_close("oxuva tpr", report["tpr"], float(tpr[0]))
    expect_close("oxuva tnr", report["tnr"], float(tnr[0]))
    expect_close("oxuva gm", report["gm"], math.sqrt(tpr[0] * tnr[0]))
    fpr_ref, tpr_ref, auc = roc(al, thr)
    expect_close("oxuva auc", report["auc"], auc)
    fpr_got = report["curve"]["fpr"]
    tpr_got = report["curve"]["tpr"]
    if len(fpr_got) != len(fpr_ref) or len(tpr_got) != len(tpr_ref):
        raise CheckError(
            f"oxuva curve has {len(fpr_got)} points, reference has {len(fpr_ref)}"
        )
    for i, (a, b, c, d) in enumerate(zip(fpr_got, fpr_ref, tpr_got, tpr_ref)):
        expect_close(f"oxuva curve fpr[{i}]", a, float(b))
        expect_close(f"oxuva curve tpr[{i}]", c, float(d))


def check_ltb35(report: dict, al: Aligned) -> None:
    """The reported theta must maximize F, with P/R/F matching the reference there.

    The program keeps the smallest theta among equal F values; the two sides
    sum in different orders, so a near-tie is accepted at either theta.
    """
    thetas, p, r, f = longterm_prf_table(al)
    best = float(f.max())
    expect_close("ltb35 f", report["f"], best)
    # the reported theta is rounded, so every confidence it rounds from is a candidate
    for i in np.flatnonzero([close(report["theta"], float(t)) for t in thetas]):
        if (
            close(float(f[i]), best)
            and close(report["precision"], float(p[i]))
            and close(report["recall"], float(r[i]))
        ):
            return
    raise CheckError(
        f"ltb35 theta {report['theta']!r} with P {report['precision']!r} and "
        f"R {report['recall']!r} is not an F-maximizing threshold of the track"
    )


# ---------------------------------------------------------------- containers


def read_fpyr(path) -> tuple[dict, list[np.ndarray]]:
    """Decode a `.fpyr` container: (header, one float32 (H, W, D) array per level)."""
    buf = Path(path).read_bytes()
    newline = buf.index(b"\n")
    header = json.loads(buf[:newline])
    start = newline + 1
    levels = []
    for rec in header["levels"]:
        off = start + rec["byte_offset"]
        arr = np.frombuffer(buf, dtype="<f4", count=rec["byte_length"] // 4, offset=off)
        levels.append(arr.reshape(rec["height"], rec["width"], rec["depth"]))
    return header, levels


def check_attend(sims_path, features: list[np.ndarray], template: np.ndarray) -> None:
    """Similarity maps must equal features . template per cell, to float32 rounding."""
    _, sims = read_fpyr(sims_path)
    if len(sims) != len(features):
        raise CheckError(f"{sims_path}: {len(sims)} levels, input has {len(features)}")
    for lvl, (sim, feat) in enumerate(zip(sims, features)):
        if sim.shape != feat.shape[:2] + (1,):
            raise CheckError(f"{sims_path}: level {lvl} shape {sim.shape} for input {feat.shape}")
        ref = feat.astype(np.float64) @ template
        got = sim[:, :, 0].astype(np.float64)
        atol = 1e-9 * float(np.abs(ref).max())
        if not np.allclose(got, ref, rtol=F32_RTOL, atol=atol):
            worst = float(np.max(np.abs(got - ref)))
            raise CheckError(f"{sims_path}: level {lvl} differs from features.template by {worst:.3e}")


def centre_feature(header: dict, levels: list[np.ndarray], box) -> np.ndarray:
    """The feature under the box centre at its assigned level.

    Level k = floor(4 + log2(sqrt(w h) / 224)) clamped to [2, 5] and to the
    pyramid's levels; the cell is the one under the centre, clamped to the grid.
    """
    x, y, w, h = box
    labels = [rec["level"] for rec in header["levels"]]
    k = math.floor(4 + math.log2(math.sqrt(w * h) / 224.0))
    k = min(max(k, 2), 5, 2 + len(labels) - 1)
    k = min(max(k, labels[0]), labels[-1])
    i = labels.index(k)
    stride = header["levels"][i].get("stride", 2 ** k)
    grid = levels[i]
    row = min(max(math.floor((y + h / 2) / stride), 0), grid.shape[0] - 1)
    col = min(max(math.floor((x + w / 2) / stride), 0), grid.shape[1] - 1)
    return grid[row, col].astype(np.float64)


def check_ridge_template(doc: dict, centre: np.ndarray) -> None:
    """A ridge template: finite, length D, fitted value on its positive row in [0, 1).

    The fitted value t . a0 is the positive row's hat-matrix diagonal
    a0^T (A^T A + lambda I)^-1 a0, which lies in [0, 1) for lambda > 0. The
    interval is shrunk by the error the 6-digit JSON rounding can cause, so a
    value that rounds to 1 still fails.
    """
    t = np.asarray(doc["values"], dtype=np.float64)
    if doc.get("kind") != "ridge":
        raise CheckError(f"template kind {doc.get('kind')!r}, expected 'ridge'")
    if t.shape != centre.shape:
        raise CheckError(f"template length {t.size}, feature depth {centre.size}")
    if not np.isfinite(t).all():
        raise CheckError("template has NaN or Inf")
    fitted = float(t @ centre)
    slack = 1e-5 * float(np.abs(t * centre).sum())
    if not -slack <= fitted < 1.0 - slack:
        raise CheckError(f"fitted value on the positive row {fitted!r} outside [0, 1)")


# ---------------------------------------------------------------- ablation


def bootstrap_lower(diffs: np.ndarray, resamples: int = 2000, quantile: float = 0.025) -> float:
    """Lower percentile-bootstrap bound on the mean of paired differences."""
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(diffs), size=(resamples, len(diffs)))
    return float(np.quantile(diffs[idx].mean(axis=1), quantile))


def check_ablation(ao: dict[str, np.ndarray]) -> dict:
    """Every AO in [0, 1]; mean AO ridge >= mean_pos >= center; ridge beats center."""
    for kind, values in ao.items():
        if not ((values >= 0) & (values <= 1)).all():
            raise CheckError(f"{kind}: AO outside [0, 1]")
    means = {k: float(v.mean()) for k, v in ao.items()}
    if not means["ridge"] >= means["mean_pos"] >= means["center"]:
        raise CheckError(f"mean AO out of order: {means}")
    lower = bootstrap_lower(ao["ridge"] - ao["center"])
    if not lower > 0:
        raise CheckError(f"ridge - center bootstrap lower bound {lower} is not above 0")
    return {"mean_ao": means, "ridge_minus_center_lower": lower}
