"""Hand-computed cases for the benchmark's reference checks.

    python3 -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import checks
from checks import Aligned, CheckError


def aligned(rows):
    """rows: (confidence, overlap with a 10x10 gt box or None when absent)."""
    gt, track = [], []
    for f, (conf, ovl) in enumerate(rows):
        present = ovl is not None
        gt.append({"frame": f, "present": present, "box": [0, 0, 10, 10] if present else None})
        # a box of width w starting at 0 overlaps [0, 0, 10, 10] by w / 10
        w = 10 * ovl if present and ovl > 0 else 10
        x = 0 if present and ovl > 0 else 50
        track.append({"frame": f, "box": [x, 0, w, 10], "confidence": conf})
    return Aligned(track, gt)


def test_iou_hand_cases():
    assert checks.iou([0, 0, 2, 2], [0, 0, 2, 2]) == 1.0
    assert checks.iou([0, 0, 2, 2], [2, 0, 2, 2]) == 0.0
    assert checks.iou([0, 0, 2, 2], [1, 0, 2, 2]) == pytest.approx(2 / 6)


def test_ao_sr():
    al = aligned([(0.9, 1.0), (0.8, 0.4), (0.2, None)])
    ao, sr = checks.ao_sr(al)
    assert ao == pytest.approx(0.7)
    assert sr == 0.5


def test_auc_three_of_four_pairs_ranked():
    # present 0.9 / 0.3 against absent 0.5 / 0.1
    al = aligned([(0.9, 1.0), (0.3, 1.0), (0.5, None), (0.1, None)])
    fpr, tpr, auc = checks.roc(al)
    assert auc == 0.75
    assert fpr.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    assert tpr.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0, 1.0]


def test_roc_with_tied_confidences():
    # thresholds 0, 0.2, 0.4, 0.7 and above-max; 0.4 is both a present and an absent score
    al = aligned([(0.7, 1.0), (0.4, 1.0), (0.4, None), (0.2, None)])
    fpr, tpr, auc = checks.roc(al)
    assert list(zip(fpr, tpr)) == [(0, 0), (0, 0.5), (0.5, 1), (1, 1), (1, 1)]
    assert auc == 0.875  # 3.5 of 4 pairs, the tie counting one half
    # one tie only: theta 0, the tied score and above-max
    fpr, tpr, auc = checks.roc(aligned([(0.5, 1.0), (0.5, None)]))
    assert list(zip(fpr, tpr)) == [(0, 0), (1, 1), (1, 1)]
    assert auc == 0.5


def test_oxuva_rates_need_localization_and_use_ge_theta():
    al = aligned([(0.9, 1.0), (0.9, 0.2), (0.3, None), (0.29, None)])
    tpr, tnr = checks.oxuva_curve(al, [0.0, 0.3, 0.9, 1.5])
    assert tpr.tolist() == [0.5, 0.5, 0.5, 0.0]  # the 0.2-overlap frame never counts
    assert tnr.tolist() == [0.0, 0.5, 1.0, 1.0]  # 0.3 >= 0.3 is predicted present


def test_oxuva_report_check():
    al = aligned([(0.9, 1.0), (0.3, 1.0), (0.5, None), (0.1, None)])
    report = {"tpr": 0.5, "tnr": 0.5, "gm": 0.5, "auc": 0.75, "theta": 0.5,
              "iou_threshold": 0.5,
              "curve": {"fpr": [0, 0, 0.5, 0.5, 1, 1], "tpr": [0, 0.5, 0.5, 1, 1, 1]}}
    checks.check_oxuva(report, al)
    with pytest.raises(CheckError):
        checks.check_oxuva(dict(report, auc=0.7), al)
    with pytest.raises(CheckError):
        checks.check_oxuva(dict(report, curve={"fpr": [0, 1], "tpr": [0, 1]}), al)


LTB_ROWS = [(0.9, 1.0), (0.6, 0.6), (0.8, None), (0.3, 0.0)]


def test_longterm_prf_table():
    thetas, p, r, f = checks.longterm_prf_table(aligned(LTB_ROWS))
    assert thetas.tolist() == [0.3, 0.6, 0.8, 0.9]
    # theta 0.3: all four predicted; P = 1.6 / 4, R = 1.6 / 3
    assert p.tolist() == pytest.approx([0.4, 1.6 / 3, 0.5, 1.0])
    assert r.tolist() == pytest.approx([1.6 / 3, 1.6 / 3, 1 / 3, 1 / 3])
    assert f.tolist() == pytest.approx([2 * 0.4 * (1.6 / 3) / (0.4 + 1.6 / 3), 1.6 / 3, 0.4, 0.5])


def test_ltb35_report_check():
    al = aligned(LTB_ROWS)
    best = {"precision": 0.533333, "recall": 0.533333, "f": 0.533333, "theta": 0.6}
    checks.check_ltb35(best, al)
    with pytest.raises(CheckError):  # a threshold that does not maximize F
        checks.check_ltb35({"precision": 1.0, "recall": 0.333333, "f": 0.533333, "theta": 0.9}, al)
    with pytest.raises(CheckError):
        checks.check_ltb35(dict(best, f=0.5), al)


def test_got_report_check():
    al = aligned([(0.9, 1.0), (0.8, 0.4), (0.2, None)])
    checks.check_got({"ao": 0.7, "sr": 0.5, "sr_threshold": 0.5}, al)
    with pytest.raises(CheckError):
        checks.check_got({"ao": 0.7, "sr": 0.5, "sr_threshold": 0.3}, al)


def write_fpyr(path, levels, strides):
    records, chunks, offset = [], [], 0
    for level, (arr, stride) in enumerate(zip(levels, strides), start=2):
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        h, w, d = arr.shape
        records.append({"level": level, "height": h, "width": w, "depth": d, "dtype": "f32",
                        "stride": stride, "byte_offset": offset, "byte_length": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps({"version": 1, "levels": records}).encode()
    path.write_bytes(header + b"\n" + b"".join(chunks))


def small_pyramid(rng, depth=3):
    return [rng.normal(size=(8, 8, depth)).astype(np.float32),
            rng.normal(size=(4, 4, depth)).astype(np.float32)]


def test_read_fpyr_round_trip(tmp_path):
    levels = small_pyramid(np.random.default_rng(0))
    write_fpyr(tmp_path / "p.fpyr", levels, [4, 8])
    header, got = checks.read_fpyr(tmp_path / "p.fpyr")
    assert [rec["level"] for rec in header["levels"]] == [2, 3]
    for a, b in zip(got, levels):
        assert np.array_equal(a, b)


def test_attend_check(tmp_path):
    rng = np.random.default_rng(1)
    feats = small_pyramid(rng)
    template = np.array([0.5, -1.0, 2.0])
    sims = [(f.astype(np.float64) @ template)[:, :, None] for f in feats]
    write_fpyr(tmp_path / "sims.fpyr", sims, [4, 8])
    checks.check_attend(tmp_path / "sims.fpyr", feats, template)
    sims[1][2, 3, 0] += 1e-3
    write_fpyr(tmp_path / "bad.fpyr", sims, [4, 8])
    with pytest.raises(CheckError):
        checks.check_attend(tmp_path / "bad.fpyr", feats, template)


def test_centre_feature_picks_assigned_level_and_cell():
    levels = [np.arange(8 * 8 * 2, dtype=np.float32).reshape(8, 8, 2),
              np.zeros((4, 4, 2), dtype=np.float32)]
    header = {"levels": [{"level": 2, "stride": 4}, {"level": 3, "stride": 8}]}
    # an 8x8 box is far below 224 px, so level 2; its centre (12, 12) is cell (3, 3)
    assert checks.centre_feature(header, levels, [8, 8, 8, 8]).tolist() == [54.0, 55.0]
    # a centre past the grid clamps to the last cell
    assert checks.centre_feature(header, levels, [60, 60, 8, 8]).tolist() == [126.0, 127.0]


def test_ridge_template_check():
    centre = np.array([2.0])
    # D=1, lambda=1: t = 2 / (4 + 1) = 0.4, fitted 0.8
    checks.check_ridge_template({"kind": "ridge", "values": [0.4]}, centre)
    for bad in (
        {"kind": "ridge", "values": [0.5]},  # fitted 1.0: the lambda = 0 interpolant
        {"kind": "ridge", "values": [-0.1]},  # fitted below 0
        {"kind": "ridge", "values": [0.4, 0.0]},  # wrong length
        {"kind": "ridge", "values": [float("nan")]},
        {"kind": "center", "values": [0.4]},
    ):
        with pytest.raises(CheckError):
            checks.check_ridge_template(bad, centre)


def test_ridge_fitted_value_is_hat_diagonal():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(9, 20))  # wider than tall, as at D=1024
    y = np.eye(9)[0]
    t = np.linalg.solve(a.T @ a + 0.1 * np.eye(20), a.T @ y)
    checks.check_ridge_template({"kind": "ridge", "values": t.tolist()}, a[0])
    t0 = np.linalg.pinv(a) @ y  # lambda -> 0 interpolates the positive row exactly
    with pytest.raises(CheckError):
        checks.check_ridge_template({"kind": "ridge", "values": t0.tolist()}, a[0])


def test_bootstrap_lower_and_ablation_ordering():
    assert checks.bootstrap_lower(np.full(50, 0.1)) == pytest.approx(0.1)
    good = {"center": np.full(10, 0.5), "mean_pos": np.full(10, 0.6),
            "mean_diff": np.full(10, 0.6), "ridge": np.full(10, 0.7)}
    assert checks.check_ablation(good)["ridge_minus_center_lower"] == pytest.approx(0.2)
    with pytest.raises(CheckError):
        checks.check_ablation(dict(good, mean_pos=np.full(10, 0.8)))
    with pytest.raises(CheckError):
        checks.check_ablation(dict(good, center=np.full(10, 1.2)))
    # in order by mean, but a gap of 0.01 against a spread of 0.3 is not resolved
    noisy = good["center"] + np.array([0.31, -0.29] * 5)
    with pytest.raises(CheckError, match="bootstrap"):
        checks.check_ablation(dict(good, ridge=noisy, mean_pos=good["center"]))
