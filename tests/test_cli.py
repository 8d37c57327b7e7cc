import json
from pathlib import Path

import numpy as np
import pytest

from fpntrack.cli import main
from fpntrack.container import read_container, read_tracks
from fpntrack.errors import InvalidInputError
from fpntrack.pyramid import BoundingBox
from fpntrack.templates import build_template

SCENE = {
    "image_size": [64, 64],
    "num_frames": 8,
    "depth": 8,
    "seed": 0,
    "noise_sigma": 0.0,
    "distractor_overlap": 0.0,
    "objects": [
        {"start": [8, 20, 24, 24], "velocity": [2, 0], "is_target": True},
        {"start": [36, 4, 16, 16], "velocity": [0, 2]},
    ],
}


@pytest.fixture
def scene_dir(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(SCENE))
    out = tmp_path / "seq"
    rc = main(
        [
            "synth",
            "--scene",
            str(scene_path),
            "--out-dir",
            str(out),
            "--jitter",
            "0",
            "--candidates-per-object",
            "1",
        ]
    )
    assert rc == 0
    return out


class TestUsage:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_fails(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_fails(self, capsys):
        assert main(["synth"]) == 1
        assert "--scene" in capsys.readouterr().err

    def test_missing_input_file_is_user_error(self, capsys, tmp_path):
        rc = main(["synth", "--scene", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_bad_box_string_fails(self, capsys, scene_dir):
        rc = main(
            [
                "solve-template",
                "--pyramid",
                str(scene_dir / "frame_0000.fpyr"),
                "--box",
                "1,2,3",
            ]
        )
        assert rc == 1
        assert "x,y,w,h" in capsys.readouterr().err


class TestSynth:
    def test_writes_containers_manifest_and_groundtruth(self, scene_dir):
        assert (scene_dir / "manifest.json").exists()
        assert (scene_dir / "gt.jsonl").exists()
        frames = sorted(scene_dir.glob("frame_*.fpyr"))
        assert len(frames) == 8
        pyr = read_container(frames[0])
        assert pyr.depth == 8
        cands = json.loads((scene_dir / "candidates_0000.json").read_text())
        assert len(cands) == 2  # one candidate per visible object

    @pytest.mark.parametrize(
        "index, change, message",
        [(1, {"start": None}, "bad scene object 1: missing field 'start'"),
         (0, {"start": [8, 20, 24]}, "bad scene object 0: start must be 4 finite numbers"),
         (0, {"start": [8, 20, 0, 24]}, "bad scene object 0: start [8, 20, 0, 24]: "
                                        "degenerate box: w=0.0, h=24.0"),
         (1, {"velocity": [1, "2"]}, "bad scene object 1: velocity must be 2 finite numbers"),
         (0, {"velocity": [1, 2, 3]}, "bad scene object 0: velocity must be 2 finite numbers"),
         (1, {"absent_frames": [1, 2.5]},
          "bad scene object 1: absent_frames must be a list of ints"),
         (0, {"absent_frames": 3}, "bad scene object 0: absent_frames must be a list of ints")],
    )
    def test_bad_scene_object_names_its_index(self, tmp_path, capsys, index, change, message):
        obj = {k: v for k, v in {**SCENE["objects"][index], **change}.items() if v is not None}
        objects = list(SCENE["objects"])
        objects[index] = obj
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, objects=objects)))
        rc = main(["synth", "--scene", str(scene_path), "--out-dir", str(tmp_path / "seq")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "seq").exists()

    @pytest.mark.parametrize(
        "change, message",
        [({"depth": 0}, "bad scene description: depth must be at least 1, got 0"),
         ({"depth": "deep"}, "bad scene description: invalid literal for int()"),
         ({"objects": {"start": [8, 20, 24, 24]}},
          "bad scene description: objects must be a list")],
    )
    def test_bad_scene_field_is_usage_error(self, tmp_path, capsys, change, message):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, **change)))
        rc = main(["synth", "--scene", str(scene_path), "--out-dir", str(tmp_path / "seq")])
        assert rc == 1
        assert message in capsys.readouterr().err


class TestSolveTemplateAndAttend:
    def test_center_template_output(self, scene_dir, tmp_path):
        out = tmp_path / "template.json"
        rc = main(
            [
                "solve-template",
                "--pyramid",
                str(scene_dir / "frame_0000.fpyr"),
                "--box",
                "8,20,24,24",
                "--template-mode",
                "center",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "center"
        assert len(doc["values"]) == 8

    def test_normalize_features_template_output(self, scene_dir, tmp_path):
        frame = scene_dir / "frame_0000.fpyr"
        docs = {}
        for name, extra in (("raw", []), ("unit", ["--normalize-features"])):
            out = tmp_path / f"{name}.json"
            rc = main(["solve-template", "--pyramid", str(frame), "--box", "8,20,24,24",
                       "--negatives", "32", "--out", str(out), *extra])
            assert rc == 0
            docs[name] = json.loads(out.read_text())
        want = build_template(read_container(frame), BoundingBox(8, 20, 24, 24), "ridge",
                              num_negatives=32, normalize=True)
        assert docs["unit"]["kind"] == "ridge"
        assert docs["unit"]["values"] == pytest.approx(want.values.tolist(), rel=1e-5)
        assert docs["unit"]["values"] != docs["raw"]["values"]

    def test_box_whose_area_overflows_is_user_error(self, scene_dir, capsys):
        rc = main(["solve-template", "--pyramid", str(scene_dir / "frame_0000.fpyr"),
                   "--box", "0,0,1e200,1e200", "--template-mode", "center"])
        assert rc == 1
        assert "box area overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("box, inside", [
        ("4000,2000,96,96", False), ("64,0,8,8", False), ("0,-8,8,8", False),
        ("-4,-4,8,8", True), ("60,60,100,100", True),
    ])
    def test_box_must_meet_the_image(self, scene_dir, tmp_path, capsys, box, inside):
        rc = main(["solve-template", "--pyramid", str(scene_dir / "frame_0000.fpyr"),
                   f"--box={box}", "--template-mode", "center",
                   "--out", str(tmp_path / "template.json")])
        err = capsys.readouterr().err
        if inside:
            assert rc == 0
        else:
            assert rc == 1
            assert f"--box {box} lies outside the 64x64 image" in err

    def test_init_box_must_meet_the_image(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "tracks.jsonl"
        rc = main(["track", "--sequence", str(scene_dir / "manifest.json"),
                   "--init", "4000,2000,24,24", "--out", str(out)])
        assert rc == 1
        assert "--init 4000,2000,24,24 lies outside the 64x64 image" in capsys.readouterr().err
        assert not out.exists()

    def test_detection_mode_attention_is_uniform(self, scene_dir, tmp_path):
        template = tmp_path / "template.json"
        main(
            [
                "solve-template",
                "--pyramid",
                str(scene_dir / "frame_0000.fpyr"),
                "--box",
                "8,20,24,24",
                "--out",
                str(template),
            ]
        )
        sims = tmp_path / "sims.fpyr"
        rc = main(
            [
                "attend",
                "--pyramid",
                str(scene_dir / "frame_0000.fpyr"),
                "--template",
                str(template),
                "--mode",
                "detection",
                "--out",
                str(sims),
            ]
        )
        assert rc == 0
        pyr = read_container(sims)
        assert pyr.depth == 1
        for fm in pyr.levels:
            assert np.all(fm.data == 1.0)

    def test_tracking_mode_attention_varies(self, scene_dir, tmp_path):
        template = tmp_path / "template.json"
        main(
            [
                "solve-template",
                "--pyramid",
                str(scene_dir / "frame_0000.fpyr"),
                "--box",
                "8,20,24,24",
                "--out",
                str(template),
            ]
        )
        sims = tmp_path / "sims.fpyr"
        rc = main(
            [
                "attend",
                "--pyramid",
                str(scene_dir / "frame_0000.fpyr"),
                "--template",
                str(template),
                "--out",
                str(sims),
            ]
        )
        assert rc == 0
        pyr = read_container(sims)
        assert any(fm.data.std() > 0 for fm in pyr.levels)

    def test_attend_in_place_replaces_the_pyramid(self, scene_dir, tmp_path):
        # the frame is mapped while attend writes over it
        template = tmp_path / "template.json"
        frame = tmp_path / "frame.fpyr"
        frame.write_bytes((scene_dir / "frame_0000.fpyr").read_bytes())
        assert main(["solve-template", "--pyramid", str(frame), "--box", "8,20,24,24",
                     "--out", str(template)]) == 0
        sims = tmp_path / "sims.fpyr"
        assert main(["attend", "--pyramid", str(frame), "--template", str(template),
                     "--out", str(sims)]) == 0
        assert main(["attend", "--pyramid", str(frame), "--template", str(template),
                     "--out", str(frame)]) == 0
        assert frame.read_bytes() == sims.read_bytes()
        pyr = read_container(frame)
        assert pyr.depth == 1
        assert pyr.level_labels == read_container(scene_dir / "frame_0000.fpyr").level_labels


class TestTrackAndEval:
    def run_pipeline(self, scene_dir, tmp_path, extra_track=()):
        tracks = tmp_path / "tracks.jsonl"
        rc = main(
            [
                "track",
                "--sequence",
                str(scene_dir / "manifest.json"),
                "--out",
                str(tracks),
                "--template-mode",
                "center",
                *extra_track,
            ]
        )
        assert rc == 0
        return tracks

    def test_clean_scene_tracks_perfectly(self, scene_dir, tmp_path):
        tracks = self.run_pipeline(scene_dir, tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "eval",
                "--pred",
                str(tracks),
                "--gt",
                str(scene_dir / "gt.jsonl"),
                "--protocol",
                "got",
                "--out",
                str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["ao"] == pytest.approx(1.0)
        assert report["sr"] == pytest.approx(1.0)

    def test_track_output_is_readable_and_present(self, scene_dir, tmp_path):
        tracks = self.run_pipeline(scene_dir, tmp_path, ("--no-smooth",))
        track = read_tracks(tracks)
        assert track.frame.tolist() == list(range(8))
        assert track.present.all()

    def test_oxuva_report_fields(self, tmp_path, capsys):
        # the oxuva rates need at least one groundtruth-absent frame
        scene = dict(SCENE)
        scene["objects"] = [
            dict(SCENE["objects"][0], absent_frames=[5, 6]),
            SCENE["objects"][1],
        ]
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        seq = tmp_path / "seq"
        assert (
            main(
                [
                    "synth",
                    "--scene",
                    str(scene_path),
                    "--out-dir",
                    str(seq),
                    "--jitter",
                    "0",
                    "--candidates-per-object",
                    "1",
                ]
            )
            == 0
        )
        tracks = self.run_pipeline(seq, tmp_path)
        capsys.readouterr()
        rc = main(
            [
                "eval",
                "--pred",
                str(tracks),
                "--gt",
                str(seq / "gt.jsonl"),
                "--protocol",
                "oxuva",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tpr"] == pytest.approx(1.0)
        assert report["gm"] == pytest.approx(np.sqrt(report["tpr"] * report["tnr"]), abs=1e-4)
        assert np.isfinite(report["auc"]) and 0.0 <= report["auc"] <= 1.0
        fpr, tpr = report["curve"]["fpr"], report["curve"]["tpr"]
        assert len(fpr) == len(tpr)
        assert all(a <= b for a, b in zip(fpr, fpr[1:]))

    def test_ltb35_report(self, scene_dir, tmp_path, capsys):
        tracks = self.run_pipeline(scene_dir, tmp_path)
        rc = main(
            [
                "eval",
                "--pred",
                str(tracks),
                "--gt",
                str(scene_dir / "gt.jsonl"),
                "--protocol",
                "ltb35",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f"] == pytest.approx(1.0)

    def test_davis_requires_masks(self, scene_dir, tmp_path, capsys):
        tracks = self.run_pipeline(scene_dir, tmp_path)
        rc = main(
            [
                "eval",
                "--pred",
                str(tracks),
                "--gt",
                str(scene_dir / "gt.jsonl"),
                "--protocol",
                "davis",
            ]
        )
        assert rc == 1
        assert "mask" in capsys.readouterr().err

    MASK = {"size": [4, 4], "runs": [0, 16]}

    def write_masked(self, path, frames, masks):
        path.write_text("".join(
            json.dumps({"frame": f, "box": [0, 0, 4, 4], "confidence": 0.9, "present": True,
                        "mask": m}) + "\n"
            for f, m in zip(frames, masks)
        ))

    def test_davis_pairs_masks_by_frame(self, tmp_path, capsys):
        # the track's extra frame 0 has an empty mask; paired by position it
        # would meet the groundtruth's frame 1
        pred, gt = tmp_path / "dt.jsonl", tmp_path / "dg.jsonl"
        self.write_masked(pred, range(5), [{"size": [4, 4], "runs": [16]}] + [self.MASK] * 4)
        self.write_masked(gt, range(1, 5), [self.MASK] * 4)
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--protocol", "davis"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["j_mean"] == 1.0

    @pytest.mark.parametrize("protocol", ["got", "davis"])
    def test_groundtruth_frame_missing_from_masked_track(self, tmp_path, capsys, protocol):
        pred, gt = tmp_path / "dt.jsonl", tmp_path / "dg.jsonl"
        self.write_masked(pred, range(1, 5), [self.MASK] * 4)
        self.write_masked(gt, range(4), [self.MASK] * 4)
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--protocol", protocol])
        assert rc == 1
        assert f"{pred}: track is missing frame 0 of {gt}" in capsys.readouterr().err


class TestMalformedJsonl:
    TRACK = {"frame": 0, "box": [0, 0, 5, 5], "confidence": 0.9, "present": True}
    GT = {"frame": 0, "present": True, "box": [0, 0, 5, 5]}

    def run_eval(self, tmp_path, track_rec, gt_rec):
        pred, gt = tmp_path / "tracks.jsonl", tmp_path / "gt.jsonl"
        pred.write_text(json.dumps(self.TRACK) + "\n" + json.dumps(track_rec) + "\n")
        gt.write_text(json.dumps(self.GT) + "\n" + json.dumps(gt_rec) + "\n")
        return main(["eval", "--pred", str(pred), "--gt", str(gt), "--protocol", "got"])

    def test_track_record_without_box_is_user_error(self, tmp_path, capsys):
        rec = {k: v for k, v in self.TRACK.items() if k != "box"}
        rc = self.run_eval(tmp_path, dict(rec, frame=1), dict(self.GT, frame=1))
        err = capsys.readouterr().err
        assert rc == 1
        assert "tracks.jsonl:2:" in err and "'box'" in err

    def test_groundtruth_record_without_present_is_user_error(self, tmp_path, capsys):
        rec = {k: v for k, v in self.GT.items() if k != "present"}
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=1), dict(rec, frame=1))
        err = capsys.readouterr().err
        assert rc == 1
        assert "gt.jsonl:2:" in err and "'present'" in err

    def test_track_line_not_an_object_is_user_error(self, tmp_path, capsys):
        rc = self.run_eval(tmp_path, [1, 2], dict(self.GT, frame=1))
        err = capsys.readouterr().err
        assert rc == 1
        assert "tracks.jsonl:2:" in err and "not a JSON object" in err

    def test_groundtruth_line_not_an_object_is_user_error(self, tmp_path, capsys):
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=1), [1, 2])
        err = capsys.readouterr().err
        assert rc == 1
        assert "gt.jsonl:2:" in err and "not a JSON object" in err

    def test_track_field_of_wrong_type_is_user_error(self, tmp_path, capsys):
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=1, confidence="abc"),
                           dict(self.GT, frame=1))
        err = capsys.readouterr().err
        assert rc == 1
        assert "tracks.jsonl:2:" in err and "abc" in err

    def test_groundtruth_field_of_wrong_type_is_user_error(self, tmp_path, capsys):
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=1),
                           dict(self.GT, frame=[1]))
        err = capsys.readouterr().err
        assert rc == 1
        assert "gt.jsonl:2:" in err and "bad groundtruth" in err

    @pytest.mark.parametrize("bad_file", ["tracks", "gt"])
    def test_box_whose_area_underflows_is_user_error(self, tmp_path, capsys, bad_file):
        tiny = [0, 0, 1e-200, 1e-200]
        track, gt = dict(self.TRACK, frame=1), dict(self.GT, frame=1)
        (track if bad_file == "tracks" else gt)["box"] = tiny
        rc = self.run_eval(tmp_path, track, gt)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{bad_file}.jsonl:2:" in err and "degenerate box" in err

    @pytest.mark.parametrize("bad_file", ["tracks", "gt"])
    def test_box_whose_area_overflows_is_user_error(self, tmp_path, capsys, bad_file):
        huge = [0, 0, 1e200, 1e200]
        track, gt = dict(self.TRACK, frame=1), dict(self.GT, frame=1)
        (track if bad_file == "tracks" else gt)["box"] = huge
        rc = self.run_eval(tmp_path, track, gt)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{bad_file}.jsonl:2:" in err and "box area overflows" in err

    @pytest.mark.parametrize("box", [[0, 0, 1e-200, 1e-200], [0, 0, 1e200, 1e200]])
    def test_box_message_prints_values_as_bounding_box_does(self, tmp_path, capsys, box):
        with pytest.raises(InvalidInputError) as expected:
            BoundingBox(*box)
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=1, box=box), dict(self.GT, frame=1))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"tracks.jsonl:2: bad track record: {expected.value}\n" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("bad_file", ["tracks", "gt"])
    def test_box_whose_edge_overflows_is_user_error(self, tmp_path, capsys, bad_file):
        # a finite area but an infinite x + w: the overlap would be NaN
        far = [1e308, 0, 1e308, 1]
        track, gt = dict(self.TRACK, frame=1), dict(self.GT, frame=1)
        (track if bad_file == "tracks" else gt)["box"] = far
        rc = self.run_eval(tmp_path, track, gt)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{bad_file}.jsonl:2:" in err and "box edge overflows" in err

    def test_track_frame_that_does_not_increase_names_its_line(self, tmp_path, capsys):
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=0), dict(self.GT, frame=1))
        err = capsys.readouterr().err
        assert rc == 1
        assert "tracks.jsonl:2:" in err and "strictly increasing" in err

    def test_groundtruth_frame_missing_from_track_names_pred_file(self, tmp_path, capsys):
        rc = self.run_eval(tmp_path, dict(self.TRACK, frame=1), dict(self.GT, frame=3))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{tmp_path / 'tracks.jsonl'}: track is missing frame 3" in err


class TestMalformedSequence:
    """`track` on a synthesized sequence with one record broken: exit 1, file and index named."""

    @pytest.fixture
    def seq(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, num_frames=3)))
        out = tmp_path / "seq"
        assert main(["synth", "--scene", str(scene_path), "--out-dir", str(out)]) == 0
        return out

    def run_track(self, seq, capsys):
        rc = main(["track", "--sequence", str(seq / "manifest.json"),
                   "--out", str(seq / "tracks.jsonl"), "--template-mode", "center"])
        return rc, capsys.readouterr().err

    def edit_manifest_frame(self, seq, **changes):
        path = seq / "manifest.json"
        doc = json.loads(path.read_text())
        frame = doc["frames"][1]
        for key, value in changes.items():
            if value is None:
                del frame[key]
            else:
                frame[key] = value
        path.write_text(json.dumps(doc))

    def test_candidate_without_box_is_user_error(self, seq, capsys):
        (seq / "candidates_0001.json").write_text(json.dumps([{"confidence": 0.5}]))
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "candidates_0001.json: bad candidate 0: missing field 'box'" in err

    def test_candidate_that_is_a_list_is_user_error(self, seq, capsys):
        (seq / "candidates_0001.json").write_text(json.dumps([[1, 2, 3, 4]]))
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "candidates_0001.json: candidate 0 is not a JSON object" in err

    def test_candidate_confidence_above_one_is_user_error(self, seq, capsys):
        (seq / "candidates_0001.json").write_text(
            json.dumps([{"box": [8, 20, 24, 24], "confidence": 1.5}])
        )
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "candidates_0001.json: bad candidate 0: confidence 1.5 outside [0, 1]" in err

    def test_manifest_frame_without_pyramid_is_user_error(self, seq, capsys):
        self.edit_manifest_frame(seq, pyramid=None)
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "manifest.json: bad manifest frame 1: missing field 'pyramid'" in err

    def test_manifest_frame_index_not_an_int_is_user_error(self, seq, capsys):
        self.edit_manifest_frame(seq, frame="x")
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "manifest.json: bad manifest frame 1:" in err and "'x'" in err

    def test_manifest_frame_index_infinite_is_user_error(self, seq, capsys):
        self.edit_manifest_frame(seq, frame=float("inf"))  # written as Infinity
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "manifest.json: bad manifest frame 1:" in err and "infinity" in err

    def test_manifest_frame_pyramid_that_is_a_directory_is_user_error(self, seq, capsys):
        self.edit_manifest_frame(seq, pyramid="")
        rc, err = self.run_track(seq, capsys)
        assert rc == 1
        assert "manifest references missing pyramid" in err


class TestMalformedTemplate:
    """`attend` with a broken template file: exit 1, the template file named."""

    @pytest.fixture
    def frame(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, num_frames=3)))
        out = tmp_path / "seq"
        assert main(["synth", "--scene", str(scene_path), "--out-dir", str(out)]) == 0
        return out / "frame_0000.fpyr"

    def run_attend(self, frame, tmp_path, capsys, doc):
        template = tmp_path / "template.json"
        template.write_text(json.dumps(doc))
        rc = main(["attend", "--pyramid", str(frame), "--template", str(template),
                   "--out", str(tmp_path / "sims.fpyr")])
        return rc, capsys.readouterr().err

    def test_template_that_is_a_list_is_user_error(self, frame, tmp_path, capsys):
        rc, err = self.run_attend(frame, tmp_path, capsys, [1, 2])
        assert rc == 1
        assert "template.json: template file is not a JSON object" in err

    def test_template_without_values_is_user_error(self, frame, tmp_path, capsys):
        rc, err = self.run_attend(frame, tmp_path, capsys, {"kind": "ridge"})
        assert rc == 1
        assert "template.json: bad template: missing field 'values'" in err

    def test_template_with_non_numeric_values_is_user_error(self, frame, tmp_path, capsys):
        rc, err = self.run_attend(frame, tmp_path, capsys, {"values": ["a", "b"]})
        assert rc == 1
        assert "template.json: bad template:" in err and "'a'" in err

    def test_template_whose_scores_overflow_float32_is_user_error(self, frame, tmp_path, capsys):
        rc, err = self.run_attend(frame, tmp_path, capsys, {"values": [1e40] * SCENE["depth"]})
        assert rc == 1
        assert "template.json: similarity scores overflow float32" in err
        assert "feature map" not in err


class TestGradcheck:
    def test_prints_error_and_passes(self, capsys):
        rc = main(["gradcheck", "--dim", "6", "--negatives", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in out
        assert "PASS" in out

    def test_huge_step_fails_with_exit_code_one(self, capsys):
        # a FAIL verdict is a failed check, not an internal error (exit 2)
        rc = main(["gradcheck", "--dim", "6", "--negatives", "8", "--step", "10.0"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestValueFlags:
    """Numeric flag values out of range end as usage errors that name the flag and value."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--sr-threshold", "nan"), ("--theta", "-3"), ("--iou-threshold", "2"),
         ("--theta", "inf"), ("--sr-threshold", "half")],
    )
    def test_eval_threshold_outside_unit_interval(self, tmp_path, capsys, flag, value):
        pred, gt = tmp_path / "tracks.jsonl", tmp_path / "gt.jsonl"
        pred.write_text(json.dumps(TestMalformedJsonl.TRACK) + "\n")
        gt.write_text(json.dumps(TestMalformedJsonl.GT) + "\n")
        out = tmp_path / "report.json"
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--protocol", "got",
                   "--out", str(out), f"{flag}={value}"])
        assert rc == 1
        assert f"argument {flag}: must be a number in [0, 1], got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, kind",
        [("--dim", "0", "a positive integer"),
         ("--negatives", "-5", "a non-negative integer"),
         ("--step", "0", "a positive finite number"),
         ("--step", "nan", "a positive finite number"),
         ("--lambda", "nan", "a non-negative finite number"),
         ("--lambda", "-1", "a non-negative finite number"),
         ("--tolerance", "nan", "a positive finite number"),
         ("--tolerance", "0", "a positive finite number")],
    )
    def test_gradcheck_value_names_flag(self, capsys, flag, value, kind):
        assert main(["gradcheck", f"{flag}={value}"]) == 1
        assert f"argument {flag}: must be {kind}, got '{value}'" in capsys.readouterr().err

    def test_gradcheck_accepts_zero_negatives(self, capsys):
        assert main(["gradcheck", "--dim", "4", "--negatives", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flag, value",
        [("solve-template", "--lambda", "nan"), ("solve-template", "--lambda", "-0.5"),
         ("track", "--lambda", "nan"), ("track", "--lambda", "inf"),
         ("synth", "--jitter", "-1"), ("synth", "--jitter", "nan")],
    )
    def test_negative_or_nonfinite_value_names_flag(
        self, scene_dir, tmp_path, capsys, command, flag, value
    ):
        required = {
            "solve-template": ["--pyramid", str(scene_dir / "frame_0000.fpyr"),
                               "--box", "8,20,24,24"],
            "track": ["--sequence", str(scene_dir / "manifest.json"),
                      "--out", str(tmp_path / "t.jsonl")],
            "synth": ["--scene", str(tmp_path / "scene.json"),
                      "--out-dir", str(tmp_path / "again")],
        }[command]
        assert main([command, *required, f"{flag}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a non-negative finite number, got '{value}'" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--alpha", "nan"), ("--alpha", "1.5"), ("--alpha-low", "-0.1"),
         ("--alpha-recover", "inf"), ("--presence-threshold", "2")],
    )
    def test_track_smoothing_value_outside_unit_interval(
        self, scene_dir, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "t.jsonl"
        rc = main(["track", "--sequence", str(scene_dir / "manifest.json"),
                   "--out", str(out), f"{flag}={value}"])
        assert rc == 1
        assert f"argument {flag}: must be a number in [0, 1], got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_calls_parse_independently(self, capsys):
        assert main(["gradcheck", "--dim", "2", "--negatives", "0", "--tolerance", "1e-300"]) == 1
        assert main(["gradcheck", "--dim", "2", "--negatives", "0"]) == 0
        assert "PASS" in capsys.readouterr().out.splitlines()[-1]


class TestCountFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve-template", "--negatives", "0"),
            ("solve-template", "--negatives", "-5"),
            ("solve-template", "--positives", "0"),
            ("track", "--negatives", "0"),
            ("track", "--recover-frames", "0"),
            ("synth", "--candidates-per-object", "0"),
        ],
    )
    def test_nonpositive_count_names_flag_and_value(
        self, scene_dir, tmp_path, capsys, command, flag, value
    ):
        # center templates draw no samples, so only the flag check can refuse
        center = ["--template-mode", "center"]
        required = {
            "solve-template": ["--pyramid", str(scene_dir / "frame_0000.fpyr"),
                               "--box", "8,20,24,24", *center],
            "track": ["--sequence", str(scene_dir / "manifest.json"),
                      "--out", str(tmp_path / "t.jsonl"), *center],
            "synth": ["--scene", str(tmp_path / "scene.json"),
                      "--out-dir", str(tmp_path / "again")],
        }[command]
        assert main([command, *required, f"{flag}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer, got '{value}'" in err


class TestSingularRidge:
    SCENE = {
        "image_size": [64, 64],
        "num_frames": 3,
        "depth": 8,
        "seed": 1,
        "noise_sigma": 0.0,
        "objects": [{"start": [8, 8, 16, 16], "velocity": [1, 0], "is_target": True}],
    }

    @pytest.fixture
    def seq(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(self.SCENE))
        assert main(["synth", "--scene", str(scene_path), "--out-dir", str(tmp_path / "seq")]) == 0
        return tmp_path / "seq"

    @pytest.mark.parametrize("command", ["solve-template", "track"])
    def test_lambda_zero_reports_singular_matrix(self, seq, tmp_path, capsys, command):
        args = {
            "solve-template": ["--pyramid", str(seq / "frame_0000.fpyr"), "--box", "8,8,16,16"],
            "track": ["--sequence", str(seq / "manifest.json"), "--out", str(tmp_path / "t.jsonl")],
        }[command]
        capsys.readouterr()
        assert main([command, *args, "--lambda", "0"]) == 1
        err = capsys.readouterr().err
        assert "normal matrix is singular (condition number inf)" in err
        assert "condition number -" not in err
