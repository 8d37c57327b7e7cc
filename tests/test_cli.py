import ast
import builtins
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpntrack import attention, cli, container, synth, tracker
from fpntrack.cli import main
from fpntrack.container import read_container, read_tracks
from fpntrack.errors import InvalidInputError
from fpntrack.pyramid import (BoundingBox, cell_centres, center_cell, first_bad_box_row, in_box,
                              template_level)
from fpntrack.synth import box_rows, candidate_features, render_frame, score_candidates
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

    @staticmethod
    def reading(command, path, tmp_path):
        """Arguments for a command whose one input file is `path`."""
        return {
            "solve-template": ["solve-template", "--pyramid", str(path), "--box", "1,1,4,4"],
            "synth": ["synth", "--scene", str(path), "--out-dir", str(tmp_path / "out")],
        }[command]

    @pytest.mark.parametrize("command", ["solve-template", "synth"])
    def test_directory_input_is_user_error_naming_it(self, capsys, tmp_path, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(self.reading(command, folder, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve-template", "synth"])
    def test_unreadable_input_is_user_error_naming_it(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # every open of the file is refused, as for a user whom its permissions
        # exclude; a patched open refuses root too, whom chmod would not stop
        locked = tmp_path / "locked"
        locked.write_text("{}")
        real_open = io.open

        def refusing_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(locked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(locked))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing_open)
        monkeypatch.setattr(io, "open", refusing_open)
        assert main(self.reading(command, locked, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(locked) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve-template", "attend", "track"])
    def test_input_under_a_regular_file_is_user_error_naming_it(
        self, capsys, tmp_path, scene_dir, command
    ):
        # a path through a regular file fails to open (NotADirectoryError) for
        # every user, root included
        blocked = tmp_path / "file" / "x"
        blocked.parent.write_text("{}")
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"values": [1.0] * SCENE["depth"]}))
        manifest = scene_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["frames"][1]["pyramid"] = str(blocked)
        manifest.write_text(json.dumps(doc))
        argv = {
            "solve-template": ["solve-template", "--pyramid", str(blocked), "--box", "1,1,4,4"],
            "attend": ["attend", "--pyramid", str(blocked), "--template", str(template),
                       "--out", str(tmp_path / "sims.fpyr")],
            "track": ["track", "--sequence", str(manifest), "--out", str(tmp_path / "t.jsonl")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocked) in err
        assert "Traceback" not in err

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

    def test_target_never_visible_fails_before_writing(self, tmp_path, capsys):
        objects = [dict(SCENE["objects"][0], absent_frames=[0, 1, 2]), SCENE["objects"][1]]
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, num_frames=3, objects=objects)))
        out = tmp_path / "seq"
        rc = main(["synth", "--scene", str(scene_path), "--out-dir", str(out)])
        assert rc == 1
        assert "target is never visible" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "change, message",
        [({"depth": 0}, "bad scene description: depth must be at least 1, got 0"),
         ({"depth": "deep"}, "bad scene description: invalid literal for int()"),
         ({"objects": {"start": [8, 20, 24, 24]}},
          "bad scene description: objects must be a list"),
         ({"image_size": ["a", "b"]},
          "bad scene description: image_size must be [height, width] of positive integers, got ['a', 'b']"),
         ({"image_size": [-4, 32]},
          "bad scene description: image_size must be [height, width] of positive integers, got [-4, 32]"),
         ({"noise_sigma": "x"}, "bad scene description: could not convert string to float: 'x'"),
         ({"noise_sigma": float("nan")},
          "bad scene description: noise_sigma must be finite and at least 0, got nan"),
         ({"distractor_overlap": 2.0},
          "bad scene description: distractor_overlap must be a cosine in [-1, 1], got 2.0")],
    )
    def test_bad_scene_field_is_usage_error(self, tmp_path, capsys, change, message):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, **change)))
        rc = main(["synth", "--scene", str(scene_path), "--out-dir", str(tmp_path / "seq")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{scene_path}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "seq").exists()


# a target absent on frames 2-4 and noise, so each frame draws its own Philox stream
POOL_SCENE = dict(
    SCENE, num_frames=7, noise_sigma=0.05,
    objects=[dict(SCENE["objects"][0], absent_frames=[2, 3, 4]), SCENE["objects"][1]],
)


class TestSynthPool:
    """`synth` renders and writes frames on one thread per CPU, at most one per frame."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def synth(tmp_path, name, scene=POOL_SCENE):
        scene_path = tmp_path / f"{name}.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / name
        return _run(["synth", "--scene", scene_path, "--out-dir", out]), out

    def test_files_identical_on_one_and_three_cpus(self, tmp_path, monkeypatch):
        render = synth.render_frame

        def early_frames_slow(spec, f):
            # later frames finish first, so results read back in completion order misfile
            time.sleep(0.01 * (spec.num_frames - f))
            return render(spec, f)

        monkeypatch.setattr(synth, "render_frame", early_frames_slow)
        written = {}
        for n in (1, 3):
            self.cpus(monkeypatch, n)
            (rc, err), out = self.synth(tmp_path, f"cpus{n}")
            assert (rc, err) == (0, "")
            written[n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert written[1] == written[3]
        assert len(written[1]) == 2 * POOL_SCENE["num_frames"] + 2
        gt = [json.loads(line) for line in written[1]["gt.jsonl"].splitlines()]
        assert [g["present"] for g in gt] == [True, True, False, False, False, True, True]

    def test_failed_write_names_its_frame_and_writes_no_manifest(self, tmp_path, monkeypatch):
        self.cpus(monkeypatch, 3)
        write, payload = container.write_container, container._payload

        def slow_payload(fm):
            time.sleep(0.01)  # keeps the other frames' partial files open a while
            return payload(fm)

        def full_on_frame_2(pyramid, path):
            if path.name == "frame_0002.fpyr":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            write(pyramid, path)

        monkeypatch.setattr(container, "_payload", slow_payload)
        monkeypatch.setattr(container, "write_container", full_on_frame_2)
        (rc, err), out = self.synth(tmp_path, "seq")
        assert rc == 1
        assert err.startswith("error: ") and str(out / "frame_0002.fpyr") in err
        assert "Traceback" not in err
        names = os.listdir(out)
        assert "manifest.json" not in names and "gt.jsonl" not in names
        assert not [n for n in names if n.endswith(".partial")]

    @pytest.mark.parametrize("cpus, affinity", [(3, True), (2, False)])
    def test_concurrent_renders_reach_but_never_exceed_the_cpus(
        self, tmp_path, monkeypatch, cpus, affinity
    ):
        if affinity:
            self.cpus(monkeypatch, cpus)
        else:  # a platform without sched_getaffinity
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        render = synth.render_frame
        changed = threading.Condition()
        running, peak = 0, 0

        def counted(spec, f):
            nonlocal running, peak
            with changed:
                running += 1
                peak = max(peak, running)
                changed.notify_all()
                # the first frames wait for each other, so a pool of the right size fills
                changed.wait_for(lambda: f >= cpus or peak >= cpus, timeout=5)
            try:
                time.sleep(0.02)  # so that more threads than CPUs would overlap
                return render(spec, f)
            finally:
                with changed:
                    running -= 1

        monkeypatch.setattr(synth, "render_frame", counted)
        (rc, _), _ = self.synth(tmp_path, "seq")
        assert rc == 0
        assert peak == cpus

    @pytest.mark.parametrize("cpus, frames, workers", [(3, 1, 1), (3, 7, 3), (1, 7, 1)])
    def test_one_worker_per_cpu_at_most_one_per_frame(self, monkeypatch, cpus, frames, workers):
        self.cpus(monkeypatch, cpus)
        assert cli._synth_workers(frames) == workers

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

    def test_manifest_init_box_must_meet_the_image(self, scene_dir, tmp_path, capsys):
        manifest = scene_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(dict(doc, init_box=[500, 500, 10, 10])))
        out = tmp_path / "tracks.jsonl"
        rc = main(["track", "--sequence", str(manifest), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{manifest}: init_box [500.0, 500.0, 10.0, 10.0] lies outside the 64x64 image" in err
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

    @pytest.mark.parametrize("mode", ["tracking", "detection"])
    def test_both_modes_take_their_maps_from_similarity_pyramid(
        self, scene_dir, tmp_path, monkeypatch, mode
    ):
        modes = []

        def spy(pyramid, template, mode):
            modes.append(mode)
            return attention.similarity_pyramid(pyramid, template, mode)

        monkeypatch.setattr(cli, "similarity_pyramid", spy)
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"values": [1.0] * SCENE["depth"]}))
        assert main(["attend", "--pyramid", str(scene_dir / "frame_0000.fpyr"), "--template",
                     str(template), "--mode", mode, "--out", str(tmp_path / "s.fpyr")]) == 0
        assert modes == [mode]

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


DEMO_SCENE = Path(__file__).resolve().parent.parent / "scripts" / "demo_scene.json"
DEMO_BOX = "8,36,24,24"  # the demo target's start box


def _run(argv) -> tuple[int, str]:
    """cli.main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


class TestNonFiniteFeatures:
    """Commands check the feature values they read, where they read them.

    A container holding NaN or inf in a cell a command reads makes it exit 1
    naming the file; in a cell it never reads it changes nothing.
    """

    KINDS = ("center", "mean-pos", "mean-diff", "ridge")

    @pytest.fixture(scope="class")
    def demo(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("demo")
        assert main(["synth", "--scene", str(DEMO_SCENE), "--out-dir", str(root / "seq")]) == 0
        template = root / "template.json"
        assert main(["solve-template", "--pyramid", str(root / "seq" / "frame_0000.fpyr"),
                     "--box", DEMO_BOX, "--out", str(template)]) == 0
        return root, template, {}

    @pytest.fixture(scope="class")
    def box_floats(self, demo):
        """The payload indices of the floats of the cells in the box at its
        level, which the templates' positives are drawn from."""
        pyr = read_container(demo[0] / "seq" / "frame_0000.fpyr")
        box = BoundingBox(*map(float, DEMO_BOX.split(",")))
        level = pyr.level_labels.index(template_level(pyr, box))
        fm = pyr.levels[level]
        cy, cx = cell_centres(((fm.height, fm.width),), (pyr.strides[level],))
        first = sum(f.data.size for f in pyr.levels[:level])
        cells = np.flatnonzero(in_box(cy, cx, box))
        return (first + cells[:, None] * fm.depth + np.arange(fm.depth)).ravel().tolist()

    @staticmethod
    def commands(seq: Path, frame: Path, template: Path, out: Path) -> dict:
        """Every command that reads `frame`, and its output file."""
        runs = {
            f"solve-template {kind}": (
                ["solve-template", "--pyramid", frame, "--box", DEMO_BOX, "--template-mode", kind,
                 "--out", out / f"{kind}.json"], out / f"{kind}.json")
            for kind in TestNonFiniteFeatures.KINDS
        }
        for mode in ("tracking", "detection"):
            runs[f"attend {mode}"] = (
                ["attend", "--pyramid", frame, "--template", template, "--mode", mode,
                 "--out", out / f"{mode}.fpyr"], out / f"{mode}.fpyr")
        runs["track"] = (["track", "--sequence", seq / "manifest.json",
                          "--out", out / "tracks.jsonl"], out / "tracks.jsonl")
        return runs

    def clean_outputs(self, demo, f: int) -> dict:
        """Each command's output bytes on the untouched frame f, computed once."""
        root, template, cache = demo
        if f not in cache:
            out = root / f"clean{f}"
            out.mkdir()
            cache[f] = {}
            for name, (argv, path) in self.commands(
                    root / "seq", root / "seq" / f"frame_{f:04d}.fpyr", template, out).items():
                assert _run(argv)[0] == 0, name
                cache[f][name] = path.read_bytes()
        return cache[f]

    @settings(max_examples=40, deadline=None)
    @given(frame=st.sampled_from([0, 1, 19]), planted=st.sampled_from([np.nan, np.inf, -np.inf]),
           data=st.data())
    def test_planted_value_fails_naming_the_file_or_changes_nothing(
        self, demo, box_floats, tmp_path_factory, frame, planted, data
    ):
        root, template, _ = demo
        clean = self.clean_outputs(demo, frame)
        path = root / "seq" / f"frame_{frame:04d}.fpyr"
        original = path.read_bytes()
        payload = original.index(b"\n") + 1
        anywhere = st.integers(0, (len(original) - payload) // 4 - 1)
        i = data.draw(st.one_of(anywhere, st.sampled_from(box_floats)), label="float")
        path.write_bytes(original[:payload + 4 * i] + np.array([planted], "<f4").tobytes()
                         + original[payload + 4 * i + 4:])
        out = tmp_path_factory.mktemp("out")
        try:
            for name, (argv, output) in self.commands(root / "seq", path, template, out).items():
                rc, err = _run(argv)
                assert "Traceback" not in err, name
                if rc == 0:
                    assert output.read_bytes() == clean[name], name
                else:
                    assert rc == 1 and str(path) in err, (name, err)
                if name == "attend tracking":  # reads every value
                    assert rc == 1 and "feature map contains NaN or Inf" in err
                if name == "attend detection":  # reads the header only
                    assert rc == 0
        finally:
            path.write_bytes(original)

    def test_value_at_the_box_centre_refuses_the_template_naming_file_and_level(
        self, scene_dir, capsys
    ):
        frame = scene_dir / "frame_0000.fpyr"
        pyr = read_container(frame)
        box = BoundingBox(8, 20, 24, 24)
        level = template_level(pyr, box)
        row, col = center_cell(box, pyr, level)
        fm = pyr.level_map(level)
        offset = sum(f.data.nbytes for f in pyr.levels[:pyr.level_labels.index(level)])
        offset += 4 * (row * fm.width + col) * fm.depth
        del pyr, fm
        buf = bytearray(frame.read_bytes())
        at = buf.index(b"\n") + 1 + offset
        buf[at:at + 4] = np.array([np.nan], "<f4").tobytes()
        frame.write_bytes(bytes(buf))
        assert main(["solve-template", "--pyramid", str(frame), "--box", "8,20,24,24",
                     "--template-mode", "center"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {frame}: level {level}: feature map contains NaN or Inf\n"

    def test_attend_names_the_pyramid_not_the_template(self, scene_dir, tmp_path, capsys):
        frame = scene_dir / "frame_0000.fpyr"
        buf = bytearray(frame.read_bytes())
        buf[-4:] = np.array([np.inf], "<f4").tobytes()  # the last cell of the coarsest level
        frame.write_bytes(bytes(buf))
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"values": [0.0] * SCENE["depth"]}))
        assert main(["attend", "--pyramid", str(frame), "--template", str(template),
                     "--out", str(tmp_path / "sims.fpyr")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {frame}: level 5: feature map contains NaN or Inf")
        assert str(template) not in err


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

    def test_track_checks_each_frames_candidate_rows_once_in_the_tracker(
        self, scene_dir, tmp_path, monkeypatch
    ):
        # `load_candidates` checks a frame's rows; the tracker checks them once
        # more, as the frame's one `Candidates` is made
        checked = []
        monkeypatch.setattr(tracker, "first_bad_box_row",
                            lambda box: checked.append(len(box)) or first_bad_box_row(box))
        self.run_pipeline(scene_dir, tmp_path)
        assert checked == [2] * SCENE["num_frames"]

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

    def test_scored_and_unscored_candidates_in_one_file(self, scene_dir, tmp_path):
        # each frame lists the target scored and the distractor unscored; the
        # target's file confidence wins on even frames and loses on odd ones
        scored = {f: 0.8765432101234567 if f % 2 == 0 else 0.0123456789012345 for f in range(8)}
        frames = [render_frame(cli.scene_from_json(SCENE), f)[1] for f in range(8)]
        for f, (target, distractor) in enumerate(frames):
            (scene_dir / f"candidates_{f:04d}.json").write_text(json.dumps([
                {"box": target.as_list(), "confidence": scored[f]},
                {"box": distractor.as_list()},
            ]))
        track = read_tracks(self.run_pipeline(scene_dir, tmp_path, ("--no-smooth",)))

        template = build_template(read_container(scene_dir / "frame_0000.fpyr"), frames[0][0],
                                  "center")
        for f, (target, distractor) in enumerate(frames):
            pyramid = read_container(scene_dir / f"frame_{f:04d}.fpyr")
            computed = score_candidates(
                *candidate_features(pyramid, box_rows([distractor])), template
            )[0]
            if f % 2 == 0:
                assert computed < scored[f]
                assert track.box[f].tolist() == target.as_list()
                assert track.confidence[f] == scored[f]  # verbatim
            else:
                assert computed > scored[f]
                assert track.box[f].tolist() == distractor.as_list()
                assert track.confidence[f].tobytes() == computed.tobytes()

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

    def eval_davis(self, tmp_path, pred_masks, gt_masks, capsys) -> str:
        """stderr of a failed davis eval of masked files, one mask per frame from 0."""
        pred, gt, out = tmp_path / "dt.jsonl", tmp_path / "dg.jsonl", tmp_path / "j.json"
        self.write_masked(pred, range(len(pred_masks)), pred_masks)
        self.write_masked(gt, range(len(gt_masks)), gt_masks)
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--protocol", "davis",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err and not out.exists()
        return err

    def test_davis_mask_missing_names_its_file_and_frame(self, tmp_path, capsys):
        pred, gt = tmp_path / "dt.jsonl", tmp_path / "dg.jsonl"
        err = self.eval_davis(tmp_path, [self.MASK, self.MASK, None, self.MASK],
                              [self.MASK] * 4, capsys)
        assert f"error: {pred}: track has no mask on frame 2 of {gt}" in err
        err = self.eval_davis(tmp_path, [self.MASK] * 4,
                              [self.MASK, None, self.MASK, self.MASK], capsys)
        assert f"error: {gt}: frame 1 has no mask; the davis protocol needs one" in err

    def test_davis_on_fewer_than_four_frames_names_the_groundtruth(self, tmp_path, capsys):
        err = self.eval_davis(tmp_path, [self.MASK] * 3, [self.MASK] * 3, capsys)
        assert f"error: {tmp_path / 'dg.jsonl'}: decay needs at least 4 frames" in err

    def test_davis_mask_canvas_mismatch_names_both_files_and_the_frame(self, tmp_path, capsys):
        small = {"size": [3, 3], "runs": [0, 9]}
        err = self.eval_davis(tmp_path, [self.MASK, small, self.MASK, self.MASK],
                              [self.MASK] * 4, capsys)
        pred, gt = tmp_path / "dt.jsonl", tmp_path / "dg.jsonl"
        assert f"error: {pred}: mask on frame 1 is 3x3, not the 4x4 canvas of {gt}" in err

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

    def test_groundtruth_without_present_frames_names_it(self, tmp_path, capsys):
        pred, gt = tmp_path / "tracks.jsonl", tmp_path / "gt.jsonl"
        pred.write_text(json.dumps(self.TRACK) + "\n")
        gt.write_text(json.dumps(dict(self.GT, present=False)) + "\n")
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--protocol", "got"])
        assert (rc, capsys.readouterr().err) == (1, f"error: {gt}: no groundtruth-present frames\n")


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

    def test_manifest_init_box_of_three_numbers_names_the_file(self, seq, capsys):
        path = seq / "manifest.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), init_box=[1, 2, 3])))
        rc, err = self.run_track(seq, capsys)
        assert (rc, err) == (1, f"error: {path}: bad manifest: box must be [x, y, w, h], "
                                "got [1, 2, 3]\n")

    def test_manifest_frame_index_repeated_names_the_file_and_frame(self, seq, capsys):
        self.edit_manifest_frame(seq, frame=0)
        rc, err = self.run_track(seq, capsys)
        assert (rc, err) == (1, f"error: {seq / 'manifest.json'}: bad manifest frame 1: frame 0 "
                                "does not follow frame 0; frames must be strictly increasing\n")


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


class TestJsonInputFiles:
    """A JSON input that is not UTF-8, or cut short, exits 1 naming the file."""

    READERS = ("scene", "manifest", "candidates", "template")

    @pytest.fixture
    def inputs(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(dict(SCENE, num_frames=3)))
        seq = tmp_path / "seq"
        assert main(["synth", "--scene", str(scene_path), "--out-dir", str(seq)]) == 0
        template = tmp_path / "template.json"
        assert main(["solve-template", "--pyramid", str(seq / "frame_0000.fpyr"),
                     "--box", "8,20,24,24", "--out", str(template)]) == 0
        track = ["track", "--sequence", seq / "manifest.json", "--out", tmp_path / "t.jsonl"]
        return {
            "scene": (["synth", "--scene", scene_path, "--out-dir", tmp_path / "again"],
                      scene_path),
            "manifest": (track, seq / "manifest.json"),
            "candidates": (track, seq / "candidates_0001.json"),
            "template": (["attend", "--pyramid", seq / "frame_0000.fpyr", "--template", template,
                          "--out", tmp_path / "sims.fpyr"], template),
        }

    @pytest.mark.parametrize("reader", READERS)
    def test_file_that_is_not_utf8_names_it(self, inputs, reader):
        argv, path = inputs[reader]
        path.write_bytes(b"\xff" + path.read_bytes())
        rc, err = _run(argv)
        assert rc == 1
        assert err.startswith(f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode "
                              "byte 0xff in position 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", READERS)
    def test_file_cut_short_names_it(self, inputs, reader):
        argv, path = inputs[reader]
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        rc, err = _run(argv)
        assert rc == 1
        assert err.startswith(f"error: {path}: malformed {reader} file: ")
        assert "Traceback" not in err

    def test_scene_cut_after_its_brace_names_it(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text("{")
        rc, err = _run(["synth", "--scene", scene_path, "--out-dir", tmp_path / "seq"])
        assert (rc, err) == (1, f"error: {scene_path}: malformed scene file: Expecting property "
                                "name enclosed in double quotes: line 1 column 2 (char 1)\n")


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


class TestSeedFlag:
    """--seed takes the int64 range, as a scene's seed does: the Philox key is
    the seed modulo 2**64, one-to-one on int64, so a wider seed would alias one."""

    @pytest.mark.parametrize(
        "value", [str(2**64 + 1), str(2**128 + 1), str(2**64), str(2**63), str(-(2**63) - 1),
                  "1.5", "one"])
    @pytest.mark.parametrize("command", ["solve-template", "track", "gradcheck"])
    def test_seed_outside_int64_names_flag(self, scene_dir, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        required = {
            "solve-template": ["--pyramid", str(scene_dir / "frame_0000.fpyr"),
                               "--box", "8,20,24,24", "--out", str(out)],
            "track": ["--sequence", str(scene_dir / "manifest.json"), "--out", str(out)],
            "gradcheck": ["--dim", "2", "--negatives", "0"],
        }[command]
        assert main([command, *required, f"--seed={value}"]) == 1
        captured = capsys.readouterr()
        assert (f"argument --seed: must be an integer in [-2**63, 2**63), the int64 range, "
                f"got '{value}'") in captured.err
        assert not out.exists() and "PASS" not in captured.out

    def test_int64_seeds_are_accepted_and_distinct(self, scene_dir, tmp_path):
        templates = []
        for seed in (0, 1, -1, 2**63 - 1, -(2**63)):
            out = tmp_path / f"t{seed}.json"
            assert main(["solve-template", "--pyramid", str(scene_dir / "frame_0000.fpyr"),
                         "--box", "8,20,24,24", "--template-mode", "mean-diff",
                         "--negatives", "16", f"--seed={seed}", "--out", str(out)]) == 0
            templates.append(out.read_bytes())
        assert len(set(templates)) == len(templates)
        assert main(["gradcheck", "--dim", "4", "--negatives", "2", f"--seed={-(2**63)}"]) == 0


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


def test_import_adds_only_these_stdlib_modules():
    # `ablation` set-up is mostly process start and imports, so each
    # module-level import the CLI adds should be a decision, not an accident.
    # The stdlib modules `import fpntrack.cli` loads beyond numpy's are exactly
    # those these six imports load; with Python 3.11 and numpy 2 that is
    # __future__, _json, argparse, copy, dataclasses, gettext, json,
    # json.decoder, json.encoder, json.scanner, mmap and traceback. Comparing
    # with the imports, not that list, keeps the test true on other versions.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))

    def stdlib_added(statement: str) -> set[str]:
        """The stdlib modules a fresh interpreter loads for `statement` after numpy."""
        code = ("import sys, numpy\n"
                "before = set(sys.modules)\n"
                f"{statement}\n"
                "print(sorted(set(sys.modules) - before))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env).stdout
        return {m for m in ast.literal_eval(out) if m.split(".")[0] in sys.stdlib_module_names}

    cli_modules = stdlib_added("import fpntrack.cli")
    assert cli_modules == stdlib_added(
        "import __future__, argparse, dataclasses, json, mmap, traceback")
    assert "argparse" in cli_modules  # numpy does not load it: the comparison is not empty
