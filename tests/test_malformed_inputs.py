"""Every JSON input the CLI reads, mutated: each run exits 0, or exits 1 naming the file.

Hypothesis takes a small valid scene, manifest, candidates file, template,
tracks file or groundtruth file, replaces one value somewhere in it (or
removes one key or item) and runs the command that reads it through
`cli.main`. A run passes when it exits 0, or exits 1 with an error that names
the mutated file; no run may exit 2. The odd values are small, so no mutation
asks for much more memory or time than the valid input does: inputs that
exhaust memory (a 10^9 x 10^9 image, say) are out of scope.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fpntrack import cli

SCENE = {
    "image_size": [32, 32], "num_frames": 3, "depth": 4, "seed": 1, "noise_sigma": 0.05,
    "distractor_overlap": 0.5,
    "objects": [
        {"start": [4, 8, 12, 12], "velocity": [1, 0], "is_target": True, "absent_frames": [1]},
        {"start": [16, 2, 8, 8], "velocity": [0, 1]},
    ],
}
ODD_VALUES = [
    None, True, False, 0, 1, -1, 2, 37, 0.5, -0.5, 1.5, 1e3, float("nan"), float("inf"),
    float("-inf"), "", "x", "1", [], [0], [1, 2], ["x", "y"], [1, 2, 3], [0, 0, 1, 1],
    [1, 1, 4, 4], [0, 0, 0, 1], {}, {"x": 1},
]


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A synthesized sequence, a template and a track: {input: (path, argv reading it)}."""
    root = tmp_path_factory.mktemp("inputs")
    scene = root / "scene.json"
    scene.write_text(json.dumps(SCENE))
    seq = root / "seq"
    template, tracks = root / "template.json", root / "tracks.jsonl"
    for argv in (["synth", "--scene", scene, "--out-dir", seq],
                 ["solve-template", "--pyramid", seq / "frame_0000.fpyr", "--box", "4,8,12,12",
                  "--template-mode", "center", "--out", template],
                 ["track", "--sequence", seq / "manifest.json", "--out", tracks]):
        assert run(argv) == (0, "")
    track = ["track", "--sequence", seq / "manifest.json", "--out", root / "out.jsonl",
             "--template-mode", "center"]
    evaluate = ["eval", "--pred", tracks, "--gt", seq / "gt.jsonl", "--protocol", "got"]
    return {
        "scene": (scene, ["synth", "--scene", scene, "--out-dir", root / "again"]),
        "manifest": (seq / "manifest.json", track),
        "candidates": (seq / "candidates_0001.json", track),
        "template": (template, ["attend", "--pyramid", seq / "frame_0002.fpyr", "--template",
                                template, "--out", root / "sims.fpyr"]),
        "tracks": (tracks, evaluate),
        "groundtruth": (seq / "gt.jsonl", evaluate),
    }


def mutated(doc, steps: list[int], op: str, value):
    """The document with the value that `steps` leads to replaced by `value`
    (op "replace") or removed from its parent (op "delete").

    Each step picks one of the sorted keys of an object or one item of a
    list, modulo their count; the path ends early at a value that is neither,
    or is empty.
    """
    if not steps or not isinstance(doc, (dict, list)) or not doc:
        return value
    keys = sorted(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = keys[steps[0] % len(keys)]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if op == "delete" and len(steps) == 1:
        del out[key]
    else:
        out[key] = mutated(doc[key], steps[1:], op, value)
    return out


def read(path: Path):
    """A JSON file's document; a JSONL file's records, as a list."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def write(path: Path, doc) -> None:
    if path.suffix == ".jsonl" and isinstance(doc, list):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in doc))
    else:
        path.write_text(json.dumps(doc))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["scene", "manifest", "candidates", "template", "tracks",
                             "groundtruth"]),
       steps=st.lists(st.integers(0, 7), max_size=4),
       op=st.sampled_from(["replace", "replace", "delete"]),
       value=st.sampled_from(ODD_VALUES))
# the scene values that once exited 2 with a traceback: an image_size of
# ["x", 32] or [-1, 32] (image_size is the scene's third key, sorted) and a
# noise_sigma of "x" (its fourth)
@example(kind="scene", steps=[2, 0], op="replace", value="x")
@example(kind="scene", steps=[2, 0], op="replace", value=-1)
@example(kind="scene", steps=[3], op="replace", value="x")
def test_mutated_input_exits_0_or_1_naming_the_file(inputs, kind, steps, op, value):
    path, argv = inputs[kind]
    original = path.read_text()
    try:
        write(path, mutated(read(path), steps, op, value))
        rc, err = run(argv)
    finally:
        path.write_text(original)
    assert "Traceback" not in err, err
    assert rc == 0 or (rc == 1 and str(path) in err), (rc, err)
