import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    """Run a script as __main__ with argv; its exit code (0 if it returns)."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.mark.parametrize("name", ["run_ablation.py", "run_smoothing.py"])
class TestSequencesFlag:
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_nonpositive_count_is_usage_error(self, monkeypatch, capsys, name, value):
        assert run_script(name, monkeypatch, "--sequences", value, "--json") == 2
        captured = capsys.readouterr()
        assert f"argument --sequences: must be a positive integer, got '{value}'" in captured.err
        assert captured.out == ""

    def test_one_sequence_reports_valid_json(self, monkeypatch, capsys, name):
        assert run_script(name, monkeypatch, "--sequences", "1", "--json") == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not valid JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["sequences"] == 1
