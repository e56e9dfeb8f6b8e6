"""Smoke runs of the survey scripts under scripts/, in process."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_fixtures_reports_the_triangle(capsys):
    assert load_script("survey_fixtures").main(["--names", "triangle"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[:8] == ["triangle", "6", "9", "3", "1", "Certified", "54", "972"]


def test_homcount_table_reports_the_triangle(capsys):
    table = load_script("homcount_table")
    assert table.main(["--names", "triangle", "--groups", "S3"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[:2] == ["triangle", "972"]
