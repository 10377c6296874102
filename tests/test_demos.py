"""Smoke test: every walkthrough in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [d.name for d in DEMOS] == [
        "analyze_network.py",
        "classify_profiles.py",
        "grow_network.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
