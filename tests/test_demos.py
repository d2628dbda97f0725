"""The demos that drive the measure API run to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("demo_measure_algebra.py", "symmetric: symmetric"),
        ("demo_fourier_conditions.py", "dominance: pass"),
    ],
)
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
