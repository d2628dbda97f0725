"""The demos that drive the measure and audit APIs run to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("demo_measure_algebra.py", "minus its mirror, largest atom: 0.0"),
        ("demo_fourier_conditions.py", "dominance: pass"),
        ("demo_gronwall.py", "hypothesis ok = False, first violated pair = (0, 1)"),
        # the audit's ratio tables hold Python floats, printed as plain numbers;
        # the id names the line so that it does not change with the values
        pytest.param(
            "demo_ellipticity_audit.py",
            "growth ratios   {1: 0.24, 2: 0.5, 3: 0.24}",
            id="demo_ellipticity_audit.py-growth ratios",
        ),
    ],
)
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
