"""Every demo runs to the end against the current library.

The demos import public names only, so a rename or removal that a demo
still uses fails here.  They run in-process to keep this cheap.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name.startswith("04_"):
        assert "  order against conjugate 0: 3/2\n" in out
