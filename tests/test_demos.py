"""Every demo script runs to completion against the current API.

Each script runs in-process with ``runpy`` from a copy of ``demos/`` and
``data/`` under a temporary directory, so files a demo writes (demo 05's
SVG overlay) land there and not in the checkout."""

from __future__ import annotations

import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, capsys, name):
    for folder in ("demos", "data"):
        shutil.copytree(ROOT / folder, tmp_path / folder)
    checkout = sorted((ROOT / "demos").iterdir())
    runpy.run_path(str(tmp_path / "demos" / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert sorted((ROOT / "demos").iterdir()) == checkout
