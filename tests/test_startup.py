"""Start-up cost: importing hsqcnet, and any CLI command that solves no
exact assignment of two or more rows, load no scipy.

``scipy.optimize`` takes about 0.5 s to import, most of a short process
such as ``hsqcnet predict``. Only the exact matcher needs it, so it is
imported on the first solve. One fresh interpreter walks the steps in
order and reports, after each, whether ``scipy`` is in ``sys.modules``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

STEPS = r"""
import contextlib, io, json, sys
from pathlib import Path

out = {"steps": [], "codes": []}

def step(name):
    out["steps"].append([name, "scipy" in sys.modules])

import hsqcnet
step("import hsqcnet")

import numpy as np
from hsqcnet import assign, cli
from hsqcnet.dataio import save_checkpoint
from hsqcnet.model import CrossPeakModel, ModelConfig

tiny = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
checkpoint = str(Path(sys.argv[1]) / "tiny.ckpt")
save_checkpoint(CrossPeakModel(tiny).state_arrays(), tiny, {"stage": "test", "seed": 0},
                checkpoint)
step("save_checkpoint")

commands = [
    ["--help"],
    ["--quiet", "parse", "C"],
    ["--quiet", "validate-data", "--data", sys.argv[2], "--kind", "hsqc"],
    ["--quiet", "predict", "CCO", "--checkpoint", checkpoint],
    # benzene predicts one peak: two observed peaks take the graduated path
    ["--quiet", "assign", "c1ccccc1", "--checkpoint", checkpoint,
     "--peaks", "[[128.0, 7.3], [129.0, 7.2]]"],
]
for argv in commands:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        try:
            out["codes"].append(cli.main(argv))
        except SystemExit as exc:
            out["codes"].append(exc.code)
    step(" ".join(argv))
out["matcher"] = json.loads(printed.getvalue())["matcher"]

out["small"] = [assign.hungarian(np.ones((n, n))).tolist() for n in (0, 1)]
step("hungarian 0x0 and 1x1")

cost = np.array([[4.0, 1.0], [2.0, 3.0]])
got = assign.hungarian(cost)
out["solve_loads_scipy"] = "scipy" in sys.modules
from scipy.optimize import linear_sum_assignment
rows, cols = linear_sum_assignment(cost)
expected = np.zeros((2, 2), dtype=np.int8)
expected[rows, cols] = 1
out["equals_scipy"] = bool(np.array_equal(got, expected))
print(json.dumps(out))
"""


def test_scipy_is_imported_on_the_first_exact_solve(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", STEPS, str(tmp_path), str(REPO / "data" / "toy_hsqc.jsonl")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert len(out["steps"]) == 8
    for name, scipy_loaded in out["steps"]:
        assert not scipy_loaded, f"scipy was imported by: {name}"
    assert out["codes"] == [0, 0, 0, 0, 0]
    assert out["matcher"] == "graduated"
    assert out["small"] == [[], [[1]]]
    assert out["solve_loads_scipy"], "a 2x2 exact solve did not import scipy"
    assert out["equals_scipy"], "the 2x2 exact solve differs from scipy's"


def test_no_module_imports_its_package_inside_a_function():
    # each module's dependencies on the package sit in its header; a
    # deferred third-party import, such as assign's scipy solver, is allowed
    late = []
    for path in sorted((REPO / "src" / "hsqcnet").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert late == []
