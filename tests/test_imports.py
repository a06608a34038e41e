"""Imports: no command, VAR or CCC-GARCH, loads scipy.signal or
scipy.stats, and every module-level import of the library is used.

The GARCH variance recursions run as LAPACK banded solves
(``scipy.linalg.lapack``, which ``scipy.spatial`` loads at import), so
nothing needs ``scipy.signal`` or the ``scipy.stats`` it would pull in.
Each check runs in a fresh interpreter, since the test process has long
since imported both.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tsindep
from tsindep import write_csv
from tsindep.cli import main
from tsindep.models import _simulate_garch, _simulate_var

SRC = str(Path(tsindep.__file__).resolve().parents[1])

RUN = """
import json, sys
import tsindep
from tsindep.cli import main

loaded = {"import": [m for m in ("scipy.signal", "scipy.stats") if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = [m for m in ("scipy.signal", "scipy.stats") if m in sys.modules]
print(json.dumps(loaded))
"""


def fresh_python(args, cwd):
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd,
        capture_output=True, text=True, timeout=120, check=False,
    )


def modules_loaded_by(runs, cwd):
    """The scipy.signal/scipy.stats modules loaded after import and after
    each CLI run of ``runs``, in one fresh interpreter."""
    proc = fresh_python(["-c", RUN, json.dumps(runs)], cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


GARCH_THETA = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.4])


def write_garch_pair(tmp_path):
    rng = np.random.default_rng(5)
    for name in ("g1.csv", "g2.csv"):
        write_csv(tmp_path / name, _simulate_garch(GARCH_THETA, rng.normal(size=(1000, 2)))[500:])
    return ["--series1", "g1.csv", "--series2", "g2.csv", "--model1", "ccc-garch", "--model2", "ccc-garch"]


def test_var_commands_leave_scipy_signal_unloaded(tmp_path):
    rng = np.random.default_rng(0)
    coef = np.array([[0.3, 0.0], [0.1, 0.2]])
    paths = []
    for name in ("a.csv", "b.csv"):
        write_csv(tmp_path / name, _simulate_var(coef, 1, False, rng.normal(size=(80, 2))))
        paths.append(name)
    pair = ["--series1", paths[0], "--series2", paths[1]]
    runs = [
        ["test", *pair, "-B", "9", "--output", "t.json"],
        ["fit", *pair, "--output", "f.json"],
        ["lagscan", *pair, "--max-lag", "1", "-B", "9", "--output", "l.json"],
        ["simulate", "--dgp", "var", "--egp", "1", "-n", "40", "--replications", "1",
         "--tests", "S1:0", "-B", "9", "--output", "s.json"],
    ]
    loaded = modules_loaded_by(runs, tmp_path)
    assert loaded == {"import": [], "test": [], "fit": [], "lagscan": [], "simulate": []}


def test_garch_commands_leave_scipy_signal_unloaded(tmp_path):
    pair = write_garch_pair(tmp_path)
    runs = [
        ["fit", *pair, "--output", "f.json"],
        ["test", *pair, "-B", "9", "--output", "t.json"],
        ["lagscan", *pair, "--max-lag", "1", "-B", "9", "--output", "l.json"],
        ["simulate", "--dgp", "ccc-garch", "--egp", "1", "-n", "200", "--replications", "1",
         "--tests", "S1:0", "-B", "9", "--output", "s.json"],
    ]
    loaded = modules_loaded_by(runs, tmp_path)
    assert loaded == {"import": [], "fit": [], "test": [], "lagscan": [], "simulate": []}


def test_garch_fit_in_fresh_process_matches_in_process(tmp_path, monkeypatch):
    argv = ["fit", *write_garch_pair(tmp_path)]
    proc = fresh_python(["-m", "tsindep.cli", *argv, "--output", "fresh.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output", "here.json"]) == 0
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()


def test_module_level_imports_are_used():
    # Stands in for a linter's unused-import rule on the library modules;
    # __init__.py imports to re-export, so it is left out.
    unused = []
    for path in sorted(Path(tsindep.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []
