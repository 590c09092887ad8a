"""src/ holds what a run executes: every function of the package is entered
by one of the README's CLI runs, or is listed below with the reason it stays.

The runs go through `nmotto.cli.main` in a fresh interpreter whose profile
hook is set before the package is imported, so calls made at import time
count.  Each run gets `--workers 1`, because pool workers do not inherit the
hook, and `cycle` and `sweep` run again under `--dynamics markov`.  A
function is keyed by its file and `co_firstlineno`: the line of its first
decorator, or of its `def` (Python 3.8+; `co_qualname` needs 3.11).
"""

import ast
import json
import os
import shlex
import shutil
import subprocess
import sys

from conftest import CONFIGS, SRC, readme_cli_lines

PACKAGE = SRC / "nmotto"

_ERROR_PATH = "error path: every README run exits 0 and has no failing cell"
_BOUNDARY_SCAN = "boundary search: perfbench's boundary_scan runs it; a CLI run after ROADMAP item 8"
_CHECKS_ORACLE = "oracle that perfbench/checks.py reads; leaves src/ under ROADMAP items 1, 9 and 10"

# Every function that no README run enters, with the reason it stays.
UNENTERED = {
    "cli._fail": _ERROR_PATH,
    "cli._Parser.error": _ERROR_PATH,
    "errors.PositivityError.__init__": _ERROR_PATH,
    "errors.PositivityError.__str__": _ERROR_PATH,
    "limit_cycle._validate_times": _ERROR_PATH,
    "sweep._error_line": _ERROR_PATH,
    "cycle.bisect_sign_change": _BOUNDARY_SCAN,
    "cycle.find_boundaries": _BOUNDARY_SCAN,
    "cycle.find_boundaries.scan_points": _BOUNDARY_SCAN,
    "cycle.find_boundaries.refine": _BOUNDARY_SCAN,
    "limit_cycle.iterate_map": _CHECKS_ORACLE,
    "energetics.eq_interaction_integral": _CHECKS_ORACLE,
    "energetics._kernel_grid": _CHECKS_ORACLE,
    "special.simpson": _CHECKS_ORACLE,
    "sweep._set_worker_fn": "pool worker side: runs in the workers, which criterion 9 runs",
    "sweep._call_worker_fn": "pool worker side: runs in the workers, which criterion 9 runs",
}

_CHILD = """
import json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import nmotto.cli

runs, package, result = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
codes = [nmotto.cli.main(argv) for argv in runs]
sys.setprofile(None)
inside = {f for f, _ in entered if os.path.dirname(os.path.realpath(f)) == package}
with open(result, "w") as fh:
    json.dump({"codes": codes,
               "entered": [(os.path.basename(f), line) for f, line in entered if f in inside]}, fh)
"""


def _readme_runs() -> list[list[str]]:
    """The argv of every `nmotto ...` line of the README, serial, and of
    `cycle` and `sweep` again under Markov dynamics."""
    runs = []
    for line in readme_cli_lines():
        argv = shlex.split(line)[1:] + ["--workers", "1"]
        runs.append(argv)
        if argv[0] in ("cycle", "sweep"):
            runs.append(argv + ["--dynamics", "markov"])
    return runs


def _package_functions() -> dict[tuple[str, int], str]:
    """{(file name, line of the first decorator or of the def): module.Class.func}."""
    functions = {}

    def visit(node, prefix, file_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    functions[(file_name, first.lineno)] = name
                visit(child, name, file_name)
            else:
                visit(child, prefix, file_name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path.name)
    return functions


def test_every_package_function_is_entered_by_a_readme_run_or_listed(tmp_path):
    runs = _readme_runs()
    assert {argv[0] for argv in runs} == {"cycle", "sweep", "phase", "kernels", "stroke"}
    shutil.copytree(CONFIGS, tmp_path / "configs")
    result = tmp_path / "entered.json"
    done = subprocess.run(
        [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []), "-c", _CHILD,
         json.dumps(runs), os.path.realpath(PACKAGE), str(result)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    reached = json.loads(result.read_text())
    assert reached["codes"] == [0] * len(runs), done.stderr
    entered = set(map(tuple, reached["entered"]))
    unentered = {name for key, name in _package_functions().items() if key not in entered}
    assert unentered == set(UNENTERED)
