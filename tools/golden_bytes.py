"""Check that the golden commands, the `cli` benchmark workload, the
extreme command lines and the shot sweep print the same bytes at a
revision and in the working tree.

    python3 tools/golden_bytes.py REV

Runs each command of `tests/test_golden.COMMANDS`, each argv of the
seed-0 `cli` workload (`perfbench/workloads.Cli(0, ROOT).argvs`), each
of `tests/extremes.extreme_argvs` (refusals and near-bound paths) and each
of `tests/extremes.shot_argvs` (both ends of a shot and its refusals) as a
child process, `python -m staticlab.cli ...`, twice: on `git archive REV
src` extracted to a temporary directory, and on the working tree's `src/`.
Prints each command whose exit status, stdout or stderr bytes differ, and
under one whose stdout differs the cells that do (`cell_diff`), then a
summary line.  Exits 1 if any command differs, 2 if REV cannot be
archived, and 0 otherwise.  `tests/test_golden.py` compares floats within
tolerance floors; this compares bytes, which a change that means to move
no output keeps.  Standard library and git, and the working tree's
`staticlab` (from `src/`), which `tests/extremes.py` imports to build the
extreme argvs.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TEST = ROOT / "tests" / "test_golden.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
EXTREMES = ROOT / "tests" / "extremes.py"


def golden_commands() -> dict[str, list[str]]:
    """`COMMANDS` of tests/test_golden.py, from its MODELS, SUITES and
    COMMANDS assignments alone: importing the module needs pytest."""
    tree = ast.parse(GOLDEN_TEST.read_text(encoding="utf-8"))
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and {getattr(t, "id", None) for t in node.targets}
            & {"MODELS", "SUITES", "COMMANDS"}]
    scope: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(GOLDEN_TEST),
                 "exec"), scope)
    return scope["COMMANDS"]


def cli_workload_commands() -> dict[str, list[str]]:
    """The argvs of the seed-0 `cli` workload, each named by its argv;
    seed 0 draws nothing, so building the workload imports no staticlab."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return {" ".join(argv): argv
            for argv in workloads.Cli(0, str(ROOT)).argvs}


def extreme_commands() -> dict[str, list[str]]:
    """The extreme argvs of `tests/extremes.py`, then its shots, each named
    by its argv; their masses are computed by the working tree's
    package."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("_extremes", EXTREMES)
    extremes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(extremes)
    return {" ".join(argv): list(argv) for argv in (
        *extremes.extreme_argvs(), *extremes.shot_argvs())}


def commands() -> dict[str, list[str]]:
    """The golden commands, then the `cli` workload's, then the extreme
    ones and the shots."""
    return {**golden_commands(), **cli_workload_commands(),
            **extreme_commands()}


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit status, stdout and stderr of the CLI on the package under
    `src`."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "staticlab.cli", *argv],
                          capture_output=True, env=env, cwd=src)
    return proc.returncode, proc.stdout, proc.stderr


def cell_diff(before: str, after: str) -> list[str]:
    """The cells in which two outputs of one command differ, one line each:
    the key path and both values of a JSON document, or the row (data rows
    from 1), column and both texts of a CSV table under a header line."""
    try:
        docs = json.loads(before), json.loads(after)
    except ValueError:
        docs = None
    if docs is not None:
        return [f"{path}: {a} -> {b}" for path, a, b in _json_diff("", *docs)]
    old, new = before.splitlines(), after.splitlines()
    out = []
    if len(old) != len(new):
        out.append(f"{len(old) - 1} rows -> {len(new) - 1} rows")
    header = old[0].split(",") if old else []
    for i, (a_line, b_line) in enumerate(zip(old[1:], new[1:]), 1):
        a_row, b_row = a_line.split(","), b_line.split(",")
        if len(a_row) != len(b_row):
            out.append(f"row {i}: {a_line} -> {b_line}")
            continue
        out += [f"row {i}, {column}: {a} -> {b}" for column, a, b
                in zip(header, a_row, b_row) if a != b]
    return out


def _json_diff(path: str, a, b):
    """(key path, old text, new text) of each leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _json_diff(f"{path}.{key}" if path else key,
                                  a[key], b[key])
    elif (isinstance(a, list) and isinstance(b, list)
          and len(a) == len(b)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(f"{path}[{i}]", x, y)
    elif a != b or type(a) is not type(b):
        yield path or "(document)", json.dumps(a), json.dumps(b)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python3 tools/golden_bytes.py REV\n")
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    todo = commands()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter where this Python has it (3.12, backports)
            tar.extractall(tmp, **({"filter": "data"}
                                   if hasattr(tarfile, "data_filter") else {}))
        for name, cmd in todo.items():
            at, here = run(Path(tmp) / "src", cmd), run(ROOT / "src", cmd)
            (code_at, out_at, err_at), (code, out, err) = at, here
            if code != code_at:
                print(f"{name}: exit {code_at} at {rev}, {code} here")
            elif out != out_at:
                print(f"{name}: stdout differs")
                for line in cell_diff(out_at.decode(), out.decode()):
                    print(f"  {line}")
            elif err != err_at:
                print(f"{name}: stderr differs")
                print(f"  {err_at.decode(errors='replace')!r} -> "
                      f"{err.decode(errors='replace')!r}")
            differ += here != at
    print(f"{len(todo) - differ}/{len(todo)} golden, cli workload, extreme "
          f"and shot commands byte-identical to {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
