"""The command line, `shoot` included, runs on the standard library alone:
neither `import staticlab.cli` nor `import staticlab.odegen` loads numpy or
scipy, and every golden command passes with both blocked."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

CHILD = """
import sys
import staticlab.cli
import staticlab.odegen
loaded = sorted(k for k in sys.modules if k.split(".")[0] in ("numpy", "scipy"))
assert not loaded, loaded[:5]
sys.modules["numpy"] = sys.modules["scipy"] = None  # any import now fails
import test_golden
for name in sorted(test_golden.COMMANDS):
    test_golden.test_cli_output_matches_golden(name)
print("ok", len(test_golden.COMMANDS))
"""


def test_cli_runs_without_numpy_and_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "33"]
