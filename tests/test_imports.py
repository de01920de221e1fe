"""The command line, `shoot` included, runs on the standard library alone:
neither `import staticlab.cli` nor `import staticlab.odegen` loads numpy or
scipy, and every golden command passes with both blocked.  Each command
loads only the staticlab modules it reads.  The array path, `to_arclength`,
needs numpy and not scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


MODULES_CHILD = """
import contextlib, io, sys
from staticlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(code, *sorted(k for k in sys.modules if k.startswith("staticlab.")))
"""

BASE = {"geometry", "models", "report", "roots"}  # what every command loads


@pytest.mark.parametrize("argv, extra", [
    (["--help"], set()),
    (["check", "--model", "sds", "--suite", "static"], set()),
    (["scan-sds", "--m-grid", "0.01:0.02:0.01"], set()),
    (["check", "--model", "sds", "--suite", "conformal"], {"conformal"}),
    (["check", "--model", "desitter", "--suite", "identities"],
     {"identities", "levelset", "quadrature"}),
    (["check", "--model", "desitter", "--suite", "inequalities"],
     {"inequalities", "levelset"}),
    (["check", "--model", "desitter", "--suite", "liminf"], {"levelset"}),
    (["models"], {"levelset"}),
    (["up-curve", "--model", "desitter", "--p", "3", "--t0", "0", "--t1",
      "0.5", "--steps", "3"], {"levelset"}),
    (["phi-curve", "--model", "desitter", "--p", "3", "--s0", "0.2", "--s1",
      "2", "--steps", "3"], {"levelset"}),
    (["shoot", "--h0", "1", "--kappa", "1", "--steps", "3"], {"odegen"}),
], ids=["help", "static", "scan-sds", "conformal", "identities",
        "inequalities", "liminf", "models", "up-curve", "phi-curve", "shoot"])
def test_each_command_loads_only_the_modules_it_reads(argv, extra):
    # a command runs in a process of its own and, without a bytecode
    # cache, compiles every module it loads: a new top-level import
    # costs every command and fails here
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", MODULES_CHILD, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert loaded == sorted(f"staticlab.{m}" for m in {"cli"} | BASE | extra)


ARCLENGTH_CHILD = """
import math, sys
sys.modules["scipy"] = None  # any import now fails
from staticlab import geometry, models
sds = models.schwarzschild_de_sitter(models.SdSParams(n=3, m=0.1))
arc, rho_of_r = geometry.to_arclength(sds)
assert all(math.isfinite(arc.u.value(rho_of_r(r)))
           for r in sds.interior_points(5))
ads = models.anti_de_sitter(3)
_, rho_of_r = geometry.to_arclength(ads)
lo, hi = ads.domain
a = lo + geometry.ARCLENGTH_MARGIN * (hi - lo)
b = hi - geometry.ARCLENGTH_MARGIN * (hi - lo)
print(max(abs(rho_of_r(r) - (math.asinh(r) - math.asinh(a)))
          for r in geometry.linspace(a, b, 2001)))
"""


def test_arclength_runs_without_scipy():
    pytest.importorskip("numpy")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ARCLENGTH_CHILD],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    # rho(r) on anti-de Sitter, 2,001 points against the closed form
    # asinh(r) - asinh(a): measured 1.2e-14 (5.6e-12 with cubic splines)
    assert float(proc.stdout) <= 1e-13
