"""Import cost: scipy loads only in the layer that calls it.

The lattice layers (kernels, modes, geometry, localization, ELP, Newton-
Wigner, Segal forms) and the continuum kernels (``asymptotics``, whose
contour and direct quadratures are numpy rules) are pure numpy; scipy is
needed only by the Fock oracle (``oracle-verify``), which loads it on first
call. These tests run fresh interpreters, because this test process has
imported scipy itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emergence_lab
from emergence_lab.cli import EXIT_PASS, main

SRC = str(Path(emergence_lab.__file__).resolve().parent.parent)

NUMPY_EXPERIMENTS = (
    "kernel", "modes-check", "geometry-check", "localize", "elp", "nw",
    "segal-check", "asymptotics",
)
SCIPY_EXPERIMENTS = ("oracle-verify",)

BLOCKED_RUN = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("the blocker did not block scipy")

import emergence_lab  # noqa: F401
from emergence_lab.cli import main

codes = {}
for exp, cfg, out in json.loads(sys.argv[1]):
    codes[exp] = main([exp, "--config", cfg, "--out", out])
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""

COLD_RUN = """
import sys
import emergence_lab  # noqa: F401
before = sorted(m for m in sys.modules if m.startswith("scipy"))
from emergence_lab.cli import main
code = main(sys.argv[1:])
if before:
    raise SystemExit(f"scipy loaded at import: {before}")
sys.exit(code)
"""


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _write_cfg(tmp_path: Path, experiment: str, shape: str) -> str:
    path = tmp_path / f"{experiment}.cfg"
    path.write_text(f"experiment = {experiment}\nshape = {shape}\n")
    return str(path)


def test_numpy_layers_run_with_scipy_blocked(tmp_path):
    runs = [
        (exp, _write_cfg(tmp_path, exp, "64"), str(tmp_path / "blocked" / exp))
        for exp in NUMPY_EXPERIMENTS
    ]
    done = _python([BLOCKED_RUN, json.dumps(runs)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["scipy_modules"] == []
    for exp, cfg, out in runs:
        ref = tmp_path / "ref" / exp
        expected = main([exp, "--config", cfg, "--out", str(ref)])
        assert result["codes"][exp] == expected, exp
        assert _files(Path(out)) == _files(ref), exp


@pytest.mark.parametrize("experiment", SCIPY_EXPERIMENTS)
def test_deferred_scipy_imports_from_cold_interpreter(tmp_path, experiment):
    cold = tmp_path / "cold"
    done = _python([COLD_RUN, experiment, "--out", str(cold)], cwd=tmp_path)
    assert done.returncode == EXIT_PASS, done.stdout + done.stderr
    ref = tmp_path / "ref"
    assert main([experiment, "--out", str(ref)]) == EXIT_PASS
    assert _files(cold) == _files(ref)
