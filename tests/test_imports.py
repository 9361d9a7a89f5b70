"""The package runs without scipy.

Every layer is numpy alone: the lattice layers (kernels, modes, geometry,
localization, ELP, Newton-Wigner, Segal forms), the continuum kernels of
``asymptotics`` (whose contour and direct quadratures are numpy rules) and
the Fock oracle (whose ladder operators shift numpy amplitude tensors). scipy is a test
dependency only, as an independent arbiter. The test runs a fresh
interpreter with scipy imports blocked, because this test process has
imported scipy itself, and checks there that no run loads numpy.polynomial
or numpy.ma. Likewise the FFT route of R and the continuum kernels run no
LAPACK routine, which one guard below checks with numpy's entries to LAPACK
patched to raise and another by reading the source. A third source scan
holds the building and diagonalizing of R to one function of
``experiments``, so that one place chooses the theory every experiment runs,
and a fourth pins which of the package's modules each module imports.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import emergence_lab
from emergence_lab.cli import EXIT_NUMERIC, main
from emergence_lab.experiments import EXPERIMENT_NAMES

PACKAGE = Path(emergence_lab.__file__).resolve().parent
SRC = str(PACKAGE.parent)
README = PACKAGE.parent.parent / "README.md"

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
for name, argv in json.loads(sys.argv[1]):
    codes[name] = main(argv)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
# numpy.polynomial and numpy.ma are heavy imports that no layer needs
heavy = sorted(
    m for m in sys.modules
    if m.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "ma"])
)
print(json.dumps({"codes": codes, "scipy_modules": loaded, "heavy_numpy": heavy}))
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
    # each experiment on a small lattice, and the whole battery at defaults
    runs = {
        exp: [exp, "--config", _write_cfg(tmp_path, exp, "64")]
        for exp in EXPERIMENT_NAMES
    }
    runs["all"] = ["all"]
    blocked = [
        (name, argv + ["--out", str(tmp_path / "blocked" / name)])
        for name, argv in runs.items()
    ]
    done = _python([BLOCKED_RUN, json.dumps(blocked)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["scipy_modules"] == []
    assert result["heavy_numpy"] == []
    assert sorted(result["codes"]) == sorted(runs)
    for name, argv in runs.items():
        ref = tmp_path / "ref" / name
        assert result["codes"][name] == main(argv + ["--out", str(ref)]), name
        assert _files(tmp_path / "blocked" / name) == _files(ref), name


# numpy's entries to LAPACK; the first call maps ~1 MB of library code
LAPACK_ROUTINES = [(np, "polyfit"), (np, "roots")] + [
    (np.linalg, name)
    for name in (
        "lstsq", "svd", "eig", "eigh", "eigvals", "eigvalsh", "solve", "qr",
        "pinv", "inv",
    )
]


class LapackCalled(Exception):
    """A numpy routine that calls LAPACK was called."""


def test_fft_route_experiments_call_no_lapack(tmp_path, monkeypatch):
    # every experiment on a constant mass, at defaults and at the large
    # sizes, and the whole battery, with the LAPACK entries patched to
    # raise: the spectrum is the FFT of one column, every decay fit is a
    # closed-form line, the symbols' zeros are closed-form roots and the
    # Gauss-Legendre nodes come from Newton's method
    for module, name in LAPACK_ROUTINES:
        def refuse(*args, _name=name, **kwargs):
            raise LapackCalled(_name)

        monkeypatch.setattr(module, name, refuse)
    defaults = [
        "kernel", "localize", "elp", "nw", "geometry-check", "segal-check",
        "modes-check", "oracle-verify", "asymptotics", "all",
    ]
    runs = [(exp, None) for exp in defaults]
    runs += [(exp, "2048") for exp in ("kernel", "localize", "elp", "nw")]
    runs += [(exp, "12 12 12") for exp in ("geometry-check", "localize")]
    for i, (exp, shape) in enumerate(runs):
        argv = [exp, "--out", str(tmp_path / f"out{i}")]
        if shape is not None:
            argv += ["--config", _write_cfg(tmp_path, exp, shape)]
        assert main(argv) != EXIT_NUMERIC, (exp, shape)


def _dotted(node: ast.expr) -> str | None:
    """``np.linalg.eigh`` for that attribute chain, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def test_source_names_no_lapack_entry():
    # the guard above patches the entries for the runs it makes; this one
    # reads the source, so an entry on a path no run takes shows as well
    entries = {
        f"{module.__name__.replace('numpy', 'np', 1)}.{name}"
        for module, name in LAPACK_ROUTINES
    }
    found = sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}: {dotted}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if (dotted := _dotted(node)) is not None
        and re.sub(r"^numpy\.", "np.", dotted) in entries
    )
    assert found == []


def test_one_function_builds_and_diagonalizes_r():
    # every lattice of every experiment, the chains and refinement lattices
    # included, reaches R through experiments._spectrum, so a theory other
    # than Klein-Gordon enters there alone
    calls = sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
        in ("build_klein_gordon", "diagonalize")
    )
    assert calls == [
        "experiments._spectrum: build_klein_gordon",
        "experiments._spectrum: diagonalize",
    ]


def test_every_public_name_resolves():
    # a name deleted from the package but left in __all__ breaks `import *`
    missing = [name for name in emergence_lab.__all__ if not hasattr(emergence_lab, name)]
    assert missing == []
    namespace = {}
    exec("from emergence_lab import *", namespace)
    assert set(emergence_lab.__all__) <= set(namespace)


def _library_section() -> str:
    return README.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]


def _library_api() -> set[str]:
    """Names bulleted as `name` in the README's "Library API" section."""
    return set(re.findall(r"^- `(\w+)`", _library_section(), flags=re.MULTILINE))


def _library_fields() -> set[str]:
    """Fields bulleted as `Class.field`, one or more joined by "and", there."""
    heads = re.findall(
        r"^- ((?:`\w+\.\w+`(?: and )?)+)", _library_section(), flags=re.MULTILINE
    )
    return {name for head in heads for name in re.findall(r"`(\w+\.\w+)`", head)}


def _public_and_read() -> tuple[set[str], set[str]]:
    """Public names of the package, and the names that src/ reads.

    A public name is one in ``__all__`` or a top-level def or class of a
    module whose name has no leading underscore. A read is a name or an
    attribute access anywhere under src/ outside ``__init__.py`` and outside
    the definition itself; an import alone is not a read.
    """
    public = set(emergence_lab.__all__)
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            defined = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not defined.startswith("_"):
                public.add(defined)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != defined:
                    reads.add(name)
    return public, reads


def test_every_public_name_has_a_caller():
    # the converse of the test above: a public name that nothing under src/
    # reads is surface kept for the tests alone, unless the README lists it
    # as library API and says why it stays
    public, reads = _public_and_read()
    unread = public - reads
    documented = _library_api()
    assert sorted(unread - documented) == []
    # a listed name must exist and still lack a caller
    assert sorted(documented - unread) == []


def test_experiments_imports_no_private_name():
    # experiments reads the other layers through their public functions, so
    # the shared transforms it hands them are an interface, not a peek inside
    tree = ast.parse((PACKAGE / "experiments.py").read_text())
    private = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == []


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def _fields_and_loads() -> tuple[set[str], set[str]]:
    """Every dataclass field under src/ as "Class.field", and the attribute
    names that src/ loads (``x.name`` read, not assigned)."""
    fields, loads = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(d) for d in node.decorator_list
            ):
                fields.update(
                    f"{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    return fields, loads


def test_every_dataclass_field_is_read():
    # a field that nothing under src/ reads is a number computed for the
    # tests alone, unless the README lists it as library API and says why
    fields, loads = _fields_and_loads()
    unread = {f for f in fields if f.split(".")[1] not in loads}
    documented = _library_fields()
    assert sorted(unread - documented) == []
    # a listed field must exist and still lack a reader
    assert sorted(documented - unread) == []


def _annotation_names(node: ast.expr) -> set[str]:
    """Every name an annotation spells, a string annotation's included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval").body)
    return names


def test_no_state_type_stores_its_spectrum():
    # mode amplitudes and NW wavefunctions are arrays handed on with the
    # Spectrum, like every field, so no dataclass pairs a state with one.
    # The truncated Fock space keeps the f_k(x) table of its modes, not the
    # Spectrum it was built from
    holders = sorted(
        f"{path.name}: {node.name}.{item.target.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and "Spectrum" in _annotation_names(item.annotation)
    )
    assert holders == []


# Each module's imports from within the package. A layer reads only the
# layers beneath it; experiments alone sets the layers side by side, so it
# alone imports the Fock oracle, which arbitrates the others' formulas, and
# it alone meets the NW map with particle's probes
IMPORT_GRAPH = {
    "__init__": {
        "asymptotics", "experiments", "geometry", "modes", "newton_wigner",
        "particle", "spectral",
    },
    "asymptotics": {"spectral"},
    "cli": {"experiments", "particle", "serialize"},
    "experiments": {
        "asymptotics", "fock_oracle", "geometry", "modes", "newton_wigner",
        "particle", "spectral",
    },
    "fock_oracle": {"spectral"},
    "geometry": {"modes", "spectral"},
    "modes": {"spectral"},
    "newton_wigner": {"modes", "spectral"},
    "particle": {"geometry", "modes", "spectral"},
    "serialize": set(),
    "spectral": set(),
}


def _package_imports(tree: ast.AST) -> set[str]:
    """The package's modules that one module imports, relatively or by the
    package's name, at top level or inside a function."""
    package = emergence_lab.__name__
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != package:
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                parts[1]
                for alias in node.names
                if (parts := alias.name.split("."))[0] == package and len(parts) > 1
            )
    return found


def test_import_graph_is_pinned():
    graph = {
        path.stem: _package_imports(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert graph == IMPORT_GRAPH
    assert [name for name, deps in graph.items() if "fock_oracle" in deps] == ["experiments"]


def test_only_spectral_reads_the_transform_route():
    # how a Spectrum transforms is spectral's own business: other layers
    # reach f(R) through apply_function and mode coordinates through project
    # and synthesize, never through the stored wavevectors
    readers = sorted(
        f"{path.name}: .{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "spectral.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "hartley_modes"
    )
    assert readers == []


# Every dataclass under src/. A diagnostic that one experiment reads straight
# back returns a plain tuple instead, so a new record lands here as a decision
DATACLASSES = [
    "CheckRecord", "CoherentState", "DecayFit", "ExperimentConfig",
    "FockSpace", "Lattice", "LocalizationReport", "PhaseVector", "ROperator",
    "RateFit", "RunReport", "Spectrum", "SymbolPolynomial", "Table",
]


def test_dataclasses_are_pinned():
    names = sorted(
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(d) for d in node.decorator_list)
    )
    assert names == DATACLASSES
