"""Layer spans for emergence_lab, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules at every
module attribute and module-level dict that binds it (``experiments.diagonalize``
and ``asymptotics.diagonalize`` are bindings of their own, as is the
``particle.PROBES`` table), plus the ``Spectrum`` apply methods on the class.
Each call becomes a span: name, parent span, pass id, start and end. Spans
stay in memory; ``summary`` reduces one pass to per-layer counts and self
times, and ``dump`` writes every span (as .npz columns) when the run ends.

Nothing here is imported by the package, and an untraced run never calls
``install``.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# module -> {function: layer}; public functions not listed take the module's
# name as their layer
LAYER_MODULES = {
    "spectral": {
        "diagonalize": "spectral.diagonalize",
        "build_klein_gordon": "spectral.build",
        "build_variable_coefficient": "spectral.build",
        "klein_gordon_symbol_eigenvalues": "spectral.build",
        "kernel_profile": "spectral.kernel",
        "fractional_power": "spectral.kernel",
        "fit_decay_length": "spectral.kernel",
        "bin_by_distance": "spectral.kernel",
    },
    "modes": {},
    "geometry": {},
    "particle": {
        "phi2_diff": "particle.probes",
        "pi2_diff": "particle.probes",
        "energy_density_diff": "particle.probes",
        "vacuum_two_point": "particle.probes",
        "calibrate_kappa": "particle.probes",
        "elp_check": "particle.elp",
        "localization_report": "particle.localization",
        "support_sites": "particle.localization",
        "distance_beyond": "particle.localization",
        "region_ball": "particle.localization",
        "make_particle": "particle.localization",
        "particle_from_modes": "particle.localization",
        "superpose": "particle.localization",
    },
    "newton_wigner": {},
    "fock_oracle": {},
    "asymptotics": {
        "branch_cut_kernel": "asymptotics.contour",
        "direct_radial_integral": "asymptotics.direct",
        "kernel_decay_rate": "asymptotics.rate",
        "lattice_vs_continuum": "asymptotics.refine",
        "find_branch_points": "asymptotics.symbol",
        "predict_compton": "asymptotics.symbol",
        "rescale_symbol": "asymptotics.symbol",
        "self_energy": "asymptotics.symbol",
    },
    "experiments": {},
    # report and table writing happens in the private _write_outputs
    "cli": {
        "_write_outputs": "cli.write",
        "emit_table": "cli.write",
        "report_json": "cli.write",
    },
}
SPECTRUM_METHODS = ("project", "synthesize", "apply_power")

LAYERS = (
    "spectral.diagonalize", "spectral.build", "spectral.apply", "spectral.kernel",
    "modes", "geometry",
    "particle.probes", "particle.localization", "particle.elp",
    "newton_wigner", "fock_oracle",
    "asymptotics.contour", "asymptotics.direct", "asymptotics.rate",
    "asymptotics.refine", "asymptotics.symbol",
    "experiments", "cli", "cli.write",
)
FAILABLE = ("asymptotics.contour", "asymptotics.direct", "asymptotics.rate")
EXPERIMENTS = (
    "kernel", "modes-check", "geometry-check", "oracle-verify", "localize",
    "elp", "nw", "asymptotics", "segal-check",
)
# dense N x N float64 arrays returned by these calls feed spectral.dense_bytes
DENSE_RESULTS = (
    "spectral.build_klein_gordon", "spectral.build_variable_coefficient",
    "spectral.diagonalize", "spectral.fractional_power",
)
SIZED = ("spectral.build", "spectral.diagonalize")

# per-layer metric -> unit: every key of a pass summary, plus the last two,
# which compare passes (traced against untraced, 1 BLAS thread against many)
PER_LAYER = {
    f"{layer}.{kind}": unit
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
}
PER_LAYER.update({f"{layer}.failed": "count" for layer in FAILABLE})
PER_LAYER.update({f"experiments.{name}.total_s": "s" for name in EXPERIMENTS})
PER_LAYER.update({
    "spectral.diagonalize.distinct": "count",
    "spectral.diagonalize.distinct_ratio": "ratio",
    "spectral.diagonalize.max_sites": "count",
    "spectral.dense_bytes": "bytes",
    "fock_oracle.max_dim": "count",
    "cli.write.bytes": "bytes",
    "trace.spans": "count",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
    "spectral.diagonalize.serial_self_s": "s",
})
# counts that must repeat exactly between traced passes of one seed
EXACT = (
    "spectral.diagonalize.calls", "spectral.diagonalize.distinct",
    "spectral.apply.calls", "spectral.dense_bytes", "fock_oracle.max_dim",
    "asymptotics.contour.calls", "asymptotics.contour.failed",
)


def _operator_fingerprint(matrix) -> str:
    """Identity of a stencil operator: its diagonal and two full rows.

    Every operator the package builds is fixed by its lattice and these
    entries; hashing them is O(N), where hashing the matrix is O(N^2).
    """
    n = matrix.shape[0]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(matrix.shape).encode())
    for part in (matrix.diagonal(), matrix[0], matrix[n // 2]):
        digest.update(part.tobytes())
    return digest.hexdigest()


def _sites(result) -> dict:
    return {"sites": result.lattice.nsites}


def _spectrum_attrs(result) -> dict:
    return {
        "sites": result.lattice.nsites,
        "operator": _operator_fingerprint(result.operator.matrix),
    }


ATTRS = {
    "spectral.diagonalize": lambda a, k, r: _spectrum_attrs(r),
    "spectral.build_klein_gordon": lambda a, k, r: _sites(r),
    "spectral.build_variable_coefficient": lambda a, k, r: _sites(r),
    "spectral.fractional_power": lambda a, k, r: _sites(r),
    "fock_oracle.build_fock": lambda a, k, r: {"dim": r.dim},
    "experiments.run_experiment": lambda a, k, r: {"experiment": a[0].experiment},
    "cli._write_outputs": lambda a, k, r: {"bytes": sum(p.stat().st_size for p in r)},
}


def layer_of(name: str) -> str:
    module, func = name.split(".", 1)
    if module == "Spectrum":
        return "spectral.apply"
    return LAYER_MODULES[module].get(func, module)


class Tracer:
    """In-memory span recorder around emergence_lab's layer boundaries.

    Spans are stored as columns (one typed array per field, ~40 bytes a span)
    because a traced small-state-stream pass makes about half a million.
    """

    def __init__(self):
        self.names: list[str] = []  # span name by index, one per wrapper
        self.name = array("i")  # span -> index into names
        self.parent = array("q")  # span -> parent span, or -1
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.attrs: dict[int, dict] = {}  # span -> sizes and labels (ATTRS)
        self._stack: list[int] = []
        # span index range [start, end) of each pass, by pass id
        self._passes: list[list[int]] = []
        self.pass_id = -1
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        attrs = ATTRS.get(qualname)
        stack = self._stack
        names, parents, passes = self.name, self.parent, self.pass_of
        starts, ends, raised, attr_map = self.start, self.end, self.raised, self.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.pass_id)
            raised.append(0)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if attrs is not None:
                attr_map[span] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions wherever the loaded package binds them."""
        wrappers: dict[int, object] = {}
        for module_name, table in LAYER_MODULES.items():
            module = importlib.import_module(f"emergence_lab.{module_name}")
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in table:
                    continue
                wrappers[id(obj)] = self._wrap(f"{module_name}.{name}", obj)
        from emergence_lab.spectral import Spectrum

        for method in SPECTRUM_METHODS:
            original = Spectrum.__dict__[method]
            setattr(Spectrum, method, self._wrap(f"Spectrum.{method}", original))
            self._undo.append((setattr, Spectrum, method, original))
        package_modules = [
            m for name, m in list(sys.modules.items())
            if name == "emergence_lab" or name.startswith("emergence_lab.")
        ]
        for module in package_modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
                    self._undo.append((setattr, module, name, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
                            self._undo.append((dict.__setitem__, value, key, item))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_id = len(self._passes)
        self._passes.append([len(self.start), len(self.start)])

    def end_pass(self) -> None:
        self._passes[self.pass_id][1] = len(self.start)
        self.pass_id = -1

    def summary(self, pass_id: int, pass_seconds: float) -> dict:
        """Per-layer counts and self times of one pass."""
        lo, hi = self._passes[pass_id]
        parents, starts, ends = self.parent, self.start, self.end
        child_time = defaultdict(float)
        for i in range(lo, hi):
            if parents[i] >= 0:
                child_time[parents[i]] += ends[i] - starts[i]
        layers = [layer_of(name) for name in self.names]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        failed = defaultdict(int)
        experiment_s = defaultdict(float)
        by_size = defaultdict(list)
        operators = []
        max_sites = fock_dim = dense_bytes = write_bytes = 0
        covered = 0.0
        for i in range(lo, hi):
            layer = layers[self.name[i]]
            duration = ends[i] - starts[i]
            calls[layer] += 1
            self_s[layer] += duration - child_time[i]
            failed[layer] += self.raised[i]
            if parents[i] < 0:
                covered += duration
            attrs = self.attrs.get(i)
            if attrs is None:
                continue
            name = self.names[self.name[i]]
            if name == "experiments.run_experiment":
                experiment_s[attrs["experiment"]] += duration
            if name == "cli._write_outputs":
                write_bytes += attrs["bytes"]
            if name == "fock_oracle.build_fock":
                fock_dim = max(fock_dim, attrs["dim"])
            if name in DENSE_RESULTS:
                dense_bytes += 8 * attrs["sites"] ** 2
            if layer in SIZED:
                by_size[(layer, attrs["sites"])].append(duration - child_time[i])
            if name == "spectral.diagonalize":
                operators.append(attrs["operator"])
                max_sites = max(max_sites, attrs["sites"])
        diag_calls = calls["spectral.diagonalize"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for layer in FAILABLE:
            out[f"{layer}.failed"] = failed[layer]
        for name in EXPERIMENTS:
            out[f"experiments.{name}.total_s"] = experiment_s[name]
        out["spectral.diagonalize.distinct"] = len(set(operators))
        out["spectral.diagonalize.distinct_ratio"] = (
            len(set(operators)) / diag_calls if diag_calls else 0.0
        )
        out["spectral.diagonalize.max_sites"] = max_sites
        out["spectral.dense_bytes"] = dense_bytes
        out["fock_oracle.max_dim"] = fock_dim
        out["cli.write.bytes"] = write_bytes
        out["trace.spans"] = hi - lo
        out["trace.uncovered_s"] = pass_seconds - covered
        out["by_size"] = {
            f"{layer}@{sites}": statistics.median(times)
            for (layer, sites), times in sorted(by_size.items())
        }
        return out

    def dump(self, path: Path) -> None:
        """Write every span as .npz columns; `attrs` is one JSON string."""
        import numpy

        path.parent.mkdir(parents=True, exist_ok=True)
        numpy.savez(
            path,
            names=numpy.array(self.names),
            name=numpy.frombuffer(self.name, dtype=numpy.int32),
            parent=numpy.frombuffer(self.parent, dtype=numpy.int64),
            pass_id=numpy.frombuffer(self.pass_of, dtype=numpy.int32),
            start=numpy.frombuffer(self.start, dtype=numpy.float64),
            end=numpy.frombuffer(self.end, dtype=numpy.float64),
            raised=numpy.frombuffer(self.raised, dtype=numpy.int8),
            attrs=numpy.array(json.dumps(self.attrs)),
        )
