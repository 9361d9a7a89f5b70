"""Benchmark for emergence_lab: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Every
workload starts with one untimed warm-up pass, then runs passes back to back
(the next pass starts when the previous returns) until S seconds are spent.

--trace 0 prints the end-to-end metrics: set-up time (median of several fresh
interpreters), median and tail pass time, CPU per pass and peak RSS.
--trace 1 prints the per-layer metrics. After the warm-up pass, and on
large-lattice one traced pass at 1 BLAS thread, it splits what is left of S
between untraced passes and 2 or 3 traced passes (layer spans, see
tracer.py). Minimum pass counts win over S: a traced large-lattice run takes
about 50 s whatever S is.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it holds the environment and details. See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT, PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
# traced passes keep every span in memory: 2 to 3 passes bound that memory
MIN_TRACED, MAX_TRACED = 2, 3
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s_p50": "s",
    "pass_s_tail": "s",
    "cpu_s_per_pass": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # checked against workloads.WORKLOADS in main: importing workloads loads
    # numpy, which must wait until the BLAS threads are pinned
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


# -- BLAS threads ------------------------------------------------------------

def pin_blas_env(threads: int) -> None:
    """Pin BLAS pools before numpy loads; children inherit the setting."""
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


class OpenBLAS:
    """Thread control of the OpenBLAS that numpy links (None if absent)."""

    def __init__(self, numpy_module):
        libs_dir = Path(numpy_module.__file__).parent.parent / "numpy.libs"
        self._set = self._get = None
        for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if setter is not None and getter is not None:
                        setter.argtypes, getter.restype = [ctypes.c_int], ctypes.c_int
                        self._set, self._get = setter, getter
                        return

    def threads(self) -> int | None:
        return None if self._get is None else int(self._get())

    def set_threads(self, n: int) -> None:
        if self._set is None:
            raise RuntimeError("no OpenBLAS thread control found for numpy")
        self._set(n)


# -- measurement -------------------------------------------------------------

def measure_setup(workload: str, seed: int, scratch: Path) -> list[float]:
    """Wall time from spawning a fresh interpreter to its "ready" line."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(scratch)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def run_passes(workload, seconds: float, min_passes: int, max_passes=None, tracer=None):
    """Closed loop: start passes back to back until `seconds` are spent.

    With a tracer, each pass is one traced pass.
    """
    times, cpu, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(times) < min_passes or (
        time.perf_counter() < deadline and len(times) != max_passes
    ):
        if tracer is not None:
            tracer.begin_pass()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        raw = workload.run()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.end_pass()
        times.append(wall1 - wall0)
        cpu.append(cpu1 - cpu0)
        outcomes.append(workload.check(raw))
    return times, cpu, outcomes


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples). With too few samples for any such
    percentile the maximum is returned, at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND above it
    return ordered[rank - 1], 100.0 * rank / n, n


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "emergence_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    found = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return found.stdout.strip() or None


def environment(seed, nproc, blas) -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{config.get('name')} {config.get('version')}",
        "blas_threads": blas.threads(),
        "nproc": nproc,
    }


def total_outcome(outcomes) -> tuple[int, int, list[str]]:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    unexpected = sorted({u for o in outcomes for u in o.unexpected})
    return attempted, failed, unexpected


# -- the two kinds of run ------------------------------------------------------

def untraced_run(args, workload, scratch: Path):
    setup = measure_setup(args.workload, args.seed, scratch)
    warm = workload.check(workload.run())
    times, cpu, outcomes = run_passes(workload, args.seconds, 1)
    tail_value, tail_pct, samples = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s_p50": statistics.median(times),
        "pass_s_tail": tail_value,
        "cpu_s_per_pass": statistics.median(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s": setup,
        "pass_s": times,
        "tail_percentile": tail_pct,
        "tail_samples": samples,
    }
    return metrics, [warm] + outcomes, detail


def serial_pass(workload, blas: OpenBLAS):
    """One traced pass at 1 BLAS thread, the single-thread baseline."""
    tracer = Tracer()
    tracer.install()
    pinned = blas.threads()
    blas.set_threads(1)
    try:
        times, _, outcomes = run_passes(workload, 0.0, 1, 1, tracer)
    finally:
        blas.set_threads(pinned)
        tracer.uninstall()
    return tracer, tracer.summary(0, times[0]), outcomes


def check_exact(workload: str, seed: int, exact: dict) -> str | None:
    """Compare the exact counts with an earlier traced run of this seed.

    The first traced run of a seed on a given package source records its
    counts; later runs must reproduce them. Returns a failure label or None.
    """
    path = OUT / f"exact.{workload}.seed{seed}.json"
    record = {"src_sha256": source_digest(), "counts": exact}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["src_sha256"] == record["src_sha256"]:
            if earlier["counts"] != exact:
                return f"exact counts differ from the earlier traced run in {path.name}"
            return None
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return None


def traced_run(args, workload, blas: OpenBLAS):
    began = time.perf_counter()
    outcomes = [workload.check(workload.run())]
    serial = None
    if args.workload == "large-lattice":
        serial, serial_summary, serial_outcomes = serial_pass(workload, blas)
        outcomes += serial_outcomes
    left = max(0.0, args.seconds - (time.perf_counter() - began))
    plain, _, plain_outcomes = run_passes(workload, left / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_outcomes = run_passes(
            workload, left / 2, MIN_TRACED, MAX_TRACED, tracer
        )
    finally:
        tracer.uninstall()
    outcomes += plain_outcomes + traced_outcomes
    tracer.dump(OUT / f"spans.{args.workload}.seed{args.seed}.npz")
    summaries = [tracer.summary(i, t) for i, t in enumerate(traced)]

    metrics = {
        key: statistics.median(s[key] for s in summaries)
        for key in PER_LAYER
        if key in summaries[0]
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["spectral.diagonalize.serial_self_s"] = 0.0
    if serial is not None:
        serial.dump(OUT / f"spans.{args.workload}.seed{args.seed}.serial.npz")
        metrics["spectral.diagonalize.serial_self_s"] = serial_summary["spectral.diagonalize.self_s"]
        summaries.append(serial_summary)
    # the exact counts must repeat between these passes and across runs
    exact = [{key: s[key] for key in EXACT} for s in summaries]
    if any(counts != exact[0] for counts in exact):
        outcomes[0].unexpected.append("exact counts differ between traced passes")
    mismatch = check_exact(args.workload, args.seed, exact[0])
    if mismatch:
        outcomes[0].unexpected.append(mismatch)
    pass_s = statistics.median(traced)
    detail = {
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "run_s": time.perf_counter() - began,
        "exact_counts": exact[0],
        "by_size_self_s": summaries[0]["by_size"],
        "layer_share": {
            key[: -len(".self_s")]: metrics[key] / pass_s
            for key in PER_LAYER
            if key.endswith(".self_s") and key in summaries[0] and metrics[key] > 0
        },
    }
    return metrics, outcomes, detail


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    pin_blas_env(nproc)
    if not (SRC / "emergence_lab" / "__init__.py").is_file():
        print(f"error: no emergence_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import emergence_lab
    from workloads import KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    if Path(emergence_lab.__file__).resolve().parent != SRC / "emergence_lab":
        print(f"error: emergence_lab loaded from {emergence_lab.__file__}", file=sys.stderr)
        return 2
    blas = OpenBLAS(numpy)
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    if args.trace:
        metrics, outcomes, detail = traced_run(args, workload, blas)
        units = PER_LAYER
    else:
        metrics, outcomes, detail = untraced_run(args, workload, scratch)
        units = END_TO_END
    attempted, failed, unexpected = total_outcome(outcomes)
    detail.update({
        "workload": args.workload,
        "error_rate": failed / attempted,
        "known_defects": KNOWN_DEFECTS.get(args.workload),
        "unexpected_failures": unexpected,
    })
    print(json.dumps({"env": environment(args.seed, nproc, blas), "detail": detail}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
