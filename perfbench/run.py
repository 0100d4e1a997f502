"""deqntk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run writes synthetic inputs from ``--seed`` (set-up, repeated
``SETUP_REPS`` times), then runs the workload's commands through the
``deqntk`` CLI in-process, one iteration after another (closed loop, one
client), for as many iterations as fit in ``--seconds``, and checks every
iteration's outputs.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, tracing off.
* ``--trace 1``: the per-layer metrics.  Iterations alternate untraced and
  traced, so the run also states the tracing overhead (traced minus
  untraced median ``wall_s``).

The lines before it are a readable report and the machine record.  A
record of each run, and the spans of a traced run, are written under
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
# Two cores on the reference machine; BLAS gets at most two threads.
BLAS_THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "work_per_s": ("1/s", "higher"),
}

# Every layer metric is lower-is-better; a layer a workload does not touch reads 0.
PER_LAYER = {
    "data.load_mnist.s": "s",
    "data.load_cifar10.s": "s",
    "data.bytes_parsed": "bytes",
    "kernel.theta_deq_grid.s": "s",
    "kernel.theta_deq_grid.entries": "count",
    "kernel.theta_deq_grid.ns_per_entry": "ns",
    "kernel.finite_depth_theta.s": "s",
    "kernel.finite_depth_theta.layer_entries": "count",
    "kernel.finite_depth_theta.ns_per_layer_entry": "ns",
    "gram.assemble_gram.self_s": "s",
    "gram.cross_gram.self_s": "s",
    "gram.kernel_from_dots.calls": "count",
    "gram.depth_sweep.self_s": "s",
    "gram.regress_and_score.s": "s",
    "gram.regress_and_score.calls": "count",
    "conv.cdeq_kernel_pair.s": "s",
    "conv.cdeq_kernel_pair.calls": "count",
    "conv.cdeq_sigma_fixed_point.s": "s",
    "conv.cdeq_theta.s": "s",
    "conv.patch_trace.s": "s",
    "conv.patch_trace.calls": "count",
    "conv.cdeq_k_step.calls": "count",
    "empirical.make_weights.s": "s",
    "empirical.deq_forward.s": "s",
    "empirical.deq_forward.calls": "count",
    "empirical.deq_forward.iterations": "count",
    "empirical.ift_ntk_pair.self_s": "s",
    "empirical.resolvent_trace.s": "s",
    "empirical.empirical_spectrum.s": "s",
    "spectra.support_endpoints.s": "s",
    "spectra.density_table.self_s": "s",
    "spectra.density.calls": "count",
    "spectra.stieltjes_root.calls": "count",
    "spectra.stieltjes_root.s": "s",
    "spectra.integrate_inverse_eig.s": "s",
    "cli.regress.self_s": "s",
    "cli.depth-sweep.self_s": "s",
    "cli.cdeq.self_s": "s",
    "cli.spectrum.self_s": "s",
    "cli.trace.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Time per unit of work: metric -> (span name, count metric).
PER_UNIT = {
    "kernel.theta_deq_grid.ns_per_entry": ("kernel.theta_deq_grid", "kernel.theta_deq_grid.entries"),
    "kernel.finite_depth_theta.ns_per_layer_entry": (
        "kernel.finite_depth_theta", "kernel.finite_depth_theta.layer_entries"
    ),
}
WORKLOAD_NAMES = ("dense-regress", "depth-sweep", "cdeq-gram", "random-matrix")


def load_package() -> None:
    """Limit BLAS threads, then import deqntk from this checkout's ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import deqntk

    where = Path(deqntk.__file__).resolve().parent
    if where != SRC / "deqntk":
        raise ImportError(f"deqntk imported from {where}, not from {SRC}")


def probe_import() -> None:
    """The start-up a user pays per command: a fresh interpreter importing the CLI."""
    subprocess.run(
        [sys.executable, "-c", "import deqntk.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True, timeout=120,
    )


def clear_caches() -> None:
    """Empty every ``lru_cache`` in the package, as a fresh CLI process has them."""
    from tracing import package_modules

    for mod in package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def blas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "deqntk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
    }


class Tally:
    """Attempted and failed CLI calls, library calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")
            print(f"check failed: {what}: {detail}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Session:
    """Runs commands for one iteration, inside spans when a tracer is set."""

    def __init__(self, tally: Tally):
        from click.testing import CliRunner
        from deqntk import cli

        self.tally = tally
        self.tracer = None
        self._runner = CliRunner()
        self._main = cli.main

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def invoke(self, command: str, *args):
        with self._span(f"cli.{command}"):
            result = self._runner.invoke(self._main, [command, *map(str, args)])
        self.tally.record(f"deqntk {command} exit code", result.exit_code == 0,
                          f"{result.exit_code}: {result.output[-500:]!r} {result.exception!r}")
        return result

    def call(self, what: str, fn):
        try:
            value = fn()
        except Exception as exc:  # the loop keeps running; the failure is counted
            traceback.print_exc()
            self.tally.record(what, False, repr(exc))
            return None
        self.tally.record(what, True)
        return value


def layer_metrics(tracer) -> dict:
    total, own, calls = tracer.summary()
    values = {}
    for name in PER_LAYER:
        fn, kind = name.rsplit(".", 1)
        if name in PER_UNIT:
            span, count = PER_UNIT[name]
            n = tracer.counts[count]
            values[name] = 1e9 * total[span] / n if n else 0.0
        elif kind == "s":
            values[name] = total[fn]
        elif kind == "self_s":
            values[name] = own[fn]
        elif kind == "calls":
            values[name] = calls[fn]
        else:
            values[name] = tracer.counts[name]
    values["trace.spans"] = len(tracer.spans)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (result dict, report lines, record dict)."""
    from tracing import Patches, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](tiny)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setup = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            directory = Path(tempfile.mkdtemp(dir=scratch))
            probe_import()
            wl.prepare(directory, seed, list(WORKLOADS).index(workload))
            setup.append(time.perf_counter() - start)

        tally = Tally()
        session = Session(tally)
        walls = {False: [], True: []}
        tracers, reports = [], []
        durations = []
        started = time.perf_counter()
        while True:
            begun = time.perf_counter()
            traced = trace and len(walls[False]) > len(walls[True])
            clear_caches()
            wl.clear_outputs()
            patches = Patches()
            session.tracer = Tracer() if traced else None
            try:
                if traced:
                    session.tracer.install()
                wl.install_taps(patches)
                start = time.perf_counter()
                outputs = wl.iterate(session.invoke, session.call)
                walls[traced].append(time.perf_counter() - start)
            finally:
                patches.undo()
                if traced:
                    session.tracer.uninstall()
                    tracers.append(session.tracer)
            try:
                reports.append(wl.check(outputs, tally.record))
            except Exception as exc:  # unreadable output: one failed check, keep running
                traceback.print_exc()
                tally.record(f"{workload} outputs readable", False, repr(exc))
            durations.append(time.perf_counter() - begun)
            # Start no iteration that would likely end after the deadline, but
            # take two samples at least: one untraced and one traced under --trace 1.
            expected_end = time.perf_counter() - started + statistics.median(durations)
            if expected_end > seconds and len(durations) >= 2:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wall = statistics.median(walls[False])
    lines = [
        f"workload {workload}, seed {seed}: closed loop, one client, "
        f"{len(walls[False]) + len(walls[True])} iterations in "
        f"{time.perf_counter() - started:.1f} s",
    ]
    if trace:
        per_iter = [layer_metrics(t) for t in tracers]
        metrics = {name: statistics.median(v[name] for v in per_iter) for name in PER_LAYER}
        traced_wall = statistics.median(walls[True])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = traced_wall - wall
        units = PER_LAYER
        lines.append(
            f"tracing overhead: {traced_wall - wall:+.4f} s per iteration "
            f"({100 * (traced_wall / wall - 1):+.2f}%; traced median of {len(walls[True])}, "
            f"untraced median of {len(walls[False])})"
        )
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": wl.work / wall,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        lines.append(
            f"wall_s: median of {len(walls[False])} iterations; min {min(walls[False]):.4f} s, "
            f"max {max(walls[False]):.4f} s"
        )
        lines.append(f"work per iteration: {wl.work} {wl.work_name}")
        lines.append(f"{wl.rate_name} = {metrics['work_per_s']:.6g} 1/s")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    accuracy = [r["accuracy"] for r in reports if r.get("accuracy") is not None]
    if accuracy:
        lines.append(f"accuracy = {statistics.median(accuracy):.4f}")
    lines.append(f"failed_frac = {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted} calls and checks)")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "walls": walls[False], "traced_walls": walls[True], "setup": setup,
        "failures": tally.failures, "report": lines, "result": result,
        "spans": [t.spans for t in tracers],
    }
    return result, lines, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deqntk" / "__init__.py").is_file():
        print(f"error: no deqntk package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    load_package()
    machine = machine_record()
    result, lines, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.tiny)
    record["machine"] = machine
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record))
    print("machine " + json.dumps(machine))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
