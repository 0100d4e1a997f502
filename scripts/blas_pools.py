"""The two bundled OpenBLAS builds, and the dense path on one of them.

    python3 scripts/blas_pools.py [--parent DIR] [--seed 2821] [--pairs 10]
                                  [--seconds 10] [--repeats 9] [--json PATH]

Run from the root of a checkout; the package is imported from ``src/``.
numpy and scipy each bundle an OpenBLAS with its own thread pool.  After a
call, a pool's workers spin for a while before they sleep, and on a
machine with few cores they hold the cores the other library's threads
need.  The script prints and, with ``--json``, writes:

* ``openblas``: both builds, from ``numpy.show_config()`` and
  ``scipy.show_config()``;
* ``pools``: the median ms of scipy's ``cho_factor`` on a 2000 x 2000
  Gram, run alone (after another ``cho_factor``), right after numpy's
  product ``X @ X.T`` and right after the same product by scipy's
  ``dsyrk``, the three cases interleaved over ``--repeats`` rounds;
* ``clenshaw``: min and median ms of ``gram.kernel_from_dots`` on the
  train dots of perfbench's dense-regress inputs at ``--seed``, its blocks
  summed by ``gram._clenshaw`` ("after") and by ``chebyshev.chebval``
  ("before"), interleaved, and whether the two Grams are bit-identical;
* ``dots``: at ``--seed`` and the next seed, the largest difference
  between ``gram._dot_matrix`` and numpy's products on the dense-regress
  self and cross samples, and whether they are bit-identical;
* with ``--parent DIR``, a checkout of the parent commit:
  * ``fresh_regress``: the peak RSS and accuracy of a fresh
    ``deqntk regress --n-train 2000 --n-test 1000`` process on those
    inputs, three runs per tree, alternating;
  * ``sweep_accuracies``: each tree's ``depth_sweep`` accuracies, two
    reps, on perfbench's depth-sweep inputs at ``--seed``;
  * ``layers``: the medians of three traced perfbench runs per tree of
    dense-regress and of depth-sweep, alternating;
  * ``pairs``: ``--pairs`` alternating perfbench runs per workload, one
    per tree at each seed from ``--seed + 100`` on, ``--seconds`` each: the
    medians, the parent's interquartile range, and the pairs this checkout
    wins, per end-to-end metric, and the accuracies of both trees.

Every child process runs with the BLAS threads perfbench sets, started
from a small interpreter so that its peak RSS is its own.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "perfbench")]

from perfbench.run import (  # noqa: E402
    BLAS_THREADS, END_TO_END, THREAD_VARS, load_package, machine_record,
)

load_package()  # the BLAS threads perfbench sets, before either pool starts

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
from numpy.polynomial import chebyshev  # noqa: E402
from scipy.linalg.blas import dsyrk  # noqa: E402

from deqntk import gram  # noqa: E402
from deqntk.data import load_mnist  # noqa: E402
from perfbench.workloads import WORKLOADS, DenseRegress, DepthSweep  # noqa: E402

LAYERS = {
    "dense-regress": ("gram.assemble_gram.self_s", "gram.cross_gram.self_s",
                      "gram.regress_and_score.s", "kernel.theta_deq_grid.s"),
    "depth-sweep": ("gram.depth_sweep.self_s", "gram.regress_and_score.s",
                    "kernel.finite_depth_theta.s"),
}
ENV = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
#: Children start from a small interpreter: Linux carries a process's peak
#: RSS over fork and exec into its child's, so a child run from this process
#: would read at least this one's.
SPAWN = [sys.executable, "-c", "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"]


def openblas_builds() -> dict:
    """Name, version and configuration of the BLAS each library bundles."""
    out = {}
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out[mod.__name__] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return out


def pools(repeats: int) -> dict:
    """Median ms of ``cho_factor`` at n = 2000 after each kind of call."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2000, 784))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    A = X @ X.T + np.eye(2000)
    before = {
        "alone": lambda: scipy.linalg.cho_factor(np.array(A, order="F"), overwrite_a=True),
        "after numpy X @ X.T": lambda: X @ X.T,
        "after scipy dsyrk": lambda: dsyrk(1.0, X.T, trans=1),
    }
    ms = {case: [] for case in before}
    for _ in range(repeats):
        for case, call in before.items():
            M = np.array(A, order="F")
            call()
            start = time.perf_counter()
            scipy.linalg.cho_factor(M, overwrite_a=True)
            ms[case].append(1e3 * (time.perf_counter() - start))
    return {case: round(statistics.median(v), 1) for case, v in ms.items()}


def prepared(cls, directory: Path, seed: int):
    """The workload's inputs written into ``directory`` as perfbench writes them at ``seed``."""
    wl = cls()
    directory.mkdir()
    wl.prepare(directory, seed, list(WORKLOADS).index(cls.name))
    return wl


def dense_inputs(directory: Path, seed: int):
    """perfbench's dense-regress inputs at ``seed``, and the train and test
    samples as the CLI splits them."""
    wl = prepared(DenseRegress, directory, seed)
    ds = load_mnist(directory)
    tr, te = gram._split(np.random.default_rng(wl.cli_seed), len(ds.features),
                         wl.size["n_train"], wl.size["n_test"])
    return wl, ds.features[tr], ds.features[te]


def clenshaw(train: np.ndarray, repeats: int) -> dict:
    """``kernel_from_dots`` on the train dots, blocks summed each way."""
    dots = gram._dot_matrix(train)
    ours = gram._clenshaw
    ways = {"before": lambda x, c, work: chebyshev.chebval(x, c), "after": ours}
    ms, values = {way: [] for way in ways}, {}
    try:
        for _ in range(repeats):
            for way, evaluate in ways.items():
                gram._clenshaw = evaluate
                start = time.perf_counter()
                values[way] = gram.kernel_from_dots(dots, gram.DEQ_NTK, DenseRegress.PARAMS)
                ms[way].append(1e3 * (time.perf_counter() - start))
    finally:
        gram._clenshaw = ours
    out = {f"ms_{way}": {"min": round(min(v), 2), "median": round(statistics.median(v), 2)}
           for way, v in ms.items()}
    out["bit_identical"] = bool(np.array_equal(values["before"], values["after"]))
    return out


def dots_against_numpy(train: np.ndarray, test: np.ndarray) -> dict:
    """Largest |scipy dots - numpy dots| of the self and cross dot
    matrices, numpy's clipped as the parent clipped them."""
    want = np.clip(train @ train.T, -1.0, 1.0)
    np.fill_diagonal(want, 1.0)
    out = {}
    for name, got, ref in (("self", gram._dot_matrix(train), want),
                           ("cross", gram._dot_matrix(test, train),
                            np.clip(test @ train.T, -1.0, 1.0))):
        out[name] = {"max_abs_diff": float(np.max(np.abs(got - ref))),
                     "bit_identical": bool(np.array_equal(got, ref))}
    return out


SWEEP = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from deqntk import gram
from deqntk.data import load_cifar10
from workloads import DepthSweep
wl, ds = DepthSweep(), load_cifar10(sys.argv[3])
rows = gram.depth_sweep(ds.features, ds.labels, wl.size["depths"], *wl.PARAMS.values(), reps=2,
                        n_train=wl.size["n_train"], n_test=wl.size["n_test"], seed=int(sys.argv[4]))
print(json.dumps([r["accuracy"] for r in rows]))
"""


def sweep_accuracies(trees: dict, directory: Path, seed: int) -> dict:
    """``depth_sweep``'s accuracies, two reps, on perfbench's depth-sweep
    inputs at ``seed``, from each tree's package."""
    wl = prepared(DepthSweep, directory, seed)
    return {name: json.loads(subprocess.run(
        [sys.executable, "-c", SWEEP, str(tree / "src"), str(ROOT / "perfbench"),
         str(directory), str(wl.cli_seed)],
        env=ENV, capture_output=True, text=True, check=True).stdout) for name, tree in trees.items()}


FRESH = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from deqntk.cli import main
main(sys.argv[2:], standalone_mode=False)
print(f"peak_rss_mib = {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
"""


def fresh_regress(trees: dict, directory: Path, wl, runs: int = 3) -> dict:
    """Peak RSS and accuracy of one ``regress`` process per run and tree."""
    out = {name: [] for name in trees}
    args = ["regress", "--path", str(directory), "--n-train", str(wl.size["n_train"]),
            "--n-test", str(wl.size["n_test"]), "--seed", str(wl.cli_seed)]
    for i in range(runs):
        for name in sorted(trees, reverse=bool(i % 2)):
            done = subprocess.run(
                [*SPAWN, sys.executable, "-c", FRESH, str(trees[name] / "src"), *args],
                env=ENV, capture_output=True, text=True, check=True)
            got = dict(line.split(" = ") for line in done.stdout.splitlines() if " = " in line)
            out[name].append({"peak_rss_mib": float(got["peak_rss_mib"]),
                              "accuracy": float(got["accuracy"])})
    return out


def exported(tree: Path, directory: Path) -> Path:
    """``tree``'s ``src/`` and ``perfbench/`` copied into ``directory``, a
    checkout without git metadata for both trees alike: in a git checkout
    every ``--out`` command's ``git describe`` costs ~1.7 ms more, which is
    a fifth of a cdeq-gram iteration."""
    for part in ("src", "perfbench"):
        shutil.copytree(tree / part, directory / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    return directory


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics, and the accuracy line if any, of one perfbench run in ``tree``."""
    done = subprocess.run(
        [*SPAWN, sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=ENV, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    accuracy = [float(line.split(" = ")[1]) for line in lines if line.startswith("accuracy = ")]
    return {"correct": result["correct"], "accuracy": accuracy[0] if accuracy else None,
            **{name: m["value"] for name, m in result["metrics"].items()}}


def alternating(trees: dict, workload: str, seeds, seconds: float, trace: int) -> dict:
    """One run per tree at each seed, the order flipped at every other seed."""
    runs = {name: [] for name in trees}
    for i, seed in enumerate(seeds):
        for name in sorted(trees, reverse=bool(i % 2)):
            runs[name].append(perfbench(trees[name], workload, seed, seconds, trace))
    return runs


def quartiles(values) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(runs: dict, metrics) -> dict:
    """Per metric: each tree's median and quartiles, the parent's IQR and
    this checkout's wins."""
    out = {}
    for metric in metrics:
        parent = [r[metric] for r in runs["parent"]]
        change = [r[metric] for r in runs["change"]]
        lower = END_TO_END.get(metric, ("", "lower"))[1] == "lower"
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        out[metric] = {
            "parent_median": statistics.median(parent), "parent_quartiles": [p1, p3],
            "change_median": statistics.median(change), "change_quartiles": [c1, c3],
            "ratio": statistics.median(change) / statistics.median(parent),
            "parent_iqr": p3 - p1,
            "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            "pairs": len(parent),
        }
    return out


def compare(trees: dict, directory: Path, wl, args) -> dict:
    """The sections that run both trees, each printed as it ends."""
    out = {"fresh_regress": fresh_regress(trees, directory / f"regress{args.seed}", wl)}
    print(f"fresh regress: {out['fresh_regress']}")
    out["sweep_accuracies"] = sweep_accuracies(trees, directory / "sweep", args.seed)
    print(f"depth_sweep accuracies: {out['sweep_accuracies']}")
    out["layers"] = {}
    for workload, metrics in LAYERS.items():
        runs = alternating(trees, workload, range(args.seed, args.seed + 3), args.seconds, 1)
        out["layers"][workload] = {"runs": runs, "summary": summary(runs, metrics)}
        for metric, s in out["layers"][workload]["summary"].items():
            print(f"{workload} {metric}: {s['parent_median']:.4g} -> {s['change_median']:.4g}")
    out["pairs"] = {}
    seeds = range(args.seed + 100, args.seed + 100 + args.pairs)
    for workload in WORKLOADS:
        runs = alternating(trees, workload, seeds, args.seconds, 0)
        out["pairs"][workload] = {"runs": runs, "summary": summary(runs, END_TO_END)}
        for metric, s in out["pairs"][workload]["summary"].items():
            print(f"{workload} {metric}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"(x{s['ratio']:.3f}, parent IQR {s['parent_iqr']:.3g}, "
                  f"wins {s['wins']}/{s['pairs']})")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=2821)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    record = {"machine": machine_record(), "seed": args.seed, "openblas": openblas_builds()}
    for lib, build in record["openblas"].items():
        print(f"{lib}: {build['openblas configuration']}")
    record["pools"] = pools(args.repeats)
    for case, ms in record["pools"].items():
        print(f"cho_factor n=2000 {case}: {ms} ms")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {seed: dense_inputs(Path(tmp) / f"regress{seed}", seed)
                  for seed in (args.seed, args.seed + 1)}
        wl, train, _ = inputs[args.seed]
        record["clenshaw"] = clenshaw(train, args.repeats)
        print(f"kernel_from_dots, dense-regress train dots: {record['clenshaw']}")
        record["dots"] = {seed: dots_against_numpy(train, test)
                          for seed, (_, train, test) in inputs.items()}
        print(f"dot matrices against numpy's: {record['dots']}")
        if args.parent is not None:
            trees = {name: exported(tree, Path(tmp) / name)
                     for name, tree in (("parent", args.parent), ("change", ROOT))}
            record.update(compare(trees, Path(tmp), wl, args))
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
