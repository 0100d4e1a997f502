"""Degree, evaluated length and accuracy of the dense kernels' chopped fits.

    python3 scripts/fit_chop.py [--seed 2401] [--repeats 5] [--json PATH]

Run from the root of a checkout; the package is imported from ``src/``.
Each fit is one ``gram.kernel_from_dots`` call, on these inputs:

* ``depth-sweep``: perfbench's depth-sweep inputs at ``--seed`` (400 train
  and 100 test synthetic CIFAR-10 samples), split as the CLI splits them;
  the injected (sigma_w_sq 0.6, sigma_u_sq 0.4) and vanilla finite-depth
  kernels at depths 10, 50 and 500, on the dots ``depth_sweep`` passes;
* ``dense-regress``: perfbench's dense-regress inputs at ``--seed`` (2,000
  train and 1,000 test synthetic MNIST samples); the fixed-point kernel at
  sigma_w_sq 0.6 on the train self dots and on the test x train dots, as
  ``gram._dot_matrix`` gives them to ``assemble_gram`` and ``cross_gram``;
* ``wide``: the tests' 2,000 dots uniform on [-1, 1), -1 included, for the
  kernels of both workloads.

For each fit the script prints the accepted degree ("-" where no degree
passes and the exact solver runs on every entry), the number of
coefficients evaluated at each entry, the largest |fit - exact| over
max|exact| against the exact solver on every entry, with the whole accepted
series ("before") and with its noise tail chopped ("after"), and the ms of
the call each way, min over ``--repeats``.  "Before" replaces
``gram._chop`` with the identity.  ``--json`` writes the rows and the
machine record of ``perfbench/run.py``.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "perfbench")]

from deqntk import finite_depth_theta, gram, theta_deq_grid  # noqa: E402
from deqntk.data import load_cifar10, load_mnist  # noqa: E402
from perfbench.run import machine_record  # noqa: E402
from perfbench.workloads import WORKLOADS, DenseRegress, DepthSweep  # noqa: E402

SWEEP_KERNELS = [(tag, params, d) for tag, params in DepthSweep.PARAMS.items()
                 for d in DepthSweep.FULL["depths"]]
DEQ_KERNEL = (gram.DEQ_NTK, DenseRegress.PARAMS, None)


def prepared(cls, directory: Path, seed: int):
    """The workload's inputs written as perfbench writes them at ``seed``."""
    wl = cls()
    directory.mkdir()
    wl.prepare(directory, seed, list(WORKLOADS).index(cls.name))
    return wl


def captured_dots(run) -> list:
    """The (dots, tag, params, depth) of each ``kernel_from_dots`` call in
    ``run()``."""
    calls, fit = [], gram.kernel_from_dots

    def record(dots, tag, params, depth=None):
        calls.append((dots, tag, params, depth))
        return fit(dots, tag, params, depth)

    gram.kernel_from_dots = record
    try:
        run()
    finally:
        gram.kernel_from_dots = fit
    return calls


def fits(seed: int, directory: Path) -> list:
    """(input name, dots, tag, params, depth) of every fit measured."""
    out = []
    wl = prepared(DepthSweep, directory / "sweep", seed)
    ds = load_cifar10(directory / "sweep")
    calls = captured_dots(lambda: gram.depth_sweep(
        ds.features, ds.labels, wl.size["depths"], *DepthSweep.PARAMS.values(), reps=1,
        n_train=wl.size["n_train"], n_test=wl.size["n_test"], seed=wl.cli_seed))
    out += [("depth-sweep", *call) for call in calls]

    wl = prepared(DenseRegress, directory / "regress", seed)
    ds = load_mnist(directory / "regress")
    rng = np.random.default_rng(wl.cli_seed)
    tr, te = gram._split(rng, len(ds.features), wl.size["n_train"], wl.size["n_test"])
    train = ds.features[tr]
    out += [("dense-regress", dots, *DEQ_KERNEL)
            for dots in (gram._dot_matrix(train), gram._dot_matrix(ds.features[te], train))]

    wide = np.random.default_rng(0).uniform(-1.0, 1.0, 2000)
    wide[0] = -1.0
    out += [("wide", wide, tag, params, d) for tag, params, d in SWEEP_KERNELS + [DEQ_KERNEL]]
    return out


def timed(dots, tag, params, depth, repeats):
    """Values and min ms over ``repeats`` of one ``kernel_from_dots`` call."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        values = gram.kernel_from_dots(dots, tag, params, depth)
        best = min(best, time.perf_counter() - start)
    return values, 1e3 * best


def row(name, dots, tag, params, depth, repeats) -> dict:
    exact = (theta_deq_grid(dots, params) if tag == gram.DEQ_NTK
             else finite_depth_theta(dots, depth, params))
    scale = np.max(np.abs(exact))
    chop, lengths = gram._chop, []

    def recorded(coef, slack):
        kept = chop(coef, slack)
        lengths.append((coef.size - 1, kept.size))
        return kept

    out = {"input": name, "kernel": tag, "depth": depth, "sigma_w_sq": params.sigma_w_sq,
           "sigma_u_sq": params.sigma_u_sq, "shape": list(dots.shape)}
    try:
        for when, patched in (("before", lambda coef, slack: coef), ("after", recorded)):
            gram._chop = patched
            values, ms = timed(dots, tag, params, depth, repeats)
            out[f"max_error_{when}"] = float(np.max(np.abs(values - exact)) / scale)
            out[f"ms_{when}"] = round(ms, 3)
    finally:
        gram._chop = chop
    degree, evaluated = lengths[-1] if lengths else (None, None)
    return {**out, "degree": degree, "evaluated": evaluated}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2401)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    print(f"{'input':>13} {'kernel':>16} {'depth':>5} {'shape':>12} {'degree':>6} "
          f"{'evaluated':>9} {'error before':>12} {'error after':>11} "
          f"{'ms before':>9} {'ms after':>8}")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, dots, tag, params, depth in fits(args.seed, Path(tmp)):
            r = row(name, dots, tag, params, depth, args.repeats)
            rows.append(r)
            print(f"{name:>13} {tag:>16} {depth if depth is not None else '-':>5} "
                  f"{'x'.join(map(str, r['shape'])):>12} "
                  f"{r['degree'] if r['degree'] is not None else '-':>6} "
                  f"{r['evaluated'] if r['evaluated'] is not None else '-':>9} "
                  f"{r['max_error_before']:>12.2e} {r['max_error_after']:>11.2e} "
                  f"{r['ms_before']:>9.2f} {r['ms_after']:>8.2f}")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"machine": machine_record(), "seed": args.seed, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
