"""Accuracy, steps and time of the convolutional kernel solve per target.

    python3 scripts/conv_tol.py [--targets default,1e-6,...] [--repeats 9] [--json PATH]

Run from the root of a checkout; the package is imported from ``src/``.
For each image size (8 images of 12 x 12 and 6 of 32 x 32, 3 channels,
drawn as ``deqntk cdeq`` draws them from seeds 661, 665, 666, 1 and 2),
each sigma_w_sq in {0.65, 0.9} with sigma_u_sq = 1 - sigma_w_sq, and each
target, the script solves every pair of distinct images at q = 3 and prints:

* the largest error per entry, relative to the entry and relative to the
  Gram's diagonal P Q d* / (1 - sigma_w_sq), against a solve at target
  1e-12 and budget 10,000;
* the steps of the covariance and kernel stages, least and most over seeds;
* ms per pair: the min over ``--repeats`` solves of a seed's pairs, divided
  by their count; the median over seeds is printed, and ``--json`` keeps
  each seed's.

``default`` runs the library's own defaults, so the same command under an
older checkout times that checkout's defaults.  A target whose solve fails
prints the error instead.  ``--json`` writes the rows and the machine record
of ``perfbench/run.py``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from deqntk import ConvergenceError, KernelParams, conv  # noqa: E402
from perfbench.run import machine_record  # noqa: E402

SEEDS = (661, 665, 666, 1, 2)
SIZES = {12: 8, 32: 6}
SW2 = (0.65, 0.9)
TIGHT = 1e-12


def images(seed: int, n: int, size: int) -> np.ndarray:
    imgs = np.random.default_rng(seed).standard_normal((n, size, size, 3))
    return imgs / np.linalg.norm(imgs, axis=-1, keepdims=True)


def solve(imgs, params, target, steps=None):
    """Values of the pairs i < j at ``target`` (None: the defaults); appends
    each ``_iterate`` call's steps to ``steps``."""
    rows, cols = np.triu_indices(len(imgs), 1)
    kwargs = {} if target is None else {"sigma_tol": target, "max_iter": 10_000}
    iterate = conv._iterate

    def counted(*args):
        out = iterate(*args)
        steps.append(out[2])
        return out

    conv._iterate = iterate if steps is None else counted
    try:
        return conv._cdeq_pairs(imgs, imgs, rows, cols, 3, params, **kwargs)
    finally:
        conv._iterate = iterate


def row(size: int, sw2: float, target, repeats: int) -> dict:
    params = KernelParams(sigma_w_sq=sw2, sigma_u_sq=1.0 - sw2)
    diag = size * size / (1.0 - sw2)  # d* = sigma_u_sq / (1 - sigma_w_sq) = 1
    out = {"size": size, "sigma_w_sq": sw2, "target": target or "default"}
    rel, rel_diag, cov, ker, ms = [], [], [], [], []
    for seed in SEEDS:
        imgs = images(seed, SIZES[size], size)
        steps = []
        try:
            got = solve(imgs, params, target, steps)
        except ConvergenceError as exc:
            return {**out, "error": str(exc)}
        want = solve(imgs, params, TIGHT)
        rel.append(np.max(np.abs(got - want) / np.abs(want)))
        rel_diag.append(np.max(np.abs(got - want)) / diag)
        cov += steps[0::2]
        ker += steps[1::2]
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            solve(imgs, params, target)
            best = min(best, time.perf_counter() - start)
        ms.append(round(1e3 * best / len(got), 4))
    return {**out, "max_rel_error": float(max(rel)), "max_error_over_diag": float(max(rel_diag)),
            "covariance_steps": [min(cov), max(cov)], "kernel_steps": [min(ker), max(ker)],
            "ms_per_pair": float(np.median(ms)), "ms_per_pair_per_seed": ms}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", default="default,1e-6,1e-7,1e-8,1e-9")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    targets = [None if t == "default" else float(t) for t in args.targets.split(",")]
    print(f"{'size':>5} {'sw2':>5} {'target':>8} {'rel. error':>10} {'err/diag':>9} "
          f"{'cov. steps':>10} {'ker. steps':>10} {'ms per pair':>11}")
    rows = []
    for size in SIZES:
        for sw2 in SW2:
            for target in targets:
                r = row(size, sw2, target, args.repeats)
                rows.append(r)
                head = f"{size:>5} {sw2:>5} {r['target']!s:>8}"
                if "error" in r:
                    print(f"{head} fails: {r['error']}")
                    continue
                print(f"{head} {r['max_rel_error']:>10.2e} {r['max_error_over_diag']:>9.2e} "
                      f"{'%d-%d' % tuple(r['covariance_steps']):>10} "
                      f"{'%d-%d' % tuple(r['kernel_steps']):>10} "
                      f"{r['ms_per_pair']:>11.3f}")
    if args.json is not None:
        args.json.write_text(json.dumps({"machine": machine_record(), "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
