"""Smoke test of the benchmark itself.  Run from the checkout root:

    python3 perfbench/smoke.py

1. ``BENCHMARK.json`` is well formed and its metric names and units are the
   ones ``run.py`` defines.
2. Every workload, run at tiny size untraced and traced, passes its checks
   and prints every metric named in ``BENCHMARK.json`` with its unit.
3. A corrupted output fed to each check raises ``failed_frac``, both through
   the check functions and through a whole run with a corrupted kernel.
4. Without the package sources, ``run.py`` exits non-zero and prints no result.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric or workload name used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["better"] == "lower" for m in spec["per_layer"])


def check_tiny_runs(spec: dict) -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
                workload, trace, proc.stderr[-2000:])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok: {workload} --trace {trace} emits {len(got)} metrics")


def check_corruption() -> None:
    import numpy as np
    from deqntk import KernelParams, gram, theta_deq
    import workloads as wl
    from tracing import Patches

    def frac(*checks) -> float:
        tally = run.Tally()
        for ok, detail in checks:
            tally.record("corruption probe", ok, detail)
        return tally.failed / tally.attempted

    params = KernelParams(sigma_w_sq=0.6, sigma_u_sq=0.4)
    samples = [(d, theta_deq(d, params).theta) for d in (-0.3, 0.2, 1.0)]
    oracle = lambda d: theta_deq(d, params).theta  # noqa: E731
    bad_samples = [(d, v * (1 + 1e-8)) for d, v in samples]
    assert frac(wl.check_entries(samples, oracle)) == 0
    assert frac(wl.check_entries(samples, oracle), wl.check_entries(bad_samples, oracle)) == 0.5

    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    G = A @ A.T
    asym = G.copy()
    asym[0, 1] += 1e-6
    indefinite = G - 1.5 * np.linalg.eigvalsh(G)[0] * np.eye(6) - 2 * np.eye(6)
    assert frac(wl.check_cdeq_gram(G)) == 0
    assert frac(wl.check_cdeq_gram(asym)) == 1 and frac(wl.check_cdeq_gram(indefinite)) == 1

    lam = np.linspace(0.1, 3.0, 400)
    grid = np.column_stack([lam, np.ones_like(lam)])
    eigs = np.linspace(0.1, 3.0, 1000)
    sup = wl.cdf_sup_distance(eigs, grid)
    assert frac(wl.check_spectrum(eigs, grid, sup)) == 0
    assert frac(wl.check_spectrum(eigs + 0.3, grid, wl.cdf_sup_distance(eigs + 0.3, grid))) == 1
    assert frac(wl.check_spectrum(eigs, grid, sup + 0.01)) == 1

    assert frac(wl.check_trace([4 / 3, 4 / 3 + 0.001], 0.25)) == 0
    assert frac(wl.check_trace([4 / 3 + 0.02], 0.25)) == 1

    # A whole run whose kernel layer is off by one part in 1e8 must fail its checks.
    for workload, name in (("dense-regress", "theta_deq_grid"),
                           ("depth-sweep", "finite_depth_theta")):
        patches = Patches()
        exact = getattr(gram, name)
        patches.set(gram, name, lambda *a, exact=exact, **k: exact(*a, **k) * (1 + 1e-8))
        try:
            result, _, _ = run.run(workload, seed=3, seconds=0.1, trace=False, tiny=True)
        finally:
            patches.undo()
        assert not result["correct"] and result["failed"] > 0, (workload, result)
        print(f"ok: corrupted {name} gives failed_frac "
              f"{result['failed'] / result['attempted']:.3f} on {workload}")


def check_without_sources() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-regress", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok: without sources run.py exits {proc.returncode} and prints no result")


def main() -> int:
    run.load_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(spec)
    print("ok: BENCHMARK.json matches run.py")
    check_corruption()
    check_without_sources()
    check_tiny_runs(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
