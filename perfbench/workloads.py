"""The four benchmark workloads: inputs, commands and output checks.

Each workload writes its inputs from the run's seed, then runs one
iteration of commands at a time through the ``deqntk`` CLI in-process (a
closed loop with one client).  The ``check_*`` functions take parsed outputs
and return ``(ok, detail)``; they are module-level so that the smoke test
can feed them corrupted outputs.
"""
from __future__ import annotations

import csv
import re
import shutil
import struct
from pathlib import Path

import numpy as np

from deqntk import KernelParams, finite_depth_ntk, theta_deq
from deqntk import cli as deqntk_cli
from deqntk import empirical, gram, spectra

from tracing import tap

REL_TOL = 1e-10  # sampled Gram entries against the scalar kernels
PSD_TOL = 1e-8  # CDEQ Gram: min eigenvalue >= -PSD_TOL * max eigenvalue
TRACE_TOL = 0.01  # acceptance criterion 5
CDF_TOL = 0.05  # acceptance criterion 7
QUAD_TOL = 1e-3  # acceptance criterion 6
SAMPLES = 12  # sampled entries per Gram


def class_pixels(rng, n: int, dim: int, contrast: float, noise: float = 0.25):
    """uint8 samples with labels: a shared background, one sparse pattern per
    class scaled by ``contrast``, and Gaussian pixel noise, so that classes
    overlap and regression accuracy stays below 1."""
    background = rng.random(dim)
    patterns = rng.random((10, dim)) ** 4
    labels = rng.permutation(np.arange(n) % 10)
    brightness = rng.uniform(0.5, 1.0, (n, 1))
    x = 0.4 * background + contrast * brightness * patterns[labels]
    x += noise * rng.standard_normal((n, dim))
    pixels = np.rint(255.0 * np.clip(x, 0.0, 1.0)).astype(np.uint8)
    pixels[:, 0] = np.maximum(pixels[:, 0], 1)  # no all-zero sample
    return pixels, labels.astype(np.uint8)


def write_mnist(directory: Path, rng, n: int, contrast: float) -> None:
    """MNIST IDX image/label pair of 28 x 28 synthetic digits."""
    pixels, labels = class_pixels(rng, n, 28 * 28, contrast)
    (directory / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, n, 28, 28) + pixels.tobytes()
    )
    (directory / "train-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, n) + labels.tobytes()
    )


def write_cifar(directory: Path, rng, n: int, contrast: float) -> None:
    """One CIFAR-10 binary batch: label byte, then channel-major pixels."""
    pixels, labels = class_pixels(rng, n, 3 * 32 * 32, contrast)
    records = np.concatenate([labels[:, None], pixels], axis=1)
    (directory / "data_batch_1.bin").write_bytes(records.tobytes())


def sample_pairs(rng, rows: int, cols: int, count: int):
    return rng.integers(0, rows, count), rng.integers(0, cols, count)


def check_entries(samples, oracle) -> tuple[bool, str]:
    """Each sample is (dot, value, *key); ``oracle(dot, *key)`` gives the
    scalar kernel value it must match to REL_TOL relative."""
    if not samples:
        return False, "no entries captured"
    worst = 0.0
    for dot, value, *key in samples:
        want = oracle(dot, *key)
        worst = max(worst, abs(value - want) / abs(want))
    return worst <= REL_TOL, f"max relative error {worst:.3e}"


def check_cdeq_gram(G: np.ndarray) -> tuple[bool, str]:
    """Symmetric, and PSD to -PSD_TOL relative (acceptance criterion 11)."""
    if G.ndim != 2 or G.shape[0] != G.shape[1] or not np.all(np.isfinite(G)):
        return False, f"not a finite square matrix: shape {G.shape}"
    asym = float(np.max(np.abs(G - G.T)))
    if asym > 1e-12 * float(np.max(np.abs(G))):
        return False, f"asymmetric by {asym:.3e}"
    eigs = np.linalg.eigvalsh(G)
    return bool(eigs[0] >= -PSD_TOL * eigs[-1]), f"eigenvalues [{eigs[0]:.3e}, {eigs[-1]:.3e}]"


def cdf_sup_distance(eigs: np.ndarray, grid: np.ndarray) -> float:
    """Largest gap between the empirical CDF of ``eigs`` and the CDF of a
    tabulated density (columns lambda, density) by trapezoid sums."""
    eigs = np.sort(eigs)
    lam, den = grid[:, 0], grid[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (den[1:] + den[:-1]) * np.diff(lam))])
    limit = np.interp(eigs, lam, cum / cum[-1], left=0.0, right=1.0)
    return float(np.max(np.abs(np.arange(1, eigs.size + 1) / eigs.size - limit)))


def check_spectrum(eigs, grid, printed: float | None) -> tuple[bool, str]:
    sup = cdf_sup_distance(eigs, grid)
    if printed is None or abs(printed - sup) > 1e-3:
        return False, f"printed sup-distance {printed} != recomputed {sup:.4f}"
    return sup <= CDF_TOL, f"CDF sup-distance {sup:.4f}"


def check_trace(values, sw2: float) -> tuple[bool, str]:
    mean = float(np.mean(values))
    return abs(mean - 1.0 / (1.0 - sw2)) <= TRACE_TOL, f"mean trace {mean:.6f}"


def _number(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else None


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One set of inputs and the commands run on them per iteration."""

    name = ""
    why = ""
    work_name = ""  # unit of work counted per iteration
    rate_name = ""  # work_per_s under the name the workload's users know it by

    def __init__(self, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.captured = []

    def prepare(self, directory: Path, seed: int, index: int) -> None:
        self.dir = directory
        self.rng = np.random.default_rng([seed, index])
        self.cli_seed = int(self.rng.integers(0, 2**31 - 1))
        self.write_inputs()

    def write_inputs(self) -> None:
        pass

    def install_taps(self, patches) -> None:
        pass

    def out(self, name: str) -> Path:
        """Where a command writes; emptied before each iteration, so a
        check never reads an earlier iteration's files."""
        return self.dir / "out" / name

    def clear_outputs(self) -> None:
        shutil.rmtree(self.dir / "out", ignore_errors=True)


class DenseRegress(Workload):
    name = "dense-regress"
    why = ("main user path: IDX parse, fixed-point Newton Gram, cross Gram and "
           "Cholesky solve on class-structured synthetic MNIST; peak memory shows here")
    work_name = "Gram entries (train^2 + test x train)"
    rate_name = "gram_entries_per_s"
    FULL = {"n_train": 2000, "n_test": 1000, "contrast": 0.17}
    TINY = {"n_train": 60, "n_test": 30, "contrast": 0.17}
    PARAMS = KernelParams(sigma_w_sq=0.6, sigma_u_sq=0.4)

    @property
    def work(self) -> int:
        n, t = self.size["n_train"], self.size["n_test"]
        return n * n + t * n

    def write_inputs(self):
        write_mnist(self.dir, self.rng, self.size["n_train"] + self.size["n_test"],
                    self.size["contrast"])

    def install_taps(self, patches):
        rng = np.random.default_rng(self.cli_seed)

        def train(args, kwargs, result):
            X = args[0]
            i, j = sample_pairs(rng, len(X), len(X), SAMPLES)
            j[:2] = i[:2]  # the pinned diagonal, where the kernel has its cusp
            self.captured.append(("train Gram", [
                (1.0 if a == b else float(np.clip(X[a] @ X[b], -1, 1)), result.values[a, b])
                for a, b in zip(i, j)
            ]))

        def cross(args, kwargs, result):
            T, X = args[0], args[1]
            i, j = sample_pairs(rng, len(T), len(X), SAMPLES)
            self.captured.append(("cross Gram", [
                (float(np.clip(T[a] @ X[b], -1, 1)), result[a, b]) for a, b in zip(i, j)
            ]))

        tap(patches, deqntk_cli, "assemble_gram", train)
        tap(patches, deqntk_cli, "cross_gram", cross)

    def iterate(self, invoke, call) -> dict:
        self.captured = []
        res = invoke("regress", "--dataset", "mnist", "--path", str(self.dir),
                     "--n-train", self.size["n_train"], "--n-test", self.size["n_test"],
                     "--sw2", self.PARAMS.sigma_w_sq, "--su2", self.PARAMS.sigma_u_sq,
                     "--seed", self.cli_seed, "--out", self.out("regress"))
        return {"stdout": res.stdout, "captured": self.captured}

    def check(self, outputs, record) -> dict:
        acc = _number(r"accuracy = ([0-9.]+)", outputs["stdout"])
        record("accuracy printed", acc is not None and 0.0 <= acc <= 1.0, f"{acc}")
        for what, samples in outputs["captured"]:
            record(f"{what} vs theta_deq",
                   *check_entries(samples, lambda d: theta_deq(d, self.PARAMS).theta))
        return {"accuracy": acc}


class DepthSweep(Workload):
    name = "depth-sweep"
    why = ("finite-depth recursion instead of Newton, one kernel_from_dots and "
           "regression per (kernel, depth), so restarting from depth 0 shows")
    work_name = "layer entries (sum of depth x Gram entries over kernels)"
    rate_name = "layer_entries_per_s"
    FULL = {"n_train": 400, "n_test": 100, "depths": (10, 50, 500), "contrast": 0.12}
    TINY = {"n_train": 40, "n_test": 20, "depths": (2, 5, 10), "contrast": 0.12}
    PARAMS = {
        gram.FINITE_DEPTH_NTK: KernelParams(sigma_w_sq=0.6, sigma_u_sq=0.4),
        gram.VANILLA_NTK: KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0),
    }

    @property
    def work(self) -> int:
        n, t = self.size["n_train"], self.size["n_test"]
        return len(self.PARAMS) * sum(self.size["depths"]) * (n * n + t * n)

    def write_inputs(self):
        write_cifar(self.dir, self.rng, self.size["n_train"] + self.size["n_test"],
                    self.size["contrast"])

    def install_taps(self, patches):
        rng = np.random.default_rng(self.cli_seed)

        def entries(args, kwargs, result):
            dots, tag, _, depth = args
            i, j = sample_pairs(rng, *dots.shape, SAMPLES // 3)
            self.captured.append((f"{tag} depth {depth}", [
                (float(dots[a, b]), result[a, b], tag, depth) for a, b in zip(i, j)
            ]))

        tap(patches, gram, "kernel_from_dots", entries)

    def iterate(self, invoke, call) -> dict:
        self.captured = []
        injected = self.PARAMS[gram.FINITE_DEPTH_NTK]
        invoke("depth-sweep", "--data", str(self.dir),
               "--n-train", self.size["n_train"], "--n-test", self.size["n_test"],
               "--depths", ",".join(map(str, self.size["depths"])), "--reps", 1,
               "--sw2", injected.sigma_w_sq, "--su2", injected.sigma_u_sq,
               "--seed", self.cli_seed, "--out", self.out("sweep"))
        return {"csv": self.out("sweep") / "depth_sweep.csv", "captured": self.captured}

    def check(self, outputs, record) -> dict:
        rows = _read_csv(outputs["csv"])
        got = {(r["kernel"], int(r["depth"])): float(r["accuracy"]) for r in rows}
        want = {(tag, d) for tag in self.PARAMS for d in self.size["depths"]}
        record("sweep rows", set(got) == want, f"{sorted(got)}")
        for what, samples in outputs["captured"]:
            record(f"{what} vs finite_depth_ntk", *check_entries(
                samples, lambda dot, tag, d: finite_depth_ntk(dot, d, self.PARAMS[tag]).theta
            ))
        return {"accuracy": got.get((gram.FINITE_DEPTH_NTK, max(self.size["depths"])))}


class CdeqGram(Workload):
    name = "cdeq-gram"
    why = ("convolutional kernel Gram over random unit-pixel images, nearly all conv "
           "work; each image is in n+1 pairs, so per-image caching has work to save")
    work_name = "image pairs (upper triangle with diagonal)"
    rate_name = "pairs_per_s"
    FULL = {"images": 8, "size": 12}
    TINY = {"images": 3, "size": 6}

    @property
    def work(self) -> int:
        n = self.size["images"]
        return n * (n + 1) // 2

    def iterate(self, invoke, call) -> dict:
        invoke("cdeq", "--size", self.size["size"], "--filter-size", 3,
               "--images", self.size["images"], "--seed", self.cli_seed,
               "--out", self.out("cdeq"))
        return {"csv": self.out("cdeq") / "cdeq_gram.csv"}

    def check(self, outputs, record) -> dict:
        G = np.loadtxt(outputs["csv"], delimiter=",", ndmin=2)
        record("CDEQ Gram symmetric and PSD", *check_cdeq_gram(G))
        return {}


class RandomMatrix(Workload):
    name = "random-matrix"
    why = ("limiting spectrum, resolvent trace, quadrature and implicit-gradient "
           "kernels at widths 256-2048; the only workload on the spectra and empirical layers")
    work_name = "random-matrix entries drawn (sum of n^2)"
    rate_name = "matrix_entries_per_s"
    FULL = {"spectrum_n": 1000, "trace_n": 2000, "trials": 3, "widths": (256, 1024, 2048)}
    TINY = {"spectrum_n": 300, "trace_n": 1000, "trials": 2, "widths": (32, 64)}
    SPECTRUM_SW2 = 0.5
    TRACE_SW2 = 0.25
    PAIR_PARAMS = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)
    INPUT_DIM = 10

    @property
    def work(self) -> int:
        s = self.size
        return (s["spectrum_n"] ** 2 + s["trials"] * s["trace_n"] ** 2
                + sum(n * n for n in s["widths"]))

    def write_inputs(self):
        x, y = self.rng.standard_normal((2, self.INPUT_DIM))
        self.pair = (x / np.linalg.norm(x), y / np.linalg.norm(y))
        seeds = self.rng.integers(0, 2**31 - 1, len(self.size["widths"]))
        self.weight_seeds = [int(v) for v in seeds]

    def iterate(self, invoke, call) -> dict:
        s = self.size
        spec = invoke("spectrum", "--sw2", self.SPECTRUM_SW2, "--n", s["spectrum_n"],
                      "--seed", self.cli_seed, "--out", self.out("spectrum"))
        invoke("trace", "--n", s["trace_n"], "--sw2", self.TRACE_SW2, "--trials",
               s["trials"], "--seed", self.cli_seed, "--out", self.out("trace"))
        x, y = self.pair
        kernels = [
            call(f"ift_ntk_pair width {n}", lambda n=n, seed=seed: empirical.ift_ntk_pair(
                empirical.make_weights(n, self.INPUT_DIM, seed, self.PAIR_PARAMS), x, y
            ).total)
            for n, seed in zip(s["widths"], self.weight_seeds)
        ]
        quad = call("integrate_inverse_eig",
                    lambda: spectra.integrate_inverse_eig(self.SPECTRUM_SW2))
        return {"spectrum_stdout": spec.stdout, "kernels": kernels, "quad": quad}

    def check(self, outputs, record) -> dict:
        spectrum = self.out("spectrum")
        eigs = np.loadtxt(spectrum / "empirical_spectrum.csv", delimiter=",", skiprows=1,
                          usecols=1, ndmin=1)
        grid = np.loadtxt(spectrum / "limiting_density.csv", delimiter=",", skiprows=2,
                          ndmin=2)
        printed = _number(r"CDF sup-distance = ([0-9.]+)", outputs["spectrum_stdout"])
        record("spectrum CDF", *check_spectrum(eigs, grid, printed))
        values = [float(r["value"]) for r in _read_csv(self.out("trace") / "trace.csv")]
        record("resolvent trace", *check_trace(values, self.TRACE_SW2))
        for n, k in zip(self.size["widths"], outputs["kernels"]):
            record(f"ift_ntk_pair width {n} finite", k is not None and bool(np.isfinite(k)),
                   f"{k}")
        quad, target = outputs["quad"], 1.0 / (1.0 - self.SPECTRUM_SW2)
        record("inverse-eigenvalue integral",
               quad is not None and abs(quad - target) <= QUAD_TOL, f"{quad}")
        return {}


WORKLOADS = {cls.name: cls for cls in (DenseRegress, DepthSweep, CdeqGram, RandomMatrix)}
