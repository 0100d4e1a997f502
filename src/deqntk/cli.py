"""Command-line entry points producing the experiment artifacts as CSV.

Settings resolve in order: built-in default, then the config file (a flat
``key = value`` text file given with --config), then explicit flags.  Every
command that writes files also records a manifest (settings, seed, git
revision, wall time) sufficient to re-run it bit-identically.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import click
import numpy as np
import scipy.linalg

from . import __version__
from .data import (
    UNIT_PIXEL,
    UNIT_SAMPLE,
    load_cifar10,
    load_mnist,
)
from .empirical import ift_ntk_pair, make_weights, empirical_spectrum, resolvent_trace
from .errors import ConvergenceError, DataFormatError, DomainError, SingularityError
from .gram import (
    CDEQ_NTK,
    DEQ_NTK,
    assemble_gram,
    cross_gram,
    depth_sweep,
    regress_and_score,
    summarize_sweep,
    theta_vs_dot_sweep,
    write_rows_csv,
)
from .kernel import theta_deq, theta_linear_deq
from .params import LINEAR, NORMALIZED_RELU, KernelParams
from .spectra import density_table, write_density_csv

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (ValueError, DomainError, click.ClickException)
_DATA_ERRORS = (DataFormatError, FileNotFoundError)
_NUMERIC_ERRORS = (
    ConvergenceError,
    SingularityError,
    np.linalg.LinAlgError,
    scipy.linalg.LinAlgError,
)


def _fail(code: int, exc: BaseException):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guard(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _NUMERIC_ERRORS as exc:
            _fail(EXIT_NUMERIC, exc)
        except _DATA_ERRORS as exc:
            _fail(EXIT_DATA, exc)
        except _CONFIG_ERRORS as exc:
            _fail(EXIT_CONFIG, exc)

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


def read_config(path) -> dict:
    """Flat ``key = value`` file; blank lines and # comments ignored."""
    settings = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        settings[key.replace("-", "_")] = value
    return settings


class _Resolver:
    """Merges config-file values under explicit flag values."""

    def __init__(self, config_path):
        self.settings = read_config(config_path) if config_path else {}

    def get(self, key, flag_value, default, cast=float):
        if flag_value is not None:
            return flag_value
        if key in self.settings:
            return cast(self.settings[key])
        return default


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_manifest(outdir: Path, command: str, settings: dict, elapsed: float):
    lines = [f"command = {command}", f"version = {__version__}"]
    lines += [f"{k} = {v}" for k, v in sorted(settings.items())]
    lines += [f"git_revision = {_git_revision()}", f"wall_time_seconds = {elapsed:.3f}"]
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _params(sw2, su2, sb2, sv2, activation) -> KernelParams:
    return KernelParams(
        sigma_w_sq=sw2,
        sigma_u_sq=su2,
        sigma_b_sq=sb2,
        sigma_v_sq=sv2,
        activation=activation,
    )


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


@click.group()
@click.version_option(__version__)
def main():
    """Equilibrium-network kernel computations and experiments."""


_shared = [
    click.option("--config", type=click.Path(exists=True), default=None,
                 help="flat key=value settings file; flags override it"),
    click.option("--sw2", type=float, default=None, help="recurrent weight variance"),
    click.option("--su2", type=float, default=None, help="input injection variance"),
    click.option("--sb2", type=float, default=None, help="bias variance"),
    click.option("--sv2", type=float, default=None, help="readout variance"),
    click.option("--activation", type=click.Choice([NORMALIZED_RELU, LINEAR]),
                 default=None),
]


def shared_options(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


def _resolve_params(cfg: _Resolver, sw2, su2, sb2, sv2, activation,
                    default_sw2=0.5, default_su2=0.5) -> KernelParams:
    return _params(
        cfg.get("sw2", sw2, default_sw2),
        cfg.get("su2", su2, default_su2),
        cfg.get("sb2", sb2, 0.0),
        cfg.get("sv2", sv2, 1.0),
        cfg.get("activation", activation, NORMALIZED_RELU, cast=str),
    )


@main.command()
@shared_options
@click.option("--dot", type=float, default=None, help="inner product of the pair")
@click.option("--sweep-depths", default=None,
              help="comma list; also tabulate pre-readout kernel vs dot per depth")
@click.option("--out", type=click.Path(), default=None, help="output directory")
@_guard
def kernel(config, sw2, su2, sb2, sv2, activation, dot, sweep_depths, out):
    """Fixed-point kernel value for one inner product (and optional sweep)."""
    start = time.monotonic()
    cfg = _Resolver(config)
    params = _resolve_params(cfg, sw2, su2, sb2, sv2, activation)
    dot = cfg.get("dot", dot, 0.0)
    if params.activation == LINEAR:
        theta = float(theta_linear_deq(dot, params))
        click.echo(f"theta = {theta:.17g}")
    else:
        res = theta_deq(dot, params)
        click.echo(f"theta = {res.theta:.17g}")
        click.echo(f"rho_star = {res.rho_star:.17g}")
        click.echo(f"sigma_dot_star = {res.sigma_dot_star:.17g}")
    sweep_depths = cfg.get("sweep_depths", sweep_depths, None, cast=str)
    if sweep_depths:
        if out is None:
            raise ValueError("--sweep-depths requires --out")
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        rows = theta_vs_dot_sweep(params, _parse_int_list(sweep_depths))
        write_rows_csv(rows, outdir / "theta_vs_dot.csv", ["dot", "depth", "theta"])
        write_manifest(outdir, "kernel", {
            "dot": dot, "sweep_depths": sweep_depths, **_params_dict(params),
        }, time.monotonic() - start)


def _params_dict(params: KernelParams) -> dict:
    return {
        "sw2": params.sigma_w_sq,
        "su2": params.sigma_u_sq,
        "sb2": params.sigma_b_sq,
        "sv2": params.sigma_v_sq,
        "activation": params.activation,
    }


@main.command("depth-sweep")
@shared_options
@click.option("--data", type=click.Path(), default=None,
              help="CIFAR-10 batch file or directory (env default otherwise)")
@click.option("--n-train", type=int, default=None)
@click.option("--n-test", type=int, default=None)
@click.option("--depths", default=None, help="comma list of depths")
@click.option("--reps", type=int, default=None)
@click.option("--reg-eps", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
@_guard
def depth_sweep_cmd(config, sw2, su2, sb2, sv2, activation, data, n_train,
                    n_test, depths, reps, reg_eps, seed, out):
    """Accuracy of injected vs vanilla finite-depth kernels across depths."""
    start = time.monotonic()
    cfg = _Resolver(config)
    params_deq = _resolve_params(cfg, sw2, su2, sb2, sv2, activation,
                                 default_sw2=0.6, default_su2=0.4)
    params_vanilla = KernelParams(
        sigma_w_sq=1.0, sigma_u_sq=0.0, sigma_v_sq=params_deq.sigma_v_sq,
        activation=params_deq.activation,
    )
    n_train = int(cfg.get("n_train", n_train, 1000, cast=int))
    n_test = int(cfg.get("n_test", n_test, 100, cast=int))
    depth_list = _parse_int_list(cfg.get("depths", depths, "10,50,100,500", cast=str))
    reps = int(cfg.get("reps", reps, 5, cast=int))
    reg_eps = cfg.get("reg_eps", reg_eps, 1e-4)
    seed = int(cfg.get("seed", seed, 0, cast=int))

    ds = load_cifar10(cfg.get("data", data, None, cast=str),
                      normalization=UNIT_SAMPLE)
    rows = depth_sweep(ds.features, ds.labels, depth_list, params_deq,
                       params_vanilla, reps, n_train, n_test,
                       reg_eps=reg_eps, seed=seed)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(rows, outdir / "depth_sweep.csv",
                   ["kernel", "depth", "rep", "accuracy"])
    summary = summarize_sweep(rows)
    write_rows_csv(summary, outdir / "depth_sweep_summary.csv",
                   ["kernel", "depth", "mean_accuracy", "ci_low", "ci_high"])
    for row in summary:
        click.echo(
            f"{row['kernel']} depth={row['depth']} "
            f"acc={row['mean_accuracy']:.4f} "
            f"[{row['ci_low']:.4f}, {row['ci_high']:.4f}]"
        )
    write_manifest(outdir, "depth-sweep", {
        "n_train": n_train, "n_test": n_test, "reps": reps,
        "depths": ",".join(map(str, depth_list)), "reg_eps": reg_eps,
        "seed": seed, "data": ds.source, **_params_dict(params_deq),
    }, time.monotonic() - start)


@main.command()
@shared_options
@click.option("--widths", default=None, help="comma list of hidden widths")
@click.option("--seeds", type=int, default=None, help="number of seeds per width")
@click.option("--input-dim", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
@_guard
def residual(config, sw2, su2, sb2, sv2, activation, widths, seeds, input_dim, out):
    """Relative error of finite-width empirical kernels against the limit."""
    start = time.monotonic()
    cfg = _Resolver(config)
    params = _resolve_params(cfg, sw2, su2, sb2, sv2, activation)
    width_list = _parse_int_list(cfg.get("widths", widths, "64,256,1024", cast=str))
    seeds = int(cfg.get("seeds", seeds, 10, cast=int))
    m = int(cfg.get("input_dim", input_dim, 10, cast=int))

    rows = []
    for n in width_list:
        for seed in range(seeds):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([seed, 17]))
            )
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            dot = float(np.clip(x @ y, -1.0, 1.0))
            if params.activation == LINEAR:
                theory = float(theta_linear_deq(dot, params))
            else:
                theory = theta_deq(dot, params).theta
            weights = make_weights(n, m, seed, params)
            emp = ift_ntk_pair(weights, x, y).total
            rows.append({
                "width": n, "seed": seed,
                "relative_error": abs(emp - theory) / abs(theory),
            })
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(rows, outdir / "residual.csv",
                   ["width", "seed", "relative_error"])
    for n in width_list:
        errs = [r["relative_error"] for r in rows if r["width"] == n]
        click.echo(f"width={n} median relative error {np.median(errs):.4f}")
    write_manifest(outdir, "residual", {
        "widths": ",".join(map(str, width_list)), "seeds": seeds,
        "input_dim": m, **_params_dict(params),
    }, time.monotonic() - start)


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=None)
@click.option("--sw2", type=float, default=None)
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@_guard
def trace(config, n, sw2, trials, seed, out):
    """Normalized trace of the squared inverse of I - sqrt(sw2/n) W."""
    start = time.monotonic()
    cfg = _Resolver(config)
    n = int(cfg.get("n", n, 5000, cast=int))
    sw2 = cfg.get("sw2", sw2, 0.25)
    trials = int(cfg.get("trials", trials, 10, cast=int))
    seed = int(cfg.get("seed", seed, 0, cast=int))
    if not 0.0 <= sw2 < 1.0:
        raise ValueError("sw2 must lie in [0, 1) for an invertible limit")
    values = [resolvent_trace(n, sw2, seed + t) for t in range(trials)]
    mean = float(np.mean(values))
    click.echo(f"mean trace = {mean:.6f} (target {1.0 / (1.0 - sw2):.6f}), "
               f"std {np.std(values, ddof=1) if trials > 1 else 0.0:.2e}")
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        rows = [{"trial": t, "value": float(v)} for t, v in enumerate(values)]
        write_rows_csv(rows, outdir / "trace.csv", ["trial", "value"])
        write_manifest(outdir, "trace", {
            "n": n, "sw2": sw2, "trials": trials, "seed": seed,
        }, time.monotonic() - start)


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--sw2", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
@_guard
def spectrum(config, sw2, n, seed, out):
    """Empirical vs limiting eigenvalue distributions (two CSV tables)."""
    start = time.monotonic()
    cfg = _Resolver(config)
    sw2 = cfg.get("sw2", sw2, 0.25)
    n = int(cfg.get("n", n, 1000, cast=int))
    seed = int(cfg.get("seed", seed, 0, cast=int))

    params = KernelParams(sigma_w_sq=sw2, sigma_u_sq=1.0 - sw2)
    weights = make_weights(n, 1, seed, params)
    eigs = empirical_spectrum(weights)
    table = density_table(sw2)

    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(eigs)]
    write_rows_csv(rows, outdir / "empirical_spectrum.csv", ["index", "eigenvalue"])
    write_density_csv(table, outdir / "limiting_density.csv")

    emp_cdf_at = np.searchsorted(eigs, eigs, side="right") / n
    limit_cdf_at = table.cdf(eigs)
    sup_dist = float(np.max(np.abs(emp_cdf_at - limit_cdf_at)))
    click.echo(f"CDF sup-distance = {sup_dist:.4f}")
    write_manifest(outdir, "spectrum", {
        "sw2": sw2, "n": n, "seed": seed, "cdf_sup_distance": sup_dist,
    }, time.monotonic() - start)


@main.command()
@shared_options
@click.option("--dataset", type=click.Choice(["mnist", "cifar10"]), default=None)
@click.option("--path", type=click.Path(), default=None)
@click.option("--n-train", type=int, default=None)
@click.option("--n-test", type=int, default=None)
@click.option("--reg-eps", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@_guard
def regress(config, sw2, su2, sb2, sv2, activation, dataset, path, n_train,
            n_test, reg_eps, seed, out):
    """Fixed-point kernel regression accuracy on a dataset subset."""
    start = time.monotonic()
    cfg = _Resolver(config)
    params = _resolve_params(cfg, sw2, su2, sb2, sv2, activation,
                             default_sw2=0.6, default_su2=0.4)
    dataset = cfg.get("dataset", dataset, "mnist", cast=str)
    path = cfg.get("path", path, None, cast=str)
    n_train = int(cfg.get("n_train", n_train, 2000, cast=int))
    n_test = int(cfg.get("n_test", n_test, 1000, cast=int))
    reg_eps = cfg.get("reg_eps", reg_eps, 0.0)
    seed = int(cfg.get("seed", seed, 0, cast=int))

    if dataset == "mnist":
        ds = load_mnist(path, split="train")
    else:
        ds = load_cifar10(path, normalization=UNIT_SAMPLE)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(ds.features.shape[0])
    tr = idx[:n_train]
    te = idx[n_train : n_train + n_test]

    G = assemble_gram(ds.features[tr], DEQ_NTK, params)
    C = cross_gram(ds.features[te], ds.features[tr], DEQ_NTK, params)
    acc = regress_and_score(G.values, C, ds.labels[tr], ds.labels[te], reg_eps)
    click.echo(f"accuracy = {acc:.4f}")
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_rows_csv([{"accuracy": acc}], outdir / "regress.csv", ["accuracy"])
        write_manifest(outdir, "regress", {
            "dataset": dataset, "data": ds.source, "n_train": n_train,
            "n_test": n_test, "reg_eps": reg_eps, "seed": seed,
            **_params_dict(params),
        }, time.monotonic() - start)


@main.command()
@shared_options
@click.option("--data", type=click.Path(), default=None,
              help="CIFAR-10 batch file or directory; random images otherwise")
@click.option("--size", type=int, default=None,
              help="side length of the random images")
@click.option("--filter-size", type=int, default=None)
@click.option("--images", type=int, default=None)
@click.option("--channels", type=int, default=None,
              help="channels of the random images")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@_guard
def cdeq(config, sw2, su2, sb2, sv2, activation, data, size, filter_size,
         images, channels, seed, out):
    """Convolutional kernel Gram over unit-pixel images: the first --images
    CIFAR-10 images with --data, random ones otherwise."""
    start = time.monotonic()
    cfg = _Resolver(config)
    params = _resolve_params(cfg, sw2, su2, sb2, sv2, activation,
                             default_sw2=0.65, default_su2=0.35)
    data = cfg.get("data", data, None, cast=str)
    size = int(cfg.get("size", size, 8, cast=int))
    q = int(cfg.get("filter_size", filter_size, 3, cast=int))
    count = int(cfg.get("images", images, 8, cast=int))
    channels = int(cfg.get("channels", channels, 3, cast=int))
    seed = int(cfg.get("seed", seed, 0, cast=int))

    if data is None:
        rng = np.random.default_rng(seed)
        imgs = rng.standard_normal((count, size, size, channels))
        imgs /= np.linalg.norm(imgs, axis=-1, keepdims=True)
        source = "random"
    else:
        ds = load_cifar10(data, normalization=UNIT_PIXEL, limit=count)
        if count > ds.features.shape[0]:
            raise ValueError(
                f"--images {count} exceeds the {ds.features.shape[0]} images "
                f"in {ds.source}"
            )
        imgs = ds.features
        size, channels = imgs.shape[1], imgs.shape[3]
        source = ds.source
    G = assemble_gram(imgs, CDEQ_NTK, params, filter_size=q)
    eigs = np.linalg.eigvalsh(G.values)
    click.echo(f"gram min eigenvalue {eigs[0]:.6g}, max {eigs[-1]:.6g}")
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        np.savetxt(outdir / "cdeq_gram.csv", G.values, delimiter=",", fmt="%.17g")
        write_manifest(outdir, "cdeq", {
            "data": source, "size": size, "filter_size": q, "images": count,
            "channels": channels, "seed": seed, **_params_dict(params),
        }, time.monotonic() - start)


if __name__ == "__main__":
    main()
