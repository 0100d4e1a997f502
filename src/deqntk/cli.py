"""Command-line entry points producing the experiment artifacts as CSV.

Every subcommand is a body registered with ``command``.  The body computes
and prints; it returns the files it writes (file name -> writer taking a
path) and any manifest entries of its own.  One runner does the rest: it
times the run, writes the files and the manifest under --out, and turns
an exception into an error message and an exit code.

Settings resolve in click's order: the option's default, then the config
file, then explicit flags.  The config file (--config) is a flat
``key = value`` text file whose keys are option names, with dashes or
underscores; it may set --out too, and any other key is an error.
Whenever --out is given, a manifest records every resolved option, the
command's own entries, the version, the git revision of the package's own
checkout (marked ``-dirty`` when its tracked files differ) and the wall
time, enough to re-run it bit-identically.

Errors print as ``error: <command>: <message>``.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numerical failure.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .data import UNIT_PIXEL, load_cifar10, load_mnist
from .empirical import ift_ntk_pair, make_weights, empirical_spectrum, resolvent_trace
from .errors import ConvergenceError, DataFormatError, SingularityError
from .gram import (
    CDEQ_NTK,
    DEQ_NTK,
    _split,
    assemble_gram,
    cross_gram,
    depth_sweep,
    regress_and_score,
    summarize_sweep,
    theta_vs_dot_sweep,
    write_rows_csv,
)
from .kernel import theta_deq
from .params import LINEAR, NORMALIZED_RELU, KernelParams
from .spectra import density_table, write_density_csv

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Matched before the configuration errors: np.linalg.LinAlgError (which
# scipy.linalg re-exports) is a ValueError.
_NUMERIC_ERRORS = (ConvergenceError, SingularityError, np.linalg.LinAlgError)
_DATA_ERRORS = (DataFormatError, FileNotFoundError)


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


def _load_config(ctx, param, path):
    """The config file's settings become the defaults of the command's
    options, so click converts them with each option's type.  A key that
    names none of them is an error."""
    if path is not None:
        try:
            settings = read_config(path)
            unknown = sorted(set(settings) - {p.name for p in ctx.command.params})
            if unknown:
                raise ValueError(f"{path}: no option named {', '.join(unknown)}")
        except ValueError as exc:
            raise click.BadParameter(str(exc), ctx, param) from exc
        ctx.default_map = settings


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
            cwd=Path(__file__).parent,
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


def _fail(command: str, code: int, exc: BaseException):
    click.echo(f"error: {command}: {exc}", err=True)
    sys.exit(code)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _int_list(least: int):
    """Callback of a comma-list option: one or more integers >= ``least``.
    The text is passed on as given, for the manifest."""
    def check(ctx, param, text):
        try:
            if min(_parse_int_list(text)) >= least:
                return text
        except ValueError:  # not integers, or none
            pass
        raise click.BadParameter(f"{text!r} is not a comma list of integers >= {least}")
    return check


_COUNT = click.IntRange(min=1)


@click.group()
@click.version_option(__version__)
def main():
    """Equilibrium-network kernel computations and experiments."""


def _kernel_options(sw2: float, su2: float) -> list[click.Option]:
    """In the order of ``KernelParams``' fields."""
    return [
        click.Option(["--sw2"], type=float, default=sw2, help="recurrent weight variance"),
        click.Option(["--su2"], type=float, default=su2, help="input injection variance"),
        click.Option(["--sb2"], type=float, default=0.0, help="bias variance"),
        click.Option(["--sv2"], type=float, default=1.0, help="readout variance"),
        click.Option(["--activation"], type=click.Choice([NORMALIZED_RELU, LINEAR]),
                     default=NORMALIZED_RELU),
    ]


def command(name: str | None = None, kernel: tuple[float, float] | None = None,
            out_required: bool = False):
    """Register the decorated body as a ``deqntk`` subcommand.

    The body's own options are ``click.option`` decorators below this one.
    ``kernel=(sw2, su2)`` adds the five kernel options with those defaults
    and passes them to the body as ``params: KernelParams``.  The body
    returns ``(files, extras)``: file name -> writer taking a path, and
    manifest entries that add to or replace the resolved options.
    """
    def register(body):
        cmd = name or body.__name__
        kernel_options = _kernel_options(*kernel) if kernel else []

        def run(out, **settings):
            start = time.monotonic()
            try:
                args = dict(settings)
                if kernel_options:
                    args["params"] = KernelParams(*(args.pop(o.name) for o in kernel_options))
                files, extras = body(**args)
                if out is not None:
                    outdir = Path(out)
                    outdir.mkdir(parents=True, exist_ok=True)
                    for file_name, write in files.items():
                        write(outdir / file_name)
                    write_manifest(outdir, cmd, {**settings, **extras},
                                   time.monotonic() - start)
            except _NUMERIC_ERRORS as exc:
                _fail(cmd, EXIT_NUMERIC, exc)
            except _DATA_ERRORS as exc:
                _fail(cmd, EXIT_DATA, exc)
            except ValueError as exc:
                _fail(cmd, EXIT_CONFIG, exc)

        params = [click.Option(
            ["--config"], type=click.Path(exists=True, dir_okay=False),
            is_eager=True, expose_value=False, callback=_load_config,
            help="flat key = value settings file; flags override it",
        )]
        params += kernel_options
        params += reversed(body.__click_params__)
        params.append(click.Option(["--out"], type=click.Path(), required=out_required,
                                   help="output directory"))
        cli_command = click.Command(cmd, callback=run, params=params, help=body.__doc__)
        main.add_command(cli_command)
        return cli_command

    return register


def _csv(rows, fields):
    return lambda path: write_rows_csv(rows, path, fields)


@command(kernel=(0.5, 0.5))
@click.option("--dot", type=float, default=0.0, help="inner product of the pair")
@click.option("--sweep-depths", default=None,
              help="comma list; also tabulate pre-readout kernel vs dot per depth")
def kernel(params, dot, sweep_depths):
    """Fixed-point kernel value for one inner product (and optional sweep)."""
    res = theta_deq(dot, params)
    click.echo(f"theta = {res.theta:.17g}")
    click.echo(f"rho_star = {res.rho_star:.17g}")
    click.echo(f"sigma_dot_star = {res.sigma_dot_star:.17g}")
    if not sweep_depths:
        return {}, {}
    if click.get_current_context().params["out"] is None:
        raise ValueError("--sweep-depths requires --out")
    rows = theta_vs_dot_sweep(params, _parse_int_list(sweep_depths))
    return {"theta_vs_dot.csv": _csv(rows, ["dot", "depth", "theta"])}, {}


@command("depth-sweep", kernel=(0.6, 0.4), out_required=True)
@click.option("--data", type=click.Path(), default=None,
              help="CIFAR-10 batch file or directory (env default otherwise)")
@click.option("--n-train", type=_COUNT, default=1000)
@click.option("--n-test", type=_COUNT, default=100)
@click.option("--depths", default="10,50,100,500", callback=_int_list(0),
              help="comma list of depths")
@click.option("--reps", type=_COUNT, default=5)
@click.option("--reg-eps", type=float, default=1e-4)
@click.option("--seed", type=int, default=0)
def depth_sweep_cmd(params, data, n_train, n_test, depths, reps, reg_eps, seed):
    """Accuracy of injected vs vanilla finite-depth kernels across depths."""
    params_vanilla = KernelParams(
        sigma_w_sq=1.0, sigma_u_sq=0.0, sigma_v_sq=params.sigma_v_sq,
        activation=params.activation,
    )
    depth_list = _parse_int_list(depths)
    ds = load_cifar10(data)
    rows = depth_sweep(ds.features, ds.labels, depth_list, params,
                       params_vanilla, reps, n_train, n_test,
                       reg_eps=reg_eps, seed=seed)
    summary = summarize_sweep(rows)
    for row in summary:
        click.echo(
            f"{row['kernel']} depth={row['depth']} "
            f"acc={row['mean_accuracy']:.4f} "
            f"[{row['ci_low']:.4f}, {row['ci_high']:.4f}]"
        )
    return {
        "depth_sweep.csv": _csv(rows, ["kernel", "depth", "rep", "accuracy"]),
        "depth_sweep_summary.csv": _csv(
            summary, ["kernel", "depth", "mean_accuracy", "ci_low", "ci_high"]),
    }, {"data": ds.source}


@command(kernel=(0.5, 0.5), out_required=True)
@click.option("--widths", default="64,256,1024", callback=_int_list(1),
              help="comma list of hidden widths")
@click.option("--seeds", type=_COUNT, default=10, help="number of seeds per width")
@click.option("--input-dim", type=_COUNT, default=10)
def residual(params, widths, seeds, input_dim):
    """Relative error of finite-width empirical kernels against the limit."""
    if params.sigma_u_sq + params.sigma_b_sq == 0.0:
        raise click.BadParameter("with both at 0 the limit kernel is 0, so no relative "
                                 "error exists", param_hint=["--su2", "--sb2"])
    width_list = _parse_int_list(widths)
    rows = []
    for n in width_list:
        for seed in range(seeds):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([seed, 17]))
            )
            x = rng.standard_normal(input_dim)
            y = rng.standard_normal(input_dim)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            theory = theta_deq(float(np.clip(x @ y, -1.0, 1.0)), params).theta
            emp = ift_ntk_pair(make_weights(n, input_dim, seed, params), x, y).total
            rows.append({
                "width": n, "seed": seed,
                "relative_error": abs(emp - theory) / abs(theory),
            })
    for n in width_list:
        errs = [r["relative_error"] for r in rows if r["width"] == n]
        click.echo(f"width={n} median relative error {np.median(errs):.4f}")
    return {"residual.csv": _csv(rows, ["width", "seed", "relative_error"])}, {}


@command()
@click.option("--n", type=_COUNT, default=5000)
@click.option("--sw2", type=float, default=0.25)
@click.option("--trials", type=_COUNT, default=10)
@click.option("--seed", type=int, default=0)
def trace(n, sw2, trials, seed):
    """Normalized trace of the squared inverse of I - sqrt(sw2/n) W."""
    if not 0.0 <= sw2 < 1.0:
        raise ValueError("sw2 must lie in [0, 1) for an invertible limit")
    values = [resolvent_trace(n, sw2, seed + t) for t in range(trials)]
    click.echo(f"mean trace = {float(np.mean(values)):.6f} "
               f"(target {1.0 / (1.0 - sw2):.6f}), "
               f"std {np.std(values, ddof=1) if trials > 1 else 0.0:.2e}")
    rows = [{"trial": t, "value": float(v)} for t, v in enumerate(values)]
    return {"trace.csv": _csv(rows, ["trial", "value"])}, {}


@command(out_required=True)
@click.option("--sw2", type=float, default=0.25)
@click.option("--n", type=_COUNT, default=1000)
@click.option("--seed", type=int, default=0)
def spectrum(sw2, n, seed):
    """Empirical vs limiting eigenvalue distributions (two CSV tables)."""
    params = KernelParams(sigma_w_sq=sw2, sigma_u_sq=1.0 - sw2)
    eigs = empirical_spectrum(make_weights(n, 1, seed, params))
    table = density_table(sw2)
    emp_cdf_at = np.searchsorted(eigs, eigs, side="right") / n
    sup_dist = float(np.max(np.abs(emp_cdf_at - table.cdf(eigs))))
    click.echo(f"CDF sup-distance = {sup_dist:.4f}")
    rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(eigs)]
    return {
        "empirical_spectrum.csv": _csv(rows, ["index", "eigenvalue"]),
        "limiting_density.csv": lambda path: write_density_csv(table, path),
    }, {"cdf_sup_distance": sup_dist}


@command(kernel=(0.6, 0.4))
@click.option("--dataset", type=click.Choice(["mnist", "cifar10"]), default="mnist")
@click.option("--path", type=click.Path(), default=None)
@click.option("--n-train", type=_COUNT, default=2000)
@click.option("--n-test", type=_COUNT, default=1000)
@click.option("--reg-eps", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
def regress(params, dataset, path, n_train, n_test, reg_eps, seed):
    """Fixed-point kernel regression accuracy on a dataset subset."""
    ds = load_mnist(path) if dataset == "mnist" else load_cifar10(path)
    tr, te = _split(np.random.default_rng(seed), ds.features.shape[0], n_train, n_test)
    G = assemble_gram(ds.features[tr], DEQ_NTK, params)
    C = cross_gram(ds.features[te], ds.features[tr], DEQ_NTK, params)
    acc = regress_and_score(G.values, C, ds.labels[tr], ds.labels[te], reg_eps)
    click.echo(f"accuracy = {acc:.4f}")
    return {"regress.csv": _csv([{"accuracy": acc}], ["accuracy"])}, {"data": ds.source}


@command(kernel=(0.65, 0.35))
@click.option("--data", type=click.Path(), default=None,
              help="CIFAR-10 batch file or directory; random images otherwise")
@click.option("--size", type=_COUNT, default=8, help="side length of the random images")
@click.option("--filter-size", type=int, default=3)
@click.option("--images", type=_COUNT, default=8)
@click.option("--channels", type=_COUNT, default=3, help="channels of the random images")
@click.option("--seed", type=int, default=0)
def cdeq(params, data, size, filter_size, images, channels, seed):
    """Convolutional kernel Gram over unit-pixel images: the first --images
    CIFAR-10 images with --data, random ones otherwise."""
    if data is None:
        imgs = np.random.default_rng(seed).standard_normal((images, size, size, channels))
        imgs /= np.linalg.norm(imgs, axis=-1, keepdims=True)
        extras = {"data": "random"}
    else:
        ds = load_cifar10(data, normalization=UNIT_PIXEL, limit=images)
        if images > ds.features.shape[0]:
            raise ValueError(
                f"--images {images} exceeds the {ds.features.shape[0]} images "
                f"in {ds.source}"
            )
        imgs = ds.features
        extras = {"data": ds.source, "size": imgs.shape[1], "channels": imgs.shape[3]}
    G = assemble_gram(imgs, CDEQ_NTK, params, filter_size=filter_size)
    eigs = np.linalg.eigvalsh(G.values)
    click.echo(f"gram min eigenvalue {eigs[0]:.6g}, max {eigs[-1]:.6g}")
    return {
        "cdeq_gram.csv": lambda path: np.savetxt(path, G.values, delimiter=",", fmt="%.17g"),
    }, extras


if __name__ == "__main__":
    main()
