import gzip
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from deqntk import (
    LINEAR,
    ConvergenceError,
    DomainError,
    KernelParams,
    SingularityError,
    theta_linear_deq,
)
from deqntk import cli
from deqntk.cli import EXIT_CONFIG, EXIT_DATA, main, read_config
from deqntk.data import (
    UNIT_PIXEL,
    UNIT_SAMPLE,
    DataFormatError,
    load_cifar10,
    load_idx_pair,
    load_mnist,
)


def write_idx(tmp_path, n=6, rows=28, cols=28, magic_img=0x00000803,
              magic_lab=0x00000801, seed=0, gz=False, truncate=False,
              labels=None, keep=(None, None), zero_sample=None):
    """IDX image/label pair of ``n`` random samples labelled ``labels``
    (default 0, 1, ..., 9, 0, ...).  ``truncate`` halves the image file,
    ``keep`` cuts each file to its first bytes, and sample ``zero_sample``
    is all zero."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    pixels[:, 0, 0] = np.maximum(pixels[:, 0, 0], 1)  # no all-zero sample
    if zero_sample is not None:
        pixels[zero_sample] = 0
    if labels is None:
        labels = np.arange(n) % 10
    labels = np.asarray(labels, dtype=np.uint8)
    img_raw = struct.pack(">IIII", magic_img, n, rows, cols) + pixels.tobytes()
    lab_raw = struct.pack(">II", magic_lab, n) + labels.tobytes()
    if truncate:
        img_raw = img_raw[: len(img_raw) // 2]
    img_raw, lab_raw = img_raw[: keep[0]], lab_raw[: keep[1]]
    img_path = tmp_path / ("train-images-idx3-ubyte" + (".gz" if gz else ""))
    lab_path = tmp_path / ("train-labels-idx1-ubyte" + (".gz" if gz else ""))
    img_path.write_bytes(gzip.compress(img_raw) if gz else img_raw)
    lab_path.write_bytes(gzip.compress(lab_raw) if gz else lab_raw)
    return img_path, lab_path, labels


def write_cifar(tmp_path, n=5, seed=0, bad_label=False, bad_size=False):
    rng = np.random.default_rng(seed)
    records = bytearray()
    for i in range(n):
        label = 11 if (bad_label and i == 0) else i % 10
        pix = rng.integers(0, 256, size=3072, dtype=np.uint8)
        if i == 0:
            pix[0] = pix[1024] = pix[2048] = 0  # force one zero pixel
        records += bytes([label]) + pix.tobytes()
    if bad_size:
        records = records[:-10]
    path = tmp_path / "data_batch_1.bin"
    path.write_bytes(bytes(records))
    return path


class TestMnistLoader:
    def test_load_and_normalize(self, tmp_path):
        img, lab, labels = write_idx(tmp_path)
        ds = load_idx_pair(img, lab)
        assert ds.features.shape == (6, 784)
        assert np.array_equal(ds.labels, labels)
        assert np.max(np.abs(np.linalg.norm(ds.features, axis=1) - 1.0)) <= 1e-9

    def test_directory_resolution_and_gzip(self, tmp_path):
        write_idx(tmp_path, gz=True)
        ds = load_mnist(tmp_path, split="train")
        assert ds.features.shape[0] == 6

    def test_env_default_dir(self, tmp_path, monkeypatch):
        write_idx(tmp_path)
        monkeypatch.setenv("DEQNTK_DATA_DIR", str(tmp_path))
        ds = load_mnist()
        assert ds.features.shape[0] == 6

    def test_bad_magic(self, tmp_path):
        img, lab, _ = write_idx(tmp_path, magic_img=0x00000807)
        with pytest.raises(DataFormatError):
            load_idx_pair(img, lab)

    def test_truncated(self, tmp_path):
        img, lab, _ = write_idx(tmp_path, truncate=True)
        with pytest.raises(DataFormatError):
            load_idx_pair(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _, _ = write_idx(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        _, lab, _ = write_idx(other, n=4)
        with pytest.raises(DataFormatError):
            load_idx_pair(img, lab)

    def test_missing_files(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("which, fault, message", [
        ("images", {"keep": (15, None)}, "truncated IDX header"),
        ("labels", {"keep": (None, 7)}, "truncated IDX header"),
        ("labels", {"magic_lab": 0x0803}, "bad IDX magic 0x00000803"),
        ("images", {"magic_img": 0x0801}, "bad IDX magic 0x00000801"),
        ("images", {"magic_img": 0x0802}, "bad IDX magic 0x00000802"),
        ("labels", {"keep": (None, 8 + 5)}, "truncated IDX data"),
        ("labels", {"labels": [0, 1, 2, 12, 4, 5]}, "label exceeds 9"),
    ], ids=["images-header", "labels-header", "labels-magic", "images-magic-1",
            "images-magic-2", "labels-data", "label-above-9"])
    def test_format_errors_name_the_file(self, tmp_path, gz, which, fault, message):
        img, lab, _ = write_idx(tmp_path, gz=gz, **fault)
        with pytest.raises(DataFormatError, match=message) as err:
            load_idx_pair(img, lab)
        assert str(err.value).startswith(str(img if which == "images" else lab))

    def test_zero_count_pair(self, tmp_path):
        img, lab, _ = write_idx(tmp_path, n=0)
        ds = load_idx_pair(img, lab)
        assert ds.features.shape == (0, 784) and ds.features.dtype == np.float64
        assert ds.labels.shape == (0,) and ds.labels.dtype == int

    def test_all_zero_sample(self, tmp_path):
        img, lab, _ = write_idx(tmp_path, zero_sample=2)
        with pytest.raises(DataFormatError, match="all-zero sample"):
            load_idx_pair(img, lab)

    def test_path_must_be_a_directory(self, tmp_path):
        img, _, _ = write_idx(tmp_path)
        with pytest.raises(DataFormatError, match="expects a directory"):
            load_mnist(img)

    def test_unknown_split(self, tmp_path):
        write_idx(tmp_path)
        with pytest.raises(ValueError, match="split"):
            load_mnist(tmp_path, split="validation")


class TestCifarLoader:
    def test_load_counts_and_labels(self, tmp_path):
        write_cifar(tmp_path)
        ds = load_cifar10(tmp_path)
        assert ds.features.shape == (5, 3072)
        assert ds.labels.min() >= 0 and ds.labels.max() <= 9
        assert np.max(np.abs(np.linalg.norm(ds.features, axis=1) - 1.0)) <= 1e-9

    def test_unit_pixel_mode(self, tmp_path):
        write_cifar(tmp_path)
        ds = load_cifar10(tmp_path, normalization=UNIT_PIXEL)
        assert ds.features.shape == (5, 32, 32, 3)
        norms = np.linalg.norm(ds.features, axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9
        # the forced zero pixel maps to the uniform unit vector
        assert np.allclose(ds.features[0, 0, 0], 1.0 / np.sqrt(3.0))

    @pytest.mark.parametrize("normalization", [UNIT_SAMPLE, UNIT_PIXEL])
    def test_one_float_copy_normalized_in_place(self, tmp_path, normalization):
        write_cifar(tmp_path, n=200)
        tracemalloc.start()
        try:
            ds = load_cifar10(tmp_path, normalization=normalization)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 copy, the per-pixel norms (a third of its size) and
        # the file's bytes: 1.26x / 1.68x, where three or more float copies
        # made 3.1x / 4.5x
        assert peak < ds.features.nbytes * 2
        raw = np.frombuffer((tmp_path / "data_batch_1.bin").read_bytes(), np.uint8)
        img = raw.reshape(200, 3073)[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        img = img.astype(float) / 255.0
        if normalization == UNIT_SAMPLE:
            img = img.reshape(200, -1)
            want = img / np.linalg.norm(img, axis=1, keepdims=True)
        else:
            norms = np.linalg.norm(img, axis=-1, keepdims=True)
            want = np.where(norms == 0, 1 / np.sqrt(3), img / np.where(norms == 0, 1, norms))
        assert np.max(np.abs(ds.features - want)) <= 1e-15

    def test_limit_converts_only_the_first_records(self, tmp_path):
        write_cifar(tmp_path, n=300)
        first = tmp_path / "data_batch_1.bin"
        (tmp_path / "data_batch_2.bin").write_bytes(b"not a batch")
        tracemalloc.start()
        try:
            ds = load_cifar10(tmp_path, normalization=UNIT_PIXEL, limit=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the batch's bytes, not a float copy of its 300 images (7 MB)
        assert peak < 2 * first.stat().st_size
        assert ds.features.shape == (4, 32, 32, 3) and ds.source == str(first)
        whole = load_cifar10(first, normalization=UNIT_PIXEL)
        assert np.array_equal(ds.features, whole.features[:4])
        assert np.array_equal(ds.labels, whole.labels[:4])
        # a limit past the first batch reads the next one
        with pytest.raises(DataFormatError):
            load_cifar10(tmp_path, limit=301)
        with pytest.raises(ValueError):
            load_cifar10(tmp_path, limit=-1)

    def test_bad_label(self, tmp_path):
        write_cifar(tmp_path, bad_label=True)
        with pytest.raises(DataFormatError):
            load_cifar10(tmp_path)

    def test_bad_record_size(self, tmp_path):
        write_cifar(tmp_path, bad_size=True)
        with pytest.raises(DataFormatError):
            load_cifar10(tmp_path)

    def test_any_batch_file_without_training_batches(self, tmp_path):
        (tmp_path / "test_batch.bin").write_bytes(write_cifar(tmp_path).read_bytes())
        (tmp_path / "data_batch_1.bin").unlink()
        ds = load_cifar10(tmp_path)
        assert ds.features.shape == (5, 3072)
        assert ds.source == str(tmp_path / "test_batch.bin")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataFormatError, match="no CIFAR-10 batch files"):
            load_cifar10(tmp_path)

    def test_unknown_normalization(self, tmp_path):
        write_cifar(tmp_path)
        with pytest.raises(ValueError, match="unknown normalization"):
            load_cifar10(tmp_path, normalization="bogus")


class TestConfig:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sw2 = 0.5\n# comment\nsu2=0.5\nreg-eps = 1e-4\n")
        settings = read_config(cfg)
        assert settings == {"sw2": "0.5", "su2": "0.5", "reg_eps": "1e-4"}

    def test_rejects_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sw2 0.5\n")
        with pytest.raises(ValueError):
            read_config(cfg)


class TestCli:
    def test_kernel_value(self):
        result = CliRunner().invoke(
            main, ["kernel", "--dot", "0", "--sw2", "0.5", "--su2", "0.5"]
        )
        assert result.exit_code == 0
        assert "rho_star = 0.21723362821" in result.output

    def test_kernel_without_injection_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(
                main, ["kernel", "--sw2", "0.5", "--su2", "0", "--dot", "0.3"]
            )
        assert result.exit_code == 0, result.output
        assert "theta = 0\n" in result.output
        assert "rho_star = 0\n" in result.output

    def test_kernel_sweep_past_underflow_is_zero(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, [
                "kernel", "--sw2", "0.5", "--su2", "0", "--dot", "0.3",
                "--sweep-depths", "10,1100", "--out", str(tmp_path),
            ])
        assert result.exit_code == 0, result.output
        rows = np.loadtxt(tmp_path / "theta_vs_dot.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[rows[:, 1] == 1100, 2] == 0.0)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dot = 0.0\nsw2 = 0.5\nsu2 = 0.5\n")
        base = CliRunner().invoke(main, ["kernel", "--config", str(cfg)])
        over = CliRunner().invoke(
            main, ["kernel", "--config", str(cfg), "--dot", "0.5"]
        )
        assert base.exit_code == over.exit_code == 0
        assert base.output != over.output

    def test_config_error_exit_code(self):
        result = CliRunner().invoke(
            main, ["kernel", "--dot", "0", "--sw2", "1.5", "--su2", "0.0"]
        )
        assert result.exit_code == EXIT_CONFIG
        assert "contraction" in result.output

    def test_data_error_exit_code(self, tmp_path):
        result = CliRunner().invoke(
            main, ["regress", "--path", str(tmp_path / "missing"), "--n-train", "2"]
        )
        assert result.exit_code == EXIT_DATA

    def test_trace_command(self):
        result = CliRunner().invoke(
            main, ["trace", "--n", "200", "--sw2", "0.25", "--trials", "2"]
        )
        assert result.exit_code == 0
        assert "target 1.333333" in result.output

    def test_trace_rejects_sw2_at_one(self):
        # the library's own domain check, before any W is drawn
        result = CliRunner().invoke(main, ["trace", "--n", "200", "--sw2", "1.0"])
        assert result.exit_code == EXIT_CONFIG
        assert "sigma_w_sq=1.0 must lie in [0, 1)" in result.output

    def test_spectrum_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "spectrum"
        result = CliRunner().invoke(
            main,
            ["spectrum", "--sw2", "0.25", "--n", "200", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert (out / "empirical_spectrum.csv").exists()
        assert (out / "limiting_density.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        for key in ("command = spectrum", "sw2", "seed", "git_revision",
                    "wall_time_seconds"):
            assert key in manifest

    def test_spectrum_point_mass(self, tmp_path):
        # at sw2 = 0 every eigenvalue is 1 and the limit is the point mass at 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(
                main,
                ["spectrum", "--sw2", "0", "--n", "50", "--out", str(tmp_path)],
            )
        assert result.exit_code == 0, result.output
        assert "CDF sup-distance = 0.0000" in result.output

    def test_spectrum_checks_sw2_before_drawing(self, tmp_path, monkeypatch):
        def unreachable(weights):
            raise AssertionError("the spectrum was computed before sw2 was checked")

        monkeypatch.setattr(cli, "empirical_spectrum", unreachable)
        result = CliRunner().invoke(
            main, ["spectrum", "--sw2", "1.0", "--n", "2500", "--out", str(tmp_path)]
        )
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "sigma_w_sq must lie in [0, 1)" in result.output

    def test_regress_on_synthetic_mnist(self, tmp_path):
        write_idx(tmp_path, n=30)
        result = CliRunner().invoke(
            main,
            [
                "regress", "--path", str(tmp_path), "--n-train", "20",
                "--n-test", "10", "--sw2", "0.6", "--su2", "0.4",
                "--reg-eps", "1e-4",
            ],
        )
        assert result.exit_code == 0
        assert "accuracy =" in result.output

    def test_regress_releases_the_samples_before_the_solve(self, tmp_path, monkeypatch):
        write_idx(tmp_path, n=30)
        features, solve = [], cli.regress_and_score

        def load(path):
            ds = load_mnist(path)
            features.append(weakref.ref(ds.features))
            return ds

        def released_then_solve(*args):
            assert features[0]() is None, "the samples are still resident"
            return solve(*args)

        monkeypatch.setattr(cli, "load_mnist", load)
        monkeypatch.setattr(cli, "regress_and_score", released_then_solve)
        result = CliRunner().invoke(main, ["regress", "--path", str(tmp_path),
                                           "--n-train", "20", "--n-test", "10"])
        assert result.exit_code == 0, result.output
        assert "accuracy =" in result.output

    @pytest.mark.parametrize("seed", [0, 4])
    def test_regress_bad_label_exits_data_at_load(self, tmp_path, seed, monkeypatch):
        # sample 3 falls in the train split at seed 0 and in the test split at 4
        tr, te = cli._split(np.random.default_rng(seed), 40, 30, 10)
        assert 3 in (tr if seed == 0 else te)
        labels = np.arange(40) % 10
        labels[3] = 12
        _, lab, _ = write_idx(tmp_path, n=40, labels=labels)
        monkeypatch.setattr(cli, "assemble_gram", None)  # never reached
        result = CliRunner().invoke(main, ["regress", "--path", str(tmp_path),
                                           "--n-train", "30", "--n-test", "10",
                                           "--seed", str(seed)])
        assert result.exit_code == EXIT_DATA, result.output
        assert f"{lab}: label exceeds 9" in result.output

    @pytest.mark.parametrize("sizes", [["--n-train", "45", "--n-test", "10"],
                                       ["--n-train", "50"]])
    def test_regress_oversize_split_exits_config(self, tmp_path, sizes):
        write_idx(tmp_path, n=50)
        result = CliRunner().invoke(main, ["regress", "--path", str(tmp_path), *sizes])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "not enough samples for the requested split" in result.output

    def test_cdeq_command(self, tmp_path):
        out = tmp_path / "cdeq"
        result = CliRunner().invoke(
            main,
            ["cdeq", "--size", "4", "--images", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert (out / "cdeq_gram.csv").exists()

    def test_cdeq_on_synthetic_cifar(self, tmp_path):
        batch = write_cifar(tmp_path, n=5)
        out = tmp_path / "cdeq"
        result = CliRunner().invoke(
            main,
            ["cdeq", "--data", str(tmp_path), "--images", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        G = np.loadtxt(out / "cdeq_gram.csv", delimiter=",")
        assert G.shape == (4, 4)
        assert np.array_equal(G, G.T)
        w = np.linalg.eigvalsh(G)
        assert w[0] >= -1e-8 * w[-1]
        manifest = (out / "manifest.txt").read_text()
        assert f"data = {batch}" in manifest and "size = 32" in manifest

    def test_cdeq_malformed_batch_is_data_error(self, tmp_path):
        write_cifar(tmp_path, n=3, bad_size=True)
        result = CliRunner().invoke(
            main, ["cdeq", "--data", str(tmp_path), "--images", "2"]
        )
        assert result.exit_code == EXIT_DATA

    def test_cdeq_more_images_than_data_is_config_error(self, tmp_path):
        write_cifar(tmp_path, n=3)
        result = CliRunner().invoke(
            main, ["cdeq", "--data", str(tmp_path), "--images", "4"]
        )
        assert result.exit_code == EXIT_CONFIG
        assert "exceeds the 3 images" in result.output

    def test_cdeq_rejects_bias(self):
        result = CliRunner().invoke(
            main, ["cdeq", "--size", "4", "--images", "2", "--sb2", "0.1"]
        )
        assert result.exit_code == EXIT_CONFIG
        assert "sigma_b_sq" in result.output

    def test_cdeq_rejects_readout_scale(self):
        result = CliRunner().invoke(
            main, ["cdeq", "--size", "4", "--images", "2", "--sv2", "2"]
        )
        assert result.exit_code == EXIT_CONFIG
        assert "sigma_v_sq" in result.output

    def test_depth_sweep_on_synthetic_cifar(self, tmp_path):
        write_cifar(tmp_path, n=40)
        out = tmp_path / "sweep"
        result = CliRunner().invoke(
            main,
            [
                "depth-sweep", "--data", str(tmp_path), "--n-train", "25",
                "--n-test", "10", "--depths", "1,3", "--reps", "2",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "depth_sweep.csv").read_text().splitlines()
        assert lines[0] == "kernel,depth,rep,accuracy"
        assert len(lines) == 1 + 2 * 2 * 2  # kernels x depths x reps


def _settings_and_extras(name, tmp_path):
    """Every option of the command except --config and --out, at values
    that run in well under a second, and the manifest keys it adds."""
    kernel = {"sw2": 0.55, "su2": 0.45, "sb2": 0.0, "sv2": 2.0,
              "activation": "normalized-relu"}
    if name in ("depth-sweep", "cdeq"):
        write_cifar(tmp_path, n=40)
    if name == "regress":
        write_idx(tmp_path, n=30)
    return {
        "kernel": ({**kernel, "dot": 0.3, "sweep_depths": "1,4",
                    "activation": LINEAR}, set()),
        "depth-sweep": ({**kernel, "data": tmp_path, "n_train": 25, "n_test": 10,
                         "depths": "1,3", "reps": 2, "reg_eps": 1e-3, "seed": 3},
                        set()),
        "residual": ({**kernel, "sw2": 0.3, "su2": 0.7, "widths": "32,64",
                      "seeds": 2, "input_dim": 3},
                     set()),
        "trace": ({"n": 100, "sw2": 0.3, "trials": 2, "seed": 4}, set()),
        "spectrum": ({"sw2": 0.3, "n": 80, "seed": 2}, {"cdf_sup_distance"}),
        "regress": ({**kernel, "dataset": "mnist", "path": tmp_path, "n_train": 20,
                     "n_test": 10, "reg_eps": 1e-4, "seed": 1}, {"data"}),
        # the convolutional kernel has no readout, so sv2 must be 1
        "cdeq": ({**kernel, "sw2": 0.65, "su2": 0.35, "sv2": 1.0, "data": tmp_path,
                  "size": 4, "filter_size": 3, "images": 3, "channels": 3, "seed": 0},
                 set()),
    }[name]


def _manifest(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines
                if not line.startswith("wall_time_seconds"))


#: Count and list options at values no run can use.
UNUSABLE = [
    ("cdeq", "--images", "0"), ("cdeq", "--size", "0"), ("cdeq", "--channels", "0"),
    ("spectrum", "--n", "0"), ("trace", "--n", "0"), ("trace", "--trials", "0"),
    ("residual", "--seeds", "0"), ("residual", "--input-dim", "0"),
    ("residual", "--widths", "0"), ("residual", "--widths", ""),
    ("residual", "--su2", "0"),  # with the default --sb2 0 the limit kernel is 0
    ("regress", "--n-train", "0"), ("regress", "--n-test", "-3"),
    ("depth-sweep", "--n-train", "0"), ("depth-sweep", "--n-test", "0"),
    ("depth-sweep", "--reps", "0"), ("depth-sweep", "--depths", ""),
    ("depth-sweep", "--depths", "1,-1"), ("depth-sweep", "--depths", "1,x"),
    ("regress", "--reg-eps", "-1"), ("regress", "--reg-eps", "nan"),
    ("depth-sweep", "--reg-eps", "-1e-4"), ("depth-sweep", "--reg-eps", "inf"),
    ("kernel", "--sweep-depths", "5,x"), ("kernel", "--sweep-depths", "-3"),
]


class TestRunner:
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("command, option, value", UNUSABLE)
    def test_counts_and_lists_checked_when_parsed(self, tmp_path, command, option,
                                                  value, from_config):
        args = [command, "--out", str(tmp_path / "out")]
        if from_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{option[2:]} = {value}\n")
            args += ["--config", str(cfg)]
        else:
            args += [option, value]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == EXIT_CONFIG, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert not (tmp_path / "out").exists()

    def test_sweep_without_out_fails_before_computing(self):
        result = CliRunner().invoke(main, ["kernel", "--sweep-depths", "3"])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "--sweep-depths requires --out" in result.output
        assert "theta" not in result.output

    def test_diverged_forward_pass_exits_numeric(self, tmp_path):
        # seed 0 converges at sigma_w_sq = 0.9, n = 32; seed 1 diverges
        result = CliRunner().invoke(main, [
            "residual", "--sw2", "0.9", "--su2", "0.1", "--widths", "32",
            "--seeds", "4", "--out", str(tmp_path),
        ])
        assert result.exit_code == cli.EXIT_NUMERIC, result.output
        assert "error: residual: forward pass: " in result.output
        assert not (tmp_path / "residual.csv").exists()

    def test_scipy_linalg_loads_only_where_lapack_runs(self, tmp_path):
        """In a fresh interpreter, importing the package and running the
        commands that call no LAPACK routine leave scipy.linalg unloaded; the
        LAPACK callers load it when they run."""
        script = f"""
import sys
from click.testing import CliRunner

def unloaded(step):
    assert "scipy.linalg" not in sys.modules, f"scipy.linalg loaded by {{step}}"

import deqntk.cli
from deqntk import gram, empirical, spectra, conv
unloaded("import")
for args, code in [
    (["kernel", "--dot", "0.3"], 0),
    (["cdeq", "--size", "4", "--images", "3"], 0),
    (["residual", "--sw2", "0.3", "--su2", "0.7", "--widths", "16", "--seeds", "1",
      "--out", {str(tmp_path / "residual")!r}], 0),
    (["--help"], 0),
    (["--version"], 0),
    (["trace", "--n", "0"], 2),
    (["spectrum", "--sw2", "1.0", "--out", {str(tmp_path / "spectrum")!r}], 2),
]:
    result = CliRunner().invoke(deqntk.cli.main, args)
    assert result.exit_code == code, (args, result.output)
    unloaded(args)

import numpy as np
from deqntk import KernelParams
result = CliRunner().invoke(deqntk.cli.main, ["trace", "--n", "20", "--trials", "2"])
assert result.exit_code == 0, result.output
assert gram.regress_and_score(np.eye(10), np.eye(10), range(10), range(10), 0.0) == 1.0
weights = empirical.make_weights(20, 1, 0, KernelParams(0.25, 0.75))
assert empirical.empirical_spectrum(weights).shape == (20,)
assert "scipy.linalg" in sys.modules
"""
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_list_options_recorded_as_given(self, tmp_path):
        result = CliRunner().invoke(main, [
            "residual", "--widths", "32, 64", "--seeds", "1", "--input-dim", "3",
            "--sw2", "0.3", "--su2", "0.7", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        assert _manifest(tmp_path)["widths"] == "32, 64"

    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_config_file_equals_flags(self, tmp_path, name):
        settings, extras = _settings_and_extras(name, tmp_path)
        options = {p.name for p in main.commands[name].params} - {"config", "out"}
        assert set(settings) == options
        flags = [name, "--out", str(tmp_path / "by_flags")]
        for key, value in settings.items():
            flags += ["--" + key.replace("_", "-"), str(value)]
        cfg = tmp_path / "run.cfg"
        # keys with dashes or underscores, and --out from the file too
        cfg.write_text("".join(
            f"{key.replace('_', '-') if i % 2 else key} = {value}\n"
            for i, (key, value) in enumerate({**settings, "out": tmp_path / "by_config"}.items())
        ))
        by_flags = CliRunner().invoke(main, flags)
        by_config = CliRunner().invoke(main, [name, "--config", str(cfg)])
        assert by_flags.exit_code == by_config.exit_code == 0, by_config.output
        assert by_config.output == by_flags.output
        written = sorted(p.name for p in (tmp_path / "by_flags").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "by_config").iterdir())
        for file_name in written:
            if file_name != "manifest.txt":
                assert ((tmp_path / "by_config" / file_name).read_bytes()
                        == (tmp_path / "by_flags" / file_name).read_bytes())
        manifest = _manifest(tmp_path / "by_config")
        assert manifest == _manifest(tmp_path / "by_flags")
        assert manifest["command"] == name
        assert set(manifest) - {"command", "version", "git_revision"} == options | extras

    @pytest.mark.parametrize("line", [
        "sw2 0.5",  # no '='
        "n = 12.5",  # not an integer
        "activation = tanh",  # not a choice
    ])
    def test_config_errors_exit_config(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sw2 = 0.25\n{line}\n")
        command = "kernel" if line.startswith("activation") else "trace"
        result = CliRunner().invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "Invalid value" in result.output

    def test_config_key_naming_no_option_exits_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dott = 0.5\nsw2 = 0.5\n")
        result = CliRunner().invoke(main, ["kernel", "--config", str(cfg)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "Invalid value" in result.output and "dott" in result.output

    def test_manifest_revision_is_the_package_checkout(self, tmp_path, monkeypatch):
        package = Path(cli.__file__).parent
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package,
                              capture_output=True, text=True)
        if head.returncode != 0:
            expected = "unknown"
        else:
            dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=package)
            expected = head.stdout.strip() + ("-dirty" if dirty.returncode else "")
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, ["trace", "--n", "10", "--trials", "1",
                                           "--out", "out"])
        assert result.exit_code == 0, result.output
        assert _manifest(tmp_path / "out")["git_revision"] == expected

    @pytest.mark.parametrize("error, code", [
        (np.linalg.LinAlgError, cli.EXIT_NUMERIC),  # a ValueError, matched first
        (ConvergenceError, cli.EXIT_NUMERIC),
        (SingularityError, cli.EXIT_NUMERIC),
        (DataFormatError, EXIT_DATA),
        (FileNotFoundError, EXIT_DATA),
        (DomainError, EXIT_CONFIG),
        (ValueError, EXIT_CONFIG),
    ])
    def test_exit_code_follows_the_error(self, monkeypatch, error, code):
        def fail(*args):
            raise error("stage failed")

        monkeypatch.setattr(cli, "resolvent_trace", fail)
        result = CliRunner().invoke(main, ["trace", "--n", "10"])
        assert result.exit_code == code
        assert "error: trace: stage failed" in result.output

    @pytest.mark.parametrize("sw2, su2, sb2", [(0.5, 0.5, 0.0), (0.4, 0.6, 0.0),
                                                (0.3, 0.2, 0.5), (0.9, 0.1, 0.0)])
    @pytest.mark.parametrize("dot", [-1.0, -0.4, 0.0, 0.2, 0.3, 1.0])
    def test_linear_kernel_reports_the_fixed_point(self, sw2, su2, sb2, dot):
        result = CliRunner().invoke(main, [
            "kernel", "--activation", "linear", "--dot", str(dot),
            "--sw2", str(sw2), "--su2", str(su2), "--sb2", str(sb2),
        ])
        assert result.exit_code == 0, result.output
        values = dict(line.split(" = ") for line in result.output.splitlines())
        assert set(values) == {"theta", "rho_star", "sigma_dot_star"}
        params = KernelParams(sigma_w_sq=sw2, sigma_u_sq=su2, sigma_b_sq=sb2,
                              activation=LINEAR)
        closed = float(theta_linear_deq(dot, params))
        assert abs(float(values["theta"]) - closed) <= 1e-15 * abs(closed)
