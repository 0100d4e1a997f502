"""Dataset ingestion (MNIST IDX, CIFAR-10 binary) and normalization.

Files are parsed bit-exactly from the published binary layouts; pixel
values are scaled to [0, 1] before normalization.  ``unit-sample``, the
only normalization of MNIST, scales every flattened sample to unit
Euclidean norm; ``unit-pixel``, for CIFAR-10 images, scales every
channel vector of an image to unit norm, mapping all-zero pixels to the
uniform unit vector so the convolutional kernel's per-pixel precondition
holds on sparse images.

The default data directory comes from the DEQNTK_DATA_DIR environment
variable; explicit paths always win.
"""
from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

DATA_DIR_ENV = "DEQNTK_DATA_DIR"

UNIT_SAMPLE = "unit-sample"
UNIT_PIXEL = "unit-pixel"

_CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixels, channel-major

_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass(frozen=True)
class Dataset:
    """Feature array (dense rows or image tensor) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    source: str


def _read_bytes(path: Path) -> bytes:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _read_idx(path: Path, ndim: int) -> np.ndarray:
    """IDX file of unsigned bytes with ``ndim`` dimensions, as an N x (product
    of the other dimensions) uint8 view of the file's bytes."""
    raw = _read_bytes(path)
    header = 4 * (ndim + 1)
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated IDX header")
    magic, n, *dims = struct.unpack(f">{ndim + 1}I", raw[:header])
    if magic != 0x0800 + ndim:
        raise DataFormatError(
            f"{path}: bad IDX magic {magic:#010x}, expected {0x0800 + ndim:#010x}"
        )
    size = math.prod(dims)
    if len(raw) < header + n * size:
        raise DataFormatError(f"{path}: truncated IDX data")
    return np.frombuffer(raw, np.uint8, count=n * size, offset=header).reshape(n, size)


def _labels(labels: np.ndarray, path: Path) -> np.ndarray:
    """uint8 class labels of ``path`` as ints; a label above 9 is a data error."""
    if np.any(labels > 9):
        raise DataFormatError(f"{path}: label exceeds 9")
    return labels.astype(int)


def _unit_pixels(images: np.ndarray) -> np.ndarray:
    """Unit channel vector per pixel, in place on a float array, which is
    returned; all-zero pixels become uniform."""
    norms = np.einsum("...c,...c->...", images, images)[..., None]
    np.sqrt(norms, out=norms)
    zero = norms == 0
    np.divide(images, norms, out=images, where=~zero)
    np.copyto(images, 1.0 / np.sqrt(images.shape[-1]), where=zero)
    return images


def _features(records: np.ndarray, normalization: str) -> np.ndarray:
    """uint8 ``records`` as one float64 array of pixels in [0, 1], normalized
    in place: unit-sample rows come back flattened per record, unit-pixel
    records keep their shape."""
    feats = records.astype(float, order="C")
    feats /= 255.0
    if normalization == UNIT_SAMPLE:
        feats = feats.reshape(len(feats), math.prod(feats.shape[1:]))
        norms = np.sqrt(np.einsum("ij,ij->i", feats, feats))[:, None]
        if np.any(norms == 0):
            raise DataFormatError("all-zero sample cannot be unit-normalized")
        feats /= norms
    elif normalization == UNIT_PIXEL:
        _unit_pixels(feats)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    return feats


def _resolve(path, source_name) -> Path:
    if path is None:
        path = os.environ.get(DATA_DIR_ENV)
        if not path:
            raise DataFormatError(
                f"no path given for {source_name} and {DATA_DIR_ENV} is not set"
            )
    return Path(path)


def load_idx_pair(images_path, labels_path) -> Dataset:
    """MNIST-style IDX image/label file pair as unit-sample rows of pixels
    scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    images = _read_idx(images_path, 3)
    labels = _labels(_read_idx(labels_path, 1)[:, 0], labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    return Dataset(
        features=_features(images, UNIT_SAMPLE),
        labels=labels,
        source=str(images_path),
    )


def load_mnist(path=None, split: str = "train") -> Dataset:
    """IDX files under ``path`` (a directory, or the env default directory)."""
    base = _resolve(path, "MNIST")
    if base.is_file():
        raise DataFormatError("load_mnist expects a directory of IDX files")
    if split not in _MNIST_FILES:
        raise ValueError("split must be 'train' or 'test'")
    img_name, lab_name = _MNIST_FILES[split]
    candidates = [(base / img_name, base / lab_name),
                  (base / (img_name + ".gz"), base / (lab_name + ".gz"))]
    for img, lab in candidates:
        if img.exists() and lab.exists():
            return load_idx_pair(img, lab)
    raise DataFormatError(f"MNIST {split} IDX files not found under {base}")


def load_cifar10(
    path=None, normalization: str = UNIT_SAMPLE, limit: int | None = None
) -> Dataset:
    """CIFAR-10 binary batches: one file, or every data_batch_*.bin under a
    directory.  Features come back as 32 x 32 x 3 images in [0, 1] when
    normalization is unit-pixel, flattened rows otherwise.  With ``limit``
    only the first ``limit`` records are converted, and batch files after
    the one that completes them are not read."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    target = _resolve(path, "CIFAR-10")
    if target.is_dir():
        files = sorted(target.glob("data_batch_*.bin")) or sorted(
            target.glob("*.bin")
        )
        if not files:
            raise DataFormatError(f"no CIFAR-10 batch files under {target}")
    else:
        files = [target]

    images, labels = [], []
    for f in files:
        raw = _read_bytes(f)
        if len(raw) % _CIFAR_RECORD != 0:
            raise DataFormatError(
                f"{f}: size {len(raw)} is not a multiple of {_CIFAR_RECORD}"
            )
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)[:limit]
        lab = _labels(arr[:, 0], f)
        # channel-major records: 1024 red, 1024 green, 1024 blue
        img = arr[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        images.append(img)
        labels.append(lab)
        if limit is not None:
            limit -= arr.shape[0]
            if limit == 0:
                break
    return Dataset(
        features=_features(np.concatenate(images), normalization),
        labels=np.concatenate(labels),
        source=";".join(str(f) for f in files[: len(images)]),
    )
