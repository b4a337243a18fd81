"""Dataset ingestion: MNIST IDX files and CIFAR-10 binary batches.

Pixels come out as float64 in [0,1], images shaped (N,H,W,C). The data
root defaults to $QSN_DATA_DIR, with one subdirectory per dataset name.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import (
    BadConfigError,
    BadMagicError,
    CountMismatchError,
    DataError,
    TruncatedFileError,
    checked,
)

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 channel-planar pixels

DATA_DIR_ENV = "QSN_DATA_DIR"
SPLITS = ("train", "test")


@dataclass
class Dataset:
    images: np.ndarray
    labels: np.ndarray
    name: str
    split: str

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise CountMismatchError(
                f"{len(self.images)} images but {len(self.labels)} labels")
        if len(self.images) == 0:
            raise DataError("dataset is empty")

    def __len__(self):
        return len(self.images)

    def subset(self, n: int) -> "Dataset":
        """First n records (deterministic, no sampling); BadConfigError if n < 0."""
        n = checked("record count", n, Integral, lambda v: v >= 0, "non-negative")
        return Dataset(self.images[:n], self.labels[:n], self.name, self.split)


def _resolve_dir(data_dir, name: str, split: str) -> Path:
    """The dataset's directory; BadConfigError first if split is not one of SPLITS."""
    if split not in SPLITS:
        raise BadConfigError(f"split must be one of {SPLITS}, got {split!r}")
    if data_dir is not None:
        return Path(data_dir)
    root = os.environ.get(DATA_DIR_ENV)
    if root is None:
        raise DataError(
            f"no data directory given and ${DATA_DIR_ENV} is not set")
    return Path(root) / name


def _read_idx(path: Path, magic: int) -> np.ndarray:
    """An IDX file's uint8 payload in its header's shape; the magic's low byte is the rank."""
    data = path.read_bytes()
    if len(data) < 4:
        raise TruncatedFileError(f"{path}: header truncated")
    found = struct.unpack(">I", data[:4])[0]
    if found != magic:
        raise BadMagicError(f"{path}: bad magic {found}, expected {magic}")
    rank = magic & 0xFF  # 3 for images (count, rows, cols), 1 for labels (count,)
    header = 4 + 4 * rank
    if len(data) < header:
        raise TruncatedFileError(f"{path}: header truncated")
    # unsigned: a negative count would make frombuffer read the whole payload
    shape = struct.unpack(f">{rank}I", data[4:header])
    size = math.prod(shape)
    if size == 0:  # numpy cannot shape an empty array around huge extents
        raise DataError(f"{path}: header declares no records ({'x'.join(map(str, shape))})")
    if len(data) < header + size:
        raise TruncatedFileError(
            f"{path}: payload truncated ({len(data)} bytes, need {header + size})")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=header).reshape(shape)


def _read_idx_images(path: Path) -> np.ndarray:
    return _read_idx(path, IDX_IMAGE_MAGIC)[..., None].astype(np.float64) / 255.0


def _read_idx_labels(path: Path) -> np.ndarray:
    labels = _read_idx(path, IDX_LABEL_MAGIC).astype(np.int64)
    if labels.max() > 9:
        raise DataError(f"{path}: label {labels.max()} out of range 0..9")
    return labels


def load_mnist(data_dir=None, split: str = "train") -> Dataset:
    """Parse the standard big-endian IDX pair for one split."""
    d = _resolve_dir(data_dir, "mnist", split)
    prefix = "train" if split == "train" else "t10k"
    return Dataset(_read_idx_images(d / f"{prefix}-images-idx3-ubyte"),
                   _read_idx_labels(d / f"{prefix}-labels-idx1-ubyte"), "mnist", split)


def _cifar_batch(path: Path) -> bytes:
    data = path.read_bytes()
    if len(data) % CIFAR_RECORD_BYTES != 0:
        raise TruncatedFileError(
            f"{path}: length {len(data)} is not a multiple of {CIFAR_RECORD_BYTES}")
    return data


def load_cifar10(data_dir=None, split: str = "train") -> Dataset:
    """Parse CIFAR-10 binary batches: per record 1 label byte + 3072 planar pixels."""
    d = _resolve_dir(data_dir, "cifar10", split)
    if split == "train":
        files = sorted(d.glob("data_batch_*.bin"))
    else:
        files = [d / "test_batch.bin"]
    if not files or not all(f.exists() for f in files):
        raise DataError(f"{d}: no CIFAR-10 batch files for split {split!r}")
    # join the raw records first, so the float64 images are built once, not concatenated
    records = np.frombuffer(b"".join(_cifar_batch(f) for f in files), dtype=np.uint8)
    records = records.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise DataError(f"{d}: label {labels.max()} out of range 0..9")
    planar = records[:, 1:].reshape(-1, 3, 32, 32)
    images = planar.transpose(0, 2, 3, 1).astype(np.float64)
    images /= 255.0
    return Dataset(images, labels, "cifar10", split)
