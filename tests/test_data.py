import os
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qusecnets.data import Dataset, _read_idx_images, _read_idx_labels, load_cifar10, load_mnist
from qusecnets.errors import (
    BadConfigError,
    BadMagicError,
    CountMismatchError,
    DataError,
    TruncatedFileError,
)


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 2049, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


@pytest.fixture
def mnist_fixture_dir(tmp_path):
    rng = np.random.default_rng(0)
    train_images = rng.integers(0, 256, (3, 28, 28))
    test_images = rng.integers(0, 256, (2, 28, 28))
    write_idx_images(tmp_path / "train-images-idx3-ubyte", train_images)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", [1, 2, 3])
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", test_images)
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [7, 9])
    return tmp_path, train_images, test_images


def test_mnist_fixture_exact_pixels(mnist_fixture_dir):
    d, train_images, test_images = mnist_fixture_dir
    ds = load_mnist(d, split="test")
    assert ds.images.shape == (2, 28, 28, 1)
    npt.assert_array_equal(ds.images[..., 0], test_images / 255.0)
    npt.assert_array_equal(ds.labels, [7, 9])
    assert ds.name == "mnist" and ds.split == "test"


def test_mnist_image_magic_in_label_file(mnist_fixture_dir):
    d, _, _ = mnist_fixture_dir
    # label file claiming the image magic 2051
    with open(d / "train-labels-idx1-ubyte", "wb") as f:
        f.write(struct.pack(">ii", 2051, 3))
        f.write(bytes([1, 2, 3]))
    with pytest.raises(BadMagicError, match="bad magic"):
        load_mnist(d, split="train")


def test_mnist_label_magic_in_image_file(mnist_fixture_dir):
    d, train_images, _ = mnist_fixture_dir
    data = (d / "train-images-idx3-ubyte").read_bytes()
    (d / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">i", 2049) + data[4:])
    with pytest.raises(BadMagicError, match="bad magic"):
        load_mnist(d, split="train")


@pytest.mark.parametrize("read, magic", [
    (_read_idx_images, 2049), (_read_idx_images, 2050), (_read_idx_labels, 2051),
    (_read_idx_labels, 2050), (_read_idx_labels, 0x0C01),
], ids=["images-rank-1", "images-rank-2", "labels-rank-3", "labels-rank-2", "labels-type-byte"])
def test_idx_magic_of_another_rank_or_type(tmp_path, read, magic):
    path = tmp_path / "idx"
    path.write_bytes(struct.pack(">IIII", magic, 1, 1, 1) + bytes(4))
    with pytest.raises(BadMagicError, match=f"bad magic {magic}"):
        read(path)


@pytest.mark.parametrize("read", [_read_idx_images, _read_idx_labels], ids=["images", "labels"])
@pytest.mark.parametrize("data", [b"", b"\x00\x00\x08"], ids=["empty", "3-bytes"])
def test_idx_shorter_than_its_magic_is_truncated(tmp_path, read, data):
    path = tmp_path / "idx"
    path.write_bytes(data)
    with pytest.raises(TruncatedFileError, match="header truncated"):
        read(path)


@pytest.mark.parametrize("split", ["val", "Train", ""])
@pytest.mark.parametrize("load", [load_mnist, load_cifar10], ids=["mnist", "cifar10"])
def test_loaders_reject_an_unknown_split(tmp_path, load, split):
    """Checked before the disk: an empty directory would fail another way."""
    with pytest.raises(BadConfigError, match="split must be one of"):
        load(tmp_path, split=split)


def test_mnist_count_mismatch(mnist_fixture_dir):
    d, _, _ = mnist_fixture_dir
    write_idx_labels(d / "train-labels-idx1-ubyte", [1, 2])
    with pytest.raises(CountMismatchError):
        load_mnist(d, split="train")


def test_mnist_truncated_payload(mnist_fixture_dir):
    d, _, _ = mnist_fixture_dir
    p = d / "train-images-idx3-ubyte"
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(TruncatedFileError, match="truncated"):
        load_mnist(d, split="train")


def test_mnist_label_out_of_range(mnist_fixture_dir):
    d, _, _ = mnist_fixture_dir
    write_idx_labels(d / "t10k-labels-idx1-ubyte", [7, 10])
    with pytest.raises(DataError, match="out of range"):
        load_mnist(d, split="test")


@pytest.mark.parametrize("count, rows, cols", [(-1, 28, 28), (-3, 28, 28), (3, -1, -1)],
                         ids=["count-minus-1", "count-minus-3", "rows-cols-minus-1"])
def test_mnist_image_header_is_unsigned(mnist_fixture_dir, count, rows, cols):
    d, _, _ = mnist_fixture_dir
    p = d / "train-images-idx3-ubyte"
    p.write_bytes(struct.pack(">iiii", 2051, count, rows, cols) + p.read_bytes()[16:])
    with pytest.raises(TruncatedFileError, match="truncated"):
        load_mnist(d, split="train")


def test_mnist_label_header_is_unsigned(mnist_fixture_dir):
    d, _, _ = mnist_fixture_dir
    p = d / "train-labels-idx1-ubyte"
    p.write_bytes(struct.pack(">ii", 2049, -5) + p.read_bytes()[8:])
    with pytest.raises(TruncatedFileError, match="truncated"):
        load_mnist(d, split="train")


# ---------------------------------------------------------------------------
# fuzzing: any bytes after a valid magic parse as the header says, or raise DataError
# ---------------------------------------------------------------------------

HEADER_INT = st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))


def header_then_payload(fields):
    """Header fields (small or any u32), then a short payload."""
    return st.builds(lambda ints, payload: struct.pack(f">{fields}I", *ints) + payload,
                     st.tuples(*[HEADER_INT] * fields), st.binary(max_size=80))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "idx"


@settings(max_examples=200, deadline=None)
@given(tail=st.one_of(st.binary(max_size=80), header_then_payload(3)))
@example(tail=struct.pack(">iii", -1, 28, 28) + bytes(3 * 784))
@example(tail=struct.pack(">iii", -3, 28, 28) + bytes(3 * 784))
@example(tail=struct.pack(">iii", 3, -1, -1) + bytes(3 * 784))
@example(tail=struct.pack(">III", 0, 2 ** 30, 2 ** 30))
def test_fuzz_idx_images(fuzz_path, tail):
    fuzz_path.write_bytes(struct.pack(">I", 2051) + tail)
    try:
        images = _read_idx_images(fuzz_path)
    except DataError:
        return
    assert images.shape == struct.unpack(">III", tail[:12]) + (1,)


@settings(max_examples=200, deadline=None)
@given(tail=st.one_of(st.binary(max_size=80), header_then_payload(1)))
@example(tail=struct.pack(">i", -5) + bytes([1, 2, 3]))
def test_fuzz_idx_labels(fuzz_path, tail):
    fuzz_path.write_bytes(struct.pack(">I", 2049) + tail)
    try:
        labels = _read_idx_labels(fuzz_path)
    except DataError:
        return
    assert labels.shape == struct.unpack(">I", tail[:4])


def test_env_fallback(mnist_fixture_dir, monkeypatch, tmp_path_factory):
    d, _, _ = mnist_fixture_dir
    root = d.parent
    target = root / "mnist"
    if not target.exists():
        os.rename(d, target)
    monkeypatch.setenv("QSN_DATA_DIR", str(root))
    ds = load_mnist(split="test")
    assert len(ds) == 2


def test_no_dir_and_no_env(monkeypatch):
    monkeypatch.delenv("QSN_DATA_DIR", raising=False)
    with pytest.raises(DataError, match="QSN_DATA_DIR"):
        load_mnist()


@pytest.mark.skipif("QSN_DATA_DIR" not in os.environ,
                    reason="real MNIST not available")
def test_real_mnist_test_split():
    ds = load_mnist(split="test")
    assert len(ds) == 10000
    assert ds.images.shape == (10000, 28, 28, 1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.min() >= 0 and ds.labels.max() <= 9


# ---------------------------------------------------------------------------
# CIFAR-10
# ---------------------------------------------------------------------------

def cifar_record(label, pixels):
    """pixels: (32,32,3) uint8 -> channel-planar record bytes."""
    planar = pixels.transpose(2, 0, 1).reshape(-1)
    return bytes([label]) + planar.tobytes()


def test_cifar_single_record_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
    (tmp_path / "data_batch_1.bin").write_bytes(cifar_record(5, pixels))
    ds = load_cifar10(tmp_path, split="train")
    assert ds.images.shape == (1, 32, 32, 3)
    npt.assert_array_equal(ds.images[0], pixels / 255.0)
    assert ds.labels[0] == 5


def test_cifar_full_batch_count(tmp_path):
    rng = np.random.default_rng(2)
    records = rng.integers(0, 256, (10000, 3073)).astype(np.uint8)
    records[:, 0] = rng.integers(0, 10, 10000)
    (tmp_path / "test_batch.bin").write_bytes(records.tobytes())
    ds = load_cifar10(tmp_path, split="test")
    assert len(ds) == 10000
    assert ds.images.shape == (10000, 32, 32, 3)


def test_cifar_truncated_file(tmp_path):
    (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 3072)
    with pytest.raises(TruncatedFileError, match="multiple of 3073"):
        load_cifar10(tmp_path, split="train")


def test_cifar_missing_files(tmp_path):
    with pytest.raises(DataError, match="no CIFAR-10"):
        load_cifar10(tmp_path, split="test")


def test_cifar_multiple_train_batches_concatenate(tmp_path):
    rng = np.random.default_rng(3)
    for i in (1, 2):
        px = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
        (tmp_path / f"data_batch_{i}.bin").write_bytes(cifar_record(i, px))
    ds = load_cifar10(tmp_path, split="train")
    assert len(ds) == 2
    npt.assert_array_equal(ds.labels, [1, 2])


def test_cifar_multi_file_load_converts_once(tmp_path):
    """Peak traced memory stays near the float64 image array (one conversion, no concat copy)."""
    rng = np.random.default_rng(4)
    per_file = 200
    for i in (1, 2, 3, 4, 5):
        records = rng.integers(0, 256, (per_file, 3073)).astype(np.uint8)
        records[:, 0] = rng.integers(0, 10, per_file)
        (tmp_path / f"data_batch_{i}.bin").write_bytes(records.tobytes())
    tracemalloc.start()
    try:
        ds = load_cifar10(tmp_path, split="train")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.images.shape == (5 * per_file, 32, 32, 3)
    assert peak <= 1.3 * ds.images.nbytes


@st.composite
def cifar_batch_bytes(draw):
    """Whole records (labels any byte) cut short or extended by a few bytes, or raw bytes."""
    records = draw(st.integers(0, 2))
    labels = draw(st.lists(st.integers(0, 255), min_size=records, max_size=records))
    pixels = draw(st.binary(min_size=3072, max_size=3072))
    data = b"".join(bytes([label]) + pixels for label in labels)
    cut = draw(st.integers(0, 2))
    return data[:len(data) - cut] + draw(st.binary(max_size=2))


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=80), cifar_batch_bytes()))
@example(data=b"")
@example(data=bytes([10]) + bytes(3072))
def test_fuzz_cifar10(fuzz_path, data):
    (fuzz_path.parent / "test_batch.bin").write_bytes(data)
    try:
        ds = load_cifar10(fuzz_path.parent, split="test")
    except DataError:
        return
    assert ds.images.shape == (len(data) // 3073, 32, 32, 3)
    assert ds.labels.max() <= 9


# ---------------------------------------------------------------------------
# Dataset type
# ---------------------------------------------------------------------------

def test_dataset_subset_and_validation():
    images = np.zeros((4, 2, 2, 1))
    labels = np.array([0, 1, 2, 3])
    ds = Dataset(images, labels, "mnist", "train")
    assert len(ds.subset(2)) == 2
    with pytest.raises(CountMismatchError):
        Dataset(images, labels[:3], "mnist", "train")
    with pytest.raises(DataError):
        Dataset(images[:0], labels[:0], "mnist", "train")


@pytest.mark.parametrize("n", [-1, -3, -4, -5])
def test_subset_rejects_negative_count_as_bad_config(n):
    ds = Dataset(np.zeros((4, 2, 2, 1)), np.array([0, 1, 2, 3]), "mnist", "train")
    with pytest.raises(BadConfigError, match="count"):
        ds.subset(n)
