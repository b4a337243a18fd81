"""Binary tensor containers for weights (QSN1) and adversarial batches (QSA1).

Layout, all integers little-endian:
    magic (4 bytes) | version u32 | config text: len u32 + utf-8 bytes |
    tensor count u32 | per tensor: name len u32 + utf-8 name, rank u32,
    extents u32[rank], float64 payload (little-endian, row-major).

Round trips are byte-exact; readers fail with distinct errors for a wrong
magic, a truncated payload (naming the tensor), and shapes that disagree
with the embedded config. A tensor named twice, or one its reader does not
take, is a ShapeMismatchError that names it, and bytes past the last
declared tensor are a DataError. A weight file holds
Model.tensors(); the batch type, AdversarialBatch, is defined in attacks
and re-exported here.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .attacks import AdversarialBatch, AttackSpec
from .errors import BadConfigError, BadMagicError, DataError, ShapeMismatchError, TruncatedFileError
from .model import Model, ModelConfig, build_model

WEIGHTS_MAGIC = b"QSN1"
ADVERSARIAL_MAGIC = b"QSA1"
FORMAT_VERSION = 1


def write_container(path, magic: bytes, config_text: str, tensors: dict) -> None:
    parts = [magic, struct.pack("<I", FORMAT_VERSION)]
    text = config_text.encode("utf-8")
    parts.append(struct.pack("<I", len(text)))
    parts.append(text)
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    # write a sibling temp file and rename it over path, so a run killed
    # mid-write never leaves a truncated container there
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:  # a failed write or rename leaves no temp file either
        os.remove(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, nbytes: int, what: str) -> bytes:
        if self.pos + nbytes > len(self.data):
            raise TruncatedFileError(f"{self.path}: truncated file while reading {what}")
        chunk = self.data[self.pos:self.pos + nbytes]
        self.pos += nbytes
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, nbytes: int, what: str) -> str:
        raw = self.take(nbytes, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise BadConfigError(f"{self.path}: {what} is not valid UTF-8: {e}") from e


def read_container(path, expected_magic: bytes):
    """Returns (config_text, tensors dict) or raises a DataError.

    The tensors are read-only views of the file's bytes: each loader copies
    what it keeps (build_model copies a model's tensors).
    """
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, path)
    magic = r.take(4, "magic")
    if magic != expected_magic:
        raise BadMagicError(
            f"{path}: bad magic {magic!r}, expected {expected_magic!r}")
    version = r.u32("version")
    if version != FORMAT_VERSION:
        raise BadMagicError(f"{path}: unsupported format version {version}")
    text_len = r.u32("config length")
    config_text = r.text(text_len, "config text")
    count = r.u32("tensor count")
    tensors = {}
    for _ in range(count):
        name_len = r.u32("tensor name length")
        name = r.text(name_len, "tensor name")
        if name in tensors:
            raise ShapeMismatchError(f"{path}: tensor {name!r} appears twice")
        rank = r.u32(f"rank of tensor {name!r}")
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank, f"extents of tensor {name!r}"))
        nbytes = 8 * math.prod(shape)  # Python ints: an int64 product can wrap to 0
        payload = r.take(nbytes, f"payload of tensor {name!r}")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError as e:  # a zero extent next to ones too large for numpy to index
            raise ShapeMismatchError(f"{path}: tensor {name!r} has unusable extents {shape}") from e
    if r.pos != len(data):
        raise DataError(f"{path}: {len(data) - r.pos} bytes past the last tensor")
    return config_text, tensors


# ---------------------------------------------------------------------------
# Model weights
# ---------------------------------------------------------------------------

def save_weights(model: Model, path) -> None:
    """Persist parameters, quantizer state, and the config echo."""
    write_container(path, WEIGHTS_MAGIC, model.config.canonical_text(), model.tensors())


def load_weights(path) -> Model:
    """Rebuild a model from a QSN1 file's config and tensors; bit-exact round trip.

    build_model checks the tensors against the config; every DataError names the path.
    """
    config_text, tensors = read_container(path, WEIGHTS_MAGIC)
    try:
        config = ModelConfig.from_canonical_text(config_text)
    except (ValueError, TypeError) as e:  # BadConfigError and JSONDecodeError are ValueErrors
        raise BadConfigError(f"{path}: invalid model config: {e!r}") from e
    try:
        return build_model(config, tensors)
    except DataError as e:
        raise type(e)(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Adversarial batches
# ---------------------------------------------------------------------------

def save_adversarial_batch(batch: AdversarialBatch, path) -> None:
    tensors = {
        "originals": batch.originals,
        "perturbed": batch.perturbed,
        "labels": np.asarray(batch.labels, dtype=np.float64),
    }
    text = json.dumps(batch.spec.to_dict(), sort_keys=True, separators=(",", ":"))
    write_container(path, ADVERSARIAL_MAGIC, text, tensors)


def load_adversarial_batch(path) -> AdversarialBatch:
    """Read a QSA1 file; its spec echo is rebuilt as an AttackSpec."""
    config_text, tensors = read_container(path, ADVERSARIAL_MAGIC)
    names = ("originals", "perturbed", "labels")
    for key in names:
        if key not in tensors:
            raise ShapeMismatchError(f"{path}: missing tensor {key!r}")
    for key in tensors:
        if key not in names:
            raise ShapeMismatchError(f"{path}: unexpected tensor {key!r}")
    labels = tensors["labels"]
    if labels.ndim != 1 or tensors["originals"].ndim == 0:
        raise ShapeMismatchError(f"{path}: labels must be a vector and originals a batch")
    # NaN fails every comparison; the bound keeps the int64 cast exact
    if not np.all((labels >= 0) & (labels < 2.0 ** 63) & (labels == np.floor(labels))):
        raise BadConfigError(f"{path}: labels must be finite non-negative integers")
    for key in ("originals", "perturbed"):  # NaN fails the range test too
        if not np.all((tensors[key] >= 0.0) & (tensors[key] <= 1.0)):
            raise BadConfigError(f"{path}: {key} must hold finite pixels in [0, 1]")
    try:
        spec = AttackSpec(**json.loads(config_text))
    # ValueError: not JSON, or a bad value; TypeError: not an object, no kind, an unknown key
    except (ValueError, TypeError) as e:
        raise BadConfigError(f"{path}: invalid attack spec: {e}") from e
    return AdversarialBatch(
        originals=np.array(tensors["originals"]),
        perturbed=np.array(tensors["perturbed"]),
        labels=labels.astype(np.int64),
        spec=spec,
    )
