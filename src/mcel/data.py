"""Dataset ingestion, synthetic blob generation, label-noise injection,
splitting and standardization.

Datasets are immutable value objects: an n x d float64 feature matrix plus
integer labels in [0, k). All randomness flows through explicit seeds.
"""

import csv
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, DimensionError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # n x d, float64
    labels: np.ndarray  # n, int
    k: int
    feature_names: tuple = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        if feats.ndim != 2 or min(feats.shape) < 1:
            raise DimensionError(f"features must be n x d with n, d >= 1, got {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise DimensionError("labels length must match feature rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if self.k < 1 or labs.min() < 0 or labs.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


def check_pairs(pairs, k=None):
    """Pairs of two distinct classes, no class in two pairs, and, given k,
    every class in [0, k)."""
    seen = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"pair ({a},{b}) repeats a class")
        for c in (a, b):
            if c in seen:
                raise ValueError(f"class {c} appears in more than one pair")
            seen.add(c)
        if k is not None and not (0 <= a < k and 0 <= b < k):
            raise ValueError(f"pair ({a},{b}) references a class outside [0,{k})")


def check_noise_fractions(fractions):
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"noise fraction {fraction} outside [0, 1]")


def load_csv(path, label_column):
    """Load a labeled dataset from a headered UTF-8 CSV file, which may
    start with a byte-order mark.

    Feature columns parse as finite float64. String labels map to indices
    in first-appearance order; the mapping is returned alongside the
    dataset. numpy's C reader parses a clean file and words no fault: any
    other file is read again by the csv module, which names the earliest
    fault at its physical line.
    """
    try:
        names, features, labels, mapping = _loadtxt_rows(path, label_column)
    except (ValueError, UserWarning, csv.Error):  # DataFormatError, UnicodeDecodeError too
        names, features, labels, mapping = _csv_module_rows(path, label_column)
    return LabeledDataset(features, labels, len(mapping), names), mapping


def _header(reader, path, label_column):
    """The label column's index and the feature names of a CSV header."""
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    if label_column not in header:
        raise DataFormatError(f"{path}: no column named {label_column!r} in header")
    label_idx = header.index(label_column)
    names = tuple(header[:label_idx] + header[label_idx + 1:])
    if not names:
        raise DataFormatError(f"{path}: no feature column besides {label_column!r}")
    return label_idx, names


def _loadtxt_rows(path, label_column):
    """Feature names, features, labels and mapping through np.loadtxt; a ValueError,
    or a UserWarning for no rows, at a fault or where it may read apart from the csv module."""
    mapping = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        label_idx, names = _header(csv.reader(fh), path, label_column)

        def lines():
            # loadtxt skips an empty line (the csv module reads a 0-cell row)
            # and strips \x1c-\x1f around a number (float does not)
            for line in fh:
                if (line in ("\n", "\r\n", "\r") or "\x1c" in line or "\x1d" in line
                        or "\x1e" in line or "\x1f" in line):
                    raise ValueError("a line loadtxt and the csv module read apart")
                yield line

        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                lines(), delimiter=",", quotechar='"', comments=None, ndmin=2,
                converters={label_idx: lambda label: mapping.setdefault(label, len(mapping))})
    if table.shape[1] != len(names) + 1 or not np.isfinite(table).all():
        raise ValueError("a cell count or value the csv module words")
    return names, np.delete(table, label_idx, axis=1), table[:, label_idx], mapping


def _csv_module_rows(path, label_column):
    """Feature names, features, labels and mapping through the csv module."""
    rows, labels, mapping = [], [], {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            label_idx, names = _header(reader, path, label_column)
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if len(row) != len(names) + 1:
                    raise DataFormatError(
                        f"{where}: expected {len(names) + 1} cells, got {len(row)}")
                labels.append(mapping.setdefault(row.pop(label_idx), len(mapping)))
                rows.append([])
                for name, cell in zip(names, row):
                    try:
                        rows[-1].append(float(cell))
                    except ValueError:
                        raise DataFormatError(
                            f"{where}: non-numeric value {cell!r} in column {name!r}") from None
                    if not math.isfinite(rows[-1][-1]):
                        raise DataFormatError(
                            f"{where}: non-finite value {rows[-1][-1]!r} in column {name!r}")
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # the decoder reads ahead, so find the line again
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(
                        f"{path}: line {lineno}, byte {exc.start + 1}: not UTF-8"
                    ) from None
        raise
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return names, np.array(rows), labels, mapping


def _read_exact(fh, size, nbytes, path, what):
    """Read nbytes, checking first against the bytes left in the file."""
    left = size - fh.tell()
    if nbytes > left:
        raise DataFormatError(
            f"{path}: truncated at offset {fh.tell()}: {what} needs {nbytes} bytes, {left} left"
        )
    return fh.read(nbytes)


def _read_idx(path, magic, kind, ndims):
    """The header sizes and the body of one IDX file. The body's declared
    size is bounded by the file size before anything is read, and bytes
    past the body are rejected."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = _read_exact(fh, size, 4 * (1 + ndims), path, f"{kind} header")
        got, *dims = struct.unpack(f">{1 + ndims}I", head)
        if got != magic:
            raise DataFormatError(f"{path}: bad {kind} magic 0x{got:08x} at offset 0")
        if 0 in dims:
            raise DataFormatError(f"{path}: declares an empty {kind} set {dims}")
        body = _read_exact(fh, size, math.prod(dims), path, f"{kind} data")
        end = fh.tell()
    if end != size:
        raise DataFormatError(f"{path}: {size - end} bytes of trailing data at offset {end}")
    return dims, body


def load_idx(images_path, labels_path):
    """Load an MNIST-style big-endian IDX image/label file pair.

    Pixels scale to [0, 1]; each image flattens row-major into one feature row.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "image", 3)
    (lcount,), raw = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", 1)
    if lcount != count:
        raise DataFormatError(
            f"{labels_path}: label count {lcount} != image count {count}"
        )
    images = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)
    labels = np.frombuffer(raw, dtype=np.uint8).astype(int)
    # k is the largest label + 1, so every class below it needs a sample
    missing = np.flatnonzero(np.bincount(labels) == 0)
    if missing.size:
        raise DataFormatError(
            f"{labels_path}: no sample has label {int(missing[0])} "
            f"(labels run up to {int(labels.max())})"
        )
    return LabeledDataset(images.astype(float) / 255.0, labels, int(labels.max()) + 1)


def check_size(*dims):
    """A float64 array of shape dims must fit numpy's index range; the MemoryError names it."""
    if math.prod(dims) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"a {' x '.join(map(str, dims))} array is too large for numpy")


@np.errstate(over="ignore", invalid="ignore")  # LabeledDataset rejects what overflows
def gen_blobs(k, per_class, dim, centers=None, spread=1.0, seed=0):
    """Gaussian clusters, one per class, deterministic per seed.

    If centers is None they are drawn uniformly from [-5, 5]^dim using the
    same seed stream.
    """
    if k < 2 or per_class < 1 or dim < 1 or not 0 < spread < math.inf:  # NaN fails too
        raise ValueError("need k >= 2, per_class >= 1, dim >= 1, finite spread > 0")
    check_size(k * per_class, dim)
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = rng.uniform(-5.0, 5.0, size=(k, dim))
    else:
        centers = np.asarray(centers, dtype=float)
        if centers.shape != (k, dim):
            raise DimensionError(f"centers must be {k} x {dim}, got {centers.shape}")
    # one row-major draw gives the numbers of one draw per class, in class order
    labels = np.repeat(np.arange(k), per_class)
    feats = centers[labels] + spread * rng.standard_normal((k * per_class, dim))
    return LabeledDataset(feats, labels, k)


def inject_pairwise_noise(data, pairs, fraction, seed=0):
    """Swap a fraction of labels symmetrically within each designated pair.

    Features are untouched. Returns the noisy dataset and a boolean mask of
    flipped rows.
    """
    rng = np.random.default_rng(seed)
    labels = data.labels.copy()
    mask = np.zeros(data.n, dtype=bool)
    for a, b in pairs:
        for src, dst in ((a, b), (b, a)):
            idx = np.flatnonzero(data.labels == src)
            flip = rng.random(idx.shape[0]) < fraction
            labels[idx[flip]] = dst
            mask[idx[flip]] = True
    return replace(data, labels=labels), mask


def check_fractions(fractions):
    """The train, validation and test shares: three numbers >= 0 that sum
    to 1. Each test is written so that a NaN fails it."""
    if not (len(fractions) == 3 and all(f >= 0 for f in fractions)
            and abs(sum(fractions) - 1.0) <= 1e-9):
        shares = ",".join(map(str, fractions))
        raise ValueError(f"split fractions must be three numbers >= 0 that sum to 1, got {shares}")


def split(data, fractions, seed=0):
    """Seeded shuffle then contiguous slicing into train/val/test.

    A part receiving zero samples is an error. Every class must appear in
    the train part.
    """
    n_train = int(round(fractions[0] * data.n))
    n_val = int(round(fractions[1] * data.n))
    parts = np.split(np.random.default_rng(seed).permutation(data.n), [n_train, n_train + n_val])
    for i, idx in enumerate(parts):
        if idx.size == 0:
            raise ValueError(f"split part {i} received zero samples")
    present = np.bincount(data.labels[parts[0]], minlength=data.k)
    missing = np.flatnonzero(present == 0)
    if missing.size:
        raise ValueError(f"class {int(missing[0])} has no samples in the train split")
    return tuple(replace(data, features=data.features[idx], labels=data.labels[idx])
                 for idx in parts)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised
def standardize(train, *others):
    """Per-feature mean/std transform fitted on train only.

    Zero-variance features divide by 1 instead of 0. Returns the transformed
    datasets followed by (mean, std). A feature whose mean or squares
    overflow float64 has a non-finite std, which is an error.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(std))
    if bad.size:
        j = int(bad[0])
        column = repr(train.feature_names[j]) if train.feature_names else j
        raise DataFormatError(f"feature column {column}: the values overflow float64 "
                              "in the mean or standard deviation")
    std = np.where(std == 0.0, 1.0, std)
    out = [replace(ds, features=(ds.features - mean) / std) for ds in (train, *others)]
    return (*out, mean, std)
