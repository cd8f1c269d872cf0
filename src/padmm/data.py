"""Dataset loading, normalization, and partitioning across agents into stacked shards."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset operations."""


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors; labels are -1.0/+1.0, features are float64.

    features has shape (n, d), labels has shape (n,).  Labels are stored as
    floats so that the products with margins need no cast.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise DataError("features must be a nonempty (n, d) array")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must have one entry per sample")
        if not np.all(np.abs(self.labels) == 1.0):  # np.isin takes 2.5x as long per shard
            raise DataError("labels must be -1 or +1")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features must be finite")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def load_csv(path, label_column: str, positive_value: str) -> Dataset:
    """Load a numeric-feature CSV with a two-valued label column.

    Labels equal to `positive_value` map to +1, the other value to -1.
    No normalization is applied; see normalize().
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        feature_cols = [(j, name) for j, name in enumerate(header) if j != label_idx]

        rows = []
        raw_labels = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
            values = []
            for j, name in feature_cols:
                try:
                    values.append(float(row[j]))
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_num}, column {name!r}: "
                        f"cannot parse {row[j]!r} as a number"
                    ) from None
            rows.append(values)
            raw_labels.append(row[label_idx])

    if not rows:
        raise DataError(f"{path}: no data rows")
    distinct = set(raw_labels)
    if len(distinct) > 2:
        raise DataError(f"{path}: label column has {len(distinct)} distinct values, expected 2")
    if positive_value not in distinct:
        raise DataError(f"{path}: positive_value {positive_value!r} is not in label column "
                        f"{label_column!r}, which has {sorted(distinct)}")
    labels = np.where(np.asarray(raw_labels) == positive_value, 1, -1)
    return Dataset(np.asarray(rows, dtype=float), labels)


_FOLD = 64  # rows per wide row in column_max_abs and in normalize's _by_column divide
_CHUNK = 8192  # rows per draw in draw_blobs and per scratch array in normalize


def _rows(x: np.ndarray) -> np.ndarray:
    """(..., d) x as (samples, d); a view when x is C-contiguous (d may be 0)."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def column_max_abs(x: np.ndarray) -> np.ndarray:
    """np.abs(x) maximized over all samples of a (..., d) array, without an |x| copy.

    The max and the min reduce over rows _FOLD at a time, so their inner loops
    run over _FOLD * d entries rather than d; a column's max and min are exact
    in any order, and its max-abs is the larger of |max| and |min|.  x holds
    at least one sample.
    """
    rows = _rows(x)
    n, d = rows.shape
    k = n - n % _FOLD
    parts = [rows[k:]]
    if k:
        wide = rows[:k].reshape(k // _FOLD, _FOLD * d)
        parts += [wide.max(axis=0).reshape(_FOLD, d), wide.min(axis=0).reshape(_FOLD, d)]
    return np.abs(np.concatenate(parts)).max(axis=0)


def column_scales(x: np.ndarray) -> np.ndarray:
    """Per-column max-abs of a (..., d) array, used by normalize; all-zero columns give 1."""
    scales = column_max_abs(x)
    return np.where(scales > 0, scales, 1.0)


def _by_column(ufunc, rows: np.ndarray, wide: np.ndarray) -> None:
    """rows = ufunc(rows, v) in place, for C-contiguous (m, d) rows and wide = np.tile(v, _FOLD).

    Whole groups of _FOLD rows are read as one wide row each, so the inner
    loop runs over _FOLD * d entries rather than d; each entry still takes
    one operation with its column's v, so the bits are those of the broadcast.
    """
    k = len(rows) - len(rows) % _FOLD
    folded = rows[:k].reshape(k // _FOLD, wide.size)
    ufunc(folded, wide, out=folded)
    ufunc(rows[k:], wide[:rows.shape[1]], out=rows[k:])


def normalize(x: np.ndarray, scales: np.ndarray) -> None:
    """Divide each attribute by scales, then cap each sample's L2 norm at 1, in place.

    x is a C-contiguous (..., d) array.  Pass the training maxima
    (column_scales) to normalize held-out data the same way.  Each sample's
    entries are divided, squared and summed on their own, as np.linalg.norm
    does, so the bits do not depend on how the samples are stacked or chunked.
    The scales divide each chunk through _by_column's wide rows.  numpy's
    pairwise sum adds fewer than 8 entries left to right, so for d < 8 the
    squares are summed one column at a time in that order: np.add.reduce's
    bits without its d-long inner loops.
    """
    if not x.flags.c_contiguous:
        raise DataError("normalize works in place on a C-contiguous array")
    rows = _rows(x)
    d = rows.shape[1]
    wide = np.tile(scales, _FOLD)
    for start in range(0, rows.shape[0], _CHUNK):
        chunk = rows[start:start + _CHUNK]
        _by_column(np.divide, chunk, wide)
        if 0 < d < 8:
            sums = chunk[:, 0] * chunk[:, 0]
            for j in range(1, d):
                sums += chunk[:, j] * chunk[:, j]
        else:
            sums = np.add.reduce(chunk * chunk, axis=-1)
        chunk /= np.maximum(np.sqrt(sums), 1.0)[:, np.newaxis]  # dividing by 1.0 is exact


@dataclass(frozen=True)
class ShardBlock:
    """The equal-size shards of agents `rows`: features (k, m, d), each sample as y x.

    shard_blocks makes every block a (k, m, d) view of its rows of one
    C-contiguous buffer.  model.DataTerms is the one reader of the samples.
    """

    rows: np.ndarray
    features: np.ndarray

    @property
    def n_samples(self) -> int:  # k * m
        return self.features.shape[0] * self.features.shape[1]


def shard_order(n: int, n_agents: int, seed: int) -> tuple[np.ndarray, list]:
    """Positions 0..n-1 in shard order, and the blocks' layout as (agent rows, shard size).

    A seeded permutation deals the first n % n_agents agents m + 1 positions
    each and the others m, agent by agent; each shard's positions are sorted,
    so a shard keeps its samples in data order.  Each shard size is one block,
    the larger first.
    """
    if n_agents < 1 or n_agents > n:
        raise DataError(f"cannot split {n} samples across {n_agents} agents")
    order = np.random.default_rng(seed).permutation(n)
    m, r = divmod(n, n_agents)
    cut = r * (m + 1)
    order[:cut].reshape(r, m + 1).sort()
    order[cut:].reshape(n_agents - r, m).sort()
    layout = [(np.arange(r), m + 1), (np.arange(r, n_agents), m)]
    return order, [(rows, size) for rows, size in layout if len(rows)]


def shard_blocks(x: np.ndarray, layout) -> list[ShardBlock]:
    """The shard blocks of layout as (k, m, d) views of x's leading rows, in order."""
    blocks = []
    start = 0
    for rows, size in layout:
        stop = start + len(rows) * size
        blocks.append(ShardBlock(rows, x[start:stop].reshape(len(rows), size, x.shape[1])))
        start = stop
    return blocks


def blob_labels(n: int) -> np.ndarray:
    """The labels of draw_blobs' samples: +1 for the first n // 2, -1 for the rest."""
    n_pos = n // 2
    return np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])


def draw_blobs(x: np.ndarray, separation: float, seed: int, order=None) -> None:
    """Fill the C-contiguous (n, d) x with two Gaussian clusters, normalized with their own maxima.

    Cluster centers are `separation` apart; unit-variance isotropic noise;
    sample s has label blob_labels(n)[s].  Row j holds sample order[j]
    (default j).  The samples come from one Generator stream, _CHUNK rows
    per draw, shifted by one scalar offset (added to the positive samples,
    subtracted from the rest) and written straight to its samples' rows,
    each row as one item, so no second (n, d) array exists.  Chunked
    standard_normal draws are the bits of one rng.normal(size=(n, d)) draw,
    except that normal's 0.0 + z turns a drawn -0.0 into 0.0, which the
    offset also does unless separation is 0.  Column maxima do not depend on
    the row order, and normalize works row by row, so every row's bits are
    those of the identity order.
    """
    n, d = x.shape
    if n < 2 or d < 1:
        raise DataError("need n >= 2 and d >= 1")
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    offset = separation / (2.0 * np.sqrt(d))
    rows = np.arange(n)  # the row of each sample
    if order is not None:
        rows[order] = np.arange(n)
    item = np.dtype((np.void, x.itemsize * d))
    for start in range(0, n, _CHUNK):
        chunk = rng.standard_normal(size=(min(_CHUNK, n - start), d))
        pos = min(max(n_pos - start, 0), len(chunk))
        chunk[:pos] += offset
        chunk[pos:] -= offset
        np.put(x.view(item), rows[start:start + len(chunk)], chunk.view(item))
        del chunk  # before the next draw allocates its own
    del rows
    normalize(x, column_scales(x))

