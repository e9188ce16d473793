"""Dataset handling: one sorted, columnar ``Samples`` record and its CSV IO,
z-scores (``NormStats``), windowing, splits, a planted synthetic generator,
the one JSON writer and the one function that opens a file for writing.

CSV schema (header order-insensitive, catalog order recommended)::

    ar_id,timestamp,TOTUSJZ,...,MEANGBZ,label

Timestamps are ISO-8601 UTC, labels are the literals ``P`` / ``N``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import compress

import numpy as np

from . import numerics
from .errors import InputError, SchemaError, StormlensError
from .features import FEATURE_NAMES, N_FEATURES, feature_index

LABELS = ("P", "N")

_META_COLUMNS = ("ar_id", "timestamp", "label")

# A character outside XML 1.0's Char production, which no SVG plot can hold,
# even escaped.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


@dataclass(frozen=True)
class Samples:
    """Labeled observations of the 12 features, one row per (ar_id, timestamp)
    key, sorted by key; rows out of key order or a repeated key are an input
    error. AR ``k`` (in sorted order) holds rows ``starts[k]:starts[k + 1]``.
    """

    ar_ids: tuple[str, ...]
    timestamps: tuple[datetime, ...]
    features: np.ndarray  # (n, 12) float64, physical units pre-normalization
    labels: np.ndarray  # (n,) int8, 1 = P
    starts: np.ndarray = field(init=False, repr=False)  # (n_ars + 1,) row offsets

    def __post_init__(self):
        keys = list(zip(self.ar_ids, self.timestamps))
        for a, b in zip(keys, keys[1:]):
            if b <= a:
                raise InputError(f"samples not in strictly increasing (ar_id, timestamp) "
                                 f"order at ({b[0]}, {b[1].isoformat()})")
        firsts = [i for i, (a, b) in enumerate(zip((None, *self.ar_ids), self.ar_ids)) if a != b]
        object.__setattr__(self, "starts", np.array(firsts + [len(keys)]))

    def __len__(self) -> int:
        return len(self.ar_ids)


def _sorted_samples(ar_ids, timestamps, features: np.ndarray, labels: np.ndarray,
                    lines=None) -> Samples:
    """The record of these rows, sorted by (ar_id, timestamp). Given the
    file line of each row, a repeated key is an input error at the earliest
    line that repeats an earlier one."""
    order = sorted(range(len(ar_ids)), key=lambda i: (ar_ids[i], timestamps[i]))
    if lines is not None:
        # the sort is stable, so each run of one key starts at its first line
        repeats = [j for i, j in zip(order, order[1:])
                   if ar_ids[i] == ar_ids[j] and timestamps[i] == timestamps[j]]
        if repeats:
            j = min(repeats)
            raise InputError(f"line {lines[j]}: duplicate (ar_id, timestamp) = "
                             f"({ar_ids[j]}, {timestamps[j].isoformat()})")
    return Samples(ar_ids=tuple(map(ar_ids.__getitem__, order)),
                   timestamps=tuple(map(timestamps.__getitem__, order)),
                   features=features[order], labels=labels[order])


@dataclass
class NormStats:
    """Per-feature z-score statistics with population (1/n) variance."""

    mean: np.ndarray
    std: np.ndarray  # constant features stored with std 1
    constant: np.ndarray  # bool mask of constant features

    @classmethod
    def fit(cls, rows) -> "NormStats":
        """Fit on rows (n, d), n >= 1. A constant column (all values equal,
        see ``numerics.constant_columns``) is stored with its value as mean
        and std 1, so that it maps to exactly 0. A feature whose mean or
        std overflows is an input error."""
        A = np.asarray(rows, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] == 0:
            raise InputError(f"expected a nonempty (n, d) matrix, got shape {A.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = A.mean(axis=0)
            var = ((A - mean) ** 2).mean(axis=0)
            std = np.sqrt(var)
            constant = numerics.constant_columns(A)
        stats = cls(mean=np.where(constant, A[0], mean),
                    std=np.where(constant, 1.0, std), constant=constant)
        finite = np.isfinite(stats.mean) & np.isfinite(stats.std)
        if not finite.all():
            name = FEATURE_NAMES[int(np.argmin(finite))]
            raise InputError(f"feature {name}: mean or standard deviation overflows; "
                             "values are too large to normalise")
        return stats

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Z-score ``values`` (last axis: features) in place and return them:
        a float64 array is overwritten, anything else is z-scored in a float64
        copy. Overflow is an input error, raised after the values are
        overwritten."""
        z = np.asarray(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            np.subtract(z, self.mean, out=z)
            np.divide(z, self.std, out=z)
        # both extremes are finite only when every value is (NaN reaches both)
        if not (math.isfinite(z.max(initial=0.0)) and math.isfinite(z.min(initial=0.0))):
            raise InputError("z-scored feature values overflow; they are too large "
                             "for the normalisation statistics")
        return z

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
            "constant": [bool(v) for v in self.constant],
        }

    @classmethod
    def from_dict(cls, d) -> "NormStats":
        """The inverse of :meth:`to_dict` for the 12 catalog features.

        A malformed field raises an InputError that names it as a model
        checkpoint stores it, under ``extra.norm_stats``.
        """

        def bad(field: str, problem: str) -> InputError:
            return InputError(f"field 'extra.{field}' {problem}")

        if type(d) is not dict:
            raise bad("norm_stats", "is not an object")
        for key in ("mean", "std", "constant"):
            value = d.get(key)
            if type(value) is not list or len(value) != N_FEATURES:
                raise bad(f"norm_stats.{key}", f"must be a list of {N_FEATURES} values")
            if key == "constant":
                if not all(type(v) is bool for v in value):
                    raise bad("norm_stats.constant", "must hold only true/false")
            # a float64 holds it (math.isfinite raises on a larger int)
            elif not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                         for v in value):
                raise bad(f"norm_stats.{key}", "must hold only finite numbers")
        if not all(v > 0 for v in d["std"]):
            raise bad("norm_stats.std", "must be positive")
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
            constant=np.asarray(d["constant"], dtype=bool),
        )


@dataclass
class SequenceSet:
    """Windowed per-AR time series.

    ``values[i]`` is a (T, 12) window whose label is the final sample's
    label (1 for P, 0 for N). Windows never span AR boundaries. ``windowize``
    copies the samples' values once; the model reads them after
    ``NormStats.apply`` has z-scored the whole array in place.
    """

    values: np.ndarray  # (n, T, 12)
    labels: np.ndarray  # (n,) int8, 1 = positive class
    ar_ids: tuple[str, ...]
    end_times: tuple[datetime, ...]
    n_dropped: int = 0

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def sample_ids(self) -> list[str]:
        """Stable window identifiers, ``<ar_id>:<end timestamp ISO>``."""
        return [f"{a}:{t.isoformat()}" for a, t in zip(self.ar_ids, self.end_times)]


def _parse_timestamp(text: str, line: int) -> datetime:
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(t)
    except ValueError:
        raise SchemaError(f"line {line}: invalid timestamp {text!r}") from None
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # e.g. 0001-01-01T00:00:00+01:00
        raise SchemaError(f"line {line}: timestamp {text!r} is out of range in UTC") from None


def _parse_cells(row: list[str], feature_cols: list[int], line: int) -> list[float]:
    """The feature cells of ``row`` parsed one by one, so that a non-numeric
    one is named with its column."""
    values = []
    for name, j in zip(FEATURE_NAMES, feature_cols):
        cell = row[j].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise SchemaError(
                f"line {line}: non-numeric value {cell!r} in column {name}"
            ) from None
    return values


def _read_samples(reader, path) -> Samples:
    """The samples of a CSV file's rows (see ``load_csv``)."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    expected = set(_META_COLUMNS) | set(FEATURE_NAMES)
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise SchemaError(f"duplicate column(s): {', '.join(dupes)}")
    for name in _META_COLUMNS + FEATURE_NAMES:
        if name not in header:
            raise SchemaError(f"missing column: {name}")
    unknown = [h for h in header if h not in expected]
    if unknown:
        raise SchemaError(f"unknown column(s): {', '.join(unknown)}")
    col = {name: header.index(name) for name in header}
    feature_cols = [col[name] for name in FEATURE_NAMES]

    ar_ids, timestamps = [], []
    features, labels = array("d"), array("b")  # 12 values per row; 1 = P
    lines = array("q")
    for line, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise SchemaError(
                f"line {line}: expected {len(header)} fields, got {len(row)}"
            )
        ar = row[col["ar_id"]].strip()
        if not ar:
            raise SchemaError(f"line {line}: empty ar_id")
        bad = _NOT_XML_CHAR.search(ar)
        if bad:
            raise SchemaError(f"line {line}: ar_id {ar!r} holds the character "
                              f"U+{ord(bad.group()):04X}, which XML cannot hold")
        ts = _parse_timestamp(row[col["timestamp"]], line)
        label = row[col["label"]].strip()
        if label not in LABELS:
            raise InputError(
                f"line {line}: invalid label {label!r}; allowed labels are "
                + ", ".join(LABELS)
            )
        try:
            values = [float(row[j]) for j in feature_cols]
        except ValueError:
            values = _parse_cells(row, feature_cols, line)
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"line {line}: non-finite feature value")
        ar_ids.append(ar)
        timestamps.append(ts)
        features.extend(values)
        labels.append(label == "P")
        lines.append(line)
    return _sorted_samples(ar_ids, timestamps,
                           np.frombuffer(features).reshape(-1, N_FEATURES),
                           np.frombuffer(labels, dtype=np.int8), lines)


def load_csv(path) -> Samples:
    """Load samples from a CSV file into one record, sorted by (ar_id, timestamp).

    Raises
    ------
    SchemaError
        Missing/unknown/duplicate columns, or malformed cells (reported
        with their line number), such as an ``ar_id`` with a character that
        XML 1.0 cannot hold (the plots write ids into SVG).
    InputError
        Missing, unreadable or non-UTF-8 file (a byte-order mark is
        skipped), bad labels, duplicated (ar_id, timestamp).
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            samples = _read_samples(csv.reader(fh), path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    return samples


def open_artifact(path):
    """``path`` opened for UTF-8 text with ``\n`` line ends; its directory is made if missing."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path, samples: Samples) -> None:
    """Write samples to CSV in catalog column order, one row at a time, quoting
    a cell only where ``load_csv`` needs it to read the cell back. The writer
    prints a float with ``str``, which is its shortest round-trip form."""
    with open_artifact(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("ar_id", "timestamp") + FEATURE_NAMES + ("label",))
        writer.writerows([ar, ts.isoformat(), *row.tolist(), "P" if label else "N"]
                         for ar, ts, row, label in zip(samples.ar_ids, samples.timestamps,
                                                       samples.features, samples.labels))


def dumps_json(obj, path=None) -> str:
    """``obj`` in the JSON form of every file the package writes: sorted
    keys, a two-space indent and a final newline, numpy arrays as lists.
    NaN and infinity, which JSON cannot hold, raise a StormlensError whose
    message starts with ``path``, the file the text is for, when given."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=np.ndarray.tolist) + "\n"
    except ValueError as exc:
        where = "" if path is None else f"{path}: "
        raise StormlensError(f"{where}cannot write as JSON: {exc}") from None


def write_json(path, obj) -> None:
    """Write ``dumps_json(obj, path)`` to ``path``. The text is built before
    the file is opened, so a value JSON cannot hold leaves no file."""
    text = dumps_json(obj, path)
    with open_artifact(path) as fh:
        fh.write(text)


def windowize(samples: Samples, window_length: int) -> SequenceSet:
    """Build one window per sample that has >= T-1 predecessors in its AR.

    Samples whose AR history is too short are dropped; the count is
    recorded on the returned set. A set that yields no window at all is an
    input error. The windows are gathered from ``samples.features`` at once.
    """
    T = int(window_length)
    if T < 1:
        raise InputError(f"window length must be >= 1, got {T}")
    starts = samples.starts
    # a row ends a window when at least T - 1 rows of its AR precede it
    position = np.arange(len(samples)) - np.repeat(starts[:-1], np.diff(starts))
    ends = np.flatnonzero(position >= T - 1)
    if ends.size == 0:
        raise InputError(f"windowing with T={T} left no windows: each of the "
                         f"{len(starts) - 1} ARs has fewer than {T} samples")
    rows = ends.tolist()
    return SequenceSet(
        values=samples.features[ends[:, None] + np.arange(1 - T, 1)],
        labels=samples.labels[ends],
        ar_ids=tuple(map(samples.ar_ids.__getitem__, rows)),
        end_times=tuple(map(samples.timestamps.__getitem__, rows)),
        n_dropped=len(samples) - ends.size,
    )


def split(samples: Samples, train_fraction: float, seed: int) -> tuple[Samples, Samples]:
    """Deterministic AR-level split: no AR appears in both halves."""
    frac = float(train_fraction)
    if not 0.0 < frac < 1.0:
        raise InputError(f"train fraction must be in (0, 1), got {frac}")
    n_ars = len(samples.starts) - 1
    if n_ars < 2:
        raise InputError("need at least 2 ARs to split at AR granularity")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    perm = rng.permutation(n_ars)
    n_train = int(round(frac * n_ars))
    n_train = min(max(n_train, 1), n_ars - 1)
    train_ar = np.zeros(n_ars, dtype=bool)
    train_ar[perm[:n_train]] = True
    in_train = np.repeat(train_ar, np.diff(samples.starts))
    return tuple(Samples(ar_ids=tuple(compress(samples.ar_ids, keep.tolist())),
                         timestamps=tuple(compress(samples.timestamps, keep.tolist())),
                         features=samples.features[keep], labels=samples.labels[keep])
                 for keep in (in_train, ~in_train))


@dataclass(frozen=True)
class PlantSpec:
    """Ground truth planted into synthetic data.

    One dominant feature drives the labels through its trailing-window
    trend; one partner feature is generated with a target correlation to
    the dominant one.
    """

    dominant: str = "TOTPOT"
    correlate: str = "SAVNCPP"
    rho: float = 0.95
    label_noise: float = 0.01
    trend_window: int = 10

    def validate(self) -> None:
        feature_index(self.dominant)
        feature_index(self.correlate)
        if self.dominant == self.correlate:
            raise InputError("dominant and correlate features must differ")
        if not np.isfinite(self.rho) or abs(self.rho) > 1.0:
            raise InputError(f"target correlation must satisfy |rho| <= 1, got {self.rho}")
        if not 0.0 <= self.label_noise <= 0.02:
            raise InputError(
                f"label noise must be in [0, 0.02], got {self.label_noise}"
            )


# Affine maps from the unit-scale latent processes to plausible physical
# magnitudes, keyed by feature name: value = offset + scale * latent.
_SYNTH_SCALES: dict[str, tuple[float, float]] = {
    "TOTUSJZ": (5.2e4, 1.8e4),
    "USFLUX": (3.1e5, 1.1e5),
    "TOTPOT": (7.4e3, 2.6e3),
    "SAVNCPP": (2.8e4, 9.5e3),
    "ABSNJZH": (310.0, 120.0),
    "MEANPOT": (5.9e3, 2.1e3),
    "MEANSHR": (33.0, 9.0),
    "SHRGT45": (28.0, 12.0),
    "MEANJZH": (0.9, 4.1),
    "MEANGAM": (41.0, 11.0),
    "MEANALP": (0.12, 0.31),
    "MEANGBZ": (52.0, 17.0),
}

_SYNTH_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def _smooth_walk(rng: np.random.Generator, length: int) -> np.ndarray:
    """Stationary AR(1) latent, unit marginal variance, coefficient 0.9."""
    w = np.empty(length)
    w[0] = rng.normal()
    innov = rng.normal(size=length - 1) * np.sqrt(1.0 - 0.9**2) if length > 1 else ()
    for t in range(1, length):
        w[t] = 0.9 * w[t - 1] + innov[t - 1]
    return w


def synth_generate(n_ars: int, samples_per_ar: int, seed: int, plant: PlantSpec) -> Samples:
    """Generate labeled synthetic samples with planted structure.

    Each AR follows smooth latent processes. The dominant feature carries a
    per-AR drift; a sample is labeled P when the logistic of the dominant
    feature's trailing-window trend exceeds 0.5, then labels are flipped
    with probability ``plant.label_noise``. The correlate feature is mixed
    from the standardized dominant signal to hit the target correlation.
    AR ``a`` (from 0) is ``AR{a + 1:04d}``; the record sorts ids as text, so
    from 10,000 ARs on ``AR10000`` comes before ``AR1001``.
    """
    plant.validate()
    if n_ars < 1 or samples_per_ar < 1:
        raise InputError("n_ars and samples_per_ar must be >= 1")
    L = int(samples_per_ar)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    dom = feature_index(plant.dominant)
    cor = feature_index(plant.correlate)
    others = [j for j in range(N_FEATURES) if j not in (dom, cor)]

    latent = np.zeros((n_ars, L, N_FEATURES))
    dominant = np.zeros((n_ars, L))
    labels = np.zeros((n_ars, L), dtype=bool)
    steps = np.arange(L)
    if plant.trend_window < 2:  # the trend is a difference of two steps
        raise InputError("trend window must be >= 2")
    lookback = np.maximum(0, steps - (plant.trend_window - 1))

    for a in range(n_ars):
        base = rng.normal()
        # drift magnitude bounded away from zero: every AR is decisively
        # rising or falling, so window labels are recoverable from content
        drift = (1.0 if rng.random() < 0.5 else -1.0) * (0.6 + 0.9 * rng.random())
        walk = _smooth_walk(rng, L)
        g = 0.05 * base + 3.0 * drift * ((steps + 1) / L) + 0.1 * walk
        dominant[a] = g
        trend = g - g[lookback] + rng.normal(0.0, 0.02, size=L)
        labels[a] = 1.0 / (1.0 + np.exp(-4.0 * trend)) > 0.5
        for j in others:
            level = rng.normal()
            wj = _smooth_walk(rng, L)
            latent[a, :, j] = 0.6 * level + 0.6 * wj + 0.15 * rng.normal(size=L)

    if plant.label_noise > 0:
        labels ^= rng.random(size=labels.shape) < plant.label_noise

    g_flat = dominant.reshape(-1)
    g_std = (g_flat - g_flat.mean()) / max(g_flat.std(), 1e-12)
    eta = rng.normal(size=g_flat.size)
    c_std = plant.rho * g_std + np.sqrt(max(0.0, 1.0 - plant.rho**2)) * eta
    latent[:, :, dom] = dominant
    latent[:, :, cor] = c_std.reshape(n_ars, L)

    offset, scale = np.array([_SYNTH_SCALES[name] for name in FEATURE_NAMES]).T
    return _sorted_samples(
        ar_ids=[ar for ar in (f"AR{a + 1:04d}" for a in range(n_ars)) for _ in range(L)],
        timestamps=[_SYNTH_EPOCH + timedelta(hours=i) for i in range(n_ars * L)],
        features=(offset + scale * latent).reshape(-1, N_FEATURES),
        labels=labels.reshape(-1).astype(np.int8),
    )
