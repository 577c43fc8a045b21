"""Dataset containers, the GML text format, masking and splitting.

Conventions used throughout the package:
  * features are stored column-wise (one instance per column),
  * label matrices hold -1 / 0 / +1 where 0 means "not observed",
  * label and feature indices are 1-based in files, 0-based in memory,
  * lines starting with '#' in any of our text formats are comments.

All containers are frozen and their arrays are marked read-only, so they
can be shared freely; masking and splitting return new objects.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .textio import _BATCH, comment_lines, line_batches


class GmlFormatError(ValueError):
    """Raised when GML text does not conform to the format."""


def _frozen_array(values, dtype):
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def round_half_away(x):
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Dense d x n feature matrix, one instance per column."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, np.float64)
        if vals.ndim != 2:
            raise ValueError("feature matrix must be 2-D (d x n)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def d(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """Dense l x n label matrix with entries in {-1, 0, +1}.

    A zero entry means the label is unobserved.  The observation
    indicator is derived from the values, so the two can never drift
    apart.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, np.int8)
        if vals.ndim != 2:
            raise ValueError("label matrix must be 2-D (l x n)")
        if vals.shape[0] < 2:
            raise ValueError("label matrix needs at least 2 labels")
        if not np.isin(vals, (-1, 0, 1)).all():
            raise ValueError("label entries must be -1, 0 or +1")
        object.__setattr__(self, "values", vals)

    @property
    def l(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def indicator(self):
        """0/1 observation mask as float64 (1 where a label is observed)."""
        return (self.values != 0).astype(np.float64)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Features plus labels over the same instances."""

    features: FeatureMatrix
    labels: LabelMatrix

    def __post_init__(self):
        if self.features.n != self.labels.n:
            raise ValueError(
                "feature and label instance counts differ: "
                f"{self.features.n} vs {self.labels.n}"
            )

    @property
    def n(self):
        return self.features.n

    @property
    def d(self):
        return self.features.d

    @property
    def l(self):
        return self.labels.l


@dataclass(frozen=True)
class MaskSpec:
    """Masking request: keep rho percent of label positions observed."""

    rho: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.rho <= 100.0:
            raise ValueError(f"rho must lie in [0, 100], got {self.rho}")


def _fail(line_no, message):
    raise GmlFormatError(f"line {line_no}: {message}")


# bytes that translate() deletes, leaving only the ' ' and ':' separators
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b" :")


def _check_index(tok, limit, line_no, seen, kind):
    try:
        idx = int(tok)
    except ValueError:
        _fail(line_no, f"bad {kind} index {tok!r}")
    if not 1 <= idx <= limit:
        _fail(line_no, f"{kind} index {idx} out of range 1..{limit}")
    if idx in seen:
        _fail(line_no, f"duplicate {kind} index {idx}")
    seen.add(idx)


def _check_line(line_no, raw, l, d):
    """Raise the error for the first fault of one instance line, if any.

    Reads the line one token at a time, in format order, so the message
    names the first offending token.
    """
    fields = raw.split("|")
    if len(fields) != 3:
        _fail(line_no, "expected 3 '|'-separated fields")
    pos_f, neg_f, feat_f = fields
    if not pos_f.startswith("+:") or not neg_f.startswith("-:"):
        _fail(line_no, "label fields must start with '+:' and '-:'")
    seen = set()
    for csv in (pos_f[2:], neg_f[2:]):
        for tok in csv.split(",") if csv else ():
            _check_index(tok, l, line_no, seen, "label")
    seen = set()
    for tok in feat_f.split():
        idx, colon, val = tok.partition(":")
        if not colon:
            _fail(line_no, f"bad feature token {tok!r}")
        _check_index(idx, d, line_no, seen, "feature")
        try:
            value = float(val)
        except ValueError:
            _fail(line_no, f"non-numeric feature value {val!r}")
        if not math.isfinite(value):
            _fail(line_no, f"non-finite feature value {val!r}")


def _require_count(n, found):
    if found != n:
        raise GmlFormatError(f"expected {n} instance lines, found {found}")


def _reject(rows, rest, first, n, l, d):
    """Raise the error for instance lines the batch decoder rejected.

    `rows` are the (line_no, line) pairs of the batch, the bad one among
    them, `first` the count of instance lines decoded before it and
    `rest` the ones not yet read.  A wrong line count outranks any
    line's fault, so the rest are counted first.  Then the rows are
    checked one at a time, in file order, so the error names the first
    bad line whichever batch check caught it.
    """
    _require_count(n, first + len(rows) + sum(1 for _ in rest))
    for line_no, raw in rows:
        _check_line(line_no, raw, l, d)
    raise GmlFormatError("malformed instance lines")


def _decode_batch(first, counts, pos_t, neg_t, fid_t, val_t, X, Y):
    """Convert one batch of instance tokens and write it into X and Y.

    The token lists hold the batch's positive label, negative label,
    feature index and feature value strings, `counts` (positives,
    negatives, features) of each line in turn, and `first` is the column
    of its first line.  Each kind is converted with one numpy call.
    Returns False when a token is not a number, an index is out of
    range, a value is not finite or a line repeats a feature or label
    index; the batch's columns may then be part written.
    """
    try:
        pos = np.array(pos_t, dtype=np.int64)
        neg = np.array(neg_t, dtype=np.int64)
        fid = np.array(fid_t, dtype=np.int64)
        val = np.array(val_t, dtype=np.float64)
    except (ValueError, OverflowError):
        return False
    for ids, limit in ((pos, Y.shape[0]), (neg, Y.shape[0]), (fid, X.shape[0])):
        if ids.size and (ids.min() < 1 or ids.max() > limit):
            return False
    if not np.isfinite(val).all():
        return False
    last = first + len(counts) // 3
    cols = np.arange(first, last)
    per_line = np.array(counts, dtype=np.int64).reshape(-1, 3)
    fcols = np.repeat(cols, per_line[:, 2])
    # a line can repeat a feature index only where its indices stop
    # rising, which save_gml's never do; only other lines pay for a sort
    if ((fcols[1:] == fcols[:-1]) & (fid[1:] <= fid[:-1])).any():
        if not np.diff(np.sort(fcols * X.shape[0] + fid)).all():
            return False
    Y[pos - 1, np.repeat(cols, per_line[:, 0])] = 1
    Y[neg - 1, np.repeat(cols, per_line[:, 1])] = -1
    X[fid - 1, fcols] = val
    # fewer labels set than listed: a line repeats a label index
    return np.count_nonzero(Y[:, first:last]) == pos.size + neg.size


def _decode_gml(lines):
    """The Dataset of GML lines, read once, in order (see parse_gml)."""
    numbered = ((no, raw) for no, raw in enumerate(lines, start=1) if not raw.startswith("#"))
    header_line, header = next(numbered, (0, None))
    if header is None:
        raise GmlFormatError("line 1: missing header")

    parts = header.split()
    if len(parts) != 3:
        _fail(header_line, f"malformed header {header!r}, expected 'n d l'")
    try:
        n, d, l = (int(p) for p in parts)
    except ValueError:
        _fail(header_line, f"malformed header {header!r}, expected 'n d l'")
    if n < 1 or d < 1 or l < 2:
        _fail(header_line, f"bad dimensions n={n} d={d} l={l} (need n>=1, d>=1, l>=2)")

    try:
        X = np.zeros((d, n), dtype=np.float64)
        Y = np.zeros((l, n), dtype=np.int8)
    except ValueError:  # numpy cannot even describe an array that large
        _require_count(n, sum(1 for _ in numbered))
        _fail(header_line, f"dimensions n={n} d={d} l={l} are too large")
    except MemoryError:  # a wrong line count is still the error to report
        _require_count(n, sum(1 for _ in numbered))
        raise
    first = 0  # column of the batch's first line
    rows = []  # (line_no, line) of the batch, kept to name a bad one
    pos_t, neg_t, fid_t, val_t, counts = [], [], [], [], []
    for line_no, raw in numbered:
        if first + len(rows) == n:  # one line more than the header says
            _require_count(n, n + 1 + sum(1 for _ in numbered))
        rows.append((line_no, raw))
        fields = raw.split("|")
        if len(fields) != 3:
            _reject(rows, numbered, first, n, l, d)
        pos_f, neg_f, feat_f = fields
        if not pos_f.startswith("+:") or not neg_f.startswith("-:"):
            _reject(rows, numbered, first, n, l, d)
        pos = pos_f[2:].split(",") if len(pos_f) > 2 else []
        neg = neg_f[2:].split(",") if len(neg_f) > 2 else []
        feats = feat_f.split()
        m = len(feats)
        joined = " ".join(feats)
        # the separators alternate ':' and ' ': one colon in every token
        separators = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
        if separators != (b": " * m)[:-1]:
            _reject(rows, numbered, first, n, l, d)
        parts = joined.replace(":", " ").split()
        if len(parts) != 2 * m:  # an empty index or value
            _reject(rows, numbered, first, n, l, d)
        pos_t += pos
        neg_t += neg
        fid_t += parts[0::2]
        val_t += parts[1::2]
        counts += (len(pos), len(neg), m)
        if len(pos_t) + len(neg_t) + 2 * len(fid_t) >= _BATCH or first + len(rows) == n:
            if not _decode_batch(first, counts, pos_t, neg_t, fid_t, val_t, X, Y):
                _reject(rows, numbered, first, n, l, d)
            first += len(rows)
            rows = []
            pos_t, neg_t, fid_t, val_t, counts = [], [], [], [], []
    _require_count(n, first + len(rows))

    return Dataset(FeatureMatrix(X), LabelMatrix(Y))


def parse_gml(text):
    """Parse GML text held in a string into a Dataset.

    The CLI reads GML files with load_gml; this text form is kept for
    bench/run.py, which checks the data it wrote by reading its text,
    and for the optional real-data acceptance test.  Both run the same
    decoder.

    Format: a header line "n d l", then one line per instance of the
    form "+:<csv>|-:<csv>|<idx:value pairs>".  Indices are 1-based.
    Lines starting with '#' are comments and are skipped.  Indices are
    read as int() reads them and values as float() does.

    The lines are decoded in one pass, in order, holding one batch of
    them.  Per line, only strings are split and the field and separator
    layout is checked.  Per batch of about textio._BATCH tokens, the
    indices and values are converted with one numpy call per kind,
    range- and finite-checked, checked for feature indices a line
    repeats, and written into X and Y; repeated label indices are found
    by counting: fewer labels set in the batch's columns of Y than
    listed.  On any fault the rest of the lines are counted, since a
    wrong instance line count is the error to report, and then the
    batch's lines are read again one token at a time, in order, to name
    the first bad one.

    Args:
        text: full file contents as a string.

    Returns:
        Dataset with float64 features and int8 labels.

    Raises:
        GmlFormatError: on any malformed line, with its line number.
    """
    return _decode_gml(text.splitlines())


def load_gml(path):
    """Read a GML file into a Dataset, as parse_gml reads its text.

    The file is read in batches of lines (textio.line_batches), so what
    it holds besides the arrays is one batch, never the file's text.

    Args:
        path: path, or text file object read from where it stands.
    """
    return _decode_gml(chain.from_iterable(line_batches(path)))


def _feature_field(x):
    """One instance's GML feature field: 'idx:value' for every nonzero."""
    fid = np.flatnonzero(x)
    pairs = [None] * (2 * fid.size)
    pairs[0::2] = (fid + 1).tolist()
    pairs[1::2] = x[fid].tolist()
    return " ".join(["%d:%r"] * fid.size) % tuple(pairs)


def save_gml(files, comments=()):
    """Write datasets sharing one FeatureMatrix to GML files, in one pass.

    Feature values are printed with full round-trip precision, so
    load_gml reproduces each dataset exactly; only nonzero features are
    written.  The lines are made as they are written, one instance at a
    time, so no file's text is held.  Each instance's feature field is
    formatted once for every file: the full and partly observed copies
    of a dataset cost one formatting pass.  The datasets and comments
    are checked before any file is opened.

    Args:
        files: map from path to Dataset.  Where two paths name one file,
            it gets the later dataset, as writing them in turn would.
        comments: optional strings emitted as leading '#' lines.
    """
    datasets = list(files.values())
    features = datasets[0].features
    if any(data.features is not features for data in datasets):
        raise ValueError("datasets written together must share one FeatureMatrix")
    head = comment_lines(comments)
    with contextlib.ExitStack() as stack:
        sinks = {}  # file identity -> (dataset, stream)
        for path, data in files.items():
            stream = stack.enter_context(open(path, "w", encoding="utf-8"))
            stat = os.fstat(stream.fileno())
            sinks[stat.st_dev, stat.st_ino] = (data, stream)
        for data, stream in sinks.values():
            for line in [*head, f"{data.n} {data.d} {data.l}"]:
                stream.write(line + "\n")
        for col, x in enumerate(features.values.T):
            feats = _feature_field(x)
            for data, stream in sinks.values():
                y = data.labels.values[:, col]
                pos = ",".join(map(str, (np.flatnonzero(y == 1) + 1).tolist()))
                neg = ",".join(map(str, (np.flatnonzero(y == -1) + 1).tolist()))
                stream.write(f"+:{pos}|-:{neg}|{feats}\n")


def apply_mask(data, spec):
    """Hide label entries, keeping rho percent of positions observed.

    Samples round(rho/100 * l*n) positions uniformly without
    replacement; every other position is zeroed.  For a fully observed
    input exactly that many positions remain observed.  Positions that
    were already zero stay zero, kept or not.

    Args:
        data: Dataset to mask.
        spec: MaskSpec with rho percentage and RNG seed.

    Returns:
        (masked Dataset, hidden entries) where hidden entries is an
        (m, 3) int64 array with one (label_idx, instance_idx, value) row
        for every observation that was zeroed, 0-based, sorted by label
        then instance.
    """
    l, n = data.l, data.n
    total = l * n
    keep = round_half_away(spec.rho / 100.0 * total)
    rng = np.random.default_rng(spec.seed)
    kept = rng.choice(total, size=keep, replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[kept] = True
    mask = mask.reshape(l, n)

    Y = data.labels.values
    masked = np.where(mask, Y, 0).astype(np.int8)
    # argwhere lists positions in row-major order: by label, then instance
    pos = np.argwhere((Y != 0) & ~mask)
    hidden = np.column_stack((pos, Y[pos[:, 0], pos[:, 1]])).astype(np.int64)
    return Dataset(data.features, LabelMatrix(masked)), hidden


def take_instances(data, indices):
    """New Dataset restricted to the given instance columns, in order."""
    idx = np.asarray(indices, dtype=int)
    return Dataset(
        FeatureMatrix(data.features.values[:, idx]),
        LabelMatrix(data.labels.values[:, idx]),
    )


def split(data, train_fraction, seed):
    """Disjoint train/test split over instances.

    The train side gets round(train_fraction * n) instances chosen by a
    seeded permutation; both sides keep ascending instance order.

    Args:
        data: Dataset to split.
        train_fraction: fraction of instances for the train side.
        seed: RNG seed.

    Returns:
        (train Dataset, test Dataset).

    Raises:
        ValueError: if train_fraction is not finite or either side
            would be empty.
    """
    if not math.isfinite(train_fraction):
        raise ValueError(f"train_fraction must be finite, got {train_fraction}")
    n = data.n
    # a fraction outside [0, 1] empties a side either way; clipping keeps
    # the product finite where, say, 1e308 * n would overflow
    n_train = round_half_away(min(max(train_fraction, 0.0), 1.0) * n)
    if n_train <= 0 or n_train >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty side for n={n}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return take_instances(data, train_idx), take_instances(data, test_idx)
