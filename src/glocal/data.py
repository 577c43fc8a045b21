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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .textio import comment_lines


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
    """Dense d x n feature matrix, one instance per column.

    The GML text of each instance's features is formatted once per
    matrix, on first use by write_gml, and kept with it: the values are
    read-only, so the text cannot go stale, and every dataset sharing
    the matrix reuses it.
    """

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

    @cached_property
    def _gml_fields(self):
        """Each instance's GML feature field: 'idx:value' for every nonzero."""
        fields = []
        for x in self.values.T:
            fid = np.flatnonzero(x)
            pairs = [None] * (2 * fid.size)
            pairs[0::2] = (fid + 1).tolist()
            pairs[1::2] = x[fid].tolist()
            fields.append(" ".join(["%d:%r"] * fid.size) % tuple(pairs))
        return fields


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


def _ints(csv):
    """Comma-separated integers, each read as int() reads it, as int64."""
    return np.array(csv.split(",") if csv else [], dtype=np.int64)


def _decode_instance(raw, x, y):
    """Write one instance line into its feature column x and label column y.

    Each field is converted with one numpy call.  Returns False, with x
    and y partly written, when the line breaks the format.
    """
    fields = raw.split("|")
    if len(fields) != 3:
        return False
    pos_f, neg_f, feat_f = fields
    if not pos_f.startswith("+:") or not neg_f.startswith("-:"):
        return False
    tokens = feat_f.split()
    m = len(tokens)
    joined = " ".join(tokens)
    # the separators alternate ':' and ' ': one colon in every token
    separators = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if separators != (b": " * m)[:-1]:
        return False
    parts = joined.replace(":", " ").split()
    if len(parts) != 2 * m:  # an empty index or value
        return False
    try:
        pos, neg = _ints(pos_f[2:]), _ints(neg_f[2:])
        fid = np.array(parts[0::2], dtype=np.int64)
        val = np.array(parts[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        return False
    lid = np.concatenate((pos, neg))
    for ids, limit in ((lid, y.size), (fid, x.size)):
        if ids.size and (ids.min() < 1 or ids.max() > limit):
            return False
    if not np.isfinite(val).all():
        return False
    y[pos - 1] = 1
    y[neg - 1] = -1
    hit = np.zeros(x.size, dtype=bool)
    hit[fid - 1] = True
    # fewer positions written than indices listed: an index repeats
    if np.count_nonzero(y) != lid.size or np.count_nonzero(hit) != fid.size:
        return False
    x[fid - 1] = val
    return True


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


def _reject(line_no, raw, l, d):
    """Raise the error for an instance line that _decode_instance rejected.

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
    _fail(line_no, "malformed instance line")


def parse_gml(text):
    """Parse GML text into a Dataset.

    Format: a header line "n d l", then one line per instance of the
    form "+:<csv>|-:<csv>|<idx:value pairs>".  Indices are 1-based.
    Lines starting with '#' are comments and are skipped.  Indices are
    read as int() reads them and values as float() does.

    Args:
        text: full file contents as a string.

    Returns:
        Dataset with float64 features and int8 labels.

    Raises:
        GmlFormatError: on any malformed line, with its line number.
    """
    header = None
    header_line = 0
    rows = []  # (line_no, content)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            continue
        if header is None:
            header = raw
            header_line = line_no
        else:
            rows.append((line_no, raw))
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
    if len(rows) != n:
        raise GmlFormatError(
            f"expected {n} instance lines, found {len(rows)}"
        )

    try:
        X = np.zeros((d, n), dtype=np.float64)
        Y = np.zeros((l, n), dtype=np.int8)
    except ValueError:  # numpy cannot even describe an array that large
        _fail(header_line, f"dimensions n={n} d={d} l={l} are too large")
    for col, (line_no, raw) in enumerate(rows):
        if not _decode_instance(raw, X[:, col], Y[:, col]):
            _reject(line_no, raw, l, d)

    return Dataset(FeatureMatrix(X), LabelMatrix(Y))


def write_gml(data, comments=()):
    """Serialize a Dataset to GML text.

    Feature values are printed with full round-trip precision, so
    parse_gml(write_gml(d)) reproduces d exactly.  Only nonzero
    features are written.  The feature text is formatted once per
    FeatureMatrix and kept with it, so writing several datasets that
    share one matrix (say, fully and partly observed labels) formats
    its values once; only the label fields are formatted per call.

    Args:
        data: Dataset to serialize.
        comments: optional strings emitted as leading '#' lines.

    Returns:
        GML text ending with a newline.
    """
    lines = comment_lines(comments)
    lines.append(f"{data.n} {data.d} {data.l}")
    for feats, y in zip(data.features._gml_fields, data.labels.values.T):
        pos = ",".join(map(str, (np.flatnonzero(y == 1) + 1).tolist()))
        neg = ",".join(map(str, (np.flatnonzero(y == -1) + 1).tolist()))
        lines.append(f"+:{pos}|-:{neg}|{feats}")
    return "\n".join(lines) + "\n"


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
