"""Dataset containers, their file formats, a planted generator, masking
and splitting.

Conventions used throughout the package:
  * features are stored column-wise (one instance per column),
  * label matrices hold -1 / 0 / +1 where 0 means "not observed",
  * label and feature indices are 1-based in files, 0-based in memory,
  * lines starting with '#' in any of our text formats are comments.

All containers are frozen and their arrays are marked read-only, so they
can be shared freely; masking and splitting return new objects.  Every
container checks the values it is given, not a cast of them, with the
check_* functions here, which the other modules' constructors share.

File formats owned here (the partition, model, trace and report files
live with their modules):
  * GML datasets: an "n d l" header line, then one
    "+:<csv>|-:<csv>|<idx:value pairs>" line per instance (load_gml);
  * scores/labels files: comments, a "l n" header line, then l rows of
    n whitespace-separated values.  They are decimal text, like GML,
    because people read them: each row is one line of '%.17g' values,
    which round-trip every float64 bit-exactly, and the reader accepts
    any line layout (model files carry binary rows instead; see
    glocal.model);
  * hidden-entry sidecar: "label_idx instance_idx value" lines, 1-based,
    strictly increasing by label_idx, then instance_idx, as apply_mask
    returns its entries.
"""

from __future__ import annotations

import contextlib
import io
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .textio import comment_lines, file_key, line_batches, write_lines

# tokens, sidecar lines or GML label entries handled per numpy call:
# short rows are batched across lines
_BATCH = 4096


class GmlFormatError(ValueError):
    """Raised when GML text does not conform to the format."""


def _frozen_array(values, dtype):
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _within(name, value, low, high, span):
    """`value` if no bound it is given excludes it, else a ValueError
    naming `name`: '>= low' without a high bound, else the `span`."""
    if (low is not None and value < low) or (high is not None and value > high):
        raise ValueError(f"{name} must be >= {low}" if high is None
                         else f"{name} must lie in {span}, got {value}")
    return value


def check_integer(name, value, low=None, high=None):
    """`value` itself if it is an integer (numbers.Integral, so numpy
    integers too, but not a bool) in low..high, a None bound being open,
    else a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _within(name, value, low, high, f"{low}..{high}")


def check_real(name, value, low=None, high=None):
    """`value` as a float if it is an integer or a float (numpy's too, but
    not a bool) that float64 holds as a finite number in [low, high], a
    None bound being open, else a ValueError naming `name`.  A Fraction
    or a Decimal is refused, not rounded."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond float64's range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return _within(name, value, low, high, f"[{low}, {high}]")


def check_integers(name, values):
    """`values` as an array, if it holds integers or nothing, else a
    ValueError saying `name` must be integers: a cast would truncate a
    fraction and turn a bool into an index."""
    given = np.asarray(values)
    if given.size and given.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers")
    return given


def check_reals(name, values):
    """`values` as an array, if its dtype is an integer or a float one,
    else a ValueError naming `name`: a float64 cast would drop an
    imaginary part, parse text and turn a bool into a number."""
    given = np.asarray(values)
    if given.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {given.dtype}")
    return given


def _adopt(cls, values):
    """A FeatureMatrix or LabelMatrix around `values` itself, made
    read-only and checked but not copied.  Only for an array its maker
    gives up, as the GML decoder does; the constructor copies the array
    a caller passes, so the caller cannot change the matrix later."""
    values.setflags(write=False)
    cls._check(values)
    obj = object.__new__(cls)
    object.__setattr__(obj, "values", values)
    return obj


def round_half_away(x):
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Dense d x n feature matrix, one instance per column."""

    values: np.ndarray

    def __post_init__(self):
        given = check_reals("feature matrix", self.values)
        object.__setattr__(self, "values", _frozen_array(given, np.float64))
        self._check(self.values)

    @staticmethod
    def _check(values):
        if values.ndim != 2:
            raise ValueError("feature matrix must be 2-D (d x n)")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature matrix contains non-finite values")

    @property
    def d(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    def with_bias(self):
        """This matrix with a constant all-ones feature row appended.
        The stacked array becomes the new matrix's own, uncopied."""
        return _adopt(FeatureMatrix, np.vstack([self.values, np.ones((1, self.n))]))


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """Dense l x n label matrix with entries in {-1, 0, +1}.

    A zero entry means the label is unobserved.  The observation
    indicator is derived from the values, so the two can never drift
    apart.
    """

    values: np.ndarray

    def __post_init__(self):
        # the given entries are checked, so a cast to int8 changes none
        given = np.asarray(self.values)
        self._check(given)
        object.__setattr__(self, "values", _frozen_array(given, np.int8))

    @staticmethod
    def _check(vals):
        if vals.ndim != 2:
            raise ValueError("label matrix must be 2-D (l x n)")
        if vals.shape[0] < 2:
            raise ValueError("label matrix needs at least 2 labels")
        if vals.dtype.kind in "iu":
            # the range check is the set check, with no scratch
            bad = vals.size and (vals.min() < -1 or vals.max() > 1)
        else:  # a float entry is compared, so a fraction or NaN is refused
            bad = vals.dtype.kind != "f" or not np.isin(vals, (-1, 0, 1)).all()
        if bad:
            raise ValueError("label entries must be -1, 0 or +1")

    @property
    def l(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def indicator(self):
        """Read-only bool observation mask, True where a label is observed."""
        mask = self.values != 0
        mask.setflags(write=False)
        return mask


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
        object.__setattr__(self, "rho", check_real("rho", self.rho, 0, 100))
        check_integer("seed", self.seed, 0)


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


def load_gml(path):
    """Read a GML file into a Dataset.

    Format: a header line "n d l", then one line per instance of the
    form "+:<csv>|-:<csv>|<idx:value pairs>".  Indices are 1-based.
    Lines starting with '#' are comments and are skipped.  Indices are
    read as int() reads them and values as float() does.

    The file is read in batches of lines (textio.line_batches) and
    decoded in one pass, in order, so what it holds besides the arrays
    is one batch, never the file's text.  Per line, only strings are
    split and the field and separator layout is checked.  Per batch of
    about _BATCH tokens, the indices and values are converted
    with one numpy call per kind, range- and finite-checked, checked for
    feature indices a line repeats, and written into X and Y; repeated
    label indices are found by counting: fewer labels set in the batch's
    columns of Y than listed.  On any fault the rest of the lines are
    counted, since a wrong instance line count is the error to report,
    and then the batch's lines are read again one token at a time, in
    order, to name the first bad one.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Returns:
        Dataset with float64 features and int8 labels.

    Raises:
        GmlFormatError: on any malformed line, with its line number.
    """
    lines = enumerate(chain.from_iterable(line_batches(path)), start=1)
    numbered = ((no, raw) for no, raw in lines if not raw.startswith("#"))
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

    # X and Y are this decoder's own, so the containers take them uncopied
    return Dataset(_adopt(FeatureMatrix, X), _adopt(LabelMatrix, Y))


def parse_gml(text):
    """load_gml of GML text held in a string.

    Kept only for bench/run.py's check_rep, until ROADMAP item 1a moves
    it to load_gml and deletes this.
    """
    return load_gml(io.StringIO(text))


def _feature_field(x):
    """One instance's GML feature field: 'idx:value' for every nonzero."""
    fid = np.flatnonzero(x)
    pairs = [None] * (2 * fid.size)
    pairs[0::2] = (fid + 1).tolist()
    pairs[1::2] = x[fid].tolist()
    return " ".join(["%d:%r"] * fid.size) % tuple(pairs)


def _id_fields(mask, ids):
    """The comma-joined ids of each row's True entries: ids[j] for column j."""
    rows, cols = np.nonzero(mask)
    strs = ids[cols].tolist()
    cut = [0, *np.cumsum(np.bincount(rows, minlength=mask.shape[0])).tolist()]
    return [",".join(strs[s:e]) for s, e in zip(cut, cut[1:])]


def save_gml(files, comments=()):
    """Write datasets sharing one FeatureMatrix to GML files, in one pass.

    Feature values are printed with full round-trip precision, so
    load_gml reproduces each dataset exactly; only nonzero features are
    written.  The lines are made as they are written, a batch of
    instances at a time, so no file's text is held: a batch spans about
    _BATCH label entries, and only its instances' fields are
    held.  The str of each label id is made once per call; per batch and
    file, one np.nonzero per sign finds the ids of every instance, whose
    strings are looked up and joined.  Each instance's feature field is
    formatted once for every file: the full and partly observed copies
    of a dataset cost one formatting pass.  The datasets and comments
    are checked before any file is opened.

    Args:
        files: map from path to Dataset.  Where two paths name one file
            (as textio.file_key decides: through a link too), the file is
            opened once and gets the later dataset, as writing them in
            turn would.
        comments: optional strings emitted as leading '#' lines.
    """
    datasets = list(files.values())
    features = datasets[0].features
    if any(data.features is not features for data in datasets):
        raise ValueError("datasets written together must share one FeatureMatrix")
    head = comment_lines(comments)
    l = max(data.l for data in datasets)
    ids = np.array([str(j) for j in range(1, l + 1)], dtype=object)
    step = max(1, _BATCH // l)
    # one path per file, with the dataset given last for it
    targets = {file_key(path): (path, data) for path, data in files.items()}
    with contextlib.ExitStack() as stack:
        sinks = [(data, stack.enter_context(open(path, "w", encoding="utf-8")))
                 for path, data in targets.values()]
        for data, stream in sinks:
            for line in [*head, f"{data.n} {data.d} {data.l}"]:
                stream.write(line + "\n")
        for first in range(0, features.n, step):
            feats = [_feature_field(x) for x in features.values[:, first : first + step].T]
            for data, stream in sinks:
                Y = data.labels.values[:, first : first + step].T
                for pos, neg, x in zip(_id_fields(Y == 1, ids), _id_fields(Y == -1, ids), feats):
                    stream.write(f"+:{pos}|-:{neg}|{x}\n")


def save_matrix(A, path, comments=()):
    """Write a 2-D matrix with a 'rows cols' header, one row per line.

    Each value is printed with '%.17g', so the file reads back bit-exactly.
    The rows are formatted as they are written; the row format is fixed
    at the call, so a block that is not 2-D is refused before the file
    is opened.

    Args:
        A: 2-D array of an integer or a float dtype.
        path: path, or text file object written where it stands.
        comments: optional strings emitted as leading '#' lines.

    Raises:
        ValueError: if A is not 2-D or holds anything but real numbers
            (complex, text, bools, objects), before the file is opened.
    """
    A = check_reals("matrix", A)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {A.ndim}-D")
    head = [*comment_lines(comments), f"{A.shape[0]} {A.shape[1]}"]
    row_format = " ".join(["%.17g"] * A.shape[1])
    write_lines(path, chain(head, (row_format % tuple(row.tolist()) for row in A)))


def load_matrix(path):
    """Read a matrix file.

    The values are a whitespace-separated token stream in which '#'
    lines are comments, so a header or a row may span lines or share
    them.  The file is read in batches of lines (textio.line_batches)
    and the values are converted in batches of at most _BATCH.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Raises:
        ValueError: on a missing, non-integer or negative 'rows cols'
            header or one with a side numpy cannot hold, a non-numeric
            value (with float()'s message), or a value count other than
            rows * cols.
    """
    lines = (line.split() for line in chain.from_iterable(line_batches(path))
             if not line.startswith("#"))
    batch = []
    for tokens in lines:
        batch += tokens
        if len(batch) >= 2:
            break
    header, batch = batch[:2], batch[2:]
    if len(header) < 2:
        raise ValueError("matrix file needs a 'rows cols' header")
    bad_header = f"bad matrix header {' '.join(header)!r}, expected 'rows cols'"
    try:
        rows, cols = int(header[0]), int(header[1])
        if rows < 0 or cols < 0:
            raise ValueError
    except ValueError:
        raise ValueError(bad_header) from None
    # each batch's values appended as bytes to one buffer, so the matrix
    # is held once; the header's count is not trusted to size it
    payload = bytearray()
    for tokens in lines:
        batch += tokens
        while len(batch) >= _BATCH:
            payload += memoryview(np.array(batch[:_BATCH], dtype=np.float64))
            del batch[:_BATCH]
    payload += memoryview(np.array(batch, dtype=np.float64))
    vals = np.frombuffer(payload, dtype=np.float64)
    if vals.size != rows * cols:
        raise ValueError(f"expected {rows * cols} values, found {vals.size}")
    try:  # an empty matrix may still name a side numpy cannot hold
        return vals.reshape(rows, cols)
    except ValueError:
        raise ValueError(bad_header) from None


def _hidden_lines(block):
    """The '\n'-joined sidecar lines of a block of checked 0-based entries.

    Each distinct instance_idx of the block is formatted once, as the
    text of its (instance_idx, -1) and (instance_idx, 1) pairs, and each
    run of entries with one label_idx is one join after that label's
    text.  The distinct indices come from a set, not np.unique: its
    int64 sort would page in numpy code that no other stage before
    training runs, which adds to the process's peak RSS.
    """
    inst = (block[:, 1] + 1).tolist()
    pairs = {i: ("%d -1" % i, "%d 1" % i) for i in set(inst)}
    entries = [pairs[i][positive] for i, positive in zip(inst, (block[:, 2] > 0).tolist())]
    labels = block[:, 0]
    cut = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(block)]
    runs = []
    for s, e in zip(cut, cut[1:]):
        prefix = "%d " % (labels[s] + 1)
        runs.append(prefix + ("\n" + prefix).join(entries[s:e]))
    return "\n".join(runs)


def _increasing(j, i):
    """Whether the (j, i) pairs strictly increase, by j, then i.

    Compared, not differenced, so the temporaries are booleans only.
    """
    return bool(((j[1:] > j[:-1]) | ((j[1:] == j[:-1]) & (i[1:] > i[:-1]))).all())


def save_hidden(hidden, path, comments=()):
    """Write hidden entries as 1-based 'label_idx instance_idx value' lines.

    The entries are checked before the file is opened, so every file
    written loads back (see load_hidden).  The lines are made and written
    a block of _BATCH entries at a time: a block holds its 1-based
    instance indices, the text of each distinct one's (instance_idx,
    value) pairs, formatted once, and its lines.

    Args:
        hidden: (m, 3) integer array, or rows of three, of 0-based
            (label_idx, instance_idx, value) entries strictly increasing
            by label_idx, then instance_idx, as apply_mask returns them;
            [] is no entries.
        path: path, or text file object written where it stands.
        comments: optional strings emitted as leading '#' lines.

    Raises:
        ValueError: if the entries are not (m, 3), an index is negative
            or too large to write as a 1-based int64, a value is not -1
            or +1, or an entry does not follow the one before it.
    """
    rows = np.asarray(check_integers("hidden entries", hidden), dtype=np.int64)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"hidden entries must be an (m, 3) array, got shape {rows.shape}")
    if len(rows):
        idx, vals = rows[:, :2], rows[:, 2]
        if idx.min() < 0 or idx.max() >= np.iinfo(np.int64).max:
            raise ValueError("hidden entry indices must lie in 0..2**63 - 2")
        if vals.min() < -1 or vals.max() > 1 or np.count_nonzero(vals) < len(vals):
            raise ValueError("hidden entry values must be -1 or +1")
        if not _increasing(rows[:, 0], rows[:, 1]):
            raise ValueError("hidden entries must strictly increase by label_idx, then instance_idx")
    head = comment_lines(comments)
    blocks = (rows[start : start + _BATCH] for start in range(0, len(rows), _BATCH))
    write_lines(path, chain(head, map(_hidden_lines, blocks)))


def _hidden_error(lines, line_no, prev):
    """Raise the error for a chunk of sidecar lines the array decode rejected.

    Checks the chunk's entries one at a time, by the rules load_hidden
    applies, from its first line's number line_no and the 1-based key
    prev of the entry before it (() before the first), and names the
    line of the first offending one.
    """
    for line_no, raw in enumerate(lines, start=line_no):
        if raw.startswith("#") or raw.strip() == "":
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 'label_idx instance_idx value'")
        try:
            j, i, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {line_no}: expected three integers") from None
        # the int64 bound: no score matrix has that many rows or columns
        if not (1 <= j < 2**63 and 1 <= i < 2**63 and v in (-1, 1)):
            raise ValueError(f"line {line_no}: bad hidden entry {raw!r}")
        if (j, i) <= prev:
            fault = "duplicate" if (j, i) == prev else "out-of-order"
            raise ValueError(f"line {line_no}: {fault} hidden entry {raw!r}")
        prev = (j, i)
    raise ValueError("malformed hidden-entry sidecar")


def load_hidden(path):
    """Read a hidden-entry sidecar back to 0-based entries.

    The entries must strictly increase by (label_idx, instance_idx), as
    save_hidden writes them.  The file is read once, in batches of lines
    (textio.line_batches), and decoded a chunk of _BATCH lines at a time:
    the lines are joined and split once and converted with one numpy
    call; comment and blank lines are filtered out line by line only in
    a chunk that holds a '#' or the wrong token count.  Each chunk's
    entries are range-checked at once, checked to increase from the
    entry before the chunk on, and appended to one buffer, so the
    entries are held once.  A chunk that fails a check is read again
    alone, one line at a time, to name its first bad line.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Returns:
        (m, 3) int64 array of (label_idx, instance_idx, value) rows in
        file order.

    Raises:
        ValueError: naming the line of the first malformed entry, or of
            the first one not following the entry before it: a repeat of
            it is a duplicate, a smaller one out of order.
    """
    payload = bytearray()
    prev = ()  # the 1-based key of the entry before the chunk
    line_no = 1  # of the chunk's first line
    for batch in line_batches(path):
        for start in range(0, len(batch), _BATCH):
            chunk = lines = batch[start : start + _BATCH]
            first, line_no = line_no, line_no + len(lines)
            # ';' ends each line; it sits at every fourth token only when
            # every line holds exactly three tokens
            joined = " ; ".join(chunk)
            tokens = joined.split()
            # a comment may hold three tokens, so a '#' alone calls for the filter
            if "#" in joined or len(tokens) != 4 * len(chunk) - 1:
                chunk = [ln for ln in chunk if not ln.startswith("#") and ln.strip()]
                if not chunk:
                    continue
                tokens = " ; ".join(chunk).split()
            if len(tokens) != 4 * len(chunk) - 1 or tokens[3::4] != [";"] * (len(chunk) - 1):
                _hidden_error(lines, first, prev)
            del tokens[3::4]
            try:
                block = np.array(tokens, dtype=np.int64).reshape(-1, 3)
            except (ValueError, OverflowError):
                _hidden_error(lines, first, prev)
            j, i, v = block.T
            # in range, and (label_idx, instance_idx) strictly increasing from prev on
            if not (((j >= 1) & (i >= 1) & (np.abs(v) == 1)).all()
                    and (j[0], i[0]) > prev and _increasing(j, i)):
                _hidden_error(lines, first, prev)
            prev = (int(j[-1]), int(i[-1]))
            block[:, :2] -= 1
            payload += memoryview(block)
    return np.frombuffer(payload, dtype=np.int64).reshape(-1, 3)


def make_synthetic(l, n, d, k_true, noise, seed):
    """Planted multi-label dataset: labels sign(U* W*' X + noise).

    X is standard gaussian, the planted factors are scaled so the clean
    scores are O(1), and `noise` is the std of gaussian score noise.
    With noise=0 the labels are exactly the sign of the planted scores.
    The counts l >= 2, n, d, k_true >= 1 and the seed >= 0 are integers
    that are no bools, noise a finite real >= 0; any other value raises
    a ValueError that names its argument.
    """
    for name, value, low in (("l", l, 2), ("n", n, 1), ("d", d, 1), ("k_true", k_true, 1),
                             ("seed", seed, 0)):
        check_integer(name, value, low)
    noise = check_real("noise", noise, 0)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    W_true = rng.standard_normal((d, k_true)) / np.sqrt(d)
    U_true = rng.standard_normal((l, k_true)) / np.sqrt(k_true)
    scores = U_true @ (W_true.T @ X)
    if noise > 0:
        # a huge noise may overflow to +-inf; the sign is still right
        with np.errstate(over="ignore"):
            scores = scores + noise * rng.standard_normal((l, n))
    Y = np.where(scores > 0.0, np.int8(1), np.int8(-1))
    # X and Y are made here, so the containers take them uncopied
    return Dataset(_adopt(FeatureMatrix, X), _adopt(LabelMatrix, Y))


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
    # the masked labels are made and checked before the hidden entries
    # are, so the check's scratch arrays are gone by then
    masked = Dataset(data.features, _adopt(LabelMatrix, np.where(mask, Y, np.int8(0))))
    # flat positions in row-major order: by label, then instance
    pos = np.flatnonzero((Y != 0) & ~mask)
    del mask
    hidden = np.empty((pos.size, 3), dtype=np.int64)
    np.divmod(pos, n, out=(hidden[:, 0], hidden[:, 1]))
    hidden[:, 2] = Y.ravel()[pos]
    return masked, hidden


def take_instances(data, indices):
    """New Dataset restricted to the given instance columns, in order."""
    idx = np.asarray(check_integers("instance indices", indices), dtype=int)
    # fancy indexing makes private copies, so the containers take them
    return Dataset(
        _adopt(FeatureMatrix, data.features.values[:, idx]),
        _adopt(LabelMatrix, data.labels.values[:, idx]),
    )


def split(data, train_fraction, seed):
    """Disjoint train/test split over instances.

    The train side gets round(train_fraction * n) instances chosen by a
    seeded permutation; both sides keep ascending instance order.

    Args:
        data: Dataset to split.
        train_fraction: fraction of instances for the train side.
        seed: RNG seed, an integer >= 0.

    Returns:
        (train Dataset, test Dataset).

    Raises:
        ValueError: if train_fraction is not a finite real, seed is not
            an integer >= 0 or either side would be empty.
    """
    train_fraction = check_real("train_fraction", train_fraction)
    check_integer("seed", seed, 0)
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
