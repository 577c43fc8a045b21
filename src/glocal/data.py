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

File formats owned here (the model, trace and report files live with
their modules, and a partition file is a matrix file; see
glocal.clustering):
  * GML datasets: an "n d l" header line, then one
    "+:<csv>|-:<csv>|<idx:value pairs>" line per instance (load_gml);
  * scores/labels files: comments, a "l n" header line, then l rows of
    n whitespace-separated values.  They are decimal text, like GML,
    because people read them: each row is one line of values, '%d' for
    an integer matrix and '%.17g', which round-trips every float64
    bit-exactly, for a float one, and the reader accepts any line
    layout (model files carry binary rows instead; see
    glocal.model).  The hidden labels of a mask are one too: the l x n
    matrix of the labels apply_mask hid, 0 at every other position;
  * array caches: beside a GML or a matrix file, the arrays load_gml
    or load_matrix decodes from it, in binary, keyed by the file's bytes.
    A path naming a regular file has its cache: save_gml and save_matrix
    write it as they write the file, and load_gml and load_matrix read
    it, or decode the file and write it (see load_gml).  Every file is
    read and written through glocal.textio, which hashes the bytes it
    moves.  A text stream, a FIFO or any other source has no cache: it
    is read or written where it stands, once.
"""

import contextlib
import functools
import hashlib
import io
import math
import numbers
import os
import stat
import tempfile
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .textio import comment_lines, file_key, line_writer, lines, write_lines


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


def check_labels(name, values):
    """`values` as an array, if it holds integers within -1..1 or floats
    that are exactly -1, 0 or +1, else a ValueError naming `name`: a
    cast would turn a bool, a complex or a text entry into a label."""
    given = np.asarray(values)
    if given.dtype.kind in "iu":
        # the range check is the set check, with no scratch
        bad = given.size and (given.min() < -1 or given.max() > 1)
    else:  # a float entry is compared, so a fraction or NaN is refused
        bad = given.dtype.kind != "f" or not np.isin(given, (-1, 0, 1)).all()
    if bad:
        raise ValueError(f"{name} entries must be -1, 0 or +1")
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
    read-only but neither copied nor checked.  Only for an array its
    maker gives up and built from values already checked: a 2-D float64
    feature array of finite values, or a 2-D int8 label array of -1, 0
    and +1 with at least 2 rows, as the GML decoder and its cache,
    with_bias, make_synthetic, apply_mask and take_instances make them.
    The constructor checks and copies the array a caller passes, so the
    caller cannot change the matrix later."""
    values.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "values", values)
    return obj


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Dense d x n feature matrix, one instance per column."""

    values: np.ndarray

    def __post_init__(self):
        given = check_reals("feature matrix", self.values)
        object.__setattr__(self, "values", _frozen_array(given, np.float64))
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be 2-D (d x n)")
        if not np.all(np.isfinite(self.values)):
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
        if given.ndim != 2:
            raise ValueError("label matrix must be 2-D (l x n)")
        if given.shape[0] < 2:
            raise ValueError("label matrix needs at least 2 labels")
        check_labels("label", given)
        object.__setattr__(self, "values", _frozen_array(given, np.int8))

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


def _fail(line_no, message):
    raise GmlFormatError(f"line {line_no}: {message}")


def _index(tok, limit, line_no, seen, kind):
    """The 0-based index of the 1-based `kind` index tok, once it reads
    as an int, lies in 1..limit and is not in `seen`, the line's indices
    so far, to which it is added."""
    try:
        idx = int(tok)
    except ValueError:
        _fail(line_no, f"bad {kind} index {tok!r}")
    if not 1 <= idx <= limit:
        _fail(line_no, f"{kind} index {idx} out of range 1..{limit}")
    if idx in seen:
        _fail(line_no, f"duplicate {kind} index {idx}")
    seen.add(idx)
    return idx - 1


def _decode_line(line_no, raw, x, y):
    """Decode one instance line into x and y, its columns of X and Y.

    Each token is checked and converted as it is read, in format order,
    so an error names the first bad token; the columns may then be part
    written.
    """
    fields = raw.split("|")
    if len(fields) != 3:
        _fail(line_no, "expected 3 '|'-separated fields")
    pos_f, neg_f, feat_f = fields
    if not pos_f.startswith("+:") or not neg_f.startswith("-:"):
        _fail(line_no, "label fields must start with '+:' and '-:'")
    seen = set()
    for csv, sign in ((pos_f[2:], 1), (neg_f[2:], -1)):
        for tok in csv.split(",") if csv else ():
            y[_index(tok, y.size, line_no, seen, "label")] = sign
    seen = set()
    for tok in feat_f.split():
        idx, colon, val = tok.partition(":")
        if not colon:
            _fail(line_no, f"bad feature token {tok!r}")
        i = _index(idx, x.size, line_no, seen, "feature")
        try:
            value = float(val)
        except ValueError:
            _fail(line_no, f"non-numeric feature value {val!r}")
        if not math.isfinite(value):
            _fail(line_no, f"non-finite feature value {val!r}")
        x[i] = value


def _decode_gml(lines):
    """The Dataset of the GML text whose lines (textio.lines) are `lines`.

    Each instance line is decoded as it arrives, one token at a time,
    straight into its columns of X and Y, so what the decode holds
    besides the arrays is one line, never the file's text.  A wrong
    instance line count is the error to report before any line's fault,
    so every line is counted, in one pass; the lines up to the first
    fault, and to the header's count, are decoded, and the fault is
    raised once the count is right.
    """
    numbered = ((no, raw) for no, raw in enumerate(lines, start=1)
                if not raw.startswith("#"))
    header_line, header = next(numbered, (0, None))
    if header is None:
        raise GmlFormatError("line 1: missing header")

    try:  # a token count other than 3 fails the unpack
        n, d, l = (int(p) for p in header.split())
    except ValueError:
        _fail(header_line, f"malformed header {header!r}, expected 'n d l'")
    if n < 1 or d < 1 or l < 2:
        _fail(header_line, f"bad dimensions n={n} d={d} l={l} (need n>=1, d>=1, l>=2)")

    fault = None
    try:
        X = np.zeros((d, n), dtype=np.float64)
        Y = np.zeros((l, n), dtype=np.int8)
    except ValueError:  # numpy cannot even describe an array that large
        fault = GmlFormatError(f"line {header_line}: dimensions n={n} d={d} l={l} are too large")
    except MemoryError as error:
        fault = error
    found = 0
    for found, (line_no, raw) in enumerate(numbered, start=1):
        if fault is None and found <= n:
            try:
                _decode_line(line_no, raw, X[:, found - 1], Y[:, found - 1])
            except GmlFormatError as error:
                fault = error
    if found != n:
        raise GmlFormatError(f"expected {n} instance lines, found {found}")
    if fault is not None:
        raise fault

    # X and Y are this decoder's own, so the containers take them uncopied
    return Dataset(_adopt(FeatureMatrix, X), _adopt(LabelMatrix, Y))


# the first bytes of every array cache; a file without them is not one,
# and is never replaced.  They say GML because they predate the matrix
# caches, and are kept so a GML cache already written stays replaceable
_CACHE_MAGIC = b"glocal GML array cache v1\n"


@functools.cache
def _decoder_stamp():
    """The end of a cache's key line: ' <SHA-256 of numpy's version and
    this package's sources>\\n', so a cache is used only by the decoder
    that wrote it.  Computed once per process."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    sha = hashlib.sha256(b"\0".join([np.__version__.encode(), *map(Path.read_bytes, sources)]))
    return f" {sha.hexdigest()}\n".encode()


def _cache_path(path):
    return Path(path).with_name(f".{Path(path).name}.glocal-cache")


def _cache_key(sha, kind):
    """The key line of a cache of the file whose bytes hash to `sha`, read as `kind`."""
    return f"{sha.hexdigest()} {kind}".encode() + _decoder_stamp()


@contextlib.contextmanager
def _cache_file(path):
    """path's cache file, open and read past _CACHE_MAGIC, or None where
    it does not start with them.  What is no regular file reads as empty
    and is never opened: opening a FIFO blocks until a writer comes.
    Raises OSError where nothing is there."""
    cache = _cache_path(path)
    with open(cache, "rb") if stat.S_ISREG(os.stat(cache).st_mode) else io.BytesIO() as f:
        yield f if f.read(len(_CACHE_MAGIC)) == _CACHE_MAGIC else None


def _has_cache(path):
    """Whether path has an array cache: a path (no stream) naming a
    regular file, checked with a stat before anything opens it.  A
    FIFO's bytes are gone once read, so no key could be checked before
    the decode, and the cache of /dev/null would be written into /dev."""
    return isinstance(path, (str, os.PathLike)) and os.path.isfile(path)


def _read_cache(path, kind, count):
    """The `count` arrays in path's cache, if path has one (_has_cache),
    its key names path's bytes read as `kind` and each array is in C
    order, else None, never an error."""
    if not _has_cache(path):
        return None
    with contextlib.suppress(OSError, ValueError, MemoryError), _cache_file(path) as f:
        if f:
            with open(path, "rb") as source:
                key = _cache_key(hashlib.file_digest(source, "sha256"), kind)
            if f.read(len(key)) == key:
                arrays = [np.lib.format.read_array(f, allow_pickle=False) for _ in range(count)]
                if all(a.flags.c_contiguous for a in arrays):
                    return arrays
    return None


def _write_cache(path, sha, kind, arrays):
    """Keep the C-order `arrays` in path's cache, keyed by `sha`, the
    hash of path's bytes, read as `kind`, with path's permission bits.

    Written through a temporary file, which a failed write removes.
    Skipped, never an error, where path has no cache (see _has_cache),
    the cache path holds anything but a cache (see _cache_file) or a
    write raises an OSError.
    """
    if not _has_cache(path):
        return
    cache = _cache_path(path)
    with contextlib.suppress(OSError):
        mode = os.stat(path).st_mode
        if os.path.lexists(cache):
            with _cache_file(path) as f:
                if not f:
                    return
        fd, temp = tempfile.mkstemp(prefix=cache.name, dir=cache.parent)
        try:
            with open(fd, "wb") as f:
                f.write(_CACHE_MAGIC + _cache_key(sha, kind))
                for values in arrays:
                    np.lib.format.write_array(f, values, allow_pickle=False)
            os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, cache)
        except BaseException:
            os.unlink(temp)
            raise


def load_gml(path):
    """Read a GML file into a Dataset.

    Format: a header line "n d l", then one line per instance of the
    form "+:<csv>|-:<csv>|<idx:value pairs>".  Indices are 1-based.
    Lines starting with '#' are comments and are skipped.  Indices are
    read as int() reads them and values as float() does.  The text is
    decoded a line at a time (see _decode_gml).

    A path naming a regular file is read through its array cache, the
    file '.<name>.glocal-cache' beside the path as given: _CACHE_MAGIC, a
    key line, then X (float64) and Y (int8) in .npy format.  The key is
    the SHA-256 of the GML bytes and the decoder stamp, as hash-based
    .pyc files are keyed, so neither size nor mtime is trusted.  A hit
    needs the key and C-order arrays that pass the constructors' checks,
    and adopts them; anything else is a miss, never an error.  A miss
    decodes the file's lines as textio.lines hashes their bytes, so the
    key names exactly the bytes decoded, and writes the cache (see
    _write_cache).  save_gml writes the same cache as it writes the
    file.  A text stream, a FIFO or any other source that is no regular
    file has no cache, and is read once, where it stands.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Returns:
        Dataset with float64 features and int8 labels.

    Raises:
        GmlFormatError: on any malformed line, with its line number.
    """
    hit = _read_cache(path, "gml", 2)
    if hit:
        X, Y = hit
        if (X.dtype == np.float64 and Y.dtype == np.int8 and X.ndim == Y.ndim == 2
                and Y.shape[0] >= 2 and np.isfinite(X).all()):
            # a ValueError is a miss too: a label out of range or instance
            # counts that differ
            with contextlib.suppress(ValueError):
                check_labels("label", Y)
                return Dataset(_adopt(FeatureMatrix, X), _adopt(LabelMatrix, Y))
    sha = hashlib.sha256()
    data = _decode_gml(lines(path, sha))
    _write_cache(path, sha, "gml", (data.features.values, data.labels.values))
    return data


def parse_gml(text):
    """load_gml of GML text held in a string.

    Kept only for bench/run.py's check_rep, until ROADMAP item 1a moves
    it to load_gml and deletes this.
    """
    return load_gml(io.StringIO(text))


def save_gml(files, comments=()):
    """Write datasets sharing one FeatureMatrix to GML files, in one pass.

    Feature values are printed with full round-trip precision, so
    load_gml reproduces each dataset exactly; only nonzero features are
    written.  Each instance's line is made as it is written, so no
    file's text is held.  Two string tables are made once per call: the
    'j:%r' piece of every feature and the str of every label id, so a
    line only looks strings up and joins them.  Each instance's feature
    field is formatted once for every file: the full and partly observed
    copies of a dataset cost one formatting pass.  The datasets and
    comments are checked before any file is opened.

    Each file is written through a textio.line_writer, which hashes the
    bytes it writes, and then gets beside it the cache load_gml reads,
    keyed by those bytes: the arrays load_gml decodes from the file, so
    a feature -0.0, which is not written, is cached as +0.0.

    Args:
        files: map from path to Dataset, at least one.  Where two paths
            name one file (as textio.file_key decides: through a link
            too), the file is opened once and gets the later dataset, as
            writing them in turn would.
        comments: optional strings emitted as leading '#' lines.
    """
    datasets = list(files.values())
    if not datasets:
        raise ValueError("save_gml needs at least one file to write")
    features = datasets[0].features
    if any(data.features is not features for data in datasets):
        raise ValueError("datasets written together must share one FeatureMatrix")
    head = comment_lines(comments)
    pieces = np.array([f"{j}:%r" for j in range(1, features.d + 1)], dtype=object)
    ids = np.array([str(j) for j in range(1, max(data.l for data in datasets) + 1)],
                   dtype=object)
    # one path per file, with the dataset given last for it and the hash
    # of the bytes written
    targets = [(path, data, hashlib.sha256())
               for path, data in {file_key(p): (p, d) for p, d in files.items()}.values()]
    with contextlib.ExitStack() as stack:
        sinks = [(data, ids[: data.l], stack.enter_context(line_writer(path, sha)))
                 for path, data, sha in targets]
        for data, _, write in sinks:
            for line in [*head, f"{data.n} {data.d} {data.l}"]:
                write(line)
        for col, x in enumerate(features.values.T):
            fid = np.flatnonzero(x)
            feats = " ".join(pieces[fid].tolist()) % tuple(x[fid].tolist())
            for data, row_ids, write in sinks:
                y = data.labels.values[:, col]
                pos, neg = ",".join(row_ids[y == 1]), ",".join(row_ids[y == -1])
                write(f"+:{pos}|-:{neg}|{feats}")
    X = np.add(features.values, 0.0, order="C")
    for path, data, sha in targets:
        _write_cache(path, sha, "gml", (X, np.ascontiguousarray(data.labels.values)))


def save_matrix(A, path, comments=()):
    """Write a 2-D matrix with a 'rows cols' header, one row per line.

    Each value of an integer matrix is printed with '%d' and each of a
    float one with '%.17g', so the file holds every value exactly and a
    float64 matrix reads back bit-exactly.  The rows are formatted as
    they are written; the row format is fixed at the call, so a block
    that is not 2-D is refused before the file is opened.

    The file is written through textio.write_lines, which hashes the
    bytes it writes to a path.  A regular file then gets beside it the
    cache load_matrix reads, keyed by those bytes: A in C order and its
    own dtype, so an int8 label matrix takes a byte an entry, which a
    read casts to the float64 load_matrix returns.  A matrix holding a
    value that is not finite gets no cache, since '%.17g' keeps neither
    the sign nor the payload of a NaN.  A text stream, a FIFO or any
    other sink that is no regular file gets no cache.

    Args:
        A: 2-D array of an integer or a float dtype.
        path: path, or text file object written where it stands.
        comments: optional strings emitted as leading '#' lines.

    Raises:
        ValueError: if A is not 2-D or holds anything but real numbers
            (complex, text, bools, objects), before the file is opened.
    """
    sha = hashlib.sha256()
    write_lines(path, _matrix_lines(A, comments), sha)
    values = np.ascontiguousarray(A)
    if np.isfinite(values).all():
        _write_cache(path, sha, "matrix", [values])


def _matrix_lines(A, comments):
    """The lines of A's matrix file, made as they are read; A is checked
    at the call."""
    A = check_reals("matrix", A)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {A.ndim}-D")
    head = [*comment_lines(comments), f"{A.shape[0]} {A.shape[1]}"]
    row_format = " ".join(["%d" if A.dtype.kind in "iu" else "%.17g"] * A.shape[1])
    return chain(head, (row_format % tuple(row.tolist()) for row in A))


def _decode_matrix(lines):
    """The float64 matrix of the matrix text whose lines (textio.lines)
    are `lines`: each value is converted with float() as it arrives, so
    what the decode holds besides the matrix is one line's tokens."""
    tokens = chain.from_iterable(line.split() for line in lines
                                 if not line.startswith("#"))
    header = list(islice(tokens, 2))
    if len(header) < 2:
        raise ValueError("matrix file needs a 'rows cols' header")
    bad_header = f"bad matrix header {' '.join(header)!r}, expected 'rows cols'"
    try:
        rows, cols = int(header[0]), int(header[1])
        if rows < 0 or cols < 0:
            raise ValueError
    except ValueError:
        raise ValueError(bad_header) from None
    # the header's count is not trusted to size the values
    vals = np.fromiter(map(float, tokens), np.float64)
    if vals.size != rows * cols:
        raise ValueError(f"expected {rows * cols} values, found {vals.size}")
    try:  # an empty matrix may still name a side numpy cannot hold
        return vals.reshape(rows, cols)
    except ValueError:
        raise ValueError(bad_header) from None


def load_matrix(path):
    """Read a matrix file as a float64 array.

    The values are a whitespace-separated token stream in which '#'
    lines are comments, so a header or a row may span lines or share
    them.  The text is decoded a line at a time (see _decode_matrix).

    A path naming a regular file is read through its array cache, as
    load_gml reads a GML file's: a hit needs the key and one 2-D array
    of an integer or a float dtype in C order, and returns it as
    float64; a miss decodes the file's lines as textio.lines hashes
    their bytes, and writes the float64 it decoded as the cache, unless
    the matrix holds a value that is not finite.  save_matrix writes the
    same cache as it writes the file.  A text stream, a FIFO or any
    other source that is no regular file has no cache, and is read
    once, where it stands.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Raises:
        ValueError: on a missing, non-integer or negative 'rows cols'
            header or one with a side numpy cannot hold, a non-numeric
            value (with float()'s message), or a value count other than
            rows * cols.
    """
    hit = _read_cache(path, "matrix", 1)
    if hit and hit[0].ndim == 2 and hit[0].dtype.kind in "iuf":
        return hit[0].astype(np.float64, copy=False)
    sha = hashlib.sha256()
    A = _decode_matrix(lines(path, sha))
    if np.isfinite(A).all():
        _write_cache(path, sha, "matrix", [A])
    return A


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


def apply_mask(data, rho, seed):
    """Hide label entries, keeping rho percent of positions observed.

    Samples floor(rho/100 * l*n + 0.5) positions (a half rounds up)
    uniformly without replacement; every other position is zeroed.  For
    a fully observed input exactly that many positions remain observed.
    Positions that were already zero stay zero, kept or not.  The labels
    the mask hid are data.labels.values - masked.labels.values.

    Args:
        data: Dataset to mask.
        rho: percentage of positions kept, a finite real in [0, 100].
        seed: RNG seed, an integer >= 0.

    Returns:
        The masked Dataset.

    Raises:
        ValueError: if rho or seed is not such a value, rho checked first.
    """
    rho = check_real("rho", rho, 0, 100)
    check_integer("seed", seed, 0)
    l, n = data.l, data.n
    total = l * n
    keep = math.floor(rho / 100.0 * total + 0.5)
    rng = np.random.default_rng(seed)
    kept = rng.choice(total, size=keep, replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[kept] = True
    mask = mask.reshape(l, n)
    masked = np.where(mask, data.labels.values, np.int8(0))
    return Dataset(data.features, _adopt(LabelMatrix, masked))


def take_instances(data, indices):
    """New Dataset restricted to the given instance columns, in order:
    0-based indices in 0..n-1, never counted from the end."""
    idx = np.asarray(check_integers("instance indices", indices), dtype=int)
    if idx.ndim != 1:
        raise ValueError("instance indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= data.n):
        raise ValueError(f"instance indices must lie in 0..{data.n - 1}")
    # fancy indexing makes private copies, so the containers take them
    return Dataset(
        _adopt(FeatureMatrix, data.features.values[:, idx]),
        _adopt(LabelMatrix, data.labels.values[:, idx]),
    )


def split(data, train_fraction, seed):
    """Disjoint train/test split over instances.

    The train side gets floor(train_fraction * n + 0.5) instances (a
    half rounds up) chosen by a seeded permutation; both sides keep
    ascending instance order.

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
    n_train = math.floor(min(max(train_fraction, 0.0), 1.0) * n + 0.5)
    if n_train <= 0 or n_train >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty side for n={n}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return take_instances(data, train_idx), take_instances(data, test_idx)
