"""Per-token GML and matrix parsers and per-instance writers: the
references the array codecs are tested against.

`parse_gml_reference` is the library's earlier GML parser, kept as it
was apart from the header check: one Python int() or float() call per
token.  A header whose sizes numpy cannot allocate raises GmlFormatError
naming the header line, as `load_gml` does.  tests/test_codecs.py
requires `glocal.data.load_gml` to accept exactly the inputs this
accepts, with identical arrays, and to raise the same error when it
rejects one.  `load_gml` now applies these same per-token rules, in the
same order, to each line as it streams the file, where this parser
holds the whole text and its list of lines.

`parse_matrix_reference` reads matrix text whole: its lines less the
'#' ones, an int() header and one float() call per value.
tests/test_codecs.py requires `glocal.data.load_matrix` of a text stream
to accept exactly what it accepts, with identical bits, and to raise
the same message when it rejects one.

`save_gml_reference` is the library's earlier GML writer, kept as it
was: every label id of every instance line is formatted where it is
written.  tests/test_codecs.py requires `save_gml` to write exactly its
bytes.
"""

import contextlib
import math
import os

import numpy as np

from glocal.data import Dataset, FeatureMatrix, GmlFormatError, LabelMatrix
from glocal.textio import comment_lines


def _fail(line_no, message):
    raise GmlFormatError(f"line {line_no}: {message}")


def _parse_index_csv(text, limit, line_no, seen, kind):
    out = []
    if text == "":
        return out
    for tok in text.split(","):
        try:
            idx = int(tok)
        except ValueError:
            _fail(line_no, f"bad {kind} index {tok!r}")
        if not 1 <= idx <= limit:
            _fail(line_no, f"{kind} index {idx} out of range 1..{limit}")
        if idx in seen:
            _fail(line_no, f"duplicate {kind} index {idx}")
        seen.add(idx)
        out.append(idx)
    return out


def parse_gml_reference(text):
    """Parse GML text into a Dataset, one token at a time."""
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
    except ValueError:
        _fail(header_line, f"dimensions n={n} d={d} l={l} are too large")
    for col, (line_no, raw) in enumerate(rows):
        fields = raw.split("|")
        if len(fields) != 3:
            _fail(line_no, "expected 3 '|'-separated fields")
        pos_f, neg_f, feat_f = fields
        if not pos_f.startswith("+:") or not neg_f.startswith("-:"):
            _fail(line_no, "label fields must start with '+:' and '-:'")
        seen_labels = set()
        for idx in _parse_index_csv(pos_f[2:], l, line_no, seen_labels, "label"):
            Y[idx - 1, col] = 1
        for idx in _parse_index_csv(neg_f[2:], l, line_no, seen_labels, "label"):
            Y[idx - 1, col] = -1
        seen_feats = set()
        for tok in feat_f.split():
            pair = tok.split(":", 1)
            if len(pair) != 2:
                _fail(line_no, f"bad feature token {tok!r}")
            try:
                idx = int(pair[0])
            except ValueError:
                _fail(line_no, f"bad feature index {pair[0]!r}")
            if not 1 <= idx <= d:
                _fail(line_no, f"feature index {idx} out of range 1..{d}")
            if idx in seen_feats:
                _fail(line_no, f"duplicate feature index {idx}")
            seen_feats.add(idx)
            try:
                val = float(pair[1])
            except ValueError:
                _fail(line_no, f"non-numeric feature value {pair[1]!r}")
            if not math.isfinite(val):
                _fail(line_no, f"non-finite feature value {pair[1]!r}")
            X[idx - 1, col] = val

    return Dataset(FeatureMatrix(X), LabelMatrix(Y))


def parse_matrix_reference(text):
    """Parse matrix text into a float64 array, one float() call per value."""
    tokens = " ".join(line for line in text.splitlines() if not line.startswith("#")).split()
    if len(tokens) < 2:
        raise ValueError("matrix file needs a 'rows cols' header")
    bad_header = f"bad matrix header {' '.join(tokens[:2])!r}, expected 'rows cols'"
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(bad_header) from None
    if rows < 0 or cols < 0:
        raise ValueError(bad_header)
    values = [float(t) for t in tokens[2:]]
    if len(values) != rows * cols:
        raise ValueError(f"expected {rows * cols} values, found {len(values)}")
    try:
        return np.array(values, dtype=np.float64).reshape(rows, cols)
    except ValueError:  # an empty matrix with a side numpy cannot hold
        raise ValueError(bad_header) from None


def _feature_field(x):
    """One instance's GML feature field: 'idx:value' for every nonzero."""
    fid = np.flatnonzero(x)
    pairs = [None] * (2 * fid.size)
    pairs[0::2] = (fid + 1).tolist()
    pairs[1::2] = x[fid].tolist()
    return " ".join(["%d:%r"] * fid.size) % tuple(pairs)


def save_gml_reference(files, comments=()):
    """Write datasets sharing one FeatureMatrix to GML files, one
    instance at a time, each file's label fields formatted per line."""
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

