"""Per-token GML parser: the reference the array decoder is tested against.

This is the library's earlier `parse_gml`, kept as it was: one Python
int() or float() call per token.  tests/test_codecs.py requires
`glocal.data.parse_gml` to accept exactly the inputs this accepts, with
identical arrays, and to name the same line when it rejects one.
"""

import math

import numpy as np

from glocal.data import Dataset, FeatureMatrix, GmlFormatError, LabelMatrix


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

    X = np.zeros((d, n), dtype=np.float64)
    Y = np.zeros((l, n), dtype=np.int8)
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
