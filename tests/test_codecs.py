"""Property and format-freeze tests of the text codecs.

The array decoders must accept exactly what the per-token reference
accepts, the partition, matrix and hidden-label readers may reject input
only with ValueError and the model reader only with ModelFormatError,
every save/load pair must round-trip bit-exactly, and the bytes each
writer produces are frozen against literal strings and equal to those
of its per-instance reference.  A file read a line at a time must give
exactly its text's lines, and a file written line by line exactly what
its writer gives a text stream, or nothing at all on bad input.  Every
spelling of one file has one textio.file_key.
"""

import base64
import contextlib
import errno
import hashlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gml_reference import parse_gml_reference, parse_matrix_reference, save_gml_reference
from glocal import data as data_module
from glocal import textio
from glocal.clustering import Partition, load_partition, save_partition
from glocal.cli import read_hidden, read_matrix
from glocal.data import (
    Dataset,
    FeatureMatrix,
    GmlFormatError,
    LabelMatrix,
    load_gml,
    load_matrix,
    parse_gml,
    save_gml,
    save_matrix,
)
from glocal.metrics import EvaluationReport
from glocal.model import MODEL_MAGIC, GlocalModel, ModelFormatError, load_model, save_model
from glocal.solver import FitTrace, TraceRecord

# deterministic, bounded runs keep tier-1 repeatable and fast
FUZZ = settings(derandomize=True, max_examples=400, deadline=None)
ROUND_TRIP = settings(derandomize=True, max_examples=60, deadline=None)

# floats whose text form is easy to get wrong
AWKWARD = (5e-324, -0.0, 1e-17, -2.5e300, 1 / 3, 2.0**-1074 * 3, 1.7976931348623157e308)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def saved(save, *args, **kwargs):
    """The text save(*args, sink, **kwargs) writes to a text stream."""
    buf = io.StringIO()
    save(*args, buf, **kwargs)
    return buf.getvalue()


def decoded(load, path):
    """load of the file at path given as a text stream, which is decoded
    where it stands and gets no cache."""
    with open(path, encoding="utf-8") as text:
        return load(text)


def gml_saved(directory, data, comments=()):
    """The text save_gml writes to a GML file of data in directory."""
    path = directory / "data.gml"
    save_gml({path: data}, comments=comments)
    return path.read_bytes().decode("utf-8")


# ---- (a) the array GML decoder against the per-token reference ----------

def spellings(i):
    """Ways int() reads as i: plain, signed, padded, non-ASCII, with '_'."""
    s = str(i)
    out = [s, s, s, "+" + s, " " + s, "0" + s, "".join(chr(0x660 + int(c)) for c in s)]
    if len(s) > 1:
        out.append(s[0] + "_" + s[1:])
    return st.sampled_from(out)


VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(AWKWARD).map(repr),
    st.sampled_from(["1_0", "٣.5", "-0.0", "0", "+.5", "1e-400", "1E3", "  7"]),
)
BAD_VALUE = st.sampled_from(["nan", "-inf", "Infinity", "1e400", "1__0", "", "x", "0x1"])
GAP = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\x1f"])
# edits applied to a well-formed file: stray separators, blank fields,
# bad numbers and repeated indices
SNIPPETS = [
    "", ":", "|", ",", " ", "\t", "\xa0", "_", "1", "0", "-", ".", "e", "x", "١", "nan",
    "inf", "1e400", ",1", " 1:2", "99999999999999999999", "#", "\n", "\r", "\ud800",
]


@st.composite
def instance_line(draw, d, l, clean):
    def ids(limit):
        return st.lists(st.integers(1 if clean else 0, limit if clean else limit + 1),
                        unique=clean, max_size=limit)

    labels = draw(ids(l))
    cut = draw(st.integers(0, len(labels)))
    pos, neg = (",".join(draw(spellings(j)) for j in part)
                for part in (labels[:cut], labels[cut:]))
    feats = draw(st.sampled_from(["", " "]))
    for j in draw(ids(d)):
        value = draw(VALUE if clean else st.one_of(VALUE, BAD_VALUE))
        feats += draw(spellings(j)) + ":" + value + draw(GAP)
    if draw(st.booleans()):
        feats = feats.rstrip()
    return f"+:{pos}|-:{neg}|{feats}"


@st.composite
def gml_text(draw):
    n, d, l = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(2, 12))
    clean = draw(st.integers(0, 3)) > 0
    body = []
    for line in [f"{n} {d} {l}"] + [draw(instance_line(d, l, clean)) for _ in range(n)]:
        if draw(st.integers(0, 5)) == 0:
            body.append("# " + draw(st.sampled_from(["note", "1:2|x"])))
        body.append(line)
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(body) + draw(st.sampled_from([end, ""]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SNIPPETS)) + text[at + draw(st.integers(0, 2)):]
    return text


def test_parse_gml_matches_per_token_reference():
    # the fuzzing is only meaningful if it produces valid and invalid
    # files alike; count both over the examples it checks
    outcomes = {"accepted": 0, "rejected": 0}

    @FUZZ
    @given(gml_text())
    def matches(text):
        try:
            want = parse_gml_reference(text)
        except ValueError as exc:  # GmlFormatError, or numpy refusing a huge header
            if isinstance(exc, GmlFormatError):
                outcomes["rejected"] += 1
            with pytest.raises(type(exc)) as got:
                load_gml(io.StringIO(text))
            assert str(got.value) == str(exc)
            return
        outcomes["accepted"] += 1
        got = load_gml(io.StringIO(text))
        assert same_bits(got.features.values, want.features.values)
        assert same_bits(got.labels.values, want.labels.values)

    matches()
    assert outcomes["accepted"] >= 20 and outcomes["rejected"] >= 20


# ---- (a') fuzzed partition files ----------------------------------------

PART_SNIPPETS = [
    "", " ", "\t", "#", "\n", "\r", "-", "-1", "0", "1", "_", ".5", "x", "١", "\x00",
    "99999999999999999999", str(2**63), " 7", "1 2",
]


def mangle(draw, text, snippets):
    """Up to three edits of text, each replacing 0-2 characters by a snippet."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(snippets)) + text[at + draw(st.integers(0, 2)):]
    return text


@st.composite
def partition_text(draw):
    """A 1 x n partition file, the groups mostly in 1..n, then mangled."""
    n = draw(st.integers(1, 6))
    group = st.one_of(st.integers(1, n), st.integers(-3, 2**70))
    rows = [f"1 {n}", " ".join(str(draw(group)) for _ in range(n))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["# c", "", "  "])))
    text = "\n".join(rows) + draw(st.sampled_from(["\n", ""]))
    return mangle(draw, text, PART_SNIPPETS), n


@FUZZ
@given(partition_text())
def test_read_partition_rejects_only_with_value_error(case):
    text, n = case
    try:
        part = load_partition(io.StringIO(text), FeatureMatrix(np.zeros((1, n))))
    except ValueError:
        return
    assert part.n == n and part.sizes.sum() == n and (part.sizes >= 1).all()


# ---- (a'') fuzzed matrix, hidden-label and model files --------------------

# edits of well-formed files: numbers numpy or int() reads differently,
# sizes no array can have, and block names in the wrong place
READER_SNIPPETS = PART_SNIPPETS + [
    "nan", "inf", "-inf", "1e400", "-0", "+1", "0x1", "1e3", str(2**62), str(-(2**63)),
    " 0 ", "U", "V", "W 1", "Z_1", "Z_2 1", "GLOCAL-MODEL v1", "GLOCAL-MODEL v2",
]
SMALL_FLOAT = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(AWKWARD))


@st.composite
def matrix_text(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    A = draw(arrays(np.float64, (rows, cols), elements=SMALL_FLOAT))
    comments = draw(st.sampled_from([[], ["m"]]))
    return mangle(draw, saved(save_matrix, A, comments=comments), READER_SNIPPETS)


@st.composite
def hidden_text(draw):
    # as synth and mask write them: the labels a mask hid, 0 elsewhere
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    hidden = draw(arrays(np.int8, (rows, cols), elements=st.sampled_from([-1, 0, 1])))
    comments = draw(st.sampled_from([[], ["h"]]))
    return mangle(draw, saved(save_matrix, hidden, comments=comments), READER_SNIPPETS)


@st.composite
def model_text(draw):
    l, d, k, g, n = (draw(st.integers(1, 2)) for _ in range(5))
    model = GlocalModel(
        U=draw(arrays(np.float64, (l, k), elements=SMALL_FLOAT)),
        V=draw(arrays(np.float64, (k, n), elements=SMALL_FLOAT)),
        W=draw(arrays(np.float64, (d, k), elements=SMALL_FLOAT)),
        factors=tuple(draw(arrays(np.float64, (l, k), elements=SMALL_FLOAT))
                      for _ in range(g)),
    )
    comments = draw(st.sampled_from([[], ["c"]]))
    return mangle(draw, saved(save_model, model, comments=comments), READER_SNIPPETS)


@FUZZ
@given(matrix_text())
def test_read_matrix_rejects_only_with_value_error(text):
    try:
        A = load_matrix(io.StringIO(text))
    except ValueError:
        return
    assert A.dtype == np.float64 and A.ndim == 2


@FUZZ
@given(hidden_text())
def test_read_hidden_rejects_only_with_value_error(text):
    # eval --hidden's read: a matrix file held to the label gate
    try:
        truth = LabelMatrix(load_matrix(io.StringIO(text))).values
    except ValueError:
        return
    assert truth.dtype == np.int8 and truth.ndim == 2
    assert np.isin(truth, (-1, 0, 1)).all()


def test_load_matrix_matches_the_whole_text_reference():
    # the fuzzing is only meaningful if it produces valid and invalid
    # files alike; count both over the examples it checks
    outcomes = {"accepted": 0, "rejected": 0}

    @FUZZ
    @given(st.one_of(matrix_text(), hidden_text()))
    def matches(text):
        try:
            want = parse_matrix_reference(text)
        except ValueError as exc:
            outcomes["rejected"] += 1
            with pytest.raises(ValueError) as got:
                load_matrix(io.StringIO(text))
            assert str(got.value) == str(exc)
            return
        outcomes["accepted"] += 1
        assert same_bits(load_matrix(io.StringIO(text)), want)

    matches()
    assert outcomes["accepted"] >= 20 and outcomes["rejected"] >= 20


@FUZZ
@given(model_text())
def test_parse_model_rejects_only_with_model_format_error(text):
    try:
        model = load_model(io.StringIO(text))
    except ModelFormatError:
        return
    blocks = (model.U, model.V, model.W, *model.factors)
    assert all(np.isfinite(B).all() for B in blocks)


# a model row's text: the base64 alphabet, padding, whitespace a line may
# hold, and junk, non-ASCII included; or padded base64 amid whitespace
ROW_CHARS = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
             "= \t\u3000-_*.é\x00")
ROW_TEXT = st.one_of(
    st.text(st.sampled_from(ROW_CHARS), max_size=24),
    st.tuples(st.sampled_from(["", " ", "\t "]), st.binary(max_size=15),
              st.sampled_from(["", " ", " \t"]))
    .map(lambda t: t[0] + base64.b64encode(t[1]).decode("ascii") + t[2]),
)


@FUZZ
@given(ROW_TEXT)
def test_model_row_check_agrees_with_stdlib_base64(row):
    # the reference: the stdlib decoder in its validating mode
    try:
        want = base64.b64decode(row.strip(), validate=True)
    except ValueError:
        want = None
    # the row is V's, whose width the header sets: the decoded width where
    # it is a whole number of float64, else one value
    cols = len(want) // 8 if want is not None and len(want) % 8 == 0 else 1
    text = "\n".join([MODEL_MAGIC, "1 1 1 1", "U 1 1", "AAAAAAAA8D8=", "W 1 1", "AAAAAAAA8D8=",
                      f"V 1 {cols}", row, "Z_1 1 1", "AAAAAAAA8D8="]) + "\n"
    try:
        got = load_model(io.StringIO(text)).V.astype("<f8").tobytes()
    except ModelFormatError as exc:
        got = str(exc)
    if want is None:
        assert got == "block V row 1: not base64"
    elif len(want) != 8 * cols:
        assert got == f"block V row 1: expected {8 * cols} bytes, found {len(want)}"
    elif np.isfinite(np.frombuffer(want, dtype="<f8")).all():
        assert got == want
    else:
        assert got == "block V: non-finite value"


# ---- (b) bit-exact round trips ------------------------------------------

FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(AWKWARD),
)


def float_block(rows, cols):
    return arrays(np.float64, (rows, cols), elements=FLOAT)


@ROUND_TRIP
@given(st.data())
def test_gml_round_trip_is_bit_exact(tmp_path_factory, data):
    d, n, l = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(
        st.integers(2, 4))
    X = data.draw(float_block(d, n))
    Y = data.draw(arrays(np.int8, (l, n), elements=st.sampled_from([-1, 0, 1])))
    path = tmp_path_factory.mktemp("gml") / "data.gml"
    save_gml({path: Dataset(FeatureMatrix(X), LabelMatrix(Y))})
    back = decoded(load_gml, path)
    # only nonzero features are written, so -0.0 reads back as 0.0
    assert same_bits(back.features.values, X + 0.0)
    assert same_bits(back.labels.values, Y)
    assert _same_data(load_gml(path), back)  # and its cache holds the same


@ROUND_TRIP
@given(st.data())
def test_matrix_round_trip_is_bit_exact(data):
    A = data.draw(float_block(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))))
    assert same_bits(load_matrix(io.StringIO(saved(save_matrix, A, comments=["x"]))), A)


@ROUND_TRIP
@given(st.data())
def test_model_round_trip_is_bit_exact(data):
    l, d, k, g, n = (data.draw(st.integers(1, 3)) for _ in range(5))
    model = GlocalModel(
        U=data.draw(float_block(l, k)),
        V=data.draw(float_block(k, n)),
        W=data.draw(float_block(d, k)),
        factors=tuple(data.draw(float_block(l, k)) for _ in range(g)),
    )
    back = load_model(io.StringIO(saved(save_model, model, comments=["c"])))
    for got, want in zip((back.U, back.V, back.W, *back.factors),
                         (model.U, model.V, model.W, *model.factors)):
        assert same_bits(got, want)


def test_large_model_round_trip_is_bit_exact_and_repeatable():
    rng = np.random.default_rng(11)
    l, d, k, n, g = 7, 4, 300, 5, 3
    extremes = np.array([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.0])

    def block(rows, cols):
        B = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
        B.flat[rng.choice(B.size, extremes.size, replace=False)] = extremes
        return B

    model = GlocalModel(U=block(l, k), V=block(k, n), W=block(d, k),
                        factors=tuple(block(l, k) for _ in range(g)),
                        provenance={"k": k, "lambda3": 0.1})
    texts = [saved(save_model, model) for _ in range(2)]
    assert texts[0] == texts[1]
    back = load_model(io.StringIO(texts[0]))
    for got, want in zip((back.U, back.V, back.W, *back.factors),
                         (model.U, model.V, model.W, *model.factors)):
        assert same_bits(got, want)
    assert back.provenance == {"k": "300", "lambda3": "0.1"}
    # one line per row: magic, provenance, dims, then a header per block
    assert len(texts[0].splitlines()) == 1 + 2 + 1 + (3 + g) + l + d + k + g * l


@ROUND_TRIP
@given(st.data())
def test_partition_round_trip_is_exact(data):
    n = data.draw(st.integers(1, 12))
    raw = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    groups, inverse = np.unique(raw, return_inverse=True)
    assignment = inverse.reshape(n) + 1  # no empty group
    X = data.draw(arrays(np.float64, (2, n), elements=st.floats(-1e300, 1e300)))
    features = FeatureMatrix(X)
    part = Partition(len(groups), assignment)
    text = saved(save_partition, part, comments=["g"])
    backs = [load_partition(io.StringIO(text), features)]
    # through a path: its cache, with decoding refused, then the file
    # decoded once the cache is gone
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "groups.txt"
        save_partition(part, path, comments=["g"])
        assert path.read_text(encoding="utf-8") == text
        with pytest.MonkeyPatch.context() as monkeypatch:
            refuse_decoding(monkeypatch)
            backs.append(load_partition(path, features))
        data_module._cache_path(path).unlink()
        backs.append(load_partition(path, features))
    for back in backs:
        assert back.g == part.g
        assert same_bits(back.assignment, part.assignment)
        assert same_bits(back.sizes, part.sizes)


def test_readers_accept_any_line_layout():
    # matrix values are a token stream: blocks may span lines or share them
    assert same_bits(load_matrix(io.StringIO("2\n2 1\n\n2\n# c\n3 4\n")),
                     np.array([[1.0, 2.0], [3.0, 4.0]]))
    # a model row is exactly one line; comment lines may sit anywhere after
    # the magic and blank lines anywhere but in place of a row
    model = GlocalModel(U=np.ones((2, 1)), V=np.ones((1, 2)), W=np.ones((1, 1)),
                        factors=(np.ones((2, 1)),))
    magic, *lines = saved(save_model, model).splitlines()

    def load(*text):
        return load_model(io.StringIO("\n".join(text)))

    spaced = [magic]
    for line in lines:
        spaced += ["# c", "", line] if " " in line else ["# c", line]
    assert same_bits(load(*spaced, "", "").V, model.V)
    with pytest.raises(ModelFormatError, match="^bad dimension line"):
        load(magic, " ".join(lines))
    header, row = lines[1], lines[2]  # "U 2 1" and U's first row
    with pytest.raises(ModelFormatError, match="^bad shape header for block U$"):
        load(magic, lines[0], f"{header} {row}", *lines[3:])
    with pytest.raises(ModelFormatError, match="^block U row 1: expected 8 bytes, found 6$"):
        load(magic, lines[0], header, row[:8], row[8:], *lines[3:])
    with pytest.raises(ModelFormatError, match="^block U row 1: expected 8 bytes, found 0$"):
        load(magic, lines[0], header, "", *lines[2:])


# ---- (b'') the decoders' error order over many lines -----------------------


def test_gml_error_names_the_first_bad_line():
    # lines 3 and 4 are both bad; the error must name line 3, the first,
    # as the per-token reference does
    text = "3 4 3\n+:1|-:2|1:0.5\n+:|-:|2:x\n+:3|-:|1:2:3\n"
    with pytest.raises(GmlFormatError) as want:
        parse_gml_reference(text)
    with pytest.raises(GmlFormatError) as got:
        load_gml(io.StringIO(text))
    assert str(got.value) == str(want.value) == "line 3: non-numeric feature value 'x'"


def test_gml_repeat_in_the_last_of_many_lines():
    # 150 lines of 50 features each, 170 kB: a fault must be found and
    # ranked as the reference finds and ranks it whichever line holds it
    rng = np.random.default_rng(7)
    n, d, l = 150, 50, 6
    lines = [f"{n} {d} {l}"]
    for _ in range(n):
        feats = " ".join(f"{j}:{rng.standard_normal()!r}" for j in range(1, d + 1))
        lines.append(f"+:1,3|-:2|{feats}")
    ok = "\n".join(lines) + "\n"
    got, want = load_gml(io.StringIO(ok)), parse_gml_reference(ok)
    assert same_bits(got.features.values, want.features.values)
    assert same_bits(got.labels.values, want.labels.values)
    lines[-1] += " 17:1.5"
    bad = "\n".join(lines) + "\n"
    with pytest.raises(GmlFormatError) as want_err:
        parse_gml_reference(bad)
    with pytest.raises(GmlFormatError) as got_err:
        load_gml(io.StringIO(bad))
    assert str(got_err.value) == str(want_err.value)
    assert str(got_err.value) == f"line {n + 1}: duplicate feature index 17"
    # a bad value on line 2, with a header one line too many: the count is
    # the error, so every later line is still read to be counted
    lines[0] = f"{n + 1} {d} {l}"
    lines[1] = lines[1].replace(" 2:", " 2:x", 1)
    miscounted = "\n".join(lines) + "\n"
    with pytest.raises(GmlFormatError) as want_err:
        parse_gml_reference(miscounted)
    with pytest.raises(GmlFormatError) as got_err:
        load_gml(io.StringIO(miscounted))
    assert str(got_err.value) == str(want_err.value)
    assert str(got_err.value) == f"expected {n + 1} instance lines, found {n}"


def test_a_one_line_matrix_reads_as_the_same_values_in_rows():
    A = np.random.default_rng(10).standard_normal((250, 400))
    header, *rows = saved(save_matrix, A).splitlines()
    flat = _outcome(load_matrix, io.StringIO("1 100000\n" + " ".join(rows) + "\n"))
    assert flat == [(np.dtype(np.float64), (1, 100000), A.tobytes())]
    assert _outcome(load_matrix, io.StringIO("\n".join([header, *rows]) + "\n")) == [
        (np.dtype(np.float64), (250, 400), A.tobytes())]


# ---- (c) the writers' bytes, frozen --------------------------------------


def test_writers_output_is_frozen(tmp_path):
    path = tmp_path / "out.txt"
    X = np.array([[0.5, -0.0, 1 / 3], [0.0, 5e-324, -2.5e300]])
    Y = np.array([[1, -1, 0], [0, 1, 1], [-1, 0, -1]])
    save_gml({path: Dataset(FeatureMatrix(X), LabelMatrix(Y))}, comments=["seed=1"])
    assert path.read_bytes() == (
        b"# seed=1\n3 2 3\n+:1|-:3|1:0.5\n+:2|-:1|2:5e-324\n"
        b"+:2|-:3|1:0.3333333333333333 2:-2.5e+300\n"
    )
    A = np.array([[1 / 3, -0.0, 1e-17], [5e-324, -2.5e300, 2.0]])
    save_matrix(A, path, comments=["scores"])
    assert path.read_bytes() == (
        b"# scores\n2 3\n0.33333333333333331 -0 1.0000000000000001e-17\n"
        b"4.9406564584124654e-324 -2.5000000000000001e+300 2\n"
    )
    # hidden labels, as synth and mask write them
    save_matrix(np.array([[0, 1, 0], [-1, 0, 1]], dtype=np.int8), path, comments=["toy"])
    assert path.read_bytes() == b"# toy\n2 3\n0 1 0\n-1 0 1\n"
    # integers beyond float64's exact range keep every digit
    save_matrix(np.array([[2**53 + 1, -2**63]], dtype=np.int64), path)
    assert path.read_bytes() == b"1 2\n9007199254740993 -9223372036854775808\n"
    save_matrix(np.array([[2**64 - 1]], dtype=np.uint64), path)
    assert path.read_bytes() == b"1 1\n18446744073709551615\n"
    part = Partition(2, [1, 2, 1])
    save_partition(part, path, comments=["groups"])
    assert path.read_bytes() == b"# groups\n1 3\n1 2 1\n"
    model = GlocalModel(
        U=np.array([[1 / 3], [-0.0]]),
        V=np.array([[5e-324, 1e-17, 2.0]]),
        W=np.array([[-2.5e300]]),
        factors=(np.array([[1.0], [-1.0]]), np.array([[0.6], [-0.8]])),
        provenance={"seed": 1, "add_bias": False},
    )
    save_model(model, path, comments=["trained"])
    # rows are the base64 of little-endian float64: 1.0 is 00..00 f0 3f
    assert path.read_bytes() == (
        b"GLOCAL-MODEL v2\n# trained\n# seed=1\n# add_bias=False\n2 1 1 2\n"
        b"U 2 1\nVVVVVVVV1T8=\nAAAAAAAAAIA=\n"
        b"W 1 1\nA5MAqkvdTf4=\n"
        b"V 1 3\nAQAAAAAAAACX1EZG9Q5nPAAAAAAAAABA\n"
        b"Z_1 2 1\nAAAAAAAA8D8=\nAAAAAAAA8L8=\nZ_2 2 1\nMzMzMzMz4z8=\nmpmZmZmZ6b8=\n"
    )


# ---- (d) the GML writer against its per-instance reference --------------

WRITE = settings(derandomize=True, max_examples=150, deadline=None)
# features whose text is easy to get wrong, and zeros, which are not written
GML_FLOAT = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)),
                      st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def shared_datasets(draw):
    """A full dataset and a partly observed copy sharing its features, as
    synth writes them, with all-zero feature columns and all-unobserved
    and all-observed label columns among the mixed ones.  Up to 12 labels
    and features, so two-digit label ids and feature indices are written."""
    l, d, n = draw(st.integers(2, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 9))
    X = draw(arrays(np.float64, (d, n), elements=GML_FLOAT))
    full = draw(arrays(np.int8, (l, n), elements=st.sampled_from([-1, 1])))
    kept = draw(arrays(np.int8, (l, n), elements=st.sampled_from([0, 1])))
    for col in range(n):
        kind = draw(st.sampled_from(["mixed", "zero features", "unobserved", "observed"]))
        if kind == "zero features":
            X[:, col] = 0.0
        elif kind != "mixed":
            kept[:, col] = kind == "observed"
    features = FeatureMatrix(X)
    return Dataset(features, LabelMatrix(full)), Dataset(features, LabelMatrix(full * kept))


@WRITE
@given(shared_datasets())
def test_save_gml_writes_the_per_instance_bytes(tmp_path_factory, case):
    full, masked = case
    root = tmp_path_factory.mktemp("gml")
    save_gml_reference({root / "want_full.gml": full, root / "want_train.gml": masked},
                       comments=["c"])
    save_gml({root / "full.gml": full, root / "train.gml": masked}, comments=["c"])
    for name in ("full", "train"):
        assert (root / f"{name}.gml").read_bytes() == (root / f"want_{name}.gml").read_bytes()


# ---- (e) comment stamps ---------------------------------------------------

_FEATURES = FeatureMatrix(np.zeros((1, 3)))
_PART = Partition(2, [1, 2, 1])
_MODEL = GlocalModel(U=np.ones((2, 1)), V=np.ones((1, 3)), W=np.ones((1, 1)),
                     factors=(np.array([[1.0], [-1.0]]),), provenance={"seed": 1})

# each writer, as the text it writes given comments and a temporary directory
WRITERS = {
    "save_gml": lambda c, tmp: gml_saved(
        tmp, Dataset(FeatureMatrix([[0.5, 0.0]]), LabelMatrix([[1, 0], [-1, 1]])), comments=c),
    "save_matrix": lambda c, tmp: saved(save_matrix, np.eye(2), comments=c),
    "save_partition": lambda c, tmp: saved(save_partition, _PART, comments=c),
    "FitTrace.to_csv": lambda c, tmp: FitTrace(
        records=(TraceRecord(0, 1.5, {}, 0.0),), converged=True).to_csv(comments=c),
    "EvaluationReport.to_csv": lambda c, tmp: EvaluationReport(
        0.25, 0.75, 1.0, 0.5, 0, 1).to_csv(comments=c),
    "save_model": lambda c, tmp: saved(save_model, _MODEL, comments=c),
}

# every character str.splitlines breaks at, a lone surrogate (an
# undecodable path byte under surrogateescape) and a literal backslash
HOSTILE = "a\nb\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029|\udcff\ud800|c\\d"
ESCAPED = r"# a\nb\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029|\udcff\ud800|c\d"


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_comment_stamps_are_one_utf8_line_each(tmp_path, writer):
    plain = writer(["stamp", "/data/run 1/train.gml"], tmp_path)
    text = writer([HOSTILE, "/data/run 1/train.gml"], tmp_path)
    # only the hostile comment's own line differs, and it is escaped
    assert text == plain.replace("# stamp\n", ESCAPED + "\n", 1)
    assert len(text.splitlines()) == len(plain.splitlines())
    text.encode("utf-8")
    assert "# /data/run 1/train.gml\n" in text  # an ordinary path as it is


# ---- (f) reading and writing files a line at a time ----------------------

# the characters of HOSTILE that str.splitlines breaks a line at
BREAKS = sorted({c for c in HOSTILE if len(f"a{c}b".splitlines()) == 2})
LINE_TEXT = st.lists(
    st.one_of(st.sampled_from(BREAKS), st.just("\r\n"), st.sampled_from(["a", "é", " ", "#"])),
    max_size=40,
).map("".join)

# every source textio.lines reads: a path, and a StringIO of the text and
# the file opened, each in every newline mode
NEWLINES = (None, "", "\n", "\r", "\r\n")
LINE_SOURCES = ["path", *(("StringIO", nl) for nl in NEWLINES),
                *(("open", nl) for nl in NEWLINES)]


def lines_and_splitlines(source, path):
    """textio.lines of source, and the read().splitlines() of a second
    copy of it, for the UTF-8 file at path (read_text() for the path).
    The sha that lines fills holds exactly the path's bytes, and nothing
    for a stream."""
    def fresh():
        if source == "path":
            return contextlib.nullcontext(path)
        kind, newline = source
        if kind == "StringIO":
            text = path.read_bytes().decode("utf-8")
            return contextlib.nullcontext(io.StringIO(text, newline=newline))
        return open(path, encoding="utf-8", newline=newline)

    sha = hashlib.sha256()
    with fresh() as stream:
        got = list(textio.lines(stream, sha))
    assert sha.digest() == hashlib.sha256(path.read_bytes() if source == "path" else b"").digest()
    with fresh() as stream:
        text = path.read_text(encoding="utf-8") if source == "path" else stream.read()
    return got, text.splitlines()


@FUZZ
@given(LINE_TEXT, st.sampled_from(LINE_SOURCES))
def test_lines_join_to_read_text_splitlines(tmp_path_factory, text, source):
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    got, want = lines_and_splitlines(source, path)
    assert got == want
    # written back, they read as themselves, and the sha write_lines
    # fills holds exactly the bytes it wrote to a path, and nothing for a
    # stream
    out = path.with_name("out.txt")
    shas = [hashlib.sha256(), hashlib.sha256()]
    textio.write_lines(out, got, shas[0])
    textio.write_lines(io.StringIO(), got, shas[1])
    assert [sha.digest() for sha in shas] == [
        hashlib.sha256(out.read_bytes()).digest(), hashlib.sha256().digest()]
    assert list(textio.lines(out)) == got


@pytest.mark.parametrize("text, want", [
    ("", []),
    ("ab", ["ab"]),  # no final newline
    ("\n\nab\n\n", ["", "", "ab", ""]),  # blank lines
    ("abc\r\nd", ["abc", "d"]),  # one '\r\n' break
    ("ab\r\ncd", ["ab", "cd"]),  # a newline='\r' stream ends a line at its '\r'
])
def test_lines_edge_cases(tmp_path, text, want):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    assert path.read_text(encoding="utf-8").splitlines() == want
    for source in LINE_SOURCES:
        got, read = lines_and_splitlines(source, path)
        assert got == read


@pytest.mark.parametrize("brk", [*BREAKS, "\r\n"], ids=ascii)
def test_lines_split_at_every_break(tmp_path, brk):
    lines = [f"{j} {i} -1" for j in range(1, 41) for i in range(1, 51)]
    path = tmp_path / "f.txt"
    path.write_bytes((brk.join(lines) + brk).encode("utf-8"))
    assert list(textio.lines(path)) == lines
    for source in LINE_SOURCES:
        got, want = lines_and_splitlines(source, path)
        assert got == want


_DATA = Dataset(FeatureMatrix([[0.5, 0.0, 1 / 3]]), LabelMatrix([[1, 0, -1], [-1, 1, 0]]))
_MATRIX = np.eye(3) / 3


def _same_data(back, data):
    return (same_bits(back.features.values, data.features.values)
            and same_bits(back.labels.values, data.labels.values))


def _same_model(back, model):
    blocks = zip((back.U, back.V, back.W, *back.factors),
                 (model.U, model.V, model.W, *model.factors))
    return all(same_bits(got, want) for got, want in blocks) and (
        back.provenance == model.provenance)


# each file writer, given comments and a sink, and whether a file it wrote
# reads back exactly through its format's reader
STREAMED = {
    "save_gml": (lambda c, p: save_gml({p: _DATA}, comments=c),
                 lambda p: _same_data(decoded(load_gml, p), _DATA)),
    "save_matrix": (lambda c, p: save_matrix(_MATRIX, p, comments=c),
                    lambda p: same_bits(decoded(load_matrix, p), _MATRIX)),
    "save_partition": (lambda c, p: save_partition(_PART, p, comments=c),
                       lambda p: same_bits(load_partition(p, _FEATURES).assignment,
                                           _PART.assignment)),
    "save_model": (lambda c, p: save_model(_MODEL, p, comments=c),
                   lambda p: _same_model(load_model(p), _MODEL)),
}


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_files_hold_the_writers_text(tmp_path, name):
    save, reads_back = STREAMED[name]
    comments = [HOSTILE, "/data/run 1/train.gml"]
    path = tmp_path / "out.txt"
    save(comments, path)
    # a file holds what its writer gives a text stream
    if name != "save_gml":  # which takes paths only
        assert path.read_bytes() == saved(save, comments).encode("utf-8")
    assert reads_back(path)


def test_file_key_is_one_key_per_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = tmp_path.resolve()
    (root / "sub").mkdir()
    for name in ("x", "y"):
        (root / name).write_text("same text\n", encoding="utf-8")
    os.symlink(root / "x", root / "sym")
    os.link(root / "x", root / "hard")
    os.symlink(root / "new", root / "dangling")
    key = textio.file_key
    assert len({key(p) for p in ("x", "./x", "sub/../x", root / "x", "sym", "hard")}) == 1
    assert key("x") != key("y")
    # a path with no file yet is keyed by where a file written there goes
    assert key("new") == key("sub/../new") == key("dangling") == root / "new"
    assert key("x") != key("new") != key("y")
    assert key("sub") == root / "sub" and key("") == root


def _hidden_rows(stream):
    """The nonzero entries of a hidden-label matrix as 0-based (label,
    instance, value) rows, one numpy index at a time, in row-major order."""
    truth = LabelMatrix(load_matrix(stream)).values
    return np.array([(j, i, v) for (j, i), v in np.ndenumerate(truth) if v],
                    dtype=np.int64).reshape(-1, 3)


# the string readers kept for the benchmark, each with its format's reader
SHIMS = {"gml": (parse_gml, load_gml), "matrix": (read_matrix, load_matrix),
         "hidden": (read_hidden, _hidden_rows)}


def _outcome(read, text):
    """The arrays read(text) returns, or the type and text of its error."""
    try:
        got = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    arrays = (got.features.values, got.labels.values) if isinstance(got, Dataset) else (got,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


SHIM_CASES = [
    ("gml", "# c\n2 3 3\n+:1|-:2|1:0.5 3:1.0\n# mid\n+:2|-:|2:2.0\n", None),
    ("gml", "2 3 3\r\n+:1|-:2|1:0.5\r\n+:2|-:|2:2.0\r\n", None),
    ("gml", "2 3\n+:|-:|\n", "^line 1: malformed header"),
    ("gml", "1 3 3\n+:1|-:2|1:abc\n", "^line 2: non-numeric feature value 'abc'$"),
    ("gml", "1 3 3\n+:1|-:2|1:0.5 1:0.7\n", "^line 2: duplicate feature index 1$"),
    ("gml", "3 3 3\n+:1|-:|\n\n+:|-:|\n", "^line 3: expected 3 '[|]'-separated fields$"),
    ("matrix", "# m\n2 2\n1 2\n\n# c\n3 4\n", None),
    ("matrix", "2 1\r\n1.5\r\n-2\r\n", None),
    ("matrix", "x 2\n1 2\n", "^bad matrix header 'x 2'"),
    ("matrix", "1 2\n1 abc\n", "abc"),
    ("matrix", "2 2\n1 2 3\n", "^expected 4 values, found 3$"),
    ("hidden", "# h\n2 3\n0 1 0\n\n# c d e\n-1 0 -1\n", None),
    ("hidden", "2 2\r\n1 0\r\n0 -1\r\n", None),
    ("hidden", "2 2\n0 0\n0 0\n", None),
    ("hidden", "2 2\n1 2\n0 -1\n", "^label entries must be -1, 0 or \\+1$"),
    ("hidden", "2 2\n1 0.5\n0 -1\n", "^label entries must be -1, 0 or \\+1$"),
    ("hidden", "1 2\n1 -1\n", "^label matrix needs at least 2 labels$"),
    # the earlier sidecar format
    ("hidden", "1 1 1\n2 1 -1\n", "^expected 1 values, found 4$"),
    # appended, so the cases above keep their ids
    ("gml", "", "^line 1: missing header$"),
    ("gml", "# only a comment\n# and another\n", "^line 1: missing header$"),
]


@pytest.mark.parametrize("fmt, text, error", SHIM_CASES,
                         ids=[f"{fmt}-{i}" for i, (fmt, _, _) in enumerate(SHIM_CASES)])
def test_string_readers_read_as_load_of_a_text_stream(fmt, text, error):
    shim, load = SHIMS[fmt]
    want = _outcome(lambda t: load(io.StringIO(t)), text)
    assert _outcome(shim, text) == want
    if error is None:
        assert isinstance(want, list)
    else:
        assert isinstance(want, tuple) and re.search(error, want[1])


class Unprintable:
    def __str__(self):
        raise ValueError("no text")


@pytest.mark.parametrize("save, comments, error", [
    *((save, [Unprintable()], ValueError) for save, _ in STREAMED.values()),
    (lambda c, p: save_matrix(np.zeros(3), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.zeros((2, 2, 2)), p, comments=c), [], ValueError),
    # a matrix holds real numbers: none of these is written as a cast of it
    (lambda c, p: save_matrix(np.array([[1 + 1j, 2]]), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.array([["1", "2"]]), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.array([[True, False]]), p, comments=c), [], ValueError),
    (lambda c, p: save_matrix(np.array([[1, 2]], dtype=object), p, comments=c), [],
     ValueError),
], ids=[*(f"{name}-comment" for name in STREAMED), "save_matrix-1d", "save_matrix-3d",
        "save_matrix-complex", "save_matrix-text", "save_matrix-bool", "save_matrix-object"])
def test_writer_input_errors_leave_an_existing_file_untouched(tmp_path, save, comments, error):
    path = tmp_path / "out.txt"
    path.write_bytes(b"keep\n")
    with pytest.raises(error):
        save(comments, path)
    assert path.read_bytes() == b"keep\n"


# ---- (g) the GML array cache ----------------------------------------------

_GML = "3 2 2\n+:1|-:2|1:0.5 2:0.25\n+:|-:1,2|2:-1.5\n+:2|-:|1:3\n"


def _gml_with_cache(directory):
    """A GML file in directory and the path of its cache."""
    path = directory / "set.gml"
    path.write_text(_GML, encoding="utf-8")
    return path, directory / ".set.gml.glocal-cache"


def _npy(*arrays):
    buf = io.BytesIO()
    for a in arrays:
        np.save(buf, a)
    return buf.getvalue()


def _arrays(data):
    return data.features.values, data.labels.values


def _npy_header(shape):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


def refuse_decoding(monkeypatch):
    """Fail the test if load_gml or load_matrix decodes: a hit decodes
    nothing.  The private decoders both readers call are replaced, so a
    reader imported by name cannot slip past."""
    def decode(source):
        raise AssertionError(f"decoded {source!r}")
    monkeypatch.setattr(data_module, "_decode_gml", decode)
    monkeypatch.setattr(data_module, "_decode_matrix", decode)


def test_refuse_decoding_fails_a_miss(tmp_path, monkeypatch):
    # else every test of a hit below would pass without a cache
    path, cache = _gml_with_cache(tmp_path)
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 2\n3 4\n", encoding="utf-8")
    refuse_decoding(monkeypatch)
    with pytest.raises(AssertionError, match="^decoded "):
        load_gml(path)
    with pytest.raises(AssertionError, match="^decoded "):
        load_matrix(matrix)
    assert sorted(tmp_path.iterdir()) == [matrix, path]


def test_a_cache_hit_is_load_gml_bit_for_bit(tmp_path, monkeypatch):
    path, cache = _gml_with_cache(tmp_path)
    want = decoded(load_gml, path)
    miss = load_gml(path)
    assert cache.read_bytes().startswith(data_module._CACHE_MAGIC)
    refuse_decoding(monkeypatch)
    hit = load_gml(path)
    for got in (miss, hit):
        assert _same_data(got, want)
        assert not got.features.values.flags.writeable
        assert not got.labels.values.flags.writeable


def test_a_cache_misses_an_edit_that_keeps_the_size_and_mtime(tmp_path):
    path, _ = _gml_with_cache(tmp_path)
    load_gml(path)
    stat = path.stat()
    path.write_text(_GML.replace("0.25", "0.75"), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    got = load_gml(path)
    assert got.features.values[1, 0] == 0.75
    assert _same_data(got, decoded(load_gml, path))


# what each case does to a good cache, given its bytes and the head of
# them that holds the magic and the key line
_DAMAGE = {
    "truncated": lambda clean, head: clean[: len(clean) // 2],
    "truncated-key": lambda clean, head: head[:-10],
    "garbage": lambda clean, head: data_module._CACHE_MAGIC + b"garbage\n",
    "garbage-arrays": lambda clean, head: head + b"garbage",
    "one-array": lambda clean, head: head + _npy(np.zeros((2, 3))),
    "non-finite": lambda clean, head: head + _npy(np.full((2, 3), np.nan), np.zeros((2, 3), np.int8)),
    "label-2": lambda clean, head: head + _npy(np.zeros((2, 3)), np.full((2, 3), 2, np.int8)),
    "int16-labels": lambda clean, head: head + _npy(np.zeros((2, 3)), np.zeros((2, 3), np.int16)),
    "float32-features": lambda clean, head: head + _npy(np.zeros((2, 3), np.float32),
                                                        np.zeros((2, 3), np.int8)),
    "big-endian": lambda clean, head: head + _npy(np.zeros((2, 3), ">f8"),
                                                  np.zeros((2, 3), np.int8)),
    "1-d-features": lambda clean, head: head + _npy(np.zeros(3), np.zeros((2, 3), np.int8)),
    "other-n": lambda clean, head: head + _npy(np.zeros((2, 3)), np.zeros((2, 4), np.int8)),
    "one-label": lambda clean, head: head + _npy(np.zeros((2, 3)), np.zeros((1, 3), np.int8)),
    "object-array": lambda clean, head: head + _npy(np.array([[None]], dtype=object)),
    # a header whose shape no memory holds: 64 TiB of features
    "huge-shape": lambda clean, head: head + _npy_header((2**40, 8)),
    # the right values, laid out in Fortran order
    "fortran-order": lambda clean, head: head + _npy(*(
        np.asfortranarray(a) for a in _arrays(load_gml(io.StringIO(_GML))))),
}


@pytest.mark.parametrize("damage", [*_DAMAGE, "stamp"])
def test_a_cache_that_fails_a_check_is_ignored_and_rewritten(tmp_path, monkeypatch, damage):
    path, cache = _gml_with_cache(tmp_path)
    load_gml(path)
    clean = cache.read_bytes()
    if damage == "stamp":  # written by another decoder
        cache.unlink()
        monkeypatch.setattr(data_module, "_decoder_stamp", lambda: b" " + b"0" * 64 + b"\n")
        load_gml(path)
        monkeypatch.undo()
    else:
        head = clean[: clean.index(b"\n", len(data_module._CACHE_MAGIC)) + 1]
        cache.write_bytes(_DAMAGE[damage](clean, head))
    assert cache.read_bytes() != clean
    assert _same_data(load_gml(path), decoded(load_gml, path))
    assert cache.read_bytes() == clean
    assert sorted(p.name for p in tmp_path.iterdir()) == [cache.name, path.name]


def test_a_file_at_the_cache_path_that_is_no_cache_is_left_as_it_is(tmp_path):
    path, cache = _gml_with_cache(tmp_path)
    cache.write_bytes(b"garbage")
    for _ in range(2):
        assert _same_data(load_gml(path), decoded(load_gml, path))
    assert cache.read_bytes() == b"garbage"
    assert sorted(p.name for p in tmp_path.iterdir()) == [cache.name, path.name]


def _python(script, *args):
    """script run with args by a fresh interpreter that imports this
    glocal.  Opening a FIFO blocks until its other end comes, so a run
    that blocks fails its test, by a timeout, not the suite."""
    src = str(Path(data_module.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)


def test_a_fifo_at_the_cache_path_is_neither_opened_nor_replaced(tmp_path):
    path, cache = _gml_with_cache(tmp_path)
    matrix = tmp_path / "m.txt"
    fifos = [cache, data_module._cache_path(matrix)]
    for fifo in fifos:
        os.mkfifo(fifo)
    script = ("import sys, numpy as np\n"
              "from glocal.data import load_gml, load_matrix, save_matrix\n"
              "print(load_gml(sys.argv[1]).n)\n"
              "save_matrix(np.eye(2), sys.argv[2])\n"
              "print(load_matrix(sys.argv[2]).tolist())\n")
    proc = _python(script, path, matrix)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n[[1.0, 0.0], [0.0, 1.0]]\n", "")
    assert all(stat.S_ISFIFO(fifo.lstat().st_mode) for fifo in fifos)
    assert sorted(tmp_path.iterdir()) == sorted([path, matrix, *fifos])


def test_a_fifo_beside_a_stale_cache_is_read_once(tmp_path):
    # a FIFO's bytes are gone once read: hashing them for the key of the
    # regular cache beside it would leave none to decode, and opening the
    # FIFO again would block
    gml, matrix = tmp_path / "set.gml", tmp_path / "m.txt"
    save_gml({gml: _DATA})
    save_matrix(_MATRIX, matrix)
    caches = {cache: cache.read_bytes() for cache in map(data_module._cache_path, (gml, matrix))}
    for path in (gml, matrix):
        path.unlink()
        os.mkfifo(path)
    # each FIFO gets other text than its cache's, from a thread of the run
    texts = [_GML, saved(save_matrix, np.eye(2))]
    script = ("import sys, threading\n"
              "from glocal.data import load_gml, load_matrix\n"
              "def feed(path, text):\n"
              "    with open(path, 'w', encoding='utf-8') as fifo:\n"
              "        fifo.write(text)\n"
              "for path, text in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    threading.Thread(target=feed, args=(path, text), daemon=True).start()\n"
              "    if path.endswith('.gml'):\n"
              "        data = load_gml(path)\n"
              "        print(data.features.values.tolist(), data.labels.values.tolist())\n"
              "    else:\n"
              "        print(load_matrix(path).tolist())\n")
    proc = _python(script, gml, texts[0], matrix, texts[1])
    want = parse_gml(texts[0])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (f"{want.features.values.tolist()} {want.labels.values.tolist()}\n"
                           f"{read_matrix(texts[1]).tolist()}\n")
    assert {cache: cache.read_bytes() for cache in caches} == caches


def test_a_gml_file_that_fails_to_decode_writes_no_cache(tmp_path):
    path, _ = _gml_with_cache(tmp_path)
    path.write_text(_GML.replace("2:-1.5", "2:x"), encoding="utf-8")
    with pytest.raises(GmlFormatError, match=r"^line 3: non-numeric feature value 'x'$"):
        load_gml(path)
    assert list(tmp_path.iterdir()) == [path]


def test_a_cache_write_that_fails_leaves_no_file(tmp_path, monkeypatch):
    # the disk fills up as the arrays are written: the load still returns
    # the data, and neither a cache nor its temporary file is left
    path, _ = _gml_with_cache(tmp_path)

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(np.lib.format, "write_array", full_disk)
    assert _same_data(load_gml(path), decoded(load_gml, path))
    assert list(tmp_path.iterdir()) == [path]


# each call that writes a cache beside the GML file at a path (save_matrix
# replaces the file with a matrix), by case id
_CACHE_WRITERS = {
    "load_gml_cached": load_gml,
    "save_gml_cached": lambda path: save_gml({path: decoded(load_gml, path)}),
    "save_matrix_cached": lambda path: save_matrix(np.eye(2), path),
}


@pytest.mark.parametrize("mode", [0o640, 0o644])
@pytest.mark.parametrize("writer", _CACHE_WRITERS)
def test_a_cache_has_the_permission_bits_of_its_file(tmp_path, mode, writer):
    # whoever can read the text can read its arrays
    path, cache = _gml_with_cache(tmp_path)
    path.chmod(mode)
    _CACHE_WRITERS[writer](path)
    assert stat.S_IMODE(cache.stat().st_mode) == stat.S_IMODE(path.stat().st_mode) == mode


def test_the_decoder_stamp_is_computed_once(monkeypatch):
    # every cache read and write keys by it; the sources are hashed once
    stamp = data_module._decoder_stamp()
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"read {self}"))
    assert data_module._decoder_stamp() is stamp


# ---- (h) the caches written with the files --------------------------------

# features holding -0.0, which save_gml does not write, subnormals and
# other floats whose text form is easy to get wrong
_AWKWARD_X = np.array([[-0.0, 5e-324, 1.0], [2.0**-1074 * 3, -0.0, -2.5e300],
                       [1 / 3, 0.0, -1e-17], [2.2250738585072014e-308 / 2, 7.0, -0.0]])
_AWKWARD_Y = np.array([[1, -1, 0], [0, 1, -1]], dtype=np.int8)
_LAYOUTS = {
    "c-order": lambda a: a,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    # a view with gaps, which a constructor copies keeping its axis order
    "strided": lambda a: np.asfortranarray(np.repeat(a, 2, axis=1))[:, ::2],
}


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_a_gml_file_saved_with_its_cache_loads_from_it_as_load_gml_decodes(
        tmp_path, monkeypatch, layout):
    data = Dataset(FeatureMatrix(_LAYOUTS[layout](_AWKWARD_X)),
                   LabelMatrix(_LAYOUTS[layout](_AWKWARD_Y)))
    assert np.signbit(data.features.values[data.features.values == 0]).any()
    path = tmp_path / "set.gml"
    save_gml({path: data}, comments=["c"])
    save_gml({tmp_path / "plain.gml": data}, comments=["c"])
    assert path.read_bytes() == (tmp_path / "plain.gml").read_bytes()
    want = decoded(load_gml, path)
    refuse_decoding(monkeypatch)
    hit = load_gml(path)
    assert _same_data(hit, want)
    assert all(a.flags.c_contiguous for a in _arrays(hit))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".plain.gml.glocal-cache", ".set.gml.glocal-cache", "plain.gml", "set.gml"]


_MATRICES = {
    "int8": np.array([[-128, 0, 127], [1, -1, 5]], dtype=np.int8),
    "int64": np.array([[2**53 + 1, -2**63], [2**63 - 1, 0]], dtype=np.int64),
    "uint64": np.array([[2**64 - 1, 0], [2**53 + 1, 1]], dtype=np.uint64),
    "float32": np.array([[0.1, -0.0], [3.4e38, 1e-45]], dtype=np.float32),
    "float64": np.array([[-0.0, 5e-324], [1 / 3, -2.5e300]]),
    "transposed": np.arange(6.0).reshape(2, 3).T,
    "strided": np.arange(12.0).reshape(3, 4)[:, ::2],
}


@pytest.mark.parametrize("name", _MATRICES)
def test_a_matrix_saved_with_its_cache_loads_from_it_as_load_matrix_decodes(
        tmp_path, monkeypatch, name):
    path = tmp_path / "m.txt"
    save_matrix(_MATRICES[name], path, comments=["c"])
    assert path.read_bytes() == saved(save_matrix, _MATRICES[name], comments=["c"]).encode()
    want = decoded(load_matrix, path)
    refuse_decoding(monkeypatch)
    got = load_matrix(path)
    assert same_bits(got, want) and got.flags.c_contiguous
    assert sorted(p.name for p in tmp_path.iterdir()) == [".m.txt.glocal-cache", "m.txt"]


@ROUND_TRIP
@given(arrays(st.sampled_from([np.int8, np.int64, np.uint64, np.float32, np.float64]),
              st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_a_matrix_cache_holds_what_load_matrix_decodes(A):
    # a finite matrix is cached as the float64 the text decodes to; one
    # holding NaN or an infinity gets no cache, and a read decodes it
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        save_matrix(A, path)
        with pytest.MonkeyPatch.context() as monkeypatch:
            refuse_decoding(monkeypatch)
            try:
                cached = load_matrix(path)
            except AssertionError:  # a miss: there is no cache to read
                cached = None
        finite = np.isfinite(A.astype(np.float64)).all()
        assert (cached is not None) == finite
        if finite:
            assert same_bits(cached, decoded(load_matrix, path))
        assert same_bits(load_matrix(path), decoded(load_matrix, path))
        assert (cached is not None) == (len(list(Path(tmp).iterdir())) == 2)


def test_a_gml_cache_is_not_read_as_a_matrix_cache(tmp_path):
    # the key names the reader, so a GML file's arrays are never a matrix
    path, cache = _gml_with_cache(tmp_path)
    load_gml(path)
    with pytest.raises(ValueError):
        load_matrix(path)
    assert cache.read_bytes().startswith(data_module._CACHE_MAGIC)


@pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
def test_a_matrix_that_is_not_finite_gets_no_cache(tmp_path, value):
    path = tmp_path / "m.txt"
    save_matrix(np.array([[1.0, value]]), path)
    assert list(tmp_path.iterdir()) == [path]
    assert same_bits(load_matrix(path), decoded(load_matrix, path))
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_two_paths_naming_one_gml_file_cache_the_later_dataset(tmp_path, monkeypatch, order):
    path, cache = _gml_with_cache(tmp_path)
    (tmp_path / "sub").mkdir()
    first = decoded(load_gml, path)
    datasets = [first, Dataset(first.features, LabelMatrix(-first.labels.values))]
    earlier, later = (datasets[i] for i in order)
    save_gml({path: earlier, tmp_path / "sub" / ".." / path.name: later})
    refuse_decoding(monkeypatch)
    assert _same_data(load_gml(path), later)
    assert sorted(p.name for p in tmp_path.iterdir()) == [cache.name, path.name, "sub"]


@pytest.mark.parametrize("save", ["save_gml_cached", "save_matrix_cached"])
def test_a_saver_leaves_a_file_at_the_cache_path_that_is_no_cache(tmp_path, save):
    path, cache = _gml_with_cache(tmp_path)
    cache.write_bytes(b"garbage")
    _CACHE_WRITERS[save](path)
    assert cache.read_bytes() == b"garbage"
    assert sorted(p.name for p in tmp_path.iterdir()) == [cache.name, path.name]


def test_a_save_whose_cache_write_fails_writes_the_file_alone(tmp_path, monkeypatch):
    # the disk fills up as the arrays are written: the file holds what
    # save_gml writes, and neither a cache nor its temporary file is left
    path, _ = _gml_with_cache(tmp_path)
    data = decoded(load_gml, path)
    (tmp_path / "plain").mkdir()
    save_gml({tmp_path / "plain" / path.name: data})

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(np.lib.format, "write_array", full_disk)
    save_gml({path: data})
    assert path.read_bytes() == (tmp_path / "plain" / path.name).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", path.name]


@pytest.mark.parametrize("use", _CACHE_WRITERS)
def test_a_pipe_gets_no_cache(tmp_path, use):
    # a pipe's bytes are gone once read, so no key could be checked
    path = tmp_path / "pipe.gml"
    os.mkfifo(path)
    got = []
    if use == "load_gml_cached":
        other = threading.Thread(target=path.write_text, args=(_GML, "utf-8"), daemon=True)
    else:
        other = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    other.start()
    if use == "load_gml_cached":
        assert _same_data(load_gml(path), load_gml(io.StringIO(_GML)))
    elif use == "save_gml_cached":
        save_gml({path: load_gml(io.StringIO(_GML))})
    else:
        save_matrix(np.eye(2), path)
    other.join(timeout=10)
    assert not other.is_alive() and (use == "load_gml_cached" or got[0])
    assert list(tmp_path.iterdir()) == [path]
